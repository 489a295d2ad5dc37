"""K one magnetisation block at a time: the lift and the compression.

Column (lambda, m2) of K lives on the product kets of Hamming weight
n/2 - m2, so every payload K (A (x) I_d) K^dag is block-diagonal in the
weight, and K^dag P K of any P can be taken one weight class at a time. The
basis stores only those blocks, so a K with weight outside its classes cannot
be represented; these tests pin the dense K assembled from the blocks, the
gate on an end class (whose ladder leaves the sector), the exact zeros of
every payload the library builds, and the compression against the dense
K^dag P K at small n.
"""

import dataclasses
import tracemalloc
from math import comb

import numpy as np
import pytest

from rffqudit.channel import random_density, random_povm
from rffqudit.coupling import (
    ROW_BLOCK_BYTES,
    SECTOR_TOL,
    CoupledBasis,
    build_coupled_basis,
    hamming_weights,
)
from rffqudit.encoder import (
    QuditState,
    build_hws,
    build_q_set,
    decode_payload,
    encode_povm,
    encode_state,
)
from rffqudit.errors import ConsistencyError, ValidationError
from rffqudit.linalg import dagger, max_abs_diff
from rffqudit.spinsys import SpinRegister
from rffqudit.verify import entropy_defect_residual, suite_encoder

SEED = 20261018


def basis_for(n):
    return build_coupled_basis(SpinRegister(n))


def test_weight_classes_are_the_nonzero_blocks_of_k():
    basis = basis_for(6)
    weight = hamming_weights(6)
    size = len(basis.m2_values())
    rebuilt = np.zeros_like(basis.isometry)
    for k, (rows, block) in enumerate(basis.weight_classes):
        assert (weight[rows] == k + 1).all()  # m2 = j2 - k, weight n/2 - m2
        assert block.shape == (len(rows), basis.d) and not block.flags.writeable
        rebuilt[np.ix_(rows, np.arange(k, basis.d * size, size))] = block
    assert np.array_equal(rebuilt, basis.isometry)  # K is exactly zero elsewhere
    assert basis.weight_classes is basis.weight_classes  # computed once per basis


def test_an_end_class_ket_that_raises_onto_all_up_fails_the_covariance_gate():
    # The weight-1 symmetric state is orthogonal to every other column of the
    # m2 = j2 block, so K stays an isometry; but J_+ sends it to |0...0>, not to 0.
    basis = basis_for(5)
    block = basis.blocks[0].copy()
    block[:, 0] = 1 / np.sqrt(len(block))
    corrupted = dataclasses.replace(basis, blocks=(block,) + basis.blocks[1:])
    residuals = corrupted.gate_residuals
    assert residuals["gram"] <= 1e-15 and residuals["covariance"] > 0.1
    with pytest.raises(ConsistencyError, match="commute with J"):
        build_q_set(corrupted)


def _weight_block_mask(n):
    weight = hamming_weights(n)
    same = weight[:, None] == weight[None, :]
    ends = (weight == 0) | (weight == n)
    return same & ~ends[:, None] & ~ends[None, :]


@pytest.mark.parametrize("n", range(3, 9))
def test_every_built_payload_is_exactly_zero_off_the_weight_blocks(n):
    qs = basis_for(n)
    d = qs.d
    rng = np.random.default_rng([SEED, n])
    pair = build_hws(qs)
    payloads = [encode_state(qs, QuditState(d, random_density(rng, d))).payload,
                *(e.payload for e in encode_povm(qs, random_povm(rng, d, d + 1))),
                pair.u, pair.v, qs.sector_projector, qs(1, d), qs(d, 1), qs(2, 2)]
    outside = ~_weight_block_mask(n)
    for payload in payloads:
        assert (payload[outside] == 0.0).all()


@pytest.fixture(scope="module", params=(3, 4, 5, 6))
def dense_case(request):
    n = request.param
    basis = basis_for(n)
    rng = np.random.default_rng([SEED, n, 1])
    size = 2 ** n
    payload = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return basis, payload


def test_compression_matches_the_dense_products(dense_case):
    basis, payload = dense_case
    k = basis.isometry
    dense = dagger(k) @ payload @ k
    frame, residual = basis.compress(payload)
    assert max_abs_diff(frame, dense) <= 1e-12
    dense_residual = max_abs_diff(payload, k @ dagger(k) @ payload @ k @ dagger(k))
    assert residual == pytest.approx(dense_residual, abs=1e-12)


def test_compression_in_strips_matches_one_strip(dense_case, monkeypatch):
    # Strips of one row read every class in several pieces; a stray on the
    # last row of a class is read by its last strip alone.
    basis, payload = dense_case
    k = basis.isometry
    rows = basis.weight_classes[len(basis.weight_classes) // 2][0]
    logical = random_density(np.random.default_rng([SEED, basis.n, 3]), basis.d)
    lifted = basis.lift(logical)
    stray = lifted.copy()
    stray[rows[-1], rows[-1]] += 1e-3
    whole = [basis.compress(p) for p in (payload, stray)]
    monkeypatch.setattr("rffqudit.coupling.ROW_BLOCK_BYTES", 1)
    assert max_abs_diff(basis.lift(logical), lifted) <= 1e-15
    for p, (frame, residual) in zip((payload, stray), whole):
        in_strips = basis.compress(p)
        assert max_abs_diff(in_strips[0], frame) <= 1e-12
        assert in_strips[1] == pytest.approx(residual, abs=1e-12)
    dense = max_abs_diff(stray, k @ dagger(k) @ stray @ k @ dagger(k))
    assert dense > 1e-4 and basis.compress(stray)[1] == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("n", (3, 4, 6))
@pytest.mark.parametrize("ket", ("all-up", "all-down"))
def test_a_stray_on_either_end_ket_is_off_the_sector(n, ket):
    qs = basis_for(n)
    d = qs.d
    state = QuditState(d, random_density(np.random.default_rng([SEED, n, 2]), d))
    payload = encode_state(qs, state).payload
    index = 0 if ket == "all-up" else 2 ** n - 1
    payload[index, index] += 1e-6
    assert qs.compress(payload)[1] == pytest.approx(1e-6, rel=1e-9)
    with pytest.raises(ValidationError, match="sector"):
        decode_payload(qs, payload)
    payload[index, index] -= 1e-6
    for entry in ((index, 1), (1, index)):  # coupling the end ket to a weight-1 ket
        payload[entry] += 1e-6
        assert qs.compress(payload)[1] == pytest.approx(1e-6, rel=1e-9)
        payload[entry] -= 1e-6


def test_n11_compression_holds_strips_and_one_k_sized_array():
    qs = basis_for(11)
    state = QuditState(qs.d, random_density(np.random.default_rng(SEED), qs.d))
    payload = encode_state(qs, state).payload
    qs.weight_classes  # cached with the basis, like its gate residuals
    # decode_payload walks the dense payload in strips beside one K.
    extra = 4 * ROW_BLOCK_BYTES + qs.isometry.nbytes
    # The entropy row lifts one trial at a time at n = 11 (its blocks exceed
    # ROW_BLOCK_BYTES) and lifts and compresses one class at a time: the
    # class's block, B C B^dag - P of it and its modulus (three arrays of the
    # largest class at most), plus small arrays; never all classes at once.
    blocks = 16 * (comb(22, 11) - 2)
    largest = 16 * comb(11, 5) ** 2
    assert blocks > ROW_BLOCK_BYTES and 3 * largest < blocks
    for row, bound in ((lambda: decode_payload(qs, payload), extra),
                       (lambda: entropy_defect_residual(qs, 5), 3 * largest + 2 ** 20)):
        tracemalloc.start()
        try:
            row()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
    cached = [a for a in vars(qs).values() if isinstance(a, np.ndarray)]
    cached += [a for rows_block in qs.weight_classes for a in rows_block]
    # No K^dag copy is kept: the weight blocks hold K's nonzeros once.
    owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
              for a in cached}
    assert sum(a.nbytes for a in owners.values()) < 1.2 * qs.isometry.nbytes


# ---------------------------------------------------------------------------
# The block path: lift_blocks and compress_lifted against plain products
# ---------------------------------------------------------------------------

def _scatter(basis, blocks):
    """The 2**n x 2**n matrix with blocks on the weight classes, zero elsewhere."""
    out = np.zeros((2 ** basis.n,) * 2, dtype=complex)
    for (rows, _), block in zip(basis.weight_classes, blocks):
        out[np.ix_(rows, rows)] = block
    return out


def test_lifted_blocks_scatter_to_the_plain_product_payload(dense_case):
    basis, _ = dense_case
    d, k = basis.d, basis.isometry
    logical = random_density(np.random.default_rng([SEED, basis.n, 4]), d)
    logical[0, -1] += 0.3j  # not hermitian: B A B^dag, not its adjoint
    blocks = list(basis.lift_blocks(logical))
    plain = k @ np.kron(logical, np.eye(d)) @ k.conj().T
    assert [b.shape for b in blocks] == [(len(rows),) * 2 for rows, _ in basis.weight_classes]
    assert max_abs_diff(_scatter(basis, blocks), plain) <= 1e-12
    assert np.array_equal(basis.lift(logical), _scatter(basis, blocks))


def _with_stray(monkeypatch, delta, trial=None):
    """Patch lift_blocks to add delta to every entry of the first class's block,
    of every trial or of the given trial of the whole stack alone. That adds
    delta times the projector onto the class's symmetric ket, scaled by the
    class size: it lies in the largest-j sector, so each frame C is unchanged
    and the residual |P - K C K^dag| is delta."""
    real, seen = CoupledBasis.lift_blocks, [0]  # trials lifted so far

    def stray(basis, logical):
        first, *rest = real(basis, logical)
        hit = slice(None) if trial is None else trial - seen[0]
        seen[0] += len(logical)
        if trial is None or 0 <= hit < len(logical):
            first[hit] += delta
        return (first, *rest)

    monkeypatch.setattr(CoupledBasis, "lift_blocks", stray)


def test_compressed_blocks_are_the_weight_diagonal_blocks_of_the_dense_frame(
        dense_case, monkeypatch):
    basis, _ = dense_case
    d, k, size = basis.d, basis.isometry, len(basis.weight_classes)
    rng = np.random.default_rng([SEED, basis.n, 6])
    logical = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))  # not hermitian
    frames = basis.compress_lifted(logical)
    assert frames.shape == (3, size, d, d)
    for a, frame in zip(logical, frames):
        dense = dagger(k) @ basis.lift(a) @ k  # columns (lambda, m2): class m is every size-th
        for m in range(size):
            assert max_abs_diff(frame[m], dense[m::size, m::size]) <= 1e-12
    _with_stray(monkeypatch, SECTOR_TOL / 2)
    assert max_abs_diff(basis.compress_lifted(logical), frames) <= 1e-12
    monkeypatch.undo()
    _with_stray(monkeypatch, 1e-6)
    with pytest.raises(ConsistencyError, match=r"state 0 .*= 1\.000e-06 > 1e-09\)$"):
        basis.compress_lifted(logical)


def test_a_stack_of_trials_equals_one_trial_at_a_time(dense_case, monkeypatch):
    basis, _ = dense_case
    rng = np.random.default_rng([SEED, basis.n, 5])
    logical = np.array([random_density(rng, basis.d) for _ in range(4)])
    stacked = list(basis.lift_blocks(logical))
    frames = basis.compress_lifted(logical)
    assert frames.shape == (4, len(basis.weight_classes), basis.d, basis.d)
    for t, single in enumerate(logical):
        blocks = list(basis.lift_blocks(single))
        assert all(max_abs_diff(a[t], b) <= 1e-15 for a, b in zip(stacked, blocks))
        assert max_abs_diff(frames[t], basis.compress_lifted(single[None])[0]) <= 1e-15
    for chunk_bytes in (ROW_BLOCK_BYTES, 1):  # every trial in one chunk, one per chunk
        monkeypatch.setattr("rffqudit.coupling.ROW_BLOCK_BYTES", chunk_bytes)
        assert max_abs_diff(basis.compress_lifted(logical), frames) <= 1e-15
        _with_stray(monkeypatch, 1e-6, trial=2)
        with pytest.raises(ConsistencyError, match=r"^the encoded payload of state 2 "):
            basis.compress_lifted(logical)
        monkeypatch.undo()


@pytest.mark.parametrize("n, per_chunk", ((9, [5]), (10, [1] * 5)))
def test_a_row_lifts_its_trials_in_chunks_of_row_block_bytes(n, per_chunk, monkeypatch):
    qs = basis_for(n)
    sizes, real = [], CoupledBasis.lift_blocks

    def recording(basis, logical):
        sizes.append(len(logical))
        return real(basis, logical)

    monkeypatch.setattr(CoupledBasis, "lift_blocks", recording)
    assert entropy_defect_residual(qs, 5) < 1e-8
    assert sizes == per_chunk


def _rows_failed_by(monkeypatch, lift_blocks, n):
    monkeypatch.setattr(CoupledBasis, "lift_blocks", lift_blocks)
    rows = suite_encoder(n_values=(n,))
    return {r.id.split(":")[1] for r in rows if not r.passed}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_a_lift_without_the_conjugate_fails_every_row_that_reads_lifted_blocks(n, monkeypatch):
    # B A B^T in place of B A B^dag. For the Fourier coupling conj(B) = B W for
    # a permutation W of lambda, so P stays on the sector and the gate passes;
    # P is not hermitian, and its frames are A W^dag, not A.
    def transposed(basis, logical):
        return tuple(block @ logical @ block.T for block in basis.blocks)

    assert _rows_failed_by(monkeypatch, transposed, n) == {
        "q-hermitian", "round-trip", "entropy", "born"}


def test_swapped_class_blocks_fail_the_round_trip_entropy_and_born_rows(monkeypatch):
    # At n = 5 the classes m2 = j2 - 1 and j2 - 2 both hold C(5, 2) = 10 kets;
    # each block lifted with the other class's B is off the sector.
    real = CoupledBasis.lift_blocks

    def swapped(basis, logical):
        blocks = list(real(basis, logical))
        blocks[1], blocks[2] = blocks[2], blocks[1]
        return tuple(blocks)

    assert _rows_failed_by(monkeypatch, swapped, 5) == {"round-trip", "entropy", "born"}
