"""K one magnetisation block at a time: the lift and the compression.

Column (lambda, m2) of K lives on the product kets of Hamming weight
n/2 - m2, so every payload K (A (x) I_d) K^dag is block-diagonal in the
weight, and K^dag P K of any P can be taken one weight class at a time. These
tests pin the precondition (the gate rejects a K with weight outside its
class), the exact zeros of every payload the library builds, and the
compression against the dense K^dag P K at small n.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rffqudit.channel import random_density, random_povm
from rffqudit.coupling import ROW_BLOCK_BYTES, build_coupled_basis, hamming_weights
from rffqudit.encoder import (
    QuditState,
    build_hws,
    build_q_set,
    decode_payload,
    encode_povm,
    encode_state,
    encoded_entropy_check,
)
from rffqudit.errors import ConsistencyError, ValidationError
from rffqudit.linalg import dagger, max_abs_diff
from rffqudit.spinsys import SpinRegister

SEED = 20261018


def basis_for(n):
    return build_coupled_basis(SpinRegister(n))


def _with_entry(basis, row, column, value):
    k = basis.isometry.copy()
    k[row, column] += value
    return dataclasses.replace(basis, isometry=k)


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


def test_a_k_with_weight_on_the_all_up_row_fails_the_covariance_gate():
    # Row 0 is outside every class; 1e-6 there moves K^dag K by only 1e-12.
    basis = basis_for(5)
    corrupted = _with_entry(basis, 0, 3, 1e-6)
    residuals = corrupted.gate_residuals
    assert residuals["gram"] < 1e-10 < residuals["covariance"]
    with pytest.raises(ConsistencyError, match="commute with J"):
        build_q_set(corrupted)


def test_a_k_with_weight_in_another_class_fails_the_gate():
    basis = basis_for(5)
    row = int(basis.weight_classes[2][0][0])  # weight 3, outside column 0's class
    corrupted = _with_entry(basis, row, 0, 1e-6)
    assert corrupted.gate_residuals["covariance"] > 1e-7
    with pytest.raises(ConsistencyError):
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
    assert max_abs_diff(basis.sector_frame(payload), dense) <= 1e-12
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
    enc = encode_state(qs, state)
    payload = enc.payload
    qs.weight_classes  # cached with the basis, like its gate residuals
    extra = 4 * ROW_BLOCK_BYTES + qs.isometry.nbytes
    for row, held in ((lambda: decode_payload(qs, payload), 0),
                      (lambda: encoded_entropy_check(state, enc), payload.nbytes)):
        tracemalloc.start()
        try:
            row()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held + extra
    cached = [a for a in vars(qs).values() if isinstance(a, np.ndarray)]
    cached += [a for rows_block in qs.weight_classes for a in rows_block]
    # No K^dag copy is kept: the weight blocks hold K's nonzeros once.
    owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
              for a in cached}
    assert sum(a.nbytes for a in owners.values()) < 1.2 * qs.isometry.nbytes
