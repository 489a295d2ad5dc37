"""Symmetric coupling: sector combinatorics, coupled kets, singlet bases."""

import dataclasses
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from rffqudit import coupling
from rffqudit.coupling import (
    basis_overlap_blocks,
    block_mixing_residual,
    build_coupled_basis,
    cg_singlets,
    coupling_fingerprint,
    fourier_coupling,
    gram_residual,
    multiplicity,
    partial_trace_m2,
    sector_census,
    sector_index_set,
    sector_membership_residual,
    symmetric_singlets,
    validate_coupling,
    weight_rows,
)
from rffqudit.errors import ConsistencyError, ContractViolationError, ValidationError
from rffqudit.linalg import dagger, identity, max_abs_diff
from rffqudit.spinsys import (
    SpinRegister,
    haar_su2,
    kron_power,
    permutation_indices,
    product_ket,
    sigma,
    swap,
    total_J,
    transposition,
)

W4 = 1j  # exp(2 pi i / 4)


def test_sector_index_set():
    assert sector_index_set(3) == [Fraction(3, 2), Fraction(1, 2)]
    assert sector_index_set(4) == [Fraction(2), Fraction(1), Fraction(0)]


def test_multiplicity_closed_form():
    # c_j = n! (2j+1) / ((n/2+j+1)! (n/2-j)!)
    assert multiplicity(3, Fraction(3, 2)) == 1
    assert multiplicity(3, Fraction(1, 2)) == 2
    assert multiplicity(4, 2) == 1
    assert multiplicity(4, 1) == 3
    assert multiplicity(4, 0) == 2
    assert multiplicity(6, 2) == 5
    # The second-largest sector always has multiplicity n - 1.
    for n in range(3, 9):
        assert multiplicity(n, Fraction(n, 2) - 1) == n - 1


@pytest.mark.parametrize("n", range(2, 9))
def test_multiplicities_fill_the_register(n):
    total = sum(
        multiplicity(n, j) * (int(2 * j) + 1) for j in sector_index_set(n)
    )
    assert total == 2 ** n


def test_multiplicity_matches_factorial_formula():
    for n in (3, 4, 5, 6):
        for j in sector_index_set(n):
            half = Fraction(n, 2)
            expected = (
                factorial(n) * (int(2 * j) + 1)
                // (factorial(int(half + j) + 1) * factorial(int(half - j)))
            )
            assert multiplicity(n, j) == expected


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_fourier_coupling_is_unitary_with_symmetric_last_row(n):
    u = fourier_coupling(n)
    np.testing.assert_allclose(u @ dagger(u), identity(n), atol=1e-13)
    np.testing.assert_allclose(u[n - 1], np.full(n, n ** -0.5), atol=1e-13)
    validate_coupling(u, n)


def test_validate_coupling_names_the_defect():
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ValidationError, match="unitary"):
        validate_coupling(bad, 3)
    # Unitary but with a non-symmetric final row.
    with pytest.raises(ValidationError, match="row"):
        validate_coupling(np.eye(3, dtype=complex), 3)
    with pytest.raises(ValidationError, match="3x3"):
        validate_coupling(fourier_coupling(4), 3)


def omega_minus(reg, coupling, lam):
    """The dense Omega_minus(lambda) = sum_l U_{lambda,l} sigma_minus^(l)."""
    return sum(coupling[lam - 1, l - 1] * sigma(reg, l, "-") for l in range(1, reg.n + 1))


def test_omega_minus_last_label_is_collective_lowering():
    # The Fourier coupling's last row is n**-1/2 throughout: Omega_minus(n) = J_minus/sqrt(n).
    reg = SpinRegister(4)
    J = total_J(reg)
    om = omega_minus(reg, fourier_coupling(4), lam=4)
    np.testing.assert_allclose(om, J.j_minus / 2.0, atol=1e-13)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_coupled_basis_shape_and_quality(n):
    basis = build_coupled_basis(SpinRegister(n))
    assert basis.d == n - 1
    assert basis.j2 == Fraction(n, 2) - 1
    assert basis.isometry.shape == (2**n, (n - 1) * (int(2 * basis.j2) + 1))
    assert gram_residual(basis) < 1e-12
    assert sector_membership_residual(basis) < 1e-12


@pytest.mark.parametrize("n", (3, 4, 5))
def test_ket_is_the_isometry_column_lambda_then_m2(n):
    basis = build_coupled_basis(SpinRegister(n))
    size = int(2 * basis.j2) + 1
    for lam in range(1, basis.d + 1):
        for m2 in basis.m2_values():
            column = (lam - 1) * size + int(basis.j2 - m2)
            assert np.array_equal(basis.ket(m2, lam), basis.isometry[:, column])
    with pytest.raises(ContractViolationError):
        basis.ket(basis.j2 + 1, 1)
    with pytest.raises(ContractViolationError):
        basis.ket(basis.j2, basis.d + 1)


def test_sector_membership_rejects_a_column_outside_the_sector():
    # The weight-2 Dicke state has m = 0 like the m2 = 0 block, but lies in j = 2.
    basis = build_coupled_basis(SpinRegister(4))
    block = basis.blocks[1].copy()
    block[:, 0] = 1 / np.sqrt(len(block))
    blocks = basis.blocks[:1] + (block,) + basis.blocks[2:]
    corrupted = dataclasses.replace(basis, blocks=blocks)
    assert sector_membership_residual(corrupted) > 0.1


def test_coupled_basis_m2_values_descend():
    basis = build_coupled_basis(SpinRegister(4))
    assert basis.m2_values() == [Fraction(1), Fraction(0), Fraction(-1)]


def test_build_coupled_basis_needs_three_constituents():
    with pytest.raises(ContractViolationError):
        build_coupled_basis(SpinRegister(2))


def test_coupled_kets_match_construction_formula():
    # |j2, m2; lam> = sqrt((j2+m2)!/((2 j2)! (j2-m2)!)) Omega_-(lam) J_-^(j2-m2) |0...0>
    for n in (3, 4, 5):
        reg = SpinRegister(n)
        basis = build_coupled_basis(reg)
        J = total_J(reg)
        coupling = fourier_coupling(n)
        fiducial = product_ket("0" * n)
        j2 = basis.j2
        for lam in range(1, n):
            om = omega_minus(reg, coupling, lam)
            for m2 in basis.m2_values():
                k = int(j2 - m2)
                coeff = np.sqrt(
                    factorial(int(j2 + m2))
                    / (factorial(int(2 * j2)) * factorial(k))
                )
                vec = fiducial
                for _ in range(k):
                    vec = J.j_minus @ vec
                expected = coeff * (om @ vec)
                np.testing.assert_allclose(
                    basis.ket(m2, lam), expected, atol=1e-12
                )


def test_four_constituent_kets_match_explicit_superpositions():
    """The n=4 coupled kets in their exact product-state expansions."""
    basis = build_coupled_basis(SpinRegister(4))
    pk = product_ket
    for lam in (1, 2, 3):
        top = 0.5 * (
            W4 ** lam * pk("1000")
            + W4 ** (2 * lam) * pk("0100")
            + W4 ** (3 * lam) * pk("0010")
            + pk("0001")
        )
        middle = (1 / np.sqrt(8)) * (
            (W4 ** lam + 1) * (pk("1001") - pk("0110"))
            + (W4 ** (2 * lam) + 1) * (pk("0101") - pk("1010"))
            + (W4 ** (3 * lam) + 1) * (pk("0011") - pk("1100"))
        )
        bottom = -0.5 * (
            W4 ** lam * pk("0111")
            + W4 ** (2 * lam) * pk("1011")
            + W4 ** (3 * lam) * pk("1101")
            + pk("1110")
        )
        np.testing.assert_allclose(basis.ket(1, lam), top, atol=1e-13)
        np.testing.assert_allclose(basis.ket(0, lam), middle, atol=1e-13)
        np.testing.assert_allclose(basis.ket(-1, lam), bottom, atol=1e-13)


def test_coupling_fingerprint_is_stable_and_discriminating():
    u3 = fourier_coupling(3)
    assert coupling_fingerprint(u3) == coupling_fingerprint(u3.copy())
    assert coupling_fingerprint(u3) != coupling_fingerprint(fourier_coupling(4))
    tweaked = u3.copy()
    tweaked[0] *= np.exp(0.25j)
    assert coupling_fingerprint(u3) != coupling_fingerprint(tweaked)


def alternative_coupling(n):
    """A valid non-Fourier coupling: remix the first n-1 rows unitarily."""
    u = fourier_coupling(n)
    mix = np.eye(n, dtype=complex)
    block = fourier_coupling(n - 1) if n - 1 >= 2 else np.eye(1)
    mix[: n - 1, : n - 1] = block
    return mix @ u


def test_alternative_coupling_mixes_block_unitarily():
    reg = SpinRegister(4)
    a = build_coupled_basis(reg)
    b = build_coupled_basis(reg, coupling=alternative_coupling(4))
    assert block_mixing_residual(a, b) <= 1e-10
    blocks = basis_overlap_blocks(a, b)
    for m2, block in blocks.items():
        np.testing.assert_allclose(
            block @ dagger(block), identity(a.d), atol=1e-12
        )
    # Every m2 carries the same mixing matrix.
    reference = blocks[a.m2_values()[0]]
    for block in blocks.values():
        np.testing.assert_allclose(block, reference, atol=1e-12)


def test_symmetric_singlets_are_orthonormal_null_states():
    reg = SpinRegister(4)
    singlets = symmetric_singlets(reg)
    assert len(singlets) == 2
    J = total_J(reg)
    for i, s in enumerate(singlets):
        assert np.vdot(s, s) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(J.j_squared @ s) < 1e-12
        for j in range(i):
            assert abs(np.vdot(singlets[j], s)) < 1e-12


def test_cg_singlets_first_is_pair_singlet_product():
    # |S1> = (|01> - |10>)(|01> - |10>)/2 on the pairs (1,2) and (3,4).
    pk = product_ket
    expected = 0.5 * (
        pk("0101") - pk("0110") - pk("1001") + pk("1010")
    )
    s1, s2 = cg_singlets(SpinRegister(4))
    np.testing.assert_allclose(s1, expected, atol=1e-13)
    assert np.vdot(s2, s2) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(s1, s2)) < 1e-12


def test_singlet_families_span_the_same_subspace():
    reg = SpinRegister(4)
    sym = symmetric_singlets(reg)
    cg = cg_singlets(reg)
    proj_sym = sum(np.outer(s, s.conj()) for s in sym)
    proj_cg = sum(np.outer(s, s.conj()) for s in cg)
    assert max_abs_diff(proj_sym, proj_cg) < 1e-12


@pytest.mark.parametrize("n", (2, 3, 4, 5, 9, 10, 11, 12))
def test_sector_census_agrees_with_spectrum(n):
    specs = sector_census(SpinRegister(n))
    assert [s.j for s in specs] == sector_index_set(n)
    for spec in specs:
        assert spec.multiplicity == multiplicity(n, spec.j)
        assert spec.dimension == int(2 * spec.j) + 1
    assert sum(s.multiplicity * s.dimension for s in specs) == 2 ** n


@pytest.mark.parametrize("n", range(2, 7))
def test_j_squared_is_a_sum_of_swaps(n):
    # J^2 = n(4-n)/4 + sum_{l<k} P_lk, the identity the census blocks are built on.
    reg = SpinRegister(n)
    swaps = sum(swap(reg, l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1))
    assert max_abs_diff(total_J(reg).j_squared,
                        n * (4 - n) / 4 * identity(reg.dim) + swaps) < 1e-12


def test_sector_census_rejects_swaps_that_do_nothing(monkeypatch):
    # With every P_lk replaced by the identity, J^2 is n(n+2)/4 on every block.
    monkeypatch.setattr(coupling, "_transposed_positions",
                        lambda n, rows: np.tile(np.arange(len(rows)), (n * (n - 1) // 2, 1)))
    with pytest.raises(ConsistencyError):
        sector_census(SpinRegister(4))


@pytest.mark.parametrize("n", (3, 6))
def test_a_kept_index_gives_the_figures_of_a_fresh_one(n):
    index = tuple(coupling.transposition_index(n))
    assert [len(p[0]) if len(p) else 1 for p in index] == [len(r) for r in weight_rows(n)]
    basis = build_coupled_basis(SpinRegister(n))
    assert sector_membership_residual(basis, index) == sector_membership_residual(basis)
    assert sector_census(SpinRegister(n), index) == sector_census(SpinRegister(n))
    spent = coupling.transposition_index(n)
    tuple(spent)  # an index can be read once: a spent one is refused, not read as empty
    with pytest.raises(ValueError):
        sector_membership_residual(basis, spent)
    with pytest.raises(ValueError):
        sector_census(SpinRegister(n), spent)


@pytest.mark.parametrize("n", range(2, 10))
def test_transposed_positions_are_the_permutation_maps(n):
    # Row (l k) of a class's positions, l < k in order, against the map of
    # the whole register restricted to the class.
    reg = SpinRegister(n)
    for rows in weight_rows(n):
        expected = [np.searchsorted(rows, permutation_indices(reg, transposition(n, l, k))[rows])
                    for l in range(1, n + 1) for k in range(l + 1, n + 1)]
        positions = coupling._transposed_positions(n, rows)
        assert positions.shape == (n * (n - 1) // 2, len(rows))
        assert all(np.array_equal(row, e) for row, e in zip(positions, expected))


@pytest.mark.parametrize("n", range(2, 7))
def test_census_blocks_are_the_dense_j_squared_blocks(monkeypatch, n):
    blocks, real = [], np.linalg.eigvalsh

    def recording(block):
        blocks.append(block.copy())
        return real(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    sector_census(SpinRegister(n))
    dense = total_J(SpinRegister(n)).j_squared
    assert len(blocks) == n + 1
    for block, rows in zip(blocks, weight_rows(n)):
        assert max_abs_diff(block, dense[rows][:, rows]) < 1e-12


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sector_census_at_n12_stays_small():
    assert _traced_peak(lambda: sector_census(SpinRegister(12))) < 12e6


def test_sector_membership_at_n12_adds_one_transposition_at_a_time():
    # A gather of all 66 transpositions at once would hold about 27 MB.
    basis = build_coupled_basis(SpinRegister(12))
    assert _traced_peak(lambda: sector_membership_residual(basis)) < 4e6


@pytest.mark.parametrize("n", range(3, 8))
def test_rotations_do_not_depend_on_the_chunk_size(monkeypatch, n):
    # R and the escape bit for bit with one trial a chunk, the default chunks
    # (three at n = 7) and every trial in one chunk.
    qs = build_coupled_basis(SpinRegister(n))
    u = haar_su2(np.random.default_rng([n, 28]), 9)
    runs = []
    for chunk_bytes in (1, coupling.CHUNK_BYTES, 16 * 2 ** 20):
        monkeypatch.setattr(coupling, "CHUNK_BYTES", chunk_bytes)
        runs.append([np.concatenate(part) for part in zip(*qs.rotations(u))])
    for r, escape in runs[1:]:
        assert np.array_equal(r, runs[0][0])
        assert np.array_equal(escape, runs[0][1])


@pytest.mark.parametrize("d", (2, 3, 6))
def test_partial_trace_m2_is_the_trace_over_m2_bit_for_bit(d):
    rng = np.random.default_rng(d)
    inner = rng.normal(size=(7, d * d, d * d)) + 1j * rng.normal(size=(7, d * d, d * d))
    # the former spelling: np.trace over the m2 axes of a (lambda, m2, lambda', m2') view
    oracle = np.trace(inner.reshape(7, d, d, d, d), axis1=-3, axis2=-1)
    assert np.array_equal(partial_trace_m2(d, inner), oracle)
    assert np.array_equal(partial_trace_m2(d, inner[3]), oracle[3])


# The default's id is a name, so retuning CHUNK_BYTES renames no test.
@pytest.mark.parametrize("chunk_bytes", (1, 64 * 2 ** 10,
                                         pytest.param(coupling.CHUNK_BYTES, id="default")))
@pytest.mark.parametrize("n", range(3, 7))
def test_rotations_on_the_blocks_match_the_dense_rotation(monkeypatch, n, chunk_bytes):
    # R and the escape from the weight blocks against K^dag U K and
    # |U K - K R| formed with the dense u^(x n), one trial at a time or in
    # chunks: of 64 KiB (two trials at n = 6) and of the default size (all six).
    monkeypatch.setattr(coupling, "CHUNK_BYTES", chunk_bytes)
    qs = build_coupled_basis(SpinRegister(n))
    rng = np.random.default_rng([n, 23])
    u = np.array([haar_su2(rng) for _ in range(6)])
    chunks = list(qs.rotations(u))
    step = max(1, chunk_bytes // qs.isometry.nbytes)
    assert [len(chunk) for chunk, _ in chunks] == [min(step, 6 - first)
                                                   for first in range(0, 6, step)]
    r = np.concatenate([chunk for chunk, _ in chunks])
    escape = np.concatenate([e for _, e in chunks])
    k = qs.isometry
    for t, one in enumerate(u):
        uk = kron_power(SpinRegister(n), one) @ k
        dense = dagger(k) @ uk
        assert max_abs_diff(r[t], dense) < 1e-14
        assert abs(escape[t] - np.abs(uk - k @ dense).max()) < 1e-14
