"""Spin-register operators: locality, collective rotations, permutations."""

import numpy as np
import pytest

from dense_oracle import collective_apply, collective_j_squared
from rffqudit.errors import ContractViolationError, SizeLimitError, ValidationError
from rffqudit.linalg import dagger, identity, mat_exp_hermitian_generator, max_abs_diff
from rffqudit.spinsys import (
    Permutation,
    SpinRegister,
    _permutation_conjugates,
    all_permutations,
    collective_product_apply,
    cyclic_permutation,
    haar_su2,
    ket_index,
    kron_power,
    permutation_indices,
    permutation_operator,
    product_ket,
    sigma,
    seeded_generator,
    singlet_projector,
    spin_matrices,
    swap,
    total_J,
    transposition,
    wigner_d,
)

AXES = ("x", "y", "z")


def comm(a, b):
    return a @ b - b @ a


def test_register_dimensions():
    assert SpinRegister(3).dim == 8
    assert SpinRegister(4).dim == 16


def test_register_rejects_tiny_and_huge():
    with pytest.raises(ContractViolationError):
        SpinRegister(0)
    with pytest.raises(SizeLimitError):
        SpinRegister(99)


def test_ket_index_leftmost_most_significant():
    assert ket_index("100") == 4
    assert ket_index("001") == 1
    with pytest.raises(ContractViolationError):
        ket_index("102")


def test_product_ket_is_unit_vector():
    v = product_ket("0110")
    assert v.shape == (16,)
    assert v[ket_index("0110")] == 1.0
    assert np.sum(np.abs(v)) == 1.0


def test_sigma_acts_locally():
    reg = SpinRegister(3)
    # Operators on different constituents commute.
    for a in AXES:
        for b in AXES:
            assert max_abs_diff(
                comm(sigma(reg, 1, a), sigma(reg, 2, b)), 0 * identity(8)
            ) < 1e-14


def test_sigma_single_site_algebra():
    reg = SpinRegister(3)
    sx, sy, sz = (sigma(reg, 2, a) for a in AXES)
    np.testing.assert_allclose(comm(sx, sy), 2j * sz, atol=1e-14)
    np.testing.assert_allclose(sx @ sx, identity(8), atol=1e-14)


def test_sigma_minus_lowers_fiducial():
    reg = SpinRegister(3)
    np.testing.assert_allclose(
        sigma(reg, 1, "-") @ product_ket("000"), product_ket("100"), atol=1e-14
    )
    np.testing.assert_allclose(
        sigma(reg, 3, "-") @ product_ket("000"), product_ket("001"), atol=1e-14
    )


def test_sigma_rejects_unknown_label_and_site():
    reg = SpinRegister(3)
    with pytest.raises(ContractViolationError):
        sigma(reg, 1, "w")
    with pytest.raises(ContractViolationError):
        sigma(reg, 4, "x")


def test_total_j_su2_algebra():
    reg = SpinRegister(3)
    J = total_J(reg)
    np.testing.assert_allclose(comm(J.jx, J.jy), 1j * J.jz, atol=1e-13)
    np.testing.assert_allclose(comm(J.j_squared, J.jz), 0 * J.jz, atol=1e-13)
    np.testing.assert_allclose(J.j_minus, J.jx - 1j * J.jy, atol=1e-14)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_collective_apply_matches_the_dense_sums(n):
    reg = SpinRegister(n)
    rng = np.random.default_rng(n)
    vecs = rng.normal(size=(2 ** n, 3)) + 1j * rng.normal(size=(2 ** n, 3))
    J = total_J(reg)
    for a, j_op in zip(AXES, (J.jx, J.jy, J.jz)):
        single = sigma(SpinRegister(1), 1, a) / 2
        np.testing.assert_allclose(collective_apply(reg, single, vecs), j_op @ vecs,
                                   atol=1e-13)
    weights = rng.normal(size=n) + 1j * rng.normal(size=n)
    weighted = sum(w * sigma(reg, ell + 1, "-") for ell, w in enumerate(weights))
    lower = sigma(SpinRegister(1), 1, "-")
    np.testing.assert_allclose(collective_apply(reg, lower, vecs[:, 0], weights),
                               weighted @ vecs[:, 0], atol=1e-13)


@pytest.mark.parametrize("n", range(2, 7))
def test_collective_j_squared_of_the_identity_is_the_dense_j_squared(n):
    reg = SpinRegister(n)
    assert max_abs_diff(collective_j_squared(reg, identity(reg.dim)),
                        total_J(reg).j_squared) < 1e-12


@pytest.mark.parametrize("two_j", range(0, 7))
def test_spin_matrices_obey_the_su2_algebra(two_j):
    jx, jy, jz = spin_matrices(two_j / 2)
    j = two_j / 2
    np.testing.assert_allclose(comm(jx, jy), 1j * jz, atol=1e-13)
    np.testing.assert_allclose(comm(jy, jz), 1j * jx, atol=1e-13)
    casimir = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(casimir, j * (j + 1) * identity(two_j + 1), atol=1e-13)
    np.testing.assert_allclose(np.diag(jz).real, [j - k for k in range(two_j + 1)])


def test_total_j_fiducial_is_highest_weight():
    reg = SpinRegister(4)
    J = total_J(reg)
    top = product_ket("0000")
    np.testing.assert_allclose(J.jz @ top, 2.0 * top, atol=1e-14)
    np.testing.assert_allclose(J.j_squared @ top, 2.0 * 3.0 * top, atol=1e-14)


def test_swap_is_hermitian_unitary_involution():
    reg = SpinRegister(3)
    p12 = swap(reg, 1, 2)
    np.testing.assert_allclose(p12, dagger(p12), atol=1e-14)
    np.testing.assert_allclose(p12 @ p12, identity(8), atol=1e-14)


def test_swap_exchanges_product_kets():
    reg = SpinRegister(3)
    np.testing.assert_allclose(
        swap(reg, 1, 2) @ product_ket("100"), product_ket("010"), atol=1e-14
    )
    np.testing.assert_allclose(
        swap(reg, 1, 3) @ product_ket("110"), product_ket("011"), atol=1e-14
    )


def test_swap_equals_transposition_operator():
    reg = SpinRegister(4)
    np.testing.assert_allclose(
        swap(reg, 2, 4),
        permutation_operator(reg, transposition(4, 2, 4)),
        atol=1e-14,
    )


def test_swap_rejects_equal_sites():
    with pytest.raises(ContractViolationError):
        swap(SpinRegister(3), 2, 2)


def test_singlet_projector_is_rank_2_to_the_n_minus_2():
    reg = SpinRegister(4)
    s12 = singlet_projector(reg, 1, 2)
    np.testing.assert_allclose(s12 @ s12, s12, atol=1e-14)
    assert np.trace(s12).real == pytest.approx(4.0)


def test_permutation_validates_images():
    with pytest.raises(ContractViolationError):
        Permutation((1, 1, 3))
    assert cyclic_permutation(3).images == (2, 3, 1)
    still = permutation_indices(SpinRegister(4), Permutation((1, 2, 3, 4)))
    assert np.array_equal(still, np.arange(16))
    assert transposition(3, 1, 3).images == (3, 2, 1)


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24


@pytest.mark.parametrize("n", (3, 4))
def test_permutation_conjugates_equal_the_dense_products(n):
    # The gather moves entries and does no arithmetic, so it is exactly the
    # dense W A W^dag of every permutation, for one matrix and for a stack.
    reg, perms = SpinRegister(n), list(all_permutations(n))
    rng = np.random.default_rng(n)
    a = rng.standard_normal((2, reg.dim, reg.dim)) + 1j * rng.standard_normal((2, reg.dim, reg.dim))
    dense = np.array([[permutation_operator(reg, p) @ m @ dagger(permutation_operator(reg, p))
                       for p in perms] for m in a])
    assert np.array_equal(_permutation_conjugates(reg, perms, a), dense)
    assert np.array_equal(_permutation_conjugates(reg, perms, a[0]), dense[0])
    with pytest.raises(ContractViolationError):
        _permutation_conjugates(reg, [Permutation(tuple(range(1, n + 2)))], a)


def test_cyclic_shift_moves_excitation_forward():
    # The shift 1->2->3->1 carries the constituent-1 excitation to slot 2.
    reg = SpinRegister(3)
    w = permutation_operator(reg, cyclic_permutation(3))
    np.testing.assert_allclose(w @ product_ket("100"), product_ket("010"), atol=1e-14)
    np.testing.assert_allclose(w @ product_ket("010"), product_ket("001"), atol=1e-14)
    np.testing.assert_allclose(w @ product_ket("001"), product_ket("100"), atol=1e-14)


def test_permutation_operator_covariance():
    # W sigma^(l) W^dagger = sigma^(p(l)) for every axis and site.
    reg = SpinRegister(4)
    rng = np.random.default_rng(3)
    images = tuple(rng.permutation(4) + 1)
    p = Permutation(images)
    w = permutation_operator(reg, p)
    np.testing.assert_allclose(w @ dagger(w), identity(16), atol=1e-13)
    for ell in range(1, 5):
        for a in AXES:
            np.testing.assert_allclose(
                w @ sigma(reg, ell, a) @ dagger(w),
                sigma(reg, p(ell), a),
                atol=1e-13,
            )


def test_permutation_operator_composition():
    reg = SpinRegister(3)
    c = cyclic_permutation(3)
    w = permutation_operator(reg, c)
    w2 = w @ w
    # Applying the cycle twice equals the permutation with squared images.
    twice = Permutation(tuple(c(c(ell)) for ell in range(1, 4)))
    np.testing.assert_allclose(w2, permutation_operator(reg, twice), atol=1e-13)


def _permutation_operator_by_bits(reg, p):
    """Oracle: the per-index bit loop that defined permutation_operator before
    the index map did."""
    n, dim = reg.n, reg.dim
    w = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        bits = [(src >> (n - 1 - ell)) & 1 for ell in range(n)]
        target_bits = [0] * n
        for ell in range(n):
            target_bits[p(ell + 1) - 1] = bits[ell]
        dst = 0
        for b in target_bits:
            dst = (dst << 1) | b
        w[dst, src] = 1.0
    return w


@pytest.mark.parametrize("n", range(1, 5))
def test_permutation_operator_matches_the_bit_loop_for_every_small_permutation(n):
    reg = SpinRegister(n)
    for p in all_permutations(n):
        assert np.array_equal(permutation_operator(reg, p),
                              _permutation_operator_by_bits(reg, p))


def test_permutation_operator_matches_the_bit_loop_at_n7():
    reg = SpinRegister(7)
    perms = [cyclic_permutation(7)] + [
        transposition(7, j, k) for j in range(1, 8) for k in range(j + 1, 8)
    ]
    for p in perms:
        assert np.array_equal(permutation_operator(reg, p),
                              _permutation_operator_by_bits(reg, p))


def test_permutation_indices_is_the_ket_map_and_checks_the_size():
    reg = SpinRegister(3)
    dst = permutation_indices(reg, cyclic_permutation(3))
    assert dst[ket_index("100")] == ket_index("010")
    assert dst[ket_index("011")] == ket_index("101")
    assert sorted(dst) == list(range(8))
    with pytest.raises(ContractViolationError):
        permutation_indices(reg, cyclic_permutation(4))


def _permutation_indices_site_by_site(reg, p):
    """permutation_indices as it moved one constituent's bit at a time."""
    src = np.arange(reg.dim)
    dst = np.zeros_like(src)
    for ell in range(1, reg.n + 1):
        dst |= ((src >> (reg.n - ell)) & 1) << (reg.n - p(ell))
    return dst


@pytest.mark.parametrize("n", range(1, 15))
def test_permutation_indices_equal_the_site_by_site_map(n):
    reg, rng = SpinRegister(n), np.random.default_rng(n)
    perms = [cyclic_permutation(n), transposition(n, 1, n),
             Permutation(tuple(int(i) + 1 for i in rng.permutation(n)))]
    for p in (all_permutations(n) if n <= 4 else perms):
        assert np.array_equal(permutation_indices(reg, p),
                              _permutation_indices_site_by_site(reg, p))


@pytest.mark.parametrize("n", range(2, 6))
def test_swap_equals_the_pauli_dot_product_exactly(n):
    # The definition swap had before it became an index map.
    reg = SpinRegister(n)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j != k:
                dot = sum(sigma(reg, j, a) @ sigma(reg, k, a) for a in AXES)
                assert np.array_equal(swap(reg, j, k), (identity(reg.dim) + dot) / 2)


@pytest.mark.parametrize("n", range(1, 10))  # every n mod 4, grouped legs and remainder
def test_collective_product_apply_matches_kron_power(n):
    reg = SpinRegister(n)
    u = haar_su2(np.random.default_rng(n))
    got = collective_product_apply(reg, u, identity(reg.dim))
    assert max_abs_diff(got, kron_power(reg, u)) < 1e-14


@pytest.mark.parametrize("n", (1, 3, 6))
def test_a_stack_of_rotations_is_applied_one_u_at_a_time(n):
    reg = SpinRegister(n)
    rng = np.random.default_rng([n, 1])
    stack = np.array([haar_su2(rng) for _ in range(5)])
    vecs = rng.normal(size=(reg.dim, 3)) + 1j * rng.normal(size=(reg.dim, 3))
    got = collective_product_apply(reg, stack, vecs)
    assert got.shape == (5, reg.dim, 3)
    for u, one in zip(stack, got):
        assert np.array_equal(one, collective_product_apply(reg, u, vecs))
        assert max_abs_diff(one, kron_power(reg, u) @ vecs) < 1e-14
    assert collective_product_apply(reg, stack[:0], vecs).shape == (0, reg.dim, 3)


def test_collective_product_apply_rejects_non_2x2_input():
    reg = SpinRegister(2)
    for bad in (np.eye(3), np.eye(2)[None, None], np.ones((2, 2, 3))):
        with pytest.raises(ContractViolationError, match="2x2"):
            collective_product_apply(reg, bad, identity(4))
    with pytest.raises(ContractViolationError, match="NaN"):
        collective_product_apply(reg, np.full((1, 2, 2), np.nan), identity(4))


def test_stacked_su2_draws_equal_one_draw_at_a_time():
    # One standard_normal call for the stack reads the stream that 40 single
    # draws read in turn, for seeds of one, two and four 64-bit words.
    for seed in (7, 2 ** 64 + 5, 3 * 2 ** 100 + 1):
        rng = seeded_generator(seed)
        singles = [haar_su2(rng) for _ in range(40)]
        stack = haar_su2(seeded_generator(seed), 40)
        assert stack.shape == (40, 2, 2)
        assert np.array_equal(stack, np.array(singles))
        assert max_abs_diff(np.linalg.det(stack), np.ones(40)) < 1e-14
    assert haar_su2(seeded_generator(7), 0).shape == (0, 2, 2)


def test_collective_rotation_commutes_with_total_j_squared():
    reg = SpinRegister(3)
    J = total_J(reg)
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    generator = sum(a * sigma(SpinRegister(1), 1, s) for a, s in zip(axis, AXES)) / 2
    u = kron_power(reg, mat_exp_hermitian_generator(generator, 1.1))
    np.testing.assert_allclose(u @ J.j_squared, J.j_squared @ u, atol=1e-12)


def test_haar_su2_properties():
    rng = np.random.default_rng(42)
    for _ in range(20):
        u = haar_su2(rng)
        np.testing.assert_allclose(u @ dagger(u), identity(2), atol=1e-13)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_haar_su2_is_seed_deterministic():
    a = haar_su2(np.random.default_rng(123))
    b = haar_su2(np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)
    c = haar_su2(np.random.default_rng(124))
    assert max_abs_diff(a, c) > 1e-3


@pytest.mark.parametrize("seed", (-1, 1.5, True, "3", None))
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    with pytest.raises(ValidationError, match="seed must be"):
        seeded_generator(seed)


def test_a_seeded_stream_is_default_rngs():
    assert np.array_equal(seeded_generator(np.int64(12)).standard_normal(4),
                          np.random.default_rng(12).standard_normal(4))


@pytest.mark.parametrize("two_j", range(0, 7))
def test_wigner_d_is_a_representation_of_su2(two_j):
    j = two_j / 2
    rng = np.random.default_rng(two_j)
    a, b = haar_su2(rng), haar_su2(rng)
    da, db = wigner_d(j, a), wigner_d(j, b)
    assert max_abs_diff(wigner_d(j, a @ b), da @ db) < 1e-13
    assert max_abs_diff(da @ dagger(da), identity(two_j + 1)) < 1e-13
    assert max_abs_diff(wigner_d(j, -identity(2)), (-1) ** two_j * identity(two_j + 1)) < 1e-13
    assert max_abs_diff(wigner_d(j, identity(2)), identity(two_j + 1)) == 0
    # the generators: D(exp(-i t sigma_a / 2)) = exp(-i t J_a)
    for pauli, j_a in zip((sigma(SpinRegister(1), 1, x) for x in AXES), spin_matrices(j)):
        rotation = mat_exp_hermitian_generator(pauli / 2, 0.7)
        assert max_abs_diff(wigner_d(j, rotation), mat_exp_hermitian_generator(j_a, 0.7)) < 1e-13
    assert max_abs_diff(wigner_d(j, np.array([a, b])), np.array([da, db])) < 1e-14


def test_wigner_d_of_a_spin_half_is_u_itself():
    u = np.array([haar_su2(np.random.default_rng([3, t])) for t in range(8)])
    assert max_abs_diff(wigner_d(0.5, u), u) < 1e-14
