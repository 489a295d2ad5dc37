"""Dense linear-algebra helpers: tensor products, spectra, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffqudit.errors import ContractViolationError, NumericalError, ValidationError
from rffqudit.linalg import (
    dagger,
    entropy_bits,
    hermitian_eig,
    hermitian_eigvals,
    identity,
    mat_exp_hermitian_generator,
    matrix_from_json_dict,
    matrix_to_json_dict,
    max_abs_diff,
    partial_trace,
    shared_at_stack,
    sqrtm_psd,
    stack_at_shared,
    trace_distance,
    uhlmann_fidelity,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_dagger_is_conjugate_transpose():
    a = np.array([[1 + 1j, 2], [3j, 4]], dtype=complex)
    np.testing.assert_allclose(dagger(a), a.conj().T)


def test_max_abs_diff():
    a = identity(3)
    b = a.copy()
    b[0, 1] = 1e-12
    assert max_abs_diff(a, b) == pytest.approx(1e-12)


def test_partial_trace_of_product_operator():
    rng = np.random.default_rng(5)
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    full = np.kron(np.kron(a, b), c)
    reduced = partial_trace(full, n_factors=3, traced_factor=2)
    np.testing.assert_allclose(reduced, np.trace(b) * np.kron(a, c), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 8)
    for site in (1, 2, 3):
        reduced = partial_trace(rho, n_factors=3, traced_factor=site)
        assert np.trace(reduced) == pytest.approx(1.0)


def test_partial_trace_rejects_bad_factor():
    with pytest.raises(ContractViolationError):
        partial_trace(identity(8), n_factors=3, traced_factor=4)


def test_hermitian_eig_reconstructs_input():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 6)
    w, v = hermitian_eig(h)
    np.testing.assert_allclose(v @ np.diag(w) @ dagger(v), h, atol=1e-12)
    assert np.all(np.diff(w) >= 0)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_and_dagger_take_stacks():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    h = g + dagger(g)
    assert dagger(g).shape == (4, 3, 3)
    w, v = hermitian_eig(h)
    for one, w_one, v_one in zip(h, w, v):
        assert np.array_equal(dagger(one), one.conj().T)
        single_w, single_v = hermitian_eig(one)
        assert np.array_equal(w_one, single_w)
        assert np.array_equal(v_one, single_v)
    h[2, 0, 1] += 1e-6
    with pytest.raises(ContractViolationError, match="hermitian"):
        hermitian_eig(h)
    with pytest.raises(ContractViolationError, match="NaN"):
        hermitian_eig(np.full((2, 2, 2), np.inf))


@pytest.mark.parametrize("shape", ((6, 6), (300, 2, 2), (5, 36, 36)))
def test_the_eigenvalue_only_spectrum_is_hermitian_eigs(shape):
    rng = np.random.default_rng(len(shape))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = (g + dagger(g)) / 2
    w = hermitian_eigvals(h)
    assert w.shape == shape[:-1]
    assert max_abs_diff(w, hermitian_eig(h)[0]) < 1e-12
    assert np.all(np.diff(w, axis=-1) >= 0)


@pytest.mark.parametrize("bad, error, match", (
    (np.ones((2, 3)), ContractViolationError, "not square"),
    (np.ones((4, 2, 3)), ContractViolationError, "not square"),
    (np.array([[0, 1], [0, 0]]), ContractViolationError, "not hermitian"),
    (np.full((2, 2), np.nan), ContractViolationError, "NaN"),
    (np.full((3, 2, 2), np.inf), ContractViolationError, "NaN"),
))
def test_the_eigenvalue_only_spectrum_refuses_what_hermitian_eig_refuses(bad, error, match):
    for spectrum in (hermitian_eig, hermitian_eigvals):
        with pytest.raises(error, match=match):
            spectrum(bad)


def test_a_failed_or_non_finite_spectrum_is_a_numerical_error(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("did not converge")

    for routine, spectrum in (("eigh", hermitian_eig), ("eigvalsh", hermitian_eigvals)):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, routine, fails)
            with pytest.raises(NumericalError, match="did not converge"):
                spectrum(identity(2))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(NumericalError, match="non-finite"):
        hermitian_eigvals(identity(2))


def test_mat_exp_rotates_pauli():
    # exp(-i (pi/2) sz/2) conjugation carries sx onto sy.
    u = mat_exp_hermitian_generator(SZ / 2, np.pi / 2)
    np.testing.assert_allclose(u @ dagger(u), identity(2), atol=1e-14)
    rotated = u @ SX @ dagger(u)
    np.testing.assert_allclose(rotated, SY, atol=1e-14)


def test_entropy_bits_pure_and_mixed():
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert entropy_bits(pure) == pytest.approx(0.0, abs=1e-12)
    assert entropy_bits(identity(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert entropy_bits(identity(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 5)
    root = sqrtm_psd(rho)
    np.testing.assert_allclose(root @ root, rho, atol=1e-12)


def test_uhlmann_fidelity_pure_states():
    psi = np.array([1, 0], dtype=complex)
    phi = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho, sig = np.outer(psi, psi.conj()), np.outer(phi, phi.conj())
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert uhlmann_fidelity(rho, sig) == pytest.approx(0.5, abs=1e-12)


def test_uhlmann_fidelity_of_a_random_pure_state_with_itself_stays_at_one():
    # Round-off leaves ~1e-17 eigenvalues in a pure state; their square roots
    # (~3e-9) must not push F(rho, rho) above 1.
    rng = np.random.default_rng(20261018)
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        assert uhlmann_fidelity(rho, rho) <= 1 + 1e-12
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_sqrtm_psd_of_a_pure_state_keeps_rank_one():
    v = np.array([0.6, 0.8j])
    rho = np.outer(v, v.conj())
    assert np.linalg.matrix_rank(sqrtm_psd(rho), tol=1e-14) == 1


def test_trace_distance_extremes():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_distance_fuchs_van_de_graaf():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho, sig = random_density(rng, 4), random_density(rng, 4)
        f, t = uhlmann_fidelity(rho, sig), trace_distance(rho, sig)
        assert 1 - np.sqrt(f) <= t + 1e-10
        assert t <= np.sqrt(1 - f) + 1e-10


def test_fidelity_and_distance_of_a_stack_equal_one_sigma_at_a_time():
    # Mixed and pure sigmas, and rho itself, whose spectrum has round-off zeros.
    rng = np.random.default_rng(14)
    rho = random_density(rng, 3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    sigmas = np.array([random_density(rng, 3) for _ in range(6)] + [pure, rho])
    for rho_ in (rho, pure):
        fids, dists = uhlmann_fidelity(rho_, sigmas), trace_distance(rho_, sigmas)
        assert fids.shape == dists.shape == (len(sigmas),)
        assert fids.tolist() == [uhlmann_fidelity(rho_, s) for s in sigmas]
        assert dists.tolist() == [trace_distance(rho_, s) for s in sigmas]
    assert isinstance(uhlmann_fidelity(rho, pure), float)
    assert isinstance(trace_distance(rho, pure), float)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_fidelity_of_a_stack_equals_one_call_per_matrix_bit_for_bit(d):
    rng = np.random.default_rng([d, 28])
    rho = random_density(rng, d)
    sigmas = np.array([random_density(rng, d) for _ in range(40)])
    assert uhlmann_fidelity(rho, sigmas).tolist() == [uhlmann_fidelity(rho, s) for s in sigmas]


@pytest.mark.parametrize("lead", ((), (1,), (300,), (4, 5)))
def test_products_with_a_shared_operand_match_the_stacked_products(lead):
    rng = np.random.default_rng(len(lead))

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    stack, right, left = draw(*lead, 3, 4), draw(4, 2), draw(5, 3)
    assert np.array_equal(stack_at_shared(stack, right), stack @ right)
    assert stack_at_shared(stack, right).shape == lead + (3, 2)
    assert shared_at_stack(left, stack).shape == lead + (5, 4)
    assert max_abs_diff(shared_at_stack(left, stack), left @ stack) < 1e-14


def test_mat_exp_of_an_array_of_times_equals_one_time_at_a_time():
    h = random_hermitian(np.random.default_rng(15), 3)
    times = np.array([[-2.0, 0.0, 0.3], [1e-9, 4.5, 7.0]])
    stack = mat_exp_hermitian_generator(h, times)
    assert stack.shape == (2, 3, 3, 3)
    for index in np.ndindex(times.shape):
        assert np.array_equal(stack[index], mat_exp_hermitian_generator(h, float(times[index])))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    obj = matrix_to_json_dict(a)
    assert obj["rows"] == 3 and obj["cols"] == 5
    np.testing.assert_array_equal(matrix_from_json_dict(obj), a)


def test_matrix_json_text_round_trip_is_stable():
    a = np.array([[1 / 3, -2.5e-17], [1e300, 0.1]], dtype=complex)
    text = json.dumps(matrix_to_json_dict(a))
    again = json.dumps(matrix_to_json_dict(matrix_from_json_dict(json.loads(text))))
    assert text == again
    assert json.loads(text)["rows"] == 2


@pytest.mark.parametrize("data", (None, 5))
def test_matrix_from_json_dict_rejects_data_that_is_not_a_list(data):
    with pytest.raises(ValidationError, match="data must be a list"):
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": data})


@pytest.mark.parametrize("field", ("rows", "cols"))
def test_matrix_from_json_dict_rejects_a_bool_size(field):
    obj = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}
    obj[field] = True
    with pytest.raises(ValidationError, match="rows/cols must be positive integers"):
        matrix_from_json_dict(obj)


@pytest.mark.parametrize("pair", ([True, False], [1.0, False], ["1e0", "0"], [1.0, "0"],
                                  [None, 0.0], [[1.0], 0.0]))
def test_matrix_from_json_dict_rejects_entries_that_are_not_numbers(pair):
    with pytest.raises(ValidationError, match="pairs of numbers"):
        matrix_from_json_dict({"rows": 1, "cols": 1, "data": [pair]})


def test_matrix_from_json_dict_takes_ints_and_floats_and_refuses_overflow():
    m = matrix_from_json_dict({"rows": 1, "cols": 2, "data": [[1, 0], [0.5, -2]]})
    np.testing.assert_array_equal(m, [[1.0, 0.5 - 2j]])
    with pytest.raises(ValidationError, match="out of range"):
        matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[10 ** 400, 0]]})


def test_matrix_from_json_dict_rejects_bad_shape():
    with pytest.raises(ValidationError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[1.0]]})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fidelity_is_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    rho, sig = random_density(rng, 3), random_density(rng, 3)
    f_ab = uhlmann_fidelity(rho, sig)
    f_ba = uhlmann_fidelity(sig, rho)
    assert f_ab == pytest.approx(f_ba, abs=1e-10)
    assert -1e-12 <= f_ab <= 1 + 1e-12
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=-10.0, max_value=10.0),
)
def test_mat_exp_is_unitary_for_any_time(seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    u = mat_exp_hermitian_generator(h, t)
    np.testing.assert_allclose(u @ dagger(u), identity(4), atol=1e-11)
