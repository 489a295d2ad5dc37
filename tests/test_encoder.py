"""Logical-state encoding: matrix units, round trips, POVMs, HWS pairs."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffqudit.channel import born_rule_harness, random_density, random_povm
from rffqudit.coupling import CoupledBasis, build_coupled_basis
from rffqudit import cli, verify
from rffqudit.encoder import (
    HwsPair,
    QuditPovm,
    QuditState,
    build_hws,
    build_q_set,
    decode_payload,
    decode_state,
    encode_povm,
    encode_state,
    hws_relations_residual,
    require_density,
)
from rffqudit.errors import ConsistencyError, ValidationError
from rffqudit.linalg import (
    dagger,
    identity,
    mat_exp_hermitian_generator,
    matrix_to_json_dict,
    max_abs_diff,
)
from rffqudit.spinsys import SIGMA_X, SIGMA_Y, SIGMA_Z, SpinRegister, kron_power

SEED = 20260819


def qset(n):
    return build_q_set(build_coupled_basis(SpinRegister(n)))


def collective_rotation(reg, axis, angle):
    """The dense exp(-i angle axis.J) = u^(x n), u = exp(-i angle axis.sigma / 2)."""
    generator = sum(a * s for a, s in zip(axis, (SIGMA_X, SIGMA_Y, SIGMA_Z))) / 2
    return kron_power(reg, mat_exp_hermitian_generator(generator, angle))


@pytest.fixture(scope="module")
def qs3():
    return qset(3)


@pytest.fixture(scope="module")
def qs4():
    return qset(4)


def test_qudit_state_accepts_valid_density():
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    state = QuditState(2, rho)
    np.testing.assert_array_equal(state.rho, rho)


def test_qudit_state_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="hermitian"):
        QuditState(2, np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValidationError, match="trace"):
        QuditState(2, np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(ValidationError, match="PSD"):
        QuditState(2, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValidationError, match="2x2"):
        QuditState(2, np.eye(3, dtype=complex) / 3)


def test_require_density_names_the_first_bad_matrix_of_a_stack():
    good = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    require_density(np.array([good, good]))
    for bad, text in ((np.array([[1, 1], [0, 0]]), r"\[1\] is not hermitian"),
                      (np.diag([0.6, 0.6]), r"\[1\] trace is 1\.2"),
                      (np.diag([1.5, -0.5]), r"\[1\] is not PSD")):
        stack = np.array([good, bad, bad], dtype=complex)
        with pytest.raises(ValidationError, match="decoded state " + text):
            require_density(stack, "decoded state")


def test_qudit_state_tolerates_roundoff_negativity():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    rho /= np.trace(rho)
    QuditState(2, rho)  # within the PSD tolerance; must not raise


def test_qudit_povm_validation():
    third = identity(2) / 3
    QuditPovm(2, (third, third, third))
    with pytest.raises(ValidationError, match="identity"):
        QuditPovm(2, (third, third))
    with pytest.raises(ValidationError, match="at least one"):
        QuditPovm(2, ())
    with pytest.raises(ValidationError, match="not PSD"):
        QuditPovm(2, (np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


@pytest.mark.parametrize("d", (2.0, True, "2", None))
def test_qudit_dimension_must_be_an_integer(d):
    # The rule ChannelConfig has for trials: a bool or a float is no integer.
    with pytest.raises(ValidationError, match="d must be an integer"):
        QuditState(d, identity(2) / 2)
    with pytest.raises(ValidationError, match="d must be an integer"):
        QuditPovm(d, (identity(2),))


@pytest.mark.parametrize("integer", (np.int64, np.uint32))
def test_a_numpy_integer_dimension_is_kept_as_a_python_int(integer):
    assert type(QuditState(integer(2), identity(2) / 2).d) is int
    assert type(QuditPovm(integer(2), (identity(2),)).d) is int
    with pytest.raises(ValidationError, match="d must be >= 1, got 0"):
        QuditState(integer(0), np.zeros((0, 0)))


def test_qudit_povm_validation_names_the_first_failing_element():
    third = identity(2) / 3
    skew = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValidationError, match="POVM element 1 is not hermitian"):
        QuditPovm(2, (third, third + skew, third - skew))
    with pytest.raises(ValidationError,
                       match=r"POVM element 2 is not PSD: min eigenvalue -5\.000e-01"):
        QuditPovm(2, (third, np.diag([1.5, 1.0]), np.diag([-0.5, -1 / 3]),
                      np.diag([-1 / 3, -0.2])))


def _unchecked_state(d, rho):
    """A QuditState that skipped its density check."""
    state = object.__new__(QuditState)
    object.__setattr__(state, "d", d)
    object.__setattr__(state, "rho", np.asarray(rho, dtype=complex))
    return state


def test_a_non_psd_logical_operator_fails_the_encoded_psd_check(qs3, monkeypatch):
    # spec(A (x) I_d) = spec(A): the check on the d x d factor keeps the
    # frame check's message, naming the frame's min eigenvalue.
    with pytest.raises(ConsistencyError,
                       match=r"^encoded state is not PSD: min eigenvalue -2\.500e-01$"):
        encode_state(qs3, _unchecked_state(2, np.diag([1.5, -0.5])))
    monkeypatch.setattr(QuditPovm, "__post_init__", lambda self: None)
    povm = QuditPovm(2, (identity(2) / 2, np.diag([0.7, 0.5]), np.diag([-0.2, 0.0])))
    with pytest.raises(ConsistencyError,
                       match=r"^encoded povm-element is not PSD: min eigenvalue -2\.000e-01$"):
        encode_povm(qs3, povm)


@pytest.fixture
def off_sector_lift(monkeypatch):
    # 1e-6 on every entry of the first class's lifted block is 1e-6 times the
    # projector onto that class's symmetric ket, scaled by the class size: it
    # lies in the largest-j sector, so C is unchanged and |P - K C K^dag| is 1e-6.
    real = CoupledBasis.lift_blocks

    def off_sector(self, logical):
        first, *rest = real(self, logical)
        return (first + 1e-6, *rest)

    monkeypatch.setattr(CoupledBasis, "lift_blocks", off_sector)


def test_an_off_sector_payload_fails_the_entropy_row(off_sector_lift):
    results = verify.suite_encoder(n_values=(3,))
    failed = [r for r in results if not r.passed]
    # Every row that compresses lifted blocks goes through the one gate.
    assert [r.id for r in failed] == [
        "encoder:round-trip:n=3", "encoder:born:n=3", "encoder:entropy:n=3"]
    for row in failed:
        assert row.residual == float("inf")
        assert "|P - K C K^dag| = 1.000e-06 > 1e-09" in row.description


def test_an_off_sector_payload_fails_the_born_harness(off_sector_lift, qs3):
    with pytest.raises(ConsistencyError, match=r"^the encoded payload of state 0 is not "
                       r"supported on the logical sector \(\|P - K C K\^dag\| = 1\.000e-06"):
        born_rule_harness(qs3, 5, SEED)


def test_an_off_sector_payload_fails_encode_povm(off_sector_lift, capsys, tmp_path):
    rng = np.random.default_rng(SEED)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json_dict(random_density(rng, 2))))
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps([matrix_to_json_dict(e) for e in random_povm(rng, 2, 3).elements]))
    code = cli.main(["encode", "--n", "3", "--format", "csv",
                     "--state", str(state), "--povm", str(povm)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("verification failure: ")
    assert "not supported on the logical sector" in err


def test_entropy_is_taken_from_the_gated_frame(monkeypatch):
    # S of the class frames and of the logical states, never an eigh of a
    # 2**n x 2**n payload.
    sizes, real = [], verify.entropy_bits
    monkeypatch.setattr(verify, "entropy_bits",
                        lambda m: sizes.append(np.shape(m)) or real(m))
    row = verify.suite_encoder(n_values=(4,))[-1]
    assert row.id == "encoder:entropy:n=4" and row.passed
    assert sizes == [(5, 3, 3, 3), (5, 3, 3)]  # (trials, classes, d, d), (trials, d, d)


def test_q_set_basic_shape(qs3):
    assert qs3.n == 3 and qs3.d == 2
    assert qs3(1, 2).shape == (8, 8)
    np.testing.assert_allclose(
        qs3.sector_projector, qs3(1, 1) + qs3(2, 2), atol=1e-14
    )


def test_q_set_matrix_unit_algebra(qs4):
    d = qs4.d
    for lam in range(1, d + 1):
        for lamp in range(1, d + 1):
            np.testing.assert_allclose(
                dagger(qs4(lam, lamp)), qs4(lamp, lam), atol=1e-13
            )
            assert np.trace(qs4(lam, lamp)) == pytest.approx(
                d if lam == lamp else 0.0, abs=1e-12
            )
    np.testing.assert_allclose(
        qs4(1, 2) @ qs4(2, 3), qs4(1, 3), atol=1e-12
    )
    assert max_abs_diff(qs4(1, 2) @ qs4(1, 3), np.zeros((16, 16))) < 1e-12


def test_sector_projector_is_projector(qs4):
    p = qs4.sector_projector
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(qs4.d ** 2)


def test_encode_completely_mixed_state(qs3):
    # The maximally mixed logical state lands on sector_projector / d^2.
    enc = encode_state(qs3, QuditState(2, identity(2) / 2))
    np.testing.assert_allclose(
        enc.payload, qs3.sector_projector / 4, atol=1e-13
    )
    assert np.trace(enc.payload) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_state_round_trip_random(n):
    qs = qset(n)
    rng = np.random.default_rng(SEED + n)
    for _ in range(5):
        state = QuditState(qs.d, random_density(rng, qs.d))
        enc = encode_state(qs, state)
        assert enc.kind == "state"
        assert np.trace(enc.payload) == pytest.approx(1.0, abs=1e-12)
        assert qs.compress(enc.payload)[1] < 1e-12
        back = decode_state(qs, enc)
        assert max_abs_diff(back.rho, state.rho) < 1e-12


def test_decode_payload_rejects_out_of_sector_support(qs3):
    stray = np.zeros((8, 8), dtype=complex)
    stray[0, 0] = 1.0  # the all-up ket lives in the largest-j sector
    with pytest.raises(ValidationError, match="sector"):
        decode_payload(qs3, 0.9 * qs3.sector_projector / 4 + 0.1 * stray)


def test_decode_state_checks_fingerprint(qs3):
    enc = encode_state(qs3, QuditState(2, identity(2) / 2))
    impostor = dataclasses.replace(enc, fingerprint="0" * 16)
    with pytest.raises(ValidationError, match="fingerprint"):
        decode_state(qs3, impostor)


def test_encode_povm_sums_to_sector_projector(qs4):
    rng = np.random.default_rng(SEED)
    povm = random_povm(rng, qs4.d, 4)
    encoded = encode_povm(qs4, povm)
    assert [e.kind for e in encoded] == ["povm-element"] * 4
    total = sum(e.payload for e in encoded)
    np.testing.assert_allclose(total, qs4.sector_projector, atol=1e-11)


def test_encoded_probabilities_match_logical(qs3):
    rng = np.random.default_rng(SEED + 1)
    state = QuditState(2, random_density(rng, 2))
    povm = random_povm(rng, 2, 3)
    enc = encode_state(qs3, state)
    for element, encoded in zip(povm.elements, encode_povm(qs3, povm)):
        logical = np.trace(state.rho @ element).real
        physical = np.trace(enc.payload @ encoded.payload).real
        assert physical == pytest.approx(logical, abs=1e-12)


def test_encoded_state_is_rotation_invariant(qs3):
    rng = np.random.default_rng(SEED + 2)
    state = QuditState(2, random_density(rng, 2))
    enc = encode_state(qs3, state)
    reg = SpinRegister(3)
    u = collective_rotation(reg, (0.6, 0.0, 0.8), 1.3)
    np.testing.assert_allclose(
        u @ enc.payload @ dagger(u), enc.payload, atol=1e-12
    )


@pytest.mark.parametrize("n", (3, 4, 5))
def test_hws_pair_relations(n):
    qs = qset(n)
    pair = build_hws(qs)
    assert isinstance(pair, HwsPair)
    d = qs.d
    u_power = np.linalg.matrix_power(pair.u, d)
    v_power = np.linalg.matrix_power(pair.v, d)
    np.testing.assert_allclose(u_power, qs.sector_projector, atol=1e-11)
    np.testing.assert_allclose(v_power, qs.sector_projector, atol=1e-11)
    assert hws_relations_residual(pair) < 1e-11
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            uj = np.linalg.matrix_power(pair.u, j)
            vk = np.linalg.matrix_power(pair.v, k)
            assert max_abs_diff(uj @ vk, pair.omega ** (-j * k) * (vk @ uj)) < 1e-11


def _hws_relations_pair_by_pair(pair) -> float:
    """hws_relations_residual as it looped over the d**2 pairs (j, k)."""
    eye = np.eye(pair.d, dtype=complex)
    u_pow, v_pow = [eye], [eye]
    for _ in range(pair.d):
        u_pow.append(u_pow[-1] @ pair.clock)
        v_pow.append(v_pow[-1] @ pair.shift)
    worst = max(max_abs_diff(u_pow[-1], eye), max_abs_diff(v_pow[-1], eye))
    for j in range(1, pair.d + 1):
        for k in range(1, pair.d + 1):
            rhs = pair.omega ** (-j * k) * (v_pow[k] @ u_pow[j])
            worst = max(worst, max_abs_diff(u_pow[j] @ v_pow[k], rhs))
    return worst


@pytest.mark.parametrize("n", range(3, 11))
def test_stacked_hws_relations_equal_the_pair_by_pair_residual(n):
    pair = build_hws(build_coupled_basis(SpinRegister(n)))
    assert hws_relations_residual(pair) == _hws_relations_pair_by_pair(pair)


def test_hws_qubit_pair_is_pauli_pair(qs3):
    pair = build_hws(qs3)
    sx = qs3(1, 2) + qs3(2, 1)
    sz = qs3(1, 1) - qs3(2, 2)
    np.testing.assert_allclose(pair.u, -sz, atol=1e-12)
    np.testing.assert_allclose(pair.v, sx, atol=1e-12)


def test_hws_pair_holds_only_the_logical_pair():
    # u and v are built on access, so the pair costs d x d arrays, not 4**n.
    qs = qset(11)
    tracemalloc.start()
    try:
        pair = build_hws(qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert pair.basis is qs
    stored = [getattr(pair, f.name) for f in dataclasses.fields(pair)]
    assert max(np.size(a) for a in stored if a is not pair.basis) == qs.d ** 2


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=6),
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    angle=st.floats(min_value=-2 * np.pi, max_value=2 * np.pi),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_any_collective_rotation_fixes_any_payload(n, theta, phi, angle, seed):
    """Rotation invariance holds for every axis and angle, not just Haar draws."""
    qs = qset(n)
    rng = np.random.default_rng(seed)
    state = QuditState(qs.d, random_density(rng, qs.d))
    payload = encode_state(qs, state).payload
    axis = (
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    )
    u = collective_rotation(SpinRegister(n), axis, angle)
    assert max_abs_diff(u @ payload @ dagger(u), payload) < 1e-11
    # In the sector frame the rotation acts on m2 alone: K^dag u^(x n) K = I_d (x) r.
    r = dagger(qs.isometry) @ u @ qs.isometry
    assert max_abs_diff(r, np.kron(identity(qs.d), r[: qs.d, : qs.d])) < 1e-11
