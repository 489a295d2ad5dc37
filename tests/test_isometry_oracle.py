"""The sector isometry K against the dense Q_{lambda lambda'} it replaces.

For n = 3..6 the dense matrix units are rebuilt here from the coupled kets,
checked with the full d**4 closure and [Q, J] loops, and compared with every
object the package now derives from K alone: the sector frames of encoded
operators, and collective rotations applied to K one constituent at a time.
"""

import dataclasses
import tracemalloc
from math import factorial, sqrt

import numpy as np
import pytest

from rffqudit.channel import (
    ChannelConfig,
    born_rule_harness,
    random_density,
    random_povm,
    run_channel,
)
import rffqudit.coupling as coupling
from rffqudit.coupling import (
    CoupledBasis,
    build_coupled_basis,
    isometry_residuals,
    logical_image,
)
from rffqudit.encoder import (
    QuditState,
    build_hws,
    build_q_set,
    decode_payload,
    encode_povm,
    encode_state,
)
from rffqudit.errors import ConsistencyError
from rffqudit.linalg import entropy_bits, max_abs_diff
from rffqudit.spinsys import (
    SpinRegister,
    haar_su2,
    kron_power,
    product_ket,
    sigma,
    total_J,
)
from rffqudit.verify import (
    DEFAULT_SEED,
    encoded_random_states,
    entropy_defect_residual,
    q_algebra_residuals,
    rotation_invariance_residual,
    suite_encoder,
)

SEED = 20261018
SMALL_N = (3, 4, 5, 6)


def dense_q_set(basis) -> dict:
    q = {}
    for lam in range(1, basis.d + 1):
        for lamp in range(1, basis.d + 1):
            q[(lam, lamp)] = sum(
                np.outer(basis.ket(m2, lam), basis.ket(m2, lamp).conj())
                for m2 in basis.m2_values()
            )
    return q


def dense_encode(q, d, m):
    return sum(m[l - 1, lp - 1] * q[(l, lp)] for l in range(1, d + 1)
               for lp in range(1, d + 1))


def dense_rotation_residual(qs, trials, seed=DEFAULT_SEED):
    """Worst |U Q U^dag - Q| over Haar U = kron_power(u) and every dense Q view."""
    reg = SpinRegister(qs.n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ops = [qs(l, lp) for l in range(1, qs.d + 1) for lp in range(1, qs.d + 1)]
    worst = 0.0
    for _ in range(trials):
        big = kron_power(reg, haar_su2(rng))
        worst = max([worst] + [max_abs_diff(big @ q @ big.conj().T, q) for q in ops])
    return worst


@pytest.fixture(scope="module", params=SMALL_N)
def case(request):
    n = request.param
    basis = build_coupled_basis(SpinRegister(n))
    return n, basis, build_q_set(basis), dense_q_set(basis)


def test_kets_match_the_dense_lowering_operators(case):
    # |j2, m2; lambda> = c_k Omega_minus(lambda) J_minus**k |0...0>, k = j2 - m2,
    # with the dense matrices Omega_minus(lambda) and J_minus.
    n, basis, _, _ = case
    reg = SpinRegister(n)
    j_minus = total_J(reg).j_minus
    two_j2 = n - 2
    for k, m2 in enumerate(basis.m2_values()):
        lowered = np.linalg.matrix_power(j_minus, k) @ product_ket("0" * n)
        prefactor = sqrt(factorial(two_j2 - k) / (factorial(two_j2) * factorial(k)))
        for lam in range(1, basis.d + 1):
            omega = sum(basis.coupling[lam - 1, l - 1] * sigma(reg, l, "-")
                        for l in range(1, n + 1))
            assert max_abs_diff(basis.ket(m2, lam), prefactor * omega @ lowered) < 1e-13


def test_dense_oracle_is_a_matrix_unit_algebra_commuting_with_j(case):
    n, basis, _, q = case
    d = basis.d
    pairs = list(q)
    zero = np.zeros_like(q[(1, 1)])
    for lam, lamp in pairs:
        for mu, mup in pairs:
            expected = q[(lam, mup)] if lamp == mu else zero
            assert max_abs_diff(q[(lam, lamp)] @ q[(mu, mup)], expected) < 1e-10
    js = total_J(SpinRegister(n))
    for key in pairs:
        for j_op in (js.jx, js.jy, js.jz):
            assert max_abs_diff(q[key] @ j_op, j_op @ q[key]) < 1e-10
        lam, lamp = key
        assert abs(np.trace(q[key]) - (d if lam == lamp else 0)) < 1e-10


def test_views_and_projector_match_the_dense_set(case):
    _, basis, qs, q = case
    for key, dense in q.items():
        assert max_abs_diff(qs(*key), dense) < 1e-12
    projector = sum(q[(lam, lam)] for lam in range(1, basis.d + 1))
    assert max_abs_diff(qs.sector_projector, projector) < 1e-12


def test_encode_and_decode_match_the_dense_forms(case):
    n, basis, qs, q = case
    d = basis.d
    rng = np.random.default_rng([SEED, n])
    state = QuditState(d, random_density(rng, d))
    payload = encode_state(qs, state).payload
    assert max_abs_diff(payload, dense_encode(q, d, state.rho) / d) < 1e-12

    povm = random_povm(rng, d, d + 1)
    for element, encoded in zip(povm.elements, encode_povm(qs, povm)):
        assert max_abs_diff(encoded.payload, dense_encode(q, d, element)) < 1e-12

    big = kron_power(SpinRegister(n), haar_su2(rng))
    rotated = big @ payload @ big.conj().T
    dense_rho = np.array([[np.trace(q[(lp, l)] @ rotated) for lp in range(1, d + 1)]
                          for l in range(1, d + 1)])
    assert max_abs_diff(decode_payload(qs, rotated).rho, dense_rho) < 1e-12

    stray = np.zeros_like(payload)
    stray[0, 0] = 1.0  # the all-up ket lies in the largest-j sector
    leaky = 0.9 * payload + 0.1 * stray
    projector = qs.sector_projector
    dense_leak = max_abs_diff(projector @ leaky @ projector, leaky)
    assert qs.compress(leaky)[1] == pytest.approx(dense_leak, abs=1e-12)


def test_channel_trial_matches_the_dense_rotation(case, monkeypatch):
    # The logical route (R = K^dag U K, Tr_m2 R (A (x) I_d) R^dag for A = rho/d)
    # against U P U^dag decoded densely.
    n, basis, qs, _ = case
    d = basis.d
    state = QuditState(d, random_density(np.random.default_rng([SEED, n, 1]), d))
    traced = []

    def recording_logical_image(*args):
        traced.append(logical_image(*args))
        return traced[-1]

    monkeypatch.setattr("rffqudit.channel.logical_image", recording_logical_image)
    report = run_channel(ChannelConfig(n=n, trials=1, seed=SEED), state)
    u = haar_su2(np.random.default_rng(np.random.SeedSequence(SEED).spawn(1)[0]))
    big = kron_power(SpinRegister(n), u)
    dense = decode_payload(qs, big @ encode_state(qs, state).payload @ big.conj().T)
    assert traced[0].shape == (1, d, d)
    assert max_abs_diff(traced[0][0], dense.rho) < 1e-12
    leakage = 1.0 - np.trace(dense.rho).real
    assert report.per_trial[0]["leakage"] == pytest.approx(leakage, abs=1e-12)


def test_frame_entropy_matches_the_dense_payload_entropy(case):
    # S summed over the class frames, as verify's entropy row takes it,
    # against S of each dense payload K (rho/d (x) I_d) K^dag.
    n, basis, qs, _ = case
    rho, frames = encoded_random_states(qs, 3, SEED + n)
    s_frames = entropy_bits(frames).sum(axis=-1)
    for state, s_encoded in zip(rho, s_frames):
        assert s_encoded == pytest.approx(entropy_bits(basis.lift(state / basis.d)), abs=1e-12)


def test_harness_probabilities_match_the_dense_traces(case, monkeypatch):
    # The harness's Tr(sum_m2 C_m2 Pi), C compressed from the class factors of
    # the state payload, against Tr(P_rho P_Pi) with P_rho the blocks X Y^dag
    # of those factors scattered and P_Pi = K (Pi (x) I_d) K^dag, dense.
    _, _, qs, _ = case
    d, trials = qs.d, 3
    lifts, compressions = [], []
    real_lift, real_compress = CoupledBasis.lift_factors, CoupledBasis.compress_lifted

    def lift_recording(basis, logical):
        lifts.append(tuple(real_lift(basis, logical)))  # read again below
        return lifts[-1]

    def compress_recording(basis, logical):
        compressions.append(real_compress(basis, logical))
        return compressions[-1]

    monkeypatch.setattr(CoupledBasis, "lift_factors", lift_recording)
    monkeypatch.setattr(CoupledBasis, "compress_lifted", compress_recording)
    report = born_rule_harness(qs, trials, SEED)
    assert report.max_encoded_deviation < 1e-12
    rng = np.random.default_rng(np.random.SeedSequence(SEED))
    povms = []
    for _ in range(trials):  # the harness's draws: state, POVM, rotation
        random_density(rng, d)
        povms.append(random_povm(rng, d, d + 1).elements)
        haar_su2(rng)
    [factors], [frames] = lifts, compressions  # one chunk holds every trial at small n
    k = qs.isometry
    for t, elements in enumerate(povms):
        payload = np.zeros((2 ** qs.n,) * 2, dtype=complex)
        for (rows, _), (x, y) in zip(qs.weight_classes, factors):
            payload[np.ix_(rows, rows)] = x[t] @ y.conj().T
        dense = [np.trace(payload @ k @ np.kron(e, np.eye(d)) @ k.conj().T).real
                 for e in elements]
        harness = [np.trace(frames[t].sum(axis=0) @ e).real for e in elements]
        assert len(dense) == d + 1
        assert max_abs_diff(harness, dense) <= 1e-12


def test_n10_born_and_entropy_rows_hold_one_payload_at_a_time():
    # One 1024 x 1024 complex payload is 16 MB; stacking payloads over
    # trials or elements, or a dense K C K^dag beside the payload, exceeds 3.
    qs = build_coupled_basis(SpinRegister(10))
    bound = 3 * 4 ** 10 * 16
    for row in (lambda: born_rule_harness(qs, 5, SEED),
                lambda: entropy_defect_residual(qs, 5)):
        tracemalloc.start()
        try:
            row()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_rotation_residual_and_the_dense_loop_pass_the_built_k(case):
    _, _, qs, _ = case
    assert rotation_invariance_residual(qs, 5) <= 1e-12
    assert dense_rotation_residual(qs, 5) <= 1e-12


def test_frame_hermitian_pairing_matches_the_dense_one(case):
    _, _, qs, q = case
    dense = max(max_abs_diff(q[(l, lp)].conj().T, q[(lp, l)]) for l, lp in q)
    assert q_algebra_residuals(qs)["hermitian-pairing"] == pytest.approx(dense, abs=1e-12)


def test_q_hermitian_row_rejects_a_lift_without_the_conjugate(monkeypatch):
    # Factors (B H, conj B), so P = B H B^T in place of B H B^dag: the blocks of
    # P = lift(H) are then not hermitian, as the Fourier blocks are complex,
    # though every frame G_l G_l'^dag still pairs.
    def transposed_lift_factors(self, logical):
        return tuple((block @ logical, block.conj()) for block in self.blocks)

    row = suite_encoder(n_values=(3,))[0]
    assert row.id == "encoder:q-hermitian:n=3" and row.passed
    monkeypatch.setattr(CoupledBasis, "lift_factors", transposed_lift_factors)
    residual = q_algebra_residuals(build_coupled_basis(SpinRegister(3)))["hermitian-pairing"]
    assert residual > 0.01 > row.tolerance


def test_hws_pair_matches_the_dense_sums_and_relations(case):
    _, basis, qs, q = case
    d = basis.d
    pair = build_hws(qs)
    u = sum(pair.omega ** lam * q[(lam, lam)] for lam in range(1, d + 1))
    v = sum(q[(lam, lam + 1)] for lam in range(1, d)) + q[(d, 1)]
    assert max_abs_diff(pair.u, u) < 1e-12
    assert max_abs_diff(pair.v, v) < 1e-12
    sector = qs.sector_projector
    assert max_abs_diff(np.linalg.matrix_power(u, d), sector) < 1e-10
    assert max_abs_diff(np.linalg.matrix_power(v, d), sector) < 1e-10
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            uj = np.linalg.matrix_power(u, j)
            vk = np.linalg.matrix_power(v, k)
            assert max_abs_diff(uj @ vk, pair.omega ** (-j * k) * (vk @ uj)) < 1e-10


def _corrupt(basis, m2, lam, column):
    """basis with the ket (m2, lambda) replaced by column, given on its weight class."""
    k = int(basis.j2 - m2)
    block = basis.blocks[k].copy()
    block[:, lam - 1] = column
    return dataclasses.replace(basis, blocks=basis.blocks[:k] + (block,) + basis.blocks[k + 1:])


def test_gram_check_rejects_a_non_orthonormal_column():
    basis = build_coupled_basis(SpinRegister(4))
    m2 = basis.m2_values()[0]
    block = basis.blocks[0]
    mixed = (block[:, 0] + block[:, 1]) / np.sqrt(2)
    with pytest.raises(ConsistencyError, match="K\\^dag K"):
        build_q_set(_corrupt(basis, m2, 1, mixed))


def test_covariance_check_rejects_a_broken_ladder_phase():
    # A phase on one column keeps K an isometry but breaks J K = K (I x J).
    basis = build_coupled_basis(SpinRegister(4))
    m2 = basis.m2_values()[1]
    corrupted = _corrupt(basis, m2, 2, 1j * basis.blocks[1][:, 1])
    residuals = isometry_residuals(corrupted)
    assert residuals["gram"] < 1e-12 and residuals["covariance"] > 0.1
    with pytest.raises(ConsistencyError, match="commute with J"):
        build_q_set(corrupted)


def test_rotation_residuals_reject_a_broken_ladder_phase():
    # The phase survives U K = K R but makes U act differently on lambda = 2.
    basis = build_coupled_basis(SpinRegister(4))
    m2 = basis.m2_values()[1]
    corrupted = _corrupt(basis, m2, 2, 1j * basis.blocks[1][:, 1])
    assert rotation_invariance_residual(corrupted, 5) > 0.1
    assert dense_rotation_residual(corrupted, 5) > 0.1


def test_build_rejects_a_non_covariant_isometry(monkeypatch):
    # A phase on the m2 = j2 - 1 block keeps every column normalised and K an
    # isometry, but no longer intertwines J with I (x) J^(j2).
    closed_form = coupling.closed_form_blocks

    def phased(n, u):
        blocks = closed_form(n, u)
        return blocks[:1] + (1j * blocks[1],) + blocks[2:]

    monkeypatch.setattr(coupling, "closed_form_blocks", phased)
    with pytest.raises(ConsistencyError, match="commute with J"):
        build_coupled_basis(SpinRegister(4))


def test_q_set_shares_the_basis_isometry():
    basis = build_coupled_basis(SpinRegister(5))
    assert build_q_set(basis).isometry is basis.isometry
    assert not basis.isometry.flags.writeable
    assert not any(block.flags.writeable for block in basis.blocks)


def test_q_set_is_the_verified_basis():
    basis = build_coupled_basis(SpinRegister(5))
    assert build_q_set(basis) is basis


def test_n9_q_set_is_verified_and_small():
    # The d**2 dense Q operators at n = 9 would take 268 MB; K is 512 x 64 (0.5 MB).
    qs = build_q_set(build_coupled_basis(SpinRegister(9)))
    residuals = isometry_residuals(qs)
    assert max(residuals.values()) < 1e-10
    assert sum(a.nbytes for a in qs.q.values()) < 2 * 1024 * 1024


def test_n12_channel_and_encode_never_form_a_dense_matrix():
    # One 4096 x 4096 complex matrix at n = 12 is 268 MB; K is 4096 x 121 (7.9 MB).
    rho = random_density(np.random.default_rng(SEED), 11)
    tracemalloc.start()
    try:
        report = run_channel(ChannelConfig(n=12, trials=2, seed=SEED), QuditState(11, rho))
        channel_peak = tracemalloc.get_traced_memory()[1]
        qs = build_q_set(build_coupled_basis(SpinRegister(12)))
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        enc = encode_state(qs, QuditState(11, rho))
        encode_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.aggregate["fidelity"]["min"] > 1 - 1e-9
    assert channel_peak < 100 * 1024 * 1024
    assert enc.logical.shape == (11, 11)
    assert encode_peak < 20 * 1024 * 1024
