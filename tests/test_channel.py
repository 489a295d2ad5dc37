"""Collective-noise channel runs: protection, statistics, reports."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffqudit import channel, cli, coupling
from rffqudit.channel import (
    BornReport,
    ChannelConfig,
    ChannelReport,
    born_rule_harness,
    random_density,
    random_povm,
    run_channel,
    _noise_unitaries,
)
from rffqudit.coupling import build_coupled_basis
from rffqudit.encoder import QuditState, build_q_set, decode_payload, encode_state
from rffqudit.errors import ConsistencyError, ValidationError
from rffqudit.linalg import (
    identity,
    mat_exp_hermitian_generator,
    trace_distance,
    uhlmann_fidelity,
)
from rffqudit.spinsys import SIGMA_X, SIGMA_Y, SIGMA_Z, SpinRegister, haar_su2, kron_power
from rffqudit.verify import encoded_random_states, rotation_invariance_residual

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)


def random_pure_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """|v><v| for a normalised complex Gaussian v."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_config_validation():
    ChannelConfig(n=3, trials=10, seed=1)
    with pytest.raises(ValidationError, match="noise"):
        ChannelConfig(n=3, trials=10, seed=1, noise="thermal")
    with pytest.raises(ValidationError, match="trials"):
        ChannelConfig(n=3, trials=0, seed=1)
    with pytest.raises(ValidationError, match="axis"):
        ChannelConfig(n=3, trials=10, seed=1, noise="fixed", angle=0.5)
    with pytest.raises(ValidationError, match="unit"):
        ChannelConfig(
            n=3, trials=10, seed=1, noise="fixed", axis=(0, 0, 2), angle=0.5
        )
    with pytest.raises(ValidationError, match="angle"):
        ChannelConfig(n=3, trials=10, seed=1, noise="fixed", axis=(0, 0, 1))
    with pytest.raises(ValidationError, match="width"):
        ChannelConfig(n=3, trials=10, seed=1, noise="dephasing")
    with pytest.raises(ValidationError, match="width"):
        ChannelConfig(n=3, trials=10, seed=1, noise="dephasing", width=-1.0)
    # A parameter of another noise mode is refused, not dropped.
    with pytest.raises(ValidationError, match="fixed noise takes no width"):
        ChannelConfig(n=3, trials=10, seed=1, noise="fixed", axis=(0, 0, 1), angle=0.5,
                      width=0.1)
    with pytest.raises(ValidationError, match="dephasing noise takes no axis or angle"):
        ChannelConfig(n=3, trials=10, seed=1, noise="dephasing", width=0.1,
                      axis=(0, 0, 1), angle=0.5)


@pytest.mark.parametrize("seed", (-1, 1.5, True))
def test_every_seeded_entry_point_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be"):
        ChannelConfig(n=3, trials=2, seed=seed)
    with pytest.raises(ValidationError, match="seed must be"):
        born_rule_harness(build_coupled_basis(SpinRegister(3)), 5, seed)


TRIAL_ENTRY_POINTS = {
    "ChannelConfig": lambda qs, trials: ChannelConfig(n=3, trials=trials, seed=1),
    "born_rule_harness": lambda qs, trials: born_rule_harness(qs, trials, 1),
    "rotation_invariance_residual": lambda qs, trials: rotation_invariance_residual(qs, trials),
    "encoded_random_states": lambda qs, trials: encoded_random_states(qs, trials),
}


@pytest.mark.parametrize("entry", sorted(TRIAL_ENTRY_POINTS))
def test_every_entry_point_refuses_trials_that_are_not_an_integer(entry):
    qs, call = build_coupled_basis(SpinRegister(3)), TRIAL_ENTRY_POINTS[entry]
    for trials in (True, 2.5, 2.0, "3", None):
        with pytest.raises(ValidationError, match="trials must be an integer"):
            call(qs, trials)
    with pytest.raises(ValidationError, match="trials must be >= 1"):
        call(qs, np.int64(0))
    call(qs, np.int64(2))  # a numpy integer is an integer


@pytest.mark.parametrize("integer", (np.int64, np.uint32))
def test_numpy_integer_trials_and_seed_give_the_python_int_report(integer):
    state = QuditState(2, PLUS)
    plain = run_channel(ChannelConfig(n=3, trials=5, seed=1), state)
    for given in ({"trials": integer(5)}, {"seed": integer(1)}):
        cfg = ChannelConfig(**{"n": 3, "trials": 5, "seed": 1, **given})
        assert type(cfg.trials) is int and type(cfg.seed) is int
        report = run_channel(cfg, state)
        assert report.to_json() == plain.to_json()
        assert report.to_csv() == plain.to_csv()


@pytest.mark.parametrize("integer", (np.int64, np.uint8))
def test_a_numpy_integer_d_gives_the_python_int_report(integer):
    # json.dumps refuses a NumPy integer, so the config echo must hold an int.
    state = QuditState(integer(2), PLUS)
    assert type(state.d) is int
    report = run_channel(ChannelConfig(n=3, trials=2, seed=1), state)
    plain = run_channel(ChannelConfig(n=3, trials=2, seed=1), QuditState(2, PLUS))
    assert report == plain  # reports are equal when they write the same JSON
    assert '\n    "d": 2,\n' in report.to_json()


@pytest.mark.parametrize("n", (True, 3.0))
def test_a_channel_size_that_is_not_an_integer_is_refused(n):
    with pytest.raises(ValidationError, match=f"^n must be an integer, got {n!r}$"):
        ChannelConfig(n=n, trials=2, seed=1)


def test_a_numpy_integer_n_gives_the_python_int_report():
    cfg = ChannelConfig(n=np.int64(3), trials=2, seed=1)
    assert type(cfg.n) is int
    report = run_channel(cfg, QuditState(2, PLUS))
    assert json.loads(report.to_json())["config"]["n"] == 3
    assert report == run_channel(ChannelConfig(n=3, trials=2, seed=1), QuditState(2, PLUS))


def test_run_channel_rejects_mismatched_state():
    cfg = ChannelConfig(n=4, trials=1, seed=1)
    with pytest.raises(ValidationError, match="dimension"):
        run_channel(cfg, QuditState(2, ZERO))


def test_a_rotation_that_leaves_the_sector_fails_the_trial(monkeypatch, capsys):
    # u on the first constituent alone is no collective rotation: U K != K R.
    def first_leg_only(reg, u, vecs):
        return np.stack([np.kron(one, identity(2 ** (reg.n - 1))) @ vecs for one in u])

    monkeypatch.setattr("rffqudit.coupling.collective_product_apply", first_leg_only)
    with pytest.raises(ConsistencyError, match="leaves the logical sector"):
        run_channel(ChannelConfig(n=3, trials=2, seed=1), QuditState(2, ZERO))
    assert cli.main(["channel", "--n", "3", "--trials", "2"]) == 1
    assert "leaves the logical sector" in capsys.readouterr().err


def test_haar_channel_protects_the_qubit():
    cfg = ChannelConfig(n=3, trials=50, seed=99)
    report = run_channel(cfg, QuditState(2, ZERO))
    assert len(report.per_trial) == 50
    for row in report.per_trial:
        assert abs(row["fidelity"] - 1.0) < 1e-9
        assert abs(row["trace_distance"]) < 1e-7
        assert abs(row["leakage"]) < 1e-9
    agg = report.aggregate
    assert agg["fidelity"]["min"] > 1 - 1e-9
    # The unencoded qubit scrambles: its mean fidelity sits near 1/2.
    assert 0.3 < agg["bare_fidelity"]["mean"] < 0.7
    assert report.note is None


def test_haar_channel_protects_a_qutrit():
    cfg = ChannelConfig(n=4, trials=20, seed=5)
    rng = np.random.default_rng(7)
    report = run_channel(cfg, QuditState(3, random_density(rng, 3)))
    for row in report.per_trial:
        assert abs(row["fidelity"] - 1.0) < 1e-9
        assert row["bare_fidelity"] is None
    assert report.aggregate["bare_fidelity"] is None
    assert "d=2" in report.note


def test_fixed_rotation_bare_fidelity_is_deterministic():
    angle = 1.1
    cfg = ChannelConfig(
        n=3, trials=5, seed=3, noise="fixed", axis=(0.0, 1.0, 0.0), angle=angle
    )
    report = run_channel(cfg, QuditState(2, ZERO))
    expected = np.cos(angle / 2) ** 2
    for row in report.per_trial:
        assert row["bare_fidelity"] == pytest.approx(expected, abs=1e-12)
        assert abs(row["fidelity"] - 1.0) < 1e-11
    assert report.aggregate["bare_fidelity"]["stderr"] == pytest.approx(
        0.0, abs=1e-12
    )


def test_dephasing_bare_fidelity_matches_analytic_mean():
    # For |+> under z-dephasing of width w, the mean bare fidelity is
    # (1 + exp(-w^2/2))/2; the encoded state stays put regardless.
    width, trials = 1.0, 2000
    cfg = ChannelConfig(
        n=3, trials=trials, seed=11, noise="dephasing", width=width
    )
    report = run_channel(cfg, QuditState(2, PLUS))
    mean = report.aggregate["bare_fidelity"]["mean"]
    expected = (1 + np.exp(-(width ** 2) / 2)) / 2
    variance = ((1 + np.exp(-2 * width ** 2)) / 2 - np.exp(-(width ** 2))) / 4
    assert abs(mean - expected) < 5 * np.sqrt(variance / trials)
    assert report.aggregate["fidelity"]["min"] > 1 - 1e-9


def test_channel_report_round_trips_as_json():
    cfg = ChannelConfig(n=3, trials=3, seed=21)
    report = run_channel(cfg, QuditState(2, ZERO))
    text = report.to_json()
    parsed = json.loads(text)
    assert parsed["config"]["n"] == 3
    assert parsed["config"]["trials"] == 3
    assert len(parsed["per_trial"]) == 3
    assert json.dumps(parsed, sort_keys=True, indent=2) == text


def test_channel_report_csv_shape():
    cfg = ChannelConfig(n=3, trials=4, seed=22)
    report = run_channel(cfg, QuditState(2, ZERO))
    text = report.to_csv()
    lines = text.split("\r\n")
    assert lines[0] == "trial,fidelity,trace_distance,leakage,bare_fidelity"
    assert len(lines) == 6  # header + 4 rows + trailing terminator
    assert lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_channel_reports_are_seed_deterministic():
    cfg = ChannelConfig(n=3, trials=8, seed=33)
    a = run_channel(cfg, QuditState(2, ZERO))
    b = run_channel(cfg, QuditState(2, ZERO))
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    c = run_channel(ChannelConfig(n=3, trials=8, seed=34), QuditState(2, ZERO))
    assert a.to_json() != c.to_json()


def test_random_density_and_pure_density():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 4)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    w = np.linalg.eigvalsh(rho)
    assert w.min() > -1e-12
    pure = random_pure_density(rng, 3)
    np.testing.assert_allclose(pure @ pure, pure, atol=1e-12)


def test_random_povm_is_valid():
    rng = np.random.default_rng(2)
    povm = random_povm(rng, 3, 5)
    assert len(povm.elements) == 5
    total = sum(povm.elements)
    np.testing.assert_allclose(total, identity(3), atol=1e-10)


def _random_povm_one_element_at_a_time(rng, d, elements):
    """random_povm as it drew and whitened each element in turn."""
    draws = []
    for _ in range(elements):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        draws.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(draws))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    elems = [inv_root @ a @ inv_root for a in draws]
    return [(e + e.conj().T) / 2 for e in elems]


@pytest.mark.parametrize("d", range(2, 9))
def test_random_povm_is_the_element_by_element_draw(d):
    for seed in range(20):
        povm = random_povm(np.random.default_rng([seed, d]), d, d + 1)
        oracle = _random_povm_one_element_at_a_time(np.random.default_rng([seed, d]), d, d + 1)
        assert len(povm.elements) == d + 1
        assert all(np.array_equal(a, b) for a, b in zip(povm.elements, oracle))


@pytest.mark.parametrize("n", (3, 4))
def test_born_rule_harness_deviations_are_tiny(n):
    qs = build_q_set(build_coupled_basis(SpinRegister(n)))
    report = born_rule_harness(qs, trials=10, seed=17)
    assert isinstance(report, BornReport)
    assert report.d == n - 1
    assert report.trials == 10
    assert report.max_encoded_deviation < 1e-11
    assert report.max_rotated_deviation < 1e-11


def test_born_rule_harness_rejects_zero_trials():
    qs = build_coupled_basis(SpinRegister(3))
    with pytest.raises(ValidationError, match="trials must be >= 1, got 0"):
        born_rule_harness(qs, 0, 1)


def test_born_rule_harness_is_deterministic():
    qs = build_q_set(build_coupled_basis(SpinRegister(3)))
    a = born_rule_harness(qs, trials=5, seed=4)
    b = born_rule_harness(qs, trials=5, seed=4)
    assert a == b


def test_born_rule_harness_rotates_in_chunks(monkeypatch):
    qs = build_coupled_basis(SpinRegister(4))
    whole = born_rule_harness(qs, trials=5, seed=9)
    real, sizes = coupling.collective_product_apply, []

    def recording(reg, u, vecs):
        sizes.append(len(u))
        return real(reg, u, vecs)

    monkeypatch.setattr(coupling, "collective_product_apply", recording)
    monkeypatch.setattr(coupling, "CHUNK_BYTES", 2 * qs.isometry.nbytes)
    assert born_rule_harness(qs, trials=5, seed=9) == whole
    assert sizes == [2, 2, 1]


NOISE_CONFIGS = {
    "haar": {},
    "fixed": {"axis": (0.0, 0.6, 0.8), "angle": 2.3},
    "dephasing": {"width": 0.7},
}


def _dense_noise(cfg: ChannelConfig) -> list:
    """The noise draw of every trial, one trial at a time from the seed's one stream."""
    rng, draws = np.random.default_rng(cfg.seed), []
    for _ in range(cfg.trials):
        if cfg.noise == "haar":
            draws.append(haar_su2(rng))
        elif cfg.noise == "fixed":
            generator = sum(a * s for a, s in zip(cfg.axis, (SIGMA_X, SIGMA_Y, SIGMA_Z))) / 2
            draws.append(mat_exp_hermitian_generator(generator, cfg.angle))
        else:
            theta = float(rng.normal(loc=0.0, scale=cfg.width))
            draws.append(mat_exp_hermitian_generator(SIGMA_Z / 2, theta))
    return draws


@pytest.mark.parametrize("noise", sorted(NOISE_CONFIGS))
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_batched_channel_matches_a_dense_trial_by_trial_reference(n, noise):
    # Each trial rebuilt densely: U = u^(x n) by kron_power, U P U^dag decoded
    # with its sector check, and the linalg fidelity and trace distance.
    d = n - 1
    cfg = ChannelConfig(n=n, trials=6, seed=40 + n, noise=noise, **NOISE_CONFIGS[noise])
    state = QuditState(d, random_density(np.random.default_rng([n, 2]), d))
    report = run_channel(cfg, state)
    qs = build_coupled_basis(SpinRegister(n))
    payload = encode_state(qs, state).payload
    assert [row["trial"] for row in report.per_trial] == list(range(cfg.trials))
    for row, u in zip(report.per_trial, _dense_noise(cfg)):
        big = kron_power(SpinRegister(n), u)
        decoded = decode_payload(qs, big @ payload @ big.conj().T).rho
        assert row["fidelity"] == pytest.approx(uhlmann_fidelity(state.rho, decoded), abs=1e-12)
        assert row["trace_distance"] == pytest.approx(
            trace_distance(state.rho, decoded), abs=1e-12)
        assert row["leakage"] == pytest.approx(1.0 - np.trace(decoded).real, abs=1e-12)
        if d == 2:
            bare = uhlmann_fidelity(state.rho, u @ state.rho @ u.conj().T)
            assert row["bare_fidelity"] == pytest.approx(bare, abs=1e-12)
        else:
            assert row["bare_fidelity"] is None


@pytest.mark.parametrize("make_state", (random_density, random_pure_density))
def test_figures_of_moved_decoded_states_match_linalg(make_state, monkeypatch):
    # A working channel returns the input state, so its distances are ~1e-16.
    # Mixing each decoded state with a random one makes the figures large.
    rng = np.random.default_rng(12)
    state = QuditState(2, make_state(rng, 2))
    real, moved = channel.logical_image, []

    def mixed_in(r, a):
        traced = real(r, a)
        others = np.array([random_density(rng, len(a)) for _ in traced])
        moved.append(0.6 * traced + 0.4 * others)
        return moved[-1]

    monkeypatch.setattr(channel, "logical_image", mixed_in)
    report = run_channel(ChannelConfig(n=3, trials=300, seed=5), state)
    decoded = np.concatenate(moved)
    decoded = (decoded + decoded.conj().transpose(0, 2, 1)) / 2
    assert len(decoded) == len(report.per_trial) == 300
    for row, sigma in zip(report.per_trial, decoded):
        assert row["fidelity"] == pytest.approx(uhlmann_fidelity(state.rho, sigma), abs=1e-12)
        assert row["trace_distance"] == pytest.approx(trace_distance(state.rho, sigma), abs=1e-12)
    assert report.aggregate["trace_distance"]["min"] > 1e-3


@pytest.mark.parametrize("noise", sorted(NOISE_CONFIGS))
def test_channel_report_does_not_depend_on_the_chunk_size(noise, monkeypatch):
    # n = 3 is the benchmark's shape; at n = 7 the default splits the trials
    # into three chunks. One trial per chunk, and all trials in one chunk.
    default = coupling.CHUNK_BYTES
    for n in (3, 4, 7):
        cfg = ChannelConfig(n=n, trials=9, seed=8, noise=noise, **NOISE_CONFIGS[noise])
        state = QuditState(n - 1, random_density(np.random.default_rng(3), n - 1))
        monkeypatch.setattr(coupling, "CHUNK_BYTES", default)
        whole = run_channel(cfg, state).to_json()
        for chunk_bytes in (1, 16 * 2 ** 20):
            monkeypatch.setattr(coupling, "CHUNK_BYTES", chunk_bytes)
            assert run_channel(cfg, state).to_json() == whole, (n, chunk_bytes)


def test_a_leaking_trial_is_named(monkeypatch):
    # A decoded trace below one fails the trace check of that trial alone, as
    # a failed claim: the decoded states come from the library's own payload.
    real = channel.logical_image

    def leak_in_trial_two(r, a):
        traced = real(r, a)
        traced[2:3] *= 0.9
        return traced

    monkeypatch.setattr(channel, "logical_image", leak_in_trial_two)
    with pytest.raises(ConsistencyError, match=r"decoded state \[2\] trace is 0\.9\+0j"):
        run_channel(ChannelConfig(n=3, trials=4, seed=1), QuditState(2, ZERO))


def test_a_decoded_state_that_fails_its_checks_fails_the_claim(monkeypatch, capsys):
    # 1.1 U K stays in the span of K, so every rotation passes its gate with
    # R = 1.1 R_0; the decoded states then have trace 1.21.
    real = coupling.collective_product_apply
    monkeypatch.setattr(coupling, "collective_product_apply",
                        lambda reg, u, vecs: 1.1 * real(reg, u, vecs))
    assert cli.main(["channel", "--n", "3", "--trials", "5"]) == 1
    err = capsys.readouterr().err
    assert "the encoded payload fails to decode: decoded state [0] trace is 1.21" in err


@pytest.mark.parametrize("one_trial_per_chunk", (False, True))
def test_rotations_name_the_trial_that_leaves_the_sector(monkeypatch, one_trial_per_chunk):
    qs = build_coupled_basis(SpinRegister(3))
    u = haar_su2(np.random.default_rng(6), 5)
    real = coupling.collective_product_apply

    def stray_in_trial_two(reg, chunk, vecs):
        out = real(reg, chunk, vecs)
        out[(chunk == u[2]).all(axis=(1, 2))] += 1e-6
        return out

    monkeypatch.setattr(coupling, "collective_product_apply", stray_in_trial_two)
    if one_trial_per_chunk:
        monkeypatch.setattr(coupling, "CHUNK_BYTES", 1)
    yielded = []
    with pytest.raises(ConsistencyError, match=r"the collective rotation of trial 2 leaves "
                       r"the logical sector \(\|U K - K R\| = \S+ > 1e-09\)"):
        for r, escape in qs.rotations(u):
            assert (escape <= coupling.SECTOR_TOL).all()
            yielded.append(len(r))
    # Trials 0 and 1 pass their gate first when they are chunks of their own.
    assert yielded == ([1, 1] if one_trial_per_chunk else [])


def test_n10_channel_memory_is_bounded_by_the_chunk_budget(monkeypatch):
    # A chunk holds at most CHUNK_BYTES of U K (one K per trial), or one trial
    # if K alone is larger. The bound allows three chunk-sized arrays; the
    # grouped product holds two (a pass's input and its product), and nothing
    # of a chunk may be held into the next. The basis is built before tracing
    # starts, so the peak is the trials'.
    # 64 trials of U K at n = 10 are 81 MB, so one unchunked stack alone
    # would break the bound.
    n, trials = 10, 64
    basis = build_coupled_basis(SpinRegister(n))
    monkeypatch.setattr(channel, "build_coupled_basis", lambda reg: basis)
    bound = 3 * max(coupling.CHUNK_BYTES, basis.isometry.nbytes) + 2 ** 20
    assert trials * basis.isometry.nbytes > bound
    rho = random_density(np.random.default_rng(10), n - 1)
    tracemalloc.start()
    try:
        report = run_channel(ChannelConfig(n=n, trials=trials, seed=1), QuditState(n - 1, rho))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.aggregate["fidelity"]["min"] > 1 - 1e-9
    assert peak < bound


def _report_dict(report: ChannelReport) -> dict:
    return {"config": report.config, "per_trial": report.per_trial,
            "aggregate": report.aggregate, "note": report.note}


@pytest.mark.parametrize("n, noise", [(3, "haar"), (3, "fixed"), (3, "dephasing"), (4, "haar")])
def test_report_json_equals_json_dumps_of_the_report(n, noise):
    cfg = ChannelConfig(n=n, trials=25, seed=5, noise=noise, **NOISE_CONFIGS[noise])
    state = QuditState(n - 1, random_density(np.random.default_rng(n), n - 1))
    report = run_channel(cfg, state)
    bare = [row["bare_fidelity"] for row in report.per_trial]
    assert all(isinstance(b, float) for b in bare) if n == 3 else bare == [None] * 25
    assert report.to_json() == json.dumps(_report_dict(report), sort_keys=True, indent=2)


NUMBERS = st.one_of(
    st.floats(),  # nan and +-inf included
    st.sampled_from([5e-324, -0.0, 1e22, 1 - 2 ** -53, float("nan"), float("inf"),
                     -float("inf")]),
)
FIGURES = ("fidelity", "trace_distance", "leakage", "bare_fidelity")


def _columns(trials: int):
    """Equal-length columns of the four figures; bare_fidelity may be None."""
    column = st.lists(NUMBERS, min_size=trials, max_size=trials)
    return st.tuples(column, column, column, st.none() | column)


COLUMNS = st.integers(0, 12).flatmap(_columns)


def _report_of(columns, note=None) -> ChannelReport:
    return ChannelReport(config={"n": 3}, series=dict(zip(FIGURES, columns)),
                         aggregate={"fidelity": None}, note=note)


@settings(max_examples=200, deadline=None)
@given(COLUMNS, st.none() | st.text(max_size=8))
def test_report_json_writes_any_float_as_json_does(columns, note):
    fidelity, trace_distance, leakage, bare = columns
    rows = [{"trial": t, "fidelity": fidelity[t], "trace_distance": trace_distance[t],
             "leakage": leakage[t], "bare_fidelity": None if bare is None else bare[t]}
            for t in range(len(fidelity))]
    report = _report_of(columns, note)
    text = report.to_json()
    assert text == json.dumps({"config": {"n": 3}, "per_trial": rows,
                               "aggregate": {"fidelity": None}, "note": note},
                              sort_keys=True, indent=2)
    assert json.dumps(report.per_trial) == json.dumps(rows)
    assert "nan" not in text and "inf" not in text


@settings(max_examples=200, deadline=None)
@given(COLUMNS)
def test_report_csv_writes_any_float_as_the_csv_module_does(columns):
    report = _report_of(columns)
    header = ("trial",) + FIGURES
    oracle = io.StringIO()
    writer = csv.writer(oracle, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in report.per_trial:
        writer.writerow([row["trial"]] + ["" if row[name] is None else repr(row[name])
                                          for name in FIGURES])
    assert report.to_csv() == oracle.getvalue()


def _one_trial_report(**changed) -> ChannelReport:
    series = {"fidelity": [1.0], "trace_distance": [0.0], "leakage": [0.0],
              "bare_fidelity": None, **changed}
    return ChannelReport(config={"n": 3}, series=series, aggregate={}, note=None)


@pytest.mark.parametrize("column", [
    ["1.0", "2.0"],
    "1.0",
    [True],  # json writes true, not 1
    [1j],
    [[1.0]],
    [None],
    None,
], ids=["strings", "string", "bool", "complex", "nested", "none-cell", "none"])
def test_report_refuses_a_column_that_is_not_numbers(column):
    with pytest.raises(ValidationError, match="'fidelity' must be a column of numbers"):
        _one_trial_report(fidelity=column)


def test_report_refuses_columns_of_unequal_length():
    for changed in ({"leakage": [0.0, 0.0]}, {"bare_fidelity": []}, {"fidelity": []}):
        with pytest.raises(ValidationError, match="the series differ in length"):
            _one_trial_report(**changed)


def test_report_refuses_a_series_it_does_not_know():
    with pytest.raises(ValidationError, match="a report's series are"):
        _one_trial_report(extra=[1.0])
    series = {"fidelity": [1.0], "trace_distance": [0.0], "leakage": [0.0]}
    with pytest.raises(ValidationError, match="a report's series are"):
        ChannelReport(config={}, series=series, aggregate={}, note=None)


@pytest.mark.parametrize("column", [
    np.array([0.1, 2.5e-8, 1.0], dtype=np.float32),
    [np.float64(0.1), np.float64(2.5e-8), np.float64(1.0)],
    [np.float32(0.1), 2.5e-8, 1],
    np.array([0, 1, 1], dtype=np.int64),
], ids=["float32-array", "float64-scalars", "mixed-scalars", "int64-array"])
def test_report_takes_a_numeric_column_as_read_only_float64(column):
    report = _report_of([column, column, column, column])
    for values in report.series.values():
        assert values.dtype == np.float64 and not values.flags.writeable
        assert values.tolist() == [float(x) for x in column]
    assert report.to_json() == json.dumps(_report_dict(report), sort_keys=True, indent=2)
    source = np.array(column)
    held = _report_of([source, source, source, source])
    source[0] = 7  # the report holds a copy
    assert held.series["fidelity"][0] != 7
    with pytest.raises(AttributeError):
        report.per_trial = []


def _old_haar_su2(gens) -> np.ndarray:
    """The stacked Haar draw as it was first written: two normal() calls per draw."""
    g = np.array([gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)) for gen in gens])
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q / np.sqrt(np.linalg.det(q))[..., None, None]


@pytest.mark.parametrize("seed", (1, 7, 2 ** 40 + 3, 2 ** 64, 2 ** 64 + 5, 3 * 2 ** 100 + 1))
def test_noise_draws_equal_the_old_draws_bit_for_bit(seed):
    # Trial t reads the t-th draw of default_rng(seed), for seeds of one to
    # four 64-bit words: the Haar draw as it was first written, and one
    # normal() call per dephasing angle.
    trials = 2000
    haar = _noise_unitaries(ChannelConfig(n=3, trials=trials, seed=seed))
    assert np.array_equal(haar, _old_haar_su2([np.random.default_rng(seed)] * trials))
    width = 0.3
    dephasing = _noise_unitaries(
        ChannelConfig(n=3, trials=trials, seed=seed, noise="dephasing", width=width))
    rng = np.random.default_rng(seed)
    theta = np.array([rng.normal(loc=0.0, scale=width) for _ in range(trials)])
    assert np.array_equal(dephasing, mat_exp_hermitian_generator(SIGMA_Z / 2, theta))


@pytest.mark.parametrize("seed", (1, 7, 99))
def test_draws_from_one_generator_equal_the_old_draws_bit_for_bit(seed):
    trials = 2000
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    old = _old_haar_su2([rng] * trials)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    assert np.array_equal(haar_su2(rng, trials), old)
    single = haar_su2(np.random.default_rng(seed))
    assert np.array_equal(single, _old_haar_su2([np.random.default_rng(seed)])[0])


@pytest.mark.parametrize("noise", sorted(NOISE_CONFIGS))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(noise):
    # The draws of --trials 40 are the first 40 draws of --trials 300, and so
    # are its rows; only the aggregate figures differ.
    state = QuditState(2, random_density(np.random.default_rng(9), 2))
    short, long = (run_channel(ChannelConfig(n=3, trials=trials, seed=17, noise=noise,
                                             **NOISE_CONFIGS[noise]), state)
                   for trials in (40, 300))
    assert short.per_trial == long.per_trial[:40]
    assert short != long
