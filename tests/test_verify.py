"""The verification suites: green on the real code, loud on corrupted code."""

import gc
import json

import numpy as np
import pytest

import rffqudit.channel as channel
import rffqudit.coupling as coupling
import rffqudit.reference as reference
import rffqudit.verify as verify
from rffqudit import cli
from rffqudit.coupling import build_coupled_basis
from rffqudit.encoder import build_q_set
from rffqudit.errors import ConsistencyError, ValidationError
from rffqudit.verify import (
    SUITES,
    CheckResult,
    born_probability_residual,
    coupling_independence_residual,
    cyclic_invariance_residual,
    entropy_defect_residual,
    q_algebra_residuals,
    rotation_invariance_residual,
    round_trip_residual,
    run_suite,
    singlet_covariance_residuals,
    suite_hws,
    suite_reference,
)
from rffqudit.spinsys import SpinRegister, haar_su2


def qset(n):
    return build_q_set(build_coupled_basis(SpinRegister(n)))


def test_suite_names():
    assert SUITES == ("all", "coupling", "encoder", "reference", "hws")


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValidationError, match="suite"):
        run_suite("everything")


@pytest.mark.parametrize("name", SUITES[1:])
def test_each_suite_passes_at_default_tolerances(name):
    results = run_suite(name, n_values=range(3, 6))
    assert results
    failures = [r for r in results if not r.passed]
    assert failures == []


def test_suite_all_aggregates_everything():
    results = run_suite("all", n_values=range(3, 5))
    ids = {r.id for r in results}
    for fragment in ("coupling:", "encoder:", "reference:", "hws:"):
        assert any(i.startswith(fragment) for i in ids), fragment
    assert all(r.passed for r in results)


def test_check_result_as_dict_round_trips():
    result = CheckResult(
        id="demo", description="d", residual=1e-12, tolerance=1e-10, passed=True
    )
    d = result.as_dict()
    assert d == {
        "id": "demo",
        "description": "d",
        "residual": 1e-12,
        "tolerance": 1e-10,
        "passed": True,
    }


def test_tolerance_override_tightens_every_check():
    # Machine-precision residuals are not zero; an absurd tolerance must fail.
    results = run_suite("coupling", tol=1e-30, n_values=(3,))
    assert any(not r.passed for r in results)
    for r in results:
        assert r.tolerance == 1e-30


def test_q_algebra_residuals_are_tiny():
    res = q_algebra_residuals(qset(3))
    assert set(res) == {
        "hermitian-pairing", "trace", "closure", "j-commutation"
    }
    assert max(res.values()) < 1e-12


def test_scalar_residual_helpers():
    qs = qset(3)
    assert rotation_invariance_residual(qs, trials=5, seed=1) < 1e-11
    assert round_trip_residual(qs, trials=5, seed=2) < 1e-11
    assert born_probability_residual(qs, trials=5, seed=3) < 1e-11
    assert entropy_defect_residual(qs, trials=5, seed=4) < 1e-9


def test_cyclic_invariance_residual_small():
    assert cyclic_invariance_residual(qset(3)) < 1e-12
    assert cyclic_invariance_residual(qset(4)) < 1e-12


def test_cyclic_check_fails_for_the_identity_map(monkeypatch):
    # Every ket is invariant under a map that moves nothing; the check must
    # still see that the Fourier kets did not pick up their phases.
    monkeypatch.setattr(verify, "permutation_indices", lambda reg, p: np.arange(reg.dim))
    results = {r.id: r for r in run_suite("coupling", n_values=(5,))}
    assert not results["coupling:cyclic-invariance:n=5"].passed
    assert results["coupling:gram:n=5"].passed


def test_coupling_independence_residual_small():
    assert coupling_independence_residual(qset(4)) < 1e-11


def test_singlet_covariance_residuals():
    worst_pair, best_escape = singlet_covariance_residuals()
    assert worst_pair < 1e-11
    assert best_escape > 1e-3


def test_corrupted_reference_constant_is_caught(monkeypatch):
    """The reference suite must fail, by name, when a constant is wrong."""
    monkeypatch.setattr(reference, "W3", np.exp(2j * np.pi / 3) * 1.001)
    results = suite_reference()
    failed = [r.id for r in results if not r.passed]
    assert failed, "corruption went unnoticed"
    assert any("n3" in i for i in failed)


def test_corrupted_reference_fails_through_cli(monkeypatch, capsys):
    monkeypatch.setattr(reference, "W3", np.exp(2j * np.pi / 3) * 0.999)
    code = cli.main(["verify", "--suite", "reference"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err
    assert "n3" in captured.err


def test_run_suite_builds_each_fourier_basis_once_per_call(monkeypatch):
    built, real = [], verify.build_coupled_basis

    def counting(reg, coupling=None):
        if coupling is None:  # the independence check builds remixed bases too
            built.append(reg.n)
        return real(reg, coupling)

    monkeypatch.setattr(verify, "build_coupled_basis", counting)
    first = run_suite("all", n_values=(3, 4, 5))
    assert sorted(built) == [3, 4, 5]
    second = run_suite("all", n_values=(3, 4, 5))  # a new call builds its own
    assert sorted(built) == [3, 3, 4, 4, 5, 5]
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]


def test_a_verify_call_builds_each_position_array_once(monkeypatch, tmp_path):
    # The census (n + 1 classes, n = 3 .. 7) and the membership check (its
    # n - 1 inner classes) read one index per n: 30 arrays, where reading
    # their own made 50.
    calls, real = [], coupling._transposed_positions

    def counting(n, rows):
        calls.append((n, rows.tobytes()))
        return real(n, rows)

    monkeypatch.setattr(coupling, "_transposed_positions", counting)
    assert cli.main(["verify", "--suite", "all", "--n-range", "3..7",
                     "--output", str(tmp_path / "verify.json")]) == 0
    assert len(calls) == 30 == len(set(calls))


def _gate_fails_at_4(monkeypatch):
    real = verify.build_coupled_basis

    def gate_fails_at_4(reg, matrix=None):
        if reg.n == 4:
            raise ConsistencyError("K^dag K != I (forced)")
        return real(reg, matrix)

    monkeypatch.setattr(verify, "build_coupled_basis", gate_fails_at_4)


def test_suite_hws_reports_a_failed_basis_gate(monkeypatch):
    _gate_fails_at_4(monkeypatch)
    results = {r.id: r for r in run_suite("hws", n_values=(3, 4))}
    failed = results["hws:relations:d=3"]
    assert not failed.passed and failed.residual == float("inf")
    assert "K^dag K != I" in failed.description
    assert results["hws:relations:d=2"].passed
    assert not suite_hws(n_values=(4,))[0].passed


def test_each_basis_gate_runs_once_per_build(monkeypatch):
    builds, runs = [], []
    real_build, real_residuals = verify.build_coupled_basis, coupling.isometry_residuals

    def counting_build(reg, matrix=None):
        builds.append(reg.n)
        return real_build(reg, matrix)

    def counting_residuals(basis):
        runs.append(basis.n)
        return real_residuals(basis)

    monkeypatch.setattr(verify, "build_coupled_basis", counting_build)
    for module in (coupling, verify):  # every namespace that holds the function
        if getattr(module, "isometry_residuals", None) is real_residuals:
            monkeypatch.setattr(module, "isometry_residuals", counting_residuals)
    assert all(r.passed for r in run_suite("all", n_values=range(3, 8)))
    # 5 Fourier bases and the 5 remixed ones of the independence check
    assert len(builds) == 10
    assert sorted(runs) == sorted(builds)


@pytest.mark.parametrize("suite", ["coupling", "encoder", "hws", "all"])
def test_a_failed_basis_gate_is_a_named_row_in_a_written_report(
        monkeypatch, capsys, tmp_path, suite):
    argv = ["verify", "--suite", suite, "--n-range", "3..4", "--output"]
    assert cli.main(argv + [str(tmp_path / "pass.json")]) == 0
    _gate_fails_at_4(monkeypatch)
    capsys.readouterr()
    assert cli.main(argv + [str(tmp_path / "fail.json")]) == 1
    err = capsys.readouterr().err
    passing = json.loads((tmp_path / "pass.json").read_text())["checks"]
    failing = json.loads((tmp_path / "fail.json").read_text())["checks"]
    assert [r["id"] for r in failing] == [r["id"] for r in passing]
    failed = [r for r in failing if not r["passed"]]
    assert failed
    for row in failed:
        assert row["residual"] == float("inf")
        assert "K^dag K != I (forced)" in row["description"]
        assert f"FAILED {row['id']}:" in err
    by_id = {r["id"]: r for r in failing}
    for row_id in by_id:
        if row_id.endswith((":n=4", ":d=3")) and not row_id.startswith("coupling:census"):
            assert not by_id[row_id]["passed"], row_id
        if row_id.endswith((":n=3", ":d=2")):
            assert by_id[row_id]["passed"], row_id


def test_a_rotation_leaving_the_sector_fails_the_rotation_and_born_rows(monkeypatch):
    # The rotation row, the Born harness and the channel share one rotation
    # routine, and it gates each trial's escape itself.
    real = coupling.collective_product_apply
    monkeypatch.setattr(coupling, "collective_product_apply",
                        lambda reg, u, vecs: real(reg, u, vecs) + 1e-6)
    results = run_suite("encoder", n_values=(3, 4))
    failed = {r.id: r for r in results if not r.passed}
    assert list(failed) == ["encoder:rotation-invariance:n=3", "encoder:born:n=3",
                            "encoder:rotation-invariance:n=4", "encoder:born:n=4"]
    for n in (3, 4):
        rotation = failed[f"encoder:rotation-invariance:n={n}"]
        assert rotation.residual == float("inf")
        assert "leaves the logical sector" in rotation.description
        assert "leaves the logical sector" in failed[f"encoder:born:n={n}"].description


def test_one_escaping_trial_fails_the_channel_and_both_rotation_rows(monkeypatch, capsys):
    real = coupling.collective_product_apply

    def escape_in_trial_two(reg, u, vecs):
        out = real(reg, u, vecs)
        if out.ndim == 3 and len(out) > 2:
            out[2] += 1e-6
        return out

    monkeypatch.setattr(coupling, "collective_product_apply", escape_in_trial_two)
    assert cli.main(["channel", "--n", "3", "--trials", "5"]) == 1
    assert "trial 2 leaves the logical sector" in capsys.readouterr().err
    failed = {r.id for r in run_suite("encoder", n_values=(3,)) if not r.passed}
    assert failed == {"encoder:rotation-invariance:n=3", "encoder:born:n=3"}


@pytest.mark.parametrize("n", (3, 5))
def test_a_rotation_scaled_by_one_point_one_fails_the_rotation_row(monkeypatch, n):
    # 1.1 U K stays in the span of K (escape 0), and R = 1.1 (I_d (x) D) is
    # still I_d (x) r, so only the comparison with D^j2(u) sees it.
    real = coupling.collective_product_apply
    monkeypatch.setattr(coupling, "collective_product_apply",
                        lambda reg, u, vecs: 1.1 * real(reg, u, vecs))
    qs = build_coupled_basis(SpinRegister(n))
    assert rotation_invariance_residual(qs, 20) > 0.01
    row = next(r for r in run_suite("encoder", n_values=(n,)) if "rotation" in r.id)
    assert not row.passed and row.residual > 0.01


def test_the_rotation_row_reads_the_round_off_of_the_spin_j2_rotation():
    for n in (3, 5, 8):
        assert rotation_invariance_residual(build_coupled_basis(SpinRegister(n)), 20) < 1e-13


def test_the_encoder_suite_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        verify.suite_encoder(n_values=(3,), seed=-1)


def test_a_raising_row_fails_at_any_tolerance(monkeypatch):
    _gate_fails_at_4(monkeypatch)
    rows = verify.suite_encoder(n_values=(4,), tol=float("inf"))
    assert rows and not any(r.passed for r in rows)
    assert all(r.residual == float("inf") for r in rows)
    for bad in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            run_suite("encoder", tol=bad, n_values=(4,))


def test_an_off_sector_payload_fails_its_rows_in_a_written_report(monkeypatch, capsys,
                                                                  tmp_path):
    argv = ["verify", "--suite", "all", "--n-range", "3..4", "--output"]
    assert cli.main(argv + [str(tmp_path / "pass.json")]) == 0
    real = coupling.CoupledBasis.lift_factors

    def off_sector(basis, logical):
        # The rows lift stacks of trials; the dense views (sector projector,
        # matrix units, clock and shift) and the pairing lift one matrix and
        # stay exact.
        factors = list(real(basis, logical))
        if np.ndim(logical) == 3:
            factors[0][0][..., 0, 0] += 1e-6
        return factors

    monkeypatch.setattr(coupling.CoupledBasis, "lift_factors", off_sector)
    capsys.readouterr()
    assert cli.main(argv + [str(tmp_path / "fail.json")]) == 1
    passing = json.loads((tmp_path / "pass.json").read_text())["checks"]
    failing = json.loads((tmp_path / "fail.json").read_text())["checks"]
    assert [r["id"] for r in failing] == [r["id"] for r in passing]
    failed = {r["id"]: r for r in failing if not r["passed"]}
    assert {"encoder:round-trip:n=3", "encoder:round-trip:n=4"} <= set(failed)
    assert {row_id.split(":")[1] for row_id in failed} <= {"round-trip", "entropy", "born"}
    assert "not supported on the logical sector" in failed["encoder:round-trip:n=3"]["description"]


def test_a_corrupted_closed_form_fails_each_row_that_reads_it(monkeypatch):
    ids = [r.id for r in suite_reference()]
    monkeypatch.setattr(reference, "W3", np.exp(2j * np.pi / 3) * 1.001)
    results = suite_reference()
    assert [r.id for r in results] == ids
    failed = {r.id for r in results if not r.passed}
    # W3 enters the n=3 matrix units (so the n=3 Paulis and trine built from
    # them) and the n=4 clock; the A/K/L and singlet forms do not use it.
    assert failed == {
        "reference:case:n3-q", "reference:case:n3-pauli", "reference:case:n3-trine",
        "reference:case:n4-hws", "reference:n3-q-vs-pipeline",
        "reference:n3-pauli-vs-pipeline", "reference:trine-decode",
        "reference:n4-hws-vs-pipeline", "reference:reduction",
    }
    for r in results:
        if r.id in failed:
            assert r.residual == float("inf")
            assert "transcription cross-check" in r.description


CLOSED_FORM_FACTORIES = ("n3_q_operators", "n3_sector_projector", "n3_pauli", "n3_trine",
                         "n4_akl", "n4_q_operators", "n4_hws", "n4_singlet_layer",
                         "n4_sector_projectors")


def test_reference_suite_builds_each_case_once(monkeypatch):
    # One call runs each closed-form factory exactly once, and builds each
    # single-site n = 3 Pauli once, however many cases rest on it; nothing
    # survives the call, so the next call builds them all again.
    calls = []
    for name in CLOSED_FORM_FACTORIES:
        real = getattr(reference, name)
        monkeypatch.setattr(reference, name, lambda *a, _real=real, _name=name, **parts:
                            calls.append(_name) or _real(*a, **parts))
    real_sigma = reference.sigma
    monkeypatch.setattr(reference, "sigma", lambda reg, site, axis:
                        calls.append(("sigma", site, axis)) or real_sigma(reg, site, axis))
    once = sorted(CLOSED_FORM_FACTORIES) + sorted(
        ("sigma", site, axis) for site in (1, 2, 3) for axis in "xyz")
    assert all(r.passed for r in suite_reference())
    assert sorted(calls, key=str) == sorted(once, key=str)
    calls.clear()
    assert all(r.passed for r in run_suite("all", n_values=(3, 4)))
    assert sorted(calls, key=str) == sorted(once, key=str)


def test_a_call_leaves_no_cyclic_garbage():
    # What a call builds is freed when it returns. A reference cycle, such as
    # a memo that refers to itself, would keep it until the garbage collector
    # runs, and the heap would grow with the calls a process makes.
    run_suite("all", n_values=(3,))
    gc.collect()
    gc.disable()
    try:
        run_suite("all", n_values=(3, 4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_suite_builds_the_n3_paulis_once(monkeypatch):
    # The hws suite's d = 2 Pauli check reads the reference suite's built case.
    calls, real = [], reference.n3_pauli

    def counting(**parts):
        calls.append("n3-pauli")
        return real(**parts)

    monkeypatch.setattr(reference, "n3_pauli", counting)
    assert all(r.passed for r in run_suite("all", n_values=(3, 4)))
    assert calls == ["n3-pauli"]
    calls.clear()
    alone = suite_hws(n_values=(3,))
    assert [r.id for r in alone] == ["hws:relations:d=2", "hws:d2-pauli-identification"]
    assert all(r.passed for r in alone) and calls == ["n3-pauli"]


def test_rotation_row_rejects_zero_trials():
    with pytest.raises(ValidationError, match="trials must be >= 1, got 0"):
        rotation_invariance_residual(build_coupled_basis(SpinRegister(3)), 0)


def test_rotation_row_draws_match_one_at_a_time_draws_in_chunks(monkeypatch):
    qs = build_coupled_basis(SpinRegister(4))
    whole = rotation_invariance_residual(qs, 5, seed=11)
    real, sizes = coupling.collective_product_apply, []

    def recording(reg, u, vecs):
        sizes.append(len(u))
        return real(reg, u, vecs)

    monkeypatch.setattr(coupling, "collective_product_apply", recording)
    monkeypatch.setattr(coupling, "CHUNK_BYTES", 2 * qs.isometry.nbytes)
    assert rotation_invariance_residual(qs, 5, seed=11) == whole
    assert sizes == [2, 2, 1]
    # The stacked draw is the stream of five single draws.
    rng = np.random.default_rng(np.random.SeedSequence(11))
    singles = np.array([haar_su2(rng) for _ in range(5)])
    rng = np.random.default_rng(np.random.SeedSequence(11))
    assert np.array_equal(haar_su2(rng, 5), singles)


def _old_random_density(rng, d):
    """random_density as it drew one state: two normal() calls."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _old_random_povm_elements(rng, d, elements):
    """random_povm's elements as it drew one POVM: one normal() call."""
    parts = rng.normal(size=(elements, 2, d, d))
    g = parts[:, 0] + 1j * parts[:, 1]
    draws = g @ g.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(draws.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    elems = inv_root @ draws @ inv_root
    return (elems + elems.conj().swapaxes(-1, -2)) / 2


def _old_haar_su2(rng):
    """haar_su2 as it drew one matrix: one standard_normal() call."""
    z = rng.standard_normal((2, 2, 2))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    d = np.diagonal(r)
    q = q * (d / np.abs(d))[None, :]
    return q / np.sqrt(np.linalg.det(q))


def _born_draws_trial_by_trial(qs, trials, seed):
    """born_rule_harness's draws as its per-trial loop made them."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):  # per trial: the state, then the POVM, then u
        rho = _old_random_density(rng, qs.d)
        draws.append((rho, _old_random_povm_elements(rng, qs.d, qs.d + 1),
                      _old_haar_su2(rng)))
    return tuple(np.array(column) for column in zip(*draws))


def _recorded(monkeypatch, module, names) -> dict:
    """Wrap each named function of module so that its results are kept, by name."""
    seen = {}
    for name in names:
        def keep(*args, _name=name, _real=getattr(module, name)):
            seen[_name] = _real(*args)
            return seen[_name]
        monkeypatch.setattr(module, name, keep)
    return seen


DRAW_NAMES = ("_random_density_of", "_random_povm_of", "_haar_su2_of")


@pytest.mark.parametrize("seed", (0, 1234, 2 ** 32 - 1))
@pytest.mark.parametrize("n", range(3, 7))
def test_stacked_draws_equal_the_per_trial_draws_bit_for_bit(monkeypatch, n, seed):
    qs, trials = build_coupled_basis(SpinRegister(n)), 7
    rho, elements, u = _born_draws_trial_by_trial(qs, trials, seed)
    plain = channel.born_rule_harness(qs, trials, seed)
    with monkeypatch.context() as patch:
        seen = _recorded(patch, channel, DRAW_NAMES)
        assert channel.born_rule_harness(qs, trials, seed) == plain
    for name, expected in zip(DRAW_NAMES, (rho, elements, u)):
        assert np.array_equal(seen[name], expected), name
    with monkeypatch.context() as patch:  # the harness fed the per-trial draws
        for name, expected in zip(DRAW_NAMES, (rho, elements, u)):
            patch.setattr(channel, name, lambda *_, _a=expected: _a)
        assert channel.born_rule_harness(qs, trials, seed) == plain

    rng = np.random.default_rng(seed)
    states = np.array([_old_random_density(rng, qs.d) for _ in range(trials)])
    assert np.array_equal(verify.encoded_random_states(qs, trials, seed)[0], states)
    seen = _recorded(monkeypatch, verify, ("haar_su2",))
    rotation_invariance_residual(qs, trials, seed)
    rng = np.random.default_rng(seed)
    assert np.array_equal(seen["haar_su2"],
                          np.array([_old_haar_su2(rng) for _ in range(trials)]))
