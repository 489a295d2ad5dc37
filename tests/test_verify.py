"""The verification suites: green on the real code, loud on corrupted code."""

import numpy as np
import pytest

import rffqudit.reference as reference
import rffqudit.verify as verify
from rffqudit.coupling import build_coupled_basis
from rffqudit.encoder import build_q_set
from rffqudit.errors import ValidationError
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
    suite_reference,
)
from rffqudit.spinsys import SpinRegister


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
    from rffqudit import cli

    monkeypatch.setattr(reference, "W3", np.exp(2j * np.pi / 3) * 0.999)
    code = cli.main(["verify", "--suite", "reference"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err
    assert "n3" in captured.err
