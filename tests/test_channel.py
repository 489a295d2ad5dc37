"""Collective-noise channel runs: protection, statistics, reports."""

import json

import numpy as np
import pytest

from rffqudit import cli
from rffqudit.channel import (
    BornReport,
    ChannelConfig,
    born_rule_harness,
    random_density,
    random_povm,
    random_pure_density,
    run_channel,
)
from rffqudit.coupling import build_coupled_basis
from rffqudit.encoder import QuditState, build_q_set
from rffqudit.errors import ConsistencyError, ValidationError
from rffqudit.linalg import identity
from rffqudit.spinsys import SpinRegister

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)


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


def test_run_channel_rejects_mismatched_state():
    cfg = ChannelConfig(n=4, trials=1, seed=1)
    with pytest.raises(ValidationError, match="dimension"):
        run_channel(cfg, QuditState(2, ZERO))


def test_a_rotation_that_leaves_the_sector_fails_the_trial(monkeypatch, capsys):
    # u on the first constituent alone is no collective rotation: U K != K R.
    def first_leg_only(reg, u, vecs):
        return np.kron(u, identity(2 ** (reg.n - 1))) @ vecs

    monkeypatch.setattr("rffqudit.channel.collective_product_apply", first_leg_only)
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


@pytest.mark.parametrize("n", (3, 4))
def test_born_rule_harness_deviations_are_tiny(n):
    qs = build_q_set(build_coupled_basis(SpinRegister(n)))
    report = born_rule_harness(qs, trials=10, seed=17)
    assert isinstance(report, BornReport)
    assert report.d == n - 1
    assert report.trials == 10
    assert report.max_encoded_deviation < 1e-11
    assert report.max_rotated_deviation < 1e-11


def test_born_rule_harness_is_deterministic():
    qs = build_q_set(build_coupled_basis(SpinRegister(3)))
    a = born_rule_harness(qs, trials=5, seed=4)
    b = born_rule_harness(qs, trials=5, seed=4)
    assert a == b
