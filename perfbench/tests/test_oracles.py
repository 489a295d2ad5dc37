"""Each oracle accepts a true output and rejects a perturbed one."""

import numpy as np

from perfbench import oracles
from rffqudit import SpinRegister, build_coupled_basis, build_q_set, spinsys


def _channel_report(bare_values, trials):
    return {"per_trial": [
        {"trial": t, "fidelity": 1.0, "leakage": 0.0, "bare_fidelity": b}
        for t, b in zip(range(trials), bare_values)
    ]}


def test_random_inputs_are_valid():
    rng = np.random.default_rng(7)
    rho = oracles.random_density(rng, 5)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0
    povm = oracles.random_povm(rng, 5, 6)
    assert np.max(np.abs(sum(povm) - np.eye(5))) < 1e-12
    u = oracles.haar_su2(rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(u) - 1) < 1e-12


def test_decoded_state_oracle_rejects_1e8_offset():
    rho = oracles.random_density(np.random.default_rng(1), 7)
    assert oracles.decoded_state_ok(rho, rho.copy())
    off = rho.copy()
    off[2, 3] += 1e-8
    assert not oracles.decoded_state_ok(rho, off)


def test_born_oracle_rejects_shifted_probability():
    rng = np.random.default_rng(2)
    rho = oracles.random_density(rng, 4)
    povm = oracles.random_povm(rng, 4, 5)
    probabilities = [float(np.trace(rho @ e).real) for e in povm]
    assert oracles.born_ok(rho, povm, probabilities)
    probabilities[1] += 1e-8
    assert not oracles.born_ok(rho, povm, probabilities)
    assert not oracles.born_ok(rho, povm, probabilities[:-1])


def test_rotation_oracle_rejects_the_identity():
    n = 8
    u = oracles.haar_su2(np.random.default_rng(4))
    big = spinsys.kron_power(SpinRegister(n), u)
    assert oracles.collective_rotation_ok(u, big, n)
    assert not oracles.collective_rotation_ok(u, np.eye(2 ** n), n)
    assert not oracles.collective_rotation_ok(u, big.conj(), n)


def test_channel_oracle_rejects_bare_mean_0_6():
    trials = 300
    uniform = [(t + 0.5) / trials for t in range(trials)]  # mean 1/2
    assert oracles.channel_report_ok(_channel_report(uniform, trials), trials)
    shifted = [b + 0.1 for b in uniform]  # mean 0.6
    assert not oracles.channel_report_ok(_channel_report(shifted, trials), trials)


def test_channel_oracle_rejects_bad_rows():
    trials = 10
    uniform = [(t + 0.5) / trials for t in range(trials)]
    report = _channel_report(uniform, trials)
    assert not oracles.channel_report_ok(report, trials + 1)
    report["per_trial"][4]["fidelity"] = 1 - 1e-8
    assert not oracles.channel_report_ok(report, trials)
    report = _channel_report(uniform, trials)
    report["per_trial"][4]["leakage"] = 1e-8
    assert not oracles.channel_report_ok(report, trials)


def _verify_report(n_values):
    checks = []
    for n in n_values:
        checks.append({"id": f"encoder:q-closure:n={n}", "passed": True})
        checks.append({"id": f"hws:relations:d={n - 1}", "passed": True})
    return {"checks": checks, "passed": True}


def test_verify_oracle_rejects_one_failed_check():
    n_values = range(3, 8)
    report = _verify_report(n_values)
    assert oracles.verify_report_ok(report, n_values)
    report["checks"][5]["passed"] = False
    assert not oracles.verify_report_ok(report, n_values)


def test_verify_oracle_requires_every_n():
    report = _verify_report(range(3, 7))
    assert not oracles.verify_report_ok(report, range(3, 8))


def test_sector_projector_oracle():
    n = 4
    qs = build_q_set(build_coupled_basis(SpinRegister(n)))
    p = qs.sector_projector
    assert oracles.sector_projector_ok(p, n)
    off = p.copy()
    off[0, 0] += 1e-8
    assert not oracles.sector_projector_ok(off, n)
    # One ket fewer: still a J^2 eigenprojector, but the trace is wrong.
    ket = qs(1, 1)[:, np.argmax(np.abs(qs(1, 1)).sum(axis=0))]
    ket = ket / np.linalg.norm(ket)
    assert not oracles.sector_projector_ok(p - np.outer(ket, ket.conj()), n)
