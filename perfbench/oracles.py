"""Correctness checks made apart from the program.

Every check here uses numpy alone and never calls into rffqudit: it either
recomputes a quantity from the benchmark's own inputs on d x d matrices, or
tests a property the construction must have (Haar statistics, projector
identities built from the benchmark's own Pauli matrices). The random inputs
the benchmark feeds the program are drawn here too, so the program receives
only generated inputs.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

# Tolerances fixed by the method, not by today's output: the encoding is
# exact up to double-precision round-off on 2**8-dimensional matrices.
STATE_TOL = 1e-10
BORN_TOL = 1e-10
TRIAL_TOL = 1e-9
PROJECTOR_TOL = 1e-9
ROTATION_TOL = 1e-10
BARE_SIGMAS = 5.0

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random SU(2) matrix from a normalized quaternion."""
    a, b, c, e = rng.normal(size=4)
    norm = sqrt(a * a + b * b + c * c + e * e)
    alpha = complex(a, b) / norm
    beta = complex(c, e) / norm
    return np.array([[alpha, -beta.conjugate()], [beta, alpha.conjugate()]])


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix, G G^dag / Tr, G complex Gaussian."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def random_povm(rng: np.random.Generator, d: int, outcomes: int) -> list:
    """Positive elements A_k whitened by (sum A_k)^(-1/2) so they sum to I."""
    draws = []
    for _ in range(outcomes):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        draws.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(draws))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    elements = [inv_root @ a @ inv_root for a in draws]
    return [(e + e.conj().T) / 2 for e in elements]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def channel_report_ok(report: dict, trials: int) -> bool:
    """One row per trial; encoded trials perfect; bare fidelity mean 1/2.

    For a pure logical qubit state and Haar-random u, the bare fidelity
    |<psi|u|psi>|^2 is uniform on [0, 1], so its mean over T trials has
    standard error (12 T)^(-1/2).
    """
    rows = report.get("per_trial")
    if not isinstance(rows, list) or len(rows) != trials:
        return False
    if [row.get("trial") for row in rows] != list(range(trials)):
        return False
    for row in rows:
        if abs(row["fidelity"] - 1.0) > TRIAL_TOL or abs(row["leakage"]) > TRIAL_TOL:
            return False
    bare_mean = sum(row["bare_fidelity"] for row in rows) / trials
    return abs(bare_mean - 0.5) <= BARE_SIGMAS / sqrt(12 * trials)


def decoded_state_ok(rho: np.ndarray, decoded: np.ndarray) -> bool:
    """The decoded logical state equals the state drawn."""
    return float(np.max(np.abs(np.asarray(decoded) - rho))) <= STATE_TOL


def born_ok(rho: np.ndarray, povm: list, probabilities: list) -> bool:
    """Encoded, rotated probabilities equal Tr(rho Pi_k) on d x d matrices."""
    if len(probabilities) != len(povm):
        return False
    for element, p in zip(povm, probabilities):
        logical = float(np.einsum("ij,ji->", rho, element).real)
        if abs(p - logical) > BORN_TOL:
            return False
    return True


def collective_rotation_ok(u: np.ndarray, big: np.ndarray, n: int) -> bool:
    """The collective rotation equals u (x) u (x) ... (x) u, n factors."""
    expected = np.eye(1, dtype=complex)
    for _ in range(n):
        expected = np.kron(expected, u)
    big = np.asarray(big)
    return (big.shape == expected.shape
            and float(np.max(np.abs(big - expected))) <= ROTATION_TOL)


def collective_j_squared(n: int) -> np.ndarray:
    """J^2 of n spin-1/2 constituents, J_a = sum_l sigma_a^(l) / 2."""
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for pauli in _PAULI:
        j_a = np.zeros_like(total)
        for site in range(n):
            op = np.eye(1, dtype=complex)
            for ell in range(n):
                op = np.kron(op, pauli if ell == site else np.eye(2))
            j_a += op / 2
        total += j_a @ j_a
    return total


def sector_projector_ok(p: np.ndarray, n: int) -> bool:
    """P projects onto d copies of spin j2 = n/2 - 1: J^2 P = j2(j2+1) P,

    P^2 = P and Tr P = d * (2 j2 + 1) = d^2."""
    d = n - 1
    j2 = n / 2 - 1
    p = np.asarray(p)
    if p.shape != (2 ** n, 2 ** n):
        return False
    eigen = float(np.max(np.abs(collective_j_squared(n) @ p - j2 * (j2 + 1) * p)))
    idempotent = float(np.max(np.abs(p @ p - p)))
    trace = abs(np.trace(p) - d * d)
    return max(eigen, idempotent, trace) <= PROJECTOR_TOL


def verify_report_ok(report: dict, n_values) -> bool:
    """Every check passed, and encoder and clock/shift checks cover each n."""
    checks = report.get("checks")
    if not checks or report.get("passed") is not True:
        return False
    if not all(check.get("passed") is True for check in checks):
        return False
    ids = [check["id"] for check in checks]
    for n in n_values:
        if not any(i.startswith("encoder:") and i.endswith(f":n={n}") for i in ids):
            return False
        if f"hws:relations:d={n - 1}" not in ids:
            return False
    return True
