"""Dense oracles for the sector: the one-constituent ladder build of K and the
checks on the whole 2**n x d**2 matrix that the per-class gate replaces.

The library stores K as its weight blocks, built from their closed form and
checked one weight class at a time. The forms here act on every column of K
with collective operators applied one constituent at a time, so they cost
O(n 2**n d**2); the tests compare the two at small n.
"""

from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from rffqudit.coupling import partial_trace_m2
from rffqudit.linalg import as_matrix, dagger, identity, max_abs_diff
from rffqudit.spinsys import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinRegister,
    product_ket,
)


def spin_matrices(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) of a spin j in the basis m = j, j-1, ..., -j.

    J+ carries the ladder elements sqrt(j(j+1) - m(m+1)) with no phases, the
    convention the coupled kets are built in.
    """
    j = Fraction(j)
    m = np.array([float(j - k) for k in range(int(2 * j) + 1)])
    j_plus = np.diag(np.sqrt(float(j * (j + 1)) - m[1:] * (m[1:] + 1)), k=1)
    return (
        (j_plus + j_plus.T).astype(complex) / 2,
        (j_plus - j_plus.T).astype(complex) / 2j,
        np.diag(m).astype(complex),
    )


def collective_apply(reg: SpinRegister, single, vecs, weights=None) -> np.ndarray:
    """sum_l w_l single^(l) applied to the columns of vecs (w_l = 1 by default).

    Each term contracts the 2x2 operator with one tensor slot of the columns
    reshaped to (2,)*n, so no 2**n x 2**n matrix is formed and the cost is
    O(n * 2**n * columns).
    """
    single = as_matrix(single)
    vecs = np.asarray(vecs, dtype=complex)
    t = vecs.reshape((2,) * reg.n + (-1,))
    out = np.zeros_like(t)
    for axis in range(reg.n):
        term = np.moveaxis(np.tensordot(single, t, axes=(1, axis)), 0, axis)
        out += term if weights is None else weights[axis] * term
    return out.reshape(vecs.shape)


def collective_j_squared(reg: SpinRegister, vecs) -> np.ndarray:
    """J^2 applied to the columns of vecs: sum_a J_a J_a, one constituent at a time."""
    out = np.zeros(np.shape(vecs), dtype=complex)
    for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        out += collective_apply(reg, pauli / 2, collective_apply(reg, pauli / 2, vecs))
    return out


def ladder_isometry(n: int, u) -> np.ndarray:
    """K built by the ladder: c_k Omega_minus(lambda) J_minus**k |0...0> in column
    (lambda-1)(n-1) + k, J_minus and Omega_minus applied one constituent at a time."""
    reg = SpinRegister(n)
    two_j2 = n - 2
    lowered = [product_ket("0" * n)]  # lowered[k] = J_minus**k |0...0>
    for _ in range(two_j2):
        lowered.append(collective_apply(reg, SIGMA_MINUS, lowered[-1]))
    ladder = np.column_stack(lowered)
    prefactors = np.array([
        sqrt(Fraction(factorial(two_j2 - k), factorial(two_j2) * factorial(k)))
        for k in range(two_j2 + 1)
    ])
    return np.concatenate([collective_apply(reg, SIGMA_MINUS, ladder, u[lam]) * prefactors
                           for lam in range(n - 1)], axis=1)


def isometry_residuals(n: int, k: np.ndarray) -> dict:
    """The gate's residuals on a dense K (columns ordered (lambda, m2)).

    gram:       max |K^dag K - I|
    trace:      max |Tr Q_{lambda lambda'} - d delta|, from the Gram blocks
    covariance: max over a = x, y, z of |J_a K - K (I_d (x) J_a^(j2))|
    """
    d = n - 1
    reg = SpinRegister(n)
    gram = dagger(k) @ k
    spins = spin_matrices(Fraction(n, 2) - 1)
    covariance = max(
        max_abs_diff(collective_apply(reg, pauli / 2, k), k @ np.kron(identity(d), j_a))
        for pauli, j_a in zip((SIGMA_X, SIGMA_Y, SIGMA_Z), spins)
    )
    return {
        "gram": max_abs_diff(gram, identity(d * d)),
        "trace": max_abs_diff(partial_trace_m2(d, gram), d * identity(d)),
        "covariance": covariance,
    }


def membership_residual(n: int, k: np.ndarray) -> float:
    """Max residual of the J^2 and Jz eigenvalue equations over the columns of K."""
    reg = SpinRegister(n)
    j2 = Fraction(n, 2) - 1
    column_m2 = np.tile([float(j2 - m) for m in range(n - 1)], n - 1)
    return max(
        max_abs_diff(collective_j_squared(reg, k), float(j2 * (j2 + 1)) * k),
        max_abs_diff(collective_apply(reg, SIGMA_Z / 2, k), k * column_m2),
    )
