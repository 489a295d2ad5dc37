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
    spin_matrices,
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


def dense_class_frames(block, x, y) -> tuple[np.ndarray, np.ndarray]:
    """The dense class walk that coupling.factor_frames replaces: (C, residual)
    of one weight class with block B for its payload block P = X Y^dag formed
    whole, C_k x C_k per trial, with C = B^dag P B and residual
    max |P - B C B^dag| per trial."""
    lifted = x @ y.conj().T
    frame = block.conj().T @ lifted @ block
    back = block @ frame @ block.conj().T
    return frame, np.abs(back - lifted).max(axis=(-2, -1))


def dense_compress_lifted(basis, logical) -> tuple[np.ndarray, np.ndarray]:
    """(frames, residual) of the dense class walk over every class of a stack
    (T, d, d): the frames (T, 2 j2 + 1, d, d) and each trial's worst class
    residual, from the factors of basis.lift_factors."""
    walked = [dense_class_frames(block, x, y)
              for block, (x, y) in zip(basis.blocks, basis.lift_factors(logical))]
    return np.stack([f for f, _ in walked], axis=1), np.max([r for _, r in walked], axis=0)


def dense_hermitian_pairing(basis, h) -> float:
    """max_k |P_k - P_k^dag| over the class blocks of lift(H), each formed whole."""
    return max(max_abs_diff(p, dagger(p)) for p in basis.lift_blocks(h))


def symmetric_stray(block, delta: float) -> np.ndarray:
    """A C_k x d addition to a class factor X that moves P = X B^dag off the
    sector while the factor gate reads delta: the class's all-ones column
    (its symmetric ket, in the largest-j sector and so orthogonal to the
    span of B) times delta / max_j |B_j|, in column 0. The frames
    (B^dag X)(B^dag B)^dag do not move beyond rounding."""
    stray = np.zeros(block.shape, dtype=complex)
    stray[:, 0] = delta / np.linalg.norm(block, axis=-1).max()
    return stray


def dense_logical_image(r, a) -> np.ndarray:
    """The frame form that coupling.logical_image replaces: Tr_m2(R F R^dag) with
    F = A (x) I_d formed whole, for a stack R (T, d**2, d**2) and one d x d A or
    a stack (T, d, d)."""
    d = a.shape[-1]
    frames = np.array([np.kron(m, identity(d)) for m in a.reshape(-1, d, d)])
    return partial_trace_m2(d, r @ frames.reshape(a.shape[:-2] + (d * d, d * d)) @ dagger(r))
