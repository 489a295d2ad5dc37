"""Operator factories for registers of spin-1/2 constituents.

Basis convention, fixed package-wide: constituent 1 is the leftmost (most
significant) tensor factor; the single-constituent ket |0> is the m=+1/2
state and |1> is m=-1/2, so a product ket label like "0110" maps to the
basis index obtained by reading it as a binary number. The lowering operator
sends |0> to |1>.

Permutations act on constituents: the operator W of a permutation p maps a
product ket |s_1 s_2 ... s_n> to the ket whose slot p(l) carries s_l, which
gives W sigma^(l) W^dagger = sigma^(p(l)). swap and permutation_operator are
built from that one map on product-ket indices, permutation_indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _all_perms
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ContractViolationError
from .linalg import (
    as_matrices,
    as_matrix,
    dimension_ceiling,
    get_max_constituents,
    identity,
    kron,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|

_SINGLE = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "-": SIGMA_MINUS,
}


@dataclass(frozen=True)
class SpinRegister:
    """A register of n spin-1/2 constituents (Hilbert dimension 2**n)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ContractViolationError(f"register size must be >= 1, got {self.n}")
        if self.n > get_max_constituents():
            raise ContractViolationError(
                f"register size {self.n} exceeds the configured maximum "
                f"{get_max_constituents()} (dimension ceiling {dimension_ceiling()})"
            )

    @property
    def dim(self) -> int:
        return 2 ** self.n


def ket_index(label: str) -> int:
    """Basis index of a product ket label such as '0110'."""
    if set(label) - {"0", "1"}:
        raise ContractViolationError(f"invalid product ket label {label!r}")
    return int(label, 2)


def product_ket(label: str) -> np.ndarray:
    """Column vector for a product ket label, e.g. '01' -> (0,1,0,0)^T."""
    v = np.zeros(2 ** len(label), dtype=complex)
    v[ket_index(label)] = 1.0
    return v


def sigma(reg: SpinRegister, site: int, which: str) -> np.ndarray:
    """Single-constituent operator at the given site, identity elsewhere."""
    if which not in _SINGLE:
        raise ContractViolationError(
            f"unknown operator label {which!r}; expected one of x,y,z,-"
        )
    if not 1 <= site <= reg.n:
        raise ContractViolationError(f"site {site} out of range 1..{reg.n}")
    op = identity(1)
    for ell in range(1, reg.n + 1):
        op = kron(op, _SINGLE[which] if ell == site else identity(2))
    return op


class TotalJ(NamedTuple):
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    j_minus: np.ndarray
    j_squared: np.ndarray


def total_J(reg: SpinRegister) -> TotalJ:
    """Collective angular momentum J = sum_l sigma^(l) / 2 and friends."""
    jx = sum(sigma(reg, ell, "x") for ell in range(1, reg.n + 1)) / 2
    jy = sum(sigma(reg, ell, "y") for ell in range(1, reg.n + 1)) / 2
    jz = sum(sigma(reg, ell, "z") for ell in range(1, reg.n + 1)) / 2
    j_minus = jx - 1j * jy
    j_squared = jx @ jx + jy @ jy + jz @ jz
    return TotalJ(jx, jy, jz, j_minus, j_squared)


def collective_product_apply(reg: SpinRegister, u, vecs) -> np.ndarray:
    """kron_power(reg, u) @ vecs, contracting u with one tensor slot at a time.

    u is one 2x2 matrix, giving an array shaped like vecs, or a stack (T, 2, 2),
    giving (T, 2**n, cols) with one product per stacked u. Each leg is one
    stacked 2x2 product over all T, so a stack costs no Python loop per u.
    """
    stack = as_matrices(u)
    if stack.ndim > 3 or stack.shape[-2:] != (2, 2):
        raise ContractViolationError(f"expected a 2x2 matrix or a stack, got {stack.shape}")
    single, stack = stack.ndim == 2, stack.reshape(-1, 2, 2)
    vecs = np.asarray(vecs, dtype=complex)
    t = vecs.reshape((1,) + (2,) * reg.n + (-1,))
    cols = t.shape[-1]
    for axis in range(1, reg.n + 1):
        moved = np.moveaxis(t, axis, 1)
        out = stack @ moved.reshape(len(moved), 2, reg.dim // 2 * cols)
        t = np.moveaxis(out.reshape((len(stack),) + moved.shape[1:]), 1, axis)
    if single:
        return t.reshape(vecs.shape)
    return t.reshape(len(stack), reg.dim, cols)


def swap(reg: SpinRegister, j: int, k: int) -> np.ndarray:
    """Swap operator P_jk = (1 + sigma^(j) . sigma^(k)) / 2, the transposition (j k)."""
    if j == k:
        raise ContractViolationError("swap needs two distinct constituents")
    for site in (j, k):
        if not 1 <= site <= reg.n:
            raise ContractViolationError(f"site {site} out of range 1..{reg.n}")
    return permutation_operator(reg, transposition(reg.n, j, k))


def singlet_projector(reg: SpinRegister, j: int, k: int) -> np.ndarray:
    """Projector S_jk = (1 - P_jk)/2 onto the pair-(j,k) singlet."""
    return (identity(reg.dim) - swap(reg, j, k)) / 2


@dataclass(frozen=True)
class Permutation:
    """A permutation of constituents 1..n, stored as 1-based images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ContractViolationError(
                f"images {self.images} are not a bijection on 1..{n}"
            )

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, ell: int) -> int:
        return self.images[ell - 1]


def cyclic_permutation(n: int) -> Permutation:
    """The shift 1->2, 2->3, ..., n->1."""
    return Permutation(tuple(range(2, n + 1)) + (1,))


def transposition(n: int, j: int, k: int) -> Permutation:
    images = list(range(1, n + 1))
    images[j - 1], images[k - 1] = k, j
    return Permutation(tuple(images))


def all_permutations(n: int) -> Iterator[Permutation]:
    for images in _all_perms(range(1, n + 1)):
        yield Permutation(images)


def permutation_indices(reg: SpinRegister, p: Permutation) -> np.ndarray:
    """The product-ket index p sends each index to: bit l (constituent l,
    counted from the most significant bit) moves to slot p(l)."""
    if p.n != reg.n:
        raise ContractViolationError(
            f"permutation on {p.n} elements does not fit register of {reg.n}"
        )
    src = np.arange(reg.dim)
    dst = np.zeros_like(src)
    for ell in range(1, reg.n + 1):
        dst |= ((src >> (reg.n - ell)) & 1) << (reg.n - p(ell))
    return dst


def permutation_operator(reg: SpinRegister, p: Permutation) -> np.ndarray:
    """Unitary W relabeling constituents: slot p(l) receives the state of l."""
    dst = permutation_indices(reg, p)
    w = np.zeros((reg.dim, reg.dim), dtype=complex)
    w[dst, np.arange(reg.dim)] = 1.0
    return w


def kron_power(reg: SpinRegister, u) -> np.ndarray:
    """The collective operator u tensored once per constituent."""
    u = as_matrix(u)
    if u.shape != (2, 2):
        raise ContractViolationError(f"expected a 2x2 matrix, got {u.shape}")
    op = identity(1)
    for _ in range(reg.n):
        op = kron(op, u)
    return op


def haar_su2(rng) -> np.ndarray:
    """A Haar-distributed 2x2 special-unitary matrix, drawn from rng.

    Samples a 2x2 standard complex Gaussian matrix, orthonormalizes by QR,
    fixes the R-diagonal phases (making the draw Haar on U(2)), then removes
    the determinant phase to land in SU(2). Given an iterable of generators
    instead, returns the stack (T, 2, 2) of one draw from each, bit-identical
    to drawing them one at a time. Each draw takes the real parts, then the
    imaginary parts, of the Gaussian from one standard_normal call.
    """
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal((2, 2, 2))
    else:
        z = np.array([gen.standard_normal((2, 2, 2)) for gen in rng])
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.asarray(np.linalg.det(q))
    return q / np.sqrt(det)[..., None, None]
