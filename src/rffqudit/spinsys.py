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
from fractions import Fraction
from itertools import permutations as _all_perms
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ContractViolationError, SizeLimitError, require_integer
from .linalg import as_matrices, as_matrix, identity, mat_exp_hermitian_generator, stack_at_shared

# The largest register the package builds: its 2**n x 2**n operators are 4 GiB.
MAX_CONSTITUENTS = 14

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
        object.__setattr__(self, "n", require_integer(self.n, "n", 1))
        if self.n > MAX_CONSTITUENTS:
            raise SizeLimitError(
                f"register size {self.n} exceeds the maximum {MAX_CONSTITUENTS}"
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
    site = require_integer(site, "site", 1)
    if site > reg.n:
        raise ContractViolationError(f"site {site} out of range 1..{reg.n}")
    op = identity(1)
    for ell in range(1, reg.n + 1):
        op = np.kron(op, _SINGLE[which] if ell == site else identity(2))
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


def wigner_d(j, u) -> np.ndarray:
    """D^j(u) = exp(-i theta n.J^(j)) for u = cos(theta/2) I - i sin(theta/2) n.sigma in SU(2).

    The spin-j image of u, in the basis of spin_matrices(j): u^(x n) acts on
    a spin-j multiplet as D^j(u). theta is taken in [0, 2 pi] and n from u's
    Pauli components (n = z when they vanish, where u = -I needs theta = 2 pi).
    A stack u (T, 2, 2) gives the stack (T, 2j+1, 2j+1), from one stacked eigh.
    """
    u = as_matrices(u)
    # u = a I - i b.sigma with a = Tr(u)/2 and b_k = i Tr(u sigma_k)/2
    a = np.trace(u, axis1=-2, axis2=-1).real / 2
    b = np.stack([(1j * np.einsum("...ij,ji->...", u, pauli) / 2).real
                  for pauli in (SIGMA_X, SIGMA_Y, SIGMA_Z)], axis=-1)
    norm = np.linalg.norm(b, axis=-1)
    axis = np.where(norm[..., None] > 0, b / np.where(norm > 0, norm, 1.0)[..., None],
                    [0.0, 0.0, 1.0])
    generator = np.einsum("...k,kij->...ij", axis, np.array(spin_matrices(j)))
    return mat_exp_hermitian_generator(generator, 2 * np.arctan2(norm, a))


def collective_product_apply(reg: SpinRegister, u, vecs) -> np.ndarray:
    """kron_power(reg, u) @ vecs, contracting u^(x g) with up to four tensor slots at a time.

    u is one 2x2 matrix, giving an array shaped like vecs, or a stack (T, 2, 2),
    giving (T, 2**n, cols) with one product per stacked u; one u is a stack of
    one. The first pass, on the n mod 4 odd slots (else on four), reads the
    same vecs for every u, so it is one product of the stacked rows of
    u^(x g), (T 2**g, 2**g), with vecs viewed as (2**g, rest)
    (linalg.stack_at_shared). Each later pass views the data as
    (T, 2**a, 2**g, rest), a the slots done, and multiplies it by the stacked
    u^(x g) (T, 2**g, 2**g) in place of the g slots, so no axis is moved and
    each pass forms one array the size of the result.
    """
    stack = as_matrices(u)
    if stack.ndim > 3 or stack.shape[-2:] != (2, 2):
        raise ContractViolationError(f"expected a 2x2 matrix or a stack, got {stack.shape}")
    single, stack = stack.ndim == 2, stack.reshape(-1, 2, 2)
    vecs = np.asarray(vecs, dtype=complex)
    cols = vecs.size // reg.dim
    legs = [reg.n % 4] * (reg.n % 4 > 0) + [4] * (reg.n // 4)
    powers, power = {1: stack}, stack  # u^(x g) of each stacked u, by g
    for g in range(2, max(legs) + 1):
        power = (power[:, :, None, :, None] * stack[:, None, :, None, :]).reshape(
            len(stack), 2 ** g, 2 ** g)
        powers[g] = power
    done, *others = legs
    t = stack_at_shared(powers[done], vecs.reshape(2 ** done, -1))  # every u reads vecs
    for g in others:
        rest = 2 ** (reg.n - done - g) * cols
        t = powers[g][:, None] @ t.reshape(len(t), 2 ** done, 2 ** g, rest)
        done += g
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
    bits = (np.arange(reg.dim)[:, None] >> (reg.n - np.arange(1, reg.n + 1))) & 1
    return bits @ (1 << (reg.n - np.array(p.images)))  # bit l moved to 2**(n - p(l))


def _permutation_conjugates(reg: SpinRegister, perms, a) -> np.ndarray:
    """W a W^dag for each permutation of perms, W = permutation_operator(reg, p).

    a is a 2**n x 2**n matrix or a stack (..., 2**n, 2**n); the result is
    shaped (..., len(perms), 2**n, 2**n). W a W^dag is a[src][:, src], src
    the inverse of permutation_indices, so it is one gather: it moves entries
    and does no arithmetic.
    """
    src = np.empty((len(perms), reg.dim), dtype=np.intp)
    for row, p in zip(src, perms):
        row[permutation_indices(reg, p)] = np.arange(reg.dim)
    return np.asarray(a)[..., src[:, :, None], src[:, None, :]]


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
        op = np.kron(op, u)
    return op


def haar_su2(rng: np.random.Generator, trials: int | None = None) -> np.ndarray:
    """A Haar-distributed 2x2 special-unitary matrix, drawn from rng.

    Samples a 2x2 standard complex Gaussian matrix, orthonormalizes by QR,
    fixes the R-diagonal phases (making the draw Haar on U(2)), then removes
    the determinant phase to land in SU(2). Given a trial count, returns the
    stack (trials, 2, 2) from one standard_normal((trials, 2, 2, 2)) call,
    bit-identical to drawing the matrices one at a time. Each draw takes the
    real parts, then the imaginary parts, of its Gaussian.
    """
    shape = (2, 2, 2) if trials is None else (trials, 2, 2, 2)
    return _haar_su2_of(rng.standard_normal(shape))


def _haar_su2_of(z: np.ndarray) -> np.ndarray:
    """haar_su2's draw from standard normals z (..., 2, 2, 2): the real parts
    z[..., 0, :, :], then the imaginary parts, of each Gaussian."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.asarray(np.linalg.det(q))
    return q / np.sqrt(det)[..., None, None]


def seeded_generator(seed) -> np.random.Generator:
    """The one stream of a seed: default_rng(seed), the stream of SeedSequence(seed)."""
    return np.random.default_rng(require_integer(seed, "seed", 0))
