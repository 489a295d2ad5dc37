"""The symmetric coupling scheme.

A register of n spin-1/2 constituents decomposes into total-angular-momentum
sectors j = n/2, n/2-1, ... with multiplicities

    c_j = n! (2j+1) / ((n/2+j+1)! (n/2-j)!),

so the second-largest sector j2 = n/2 - 1 is (n-1)-fold degenerate: it hosts
a logical qudit of dimension d = n - 1. The degeneracy label lambda is carved
out by the lowering operators

    Omega_minus(lambda) = sum_l U_{lambda,l} sigma_minus^(l),

where U is any n-by-n unitary whose last row is identically n**-1/2 (the
default is the discrete Fourier matrix U_{lambda,l} = omega_n**(lambda*l) /
sqrt(n) with omega_n = exp(2*pi*i/n)). The orthonormal sector basis is

    |j2, m2; lambda> = sqrt((j2+m2)! / ((2 j2)! (j2-m2)!))
                       * Omega_minus(lambda) J_minus**(j2-m2) |0...0>,

built exactly in this phase convention (no re-phasing), with lambda = 1..n-1
and m2 = j2, j2-1, ..., -j2, and stored as the columns of one 2**n x d**2
isometry K. Its column blocks K_lambda give the d**2 operators
Q_{lambda lambda'} = K_lambda K_lambda'^dag, a matrix-unit algebra commuting
with the total angular momentum; both facts are checked on K alone when it
is built: K^dag K = I, and J_a K = K (I_d (x) J_a^(j2)). The lowering
operators, these J_a, and the J^2 and Jz of the membership check act one
constituent at a time (spinsys.collective_apply), never as 2**n x 2**n
matrices. The census checks the c_j against the spectrum of
J^2 = n(4-n)/4 + sum_{l<k} P_lk on each magnetisation block, built from the
transposition index maps of spinsys.permutation_indices. For n = 4 the
module also provides the two explicit j=0 bases: the symmetric-coupling
singlets (Fourier phases omega_3) and the successively-coupled (pairwise)
singlets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import factorial, sqrt
from typing import Iterator

import numpy as np

from .errors import ConsistencyError, ContractViolationError, ValidationError
from .linalg import dagger, identity, max_abs_diff
from .spinsys import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinRegister,
    collective_apply,
    collective_j_squared,
    collective_product_apply,
    permutation_indices,
    product_ket,
    spin_matrices,
    transposition,
)

ISOMETRY_TOL = 1e-10
COUPLING_TOL = 1e-12
# Bytes of payload rows that CoupledBasis.compress holds at a time: one strip
# read from the payload and one formed beside it, half each; lift forms its
# rows in strips of the same half. Neither holds a second 2**n x 2**n matrix
# beside the payload.
ROW_BLOCK_BYTES = 4 * 2 ** 20
# Bytes of U K (one K per trial) that one chunk of trials may hold; a chunk
# holds at least one trial, and three or four arrays of its size are live
# while it is rotated and gated. From n = 7 on, K alone exceeds it. Larger
# chunks ran no faster at n = 3 and raised the process's peak RSS.
CHUNK_BYTES = 64 * 2 ** 10


@dataclass(frozen=True)
class SectorSpec:
    """One total-angular-momentum sector of an n-constituent register."""

    n: int
    j: Fraction
    multiplicity: int
    dimension: int  # 2j + 1


def sector_index_set(n: int) -> list[Fraction]:
    """All j values for n constituents: n/2, n/2-1, ..., down to 0 or 1/2."""
    j = Fraction(n, 2)
    out = []
    while j >= 0:
        out.append(j)
        j -= 1
    return out


def multiplicity(n: int, j) -> int:
    """Exact sector multiplicity c_j = n!(2j+1)/((n/2+j+1)!(n/2-j)!)."""
    j = Fraction(j)
    if j not in sector_index_set(n):
        raise ContractViolationError(
            f"j={j} is not in the sector index set for n={n}"
        )
    upper = Fraction(n, 2) + j + 1
    lower = Fraction(n, 2) - j
    assert upper.denominator == 1 and lower.denominator == 1
    num = factorial(n) * int(2 * j + 1)
    den = factorial(int(upper)) * factorial(int(lower))
    if num % den:
        raise ConsistencyError(f"multiplicity for n={n}, j={j} is not an integer")
    return num // den


def fourier_coupling(n: int) -> np.ndarray:
    """The default coupling: U_{lambda,l} = omega_n**(lambda*l)/sqrt(n)."""
    omega = np.exp(2j * np.pi / n)
    lam = np.arange(1, n + 1).reshape(-1, 1)
    ell = np.arange(1, n + 1).reshape(1, -1)
    return omega ** (lam * ell) / sqrt(n)


def validate_coupling(u, n: int) -> np.ndarray:
    """Check an n-by-n coupling matrix: unitary, symmetric last row (within COUPLING_TOL)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (n, n):
        raise ValidationError(
            f"coupling matrix must be {n}x{n}, got {u.shape}"
        )
    unitarity = max_abs_diff(u @ u.conj().T, identity(n))
    if unitarity > COUPLING_TOL:
        raise ValidationError(
            f"coupling matrix is not unitary within {COUPLING_TOL:g} "
            f"(deviation {unitarity:.3e})"
        )
    symmetric_row = np.full(n, 1 / sqrt(n), dtype=complex)
    row_dev = max_abs_diff(u[n - 1], symmetric_row)
    if row_dev > COUPLING_TOL:
        raise ValidationError(
            f"coupling matrix row {n} must be identically {n}**-1/2 "
            f"(deviation {row_dev:.3e})"
        )
    return u


def coupling_fingerprint(u) -> str:
    """Stable short hash of a coupling matrix (rounded to 12 decimals)."""
    u = np.asarray(u, dtype=complex)
    rounded = np.round(u, 12) + 0.0  # normalize -0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class CoupledBasis:
    """The verified j2 = n/2 - 1 sector, as one isometry.

    isometry is the 2**n x d**2 matrix K whose columns are the kets
    |j2, m2; lambda>, ordered (lambda, m2): column (lambda-1)(2 j2+1) + (j2-m2).
    It is read-only, so encoded operators share it. Column (lambda, m2) is
    nonzero only on the product kets of Hamming weight n/2 - m2, so K is d
    blocks B_m2 (weight_classes), and every operator K (A (x) I_d) K^dag is
    block-diagonal in the weight. lift builds such operators and compress
    takes K^dag P K of any P, both one weight class at a time; the dense
    projector K K^dag and each Q_{lambda lambda'} = basis(lambda, lambda') are
    lifts built on every access. The weight classes and the gate's residuals
    are computed once per object; a dataclasses.replace'd copy computes its own.
    """

    n: int
    j2: Fraction
    d: int
    coupling: np.ndarray = field(repr=False)
    fingerprint: str
    isometry: np.ndarray = field(repr=False)

    def m2_values(self) -> list[Fraction]:
        return [self.j2 - k for k in range(int(2 * self.j2) + 1)]

    def ket(self, m2, lam: int) -> np.ndarray:
        k = self.j2 - Fraction(m2)
        if not (1 <= lam <= self.d and 0 <= k <= 2 * self.j2 and k.denominator == 1):
            raise ContractViolationError(f"no sector ket (m2={m2}, lambda={lam})")
        return self.isometry[:, (lam - 1) * int(2 * self.j2 + 1) + int(k)]

    @cached_property
    def gate_residuals(self) -> dict:
        """isometry_residuals of K: the Gram, trace and covariance residuals."""
        return isometry_residuals(self.n, self.isometry)

    @cached_property
    def weight_classes(self) -> tuple:
        """(rows, B) for each m2 = j2, j2-1, ..., -j2: the product-ket indices of
        Hamming weight n/2 - m2, and the C(n, w) x d block of K on them and on
        the columns (lambda, m2).

        K is zero elsewhere: the ladder build leaves exact zeros, and the
        covariance gate bounds any entry there by ISOMETRY_TOL, as
        |n/2 - w - m2| >= 1. No row of weight 0 or n is in a class.
        """
        weight = hamming_weights(self.n)
        size = int(2 * self.j2) + 1
        classes = []
        for k in range(size):
            rows = np.flatnonzero(weight == k + 1)
            block = np.ascontiguousarray(self.isometry[rows, k::size])
            block.setflags(write=False)
            classes.append((rows, block))
        return tuple(classes)

    def lift(self, logical) -> np.ndarray:
        """The 2**n x 2**n operator K (A (x) I_d) K^dag of a d x d A: B A B^dag on
        each weight class's rows and columns, exact zeros elsewhere. Its rows
        are formed in strips of at most ROW_BLOCK_BYTES / 2."""
        out = np.zeros((2 ** self.n,) * 2, dtype=complex)
        for rows, block in self.weight_classes:
            left, right = block @ logical, block.conj().T
            step = max(1, ROW_BLOCK_BYTES // (2 * out.itemsize * len(rows)))
            for first in range(0, len(rows), step):
                out[rows[first:first + step, None], rows] = left[first:first + step] @ right
        return out

    def _walk(self, payload, residual: bool) -> tuple[np.ndarray, float | None]:
        """C = K^dag P K, and max |P - K C K^dag| if residual, one weight class
        at a time.

        The rows of C in class m2 are (B^dag P[rows]) K, and the rows of
        K C K^dag there are B (C[m2 rows] K^dag); those of weight 0 and n are
        zero, so there the residual is |P| itself. P is read in strips of rows
        of at most ROW_BLOCK_BYTES / 2, once for C and once more for the
        residual; beside P the walk holds one strip, the strip formed beside
        it, and one d**2 x 2**n array.
        """
        payload = np.asarray(payload, dtype=complex)
        k_all, size = self.isometry, len(self.weight_classes)
        step = max(1, ROW_BLOCK_BYTES // (2 * payload.itemsize * payload.shape[1]))
        top = np.zeros((k_all.shape[1], payload.shape[1]), dtype=complex)  # K^dag P
        for k, (rows, block) in enumerate(self.weight_classes):
            for first in range(0, len(rows), step):
                top[k::size] += (block[first:first + step].conj().T
                                 @ payload.take(rows[first:first + step], axis=0))
        inner = top @ k_all
        if not residual:
            return inner, None
        back = np.matmul(inner.conj(), k_all.T, out=top)  # C K^dag, conjugated in place
        np.conjugate(back, out=back)
        worst = max(np.abs(payload[0]).max(), np.abs(payload[-1]).max())
        for k, (rows, block) in enumerate(self.weight_classes):
            for first in range(0, len(rows), step):
                strip = payload.take(rows[first:first + step], axis=0)
                strip -= block[first:first + step] @ back[k::size]
                worst = max(worst, np.abs(strip).max())
        return inner, float(worst)

    def sector_frame(self, payload) -> np.ndarray:
        """C = K^dag P K of a 2**n x 2**n P, one weight class at a time."""
        return self._walk(payload, residual=False)[0]

    def compress(self, payload) -> tuple[np.ndarray, float]:
        """(C, max |P - K C K^dag|) for C = K^dag P K, one weight class at a time."""
        return self._walk(payload, residual=True)

    def rotations(self, u) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(R, escape) of each U = u^(x n) of a stack u (T, 2, 2): R = K^dag U K and
        escape = max |U K - K R|, the verdict on it left to the caller. u acts on K
        one constituent at a time, in chunks of at most CHUNK_BYTES of U K (at
        least one trial each)."""
        k = self.isometry
        reg = SpinRegister(self.n)
        step = max(1, CHUNK_BYTES // k.nbytes)
        for first in range(0, len(u), step):
            uk = collective_product_apply(reg, u[first:first + step], k)
            r = dagger(k) @ uk
            uk -= k @ r
            escape = np.abs(uk).max(axis=(1, 2))
            del uk  # not held while the caller works on r
            yield r, escape

    @property
    def q(self) -> dict:
        """The arrays the basis holds, by name."""
        return {"isometry": self.isometry}

    @property
    def sector_projector(self) -> np.ndarray:
        return self.lift(identity(self.d))

    def __call__(self, lam: int, lamp: int) -> np.ndarray:
        unit = np.zeros((self.d, self.d))
        unit[lam - 1, lamp - 1] = 1.0
        return self.lift(unit)


def hamming_weights(n: int) -> np.ndarray:
    """The number of 1 bits (spins down) of each product-ket index 0 .. 2**n - 1."""
    return sum((np.arange(2 ** n) >> bit) & 1 for bit in range(n))


def build_coupled_basis(reg: SpinRegister, coupling=None) -> CoupledBasis:
    """Construct and verify K: the kets |j2, m2; lambda>, all m2, lambda = 1..n-1."""
    n = reg.n
    if n < 3:
        raise ContractViolationError(
            f"the coupled basis needs n >= 3 (so d >= 2), got n={n}"
        )
    u = fourier_coupling(n) if coupling is None else validate_coupling(coupling, n)
    j2 = Fraction(n, 2) - 1
    d = n - 1
    two_j2 = int(2 * j2)

    lowered = [product_ket("0" * n)]  # lowered[k] = J_minus**k |0...0>
    for _ in range(two_j2):
        lowered.append(collective_apply(reg, SIGMA_MINUS, lowered[-1]))
    ladder = np.column_stack(lowered)
    prefactors = np.array([
        sqrt(Fraction(factorial(two_j2 - k), factorial(two_j2) * factorial(k)))
        for k in range(two_j2 + 1)
    ])
    isometry = np.concatenate([
        collective_apply(reg, SIGMA_MINUS, ladder, u[lam - 1]) * prefactors
        for lam in range(1, d + 1)
    ], axis=1)
    isometry.setflags(write=False)

    return require_sector_isometry(CoupledBasis(
        n=n,
        j2=j2,
        d=d,
        coupling=u,
        fingerprint=coupling_fingerprint(u),
        isometry=isometry,
    ))


def require_sector_isometry(basis: CoupledBasis) -> CoupledBasis:
    """Return basis if its K passes the Gram and covariance checks, else raise."""
    residuals = basis.gate_residuals
    if residuals["gram"] > ISOMETRY_TOL:
        raise ConsistencyError(
            f"K^dag K != I (residual {residuals['gram']:.3e}): "
            "the Q operators are not matrix units"
        )
    if residuals["covariance"] > ISOMETRY_TOL:
        raise ConsistencyError(
            f"J K != K (I (x) J^(j2)) (residual {residuals['covariance']:.3e}): "
            "the Q operators do not commute with J"
        )
    return basis


def isometry_residuals(n: int, k: np.ndarray) -> dict:
    """Residuals of a sector isometry K (columns ordered (lambda, m2)).

    gram:       max |K^dag K - I|, equivalent to Q Q' = delta Q
    trace:      max |Tr Q_{lambda lambda'} - d delta|, from the Gram blocks
    covariance: max over a = x, y, z of |J_a K - K (I_d (x) J_a^(j2))|,
                equivalent to [Q, J_a] = 0
    """
    d = n - 1
    reg = SpinRegister(n)
    gram = dagger(k) @ k
    traces = partial_trace_m2(d, gram)  # [lambda', lambda] = Tr Q_{lambda lambda'}
    spins = spin_matrices(Fraction(n, 2) - 1)
    covariance = max(
        max_abs_diff(collective_apply(reg, pauli / 2, k), k @ np.kron(identity(d), j_a))
        for pauli, j_a in zip((SIGMA_X, SIGMA_Y, SIGMA_Z), spins)
    )
    return {
        "gram": max_abs_diff(gram, identity(d * d)),
        "trace": max_abs_diff(traces, d * identity(d)),
        "covariance": covariance,
    }


def partial_trace_m2(d: int, inner: np.ndarray) -> np.ndarray:
    """Trace out m2 from a d**2 x d**2 operator with indices (lambda, m2), or from
    each operator of a stack (..., d**2, d**2)."""
    return np.trace(inner.reshape(inner.shape[:-2] + (d, d, d, d)), axis1=-3, axis2=-1)


def gram_residual(basis: CoupledBasis) -> float:
    """Max-norm deviation of the sector-basis Gram matrix K^dag K from identity."""
    return basis.gate_residuals["gram"]


def sector_membership_residual(basis: CoupledBasis) -> float:
    """Max residual of the J^2 and Jz eigenvalue equations over the columns of K."""
    reg = SpinRegister(basis.n)
    k = basis.isometry
    jj = float(basis.j2 * (basis.j2 + 1))
    column_m2 = np.tile([float(m2) for m2 in basis.m2_values()], basis.d)
    return max(
        max_abs_diff(collective_j_squared(reg, k), jj * k),
        max_abs_diff(collective_apply(reg, SIGMA_Z / 2, k), k * column_m2),
    )


def symmetric_singlets(reg: SpinRegister) -> list[np.ndarray]:
    """The two n=4 j=0 states of the symmetric coupling (lambda = 1, 2)."""
    if reg.n != 4:
        raise ContractViolationError(
            f"symmetric singlets are defined for n=4 only, got n={reg.n}"
        )
    w3 = np.exp(2j * np.pi / 3)
    out = []
    for lam in (1, 2):
        vec = (
            w3**lam * (product_ket("1001") + product_ket("0110"))
            + w3 ** (2 * lam) * (product_ket("0101") + product_ket("1010"))
            + (product_ket("0011") + product_ket("1100"))
        ) / sqrt(6)
        out.append(vec)
    return out


def cg_singlets(reg: SpinRegister) -> list[np.ndarray]:
    """The two n=4 j=0 states of the standard successive coupling."""
    if reg.n != 4:
        raise ContractViolationError(
            f"successive-coupling singlets are defined for n=4 only, got n={reg.n}"
        )
    s1 = (
        product_ket("0101") + product_ket("1010")
        - product_ket("1001") - product_ket("0110")
    ) / 2
    s2 = (
        2 * product_ket("0011") + 2 * product_ket("1100")
        - product_ket("0101") - product_ket("1010")
        - product_ket("0110") - product_ket("1001")
    ) / sqrt(12)
    return [s1, s2]


def sector_census(reg: SpinRegister) -> list[SectorSpec]:
    """Enumerate sectors by the multiplicity formula, cross-checked against J^2.

    On each magnetisation block (the product kets of weight w, m = n/2 - w),
    J^2 = n(4-n)/4 + sum_{l<k} P_lk is built from the transposition index
    maps; its eigenvalues must be j(j+1) within 1e-8, c_j times for each j >= |m|.
    Raises ConsistencyError on any mismatch.
    """
    n = reg.n
    specs = [
        SectorSpec(n=n, j=j, multiplicity=multiplicity(n, j), dimension=int(2 * j + 1))
        for j in sector_index_set(n)
    ]
    total = sum(s.multiplicity * s.dimension for s in specs)
    if total != reg.dim:
        raise ConsistencyError(
            f"census total {total} != 2**{n}; the multiplicity formula is broken"
        )

    weight = hamming_weights(n)
    swaps = [permutation_indices(reg, transposition(n, l, k))
             for l in range(1, n + 1) for k in range(l + 1, n + 1)]
    for w in range(n + 1):
        m = Fraction(n, 2) - w
        members = np.flatnonzero(weight == w)  # sorted, so searchsorted gives rows
        block = np.eye(len(members)) * (n * (4 - n) / 4)
        for dst in swaps:
            block[np.searchsorted(members, dst[members]), np.arange(len(members))] += 1
        predicted = sorted(float(s.j * (s.j + 1))
                           for s in specs if s.j >= abs(m) for _ in range(s.multiplicity))
        found = np.linalg.eigvalsh(block)
        if len(found) != len(predicted) or max_abs_diff(found, predicted) > 1e-8:
            raise ConsistencyError(f"J^2 block m={m}: census predicts {len(predicted)} "
                                   f"eigenvalues in {sorted(set(predicted))}, the block has "
                                   f"{len(found)} in {np.unique(found.round(8)).tolist()}")
    return specs


def basis_overlap_blocks(a: CoupledBasis, b: CoupledBasis) -> dict:
    """Overlap matrices <a(m2, lam) | b(m2, lam')> keyed by m2.

    For two valid couplings these blocks are unitary and identical across m2
    (the coupling choice mixes only the lambda label).
    """
    if a.n != b.n:
        raise ContractViolationError("bases live on different registers")
    size = int(2 * a.j2 + 1)
    overlap = (dagger(a.isometry) @ b.isometry).reshape(a.d, size, b.d, size)
    return {m2: overlap[:, k, :, k] for k, m2 in enumerate(a.m2_values())}


def block_mixing_residual(a: CoupledBasis, b: CoupledBasis) -> float:
    """How far b's kets are from one lambda-only unitary remix of a's kets:

    the worst deviation of the overlap blocks from unitarity and from the
    first block (the remix must be the same for every m2).
    """
    blocks = list(basis_overlap_blocks(a, b).values())
    return max(
        max(max_abs_diff(block @ block.conj().T, identity(a.d)),
            max_abs_diff(block, blocks[0]))
        for block in blocks
    )
