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

with lambda = 1..n-1 and m2 = j2, j2-1, ..., -j2. With k = j2 - m2, the
product has the closed form

    Omega_minus(lambda) J_minus**k |0...0> = k! sum_{|T| = k+1} (sum_{l in T} U_{lambda,l}) |T>

over the sets T of down spins, so the ket lives on the product kets of
Hamming weight k + 1 alone. The basis is stored as its d weight blocks
B_k = M_{k+1} U[:d]^T / sqrt(C(n-2, k)), M_w the 0/1 spins-down incidence
matrix of the weight-w product kets, with no re-phasing. Together they are
the 2**n x d**2 isometry K, columns ordered (lambda, m2), whose column blocks
K_lambda give the d**2 operators Q_{lambda lambda'} = K_lambda K_lambda'^dag,
a matrix-unit algebra commuting with the total angular momentum. Both facts
are checked on the blocks when the basis is built: B_k^dag B_k = I, and
J_minus B_k = c_k B_{k+1} with its J_plus partner (J_z holds by
construction). Every payload K (A (x) I_d) K^dag is zero off the weight
classes, and its block on class k, P_k = B_k A B_k^dag, has rank at most d:
CoupledBasis.lift_factors gives it as the factors X_k = B_k A and Y_k = B_k
with P_k = X_k Y_k^dag, of one A or a stack of trials, one class at a time.
CoupledBasis.compress_lifted takes a stack's factors to the class frames
B_k^dag P_k B_k = (B_k^dag X_k)(B_k^dag Y_k)^dag, and holds each trial's bound
on |P_k - B_k C_k B_k^dag|, read from the factors' row norms (factor_frames),
to SECTOR_TOL: verify's encoder rows and encode's Born table read encoded
payloads this way, in O(C(n, k+1) d**2) per class, and no C(n, k+1)**2 block
is formed. CoupledBasis.lift_blocks forms the blocks as X_k Y_k^dag for the
readers that need them whole. CoupledBasis.rotations gates each collective
rotation's escape |U K - K R| on the same bound. The dense entry points stay dense:
lift is the scatter of lift_blocks, and compress takes the full K^dag P K of
a raw P, coherences between m2 values included, for decode_payload. These
ladder operators, and the J^2 = n(4-n)/4 + sum_{l<k} P_lk of the membership
check and of the census, act on one weight class at a time through index
maps on the product kets. For n = 4 the module also provides the two
explicit j=0 bases: the symmetric-coupling singlets (Fourier phases omega_3)
and the successively-coupled (pairwise) singlets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import islice
from math import comb, factorial, sqrt
from typing import Iterator

import numpy as np

from .errors import (
    ConsistencyError,
    ContractViolationError,
    ValidationError,
    require_integer,
    require_none,
)
from .linalg import dagger, identity, max_abs_diff, stack_at_shared
from .spinsys import SpinRegister, collective_product_apply, product_ket

ISOMETRY_TOL = 1e-10
COUPLING_TOL = 1e-12
# Largest |P - K C K^dag| of a payload on the sector, |U K - K R| of a rotation.
SECTOR_TOL = 1e-9
# Bytes of payload rows that CoupledBasis.compress, the walk decode_payload
# takes over a raw payload, holds at a time: one strip read from the payload
# and one formed beside it, half each, so it holds no second 2**n x 2**n
# matrix beside the payload. It bounds those row strips and nothing else.
ROW_BLOCK_BYTES = 4 * 2 ** 20
# Bytes that one chunk of a stack of trials may hold, at least one trial per
# chunk: U K (one K per trial) in CoupledBasis.rotations, where a pass's input
# and its product are live and the gate holds one weight class's rows and
# their product beside them, and the factors X_k of all classes in
# CoupledBasis.compress_lifted, which lifts and gates a chunk one class at a
# time. verify's 20 rotation trials go in one chunk up to n = 5, ten at n = 6
# and three at n = 7, and one trial a chunk from n = 8 on; its five lifted
# trials go in one chunk up to n = 8, 4 + 1 at n = 9, and one a chunk from
# n = 10 on. On 2 shared vCPUs,
# one BLAS thread, two sets of 200 interleaved in-process runs, with one BLAS
# call per class and chunk in rotations: the rotation rows of n = 3..7 took
# a median 6.6-6.8 ms against 9.0-9.3 ms at 64 KiB and 6.7-6.9 ms at 1 MiB;
# run_channel at n = 3 with 300 trials (one chunk now, three at 64 KiB)
# took 2.8-2.9 ms against 2.9-3.1 ms at 64 KiB and 3.0 ms at 1 MiB. The
# tracemalloc peak of run_suite("all", n_values=range(3, 8)) is 1.22 MB
# (1.12 MB at 64 KiB, 2.81 MB at 1 MiB).
CHUNK_BYTES = 256 * 2 ** 10


@dataclass(frozen=True)
class SectorSpec:
    """One total-angular-momentum sector of an n-constituent register."""

    n: int
    j: Fraction
    multiplicity: int
    dimension: int  # 2j + 1


def sector_index_set(n: int) -> list[Fraction]:
    """All j values for n constituents: n/2, n/2-1, ..., down to 0 or 1/2."""
    j = Fraction(require_integer(n, "n", 0), 2)
    out = []
    while j >= 0:
        out.append(j)
        j -= 1
    return out


def multiplicity(n: int, j) -> int:
    """Exact sector multiplicity c_j = n!(2j+1)/((n/2+j+1)!(n/2-j)!)."""
    n, j = require_integer(n, "n", 0), Fraction(j)
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
    n = require_integer(n, "n", 1)
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
    if not unitarity <= COUPLING_TOL:  # NaN fails
        raise ValidationError(
            f"coupling matrix is not unitary within {COUPLING_TOL:g} "
            f"(deviation {unitarity:.3e})"
        )
    symmetric_row = np.full(n, 1 / sqrt(n), dtype=complex)
    row_dev = max_abs_diff(u[n - 1], symmetric_row)
    if not row_dev <= COUPLING_TOL:
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
    """The verified j2 = n/2 - 1 sector, as the weight blocks of its isometry K.

    blocks holds the read-only C(n, k+1) x d block B_k of each m2 = j2 - k:
    column lambda is the ket |j2, m2; lambda> on the product kets of weight
    k + 1, the only ones it touches. isometry is the dense 2**n x d**2 K,
    column (lambda-1)(2 j2+1) + (j2-m2) the ket (lambda, m2), assembled from
    the blocks on first use for the readers that need all of K. Every operator
    K (A (x) I_d) K^dag is block-diagonal in the weight, and its block on a
    class has rank at most d: lift_factors gives each block's factors
    (B_k A, B_k), compress_lifted takes them to gated class frames without
    forming a block, and lift_blocks forms the blocks from them; lift
    scatters the blocks into the dense operator, and compress takes
    K^dag P K of a raw dense P one weight class at a time; the dense projector
    K K^dag and each Q_{lambda lambda'} = basis(lambda, lambda') are lifts
    built on every access. The weight classes, the dense K and the gate's
    residuals are computed once per object; a dataclasses.replace'd copy
    computes its own.
    """

    n: int
    j2: Fraction
    d: int
    coupling: np.ndarray = field(repr=False)
    fingerprint: str
    blocks: tuple = field(repr=False)

    def m2_values(self) -> list[Fraction]:
        return [self.j2 - k for k in range(int(2 * self.j2) + 1)]

    def ket(self, m2, lam: int) -> np.ndarray:
        lam, k = require_integer(lam, "lambda", 1), self.j2 - Fraction(m2)
        if not (lam <= self.d and 0 <= k <= 2 * self.j2 and k.denominator == 1):
            raise ContractViolationError(f"no sector ket (m2={m2}, lambda={lam})")
        return self.isometry[:, (lam - 1) * int(2 * self.j2 + 1) + int(k)]

    @cached_property
    def gate_residuals(self) -> dict:
        """isometry_residuals of the blocks: the Gram, trace and covariance residuals."""
        return isometry_residuals(self)

    @cached_property
    def weight_classes(self) -> tuple:
        """(rows, B) for each m2 = j2, j2-1, ..., -j2: the product-ket indices of
        Hamming weight n/2 - m2 and the block on them. No row of weight 0 or n
        is in a class."""
        return tuple(zip(weight_rows(self.n)[1:-1], self.blocks))

    @cached_property
    def isometry(self) -> np.ndarray:
        """The dense 2**n x d**2 K, assembled from the blocks: zero off the classes."""
        size = len(self.blocks)
        k_all = np.zeros((2 ** self.n, self.d * size), dtype=complex)
        for k, (rows, block) in enumerate(self.weight_classes):
            k_all[rows, k::size] = block
        k_all.setflags(write=False)
        return k_all

    def lift_factors(self, logical) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(X_k, Y_k) = (B_k A, B_k) of each weight class k (m2 = j2 - k), built
        one class at a time as they are read: the rank-d factors of the class's
        block P_k = X_k Y_k^dag of K (A (x) I_d) K^dag. X_k is C(n, k+1) x d for
        one d x d matrix A, or (T, C(n, k+1), d) for a stack (T, d, d)."""
        return ((block @ logical, block) for block in self.blocks)

    def lift_blocks(self, logical) -> Iterator[np.ndarray]:
        """P_k = X_k Y_k^dag of each weight class k, from lift_factors: the only
        nonzero blocks of K (A (x) I_d) K^dag, built one class at a time as they
        are read, C(n, k+1) x C(n, k+1) for one A and a (T, ...) stack for a stack."""
        return (x @ y.conj().T for x, y in self.lift_factors(logical))

    def lift(self, logical) -> np.ndarray:
        """The 2**n x 2**n operator K (A (x) I_d) K^dag of a d x d A: lift_blocks
        scattered onto each weight class's rows and columns, exact zeros elsewhere."""
        out = np.zeros((2 ** self.n,) * 2, dtype=complex)
        for (rows, _), lifted in zip(self.weight_classes, self.lift_blocks(logical)):
            out[rows[:, None], rows] = lifted
        return out

    def compress_lifted(self, logical) -> np.ndarray:
        """The class frames C_k = (B_k^dag X_k)(B_k^dag Y_k)^dag of the payload's
        blocks P_k = X_k Y_k^dag (lift_factors), for each A of a stack (T, d, d):
        shaped (T, 2 j2 + 1, d, d). The trials go in chunks whose factors X_k
        hold at most CHUNK_BYTES (at least one trial each), and a chunk holds one
        class's factors at a time; no C(n, k+1)**2 block is formed.

        Each trial's bound on max_k |P_k - B_k C_k B_k^dag| (factor_frames) is
        held to SECTOR_TOL: a payload off the sector is a failed encoding, and
        ConsistencyError names the first such trial.
        """
        per_trial = 16 * self.d * (2 ** self.n - 2)  # bytes of one trial's X_k
        chunks = []
        for part in _chunks(len(logical), per_trial, CHUNK_BYTES):
            frames, worst = [], 0.0
            for block, (x, y) in zip(self.blocks, self.lift_factors(logical[part])):
                frame, bound = factor_frames(block, x, y)
                worst = np.maximum(worst, bound)
                frames.append(frame)
            require_none(worst > SECTOR_TOL, lambda t: (
                f"the encoded payload of state {part.start + t} is not supported on the logical "
                f"sector (|P - K C K^dag| = {worst[t]:.3e} > {SECTOR_TOL:g})"), ConsistencyError)
            chunks.append(np.stack(frames, axis=1))
        return np.concatenate(chunks)

    def compress(self, payload) -> tuple[np.ndarray, float]:
        """(C, max |P - K C K^dag|) for C = K^dag P K of a raw 2**n x 2**n P,
        one weight class at a time.

        The rows of C in class m2 are (B^dag P[rows]) K, and the rows of
        K C K^dag there are B (C[m2 rows] K^dag); those of weight 0 and n are
        zero, so there the residual is |P| itself. P is read in strips of rows
        of at most ROW_BLOCK_BYTES / 2, once for C and once more for the
        residual; beside P the walk holds one strip, the strip formed beside
        it, and one d**2 x 2**n array.
        """
        payload = np.asarray(payload, dtype=complex)
        k_all, size = self.isometry, len(self.weight_classes)
        row_bytes = 2 * payload.itemsize * payload.shape[1]  # a row read, a row formed
        top = np.zeros((k_all.shape[1], payload.shape[1]), dtype=complex)  # K^dag P
        for k, (rows, block) in enumerate(self.weight_classes):
            for part in _chunks(len(rows), row_bytes, ROW_BLOCK_BYTES):
                top[k::size] += block[part].conj().T @ payload.take(rows[part], axis=0)
        inner = top @ k_all
        back = np.matmul(inner.conj(), k_all.T, out=top)  # C K^dag, conjugated in place
        np.conjugate(back, out=back)
        worst = max(np.abs(payload[0]).max(), np.abs(payload[-1]).max())
        for k, (rows, block) in enumerate(self.weight_classes):
            for part in _chunks(len(rows), row_bytes, ROW_BLOCK_BYTES):
                strip = payload.take(rows[part], axis=0)
                strip -= block[part] @ back[k::size]
                worst = max(worst, np.abs(strip).max())
        return inner, float(worst)

    def rotations(self, u) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(R, escape) of each U = u^(x n) of a stack u (T, 2, 2): R = K^dag U K and
        escape = max |U K - K R|, held to SECTOR_TOL before its chunk is yielded
        (ConsistencyError names the first trial over it). U K comes from
        collective_product_apply, four constituents per pass, in chunks of at
        most CHUNK_BYTES of U K (at least one trial each). R and the escape are
        taken on the weight blocks, transposed so that the chunk's trials stack
        in the rows of one product with the shared block (linalg.stack_at_shared):
        with S_k = (U K)[rows_k]^T, gathered once per class as (T, d**2, C_k),
        the rows of R in class m2 = j2 - k are the transpose of S_k B_k^*, the
        escape there is |S_k - R[k rows]^T B_k^T|, and on the all-up and
        all-down kets, where K is zero, it is |U K|. Each is one BLAS call per
        class and chunk, and a trial's bits do not depend on the chunk."""
        reg, size = SpinRegister(self.n), len(self.blocks)
        k = self.isometry
        for part in _chunks(len(u), k.nbytes, CHUNK_BYTES):
            uk = collective_product_apply(reg, u[part], k)
            r = np.empty((len(uk),) + (k.shape[1],) * 2, dtype=complex)
            escape = np.abs(uk[:, [0, -1]]).max(axis=(1, 2))
            for m, (rows, block) in enumerate(self.weight_classes):
                strip = uk.transpose(0, 2, 1)[:, :, rows]  # (U K)[rows]^T, (T, d**2, C_k)
                rows_t = stack_at_shared(strip, block.conj())  # (B_k^dag (U K)[rows])^T
                r[:, m::size] = rows_t.transpose(0, 2, 1)
                strip -= stack_at_shared(rows_t, block.T)
                escape = np.maximum(escape, np.abs(strip).max(axis=(1, 2)))
                del strip  # not held beside the next class's
            del uk  # not held while the caller works on r
            require_none(escape > SECTOR_TOL, lambda t: (
                f"the collective rotation of trial {part.start + t} leaves the logical "
                f"sector (|U K - K R| = {escape[t]:.3e} > {SECTOR_TOL:g})"), ConsistencyError)
            yield r, escape

    @property
    def q(self) -> dict:
        """The arrays the basis holds, by name."""
        return {"isometry": self.isometry}

    @property
    def sector_projector(self) -> np.ndarray:
        return self.lift(identity(self.d))

    def __call__(self, lam: int, lamp: int) -> np.ndarray:
        lam, lamp = require_integer(lam, "lambda", 1), require_integer(lamp, "lambda'", 1)
        if max(lam, lamp) > self.d:
            raise ContractViolationError(f"no matrix unit (lambda={lam}, lambda'={lamp})")
        unit = np.zeros((self.d, self.d))
        unit[lam - 1, lamp - 1] = 1.0
        return self.lift(unit)


def factor_frames(block, x, y) -> tuple[np.ndarray, np.ndarray]:
    """(C, bound) of one weight class with block B, for a payload block
    P = X Y^dag given by its factors: X a stack (T, C_k, d), Y one C_k x d
    matrix. C = (B^dag X)(B^dag Y)^dag, shaped (T, d, d), is B^dag P B, and
    bound, one per trial, is at least max |P - B C B^dag|: with H = B B^dag (.)
    and E = (.) - H, P - B C B^dag = E_X Y^dag + H_X E_Y^dag, so no entry exceeds
    max_i |E_X,i| max_j |Y_j| + max_i |H_X,i| max_j |E_Y,j| over row 2-norms.
    It costs O(C_k d**2) per trial; the trials stack in the rows of each product
    with B (linalg.stack_at_shared), so a trial's bits do not depend on its chunk."""
    half_x, inside_x, off_x = _split_on_span(block, x)
    half_y, _, off_y = _split_on_span(block, y)
    bound = off_x * np.linalg.norm(y, axis=-1).max() + inside_x * off_y
    return stack_at_shared(half_x, dagger(half_y)), bound


def _split_on_span(block, factor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B^dag F, max_i |H_i|, max_i |E_i|) of a factor F (C_k x d, or a stack of
    them) split as H + E, H = B B^dag F on the span of B: its frame half, and the
    largest row 2-norm of each part, per matrix of the stack."""
    rows = np.swapaxes(factor, -1, -2)  # F^T: its rows meet the shared block
    half = stack_at_shared(rows, block.conj())  # (B^dag F)^T
    inside = stack_at_shared(half, block.T)  # H^T
    off = np.linalg.norm(rows - inside, axis=-2).max(axis=-1)
    return np.swapaxes(half, -1, -2), np.linalg.norm(inside, axis=-2).max(axis=-1), off


def _chunks(count: int, item_bytes: int, budget: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each of at most budget // item_bytes
    items and at least one."""
    step = max(1, budget // item_bytes)
    return (slice(first, first + step) for first in range(0, count, step))


def hamming_weights(n: int) -> np.ndarray:
    """The number of 1 bits (spins down) of each product-ket index 0 .. 2**n - 1."""
    return sum((np.arange(2 ** n) >> bit) & 1 for bit in range(n))


def weight_rows(n: int) -> list[np.ndarray]:
    """The product-ket indices of each Hamming weight w = 0 .. n, ascending."""
    weight = hamming_weights(n)
    return [np.flatnonzero(weight == w) for w in range(n + 1)]


def closed_form_blocks(n: int, u: np.ndarray) -> tuple:
    """The read-only weight blocks B_k = M_{k+1} u[:n-1]^T / sqrt(C(n-2, k)), k = 0 .. n-2.

    Row T of the 0/1 incidence matrix M_w marks the down spins of the
    weight-w product ket T, constituent 1 the most significant bit, so
    column lambda of B_k is sum_{|T| = k+1} (sum_{l in T} u_{lambda,l}) |T>
    over sqrt(C(n-2, k)): the ket |j2, j2-k; lambda>.
    """
    bits = np.arange(n - 1, -1, -1)
    blocks = []
    for k, rows in enumerate(weight_rows(n)[1:-1]):
        block = ((rows[:, None] >> bits) & 1) @ u[:n - 1].T / sqrt(comb(n - 2, k))
        block.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def build_coupled_basis(reg: SpinRegister, coupling=None) -> CoupledBasis:
    """Construct and verify the kets |j2, m2; lambda>, all m2, lambda = 1..n-1."""
    n = reg.n
    if n < 3:
        raise ContractViolationError(
            f"the coupled basis needs n >= 3 (so d >= 2), got n={n}"
        )
    u = fourier_coupling(n) if coupling is None else validate_coupling(coupling, n)
    return require_sector_isometry(CoupledBasis(
        n=n,
        j2=Fraction(n, 2) - 1,
        d=n - 1,
        coupling=u,
        fingerprint=coupling_fingerprint(u),
        blocks=closed_form_blocks(n, u),
    ))


def require_sector_isometry(basis: CoupledBasis) -> CoupledBasis:
    """Return basis if its blocks pass the Gram and covariance checks, else raise."""
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


def _flipped_positions(n: int, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each product ket of rows, the positions in targets of the kets one
    spin flip away from it, where targets (ascending) is a whole weight class
    one above or below that of rows: shape (len(rows), flips per ket)."""
    flipped = rows[:, None] ^ (1 << np.arange(n))
    found = np.minimum(np.searchsorted(targets, flipped), len(targets) - 1)
    return found[targets[found] == flipped].reshape(len(rows), -1)


def isometry_residuals(basis: CoupledBasis) -> dict:
    """Residuals of the sector isometry K, read one weight block B_k at a time.

    K is zero off the weight classes and J_z K = K (I_d (x) J_z^(j2)) holds by
    construction, so:

    gram:       max |B_k^dag B_k - I|, equivalent to K^dag K = I and to Q Q' = delta Q
    trace:      max |sum_k B_k^dag B_k - d I|, i.e. Tr Q_{lambda lambda'} = d delta
    covariance: max |J_- B_k - c_k B_{k+1}| and |J_+ B_{k+1} - c_k B_k|, with
                c_k = sqrt((k+1)(2 j2-k)) the spin-j2 ladder element. J_- of the
                last block (onto |1...1>) and J_+ of the first (onto |0...0>)
                must vanish. Equivalent to [Q, J_a] = 0.
    """
    n, d = basis.n, basis.d
    grams = [dagger(block) @ block for block in basis.blocks]
    zero = np.zeros((1, d))
    on_weight = [zero, *basis.blocks, zero]  # K on the weight classes w = 0 .. n
    rows = weight_rows(n)
    covariance = 0.0
    for w in range(1, n + 1):
        c = sqrt((w - 1) * (n - w))
        lowered = on_weight[w - 1][_flipped_positions(n, rows[w], rows[w - 1])].sum(axis=1)
        raised = on_weight[w][_flipped_positions(n, rows[w - 1], rows[w])].sum(axis=1)
        covariance = max(covariance, max_abs_diff(lowered, c * on_weight[w]),
                         max_abs_diff(raised, c * on_weight[w - 1]))
    return {
        "gram": max(max_abs_diff(gram, identity(d)) for gram in grams),
        "trace": max_abs_diff(sum(grams), d * identity(d)),
        "covariance": covariance,
    }


def partial_trace_m2(d: int, inner: np.ndarray) -> np.ndarray:
    """Trace out m2 from a d**2 x d**2 operator with indices (lambda, m2), or from
    each operator of a stack (..., d**2, d**2): one einsum over the
    (lambda, m2, lambda', m2') view."""
    return np.einsum("...ambm->...ab", inner.reshape(inner.shape[:-2] + (d, d, d, d)))


def logical_image(r, a) -> np.ndarray:
    """Tr_m2(R (A (x) I_d) R^dag) = sum_{m2, m2'} R_{m2 m2'} A R_{m2 m2'}^dag over the
    d x d blocks of each R of a stack (T, d**2, d**2), indices (lambda, m2), for
    one shared d x d A or a stack (T, d, d). R goes once to (T, d**3, d), rows
    (lambda, m2, m2'), then two products: 2 d**5 flops per trial, against 2 d**6
    with A (x) I_d formed. A shared A meets the stack's rows in one product
    (linalg.stack_at_shared), so a trial's bits do not depend on the stack."""
    lead, d = r.shape[:-2], a.shape[-1]
    blocks = r.reshape(lead + (d,) * 4).swapaxes(-1, -2).reshape(lead + (d ** 3, d))
    moved = stack_at_shared(blocks, a) if a.ndim == 2 else blocks @ a
    return moved.reshape(lead + (d, d ** 3)) @ dagger(blocks.reshape(lead + (d, d ** 3)))


def gram_residual(basis: CoupledBasis) -> float:
    """Max-norm deviation of the sector-basis Gram matrix K^dag K from identity."""
    return basis.gate_residuals["gram"]


def sector_membership_residual(basis: CoupledBasis, positions=None) -> float:
    """Max residual of J^2 B = j2(j2+1) B over the weight blocks B, with
    J^2 = n(4-n)/4 + sum_{l<k} P_lk on each class. J_z B = m2 B holds by
    construction: each block lives on its weight class alone. positions is a
    transposition_index(n), made here when not given; its classes w = 1 .. n-1
    are read."""
    n = basis.n
    positions = transposition_index(n) if positions is None else positions
    jj = float(basis.j2 * (basis.j2 + 1))
    worst = 0.0
    for (_, block), pairs in zip(basis.weight_classes, islice(positions, 1, n), strict=True):
        j_squared = n * (4 - n) / 4 * block
        for moved in pairs:  # one P_lk at a time: flat memory
            j_squared += block[moved]
        worst = max(worst, max_abs_diff(j_squared, jj * block))
    return worst


def transposition_index(n: int) -> Iterator[np.ndarray]:
    """_transposed_positions of each weight class w = 0 .. n, in order, each made
    as it is read, so a reader holds one class at a time: the index that
    sector_census and sector_membership_residual read. It can be read once; a
    caller that runs both keeps it (tuple(transposition_index(n))) and hands it
    to each, as verify does once per n and call."""
    return (_transposed_positions(n, rows) for rows in weight_rows(n))


def _transposed_positions(n: int, rows: np.ndarray) -> np.ndarray:
    """The (pairs, len(rows)) positions p of a class of product-ket indices
    (ascending, closed under permutations): row (l k), l < k in order, sends
    the ket at position i of the class to position p[i]. P_lk flips bits
    n - l and n - k where they differ."""
    first, second = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    low, high = (n - 1 - first)[:, None], (n - 1 - second)[:, None]
    differ = ((rows >> low) ^ (rows >> high)) & 1
    return np.searchsorted(rows, rows ^ (differ << low | differ << high))


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


def sector_census(reg: SpinRegister, positions=None) -> list[SectorSpec]:
    """Enumerate sectors by the multiplicity formula, cross-checked against J^2.

    On each magnetisation block (the product kets of weight w, m = n/2 - w),
    J^2 = n(4-n)/4 + sum_{l<k} P_lk is built from the transposition index
    maps, read from positions, a transposition_index(n) made here when not given;
    its eigenvalues must be j(j+1) within 1e-8, c_j times for each j >= |m|.
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

    j = np.array([float(s.j) for s in reversed(specs)])  # ascending
    copies = np.array([s.multiplicity for s in reversed(specs)])
    positions = transposition_index(n) if positions is None else positions
    for w, pairs in zip(range(n + 1), positions, strict=True):
        m, kept = Fraction(n, 2) - w, j >= abs(n / 2 - w)
        predicted = np.repeat(j[kept] * (j[kept] + 1), copies[kept])
        # no name holds the block, so one block is live at a time
        found = np.linalg.eigvalsh(_j_squared_block(n, pairs))
        if len(found) != len(predicted) or max_abs_diff(found, predicted) > 1e-8:
            raise ConsistencyError(f"J^2 block m={m}: census predicts {len(predicted)} "
                                   f"eigenvalues in {np.unique(predicted).tolist()}, the block "
                                   f"has {len(found)} in {np.unique(found.round(8)).tolist()}")
    return specs


def _j_squared_block(n: int, positions: np.ndarray) -> np.ndarray:
    """J^2 = n(4-n)/4 + sum_{l<k} P_lk on a class of product-ket indices, from its
    _transposed_positions, by one count of every transposition's entries
    straight into float64. Every entry is a count plus a multiple of 1/4, so
    the sums are exact and do not depend on their order."""
    size = positions.shape[1]
    flat = positions * size + np.arange(size)
    # float64 also for n = 1, where a class has no transposition and bincount
    # of no entries is int64
    block = np.bincount(flat.ravel(), weights=np.ones(flat.size),
                        minlength=size * size).astype(float, copy=False)
    block[::size + 1] += n * (4 - n) / 4
    return block.reshape(size, size)


def basis_overlap_blocks(a: CoupledBasis, b: CoupledBasis) -> dict:
    """Overlap matrices <a(m2, lam) | b(m2, lam')> keyed by m2.

    For two valid couplings these blocks are unitary and identical across m2
    (the coupling choice mixes only the lambda label).
    """
    if a.n != b.n:
        raise ContractViolationError("bases live on different registers")
    return {m2: dagger(block_a) @ block_b
            for m2, block_a, block_b in zip(a.m2_values(), a.blocks, b.blocks)}


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
