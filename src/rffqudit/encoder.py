"""The logical-qudit layer: Q operators, encoding, decoding, HWS unitaries.

The logical sector is one 2**n x d**2 isometry K whose columns are the kets
|j2, m2; lambda>, ordered (lambda, m2). Its column blocks K_lambda give the
d**2 operators Q_{lambda lambda'} = K_lambda K_lambda'^dag = sum_{m2}
|j2, m2; lambda><j2, m2; lambda'|: a matrix-unit algebra commuting with the
total angular momentum. Both facts are checked on K alone: K^dag K = I, and
J_a K = K (I_d (x) J_a^(j2)), i.e. a collective rotation acts on m2 only.
A logical d-dimensional state rho encodes into the 2**n-dimensional,
collective-rotation-invariant payload

    payload = K (rho (x) I_d / d) K^dag
            = (1/d) * sum_{lambda, lambda'} rho_{lambda lambda'} Q_{lambda lambda'},

(trace one: the rotation-sensitive degree of freedom is held maximally
mixed), and POVM elements encode without the 1/d so that a logical POVM sums
to the sector projector K K^dag. An encoded operator stores its d**2 x d**2
sector frame K^dag payload K and builds the payload on request; decoding is
the partial trace over m2 of the frame. Outcome probabilities and (up to the
additive log2(d) from the mixed factor) entropies survive the round trip,
which is what makes the construction a faithful qudit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import log2
from typing import NamedTuple

import numpy as np

from .coupling import CoupledBasis
from .errors import ConsistencyError, ContractViolationError, ValidationError
from .linalg import (
    dagger,
    hermitian_eig,
    identity,
    max_abs_diff,
    entropy_bits,
)
from .spinsys import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinRegister,
    collective_apply,
    spin_matrices,
)

PSD_TOL = 1e-10
ISOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class QOperatorSet:
    """The verified sector isometry K.

    The dense projector K K^dag and each dense Q_{lambda lambda'} =
    qs(lambda, lambda') are built from K on every access, for callers that
    ask for a 2**n x 2**n matrix; nothing dense is stored.
    """

    n: int
    d: int
    fingerprint: str
    isometry: np.ndarray = field(repr=False)

    @property
    def q(self) -> dict:
        """The arrays the set holds, by name."""
        return {"isometry": self.isometry}

    @property
    def sector_projector(self) -> np.ndarray:
        return self.isometry @ dagger(self.isometry)

    def __call__(self, lam: int, lamp: int) -> np.ndarray:
        blocks = np.split(self.isometry, self.d, axis=1)  # K_1 .. K_d
        return blocks[lam - 1] @ dagger(blocks[lamp - 1])


def build_q_set(basis: CoupledBasis) -> QOperatorSet:
    """Verify the basis isometry K (Gram and covariance checks) and share it."""
    k = basis.isometry
    residuals = isometry_residuals(basis.n, k)
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
    return QOperatorSet(n=basis.n, d=basis.d, fingerprint=basis.fingerprint, isometry=k)


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
    traces = _partial_trace_m2(d, gram)  # [lambda', lambda] = Tr Q_{lambda lambda'}
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


@dataclass(frozen=True)
class QuditState:
    """A d-dimensional density matrix (hermitian, PSD, trace one)."""

    d: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise ValidationError(
                f"state must be {self.d}x{self.d}, got {rho.shape}"
            )
        deviation = max_abs_diff(rho, dagger(rho))
        if deviation > 1e-12:
            raise ValidationError(f"state is not hermitian (deviation {deviation:.3e})")
        trace = np.trace(rho)
        if abs(trace - 1) > 1e-12:
            raise ValidationError(f"state trace is {trace:.15g}, expected 1")
        w, _ = hermitian_eig(rho)
        if w.min() < -PSD_TOL:
            raise ValidationError(
                f"state is not PSD: min eigenvalue {w.min():.3e}"
            )
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class QuditPovm:
    """A list of d x d PSD elements summing to the d-dimensional identity."""

    d: int
    elements: tuple = field(repr=False)

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise ValidationError("POVM needs at least one element")
        total = np.zeros((self.d, self.d), dtype=complex)
        for k, e in enumerate(elems):
            if e.shape != (self.d, self.d):
                raise ValidationError(
                    f"POVM element {k} must be {self.d}x{self.d}, got {e.shape}"
                )
            if max_abs_diff(e, dagger(e)) > 1e-12:
                raise ValidationError(f"POVM element {k} is not hermitian")
            w, _ = hermitian_eig(e)
            if w.min() < -PSD_TOL:
                raise ValidationError(
                    f"POVM element {k} is not PSD: min eigenvalue {w.min():.3e}"
                )
            total += e
        deviation = max_abs_diff(total, identity(self.d))
        if deviation > 1e-10:
            raise ValidationError(
                f"POVM elements sum to the identity only within {deviation:.3e} (> 1e-10)"
            )
        object.__setattr__(self, "elements", elems)


@dataclass(frozen=True)
class EncodedOperator:
    """A logical state or POVM element held as its sector frame K^dag payload K."""

    n: int
    d: int
    kind: str  # "state" | "povm-element"
    fingerprint: str
    frame: np.ndarray = field(repr=False)
    isometry: np.ndarray = field(repr=False)  # the shared, read-only K

    @property
    def payload(self) -> np.ndarray:
        """The 2**n x 2**n physical operator K frame K^dag."""
        return self.isometry @ self.frame @ dagger(self.isometry)


def _sector_frame(qs: QOperatorSet, payload) -> tuple[np.ndarray, float]:
    """(K^dag payload K, max |payload - K K^dag payload K K^dag|)."""
    k = qs.isometry
    payload = np.asarray(payload, dtype=complex)
    inner = dagger(k) @ payload @ k
    return inner, max_abs_diff(k @ inner @ dagger(k), payload)


def _partial_trace_m2(d: int, inner: np.ndarray) -> np.ndarray:
    """Trace out m2 from a d**2 x d**2 operator with indices (lambda, m2)."""
    return np.trace(inner.reshape(d, d, d, d), axis1=1, axis2=3)


def _decode_frame(d: int, frame: np.ndarray) -> QuditState:
    rho = _partial_trace_m2(d, frame)
    return QuditState(d=d, rho=(rho + dagger(rho)) / 2)


def sector_support_residual(qs: QOperatorSet, payload) -> float:
    """How far the payload sticks out of the logical sector."""
    return _sector_frame(qs, payload)[1]


def _encoded(qs: QOperatorSet, kind: str, frame: np.ndarray) -> EncodedOperator:
    w, _ = hermitian_eig(frame)
    if w.min() < -PSD_TOL:
        raise ConsistencyError(f"encoded {kind} is not PSD: min eigenvalue {w.min():.3e}")
    return EncodedOperator(n=qs.n, d=qs.d, kind=kind, fingerprint=qs.fingerprint,
                           frame=frame, isometry=qs.isometry)


def encode_state(qs: QOperatorSet, state: QuditState) -> EncodedOperator:
    if state.d != qs.d:
        raise ValidationError(
            f"state dimension {state.d} does not match qudit dimension {qs.d}"
        )
    frame = np.kron(state.rho / qs.d, identity(qs.d))
    trace = np.trace(frame)  # = Tr payload, as K^dag K = I is verified
    if abs(trace - 1) > 1e-10:
        raise ConsistencyError(f"encoded state trace {trace:.15g} != 1")
    return _encoded(qs, "state", frame)


def decode_state(qs: QOperatorSet, enc: EncodedOperator) -> QuditState:
    if enc.fingerprint != qs.fingerprint:
        raise ValidationError(
            "encoded operator was built with a different coupling "
            f"(fingerprint {enc.fingerprint} != {qs.fingerprint})"
        )
    return _decode_frame(qs.d, enc.frame)


def decode_payload(qs: QOperatorSet, payload, sector_tol: float = 1e-9) -> QuditState:
    """Decode a raw payload matrix, insisting it lives on the logical sector."""
    inner, residual = _sector_frame(qs, payload)
    if residual > sector_tol:
        raise ValidationError(
            f"payload is not supported on the logical sector "
            f"(residual {residual:.3e} > {sector_tol:g})"
        )
    return _decode_frame(qs.d, inner)


def encode_povm(qs: QOperatorSet, povm: QuditPovm) -> list[EncodedOperator]:
    if povm.d != qs.d:
        raise ValidationError(
            f"POVM dimension {povm.d} does not match qudit dimension {qs.d}"
        )
    encoded = [_encoded(qs, "povm-element", np.kron(element, identity(qs.d)))
               for element in povm.elements]
    if max_abs_diff(sum(e.frame for e in encoded), identity(qs.d ** 2)) > 1e-10:
        raise ConsistencyError(
            "encoded POVM elements do not sum to the sector projector"
        )
    return encoded


class EntropyCheck(NamedTuple):
    s_logical: float
    s_encoded: float
    defect: float  # s_encoded - s_logical - log2(d)


def encoded_entropy_check(state: QuditState, enc: EncodedOperator) -> EntropyCheck:
    """Entropies in bits; the encoding adds exactly log2(d) of idler mixing."""
    s_logical = entropy_bits(state.rho)
    s_encoded = entropy_bits(enc.payload)
    return EntropyCheck(s_logical, s_encoded, s_encoded - s_logical - log2(enc.d))


@dataclass(frozen=True)
class HwsPair:
    """The unitary clock/shift pair on the logical sector.

    clock and shift are the d x d logical pair; u = K (clock (x) I) K^dag and
    v = K (shift (x) I) K^dag are built on access from the shared, read-only K.
    """

    d: int
    omega: complex
    clock: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    isometry: np.ndarray = field(repr=False)

    @property
    def u(self) -> np.ndarray:
        return self.isometry @ np.kron(self.clock, identity(self.d)) @ dagger(self.isometry)

    @property
    def v(self) -> np.ndarray:
        return self.isometry @ np.kron(self.shift, identity(self.d)) @ dagger(self.isometry)


def build_hws(qs: QOperatorSet) -> HwsPair:
    """U = sum omega_d**lambda Q_ll, V = sum Q_{l,l+1} + Q_{d,1}, verified."""
    d = qs.d
    if d < 2:
        raise ContractViolationError(f"the HWS pair needs d >= 2, got d={d}")
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(1, d + 1))
    shift = np.roll(identity(d), 1, axis=1)  # |lambda><lambda+1|, |d><1|
    pair = HwsPair(d=d, omega=omega, clock=clock, shift=shift, isometry=qs.isometry)
    residual = hws_relations_residual(pair)
    if residual > 1e-10:
        raise ConsistencyError(
            f"clock/shift relations fail: U**d, V**d != I or "
            f"U^j V^k != omega^(-jk) V^k U^j (residual {residual:.3e})"
        )
    return pair


def hws_relations_residual(pair: HwsPair) -> float:
    """Worst residual of U**d = V**d = I and U^j V^k = omega^(-jk) V^k U^j.

    Evaluated on the d x d logical pair: U^j = K clock^j (x) I K^dag because
    K^dag K = I is verified when the Q set is built, so the sector pair obeys
    exactly the relations its logical pair does.
    """
    eye = identity(pair.d)
    u_pow, v_pow = [eye], [eye]
    for _ in range(pair.d):
        u_pow.append(u_pow[-1] @ pair.clock)
        v_pow.append(v_pow[-1] @ pair.shift)
    worst = max(max_abs_diff(u_pow[-1], eye), max_abs_diff(v_pow[-1], eye))
    for j in range(1, pair.d + 1):
        for k in range(1, pair.d + 1):
            lhs = u_pow[j] @ v_pow[k]
            rhs = pair.omega ** (-j * k) * (v_pow[k] @ u_pow[j])
            worst = max(worst, max_abs_diff(lhs, rhs))
    return worst
