"""The logical-qudit layer: encoding, decoding, HWS unitaries.

The logical sector is the verified coupled basis (coupling.CoupledBasis): one
2**n x d**2 isometry K, columns |j2, m2; lambda> ordered (lambda, m2), whose
column blocks give the matrix units Q_{lambda lambda'} = K_lambda
K_lambda'^dag. A logical d-dimensional state rho encodes into the
2**n-dimensional, collective-rotation-invariant payload

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
from math import log2
from typing import NamedTuple

import numpy as np

from .coupling import CoupledBasis, partial_trace_m2, require_sector_isometry
from .errors import ConsistencyError, ContractViolationError, ValidationError
from .linalg import (
    dagger,
    hermitian_eig,
    identity,
    max_abs_diff,
    entropy_bits,
)

PSD_TOL = 1e-10

# The verified basis is the Q set; build_q_set re-checks its gate on a given
# basis, reading the residuals that basis computed once (CoupledBasis.gate_residuals).
QOperatorSet = CoupledBasis
build_q_set = require_sector_isometry


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
        require_density(rho)
        object.__setattr__(self, "rho", rho)


def require_density(rho: np.ndarray, name: str = "state") -> None:
    """Raise ValidationError unless rho, or each matrix of a stack (T, d, d), is a
    density matrix: hermitian within 1e-12, trace one within 1e-12, PSD within
    PSD_TOL. A stack's error names its first failing matrix by index."""
    stack = rho.reshape((-1,) + rho.shape[-2:])

    def require(bad: np.ndarray, text) -> None:
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"{name if rho.ndim == 2 else f'{name} [{i}]'} {text(i)}")

    deviation = np.abs(stack - np.swapaxes(stack.conj(), -1, -2)).max(axis=(1, 2))
    require(deviation > 1e-12, lambda i: f"is not hermitian (deviation {deviation[i]:.3e})")
    trace = np.trace(stack, axis1=1, axis2=2)
    require(abs(trace - 1) > 1e-12, lambda i: f"trace is {trace[i]:.15g}, expected 1")
    w, _ = hermitian_eig(stack)
    require(w[:, 0] < -PSD_TOL, lambda i: f"is not PSD: min eigenvalue {w[i, 0]:.3e}")


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


def _sector_frame(qs: CoupledBasis, payload) -> tuple[np.ndarray, float]:
    """(K^dag payload K, max |payload - K K^dag payload K K^dag|)."""
    k = qs.isometry
    payload = np.asarray(payload, dtype=complex)
    inner = dagger(k) @ payload @ k
    return inner, max_abs_diff(k @ inner @ dagger(k), payload)


def decode_frame(d: int, frame: np.ndarray) -> QuditState:
    """The logical state of a d**2 x d**2 sector frame: its partial trace over m2."""
    rho = partial_trace_m2(d, frame)
    return QuditState(d=d, rho=(rho + dagger(rho)) / 2)


def sector_support_residual(qs: CoupledBasis, payload) -> float:
    """How far the payload sticks out of the logical sector."""
    return _sector_frame(qs, payload)[1]


def _encoded(qs: CoupledBasis, kind: str, frame: np.ndarray) -> EncodedOperator:
    w, _ = hermitian_eig(frame)
    if w.min() < -PSD_TOL:
        raise ConsistencyError(f"encoded {kind} is not PSD: min eigenvalue {w.min():.3e}")
    return EncodedOperator(n=qs.n, d=qs.d, kind=kind, fingerprint=qs.fingerprint,
                           frame=frame, isometry=qs.isometry)


def encode_state(qs: CoupledBasis, state: QuditState) -> EncodedOperator:
    if state.d != qs.d:
        raise ValidationError(
            f"state dimension {state.d} does not match qudit dimension {qs.d}"
        )
    frame = np.kron(state.rho / qs.d, identity(qs.d))
    trace = np.trace(frame)  # = Tr payload, as K^dag K = I is verified
    if abs(trace - 1) > 1e-10:
        raise ConsistencyError(f"encoded state trace {trace:.15g} != 1")
    return _encoded(qs, "state", frame)


def decode_state(qs: CoupledBasis, enc: EncodedOperator) -> QuditState:
    if enc.fingerprint != qs.fingerprint:
        raise ValidationError(
            "encoded operator was built with a different coupling "
            f"(fingerprint {enc.fingerprint} != {qs.fingerprint})"
        )
    return decode_frame(qs.d, enc.frame)


def decode_payload(qs: CoupledBasis, payload, sector_tol: float = 1e-9) -> QuditState:
    """Decode a raw payload matrix, insisting it lives on the logical sector."""
    inner, residual = _sector_frame(qs, payload)
    if residual > sector_tol:
        raise ValidationError(
            f"payload is not supported on the logical sector "
            f"(residual {residual:.3e} > {sector_tol:g})"
        )
    return decode_frame(qs.d, inner)


def encode_povm(qs: CoupledBasis, povm: QuditPovm) -> list[EncodedOperator]:
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


def build_hws(qs: CoupledBasis) -> HwsPair:
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
    K^dag K = I is verified when the basis is built, so the sector pair obeys
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
