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
sector frame K^dag payload K = A (x) I_d (A = rho/d or the POVM element) and
builds the payload on request; decoding is the partial trace over m2 of the
frame. Outcome probabilities and (up to the additive log2(d) from the mixed
factor) entropies survive the round trip, which is what makes the
construction a faithful qudit.

Column (lambda, m2) of K lives on the product kets of Hamming weight
w = n/2 - m2 alone, and the basis stores K as those d weight blocks B_m2 of
C(n, w) x d each (CoupledBasis.blocks, paired with their rows in
CoupledBasis.weight_classes), so a payload K (A (x) I_d) K^dag is
block-diagonal in w: B A B^dag on each class, zero between classes and on
the all-up and all-down kets. CoupledBasis.lift_blocks builds those blocks
alone, one class at a time, for one A or a stack of trials, and
CoupledBasis.compress_lifted takes them back to the class frames B^dag P B,
each trial's residual held to SECTOR_TOL: verify's round-trip, entropy and
Born rows and encode's Born table read encoded payloads that way. The
entry points of this module stay dense: EncodedOperator.payload, HwsPair.u/.v,
and the sector projector and matrix units of the basis are the blocks
scattered into 2**n x 2**n matrices (CoupledBasis.lift), and decode_payload
compresses a raw payload P, which may hold coherences between m2 values, to
the full C = K^dag P K one weight class at a time, with its residual
|P - K C K^dag| taken in row strips (CoupledBasis.compress): d times fewer
flops than the dense products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import SECTOR_TOL, CoupledBasis, partial_trace_m2, require_sector_isometry
from .errors import (
    ConsistencyError,
    ContractViolationError,
    ValidationError,
    require_integer,
    require_none,
)
from .linalg import dagger, hermitian_eigvals, identity, max_abs_diff

PSD_TOL = 1e-10

# The verified basis is the Q set; build_q_set re-checks its gate on a given
# basis, reading the residuals that basis computed once (CoupledBasis.gate_residuals).
build_q_set = require_sector_isometry


@dataclass(frozen=True)
class QuditState:
    """A d-dimensional density matrix (hermitian, PSD, trace one)."""

    d: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        # Kept as a Python int, so a NumPy integer echoes into a report as an int.
        object.__setattr__(self, "d", require_integer(self.d, "d", 1))
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise ValidationError(
                f"state must be {self.d}x{self.d}, got {rho.shape}"
            )
        require_density(rho)
        object.__setattr__(self, "rho", rho)


def _hermiticity_deviations(stack: np.ndarray) -> np.ndarray:
    """max |A - A^dag| of each matrix A of a stack (m, d, d)."""
    return np.abs(stack - dagger(stack)).max(axis=(1, 2))


def require_density(rho: np.ndarray, name: str = "state") -> None:
    """Raise ValidationError unless rho, or each matrix of a stack (T, d, d), is a
    density matrix: hermitian within 1e-12, trace one within 1e-12, PSD within
    PSD_TOL. A stack's error names its first failing matrix by index."""
    stack = rho.reshape((-1,) + rho.shape[-2:])

    def require(bad: np.ndarray, text) -> None:
        require_none(bad, lambda i: f"{name if rho.ndim == 2 else f'{name} [{i}]'} {text(i)}",
                     ValidationError)

    deviation = _hermiticity_deviations(stack)
    require(deviation > 1e-12, lambda i: f"is not hermitian (deviation {deviation[i]:.3e})")
    trace = np.trace(stack, axis1=1, axis2=2)
    require(abs(trace - 1) > 1e-12, lambda i: f"trace is {trace[i]:.15g}, expected 1")
    w = hermitian_eigvals(stack)
    require(w[:, 0] < -PSD_TOL, lambda i: f"is not PSD: min eigenvalue {w[i, 0]:.3e}")


def require_decoded(traced: np.ndarray) -> np.ndarray:
    """The hermitian parts of a stack (T, d, d) of decoded states, each checked by
    require_density; a failure is a failed encoding (ConsistencyError)."""
    decoded = (traced + dagger(traced)) / 2
    try:
        require_density(decoded, "decoded state")
    except ValidationError as exc:
        raise ConsistencyError(f"the encoded payload fails to decode: {exc}") from exc
    return decoded


@dataclass(frozen=True)
class QuditPovm:
    """A list of d x d PSD elements summing to the d-dimensional identity."""

    d: int
    elements: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d", require_integer(self.d, "d", 1))
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise ValidationError("POVM needs at least one element")
        for k, e in enumerate(elems):
            if e.shape != (self.d, self.d):
                raise ValidationError(
                    f"POVM element {k} must be {self.d}x{self.d}, got {e.shape}"
                )
        stack = np.stack(elems)
        require_none(_hermiticity_deviations(stack) > 1e-12,
                     lambda k: f"POVM element {k} is not hermitian", ValidationError)
        w = hermitian_eigvals(stack)
        require_none(w[:, 0] < -PSD_TOL,
                     lambda k: f"POVM element {k} is not PSD: min eigenvalue {w[k, 0]:.3e}",
                     ValidationError)
        deviation = max_abs_diff(stack.sum(axis=0), identity(self.d))
        if deviation > 1e-10:
            raise ValidationError(
                f"POVM elements sum to the identity only within {deviation:.3e} (> 1e-10)"
            )
        object.__setattr__(self, "elements", elems)


@dataclass(frozen=True)
class EncodedOperator:
    """A logical state or POVM element held as its sector frame
    A (x) I_d = K^dag payload K (A = rho/d for a state)."""

    n: int
    d: int
    kind: str  # "state" | "povm-element"
    fingerprint: str
    frame: np.ndarray = field(repr=False)
    basis: CoupledBasis = field(repr=False)  # shares its read-only K

    @property
    def payload(self) -> np.ndarray:
        """The 2**n x 2**n physical operator K (A (x) I_d) K^dag, lifted from A:
        the frame's entries at m2 = j2, as every m2 block of A (x) I_d is A."""
        return self.basis.lift(self.frame[::self.d, ::self.d])


def decode_frame(d: int, frame: np.ndarray) -> QuditState:
    """The logical state of a d**2 x d**2 sector frame: its partial trace over m2."""
    rho = partial_trace_m2(d, frame)
    return QuditState(d=d, rho=(rho + dagger(rho)) / 2)


def _encoded(qs: CoupledBasis, kind: str, logical: np.ndarray) -> list[EncodedOperator]:
    """One operator with frame A (x) I_d per logical factor A of the stack (m, d, d).

    spec(A (x) I_d) = spec(A), so one stacked eigvalsh of the d x d factors checks
    every frame for PSD; the error names the first failing one.
    """
    w = hermitian_eigvals(logical)
    require_none(w[:, 0] < -PSD_TOL,
                 lambda i: f"encoded {kind} is not PSD: min eigenvalue {w[i, 0]:.3e}",
                 ConsistencyError)
    return [EncodedOperator(n=qs.n, d=qs.d, kind=kind, fingerprint=qs.fingerprint,
                            frame=frame, basis=qs)
            for frame in encoded_frames(logical)]


def encoded_frames(logical: np.ndarray) -> np.ndarray:
    """The sector frames A (x) I_d of the logical factors A of a stack (m, d, d)."""
    m, d = logical.shape[:2]
    # np.kron(A, I_d) of each factor, as one product per entry
    return np.einsum("mij,kl->mikjl", logical, identity(d)).reshape(m, d * d, d * d)


def encode_state(qs: CoupledBasis, state: QuditState) -> EncodedOperator:
    if state.d != qs.d:
        raise ValidationError(
            f"state dimension {state.d} does not match qudit dimension {qs.d}"
        )
    logical = state.rho / qs.d
    trace = qs.d * np.trace(logical)  # = Tr payload, as K^dag K = I is verified
    if abs(trace - 1) > 1e-10:
        raise ConsistencyError(f"encoded state trace {trace:.15g} != 1")
    return _encoded(qs, "state", logical[None])[0]


def decode_state(qs: CoupledBasis, enc: EncodedOperator) -> QuditState:
    if enc.fingerprint != qs.fingerprint:
        raise ValidationError(
            "encoded operator was built with a different coupling "
            f"(fingerprint {enc.fingerprint} != {qs.fingerprint})"
        )
    return decode_frame(qs.d, enc.frame)


def decode_payload(qs: CoupledBasis, payload) -> QuditState:
    """Decode a raw payload matrix, insisting it lives on the logical sector (SECTOR_TOL)."""
    inner, residual = qs.compress(payload)
    if residual > SECTOR_TOL:
        raise ValidationError(
            f"payload is not supported on the logical sector "
            f"(residual {residual:.3e} > {SECTOR_TOL:g})"
        )
    return decode_frame(qs.d, inner)


def encode_povm(qs: CoupledBasis, povm: QuditPovm) -> list[EncodedOperator]:
    if povm.d != qs.d:
        raise ValidationError(
            f"POVM dimension {povm.d} does not match qudit dimension {qs.d}"
        )
    logical = np.stack(povm.elements)
    encoded = _encoded(qs, "povm-element", logical)
    # The frames are A (x) I_d: they sum to I_(d**2) as closely as the A sum to I_d.
    if max_abs_diff(logical.sum(axis=0), identity(qs.d)) > 1e-10:
        raise ConsistencyError(
            "encoded POVM elements do not sum to the sector projector"
        )
    return encoded


@dataclass(frozen=True)
class HwsPair:
    """The unitary clock/shift pair on the logical sector.

    clock and shift are the d x d logical pair; u = K (clock (x) I) K^dag and
    v = K (shift (x) I) K^dag are lifted on access by the basis, which shares
    its read-only K.
    """

    d: int
    omega: complex
    clock: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    basis: CoupledBasis = field(repr=False)

    @property
    def u(self) -> np.ndarray:
        return self.basis.lift(self.clock)

    @property
    def v(self) -> np.ndarray:
        return self.basis.lift(self.shift)


def build_hws(qs: CoupledBasis) -> HwsPair:
    """U = sum omega_d**lambda Q_ll, V = sum Q_{l,l+1} + Q_{d,1}, verified."""
    d = qs.d
    if d < 2:
        raise ContractViolationError(f"the HWS pair needs d >= 2, got d={d}")
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(1, d + 1))
    shift = np.roll(identity(d), 1, axis=1)  # |lambda><lambda+1|, |d><1|
    pair = HwsPair(d=d, omega=omega, clock=clock, shift=shift, basis=qs)
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
    # every (j, k) at once, j down the first axis and k along the second
    u_pows, v_pows = np.array(u_pow[1:])[:, None], np.array(v_pow[1:])
    j = np.arange(1, pair.d + 1)
    phases = (pair.omega ** -np.outer(j, j))[..., None, None]
    return max(max_abs_diff(u_pow[-1], eye), max_abs_diff(v_pow[-1], eye),
               max_abs_diff(u_pows @ v_pows, phases * (v_pows @ u_pows)))
