"""Dense complex linear algebra kernel.

All operators and kets in the package are dense row-major complex128 numpy
arrays. This module provides construction, tensor products, adjoints,
hermitian eigendecomposition, partial traces, matrix exponentials of
hermitian generators, max-norm comparisons, entropy/fidelity helpers, and
the JSON interchange format shared by every module and the CLI.

Everything here is a pure function of its inputs; the only module state is
the dimension ceiling, read once from the RFF_MAX_N environment variable at
import and adjustable through set_max_constituents().
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import (
    ContractViolationError,
    NumericalError,
    SizeLimitError,
    ValidationError,
)

DEFAULT_MAX_CONSTITUENTS = 12
HERMITICITY_TOL = 1e-12

_max_constituents = DEFAULT_MAX_CONSTITUENTS


def _read_env_ceiling() -> None:
    global _max_constituents
    raw = os.environ.get("RFF_MAX_N")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"RFF_MAX_N must be an integer, got {raw!r}") from exc
    set_max_constituents(value)


def set_max_constituents(n: int) -> None:
    """Set the largest supported register size (dimension ceiling 2**n)."""
    global _max_constituents
    if not 2 <= n <= 14:
        raise ValidationError(f"max constituents must be in 2..14, got {n}")
    _max_constituents = n


def get_max_constituents() -> int:
    return _max_constituents


def dimension_ceiling() -> int:
    return 2 ** _max_constituents


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ContractViolationError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ContractViolationError("matrix contains NaN/Inf entries")
    return m


def as_matrices(a) -> np.ndarray:
    """as_matrix for a matrix; a stack (..., m, k) is coerced and checked alike."""
    if np.ndim(a) < 3:
        return as_matrix(a)
    m = np.asarray(a, dtype=complex)
    if not np.isfinite(m).all():
        raise ContractViolationError("matrix contains NaN/Inf entries")
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the configured dimension ceiling enforced."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    limit = dimension_ceiling()
    if max(rows, cols) > limit:
        raise SizeLimitError(
            f"requested {rows}x{cols} matrix exceeds the ceiling {limit}"
        )
    return np.kron(a, b)


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(as_matrices(a).conj(), -1, -2)


def max_abs_diff(a, b) -> float:
    """Max-norm of the entrywise difference (the package-wide comparison)."""
    return float(np.max(np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))))


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    a = as_matrices(a)
    return a.shape[-2] == a.shape[-1] and max_abs_diff(a, dagger(a)) <= tol


def hermitian_eig(a, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a hermitian matrix, or of each in a stack (..., m, m).

    Returns (eigenvalues ascending as a real array, eigenvector matrices V
    with columns matching the eigenvalue order), so that a @ V = V @ diag(w).
    A stack is checked as a whole: its worst hermiticity deviation must be
    within tol.
    """
    a = as_matrices(a)
    if a.shape[-2] != a.shape[-1]:
        raise ContractViolationError(f"matrix is not square: {a.shape}")
    if not is_hermitian(a, tol):
        raise ContractViolationError(
            f"matrix is not hermitian within {tol:g} "
            f"(deviation {max_abs_diff(a, dagger(a)):.3e})"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise NumericalError("eigendecomposition produced non-finite output")
    return w, v


def mat_exp_hermitian_generator(h, t) -> np.ndarray:
    """exp(-i*t*h) for hermitian h, via spectral decomposition.

    For an array of times t (...), returns the stack (..., m, m) of
    exponentials from one eigendecomposition of h.
    """
    w, v = hermitian_eig(h)
    phases = np.exp(-1j * np.asarray(t)[..., None] * w)
    return (v * phases[..., None, :]) @ v.conj().T


def partial_trace(a, n_factors: int, traced_factor: int) -> np.ndarray:
    """Trace out one qubit factor of a 2**n-dimensional operator.

    Factors are numbered 1..n with factor 1 the leftmost (most significant)
    tensor slot; the remaining factors keep their relative order.
    """
    a = as_matrix(a)
    dim = 2 ** n_factors
    if a.shape != (dim, dim):
        raise ContractViolationError(
            f"expected {dim}x{dim} for {n_factors} factors, got {a.shape}"
        )
    if not 1 <= traced_factor <= n_factors:
        raise ContractViolationError(
            f"traced factor {traced_factor} out of range 1..{n_factors}"
        )
    tens = a.reshape([2] * (2 * n_factors))
    tens = np.trace(tens, axis1=traced_factor - 1, axis2=n_factors + traced_factor - 1)
    half = dim // 2
    return tens.reshape(half, half)


def entropy_bits(rho, clip_tol: float = 1e-10) -> float:
    """Von Neumann entropy in bits, with 0*log(0) = 0.

    Eigenvalues in [-clip_tol, 0) are clipped to 0; anything more negative is
    a contract violation (the input was not positive semidefinite).
    """
    w, _ = hermitian_eig(rho)
    if w.min() < -clip_tol:
        raise ContractViolationError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e}"
        )
    w = np.clip(w, 0.0, None)
    nz = w[w > 0]
    return float(-(nz * np.log2(nz)).sum())


def _drop_round_off(w: np.ndarray, scale) -> np.ndarray:
    """Zero the eigenvalues below eigh's round-off floor, dim * eps * scale.

    Such values are zero to working precision; their square roots (3e-9 for
    1e-17) would otherwise add a spurious rank to a square root. For a stack
    of spectra w (..., dim), scale holds one value per spectrum (...).
    """
    floor = w.shape[-1] * np.finfo(float).eps * np.asarray(scale)[..., None]
    return np.where(w > floor, w, 0.0)


def sqrtm_psd(a, clip_tol: float = 1e-10) -> np.ndarray:
    """Principal square root of a PSD hermitian matrix."""
    w, v = hermitian_eig(a)
    if w.min() < -clip_tol:
        raise ContractViolationError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e}"
        )
    w = _drop_round_off(w, float(np.abs(w).max()))
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho, sigma):
    """F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2.

    For a stack of sigmas (T, m, m), returns the T fidelities as an array,
    with sqrt(rho) computed once.
    """
    r = sqrtm_psd(rho)
    s = as_matrices(sigma)
    inner = r @ s @ r
    # Round-off leaves eigenvalues of either sign near zero in the product;
    # its scale is ||r||**2 ||sigma|| (Frobenius norms bound the 2-norms),
    # one scale per sigma.
    w, _ = hermitian_eig((inner + dagger(inner)) / 2)
    w = _drop_round_off(w, np.linalg.norm(r) ** 2 * np.linalg.norm(s, axis=(-2, -1)))
    # float_power squares through pow(), as a scalar ** 2 does; an array's
    # ** 2 is x * x, which can differ in the last bit.
    f = np.float_power(np.sqrt(w).sum(axis=-1), 2)
    return float(f) if f.ndim == 0 else f


def trace_distance(rho, sigma):
    """(1/2) * trace norm of (rho - sigma) for hermitian inputs.

    For a stack of sigmas (T, m, m), returns the T distances as an array.
    """
    w, _ = hermitian_eig(as_matrix(rho) - as_matrices(sigma))
    dist = np.abs(w).sum(axis=-1) / 2
    return float(dist) if dist.ndim == 0 else dist


def matrix_to_json_dict(a) -> dict:
    """Encode a matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_json_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("matrix JSON must be an object")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise ValidationError(f"matrix JSON missing fields: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ValidationError("matrix JSON rows/cols must be positive integers")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix JSON data length {len(data)} != rows*cols = {rows * cols}"
        )
    try:
        flat = [complex(float(re), float(im)) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix JSON entries must be [re, im] pairs: {exc}") from exc
    m = np.array(flat, dtype=complex).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ValidationError("matrix JSON contains non-finite entries")
    return m


def matrix_to_json(a, **dumps_kwargs) -> str:
    return json.dumps(matrix_to_json_dict(a), **dumps_kwargs)


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return matrix_from_json_dict(obj)


_read_env_ceiling()
