"""Dense complex linear algebra kernel.

All operators and kets in the package are dense row-major complex128 numpy
arrays. This module provides construction, adjoints, products of a stack
with one shared matrix, hermitian eigendecomposition and spectra, partial
traces, matrix exponentials of hermitian generators, max-norm comparisons,
entropy/fidelity helpers, and the JSON interchange format shared by every
module and the CLI.

Everything here is a pure function of its inputs; the module holds no state.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalError, ValidationError

HERMITICITY_TOL = 1e-12


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


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(as_matrices(a).conj(), -1, -2)


def stack_at_shared(stack, shared) -> np.ndarray:
    """stack @ shared for a matrix or a stack (..., m, k) and one (k, p) matrix
    that every matrix of the stack shares, as one product of the stack's rows.

    A stacked @ calls BLAS once per matrix; here the stack is viewed as one
    (T m, k) matrix, so a stack of small matrices costs one call. Each row
    still meets the same columns of shared, so a matrix's entries do not
    depend on how many matrices share the call, and they equal the stacked
    @'s bit for bit (tests/test_linalg.py).
    """
    stack = np.asarray(stack)
    rows = stack.reshape(-1, stack.shape[-1]) @ shared
    return rows.reshape(stack.shape[:-1] + rows.shape[-1:])


def shared_at_stack(shared, stack) -> np.ndarray:
    """shared @ stack for one (m, k) matrix and a matrix or a stack (..., k, p),
    as (stack^T shared^T)^T: one product of the transposed stack's rows
    (stack_at_shared). The operands meet in the other order, so an entry may
    differ from the stacked @'s in the last bit. Returns a transposed view.
    """
    return np.swapaxes(stack_at_shared(np.swapaxes(stack, -1, -2), np.transpose(shared)),
                       -1, -2)


def max_abs_diff(a, b) -> float:
    """Max-norm of the entrywise difference (the package-wide comparison)."""
    return float(np.max(np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))))


def hermitian_eig(a):
    """Eigendecomposition of a hermitian matrix, or of each in a stack (..., m, m).

    Returns (eigenvalues ascending as a real array, eigenvector matrices V
    with columns matching the eigenvalue order), so that a @ V = V @ diag(w).
    A stack is checked as a whole: its worst hermiticity deviation must be
    within HERMITICITY_TOL.
    """
    w, v = _checked_spectrum(np.linalg.eigh, a)
    return w, v


def hermitian_eigvals(a) -> np.ndarray:
    """The eigenvalues of hermitian_eig(a), ascending, without the eigenvectors.

    The same checks and errors as hermitian_eig, through one eigvalsh call.
    """
    return _checked_spectrum(np.linalg.eigvalsh, a)


def _checked_spectrum(routine, a):
    """routine (eigh or eigvalsh) of a square matrix or stack that is hermitian
    within HERMITICITY_TOL; a failed or non-finite result is a NumericalError."""
    a = as_matrices(a)
    if a.shape[-2] != a.shape[-1]:
        raise ContractViolationError(f"matrix is not square: {a.shape}")
    deviation = max_abs_diff(a, np.swapaxes(a.conj(), -1, -2))
    if deviation > HERMITICITY_TOL:
        raise ContractViolationError(
            f"matrix is not hermitian within {HERMITICITY_TOL:g} (deviation {deviation:.3e})"
        )
    try:
        result = routine(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not all(np.isfinite(part).all() for part in
               (result if isinstance(result, tuple) else (result,))):
        raise NumericalError("eigendecomposition produced non-finite output")
    return result


def mat_exp_hermitian_generator(h, t) -> np.ndarray:
    """exp(-i*t*h) for hermitian h, via spectral decomposition.

    For an array of times t (...), returns the stack (..., m, m) of
    exponentials from one eigendecomposition of h; a stack h (T, m, m) with
    times t (T,) gives the stack of exp(-i t_k h_k).
    """
    w, v = hermitian_eig(h)
    phases = np.exp(-1j * np.asarray(t)[..., None] * w)
    return (v * phases[..., None, :]) @ dagger(v)


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


def entropy_bits(rho):
    """Von Neumann entropy in bits, with 0*log(0) = 0: a float for a matrix,
    one entropy per matrix for a stack (..., m, m).

    Eigenvalues in [-1e-10, 0) are clipped to 0; anything more negative is
    a contract violation (the input was not positive semidefinite).
    """
    w = hermitian_eigvals(rho)
    if w.min() < -1e-10:
        raise ContractViolationError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e}"
        )
    w = np.clip(w, 0.0, None)
    terms = -w * np.log2(w, out=np.zeros_like(w), where=w > 0)
    return float(terms.sum()) if w.ndim == 1 else terms.sum(axis=-1)


def _drop_round_off(w: np.ndarray, scale) -> np.ndarray:
    """Zero the eigenvalues below eigh's round-off floor, dim * eps * scale.

    Such values are zero to working precision; their square roots (3e-9 for
    1e-17) would otherwise add a spurious rank to a square root. For a stack
    of spectra w (..., dim), scale holds one value per spectrum (...).
    """
    floor = w.shape[-1] * np.finfo(float).eps * np.asarray(scale)[..., None]
    return np.where(w > floor, w, 0.0)


def sqrtm_psd(a) -> np.ndarray:
    """Principal square root of a PSD hermitian matrix (eigenvalues >= -1e-10)."""
    w, v = hermitian_eig(a)
    if w.min() < -1e-10:
        raise ContractViolationError(
            f"matrix is not PSD: min eigenvalue {w.min():.3e}"
        )
    w = _drop_round_off(w, float(np.abs(w).max()))
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho, sigma):
    """F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2.

    For a stack of sigmas (T, m, m), returns the T fidelities as an array,
    with sqrt(rho) computed once and sqrt(rho) (sigma sqrt(rho)) taken as
    two products over the whole stack, each the same for a stack of one.
    """
    r = sqrtm_psd(rho)
    s = as_matrices(sigma)
    inner = shared_at_stack(r, stack_at_shared(s, r))
    # Round-off leaves eigenvalues of either sign near zero in the product;
    # its scale is ||r||**2 ||sigma|| (Frobenius norms bound the 2-norms),
    # one scale per sigma.
    w = hermitian_eigvals((inner + dagger(inner)) / 2)
    w = _drop_round_off(w, np.linalg.norm(r) ** 2 * np.linalg.norm(s, axis=(-2, -1)))
    # float_power squares through pow(), as a scalar ** 2 does; an array's
    # ** 2 is x * x, which can differ in the last bit.
    f = np.float_power(np.sqrt(w).sum(axis=-1), 2)
    return float(f) if f.ndim == 0 else f


def trace_distance(rho, sigma):
    """(1/2) * trace norm of (rho - sigma) for hermitian inputs.

    For a stack of sigmas (T, m, m), returns the T distances as an array.
    """
    w = hermitian_eigvals(as_matrix(rho) - as_matrices(sigma))
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


def _is_number(x, kinds) -> bool:
    """x is an instance of kinds and not a bool (JSON true/false are not numbers)."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def matrix_from_json_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("matrix JSON must be an object")
    missing = {"rows", "cols", "data"} - set(obj)
    if missing:
        raise ValidationError(f"matrix JSON missing fields: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    if not all(_is_number(x, int) and x > 0 for x in (rows, cols)):
        raise ValidationError("matrix JSON rows/cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list):
        raise ValidationError("matrix JSON data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix JSON data length {len(data)} != rows*cols = {rows * cols}"
        )
    try:
        pairs = [(re, im) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix JSON entries must be [re, im] pairs: {exc}") from exc
    if not all(_is_number(x, (int, float)) for pair in pairs for x in pair):
        raise ValidationError("matrix JSON entries must be [re, im] pairs of numbers")
    try:
        flat = [complex(float(re), float(im)) for re, im in pairs]
    except OverflowError as exc:
        raise ValidationError(f"matrix JSON entry out of range: {exc}") from exc
    m = np.array(flat, dtype=complex).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ValidationError("matrix JSON contains non-finite entries")
    return m
