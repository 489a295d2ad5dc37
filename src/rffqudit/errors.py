"""Exception hierarchy for the rffqudit package.

Every error raised by the library derives from RffError so callers (and the
CLI) can map failures onto the documented exit codes: validation/usage
problems versus failed mathematical checks. require_none is the one spelling
of "raise for the first failing index" that every module's checks share,
require_integer the one rule for an integer argument and require_real the
one for a real one.
"""

from __future__ import annotations

from numbers import Integral, Real


class RffError(Exception):
    """Base class for all rffqudit errors."""


class SizeLimitError(RffError):
    """A requested register or report is larger than the package builds:
    spinsys.MAX_CONSTITUENTS constituents, cli.MAX_REPORT_ENTRIES weight-class entries."""


class ContractViolationError(RffError):
    """An input violates a documented precondition (e.g. non-hermitian)."""


class ValidationError(RffError):
    """External data (state, POVM, coupling matrix, file) failed validation."""


class ConsistencyError(RffError):
    """An internal cross-check failed (construction does not satisfy its

    own defining algebra). Signals a bug or a corrupted build, never bad
    user input.
    """


class NumericalError(RffError):
    """A numerical routine failed to converge or produced non-finite data."""


def require_none(bad, message, error: type[RffError]) -> None:
    """Raise error(message(i)) for the first index i at which the boolean array bad holds."""
    if bad.any():
        raise error(message(int(bad.argmax())))


def require_integer(value, name: str, least: int) -> int:
    """value as a Python int; ValidationError unless it is an integer >= least. A
    NumPy integer is one; a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def require_real(value, name: str) -> float:
    """value as a Python float; ValidationError unless it is a real number. A NumPy
    float or integer is one; a bool or a string is not. Its range is the caller's."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)
