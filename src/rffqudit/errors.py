"""Exception hierarchy for the rffqudit package.

Every error raised by the library derives from RffError so callers (and the
CLI) can map failures onto the documented exit codes: validation/usage
problems versus failed mathematical checks.
"""

from __future__ import annotations


class RffError(Exception):
    """Base class for all rffqudit errors."""


class SizeLimitError(RffError):
    """A requested register or report is larger than the package builds:
    spinsys.MAX_CONSTITUENTS constituents, cli.MAX_REPORT_ENTRIES payload entries."""


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
