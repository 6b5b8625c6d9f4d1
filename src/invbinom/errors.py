"""Exception taxonomy shared by every module in the package, and the tolerance rule."""

from __future__ import annotations


class SeriesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SeriesError):
    """Arguments outside the region where an operation is defined."""


class ArgumentError(SeriesError):
    """Structurally invalid arguments (wrong range, wrong shape)."""


class ConvergenceError(SeriesError):
    """An iteration or subdivision budget ran out before the tolerance was met."""


class PoleError(SeriesError):
    """Evaluation requested exactly at a pole."""


class BranchFailure(SeriesError):
    """A branch-cut consistency check failed; the result was not silently kept."""


def checked_tol(tol: float | None, default: float | None) -> float | None:
    """The tolerance rule of every entry that takes one: ``default`` for None, else
    ``tol`` when it is > 0; ArgumentError for 0, negative values and NaN."""
    if tol is None:
        return default
    if tol > 0.0:
        return tol
    raise ArgumentError(f"tol must be positive, got {tol!r}")
