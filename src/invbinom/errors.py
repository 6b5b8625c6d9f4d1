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


def checked_tol(tol: float | None, default: float | None) -> float | None:
    """The tolerance rule of every entry that takes one: ``default`` for None, else
    ``tol`` when it is > 0; ArgumentError for 0, negative values, NaN and non-reals."""
    if tol is None:
        return default
    try:
        if tol > 0.0:
            return tol
    except TypeError as exc:
        raise ArgumentError(f"tol must be a real number, got {tol!r}") from exc
    raise ArgumentError(f"tol must be positive, got {tol!r}")


def checked_number(x, name: str = "x") -> complex:
    """``complex(x)``: ArgumentError for a non-number, DomainError past binary64 (|x| = inf)."""
    try:
        return complex(x)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{name} must be a number, got {x!r}") from exc
    except OverflowError as exc:
        raise DomainError(f"|{name}| = inf: {name} lies past the binary64 range") from exc
