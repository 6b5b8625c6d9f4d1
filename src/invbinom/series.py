"""Inverse binomial coefficient series: domain model and direct summation.

The family evaluated throughout this package is

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3*m*k, m*k))

with integer weight n >= 0, integer stride m >= 1 and complex argument x.
The series converges strictly inside |x| < (27/4)**m, and on the rim
|x| = (27/4)**m once n >= 2 (terms there decay like k**(1/2 - n)).

``sum_direct`` is the reference oracle every other evaluation route in the
package is validated against: terms are built by an exact ratio recurrence
and accumulated with compensated (Kahan) summation, because near the rim a
plain running sum loses digits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

from .errors import ArgumentError, ConvergenceError, DomainError

RADIUS_BASE = 27.0 / 4.0
ENV_MAX_TERMS = "SERIES_MAX_TERMS"
_EPS = 2.220446049250313e-16
_LOG_UNDERFLOW = 2100 * math.log(2.0)  # C(3m, m) above 2**2100 sends every x / C(3m, m) to 0


class Domain(Enum):
    """Position of a parameter triple relative to the convergence disk."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def convergence_radius(m: int) -> float:
    """Radius (27/4)**m of the convergence disk at stride m; inf past binary64 (m >= 372)."""
    if m < 1:
        raise ArgumentError(f"stride m must be >= 1, got {m}")
    try:
        return RADIUS_BASE**m
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SeriesParams:
    """Parameter triple (n, m, x) of S(n, m; x)."""

    n: int
    m: int
    x: complex

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ArgumentError(f"weight n must be >= 0, got {self.n}")
        if self.m < 1:
            raise ArgumentError(f"stride m must be >= 1, got {self.m}")
        object.__setattr__(self, "x", complex(self.x))

    @property
    def radius(self) -> float:
        return convergence_radius(self.m)

    def classify(self) -> Domain:
        ax = abs(self.x)
        radius = self.radius
        if ax < radius:
            return Domain.INTERIOR
        if ax == radius != math.inf:
            return Domain.BOUNDARY
        return Domain.OUTSIDE

    @staticmethod
    def require_summable(n: int, m: int, x: complex) -> complex:
        """The domain rule of every entry point: ``complex(x)`` where S(n, m; x)
        converges, else DomainError naming the bound (ArgumentError for n < 0 or
        m < 1). Static, so that entry points need not build a SeriesParams."""
        if n < 0:
            raise ArgumentError(f"weight n must be >= 0, got {n}")
        xc = complex(x)
        ax, radius = abs(xc), convergence_radius(m)
        if ax < radius or (ax == radius != math.inf and n >= 2):
            return xc
        raise DomainError(
            f"|x| = {ax!r} lies outside the convergence disk |x| < (27/4)**{m} = {radius!r}; "
            f"its rim is summable only for n >= 2, got n = {n}"
        )

    def summable(self) -> bool:
        """True when the series converges at these parameters (rim needs n >= 2)."""
        try:
            self.require_summable(self.n, self.m, self.x)
        except DomainError:
            return False
        return True


@dataclass(frozen=True)
class Evaluation:
    """A computed value with its method tag and error bookkeeping.

    ``work`` counts terms summed or integrand evaluations, whichever the
    route performs. A non-finite value is a construction error, never a
    result.
    """

    value: complex
    abs_error_est: float
    method: str
    work: int

    def __post_init__(self) -> None:
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ArgumentError("evaluation produced a non-finite value")
        if not (math.isfinite(self.abs_error_est) and self.abs_error_est >= 0.0):
            raise ArgumentError("abs_error_est must be finite and >= 0")
        if self.work < 0:
            raise ArgumentError("work must be >= 0")
        object.__setattr__(self, "value", v)


def default_max_terms() -> int:
    """Term cap for ``sum_direct``; overridable via SERIES_MAX_TERMS."""
    raw = os.environ.get(ENV_MAX_TERMS)
    if raw is None:
        return 1_000_000
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ArgumentError(f"{ENV_MAX_TERMS} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ArgumentError(f"{ENV_MAX_TERMS} must be >= 1, got {cap}")
    return cap


def binomial_exact(a: int, b: int) -> int:
    """Exact C(a, b) by the multiplicative recurrence, integer arithmetic only.

    Small-argument oracle for term validation; the upper index is capped at
    400, which covers every term the test grids touch.
    """
    if a < 0 or b < 0:
        raise ArgumentError("binomial arguments must be non-negative")
    if b > a:
        raise ArgumentError(f"binomial lower index {b} exceeds upper index {a}")
    if a > 400:
        raise ArgumentError(f"binomial upper index {a} exceeds the supported cap 400")
    b = min(b, a - b)
    out = 1
    for i in range(1, b + 1):
        out = out * (a - b + i) // i
    return out


def beta_term_identity(k: int) -> float:
    """k * Gamma(k) * Gamma(2k + 1) / Gamma(3k + 1), via log-gamma.

    Equals 1 / C(3k, k); retained purely as a cross-check of the ratio
    recurrence, which is the path that actually does the work.
    """
    if not 1 <= k <= 100:
        raise ArgumentError(f"k must be in [1, 100], got {k}")
    return k * math.exp(math.lgamma(k) + math.lgamma(2 * k + 1) - math.lgamma(3 * k + 1))


def _binomial_step(k: int, m: int) -> float:
    """C(3mk, mk) / C(3m(k+1), m(k+1)) as a float; decreasing, limit (4/27)**m.

    ``math.prod`` with a float start multiplies each factor into a C double in
    order, exactly as a Python loop would, at a fraction of the cost.
    """
    mk = m * k
    den = math.prod(range(3 * mk + 1, 3 * mk + 3 * m + 1), start=1.0)
    if den == math.inf:  # large m: the products overflow, so pair factors into ratios
        lo = math.prod((mk + i) / (3 * mk + i) for i in range(1, m + 1))
        return lo * math.prod((2 * mk + i) / (3 * mk + m + i) for i in range(1, 2 * m + 1))
    num = math.prod(range(mk + 1, mk + m + 1), start=1.0)
    return math.prod(range(2 * mk + 1, 2 * mk + 2 * m + 1), start=num) / den


def _first_term(m: int, x: complex) -> complex:
    """t_1 = x / C(3m, m); exact-integer division once C(3m, m) exceeds binary64."""
    if math.lgamma(3 * m + 1) - math.lgamma(m + 1) - math.lgamma(2 * m + 1) > _LOG_UNDERFLOW:
        return x * 0.0  # |x| < 2**1024, so |t_1| < 2**-1076 rounds to zero (m >= ~763)
    c = math.comb(3 * m, m)
    try:
        return x / c
    except OverflowError:
        re_num, re_den = x.real.as_integer_ratio()
        im_num, im_den = x.imag.as_integer_ratio()
        return complex(re_num / (re_den * c), im_num / (im_den * c))


def terms_needed(n: int, rho: float, rel_tol: float) -> float:
    """Estimate of the terms the stop rule of ``sum_direct`` takes at
    rho = |x| / R**m (within 10% where it takes 20 or more).

    By Stirling, C(3N, N) ~ sqrt(3/(4 pi N)) R**N, so the terms relative to
    the sum behave like rho**k k**(1/2 - n); the estimate is the smallest
    k >= 1 with k ln(rho) + (1/2 - n) ln k <= ln(rel_tol), inf where no k
    gets there (rel_tol <= 0, or the rim with n = 0). Newton's method finds
    the continuous root; the estimate is its ceiling.
    """
    if rel_tol <= 0.0:
        return math.inf
    log_tol = math.log(rel_tol)
    a = math.log(rho) if rho > 0.0 else -math.inf
    b = 0.5 - n
    if a <= log_tol:
        return 1
    if a >= 0.0:  # the rim: rho**k stays 1
        return math.ceil(math.exp(log_tol / b)) if b < 0.0 else math.inf
    k = log_tol / a
    for _ in range(64):
        step = (a * k + b * math.log(k) - log_tol) / (a + b / k)
        k = max(k - step, 1.0)  # k = 1 misses the bound, so the root lies right of it
        if abs(step) <= 1e-12 * k:
            break
    return math.ceil(k)


def term_ratio(k: int, n: int, x: complex) -> complex:
    """Ratio t_{k+1} / t_k of consecutive stride-1 terms.

    Expands to x * (k/(k+1))**n * (k+1)(2k+1)(2k+2) / ((3k+1)(3k+2)(3k+3));
    the modulus tends to 4|x|/27 as k grows.
    """
    return term_ratio_stride(k, n, 1, x)


def term_ratio_stride(k: int, n: int, m: int, x: complex) -> complex:
    """Stride-m term ratio t_{k+1} / t_k, from the Gamma-product form."""
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ArgumentError(f"stride m must be >= 1, got {m}")
    return complex(x) * (k / (k + 1)) ** n * _binomial_step(k, m)


def series_terms(n: int, m: int, x: complex, count: int) -> list[complex]:
    """First ``count`` terms t_k = x**k / (k**n * C(3mk, mk)), built recursively."""
    if count < 0:
        raise ArgumentError("count must be >= 0")
    xc = complex(x)
    terms: list[complex] = []
    if count == 0:
        return terms
    t = _first_term(m, xc)
    for k in range(1, count + 1):
        terms.append(t)
        t *= xc * (k / (k + 1)) ** n * _binomial_step(k, m)
    return terms


def sum_direct(
    params: SeriesParams,
    rel_tol: float = 1e-15,
    max_terms: int | None = None,
) -> Evaluation:
    """Compensated direct summation of S(n, m; x).

    Stops once two consecutive terms fall below ``rel_tol`` times the
    running sum (a single accidentally tiny term must not stop an
    alternating series). Rim parameters (n >= 2) are accepted but decay
    polynomially: where a bound on the needed term count exceeds
    ``max_terms`` (every n = 2 rim point at the default cap) the cap error
    is raised at once; prefer the quadrature route there.

    The error estimate is a geometric tail bound from the last term and
    the current term ratio, plus a rounding floor proportional to the
    accumulated absolute sum, which grows with the stride and with the
    mean term index because the recurrence's roundings compound along k.
    On the rim, where the ratio bound reaches 1, an integral tail bound on
    k**(1/2 - n) is used instead.

    Raises:
        DomainError: outside the disk, or on the rim with n < 2.
        ConvergenceError: ``max_terms`` exhausted before the stop rule hit.
    """
    SeriesParams.require_summable(params.n, params.m, params.x)
    if rel_tol <= 0.0:
        raise ArgumentError("rel_tol must be positive")
    if max_terms is None:
        max_terms = default_max_terms()
    if max_terms < 1:
        raise ArgumentError("max_terms must be >= 1")

    n, m, x = params.n, params.m, params.x
    if x == 0:
        return Evaluation(0j, 0.0, "direct-sum", 0)
    rim = params.classify() is Domain.BOUNDARY
    # Robbins' Stirling bounds give sqrt(3/(4 pi N)) R**N e**(-1/(8N)) <=
    # C(3N, N) <= sqrt(3/(4 pi N)) R**N, so with c = sqrt(4 pi m / 3) every rim
    # term has |t_k| >= c k**(1/2 - n) while every partial sum stays below
    # e**(1/8) c zeta(n - 1/2) < 2 c (1 + 1/(n - 3/2)): the stop rule cannot
    # hold before the rho = 1 estimate at that tolerance.
    if rim and terms_needed(n, 1.0, 2.0 * rel_tol * (1.0 + 1.0 / (n - 1.5))) > max_terms:
        raise _term_cap_error(rel_tol, max_terms, rim)

    t = _first_term(m, x)
    if t == 0:  # underflow (subnormal x or huge m); every later term is smaller still
        return Evaluation(t, 0.0, "direct-sum", 1)
    total = 0j
    comp = 0j
    abs_sum = 0.0
    small = 0
    for k in range(1, max_terms + 1):
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        at = abs(t)
        abs_sum += at
        if at <= rel_tol * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        t *= x * (k / (k + 1)) ** n * _binomial_step(k, m)  # the term_ratio_stride expression
    else:
        raise _term_cap_error(rel_tol, max_terms, rim)
    work = k

    # _binomial_step decreases in k, and (k/(k+1))**n <= 1, so this bounds
    # every remaining ratio.
    r = abs(x) * _binomial_step(work, m)
    if r < 1.0:
        tail = abs(t) * r / (1.0 - r)
        mean_k = min(work, 2.0 / (1.0 - r))
    else:
        tail = abs(t) * work / max(n - 1.5, 0.5)
        mean_k = work
    # Each ratio carries about 6m + n + 3 roundings, so t_k drifts from the true
    # term by a random walk of k - 1 such steps, of standard deviation about
    # _EPS sqrt((6m + n + 3) k / 12). Terms shaped like rho**k k**(1/2 - n) have
    # their |t|-weighted mean index below 2 / (1 - rho) <= 2 / (1 - r); the floor
    # takes 3.5 deviations at that index, on top of 4 _EPS for the first term
    # and the compensated sum.
    drift = math.sqrt((6 * m + n + 3) * mean_k)
    return Evaluation(total, tail + (4.0 + drift) * _EPS * abs_sum, "direct-sum", work)


def _term_cap_error(rel_tol: float, max_terms: int, rim: bool) -> ConvergenceError:
    hint = " (rim arguments decay polynomially; use the quadrature route)" if rim else ""
    return ConvergenceError(
        f"series did not meet rel_tol={rel_tol:g} within {max_terms} terms{hint}"
    )
