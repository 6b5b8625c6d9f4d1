"""Inverse binomial coefficient series: domain model and direct summation.

The family evaluated throughout this package is

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3*m*k, m*k))

with integer weight n >= 0, integer stride m >= 1 and complex argument x.
The series converges strictly inside |x| < (27/4)**m, and on the rim
|x| = (27/4)**m once n >= 2 (terms there decay like k**(1/2 - n)).

``sum_direct`` is the reference oracle every other evaluation route in the
package is validated against. Its terms come from the ratio recurrence, each
stride-m ratio the in-order product of m correctly rounded stride-1 factors.
Those factors form one sequence f_0, f_1, ... for every m and x; its first
_FACTOR_TABLE values are an immutable tuple built at import, so a block of
ratios is slices of that table multiplied in C-level passes (``map``), with
no integer arithmetic per term. The sum is correctly rounded (``math.fsum``),
because near the rim a plain running sum loses digits.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice, repeat
from operator import attrgetter, le, mul, truediv
from typing import Iterator

from .errors import ArgumentError, ConvergenceError, DomainError

RADIUS_BASE = 27.0 / 4.0
ENV_MAX_TERMS = "SERIES_MAX_TERMS"
_EPS = 2.220446049250313e-16
_LOG_UNDERFLOW = 2100 * math.log(2.0)  # C(3m, m) above 2**2100 sends every x / C(3m, m) to 0
_REAL = attrgetter("real")
_IMAG = attrgetter("imag")


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
        convergence_radius(self.m)  # ArgumentError for m < 1
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
        if _inside(n, ax, radius):
            return xc
        raise DomainError(
            f"|x| = {ax!r} lies outside the convergence disk |x| < (27/4)**{m} = {radius!r}; "
            f"its rim is summable only for n >= 2, got n = {n}"
        )

    def summable(self) -> bool:
        """True when the series converges at these parameters (rim needs n >= 2)."""
        return _inside(self.n, abs(self.x), self.radius)


def _inside(n: int, ax: float, radius: float) -> bool:
    """The test of ``require_summable``, for entries that already hold |x| and the radius."""
    return ax < radius or (ax == radius != math.inf and n >= 2)


class Evaluation(namedtuple("_Evaluation", "value abs_error_est method work")):
    """A computed value (complex) with its error estimate, method tag and work: an
    immutable NamedTuple built by one checked constructor.

    ``work`` counts terms summed or integrand evaluations, whichever the
    route performs. A non-finite value is a construction error, never a
    result.
    """

    __slots__ = ()

    def __new__(cls, value: complex, abs_error_est: float, method: str, work: int):
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ArgumentError("evaluation produced a non-finite value")
        if not 0.0 <= abs_error_est < math.inf:  # False for NaN too
            raise ArgumentError("abs_error_est must be finite and >= 0")
        if work < 0:
            raise ArgumentError("work must be >= 0")
        return tuple.__new__(cls, (v, abs_error_est, method, work))

    @classmethod
    def _make(cls, iterable) -> Evaluation:  # ``_replace`` builds through it: keep the checks
        return cls(*iterable)


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


def _computed_factors(j0: int, j1: int) -> Iterator[float]:
    """The stride-1 factors f_j = C(3j, j) / C(3j+3, j+1) = (2j+2)(2j+1) / ((9j+3)(3j+2))
    for j0 <= j < j1, each one correctly rounded division of exact integer products."""
    num = map(mul, range(2 * j0 + 2, 2 * j1 + 2, 2), range(2 * j0 + 1, 2 * j1 + 1, 2))
    den = map(mul, range(9 * j0 + 3, 9 * j1 + 3, 9), range(3 * j0 + 2, 3 * j1 + 2, 3))
    return map(truediv, num, den)


# f_j for j < _FACTOR_TABLE, built once at import (under 1 ms) and never changed. The
# direct sums ``auto`` picks by their cost (at most DIRECT_TERM_BUDGET * m = 50m terms
# predicted) stay below j = 3,624 up to m = 8.
_FACTOR_TABLE = 1 << 12
_FACTORS = tuple(_computed_factors(0, _FACTOR_TABLE))
# ``_stride_factors`` nests one ``map`` per offset and materialises the chain every this
# many, since a chain of about 10**5 (any m >= 1 is valid) overflows the C stack.
_MAP_DEPTH = 512


def _factors(j0: int, j1: int) -> tuple[float, ...]:
    """f_j for j0 <= j < j1: slices of ``_FACTORS``, computed past its end."""
    if j1 <= _FACTOR_TABLE:
        return _FACTORS[j0:j1]
    return _FACTORS[j0:j1] + tuple(_computed_factors(max(j0, _FACTOR_TABLE), j1))


def _stride_factors(k0: int, k1: int, m: int) -> list[float]:
    """C(3mk, mk) / C(3m(k+1), m(k+1)) for k0 <= k < k1; decreasing, limit (4/27)**m.

    Each is the product, in order, of the stride-1 factors f_mk .. f_{mk+m-1}.
    Every f_j lies near 4/27, so no product overflows. One C-level pass per
    offset o = j - mk multiplies in the slice f[o::m] of the factors of the range.
    """
    f = _factors(m * k0, m * k1)
    steps = f[0::m]
    for o in range(1, m):
        steps = map(mul, steps, f[o::m])
        if o % _MAP_DEPTH == 0:
            steps = list(steps)
    return list(steps)


def _step(k: int, m: int) -> float:
    """The k-th value of ``_stride_factors``: the same factors, multiplied in the same order."""
    return math.prod(_factors(m * k, m * k + m), start=1.0)


def _ratios(k0: int, k1: int, n: int, m: int, x: complex | float) -> Iterator[complex | float]:
    """Term ratios t_{k+1} / t_k = x (k/(k+1))**n C(3mk, mk) / C(3m(k+1), m(k+1))
    for k0 <= k < k1, multiplied left to right; float when x is."""
    steps = _stride_factors(k0, k1, m)
    if n == 0:
        return map(mul, repeat(x), steps)
    weights = map(pow, map(truediv, range(k0, k1), range(k0 + 1, k1 + 1)), repeat(n))
    return map(mul, map(mul, repeat(x), weights), steps)


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


def within_terms(n: int, rho: float, rel_tol: float, budget: int) -> bool:
    """True when ``terms_needed(n, rho, rel_tol)`` is at most ``budget`` (>= 1).

    terms_needed is the least k >= 1 with f(k) = k ln(rho) + (1/2 - n) ln(k) <=
    ln(rel_tol), and f decreases from that k on, so it is within the budget K
    exactly when f(K) <= ln(rel_tol): one test, with no root to find.
    """
    if rel_tol <= 0.0:
        return False
    slope = math.log(rho) if rho > 0.0 else -math.inf
    return budget * slope + (0.5 - n) * math.log(budget) <= math.log(rel_tol)


def term_ratio(k: int, n: int, x: complex) -> complex:
    """Ratio t_{k+1} / t_k of consecutive stride-1 terms.

    Expands to x * (k/(k+1))**n * (k+1)(2k+1)(2k+2) / ((3k+1)(3k+2)(3k+3));
    the modulus tends to 4|x|/27 as k grows.
    """
    return term_ratio_stride(k, n, 1, x)


def term_ratio_stride(k: int, n: int, m: int, x: complex) -> complex:
    """Stride-m term ratio t_{k+1} / t_k, as ``series_terms`` and ``sum_direct`` form it."""
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ArgumentError(f"stride m must be >= 1, got {m}")
    return next(_ratios(k, k + 1, n, m, complex(x)))


def _terms(t: complex | float, k: int, count: int, n: int, m: int, x: complex | float) -> list:
    """``count`` + 1 terms t_k .. t_{k+count}, from t = t_k by the ratio recurrence."""
    return list(accumulate(_ratios(k, k + count, n, m, x), mul, initial=t))


def series_terms(n: int, m: int, x: complex, count: int) -> list[complex]:
    """First ``count`` terms t_k = x**k / (k**n * C(3mk, mk)), built recursively
    exactly as ``sum_direct`` builds them (in float arithmetic for real x)."""
    if count < 0:
        raise ArgumentError("count must be >= 0")
    if count == 0:
        return []
    xc = complex(x)
    t = _first_term(m, xc)
    if xc.imag == 0.0:
        return list(map(complex, _terms(t.real, 1, count - 1, n, m, xc.real)))
    return _terms(t, 1, count - 1, n, m, xc)


# Sums predicted to take at most this many terms run term by term: below it a block's
# fixed cost (a dozen C-level passes, the term-count prediction) outweighs what its
# passes save per term. With the factor table the measured break-even is 40-60 terms at
# m <= 2, which 64 fits, rising to 80-220 at m = 4 and 130-300 at m = 6..8, where a
# block's m - 1 ``map`` passes per term cost about what the loop's ``math.prod`` does.
_SHORT_SUM = 64
_BLOCK_CAP = 1 << 15


def _short_sum_terms(t, n: int, m: int, x, rel_tol: float, max_terms: int):
    """``_block_terms`` one term at a time: the same factors, products, ratios,
    running sums and tests, so the same bits."""
    terms = []
    total = t * 0
    prev = False
    for k in range(1, max_terms + 1):
        terms.append(t)
        total += t
        step = _step(k, m)
        small = abs(t) <= rel_tol * abs(total)
        if small and prev:
            return terms, step
        prev = small
        t *= (x * (k / (k + 1)) ** n if n else x) * step
    return None, 0.0


def _block_terms(t, n: int, m: int, x, rel_tol: float, max_terms: int, size: int):
    """(t_1 .. t_K, C(3mK, mK) / C(3m(K+1), m(K+1))) at the stop index K of
    ``sum_direct``, or (None, 0.0) when ``max_terms`` runs out first.

    Blocks of ``size`` terms, doubling up to _BLOCK_CAP: ``_terms`` builds each,
    ``accumulate`` its running sums, one C-level pass flags |t_k| <= rel_tol |S_k|,
    and ``bytes.find`` looks for two flags in a row."""
    terms: list = []
    total = t * 0
    last = b"\0"  # the flag of the term before the block
    k = 1
    while k <= max_terms:
        size = min(size, max_terms + 1 - k)
        block = _terms(t, k, size, n, m, x)
        t = block.pop()  # t_{k+size}, the first term of the next block
        sums = list(accumulate(block, initial=total))
        total = sums[-1]
        flags = last + bytes(
            map(le, map(abs, block), map(mul, repeat(rel_tol), map(abs, islice(sums, 1, None))))
        )
        stop = flags.find(b"\1\1")
        if stop >= 0:
            terms += block[: stop + 1]
            return terms, _step(len(terms), m)
        terms += block
        last = flags[-1:]
        k += size
        size = min(2 * size, _BLOCK_CAP)
    return None, 0.0


def sum_direct(
    n: int, m: int, x: complex, rel_tol: float = 1e-15, max_terms: int | None = None
) -> Evaluation:
    """Direct summation of S(n, m; x), correctly rounded over its terms.

    Stops once two consecutive terms fall below ``rel_tol`` times the
    running sum (a single accidentally tiny term must not stop an
    alternating series). Rim parameters (n >= 2) are accepted but decay
    polynomially: where a bound on the needed term count exceeds
    ``max_terms`` (every n = 2 rim point at the default cap) the cap error
    is raised at once; prefer the quadrature route there.

    The terms come from the ratio recurrence in blocks sized by
    ``terms_needed`` (term by term below _SHORT_SUM terms), in float
    arithmetic for real x, and the value is ``math.fsum`` of their real and
    imaginary parts. The error estimate is a geometric tail bound from the
    last term and the current term ratio, plus a rounding floor proportional
    to the absolute sum, which grows with the stride and with the mean term
    index because the recurrence's roundings compound along k. On the rim,
    where the ratio bound reaches 1, an integral tail bound on
    k**(1/2 - n) is used instead.

    Raises:
        ArgumentError: n < 0, m < 1, rel_tol <= 0 or max_terms < 1.
        DomainError: outside the disk, or on the rim with n < 2.
        ConvergenceError: ``max_terms`` exhausted before the stop rule hit.
    """
    x = complex(x)
    ax, radius = abs(x), convergence_radius(m)  # ArgumentError for m < 1
    if n < 0 or not _inside(n, ax, radius):
        SeriesParams.require_summable(n, m, x)  # raises
    if rel_tol <= 0.0:
        raise ArgumentError("rel_tol must be positive")
    if max_terms is None:
        max_terms = default_max_terms()
    if max_terms < 1:
        raise ArgumentError("max_terms must be >= 1")

    if x == 0:
        return Evaluation(0j, 0.0, "direct-sum", 0)
    rim = ax == radius  # x is summable, so |x| <= radius
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
    real = x.imag == 0.0
    xs, t = (x.real, t.real) if real else (x, t)
    rho = ax / radius
    if within_terms(n, rho, rel_tol, _SHORT_SUM):
        terms, step = _short_sum_terms(t, n, m, xs, rel_tol, max_terms)
    else:
        # the stop rule takes up to ~10% more terms than estimated, and two to confirm
        size = int(min(1.125 * terms_needed(n, rho, rel_tol) + 2, _BLOCK_CAP))
        terms, step = _block_terms(t, n, m, xs, rel_tol, max_terms, size)
    if terms is None:
        raise _term_cap_error(rel_tol, max_terms, rim)
    work = len(terms)
    if real:
        total = complex(math.fsum(terms))
    else:
        total = complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    abs_sum = math.fsum(map(abs, terms))

    # the step C(3mk, mk) / C(3m(k+1), m(k+1)) decreases in k, and (k/(k+1))**n <= 1,
    # so this bounds every remaining ratio.
    r = ax * step
    if r < 1.0:
        tail = abs(terms[-1]) * r / (1.0 - r)
        mean_k = min(work, 2.0 / (1.0 - r))
    else:
        tail = abs(terms[-1]) * work / max(n - 1.5, 0.5)
        mean_k = work
    # Each ratio carries about 2m + n + 4 roundings: m stride-1 factors and the
    # m - 1 products of the step, the weight (k/(k+1))**n, the two products with
    # x and the product with the term (up to 2 more for complex x). So t_k drifts
    # from the true term by a random walk of k - 1 such steps, of standard
    # deviation about _EPS sqrt((2m + n + 4) k / 12). Terms shaped like
    # rho**k k**(1/2 - n) have their |t|-weighted mean index below
    # 2 / (1 - rho) <= 2 / (1 - r); the floor takes 3.5 deviations at that index,
    # on top of 4 _EPS for the first term and the correctly rounded sum.
    drift = math.sqrt((2 * m + n + 4) * mean_k)
    return Evaluation(total, tail + (4.0 + drift) * _EPS * abs_sum, "direct-sum", work)


def _term_cap_error(rel_tol: float, max_terms: int, rim: bool) -> ConvergenceError:
    hint = " (rim arguments decay polynomially; use the quadrature route)" if rim else ""
    return ConvergenceError(
        f"series did not meet rel_tol={rel_tol:g} within {max_terms} terms{hint}"
    )
