"""Inverse binomial coefficient series: domain model and direct summation.

The family evaluated throughout this package is

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3*m*k, m*k))

with integer weight n >= 0, integer stride m >= 1 and complex argument x.
The series converges strictly inside |x| < (27/4)**m, and on the rim
|x| = (27/4)**m once n >= 2 (terms there decay like k**(1/2 - n)).

The direct-sum route, ``evaluate(n, m, x, "direct-sum")``, is the reference oracle
every other evaluation route in the package is validated against. Its terms come from
the ratio recurrence t_{k+1} / t_k = x (k/(k+1))**n C(3mk, mk) / C(3m(k+1), m(k+1)),
each stride-m step the in-order product of m correctly rounded stride-1 factors. Those
factors form one sequence f_0, f_1, ... for every m and x, and the steps and
the weights (k/(k+1))**n depend on (n, m, k) alone, so all three are immutable
tuples, each built on its first use and never changed: the factor table (the first
_FACTOR_TABLE factors, ``_step_table(1)``), the step tables of m 2..8 those factors
cover (``_step_table(m)``) and the weight tables of n 1..8, k < _WEIGHT_TABLE
(``_weight_table(n)``). An evaluation that runs no direct sum builds none of them.
One loop forms the terms one at a time. Where the tables cover a sum a term
costs two products with table reads; past their ends the steps come from
chunks of ``_computed_steps`` and each weight from one ``pow``, the same
operations, so every bit is the same. The sum is correctly rounded
(``math.fsum``), because near the rim a plain running sum loses digits.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice, repeat
from operator import attrgetter, index, mul, truediv

from .errors import ArgumentError, ConvergenceError, DomainError, checked_number

RADIUS_BASE = 27.0 / 4.0
_EPS = 2.220446049250313e-16
# The stop tolerance of the direct sum, and of ``auto``'s term prediction, when the
# caller passes none.
SERIES_TOL = 1e-15
_REAL = attrgetter("real")
_IMAG = attrgetter("imag")


def convergence_radius(m: int) -> float:
    """Radius (27/4)**m of the convergence disk at stride m; inf past binary64 (m >= 372).
    ArgumentError for m < 1 or m not an integer."""
    try:
        m = index(m)
    except TypeError as exc:
        raise ArgumentError(f"stride m must be an integer, got {m!r}") from exc
    return _radius(m)


def _radius(m: int) -> float:
    """``convergence_radius`` of a stride already checked as an integer."""
    if m < 1:
        raise ArgumentError(f"stride m must be >= 1, got {m}")
    try:
        return RADIUS_BASE**m
    except OverflowError:
        return math.inf


class SeriesParams(namedtuple("SeriesParams", "n m x")):
    """Parameter triple (n, m, x) of S(n, m; x): an immutable named tuple that keeps n and
    m as given and x as ``complex(x)``, with the type checks of ``require_summable``."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, x: complex):
        return tuple.__new__(cls, (n, m, _arguments(n, m, x)[0]))

    @classmethod
    def _make(cls, iterable) -> SeriesParams:  # ``_replace`` builds through it: keep the checks
        return cls(*iterable)

    @staticmethod
    def require_summable(n: int, m: int, x: complex) -> complex:
        """The domain rule of every entry point: ``complex(x)`` where S(n, m; x)
        converges, else DomainError naming the bound (ArgumentError for n < 0, m < 1 or a
        wrong type). Static, so that entry points need not build a SeriesParams."""
        return _summable(n, m, x)[0]


def _summable(n: int, m: int, x: complex) -> tuple[complex, float, float]:
    """``require_summable``'s rule, giving (complex(x), |x|, (27/4)**m) for the callers
    that go on to use |x| and the radius."""
    xc, radius = _arguments(n, m, x)
    # NaN before abs: CPython's abs(complex) returns a NaN without clearing a stale
    # errno, so after any earlier float overflow it raises OverflowError instead
    if cmath.isnan(xc):
        raise DomainError(f"x = {xc!r} is not a number")
    ax = abs(xc)
    if _inside(n, ax, radius):
        return xc, ax, radius
    raise DomainError(
        f"|x| = {ax!r} lies outside the convergence disk |x| < (27/4)**{m} = {radius!r}; "
        f"its rim is summable only for n >= 2, got n = {n}"
    )


def _arguments(n: int, m: int, x: complex) -> tuple[complex, float]:
    """(complex(x), (27/4)**m) for integers n >= 0, m >= 1 and a number x (``checked_number``)."""
    try:
        n, m = index(n), index(m)
    except TypeError as exc:
        raise ArgumentError(f"n, m must be integers, got {n!r}, {m!r}") from exc
    if n < 0:
        raise ArgumentError(f"weight n must be >= 0, got {n}")
    return checked_number(x), _radius(m)


def _inside(n: int, ax: float, radius: float) -> bool:
    """The test of ``require_summable``, for entries that already hold |x| and the radius."""
    return ax < radius or (ax == radius != math.inf and n >= 2)


def _on_rim(m: int, x: complex) -> bool:
    """True when |x| = (27/4)**m, the rim of the convergence disk (never past binary64)."""
    radius = _radius(m)
    return abs(x) == radius != math.inf


class Evaluation(namedtuple("_Evaluation", "value abs_error_est method work")):
    """A computed value (complex) with its error estimate, method tag and work: an
    immutable named tuple built by one checked constructor.

    ``work`` counts terms summed or integrand evaluations, whichever the
    route performs. A non-finite value is a construction error, never a
    result.
    """

    __slots__ = ()

    def __new__(cls, value: complex, abs_error_est: float, method: str, work: int):
        return _checked(cls, complex(value), abs_error_est, method, work)

    @classmethod
    def _make(cls, iterable) -> Evaluation:  # ``_replace`` builds through it: keep the checks
        return cls(*iterable)


def _checked(cls, value: complex, abs_error_est: float, method: str, work: int) -> Evaluation:
    """Evaluation's checks and constructor, on a value already complex (a route kernel's)."""
    if not cmath.isfinite(value):
        raise ArgumentError("evaluation produced a non-finite value")
    if not 0.0 <= abs_error_est < math.inf:  # False for NaN too
        raise ArgumentError("abs_error_est must be finite and >= 0")
    if work < 0:
        raise ArgumentError("work must be >= 0")
    return tuple.__new__(cls, (value, abs_error_est, method, work))


def _computed_factors(j0: int, j1: int) -> Iterator[float]:
    """The stride-1 factors f_j = C(3j, j) / C(3j+3, j+1) = (2j+2)(2j+1) / ((9j+3)(3j+2))
    for j0 <= j < j1, each one correctly rounded division of exact integer products."""
    num = map(mul, range(2 * j0 + 2, 2 * j1 + 2, 2), range(2 * j0 + 1, 2 * j1 + 1, 2))
    den = map(mul, range(9 * j0 + 3, 9 * j1 + 3, 9), range(3 * j0 + 2, 3 * j1 + 2, 3))
    return map(truediv, num, den)


# f_j for j < _FACTOR_TABLE make the factor table. The direct sums ``auto`` picks by their
# cost at m <= 6 (at most 78 (m - 1) terms predicted for n <= 8, 75m above,
# ``routes.DIRECT_TERM_BUDGET``) stay below j = 3,100.
_FACTOR_TABLE = 1 << 12


def _factors(j0: int, j1: int) -> tuple[float, ...]:
    """f_j for j0 <= j < j1: slices of the factor table, computed past its end."""
    factors = _step_table(1)
    if j1 <= _FACTOR_TABLE:
        return factors[j0:j1]
    return factors[j0:j1] + tuple(_computed_factors(max(j0, _FACTOR_TABLE), j1))


def _computed_steps(k0: int, k1: int, m: int) -> list[float]:
    """C(3mk, mk) / C(3m(k+1), m(k+1)) for k0 <= k < k1; decreasing, limit (4/27)**m.
    Each is the product, in order, of f_mk .. f_{mk+m-1}: ``math.prod`` (from 1, which
    multiplies the first factor exactly) of the m-tuples ``zip`` groups from one iterator
    over the factors. Every f_j lies near 4/27, so none overflows."""
    return list(map(math.prod, zip(*[iter(_factors(m * k0, m * k1))] * m)))


# The stride-m steps and the weights (k/(k+1))**n depend on (n, m, k) alone, never on x,
# so both come in tables: immutable tuples, each built on its first use and never changed
# (about 1.5 ms for the step and weight tables of every stride and weight together, and
# 0.6 ms for the factor table: the least of 200 builds, CPython 3.11.7, 2-core x86-64 VM).
# ``setdefault`` stores the first build, so threads that race on a first use all read one
# object. The weights stop at n = 8, as the ``li`` and Cardano-series tables do. Every
# direct sum of the benchmark's direct and interior workloads (seeds 1, 2) stays below
# k = 621, and all but 3 of 480 (at m = 8) inside the step tables.
_TABLE_KEYS = range(1, 9)
_WEIGHT_TABLE = 1 << 10
_STEP_TABLES: dict[int, tuple[float, ...]] = {}
_WEIGHT_TABLES: dict[int, tuple[float, ...]] = {}


def _step_table(m: int) -> tuple[float, ...]:
    """The step table of stride m, built on first use: the factor table at m = 1, at m 2..8
    the steps of k < _FACTOR_TABLE // m (the in-order products ``_computed_steps`` forms),
    () at every other m."""
    table = _STEP_TABLES.get(m)
    if table is None:
        if m not in _TABLE_KEYS:
            return ()
        if m == 1:
            built = tuple(_computed_factors(0, _FACTOR_TABLE))
        else:
            built = tuple(_computed_steps(0, _FACTOR_TABLE // m, m))
        table = _STEP_TABLES.setdefault(m, built)
    return table


def _weight_table(n: int) -> tuple[float, ...]:
    """The weights (k/(k+1))**n of k < _WEIGHT_TABLE at n 1..8, each one ``pow`` as the term
    loop forms those past it, built on first use; () at every other n (n = 0 has none)."""
    table = _WEIGHT_TABLES.get(n)
    if table is None:
        if n not in _TABLE_KEYS:
            return ()
        bases = map(truediv, range(_WEIGHT_TABLE), range(1, _WEIGHT_TABLE + 1))
        table = _WEIGHT_TABLES.setdefault(n, tuple(map(pow, bases, repeat(n))))
    return table


# The least stride m with C(3m, m) > 2**2100 (by ``math.lgamma``, which grows with m): from
# it on every x / C(3m, m) rounds to zero.
_UNDERFLOW_STRIDE = 765


def _first_term(m: int, x: complex) -> complex:
    """t_1 = x / C(3m, m); exact-integer division once C(3m, m) exceeds binary64."""
    if m >= _UNDERFLOW_STRIDE:
        return x * 0.0  # |x| < 2**1024, so |t_1| < 2**-1076 rounds to zero
    c = math.comb(3 * m, m)
    try:
        return x / c
    except OverflowError:
        re_num, re_den = x.real.as_integer_ratio()
        im_num, im_den = x.imag.as_integer_ratio()
        return complex(re_num / (re_den * c), im_num / (im_den * c))


def terms_needed(n: int, rho: float, tol: float) -> float:
    """Estimate of the terms the stop rule of the direct sum takes at
    rho = |x| / R**m (within 10% where it takes 20 or more).

    By Stirling, C(3N, N) ~ sqrt(3/(4 pi N)) R**N, so the terms relative to
    the sum behave like rho**k k**(1/2 - n); the estimate is the smallest
    k >= 1 with k ln(rho) + (1/2 - n) ln k <= ln(tol), inf where no k
    gets there (tol <= 0, or the rim with n = 0). Newton's method finds
    the continuous root; the estimate is its ceiling.
    """
    if tol <= 0.0:
        return math.inf
    log_tol = math.log(tol)
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


def within_terms(n: int, rho: float, tol: float, budget: int) -> bool:
    """True when ``terms_needed(n, rho, tol)`` is at most ``budget`` (>= 1).

    terms_needed is the least k >= 1 with f(k) = k ln(rho) + (1/2 - n) ln(k) <=
    ln(tol), and f decreases from that k on, so it is within the budget K
    exactly when f(K) <= ln(tol): one test, with no root to find.
    """
    slope = math.log(rho) if rho > 0.0 else -math.inf
    return budget * slope + (0.5 - n) * math.log(budget) <= math.log(tol)


# The most steps ``_sum_terms`` computes at once past the step table.
_CHUNK_CAP = 1 << 15


def _sum_terms(t, n: int, m: int, x, tol: float, max_terms: int, rho: float):
    """(t_1 .. t_K, C(3mK, mK) / C(3m(K+1), m(K+1))) at the stop index K of
    ``_sum_kernel``, or (None, 0.0) when ``max_terms`` runs out first; float when x is.

    One term at a time, by the ratio t_{k+1} / t_k = x (k/(k+1))**n step_k multiplied
    left to right. The steps come from ``_step_table(m)`` and, past its end (from k = 1 at
    m >= 9), from chunks of ``_computed_steps``: the first runs to the predicted stop,
    k = 1.125 ``terms_needed`` + 2 (the stop rule takes up to ~10% more terms than
    estimated, and two to confirm), each later one is twice the last, and none holds
    more than _CHUNK_CAP steps. The weights come from ``_weight_table(n)``, one ``pow``
    each past its end."""
    weights = _weight_table(n)
    weight_end = len(weights)
    table = _step_table(m)
    k0, k1, steps = 1, max(len(table), 1), islice(table, 1, None)
    size = 0
    terms = []
    total = t * 0
    prev = False
    while True:
        for k, step in zip(range(k0, min(k1, max_terms + 1)), steps):
            terms.append(t)
            total += t
            small = abs(t) <= tol * abs(total)
            if small and prev:
                return terms, step
            prev = small
            if n:
                t *= x * (weights[k] if k < weight_end else (k / (k + 1)) ** n) * step
            else:
                t *= x * step
        if k1 > max_terms:
            return None, 0.0
        if size:
            size = min(2 * size, _CHUNK_CAP)
        else:
            end = min(1.125 * terms_needed(n, rho, tol) + 3, k1 + _CHUNK_CAP)
            size = max(int(end) - k1, 1)
        k0, k1 = k1, min(k1 + size, max_terms + 1)
        steps = _computed_steps(k0, k1, m)


def _sum_kernel(n: int, m: int, x: complex, tol, max_terms) -> tuple[complex, float, int]:
    """The direct-sum route's (value, abs_error_est, work) at summable x != 0, correctly
    rounded over its terms; checks nothing (``evaluate`` checks the domain, ``tol`` and
    ``max_terms``).

    Stops once two consecutive terms fall below ``tol`` (SERIES_TOL for None) times the
    running sum (a single accidentally tiny term must not stop an alternating series). Rim
    parameters (n >= 2) are served but decay polynomially: where a bound on the needed term
    count exceeds ``max_terms`` (every n = 2 rim point at ``routes.DEFAULT_MAX_TERMS``, the
    cap for None) the cap error is raised at once; method auto serves the rim by the closed
    forms, quad-cardano or folding (strides up to 6).

    The terms come from the ratio recurrence, one at a time, with the steps past the step
    table computed in chunks sized by ``terms_needed``, in float arithmetic for real x, and
    the value is ``math.fsum`` of their real and imaginary parts. The error estimate is a
    geometric tail bound from the last term and the current term ratio, plus a rounding
    floor proportional to the absolute sum, which grows with the stride and with the mean
    term index because the recurrence's roundings compound along k. On the rim, where the
    ratio bound reaches 1, an integral tail bound on k**(1/2 - n) is used instead.
    ConvergenceError where ``max_terms`` runs out before the stop rule holds.
    """
    tol = SERIES_TOL if tol is None else tol
    radius = _radius(m)
    ax = abs(x)
    rim = ax == radius  # x is summable, so |x| <= radius
    # Robbins' Stirling bounds give sqrt(3/(4 pi N)) R**N e**(-1/(8N)) <=
    # C(3N, N) <= sqrt(3/(4 pi N)) R**N, so with c = sqrt(4 pi m / 3) every rim
    # term has |t_k| >= c k**(1/2 - n) while every partial sum stays below
    # e**(1/8) c zeta(n - 1/2) < 2 c (1 + 1/(n - 3/2)): the stop rule cannot
    # hold before the rho = 1 estimate at that tolerance.
    if rim and terms_needed(n, 1.0, 2.0 * tol * (1.0 + 1.0 / (n - 1.5))) > max_terms:
        raise _term_cap_error(tol, max_terms, rim)

    t = _first_term(m, x)
    if t == 0:  # underflow (subnormal x or huge m); every later term is smaller still
        return t, 0.0, 1
    real = x.imag == 0.0
    xs, t = (x.real, t.real) if real else (x, t)
    terms, step = _sum_terms(t, n, m, xs, tol, max_terms, ax / radius)
    if terms is None:
        raise _term_cap_error(tol, max_terms, rim)
    work = len(terms)
    if real:
        total = complex(math.fsum(terms))
    else:
        total = complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    abs_sum = math.fsum(map(abs, terms))

    # the step C(3mk, mk) / C(3m(k+1), m(k+1)) decreases in k, and (k/(k+1))**n <= 1,
    # so this bounds every remaining ratio.
    err = _estimate(abs(terms[-1]), abs_sum, ax * step, work, n, m)
    return total, err, work


def _estimate(last: float, abs_sum: float, r: float, work: float, n: int, m: int) -> float:
    """The error estimate of the direct sum after ``work`` terms, the last of modulus
    ``last`` and ``abs_sum`` the sum of their moduli, with ``r`` a bound on every
    remaining term ratio: a tail bound plus a rounding floor."""
    if r < 1.0:
        tail = last * r / (1.0 - r)
        mean_k = min(work, 2.0 / (1.0 - r))
    else:
        tail = last * work / max(n - 1.5, 0.5)
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
    return tail + (4.0 + drift) * _EPS * abs_sum


def _predicted_estimate(n: int, m: int, rho: float, tol: float) -> float:
    """The direct sum's estimate relative to |S| at rho = |x| / R**m and ``tol``, as
    predicted before summing: K = ``terms_needed`` terms, a ratio bound r about
    rho sqrt(1 + 1/K) (Stirling), the last term about min(r, 1) tol |S| (the stop rule
    takes two terms below tol |S| in a row, and the second is about r times the first)
    and the sum of |t_k| taken as |S| (where the terms alternate or rotate it is larger,
    and so is the estimate)."""
    k = terms_needed(n, rho, tol)
    r = rho * math.sqrt(1.0 + 1.0 / k)
    return _estimate(min(r, 1.0) * tol, 1.0, r, k, n, m)


def _term_cap_error(tol: float, max_terms: int, rim: bool) -> ConvergenceError:
    hint = (
        " (rim arguments decay polynomially; method auto serves the rim by the closed forms,"
        " quad-cardano or folding, at strides up to 6)"
        if rim
        else ""
    )
    return ConvergenceError(
        f"series did not meet tol={tol:g} within {max_terms} terms{hint}"
    )
