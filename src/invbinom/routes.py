"""The route table, and dispatch over it with the auto rule.

``ROUTES`` states once which route serves which (n, m, x); ``evaluate``, ``fold``,
``resolve_auto``, the cross-route verification and the CLI read it. A named method is
never silently substituted: a route that cannot serve a request raises ArgumentError.
x = 0 short-circuits to exactly 0 on every route, even where the operation excludes it.
Every route but direct-sum and folding serves stride 1 only; folding reaches stride
m through them. ``auto`` is a cost rule: direct summation when its predicted term count
undercuts the alternative, which is the stride-1 closed forms for n <= 2 (at m = 1 they
always win; folded over them for m >= 2) and the Cardano-root quadrature for n >= 3
(quad-cardano, folded over for m >= 2); past the strides folding serves, direct
summation. The public entries s01, s11, s21 and quad_cardano are this dispatch on their
routes; quad-polylog is never chosen by ``auto`` and stays an explicit route and
verify's cross-check. The pfq route is ``hypergeometric_value``, which sums a fixed
pFq recipe per weight n <= 2 to its own fixed 1e-16. ``evaluate`` checks the one
``tol`` and hands it to the route's kernel, which passes it to every layer it runs.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, NamedTuple

from .closed_forms import _closed_kernel, fold, stride_refusal
from .errors import ArgumentError, ConvergenceError, DomainError, checked_tol
from .integral_reps import (
    TWO_TERM_FLOOR,
    TWO_TERM_MIN_X,
    _cardano_kernel,
    quad_polylog,
    quad_two_term,
)
from .series import (
    SERIES_TOL,
    Evaluation,
    SeriesParams,
    convergence_radius,
    default_max_terms,
    sum_direct,
    within_terms,
)

Triple = tuple[complex, float, int]  # a kernel's (value, abs_error_est, work)
_triple = itemgetter(0, 1, 3)  # the Triple of an Evaluation

_EPS = 2.220446049250313e-16
_PFQ_TOL = 1e-16

# Hypergeometric cross-check forms of S(n, 1; x): value = (x/3) * pFq(...; 4x/27).
PFQ_RECIPES: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {
    2: ((1.0, 1.0, 1.0, 1.5), (4.0 / 3.0, 5.0 / 3.0, 2.0)),
    1: ((1.0, 1.0, 1.5), (4.0 / 3.0, 5.0 / 3.0)),
    0: ((1.0, 1.5, 2.0), (4.0 / 3.0, 5.0 / 3.0)),
}


class Route(NamedTuple):
    """An evaluation route: ``limits(n, m, x)`` says why its operation cannot serve
    summable (n, m, x), None if it can; ``kernel(n, m, x, tol, max_terms)`` gives the
    Triple at summable x != 0 that ``limits`` accepts, with no domain or tolerance check."""

    name: str
    limits: Callable[[int, int, complex], str | None]
    kernel: Callable[[int, int, complex, float | None, int | None], Triple]

    def refuses(self, n: int, m: int, x: complex) -> str | None:
        """Why ``evaluate`` refuses (n, m, x) here, or None; every route serves x = 0."""
        return None if x == 0 else self.limits(n, m, x)


def _stride_one(name: str, n: int, m: int, n_min: int) -> str | None:
    if m != 1:
        return f"{name} serves stride 1; use folding for m >= 2"
    return f"{name} needs n >= {n_min}, got {n}" if n < n_min else None


def _closed_form_limits(n: int, m: int, x: complex) -> str | None:
    if m == 1:
        return "no stride-1 closed form for n >= 3; use quad-cardano" if n > 2 else None
    return _stride_one("closed-form", n, m, 0)


def _pfq_limits(n: int, m: int, x: complex) -> str | None:
    if m != 1 or n not in PFQ_RECIPES:
        return "the hypergeometric route covers n <= 2 at stride 1"
    if abs(4.0 * x / 27.0) >= 1.0:
        return "the hypergeometric series needs |4x/27| < 1, which excludes the rim"
    return None


def _pfq(n: int, m: int, x: complex, tol, max_terms) -> Triple:
    value, terms, err = hypergeometric_value(n, x)
    return value, err, terms


def _two_term_limits(n: int, m: int, x: complex) -> str | None:
    reason = _stride_one("quad-two-term", n, m, 2)
    if reason is None and x.imag != 0.0:
        reason = "quad-two-term is a real-argument route"
    if reason is None and abs(x) < TWO_TERM_MIN_X:
        reason = TWO_TERM_FLOOR
    return reason


def _folding(n: int, m: int, x: complex, tol, max_terms) -> Triple:
    inner = "closed-form" if n <= 2 else "quad-cardano"
    return _triple(fold(n, m, x, inner, tol=tol))


ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        Route(
            "direct-sum",
            lambda n, m, x: None,
            lambda n, m, x, tol, cap: _triple(sum_direct(n, m, x, tol, cap)),
        ),
        Route("closed-form", _closed_form_limits, lambda n, m, x, *_: _closed_kernel(n, x)),
        Route(
            "quad-polylog",
            lambda n, m, x: _stride_one("quad-polylog", n, m, 1),
            lambda n, m, x, tol, cap: _triple(quad_polylog(n, x, tol)),
        ),
        Route(
            "quad-cardano",
            lambda n, m, x: _stride_one("quad-cardano", n, m, 3),
            lambda n, m, x, tol, cap: _cardano_kernel(n, x, tol),
        ),
        Route(
            "quad-two-term",
            _two_term_limits,
            lambda n, m, x, tol, cap: _triple(quad_two_term(n, x.real, tol)),
        ),
        Route("folding", lambda n, m, x: stride_refusal(m), _folding),
        Route("pfq", _pfq_limits, _pfq),
    )
}
METHODS = tuple(ROUTES)


# Direct-summation terms, per unit of stride, that cost about what quadrature does.
# quad-cardano takes about 0.06-0.1 ms per stride-1 evaluation and folding makes m of
# them; with the factor table direct-sum takes about 1.0-2.0 us per term (medians per m;
# 2-core x86-64 VM, CPython 3.11, min of 15, both routes timed in one run, n 3..4,
# m 1..6, rho 0.3..0.995 at angle 0.7). The measured break-even rose from 26-46 terms
# per unit of stride (quartiles, median 34.8-35.6) with the block kernel on exact
# integers to 42-68 (median 50.3-51.1 in two runs; 30-50, median 38.7, for the integer
# kernel in the same run). It falls with m: about 55 at m = 1..3, 45 at m = 6. The
# budget moved from 40 to 50 with it: on the interior workload (seeds 1-5) the 60 of
# 3,600 cases that move to direct summation take 6.3 ms instead of 9.5 (min of 75
# each). The rim keeps quadrature while 2 * budget stays under the 4,841 terms n = 4
# needs at rho = 1 - 1e-3.
DIRECT_TERM_BUDGET = 50


# Direct-summation terms, per unit of stride past the first, that cost about what folding
# over the stride-1 closed forms does (n <= 2, m >= 2): folding makes m closed-form calls
# of 2-4 us each, direct summation costs about 4.5 us plus 0.2-0.8 us per term. The first
# term count at which direct summation was the slower, over m - 1 (min of 60 x 20 calls per
# point, 2-core x86-64 VM, CPython 3.11, m in {2, 3, 4, 6}, angles 0, 0.7, pi): n = 0 6-16
# (median 10.7), n = 1 4-11 (median 8), n = 2 4-9 (median 7; 4-5 at angle 0.7). Near
# |x| = 1e-8 fold's m terms cancel, and direct summation needs 2-4 terms there.
LOW_WEIGHT_TERM_BUDGET = 8


def resolve_auto(
    n: int, m: int, x: complex, *, tol: float | None = None, max_terms: int | None = None
) -> str:
    """The route ``auto`` takes at summable (n, m, x): the closed form for n <= 2 at m = 1;
    otherwise direct summation when ``terms_needed`` at rho = |x| / R**m and ``tol``
    (SERIES_TOL by default) is within the budget and, with room for the estimate's error,
    within the term cap; else quad-cardano at m = 1, and folding for m >= 2 where it
    serves the stride (direct summation past it). The budget is DIRECT_TERM_BUDGET * m
    for n >= 3 and LOW_WEIGHT_TERM_BUDGET * (m - 1) for n <= 2.

    ``within_terms`` makes that comparison with one test, with no root to find.
    """
    tol = checked_tol(tol, SERIES_TOL)
    if n > 2:
        budget = DIRECT_TERM_BUDGET * m
    elif m == 1:
        return "closed-form"
    else:
        budget = LOW_WEIGHT_TERM_BUDGET * (m - 1)
    cap = default_max_terms() if max_terms is None else max_terms
    # the stop rule can take up to ~10% more terms than estimated (2 more at k = 1), so
    # direct summation needs 1.125 * terms + 2 <= cap, that is terms <= 8 (cap - 2) / 9
    budget = min(budget, 8 * (cap - 2) // 9)
    if budget >= 1 and within_terms(n, abs(x) / convergence_radius(m), tol, budget):
        return "direct-sum"
    if m == 1:
        return "quad-cardano"
    return "folding" if ROUTES["folding"].limits(n, m, x) is None else "direct-sum"


def hypergeometric_value(n: int, x: complex) -> tuple[complex, int, float]:
    """(x/3) * pFq form of S(n, 1; x), n <= 2. Returns (value, terms summed, error
    bound): the running rounding bound of the terms plus a geometric tail.

    The pFq series sum_{k>=0} prod_i (a_i)_k / prod_j (b_j)_k * z**k / k! at
    z = 4x/27 runs by its term-ratio recurrence until two terms in a row fall
    below 1e-16 of the sum; it needs |z| < 1. The weight-0 recipe carries the
    same x/3 prefactor as the others; its term ratio matches the series term
    ratio exactly, which the cross-route suite verifies.
    """
    if n not in PFQ_RECIPES:
        raise ArgumentError(f"hypergeometric recipes exist for n in (0, 1, 2), got {n}")
    xc = complex(x)
    if xc == 0:
        return 0j, 0, 0.0
    a, b = PFQ_RECIPES[n]
    z = 4.0 * xc / 27.0
    if abs(z) >= 1.0:
        raise DomainError(f"the series needs |z| < 1, got |z| = {abs(z)!r}")
    term = complex(1.0)
    total = 0j
    comp = 0j
    mag = 0.0
    small = 0
    for k in range(100_000):
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        # Each step of the ratio rounds about 11 times in units of eps/2 (z included), so
        # term k is within 6k eps relative; the sum and a final product add about 2 eps.
        mag += (8 * k + 4) * abs(term)
        num = math.prod([ai + k for ai in a])
        den = math.prod([bj + k for bj in b], start=float(k + 1))
        ratio = z * num / den
        if abs(term) <= _PFQ_TOL * abs(total):
            small += 1
            if small >= 2:
                # past the stop the ratios run monotonically towards |z|
                q = max(abs(ratio), abs(z))
                err = _EPS * mag + abs(term) * q / (1.0 - q)
                return xc / 3.0 * total, k + 1, abs(xc / 3.0) * err
        else:
            small = 0
        term *= ratio
    raise ConvergenceError("hypergeometric series did not converge within 100000 terms")


def evaluate(
    n: int,
    m: int,
    x: complex,
    method: str = "auto",
    *,
    tol: float | None = None,
    max_terms: int | None = None,
) -> Evaluation:
    """Evaluate S(n, m; x) by the named route, or by ``resolve_auto``'s for "auto".

    ``tol`` goes to every layer the route runs; None leaves each its own default
    (SERIES_TOL for summation, QUAD_TOL for quadrature). Raises DomainError where the
    series does not converge, and ArgumentError when ``tol`` is not > 0 or the named
    route does not serve (n, m, x).
    """
    xc = SeriesParams.require_summable(n, m, x)
    checked_tol(tol, None)
    if method == "auto":
        if max_terms is None and (n > 2 or m > 1):  # read the cap once, for rule and route
            max_terms = default_max_terms()
        route = ROUTES[resolve_auto(n, m, xc, tol=tol, max_terms=max_terms)]
    elif method in ROUTES:
        route = ROUTES[method]
        reason = route.refuses(n, m, xc)
        if reason is not None:
            raise ArgumentError(reason)
    else:
        raise ArgumentError(f"unknown method {method!r}; choose from {METHODS} or 'auto'")
    if xc == 0:
        return Evaluation(0j, 0.0, route.name, 0)
    value, err, work = route.kernel(n, m, xc, tol, max_terms)
    return Evaluation(value, err, route.name, work)
