"""The route table, and dispatch over it with the auto rule.

``ROUTES`` states once which route serves which (n, m, x); ``evaluate``, ``fold``,
the cross-route verification and the CLI read it. A named method is never silently
substituted: a route that cannot serve a request raises ArgumentError. x = 0
short-circuits to exactly 0 on every route, even where the operation excludes it.
Every route but direct-sum and folding serves stride 1 only; folding reaches stride
m through them. ``auto`` is a cost rule: direct summation when its predicted term count
undercuts the alternative, which is the stride-1 closed forms for n <= 2 (at m = 1 they
always win; folded over them for m >= 2) and the Cardano-root quadrature for n >= 3
(quad-cardano, folded over for m >= 2). quad-cardano's kernel is called bare, as the
closed forms' is; quad-polylog is never chosen by ``auto`` and stays an explicit route
and verify's cross-check.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple

from .closed_forms import _closed_kernel, _pfq_terms, fold, stride_refusal
from .errors import ArgumentError
from .integral_reps import _cardano_kernel, quad_polylog, quad_two_term
from .quadrature import QuadratureSpec
from .series import (
    Evaluation,
    SeriesParams,
    convergence_radius,
    default_max_terms,
    sum_direct,
    within_terms,
)

Triple = tuple[complex, float, int]  # a kernel's (value, abs_error_est, work)
_triple = itemgetter(0, 1, 3)  # the Triple of an Evaluation

# Hypergeometric cross-check forms of S(n, 1; x): value = (x/3) * pFq(...; 4x/27).
PFQ_RECIPES: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {
    2: ((1.0, 1.0, 1.0, 1.5), (4.0 / 3.0, 5.0 / 3.0, 2.0)),
    1: ((1.0, 1.0, 1.5), (4.0 / 3.0, 5.0 / 3.0)),
    0: ((1.0, 1.5, 2.0), (4.0 / 3.0, 5.0 / 3.0)),
}


class Route(NamedTuple):
    """An evaluation route: ``limits(n, m, x)`` says why its operation cannot serve
    summable (n, m, x), None if it can; ``kernel(n, m, x, rel_tol, spec, max_terms)``
    gives the Triple at summable x != 0 that ``limits`` accepts, with no domain check."""

    name: str
    limits: Callable[[int, int, complex], str | None]
    kernel: Callable[[int, int, complex, float, QuadratureSpec | None, int | None], Triple]

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


def _pfq(n: int, m: int, x: complex, rel_tol, spec, max_terms) -> Triple:
    value, terms, err = hypergeometric_value(n, x)
    return value, err, terms


# quad-two-term's relative error against direct-sum (n 2..6, 400 points per decade) is at
# most 2e-11 above |x| = 1.75e-3, up to 2.8e-8 just below it and 1e-6 below 4e-7.
TWO_TERM_MIN_X = 2e-3


def _two_term_limits(n: int, m: int, x: complex) -> str | None:
    reason = _stride_one("quad-two-term", n, m, 2)
    if reason is None and x.imag != 0.0:
        reason = "quad-two-term is a real-argument route"
    if reason is None and abs(x) < TWO_TERM_MIN_X:
        reason = f"quad-two-term needs |x| >= {TWO_TERM_MIN_X:g}, where it holds 1e-9 relative"
    return reason


def _folding(n: int, m: int, x: complex, rel_tol, spec, max_terms) -> Triple:
    inner = "closed-form" if n <= 2 else "quad-cardano"
    return _triple(fold(n, m, x, inner, rel_tol=rel_tol, spec=spec))


ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        Route(
            "direct-sum",
            lambda n, m, x: None,
            lambda n, m, x, tol, spec, cap: _triple(sum_direct(n, m, x, tol, cap)),
        ),
        Route("closed-form", _closed_form_limits, lambda n, m, x, *_: _closed_kernel(n, x)),
        Route(
            "quad-polylog",
            lambda n, m, x: _stride_one("quad-polylog", n, m, 1),
            lambda n, m, x, tol, spec, cap: _triple(quad_polylog(n, x, spec)),
        ),
        Route(
            "quad-cardano",
            lambda n, m, x: _stride_one("quad-cardano", n, m, 3),
            lambda n, m, x, tol, spec, cap: _cardano_kernel(n, x, spec),
        ),
        Route(
            "quad-two-term",
            _two_term_limits,
            lambda n, m, x, tol, spec, cap: _triple(quad_two_term(n, x.real, spec)),
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
    n: int, m: int, x: complex, *, rel_tol: float = 1e-15, max_terms: int | None = None
) -> str:
    """The route ``auto`` takes at summable (n, m, x): the closed form for n <= 2 at m = 1;
    otherwise direct summation when ``terms_needed`` at rho = |x| / R**m is within the
    budget and, with room for the estimate's error, within the term cap; else quad-cardano
    at m = 1 and folding for m >= 2. The budget is DIRECT_TERM_BUDGET * m for n >= 3 and
    LOW_WEIGHT_TERM_BUDGET * (m - 1) for n <= 2.

    ``within_terms`` makes that comparison with one test, with no root to find.
    """
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
    if budget >= 1 and within_terms(n, abs(x) / convergence_radius(m), rel_tol, budget):
        return "direct-sum"
    return "quad-cardano" if m == 1 else "folding"


def hypergeometric_value(n: int, x: complex, tol: float = 1e-16) -> tuple[complex, int, float]:
    """(x/3) * pFq form of S(n, 1; x), n <= 2. Returns (value, terms summed, error
    bound): the running rounding bound of the terms plus a geometric tail.

    The weight-0 recipe carries the same x/3 prefactor as the others; its
    term ratio matches the series term ratio exactly, which the
    cross-route suite verifies.
    """
    if n not in PFQ_RECIPES:
        raise ArgumentError(f"hypergeometric recipes exist for n in (0, 1, 2), got {n}")
    xc = complex(x)
    if xc == 0:
        return 0j, 0, 0.0
    num, den = PFQ_RECIPES[n]
    value, terms, err = _pfq_terms(num, den, 4.0 * xc / 27.0, tol)
    return xc / 3.0 * value, terms, abs(xc / 3.0) * err


def evaluate(
    n: int,
    m: int,
    x: complex,
    method: str = "auto",
    *,
    rel_tol: float = 1e-15,
    spec: QuadratureSpec | None = None,
    max_terms: int | None = None,
) -> Evaluation:
    """Evaluate S(n, m; x) by the named route.

    "auto" takes ``resolve_auto``, or direct summation where that route
    refuses. Raises DomainError where the series does not converge, and
    ArgumentError when the named route does not serve (n, m, x).
    """
    xc = SeriesParams.require_summable(n, m, x)
    if method == "auto":
        if max_terms is None and (n > 2 or m > 1):  # read the cap once, for rule and route
            max_terms = default_max_terms()
        route = ROUTES[resolve_auto(n, m, xc, rel_tol=rel_tol, max_terms=max_terms)]
        if route.refuses(n, m, xc) is not None:
            route = ROUTES["direct-sum"]
    elif method in ROUTES:
        route = ROUTES[method]
        reason = route.refuses(n, m, xc)
        if reason is not None:
            raise ArgumentError(reason)
    else:
        raise ArgumentError(f"unknown method {method!r}; choose from {METHODS} or 'auto'")
    if xc == 0:
        return Evaluation(0j, 0.0, route.name, 0)
    value, err, work = route.kernel(n, m, xc, rel_tol, spec, max_terms)
    return Evaluation(value, err, route.name, work)
