"""The route table, and dispatch over it with the auto rule.

``ROUTES`` states once which route serves which (n, m, x); ``evaluate``, ``fold``,
``resolve_auto``, the cross-route verification and the CLI read it. A named method is
never silently substituted: a route that cannot serve a request raises ArgumentError.
x = 0 short-circuits to exactly 0 on every route, even where the operation excludes it.
Direct-sum serves every stride, quad-polylog strides up to POLYLOG_MAX_STRIDE = 11 (one
Beta integral, no fold), folding up to 6, and quad-cardano up to CARDANO_MAX_STRIDE = 6:
at m >= 2 weights 3..8 where its series variable sigma = s(x / R**(m - 1)) has
|sigma| <= S_MAX, all of the disk but within 0.9 R**(m - 1) of x = R**m. The closed forms
and quad-two-term serve stride 1 only, and folding reaches stride m through them. ``auto``
takes the closed forms at m = 1 for n <= 2 and quad-cardano's series wherever it serves for
3 <= n <= 8, at every tol; elsewhere it is a cost rule: direct summation when its predicted
term count undercuts the budget, else folding, or quad-cardano's direct sum at m = 1 above
weight 8; past the strides folding serves, direct summation. ``evaluate`` is the one
evaluator of every route: ``fold``, the folding route over a chosen inner route, shares
its one check and one Evaluation. quad-polylog is never chosen by ``auto`` and stays an explicit route and verify's
cross-check. The one ``tol`` and the one term cap go to the route's kernel, which passes
them to every layer.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .closed_forms import _closed_kernel, _fold_kernel
from .errors import ArgumentError, checked_tol
from .integral_reps import (
    _S_WEIGHTS,
    CARDANO_MAX_STRIDE,
    POLYLOG_MAX_STRIDE,
    S_MAX,
    TWO_TERM_FLOOR,
    TWO_TERM_MIN_X,
    TWO_TERM_REAL,
    _cardano_kernel,
    _cardano_sigma,
    _polylog_kernel,
    _two_term_kernel,
)
from .series import (
    SERIES_TOL,
    Evaluation,
    _checked,
    _predicted_estimate,
    _sum_kernel,
    _summable,
    within_terms,
)

# Added to every estimate, which scales with the value and underflows with it: 128 units of
# 2**-1074 bound a subnormal value's error, and estimates >= 2**-1013 keep their bits.
_EST_FLOOR = 2.0**-1067
DEFAULT_MAX_TERMS = 1_000_000  # the term cap of direct sums for ``max_terms`` None


class Route(namedtuple("Route", "name limits kernel")):
    """An evaluation route (name, limits, kernel): ``limits(n, m, x)`` says why its
    operation cannot serve summable (n, m, x), None if it can; ``kernel(n, m, x, tol,
    max_terms)`` gives (value, abs_error_est, work) at summable x != 0 that ``limits``
    accepts, with no domain or tolerance check but a quadrature's floor (ArgumentError for a
    tol below QUAD_FLOOR).
    """

    __slots__ = ()

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


def _cardano_limits(n: int, m: int, x: complex) -> str | None:
    if m > CARDANO_MAX_STRIDE:
        return f"quad-cardano stride must be in [1, {CARDANO_MAX_STRIDE}], got {m}"
    if n < 3:
        return f"quad-cardano needs n >= 3, got {n}"
    if m == 1:
        return None
    if n > _S_WEIGHTS:
        return f"quad-cardano serves n <= {_S_WEIGHTS} at stride m >= 2, got {n}; use folding"
    if abs(_cardano_sigma(x, m)) > S_MAX:
        return (
            f"quad-cardano needs |s(x / R**(m - 1))| <= S_MAX = {S_MAX} at stride m >= 2;"
            " use folding near x = R**m"
        )
    return None


def _polylog_limits(n: int, m: int, x: complex) -> str | None:
    if m > POLYLOG_MAX_STRIDE:
        return f"quad-polylog stride must be in [1, {POLYLOG_MAX_STRIDE}], got {m}"
    return f"quad-polylog needs n >= 1, got {n}" if n < 1 else None


def _two_term_limits(n: int, m: int, x: complex) -> str | None:
    reason = _stride_one("quad-two-term", n, m, 2)
    if reason is None and x.imag != 0.0:
        reason = TWO_TERM_REAL
    if reason is None and abs(x) < TWO_TERM_MIN_X:
        reason = TWO_TERM_FLOOR
    return reason


# Each row looks its kernel up by name at call time, so that a tracer can wrap it.
ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        Route(
            "direct-sum",
            lambda n, m, x: None,
            lambda n, m, x, tol, cap: _sum_kernel(n, m, x, tol, cap),
        ),
        Route("closed-form", _closed_form_limits, lambda n, m, x, *_: _closed_kernel(n, x)),
        Route(
            "quad-polylog",
            _polylog_limits,
            lambda n, m, x, tol, cap: _polylog_kernel(n, m, x, tol),
        ),
        Route(
            "quad-cardano",
            _cardano_limits,
            lambda n, m, x, tol, cap: _cardano_kernel(n, m, x, cap),
        ),
        Route(
            "quad-two-term",
            _two_term_limits,
            lambda n, m, x, tol, cap: _two_term_kernel(n, x.real, tol),
        ),
        Route(
            "folding",
            lambda n, m, x: None if 1 <= m <= 6 else f"folding stride must be in [1, 6], got {m}",
            lambda n, m, x, tol, cap: _fold_kernel(
                n, m, x, "closed-form" if n <= 2 else "quad-cardano", tol, cap
            ),
        ),
    )
}
METHODS = tuple(ROUTES)


# Direct-summation terms, per unit of stride past the first, that cost about what folding
# over quad-cardano does (m >= 2), one per weight n = 3..8: the median over m 2..6 and
# angles 0, 0.7, pi of the first term count at which direct summation was the slower,
# over m - 1 (tools/auto_break_even.py, rho up to 0.995; 2-core x86-64 VM, CPython 3.11).
# Two runs gave 38.3-39.9 at every n = 3..7, and 78 at n = 8, where 7 of 15 sweeps never
# crossed. Over m - 1 it is flat in m at each angle, but complex x, whose terms cost direct
# summation twice as much, halves it (19-26 at angle 0.7, 37-66 on the real axes). The
# last entry, per unit of stride, serves n >= 9, where quad-cardano is itself a direct sum
# (at 1e-17). quad-cardano's series was faster than direct summation at every point
# swept (m = 1 and, in sigma, m 2..6), so auto takes it wherever it serves, and the budget
# decides only where folding, the route it was measured against, is the alternative:
# within 0.9 R**(m - 1) of R**m at m 2..6, and at n >= 9.
DIRECT_TERM_BUDGET = (39, 39, 39, 39, 39, 78, 75)


# Direct-summation terms, per unit of stride past the first, that cost about what folding
# over the stride-1 closed forms does (n <= 2, m >= 2), one per weight n = 0, 1, 2. The
# first term count at which direct summation was the slower, over m - 1 (min of 60 x 20
# calls per point, 2-core x86-64 VM, CPython 3.11, m in {2, 3, 4, 6}, angles 0, 0.7, pi),
# with the step and weight tables: n = 0 20-75 (median 43.2), n = 1 13-52 (median 28.5),
# n = 2 11-46 (median 23.2); about half that at angle 0.7 (10-24) and more on the real
# axis at angle 0 (30-78). With the factor table alone, the same way: medians 18.8, 11.1
# and 9.7, and the single budget was 8. Near |x| = 1e-8 fold's m terms cancel, and direct
# summation needs 2-4 terms there.
LOW_WEIGHT_TERM_BUDGET = (40, 28, 22)


def resolve_auto(
    n: int, m: int, x: complex, *, tol: float | None = None, max_terms: int | None = None
) -> str:
    """The route ``auto`` takes at (n, m, x), after ``evaluate``'s domain, ``tol`` and
    ``max_terms`` rules, in order: the closed form at m = 1 for n <= 2; quad-cardano wherever
    its limits accept the point for 3 <= n <= 8 (every m = 1 point, and |sigma| <= S_MAX at
    m 2..6), whatever ``tol`` and ``max_terms``, as its series takes neither; direct
    summation when ``terms_needed`` at rho = |x| / R**m and ``tol`` (SERIES_TOL by default)
    is within the budget and, with room for the estimate's error, within the term cap
    ``max_terms`` (DEFAULT_MAX_TERMS for None); else folding where it serves the stride
    (quad-cardano's direct sum at m = 1 above weight 8), and direct summation past it. The
    budget is LOW_WEIGHT_TERM_BUDGET[n] * (m - 1) for n <= 2, DIRECT_TERM_BUDGET[n - 3] *
    (m - 1) for n <= 8, DIRECT_TERM_BUDGET[-1] * m above; for 3 <= n <= 8 an explicit ``tol``
    admits direct summation only where ``series._predicted_estimate`` is within it.
    ``within_terms`` compares with the smaller of budget and cap in one test. ``auto``
    refuses no summable point.
    """
    xc, ax, radius = _summable(n, m, x)
    return _auto(n, m, xc, checked_tol(tol, None), _term_cap(max_terms), ax / radius).name


def _term_cap(max_terms) -> int:
    """The term cap ``max_terms``: DEFAULT_MAX_TERMS for None, else an integer >= 1
    (ArgumentError otherwise)."""
    if max_terms is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = index(max_terms)
    except TypeError as exc:
        raise ArgumentError(f"max_terms must be an integer, got {max_terms!r}") from exc
    if cap < 1:
        raise ArgumentError("max_terms must be >= 1")
    return cap


def _auto(n: int, m: int, x: complex, tol, max_terms: int, rho: float) -> Route:
    """``resolve_auto``'s route at summable x, a checked ``tol``, the term cap and
    rho = |x| / R**m."""
    cardano = ROUTES["quad-cardano"]
    if n <= 2:
        if m == 1:
            return ROUTES["closed-form"]
        budget = LOW_WEIGHT_TERM_BUDGET[n] * (m - 1)
    elif n > _S_WEIGHTS:  # quad-cardano is a direct sum here
        budget = DIRECT_TERM_BUDGET[-1] * m
    elif cardano.limits(n, m, x) is None:
        return cardano
    elif tol is not None and _predicted_estimate(n, m, rho, tol) > tol:
        budget = 0  # the direct sum would stop above tol
    else:
        budget = DIRECT_TERM_BUDGET[n - 3] * (m - 1)
    # the stop rule can take up to ~10% more terms than estimated (2 more at k = 1), so
    # direct summation needs 1.125 * terms + 2 <= cap, that is terms <= 8 (cap - 2) / 9
    budget = min(budget, 8 * (max_terms - 2) // 9)
    tol = SERIES_TOL if tol is None else tol
    if budget >= 1 and within_terms(n, rho, tol, budget) or ROUTES["folding"].limits(n, m, x):
        return ROUTES["direct-sum"]  # past the strides folding serves, whatever the cost
    return cardano if m == 1 else ROUTES["folding"]


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

    ``tol`` goes to every layer the route runs, None leaving each its default (SERIES_TOL
    for summation, QUAD_TOL for quadrature); ``max_terms`` caps every direct sum it runs
    (DEFAULT_MAX_TERMS for None). DomainError where the series diverges; ArgumentError for
    ``tol`` not > 0, ``max_terms`` not an integer >= 1 or a route that cannot serve."""
    return _served(n, m, x, method, ROUTES.get(method), tol, max_terms)


def _served(n, m, x, method: str, route: Route | None, tol, max_terms) -> Evaluation:
    """``evaluate`` on ``route`` (None for auto or an unknown method): the one check of every
    entry (the domain rule, ``tol``, ``_term_cap``, the route's limits), then the one
    Evaluation: 0 at x = 0, else the kernel's (value, abs_error_est, work)."""
    xc, ax, radius = _summable(n, m, x)
    checked_tol(tol, None)
    max_terms = _term_cap(max_terms)
    if route is not None:
        reason = route.refuses(n, m, xc)
        if reason is not None:
            raise ArgumentError(reason)
    elif method != "auto":
        raise ArgumentError(f"unknown method {method!r}; choose from {METHODS} or 'auto'")
    else:
        route = _auto(n, m, xc, tol, max_terms, ax / radius)
    if xc == 0:
        return _checked(Evaluation, 0j, 0.0, route.name, 0)
    value, err, work = route.kernel(n, m, xc, tol, max_terms)
    return _checked(Evaluation, value, err + _EST_FLOOR, route.name, work)
