"""Route dispatch, the route table and the auto resolution rule."""

import cmath
import enum
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invbinom import (
    ArgumentError,
    ConvergenceError,
    DomainError,
    METHODS,
    SeriesError,
    SeriesParams,
    convergence_radius,
    evaluate,
    fold,
    li,
    phi,
    resolve_auto,
    run_all,
    run_borwein_girgensohn,
    run_cross_routes,
    run_special_values,
)
from invbinom import routes, series
from invbinom.cli import EXIT_DOMAIN, main
from invbinom.integral_reps import TWO_TERM_MIN_X, two_term_limits
from invbinom.quadrature import QUAD_FLOOR, adaptive_quad
from invbinom.routes import ROUTES
from invbinom.series import convergence_radius, terms_needed
from invbinom.verify import _applicable_routes
from test_series import _fixed_point_reference, _summable


R = 27 / 4

# The route of auto on the rim, where direct summation never pays: closed form
# for n <= 2 at m = 1, quad-cardano for n >= 3 at m = 1, folding for m >= 2.
RIM_ROUTE = {
    (2, 1): "closed-form",
    (2, 2): "folding",
    (3, 1): "quad-cardano",
    (3, 2): "folding",
    (4, 1): "quad-cardano",
    (4, 2): "folding",
}

# (n, m) whose 92-202 terms at rho = 0.9 exceed the budget of 39 per unit of stride past
# the first (160 at n = 4 and 92 at n = 6 fit the 195 of m = 6).
FOLDING_AT_0_9 = {(3, 2), (3, 3), (3, 6), (4, 2), (4, 3), (6, 2), (6, 3)}


def _inside(x, m=1):
    """x, moved back onto the closed disk |x| <= R**m where rounding left it outside."""
    while abs(x) > R**m:
        x *= 1.0 - 2.0**-53
    return x


def _at(rho, m, theta=0.0):
    return _inside(rho * R**m * cmath.exp(1j * theta), m)


class TestResolveAuto:
    @pytest.mark.parametrize("m", [2, 3, 6])
    @pytest.mark.parametrize("rho", [1e-9, 0.3, 0.9])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_high_weight_sums_directly_where_few_terms_suffice(self, n, rho, m):
        route = "folding" if rho == 0.9 and (n, m) in FOLDING_AT_0_9 else "direct-sum"
        for theta in (0.0, math.pi, 2.0):
            assert resolve_auto(n, m, _at(rho, m, theta)) == route
            assert evaluate(n, m, _at(rho, m, theta)).method == route

    @pytest.mark.parametrize("n,m", list(RIM_ROUTE))
    @pytest.mark.parametrize("rho", [1.0, 1.0 - 1e-3, 1.0 - 1e-4])
    def test_rim_points_keep_their_route(self, n, m, rho):
        for theta in (0.0, math.pi, 2.0):
            assert resolve_auto(n, m, _at(rho, m, theta)) == RIM_ROUTE[n, m]

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_low_weight_keeps_closed_form_and_folding(self, n, m):
        # at m = 1 always; at m >= 2 where direct summation needs more than
        # LOW_WEIGHT_TERM_BUDGET[n] (m - 1) terms: 250-356 at rho = 0.9
        for rho in (0.0, 1e-9, 0.5, 0.99, 1.0) if m == 1 else (0.9, 0.99, 1.0):
            if rho == 1.0 and n < 2:  # the rim is summable from n = 2 on
                with pytest.raises(DomainError, match="summable only for n >= 2"):
                    resolve_auto(n, m, _at(rho, m, 1.0))
                continue
            assert resolve_auto(n, m, _at(rho, m, 1.0)) == ("closed-form" if m == 1 else "folding")

    # (n, m, rho) -> route at angle 0.7: direct summation within 40, 28 and 22 terms (n = 0,
    # 1, 2) per unit of stride past the first (terms_needed in the comment), folding beyond.
    @pytest.mark.parametrize(
        "n,m,rho,route",
        [
            (0, 2, 1e-9, "direct-sum"),  # 2 terms
            (0, 2, 0.3, "direct-sum"),  # 31
            (0, 2, 0.5, "folding"),  # 53
            (1, 2, 0.2, "direct-sum"),  # 21
            (1, 2, 0.4, "folding"),  # 36
            (2, 2, 0.2, "direct-sum"),  # 19
            (2, 2, 0.3, "folding"),  # 25
            (0, 3, 0.6, "direct-sum"),  # 72
            (0, 3, 0.7, "folding"),  # 104
            (2, 3, 0.5, "direct-sum"),  # 42
            (2, 3, 0.6, "folding"),  # 56
            (1, 6, 0.7, "direct-sum"),  # 91
            (1, 6, 0.8, "folding"),  # 144
            (2, 6, 0.7, "direct-sum"),  # 79
            (2, 6, 0.8, "folding"),  # 123
            (0, 6, 0.8, "direct-sum"),  # 167
            (0, 6, 0.9, "folding"),  # 356
        ],
    )
    def test_low_weight_sums_directly_within_its_stride_budget(self, n, m, rho, route):
        assert routes.LOW_WEIGHT_TERM_BUDGET == (40, 28, 22)
        assert resolve_auto(n, m, _at(rho, m, 0.7)) == route
        assert evaluate(n, m, _at(rho, m, 0.7)).method == route

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_low_weight_budget_is_the_term_count_rule(self, n):
        for m in range(2, 7):
            for rho in (1e-12, 1e-6, 1e-3, 0.01, 0.05, *(i / 10 for i in range(1, 10))):
                direct = terms_needed(n, rho, 1e-15) <= routes.LOW_WEIGHT_TERM_BUDGET[n] * (m - 1)
                for theta in (0.0, math.pi, 0.7):
                    got = resolve_auto(n, m, _at(rho, m, theta))
                    assert got == ("direct-sum" if direct else "folding"), (n, m, rho, theta)

    def test_quadrature_where_direct_summation_costs_more(self):
        assert resolve_auto(3, 1, 0.99 * R) == "quad-cardano"
        assert resolve_auto(3, 2, 0.999 * R**2) == "folding"

    # (n, m, rho, x / |x|) -> route, with the predicted terms and the direct-sum / folding
    # times (us, min of 7 batches of 1 ms, tools/auto_break_even._times; 2-core x86-64 VM,
    # CPython 3.11) that place each point on its side of the break-even. The budget,
    # 39 (m - 1) up to n = 7 and 78 (m - 1) at n = 8, is the median break-even over both
    # real axes and angle 0.7; at complex x it lies about twice as high as the break-even.
    @pytest.mark.parametrize(
        "n,m,rho,unit,route",
        [
            (3, 2, 0.385, -1, "direct-sum"),  # 28 terms: 6.4 vs 7.9
            (3, 2, 0.643, -1, "folding"),  # 56 terms: 9.0 vs 7.7
            (3, 6, 0.853, -1, "direct-sum"),  # 140 terms: 18.0 vs 22.7
            (3, 6, 0.929, -1, "folding"),  # 278 terms: 32.0 vs 22.6
            (5, 3, 0.738, -1, "direct-sum"),  # 55 terms: 9.0 vs 11.7
            (5, 3, 0.885, -1, "folding"),  # 110 terms: 15.0 vs 11.9
            (4, 4, 0.785, 1, "direct-sum"),  # 80 terms: 11.8 vs 17.4
            (4, 4, 0.9, 1, "folding"),  # 160 terms: 20.0 vs 19.4
            (8, 2, 0.937, 1, "direct-sum"),  # 60 terms: 9.4 vs 12.0
            (8, 2, 0.995, 1, "folding"),  # 94 terms: 13.1 vs 7.9
            (3, 3, 0.526, cmath.exp(0.7j), "direct-sum"),  # 40 terms: 11.8 vs 11.9
            (3, 3, 0.771, cmath.exp(0.7j), "folding"),  # 90 terms: 22.0 vs 12.5
        ],
    )
    def test_budget_sits_at_the_measured_break_even(self, n, m, rho, unit, route):
        assert routes.DIRECT_TERM_BUDGET == (39, 39, 39, 39, 39, 78, 75)
        assert resolve_auto(n, m, rho * R**m * unit) == route

    def test_a_short_term_cap_keeps_folding(self, monkeypatch):
        x = 0.3 * R**2  # 23 terms
        assert evaluate(3, 2, x).method == "direct-sum"
        assert evaluate(3, 2, x, max_terms=20).method == "folding"
        assert resolve_auto(3, 2, x, max_terms=20) == "folding"
        monkeypatch.setattr(routes, "DEFAULT_MAX_TERMS", 20)  # the cap for max_terms None
        assert evaluate(3, 2, x).method == "folding"
        assert resolve_auto(3, 2, x) == "folding"

    def test_the_term_cap_reaches_every_direct_sum(self, monkeypatch):
        # each call runs a direct sum that needs more than 5 terms, so both an explicit cap
        # of 5 and the default patched to 5 end it in the cap error; the library reads no
        # environment variable, so an invalid SERIES_MAX_TERMS changes nothing
        monkeypatch.setenv("SERIES_MAX_TERMS", "abc")
        direct_sums = [
            lambda **cap: evaluate(2, 7, 1e5, **cap),  # past the strides folding serves
            lambda **cap: evaluate(9, 1, 0.99 * R, **cap),  # quad-cardano's direct sum
            lambda **cap: evaluate(9, 2, 0.99 * R**2, **cap),  # folding over it
            lambda **cap: evaluate(9, 2, 45.0, **cap),
            lambda **cap: evaluate(9, 2, 45.0, "folding", **cap),
            lambda **cap: evaluate(9, 1, 6.7, "quad-cardano", **cap),
            lambda **cap: evaluate(3, 2, 0.3 * R**2, "direct-sum", **cap),
            lambda **cap: evaluate(2, 1, 0.5, "direct-sum", **cap),
        ]
        takes_no_cap = [
            lambda: evaluate(9, 1, 0.5, "quad-cardano"),
            lambda: fold(9, 2, 1.0, "quad-cardano"),
            lambda: fold(9, 3, 1.0, "direct-sum"),
        ]
        for call in direct_sums:
            with pytest.raises(ConvergenceError, match="within 5 terms"):
                call(max_terms=5)
        monkeypatch.setattr(routes, "DEFAULT_MAX_TERMS", 5)
        for call in direct_sums + takes_no_cap:
            with pytest.raises(ConvergenceError, match="within 5 terms"):
                call()
        # routes that sum no series in x take no cap
        assert evaluate(3, 1, 0.3 * R).method == "quad-cardano"
        assert evaluate(2, 1, 0.3 * R).method == "closed-form"
        assert evaluate(2, 2, R**2).method == "folding"

    @pytest.mark.parametrize("n,m,rho", [(3, 2, 0.3), (5, 2, 0.3), (6, 3, 0.35), (4, 2, 0.9)])
    def test_auto_never_picks_direct_summation_that_hits_its_cap(self, n, m, rho, monkeypatch):
        # the estimate falls up to 2 terms short here; a ConvergenceError fails the test.
        # The cost budget is lifted so that only the cap decides.
        monkeypatch.setattr(routes, "DIRECT_TERM_BUDGET", (10**6,) * 7)
        x = _at(rho, m, 0.5)
        need = evaluate(n, m, x, "direct-sum").work
        caps = range(need - 3, need + need // 8 + 4)
        methods = [evaluate(n, m, x, max_terms=cap).method for cap in caps]
        assert methods[0] != "direct-sum" and methods[-1] == "direct-sum"

    def test_tolerance_is_passed_through(self):
        x = 0.55 * R**2  # 43 terms at tol 1e-15, 13 at 1e-6
        assert evaluate(3, 2, x).method == "folding"
        assert evaluate(3, 2, x, tol=1e-6).method == "direct-sum"
        with pytest.raises(ArgumentError, match="tol must be positive"):
            evaluate(3, 1, 0.5, tol=0.0)

    def test_an_explicit_tol_keeps_auto_off_direct_sums_that_stop_above_it(self):
        # 26 terms at tol 1e-6, within the budget of 39, but the tail past the stop is
        # predicted at 3.6e-6 relative: the old rule summed 27 terms, 1.8e-6 off relative
        # with an estimate of 2.8e-6. Folding over quad-cardano is within 1e-15.
        x = 0.8 * R**2
        ref = _fixed_point_reference(3, 2, complex(x))[0]
        direct = evaluate(3, 2, x, "direct-sum", tol=1e-6)
        assert direct.work == 27 and abs(direct.value.real - float(ref)) > 1e-6 * float(ref)
        assert series._predicted_estimate(3, 2, 0.8, 1e-6) > 1e-6
        ev = evaluate(3, 2, x, tol=1e-6)
        assert ev.method == "folding"
        assert abs(ev.value.real - float(ref)) <= 1e-15 * float(ref)

    # Below QUAD_FLOOR auto once summed these directly, to an estimate of 7,371 tol
    # (18,193 terms), 7,371, 7,472, 629 and 135 tol relative: the rim's tail bound.
    @pytest.mark.parametrize(
        "n,m,x", [(4, 1, R), (4, 1, (1 - 1e-12) * R), (4, 2, R**2), (5, 1, R), (6, 1, -R)]
    )
    def test_below_the_floor_refuses_where_the_direct_estimate_misses(self, n, m, x):
        ev = evaluate(n, m, x, "direct-sum", tol=1e-15)
        assert ev.abs_error_est > 5 * QUAD_FLOOR * abs(ev.value)
        with pytest.raises(ArgumentError, match="QUAD_FLOOR"):
            resolve_auto(n, m, x, tol=1e-15)
        with pytest.raises(ArgumentError, match="QUAD_FLOOR"):
            evaluate(n, m, x, tol=1e-15)

    @pytest.mark.parametrize("x,terms,rel", [(3.375, 35, 9.1e-15), (4.0, 44, 1.8e-14)])
    def test_just_below_the_floor_few_terms_sum_directly(self, x, terms, rel):
        # the predicted last term is min(r, 1) tol |S|: charged at tol |S| these
        # refused, although the direct estimate is within QUAD_FLOOR
        ev = evaluate(3, 1, x, tol=2e-14)
        assert ev.method == "direct-sum" and ev.work == terms
        assert ev.abs_error_est / abs(ev.value) == pytest.approx(rel, rel=0.02)

    def test_below_the_floor_direct_sums_come_near_the_floor(self):
        # auto's prediction takes |S| for the sum of |t_k|, so where the terms alternate or
        # rotate the estimate may pass QUAD_FLOOR a little (by 1.23 at most on this grid)
        direct = 0
        for tol, n, m, rho, theta in itertools.product(
            (1e-15, 1e-16), (3, 4, 6), (1, 2, 6), (0.5, 0.9, 0.95, 0.99, 0.995, 1 - 1e-6, 1.0),
            (0.0, 0.7, math.pi),
        ):
            x = _at(rho, m, theta)
            try:
                route = resolve_auto(n, m, x, tol=tol)
            except ArgumentError:
                continue
            assert route == "direct-sum", (n, m, rho, theta, tol)
            ev = evaluate(n, m, x, "direct-sum", tol=tol)
            assert ev.abs_error_est <= 1.25 * QUAD_FLOOR * abs(ev.value), (n, m, rho, theta, tol)
            direct += 1
        assert direct >= 100


def _budget(n, m):
    """The direct-summation budget for n >= 3 above the quadrature floor, per
    routes.DIRECT_TERM_BUDGET: per unit of stride past the first up to weight 8."""
    if n <= 8:
        return routes.DIRECT_TERM_BUDGET[n - 3] * (m - 1)
    return routes.DIRECT_TERM_BUDGET[-1] * m


def _term_count_rule(n, m, x, tol, cap):
    """auto's route for n >= 3 by the predicted term count (series.terms_needed); None
    where it refuses, a tol below the quadrature floor that direct summation cannot come
    within QUAD_FLOOR of. An explicit tol admits direct summation at n <= 8 only where its
    predicted estimate is within max(tol, QUAD_FLOOR); None takes SERIES_TOL and no such
    test."""
    below_floor = tol is not None and tol < QUAD_FLOOR  # quad-cardano refuses this tol
    if m == 1 and n <= 8 and not below_floor:
        return "quad-cardano"
    rho = abs(x) / convergence_radius(m)
    meets = (
        tol is None
        or (n > 8 and not below_floor)  # quad-cardano is a direct sum there
        or series._predicted_estimate(n, m, rho, tol) <= max(tol, QUAD_FLOOR)
    )
    tol = 1e-15 if tol is None else tol
    need = terms_needed(n, rho, tol)
    fits = 1.125 * need + 2 <= cap
    if below_floor:
        if fits and meets:
            return "direct-sum"
        return "direct-sum" if m > 6 else None  # fold serves strides 1..6
    if need <= _budget(n, m) and fits and meets:
        return "direct-sum"
    if m > 6:
        return "direct-sum"
    return "quad-cardano" if m == 1 else "folding"


def _rule_grid():
    """Seeded (n, m, rho, angle, cap, tol) points, and points whose continuous term
    count lies within 1e-9 of the budget, of the cap's limit or of another integer."""
    rng = random.Random(2024)
    for _ in range(3000):
        n, m = rng.randint(3, 12), rng.randint(1, 60)
        rho = rng.choice([1.0, 1.0 - 10 ** rng.uniform(-8, 0), 10 ** rng.uniform(-12, 0)])
        cap = rng.choice([1_000_000, rng.randint(1, 3000)])
        tol = rng.choice([None, 1e-15, 1e-12, 10 ** rng.uniform(-16, -1)])
        yield n, m, rho, rng.uniform(-math.pi, math.pi), cap, tol
    for _ in range(600):
        n, m = rng.randint(3, 12), rng.randint(1, 60)
        cap = rng.choice([1_000_000, rng.randint(30, 3000)])
        tol = rng.choice([None, 1e-15, 1e-12, 1e-9])
        budget = min(_budget(n, m), 8 * (cap - 2) // 9)
        k = max(2, rng.choice([budget, budget + 1, budget - 1, rng.randint(2, 3000)]))
        root = k + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -9)
        # f(root) = ln(tol) with f(k) = k ln(rho) + (1/2 - n) ln(k)
        rho = math.exp((math.log(tol or 1e-15) - (0.5 - n) * math.log(root)) / root)
        if rho < 1.0:
            yield n, m, rho, rng.uniform(-math.pi, math.pi), cap, tol


class TestAutoRuleEquivalence:
    def test_one_budget_test_picks_the_term_count_rule(self):
        at_the_edge = 0
        for n, m, rho, theta, cap, tol in _rule_grid():
            x = _at(rho, m, theta)
            want = _term_count_rule(n, m, x, tol, cap)
            if want is None:
                with pytest.raises(ArgumentError, match="QUAD_FLOOR"):
                    resolve_auto(n, m, x, tol=tol, max_terms=cap)
                continue
            assert resolve_auto(n, m, x, tol=tol, max_terms=cap) == want, (n, m, rho, cap, tol)
            need = terms_needed(n, abs(x) / convergence_radius(m), tol or 1e-15)
            budget = min(_budget(n, m), 8 * (cap - 2) // 9)
            at_the_edge += need in (budget, budget + 1) and want != "quad-cardano"
        assert at_the_edge >= 50  # both sides of the budget are sampled closely

    def test_non_positive_tolerance_raises_and_tiny_caps_keep_quadrature(self):
        for tol in (0.0, -1.0):
            with pytest.raises(ArgumentError, match="tol must be positive"):
                resolve_auto(3, 1, 1e-20, tol=tol)
        for cap in (1, 2, 3):
            assert resolve_auto(3, 1, 1e-20, tol=1e-12, max_terms=cap) == "quad-cardano"
            assert resolve_auto(3, 2, 1e-20, tol=1e-12, max_terms=cap) == "folding"
            with pytest.raises(ArgumentError, match="QUAD_FLOOR"):  # below the quadrature floor
                resolve_auto(3, 1, 1e-20, tol=1e-15, max_terms=cap)
        assert resolve_auto(3, 2, 1e-20, max_terms=4) == "direct-sum"  # 1 term: 1.125 + 2 <= 4
        assert resolve_auto(3, 1, 1e-20, max_terms=4) == "quad-cardano"  # at m = 1 always

    def test_below_the_quadrature_floor_auto_sums_directly_or_refuses(self):
        # at tol 1e-15 these gave up after 2,000 subdivisions on quad-cardano or folding
        # over it; direct summation comes within QUAD_FLOOR of the value
        for n, m, x in ((3, 1, 6.0), (3, 2, 42.0)):
            ev = evaluate(n, m, x, tol=1e-15)
            assert ev.method == "direct-sum" and ev.abs_error_est <= QUAD_FLOOR * abs(ev.value)
            assert evaluate(n, m, x, tol=QUAD_FLOOR).method != "direct-sum"
        # the rim at n = 3 needs 10**6 terms; at S(3,2;45) direct summation's estimate
        # would be 9.1e-14 relative, four times QUAD_FLOOR
        for n, m, x in ((3, 1, 6.75), (3, 2, 45.0)):
            for method in ("auto", "quad-cardano" if m == 1 else "folding"):
                with pytest.raises(ArgumentError, match="QUAD_FLOOR"):
                    evaluate(n, m, x, method, tol=1e-15)


class TestOneAutoRule:
    """``evaluate`` and ``resolve_auto`` apply one auto rule: the same route, or the same
    error, at every point of a seeded grid, at the default term cap and a short one."""

    def test_evaluate_takes_the_route_resolve_auto_names(self, monkeypatch):
        # the kernels are stubbed, so that ``method`` is the route chosen even where its
        # kernel would raise (the cap error, or a direct sum past the strides fold serves)
        for name, route in list(ROUTES.items()):
            monkeypatch.setitem(ROUTES, name, route._replace(kernel=lambda *_: (1j, 0.0, 0)))
        rng = random.Random("one auto rule")
        checked = Counter()
        rhos = (0.0, 1e-9, 0.3, 0.9, 0.99, 1.0)
        for default in (routes.DEFAULT_MAX_TERMS, 20):
            monkeypatch.setattr(routes, "DEFAULT_MAX_TERMS", default)
            for n, m, rho in itertools.product(range(13), range(1, 9), rhos):
                thetas = (0.0, math.pi, rng.uniform(-math.pi, math.pi))
                options = itertools.product(thetas, (None, 1e-10, 1e-15), (None, 1, 20))
                for theta, tol, cap in options:
                    x = _at(rho, m, theta)
                    try:
                        got = evaluate(n, m, x, tol=tol, max_terms=cap).method
                    except SeriesError as exc:
                        got = (type(exc), str(exc))
                    try:
                        want = resolve_auto(n, m, complex(x), tol=tol, max_terms=cap)
                    except SeriesError as exc:
                        want = (type(exc), str(exc))
                    assert got == want, (n, m, rho, theta, tol, cap, default)
                    checked[got if isinstance(got, str) else got[0].__name__] += 1
        # every route auto takes, the error its rule raises below QUAD_FLOOR and the domain
        # rule's error on the rim at n < 2 are on the grid
        assert set(checked) == {
            "closed-form", "quad-cardano", "direct-sum", "folding", "ArgumentError", "DomainError"
        }, checked


# The stride-1 grid of auto's route table at n >= 3: rho from 1e-12 to the rim, on both
# real axes and at three angles.
STRIDE_ONE_RHOS = (1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.9, 0.995, 1.0)
STRIDE_ONE_UNITS = (1.0, -1.0, cmath.exp(0.1j), cmath.exp(1.2j), cmath.exp(2.5j))


class TestStrideOneRow:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_weights_with_a_series_take_quad_cardano(self, n):
        for rho, unit in itertools.product(STRIDE_ONE_RHOS, STRIDE_ONE_UNITS):
            x = _inside(rho * R * unit)
            assert resolve_auto(n, 1, x) == "quad-cardano", (n, rho, unit)
            assert resolve_auto(n, 1, x, tol=1e-10, max_terms=1) == "quad-cardano"

    @pytest.mark.parametrize("n", range(9, 13))
    def test_higher_weights_sum_directly_within_their_budget(self, n):
        # quad-cardano is itself a direct sum there, at 1e-17
        for rho, unit in itertools.product(STRIDE_ONE_RHOS, STRIDE_ONE_UNITS):
            direct = terms_needed(n, rho, 1e-15) <= routes.DIRECT_TERM_BUDGET[-1]
            want = "direct-sum" if direct else "quad-cardano"
            assert resolve_auto(n, 1, _inside(rho * R * unit)) == want, (n, rho, unit)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_values_meet_the_exact_sum(self, n):
        for rho, unit in itertools.product(STRIDE_ONE_RHOS[:-1], STRIDE_ONE_UNITS):
            x = rho * R * unit
            ev = evaluate(n, 1, x)
            re, im, bound = _fixed_point_reference(n, 1, complex(x))
            dre, dim = Fraction(ev.value.real) - re, Fraction(ev.value.imag) - im
            err = abs(complex(float(dre), float(dim))) + float(bound)
            assert err <= ev.abs_error_est, (n, rho, unit, err, ev.abs_error_est)
            assert err <= 1e-15 * abs(ev.value), (n, rho, unit, err / abs(ev.value))


class TestEvaluate:
    def test_auto_matches_direct_summation(self):
        for n, m, x in ((2, 1, 0.5), (0, 1, -1.0), (2, 2, 6.0), (3, 1, 1.0), (3, 2, 1.0)):
            ref = evaluate(n, m, x, "direct-sum").value
            got = evaluate(n, m, x)
            assert abs(got.value - ref) < 1e-9, (n, m, x, got.method)

    def test_auto_at_the_rim_uses_the_weight2_closed_form(self):
        ev = evaluate(2, 1, 27 / 4)
        assert ev.method == "closed-form"
        assert abs(ev.value - (2 * math.pi**2 / 3 - 2 * math.log(2) ** 2)) < 1e-13

    def test_every_method_evaluates_the_same_point(self):
        # S(2, 1; 0.5), or S(3, 1; 0.5) for quad-cardano, which serves n >= 3 only
        for method in METHODS:
            n = 3 if method == "quad-cardano" else 2
            ref = evaluate(n, 1, 0.5, "direct-sum").value
            got = evaluate(n, 1, 0.5, method)
            assert abs(got.value - ref) < 1e-9, method
            assert got.method == method

    def test_zero_short_circuits_every_method(self):
        for method in METHODS:
            ev = evaluate(3, 2, 0.0, method)
            assert ev.value == 0
            assert ev.abs_error_est == 0.0
            assert ev.work == 0

    def test_outside_disk(self):
        with pytest.raises(DomainError):
            evaluate(2, 1, 6.750000001)
        with pytest.raises(DomainError):
            evaluate(2, 2, 50.0)

    def test_rim_needs_weight_two(self):
        with pytest.raises(DomainError):
            evaluate(1, 1, 27 / 4)
        with pytest.raises(DomainError):
            evaluate(0, 2, 45.5625)

    def test_explicit_methods_are_never_substituted(self):
        with pytest.raises(ArgumentError):
            evaluate(3, 1, 0.5, "closed-form")
        with pytest.raises(ArgumentError):
            evaluate(1, 2, 0.5, "closed-form")  # closed-form serves stride 1 only
        with pytest.raises(ArgumentError, match=r"stride must be in \[1, 11\], got 12"):
            evaluate(2, 12, 0.5, "quad-polylog")
        with pytest.raises(ArgumentError):
            evaluate(2, 2, 0.5, "quad-two-term")
        with pytest.raises(ArgumentError):
            evaluate(2, 1, 0.5 + 0.1j, "quad-two-term")
        with pytest.raises(ArgumentError):
            evaluate(2, 1, 0.5, "newton")
        with pytest.raises(ArgumentError):
            evaluate(2, 7, 1.0, "folding")  # auto falls back here; a named route does not
        with pytest.raises(ArgumentError):
            evaluate(2, 7, 1.0, "closed-form")

    def test_complex_arguments_through_auto(self):
        z = 0.4 + 1.1j
        ref = evaluate(2, 1, z, "direct-sum").value
        assert abs(evaluate(2, 1, z).value - ref) < 1e-12

    @given(
        n=st.integers(0, 4),
        m=st.integers(1, 3),
        x=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_auto_always_lands_in_tolerance_of_direct(self, n, m, x):
        ref = evaluate(n, m, x, "direct-sum").value
        got = evaluate(n, m, x).value
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


# |x| from 1e-306 down to 1e-323, where S(n, m; x) is about x / C(3m, m) and subnormal.
TINY_MODULI = (*(10.0**-e for e in range(306, 324)), 3.7e-310)


def _tiny_reference(n: int, m: int, x: complex) -> tuple[Fraction, Fraction]:
    """The first two terms of S(n, m; x), exactly, as (re, im); the rest is below |x|**3."""
    re, im = Fraction(x.real), Fraction(x.imag)
    c1, c2 = math.comb(3 * m, m), 2**n * math.comb(6 * m, 2 * m)
    return re / c1 + (re * re - im * im) / c2, im / c1 + 2 * re * im / c2


class TestSubnormalEstimates:
    """Every kernel's estimate scales with the value and underflows with it; the floor that
    ``evaluate`` adds covers the few units of 2**-1074 a subnormal value is off."""

    def test_every_route_bounds_its_error(self):
        for r, theta, n, m in itertools.product(
            TINY_MODULI, (0.0, 0.7, math.pi / 2, math.pi), range(7), (1, 2, 3, 6)
        ):
            x = complex(-r) if theta == math.pi else cmath.rect(r, theta)
            ref_re, ref_im = _tiny_reference(n, m, x)
            for method in (*METHODS, "auto"):
                if method != "auto" and ROUTES[method].refuses(n, m, x) is not None:
                    continue
                ev = evaluate(n, m, x, method)
                d_re, d_im = Fraction(ev.value.real) - ref_re, Fraction(ev.value.imag) - ref_im
                assert d_re**2 + d_im**2 <= Fraction(ev.abs_error_est) ** 2, (n, m, x, method, ev)

    def test_huge_stride_underflow_has_an_estimate(self):
        # past the underflow stride the direct sum returns 0 for a value below 2**-1076
        ev = evaluate(0, 800, 1e300, "direct-sum")
        assert ev.value == 0
        assert Fraction(1e300) / math.comb(2400, 800) * 2 < ev.abs_error_est

    @given(st.floats(2.0**-1013, 1e308))
    @example(2.0**-1013)
    def test_estimates_from_2_pow_minus_1013_keep_their_bits(self, est):
        assert est + routes._EST_FLOOR == est


class TestAutoFuzz:
    @given(
        n=st.integers(0, 6),
        m=st.integers(1, 8),
        rho=st.floats(0.0, 1.0),
        theta=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_auto_ends_in_an_evaluation_or_a_series_error(self, n, m, rho, theta):
        x = _at(rho, m, theta)  # the term cap keeps every example short
        try:
            ev = evaluate(n, m, x, max_terms=20_000)
        except ArgumentError as exc:
            pytest.fail(f"auto raised ArgumentError at S({n},{m};{x!r}): {exc}")
        except SeriesError:
            return
        assert cmath.isfinite(ev.value) and math.isfinite(ev.abs_error_est)


def _contract_points():
    """x = 0, real and complex interior points, 0.99 R and the rim R = (27/4)**m."""
    for n in range(6):
        for m in range(1, 9):
            r = (27 / 4) ** m
            for x in (0.0, 0.5 * r, -0.3 * r, 0.4 * r * cmath.exp(1j), 0.99 * r, r):
                yield n, m, complex(x)


# Loose quadrature and a short term budget keep the rim and near-rim points
# cheap; they can only turn a slow evaluation into a ConvergenceError, which
# the contract does not constrain. Any other error at a summable point fails.
_CHEAP = dict(tol=1e-5, max_terms=200)


class TestRouteTable:
    @pytest.mark.parametrize("name", list(ROUTES))
    def test_refuses_exactly_when_evaluate_raises_argument_error(self, name):
        route = ROUTES[name]
        for n, m, x in _contract_points():
            if not _summable(n, m, x):
                with pytest.raises(DomainError):
                    evaluate(n, m, x, name, **_CHEAP)
                continue
            reason = route.refuses(n, m, x)
            try:
                evaluate(n, m, x, name, **_CHEAP)
            except ArgumentError as exc:
                assert reason is not None, (n, m, x, exc)
                continue
            except ConvergenceError:
                pass
            assert reason is None, (n, m, x, reason)

    def test_auto_never_refuses_a_summable_point(self):
        for n, m, x in _contract_points():
            if _summable(n, m, x):
                try:
                    evaluate(n, m, x, **_CHEAP)
                except ArgumentError as exc:
                    pytest.fail(f"auto refused S({n},{m};{x}): {exc}")
                except ConvergenceError:
                    pass

    def test_auto_names_the_route_it_runs(self):
        for n, m, x in _contract_points():
            if not _summable(n, m, x):
                continue
            try:
                ev = evaluate(n, m, x, **_CHEAP)
            except ConvergenceError:
                continue
            assert ev.method == resolve_auto(n, m, x, **_CHEAP), (n, m, x)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("x", [1e-307, -1e-307])
    def test_two_term_route_refuses_where_phi_overflows(self, n, x):
        # the route's limits come from phi(x), which leaves binary64 below |x| = 1e-306
        assert ROUTES["quad-two-term"].refuses(n, 1, complex(x)) is not None
        with pytest.raises(ArgumentError, match="quad-two-term"):
            evaluate(n, 1, x, "quad-two-term")
        assert "quad-two-term" not in _applicable_routes(SeriesParams(n, 1, x))
        want = evaluate(n, 1, x).value
        assert want == pytest.approx(x / 3, rel=1e-15)
        edge = math.copysign(TWO_TERM_MIN_X, x)
        assert "quad-two-term" in _applicable_routes(SeriesParams(n, 1, edge))
        assert math.isfinite(evaluate(n, 1, edge, "quad-two-term").value.real)

    @pytest.mark.parametrize("n,m,x", [(2, 7, 1.0), (3, 8, 10.0), (2, 60, 1.0)])
    def test_auto_falls_back_to_direct_summation_past_the_fold_stride(self, n, m, x):
        got = evaluate(n, m, x)
        ref = evaluate(n, m, x, "direct-sum")
        assert got.method == "direct-sum"
        assert got.value == ref.value
        assert got.abs_error_est == ref.abs_error_est


def _outside(ax: float, m: int, n: int) -> str:
    radius = {1: "6.75", 2: "45.5625"}[m]
    return (
        f"|x| = {ax!r} lies outside the convergence disk |x| < (27/4)**{m} = {radius}; "
        f"its rim is summable only for n >= 2, got n = {n}"
    )


R2 = R**2
WEIGHT = "weight n must be >= 0, got -1"
STRIDE = "stride m must be >= 1, got 0"


# Each public entry outside its domain, with the error type and message it raises: the
# check of ``evaluate`` on its route.
DOMAIN_ERRORS = [
    ("fold past", lambda: fold(2, 2, 46.0), DomainError, _outside(46.0, 2, 2)),
    ("fold rim", lambda: fold(1, 2, R2), DomainError, _outside(45.5625, 2, 1)),
    ("fold n<0", lambda: fold(-1, 2, 0.5), ArgumentError, WEIGHT),
    ("fold m0", lambda: fold(2, 0, 0.5), ArgumentError, STRIDE),
    ("evaluate past", lambda: evaluate(3, 2, 46.0), DomainError, _outside(46.0, 2, 3)),
    ("evaluate rim", lambda: evaluate(1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("evaluate n<0", lambda: evaluate(-1, 1, 0.5), ArgumentError, WEIGHT),
    ("evaluate m0", lambda: evaluate(2, 0, 0.5), ArgumentError, STRIDE),
]
# (label, route, (n, m, x), error type, message) of ``evaluate`` on a named route: the
# domain rule first, then the route's limits.
ROUTE_DOMAIN_ERRORS = [
    ("n=0 past", "closed-form", (0, 1, 7.0), DomainError, _outside(7.0, 1, 0)),
    ("n=0 rim", "closed-form", (0, 1, R), DomainError, _outside(6.75, 1, 0)),
    ("n=1 past", "closed-form", (1, 1, 7.0), DomainError, _outside(7.0, 1, 1)),
    ("n=1 rim", "closed-form", (1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("rim", "direct-sum", (1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("n<0", "direct-sum", (-1, 1, 0.5), ArgumentError, WEIGHT),
    ("m0", "direct-sum", (2, 0, 0.5), ArgumentError, STRIDE),
    ("rim", "quad-polylog", (1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("n<0", "quad-polylog", (-1, 1, 0.5), ArgumentError, WEIGHT),
    ("n=3 past", "quad-cardano", (3, 1, 7.0), DomainError, _outside(7.0, 1, 3)),
    ("rim", "quad-cardano", (1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("n<0", "quad-cardano", (-1, 1, 0.5), ArgumentError, WEIGHT),
    ("n<3", "quad-cardano", (2, 1, 0.5), ArgumentError, "quad-cardano needs n >= 3, got 2"),
    ("n=3 past", "quad-two-term", (3, 1, 7.0), DomainError, _outside(7.0, 1, 3)),
    ("rim", "quad-two-term", (1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("n<0", "quad-two-term", (-1, 1, 0.5), ArgumentError, WEIGHT),
]
DOMAIN_ERRORS += [
    (f"evaluate {route} {label}", lambda route=route, args=args: evaluate(*args, route), exc,
     message)
    for label, route, args, exc, message in ROUTE_DOMAIN_ERRORS
]
DOMAIN_ERRORS += [
    (f"evaluate {method} past", lambda method=method: evaluate(2, 1, 7.0, method), DomainError,
     _outside(7.0, 1, 2))
    for method in METHODS
]


class TestDomainErrors:
    @pytest.mark.parametrize(
        "call,exc,message",
        [case[1:] for case in DOMAIN_ERRORS],
        ids=[case[0] for case in DOMAIN_ERRORS],
    )
    def test_public_entries_keep_their_errors(self, call, exc, message):
        with pytest.raises(SeriesError) as info:
            call()
        assert type(info.value) is exc
        assert str(info.value) == message


def _fold_over(inner):
    return lambda n, m, x, **options: fold(n, m, x, inner, **options)


NAN = math.nan
# (n, m, x, options) that no route serves: the weight, the disk and its rim, NaN, and,
# for the entries that take them, the stride and the options.
ANY_ROUTE = [(-1, 1, 0.5, {}), (3, 1, 7.0, {}), (1, 1, R, {}), (3, 1, NAN, {}),
             (3, 1, complex(0.5, NAN), {})]
STRIDED = [(2, 0, 0.5, {}), (3, 2, 46.0, {}), (1, 2, R2, {})]
TOLS = [(3, 1, 0.5, {"tol": 0.0}), (3, 1, 0.5, {"tol": NAN})]
# (name, entry(n, m, x, **options), route, refused (n, m, x, options))
PUBLIC_ENTRIES = [
    (f"fold over {inner}", _fold_over(inner), "folding", ANY_ROUTE + STRIDED + TOLS)
    for inner in METHODS
]
PUBLIC_REFUSALS = [
    (name, entry, route, case) for name, entry, route, cases in PUBLIC_ENTRIES for case in cases
]


class TestPublicEntriesAreEvaluate:
    @pytest.mark.parametrize(
        "entry,route,case",
        [case[1:] for case in PUBLIC_REFUSALS],
        ids=[f"{case[0]} {case[3]}" for case in PUBLIC_REFUSALS],
    )
    def test_each_entry_raises_what_evaluate_raises_on_its_route(self, entry, route, case):
        n, m, x, options = case
        with pytest.raises(SeriesError) as want:
            evaluate(n, m, x, route, **options)
        with pytest.raises(Exception) as got:  # a TypeError, say, is compared too
            entry(n, m, x, **options)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


# (n, m, x, options) that the argument rules refuse where a route's own limits would refuse
# too: the weight below quad-polylog's, quad-cardano's and quad-two-term's, a stride past
# folding's and quad-polylog's, x below quad-two-term's floor or off the real axis.
REFUSED_BEFORE_LIMITS = [
    (0, 1, 0.5, {"tol": 0.0}),
    (2, 12, 0.5, {"tol": 0.0}),
    (2, 12, 1e300, {}),
    (2, 1, 1e-3, {"tol": NAN}),
    (2, 1, 0.5j, {"tol": -1.0}),
    (0, 7, 0.5, {"max_terms": 0}),
    (-1, 1, 0.5j, {"tol": 0.0}),
]
# (route, n, m, x) that the route's own limits refuse, past every argument rule.
ROUTE_LIMITS = [
    ("closed-form", 3, 1, 0.5),
    ("closed-form", 2, 2, 1.0),
    ("quad-polylog", 0, 1, 0.5),
    ("quad-polylog", 2, 12, 1.0),
    ("quad-cardano", 2, 1, 0.5),
    ("quad-cardano", 3, 2, 1.0),
    ("quad-two-term", 1, 1, 0.5),
    ("quad-two-term", 2, 1, 0.5j),
    ("quad-two-term", 2, 1, 1e-3),
    ("folding", 2, 7, 1.0),
]


class TestRuleOrder:
    """The domain, tolerance and term cap rules come first, the same on every route; a
    route's own limits come after them."""

    @pytest.mark.parametrize("case", ANY_ROUTE + STRIDED + TOLS + REFUSED_BEFORE_LIMITS,
                             ids=repr)
    @pytest.mark.parametrize("method", METHODS)
    def test_every_route_refuses_what_auto_refuses(self, method, case):
        n, m, x, options = case
        with pytest.raises(SeriesError) as want:
            evaluate(n, m, x, **options)
        with pytest.raises(SeriesError) as got:
            evaluate(n, m, x, method, **options)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("method,n,m,x", ROUTE_LIMITS)
    def test_each_route_refuses_with_the_reason_of_its_limits(self, method, n, m, x):
        reason = ROUTES[method].refuses(n, m, complex(x))
        assert reason is not None
        with pytest.raises(ArgumentError) as info:
            evaluate(n, m, x, method)
        assert str(info.value) == reason
        assert evaluate(n, m, x).method != method

    @pytest.mark.parametrize("n,m", [(0, 1), (3, 12)])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_route_serves_x_zero_whatever_its_limits(self, method, n, m):
        assert evaluate(n, m, 0.0, method) == (0j, 0.0, method, 0)
        assert evaluate(n, m, 0j, method, tol=1e-15) == (0j, 0.0, method, 0)


# Every public evaluator, with the arguments it takes of n, m and x.
EVALUATORS = [
    *((f"evaluate {method}", lambda n, m, x, method=method: evaluate(n, m, x, method), "nmx")
      for method in (*METHODS, "auto")),
    ("resolve_auto", resolve_auto, "nmx"),
    *((f"fold over {inner}", _fold_over(inner), "nmx") for inner in METHODS),
]
# (the argument of the wrong type, (n, m, x)): n and m must be integers, x a number
WRONG_TYPES = [
    ("m", (2, 2.0, 1.0)), ("m", (2, "2", 1.0)), ("m", (2, None, 1.0)),
    ("n", (2.0, 1, 1.0)), ("n", ("2", 1, 1.0)), ("n", (Fraction(2), 1, 1.0)),
    ("x", (2, 1, None)), ("x", (2, 1, "one")), ("x", (2, 1, [1.0])),
]
TYPE_MESSAGES = dict(n="n, m must be integers", m="n, m must be integers", x="x must be a number")
# The wrong integers of WRONG_TYPES, and one that is not integral.
WRONG_INTEGERS = [args["nmx".index(bad)] for bad, args in WRONG_TYPES if bad != "x"] + [2.5]
# The other public functions of a number x, each as a function of x alone.
X_FUNCTIONS = [
    ("li", lambda x: li(2, x), "z"),
    ("phi", phi, "x"),
    ("two_term_limits", two_term_limits, "x"),
]
# An integer past the binary64 range: complex() raises OverflowError on it.
HUGE = 10**400


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "entry,bad,args",
        [(entry, bad, args) for _, entry, takes in EVALUATORS for bad, args in WRONG_TYPES
         if bad in takes],
        ids=[f"{name} {args}" for name, _, takes in EVALUATORS for bad, args in WRONG_TYPES
             if bad in takes],
    )
    def test_wrong_types_raise_argument_error(self, entry, bad, args):
        with pytest.raises(ArgumentError, match=TYPE_MESSAGES[bad]):
            entry(*args)

    @pytest.mark.parametrize(
        "entry", [case[1] for case in EVALUATORS], ids=[case[0] for case in EVALUATORS]
    )
    def test_an_integer_past_binary64_raises_domain_error(self, entry):
        with pytest.raises(DomainError, match=r"\|x\| = inf"):
            entry(2, 1, HUGE)
        with pytest.raises(DomainError, match=r"\|x\| = inf"):
            entry(2, 1, -HUGE)

    @pytest.mark.parametrize(
        "entry,name,x",
        [(entry, name, args[2]) for _, entry, name in X_FUNCTIONS for bad, args in WRONG_TYPES
         if bad == "x"],
        ids=[f"{label} {args[2]!r}" for label, _, _ in X_FUNCTIONS for bad, args in WRONG_TYPES
             if bad == "x"],
    )
    def test_the_other_functions_of_x_take_the_same_rule(self, entry, name, x):
        with pytest.raises(ArgumentError, match=f"{name} must be a number"):
            entry(x)
        with pytest.raises(DomainError, match=rf"\|{name}\| = inf"):
            entry(HUGE)

    @pytest.mark.parametrize("bad", WRONG_INTEGERS, ids=repr)
    def test_the_li_weight_and_the_radius_stride_take_the_same_rule(self, bad):
        with pytest.raises(ArgumentError, match="polylog weight must be an integer"):
            li(bad, 0.5)
        with pytest.raises(ArgumentError, match="stride m must be an integer"):
            convergence_radius(bad)

    def test_the_domain_rule_comes_before_the_auto_rule(self):
        with pytest.raises(DomainError, match="outside the convergence disk"):
            resolve_auto(2, 1, 100.0)
        with pytest.raises(ArgumentError, match="weight n must be >= 0"):
            resolve_auto(-1, 2, 1.0)
        assert resolve_auto(2, 1, 0.5) == evaluate(2, 1, 0.5).method
        with pytest.raises(DomainError, match=r"\|x\| = inf"):
            SeriesParams(2, 1, HUGE)

    def test_integer_types_and_numeric_strings_still_serve(self):
        class Stride(enum.IntEnum):
            TWO = 2

        want = evaluate(2, 2, 1.0)
        assert evaluate(2, Stride.TWO, 1.0) == want
        assert evaluate(True, 1, 0.5) == evaluate(1, 1, 0.5)
        assert evaluate(2, 2, "1.0") == want
        assert evaluate(2, 1, "0.5+0.25j") == evaluate(2, 1, 0.5 + 0.25j)
        assert SeriesParams(Stride.TWO, Stride.TWO, "1").x == 1 + 0j
        with pytest.raises(ArgumentError, match="n, m must be integers"):
            SeriesParams(2, 2.0, 1.0)
        # the term cap takes what ``operator.index`` takes too
        assert evaluate(2, 2, 1.0, max_terms=Stride.TWO * 50) == want


# The term cap must be an integer >= 1, or None for the default.
WRONG_CAPS = [2.5, "a", 1.0, [5], 0, -3]


class TestTermCapRule:
    @pytest.mark.parametrize("cap", WRONG_CAPS)
    @pytest.mark.parametrize("method", (*METHODS, "auto"))
    def test_every_route_refuses_a_wrong_cap(self, method, cap):
        n, m, x = {"quad-cardano": (3, 1, 0.5), "folding": (2, 2, 1.0)}.get(method, (2, 1, 0.5))
        message = "must be >= 1" if isinstance(cap, int) else "must be an integer"
        with pytest.raises(ArgumentError, match=f"max_terms {message}"):
            evaluate(n, m, x, method, max_terms=cap)

    @pytest.mark.parametrize("cap", WRONG_CAPS)
    def test_resolve_auto_refuses_what_evaluate_refuses(self, cap):
        # at (3, 2, 10) auto folds whatever the cap, and the cap is checked all the same
        message = "must be >= 1" if isinstance(cap, int) else "must be an integer"
        for entry in (evaluate, resolve_auto):
            with pytest.raises(ArgumentError, match=f"max_terms {message}"):
                entry(3, 2, 10.0, max_terms=cap)
        assert resolve_auto(3, 2, 10.0, max_terms=None) == evaluate(3, 2, 10.0).method

    def test_the_library_reads_no_environment_variable(self, monkeypatch):
        # only the CLI reads SERIES_MAX_TERMS; every direct sum here runs at the default cap
        calls = [
            lambda: evaluate(3, 2, 0.3 * R**2),  # auto's direct sum
            lambda: evaluate(9, 2, 45.0),  # a fold over quad-cardano's direct sums
            lambda: evaluate(2, 7, 1.0),  # past the strides folding serves
            lambda: evaluate(3, 1, 6.0, tol=1e-15),  # below QUAD_FLOOR
            lambda: evaluate(2, 1, R, "direct-sum"),  # the rim's cap error
            lambda: evaluate(2, 1, 6.0, "direct-sum"),
            lambda: evaluate(3, 2, 40.0 + 5j, "direct-sum", max_terms=500),
            lambda: fold(9, 2, 1.0, "quad-cardano"),
            lambda: fold(3, 2, 40.0, "direct-sum"),
            lambda: evaluate(9, 1, 6.7, "quad-cardano"),
            lambda: evaluate(3, 1, 0.5, "quad-cardano"),
        ]

        def outcomes():
            out = []
            for call in calls:
                try:
                    out.append(repr(tuple(call())))
                except SeriesError as exc:
                    out.append((type(exc), str(exc)))
            return out

        monkeypatch.delenv("SERIES_MAX_TERMS", raising=False)
        want = outcomes()
        assert sum(isinstance(outcome, str) for outcome in want) == len(calls) - 1
        for env in ("abc", "0", "5"):
            monkeypatch.setenv("SERIES_MAX_TERMS", env)
            assert outcomes() == want, env


# A served point per route, the rim and the x = 0 short cut included.
RULE_ONCE = [
    ("direct-sum", 3, 2, 10.0),
    ("direct-sum", 5, 1, R),
    ("closed-form", 1, 1, 0.5),
    ("closed-form", 0, 1, 1e-10),
    ("closed-form", 2, 1, -R),
    ("folding", 2, 3, 100.0),
    ("quad-polylog", 2, 1, 0.5j),
    ("quad-polylog", 3, 1, R),
    ("quad-cardano", 3, 1, 0.5),
    ("quad-cardano", 4, 1, -R),
    ("quad-two-term", 2, 1, 0.5),
    ("quad-two-term", 3, 1, R),
    ("folding", 3, 2, R2),
    ("folding", 0, 3, 10.0),
    ("folding", 2, 6, 1j),
    ("auto", 2, 1, 0.5),
    ("auto", 4, 1, 0.5),
    ("auto", 3, 2, R2),
    ("auto", 2, 7, 1.0),
    ("auto", 3, 1, 0.0),
    ("direct-sum", 2, 3, 0.0),
    ("quad-polylog", 2, 1, 0.0),
    ("quad-two-term", 2, 1, 0.0),
]


# A served point of fold over every inner route, the rim and the x = 0 short cut
# included: (name, entry(n, m, x), n, m, x).
PUBLIC_RULE_ONCE = [
    *((f"fold over {inner}", _fold_over(inner), 3 if inner == "quad-cardano" else 2, 2, x)
      for inner in METHODS for x in (1.0, 0.0)),
    ("fold over closed-form", _fold_over("closed-form"), 2, 3, -R**3),
    ("fold over quad-cardano", _fold_over("quad-cardano"), 4, 2, 1j),
]


@pytest.fixture
def rule_calls(monkeypatch):
    """The (n, m, x) of every call of the domain rule: ``series._summable``, which
    ``SeriesParams.require_summable`` calls and ``routes`` imports."""
    calls = []
    rule = series._summable

    def counted(n, m, x):
        calls.append((n, m, x))
        return rule(n, m, x)

    monkeypatch.setattr(series, "_summable", counted)
    monkeypatch.setattr(routes, "_summable", counted)
    return calls


class TestDomainRuleOnce:
    @pytest.mark.parametrize("method,n,m,x", RULE_ONCE)
    def test_evaluate_applies_the_rule_once(self, rule_calls, method, n, m, x):
        ev = evaluate(n, m, x, method)
        assert rule_calls == [(n, m, x)]
        assert method in ("auto", ev.method)

    @pytest.mark.parametrize(
        "entry,n,m,x",
        [case[1:] for case in PUBLIC_RULE_ONCE],
        ids=[f"{case[0]} {case[2:]}" for case in PUBLIC_RULE_ONCE],
    )
    def test_public_entries_apply_the_rule_once(self, rule_calls, entry, n, m, x):
        entry(n, m, x)
        assert rule_calls == [(n, m, x)]


def _two_term_grid():
    """+-|x| from the floor to the rim, 8 points per decade, n 2..6."""
    top = math.log10(R)
    k0 = math.ceil(8 * math.log10(TWO_TERM_MIN_X))
    mags = [TWO_TERM_MIN_X] + [10 ** (k / 8) for k in range(k0, math.floor(8 * top) + 1)] + [R]
    return [(n, s * a) for n in range(2, 7) for a in mags for s in (1.0, -1.0)]


class TestTwoTermFloor:
    def test_served_grid_meets_1e9_relative(self):
        worst = 0.0
        for n, x in _two_term_grid():
            ev = evaluate(n, 1, x, "quad-two-term")
            # direct summation inside, and the closed form or quad-cardano on the rim
            ref = (evaluate(n, 1, x, "direct-sum") if abs(x) < 6 else evaluate(n, 1, x)).value
            worst = max(worst, abs(ev.value - ref) / abs(ref))
        assert worst <= 1e-9

    @pytest.mark.parametrize("x", [math.nextafter(TWO_TERM_MIN_X, 0.0), 1.7e-3, 1e-10, 1e-300])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_below_the_floor(self, x, sign):
        x *= sign
        reason = ROUTES["quad-two-term"].refuses(2, 1, complex(x))
        assert reason == "quad-two-term needs |x| >= 0.002, where it holds 1e-9 relative"
        with pytest.raises(ArgumentError) as from_route:
            evaluate(3, 1, x, "quad-two-term")
        assert str(from_route.value) == reason
        assert evaluate(3, 1, x).method == "quad-cardano"  # auto never takes quad-two-term
        # every weight refuses with the route's message; the limits still serve
        for n in (2, 5):
            with pytest.raises(ArgumentError) as from_public:
                evaluate(n, 1, x, "quad-two-term")
            assert str(from_public.value) == reason
        if abs(x) >= 1e-306:
            lim = two_term_limits(x)
            assert math.isfinite(lim.alpha) and math.isfinite(lim.beta)

    def test_serves_from_the_floor(self):
        # at S(5,1;0.0017) it was 1.6e-11 off with an estimate of 1.2e-13
        for x in (TWO_TERM_MIN_X, -TWO_TERM_MIN_X):
            assert evaluate(5, 1, x, "quad-two-term").method == "quad-two-term"
        # as on every route
        assert evaluate(2, 1, 0.0, "quad-two-term") == (0j, 0.0, "quad-two-term", 0)

    def test_cli_exit_code_below_the_floor(self, capsys):
        code = main(["eval", "--n", "2", "--m", "1", "--x", "0.001", "--method", "quad-two-term"])
        err = capsys.readouterr().err
        assert code == EXIT_DOMAIN
        assert "quad-two-term needs |x| >= 0.002" in err
        argv = ["eval", "--n", "2", "--m", "1", "--x", "0.002", "--method", "quad-two-term"]
        assert main(argv) == 0


def _evaluate_at(method):
    """evaluate at a point the method serves: S(2, 1; 0.5), S(3, 1; 0.5) for quad-cardano
    and S(2, 2; 1) for folding."""
    n, m, x = {"quad-cardano": (3, 1, 0.5), "folding": (2, 2, 1.0)}.get(method, (2, 1, 0.5))
    return lambda tol: evaluate(n, m, x, method, tol=tol)


def _fold_over(inner):
    """fold at S(2, 2; 1), or S(3, 2; 1) over quad-cardano."""
    n = 3 if inner == "quad-cardano" else 2
    return lambda tol: fold(n, 2, 1.0, inner, tol=tol)


# Every public entry that takes a tolerance, as a function of it.
TOL_ENTRIES = [
    *((f"evaluate {method}", _evaluate_at(method)) for method in (*METHODS, "auto")),
    ("resolve_auto", lambda tol: resolve_auto(3, 1, 0.5, tol=tol)),
    *((f"fold over {inner}", _fold_over(inner)) for inner in METHODS if inner != "folding"),
    ("adaptive_quad", lambda tol: adaptive_quad(math.sin, 0.0, 1.0, tol)),
    ("run_special_values", lambda tol: run_special_values(tol)),
    ("run_cross_routes", lambda tol: run_cross_routes(tol=tol)),
    ("run_borwein_girgensohn", lambda tol: run_borwein_girgensohn(tol)),
    ("run_all", lambda tol: run_all(tol)),
]


class TestToleranceRule:
    @pytest.mark.parametrize(
        "entry", [case[1] for case in TOL_ENTRIES], ids=[case[0] for case in TOL_ENTRIES]
    )
    @given(tol=st.one_of(st.floats(max_value=0.0), st.just(math.nan)))
    @example(tol=0.0)
    @example(tol=-1.0)
    @example(tol=math.nan)
    @settings(max_examples=10, deadline=None)
    def test_every_entry_refuses_a_non_positive_tolerance(self, entry, tol):
        with pytest.raises(ArgumentError) as info:
            entry(tol)
        assert str(info.value) == f"tol must be positive, got {tol!r}"

    @pytest.mark.parametrize(
        "entry", [case[1] for case in TOL_ENTRIES], ids=[case[0] for case in TOL_ENTRIES]
    )
    @pytest.mark.parametrize("tol", ["a", 1 + 0j, [1e-8]])
    def test_every_entry_refuses_a_tolerance_that_is_not_real(self, entry, tol):
        with pytest.raises(ArgumentError) as info:
            entry(tol)
        assert str(info.value) == f"tol must be a real number, got {tol!r}"

    @pytest.mark.parametrize(
        "name,entry",
        [case for case in TOL_ENTRIES if not case[0].startswith("run_")],
        ids=[case[0] for case in TOL_ENTRIES if not case[0].startswith("run_")],
    )
    def test_every_entry_serves_its_point(self, name, entry):
        # the points above are served, so that a refusal comes from the tolerance alone
        assert entry(1e-8) is not None
        assert entry(None) is not None
        # 1e-15 is the series default: summation and the closed forms serve it, while a
        # quadrature, which cannot meet it, refuses before it integrates anything (it
        # gave up after 2,000 subdivisions, 20 ms and more, before the floor was checked)
        if "quad" not in name:
            assert entry(1e-15) is not None
            return
        start = time.perf_counter()
        with pytest.raises(ArgumentError) as info:
            entry(1e-15)
        assert time.perf_counter() - start < 5e-3
        assert str(info.value) == (
            f"quadrature needs tol >= QUAD_FLOOR = {QUAD_FLOOR:.3g}, its rounding floor; got 1e-15"
        )
