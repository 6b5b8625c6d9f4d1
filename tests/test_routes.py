"""Route dispatch, the route table and the auto resolution rule."""

import cmath
import math
import random

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
    adaptive_quad,
    evaluate,
    fold,
    quad_cardano,
    quad_polylog,
    quad_two_term,
    resolve_auto,
    run_all,
    run_borwein_girgensohn,
    run_cross_routes,
    run_polylog_factorization,
    run_special_values,
    s01,
    s11,
    s21,
    sum_direct,
    two_term_limits,
)
from invbinom import routes, series
from invbinom.cli import EXIT_DOMAIN, main
from invbinom.integral_reps import TWO_TERM_MIN_X
from invbinom.routes import ROUTES
from invbinom.series import convergence_radius, terms_needed
from invbinom.verify import _applicable_routes
from test_series import _summable


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

# (n, m) whose 92-202 terms at rho = 0.9 exceed the budget of 50 per unit of stride.
QUADRATURE_AT_0_9 = {(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (6, 1)}


def _at(rho, m, theta=0.0):
    return rho * R**m * cmath.exp(1j * theta)


class TestResolveAuto:
    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("rho", [1e-9, 0.3, 0.9])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_high_weight_sums_directly_where_few_terms_suffice(self, n, rho, m):
        route = "direct-sum"
        if rho == 0.9 and (n, m) in QUADRATURE_AT_0_9:
            route = "quad-cardano" if m == 1 else "folding"
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
        # at m = 1 always; at m >= 2 where direct summation needs more than 8 (m - 1) terms
        for rho in (0.0, 1e-9, 0.5, 0.99, 1.0) if m == 1 else (0.5, 0.99, 1.0):
            assert resolve_auto(n, m, _at(rho, m, 1.0)) == ("closed-form" if m == 1 else "folding")

    # (n, m, rho) -> route at angle 0.7: direct summation within 8 terms per unit of stride
    # past the first (terms_needed in the comment), folding beyond.
    @pytest.mark.parametrize(
        "n,m,rho,route",
        [
            (0, 2, 1e-9, "direct-sum"),  # 2 terms
            (0, 2, 0.01, "direct-sum"),  # 8
            (0, 2, 0.02, "folding"),  # 10
            (1, 2, 0.01, "direct-sum"),  # 8
            (1, 2, 0.02, "folding"),  # 9
            (2, 2, 0.01, "direct-sum"),  # 7
            (2, 2, 0.02, "folding"),  # 9
            (0, 3, 0.1, "direct-sum"),  # 16
            (0, 3, 0.2, "folding"),  # 23
            (2, 3, 0.1, "direct-sum"),  # 14
            (2, 3, 0.2, "folding"),  # 19
            (1, 6, 0.3, "direct-sum"),  # 28
            (2, 6, 0.4, "direct-sum"),  # 33
            (0, 6, 0.4, "direct-sum"),  # 40
            (0, 6, 0.45, "folding"),  # 45
        ],
    )
    def test_low_weight_sums_directly_within_its_stride_budget(self, n, m, rho, route):
        assert routes.LOW_WEIGHT_TERM_BUDGET == 8
        assert resolve_auto(n, m, _at(rho, m, 0.7)) == route
        assert evaluate(n, m, _at(rho, m, 0.7)).method == route

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_low_weight_budget_is_the_term_count_rule(self, n):
        for m in range(2, 7):
            for rho in (1e-12, 1e-6, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
                direct = terms_needed(n, rho, 1e-15) <= 8 * (m - 1)
                for theta in (0.0, math.pi, 0.7):
                    got = resolve_auto(n, m, _at(rho, m, theta))
                    assert got == ("direct-sum" if direct else "folding"), (n, m, rho, theta)

    def test_quadrature_where_direct_summation_costs_more(self):
        assert resolve_auto(3, 1, 0.99 * R) == "quad-cardano"
        assert resolve_auto(3, 2, 0.999 * R**2) == "folding"

    # (n, m, rho) -> route at angle 0.7, with the measured direct / quadrature
    # times (ms, min of 15, factor-table kernel) that place each point on its side of
    # the break-even.
    @pytest.mark.parametrize(
        "n,m,rho,route",
        [
            (3, 1, 0.4, "direct-sum"),  # 29 terms: 0.065 vs 0.070
            (3, 1, 0.75, "quad-cardano"),  # 82 terms: 0.124 vs 0.069
            (3, 1, 0.97, "quad-cardano"),  # 608 terms: 0.712 vs 0.066
            (3, 1, 0.98, "quad-cardano"),  # 872 terms: 1.01 vs 0.069
            (3, 3, 0.99, "folding"),  # 1,602 terms: 2.43 vs 0.227
            (3, 6, 0.8, "direct-sum"),  # 103 terms: 0.167 vs 0.397
            (3, 6, 0.995, "folding"),  # 2,913 terms: 8.04 vs 0.502
            (4, 2, 0.5, "direct-sum"),  # 33 terms: 0.067 vs 0.205
            (4, 2, 0.99, "folding"),  # 1,024 terms: 1.32 vs 0.369
            (4, 2, 0.995, "folding"),  # 1,698 terms: 2.16 vs 0.370
            (4, 5, 0.8, "direct-sum"),  # 86 terms: 0.167 vs 0.597
            (4, 5, 0.995, "folding"),  # 1,698 terms: 4.02 vs 0.607
        ],
    )
    def test_budget_sits_at_the_measured_break_even(self, n, m, rho, route):
        assert resolve_auto(n, m, _at(rho, m, 0.7)) == route

    def test_a_short_term_cap_keeps_quadrature(self, monkeypatch):
        x = 0.3 * R  # 25 terms
        assert evaluate(3, 1, x).method == "direct-sum"
        assert evaluate(3, 1, x, max_terms=20).method == "quad-cardano"
        monkeypatch.setenv("SERIES_MAX_TERMS", "20")
        assert evaluate(3, 1, x).method == "quad-cardano"

    def test_auto_reads_the_term_cap_once(self, monkeypatch):
        reads, read = [], series.default_max_terms

        def counted():
            reads.append(None)
            return read()

        monkeypatch.setattr(series, "default_max_terms", counted)
        monkeypatch.setattr(routes, "default_max_terms", counted)
        assert evaluate(3, 1, 0.3 * R).method == "direct-sum"
        assert len(reads) == 1
        assert evaluate(2, 3, 1e-6).method == "direct-sum"
        assert len(reads) == 2
        # the cap is still read at call time, and only where a route may need it
        monkeypatch.setenv("SERIES_MAX_TERMS", "0")
        with pytest.raises(ArgumentError, match="SERIES_MAX_TERMS"):
            evaluate(3, 1, 0.3 * R)
        assert evaluate(2, 1, 0.3 * R).method == "closed-form"

    @pytest.mark.parametrize("n,m,rho", [(3, 1, 0.3), (5, 1, 0.3), (6, 3, 0.35), (4, 2, 0.9)])
    def test_auto_never_picks_direct_summation_that_hits_its_cap(self, n, m, rho, monkeypatch):
        # the estimate falls up to 2 terms short here; a ConvergenceError fails the test.
        # The cost budget is lifted so that only the cap decides.
        monkeypatch.setattr(routes, "DIRECT_TERM_BUDGET", 10**6)
        x = _at(rho, m, 0.5)
        need = sum_direct(n, m, x).work
        caps = range(need - 3, need + need // 8 + 4)
        methods = [evaluate(n, m, x, max_terms=cap).method for cap in caps]
        assert methods[0] != "direct-sum" and methods[-1] == "direct-sum"

    def test_tolerance_is_passed_through(self):
        x = 0.7 * R  # about 68 terms at tol 1e-15, 19 at 1e-6
        assert evaluate(3, 1, x).method == "quad-cardano"
        assert evaluate(3, 1, x, tol=1e-6).method == "direct-sum"
        with pytest.raises(ArgumentError, match="tol must be positive"):
            evaluate(3, 1, 0.5, tol=0.0)


def _term_count_rule(n, m, x, tol, cap):
    """auto's route for n >= 3 by the predicted term count (series.terms_needed)."""
    need = terms_needed(n, abs(x) / convergence_radius(m), tol)
    if need <= routes.DIRECT_TERM_BUDGET * m and 1.125 * need + 2 <= cap:
        return "direct-sum"
    if m == 1:
        return "quad-cardano"
    return "folding" if m <= 6 else "direct-sum"  # fold serves strides 1..6


def _rule_grid():
    """Seeded (n, m, rho, angle, cap, tol) points, and points whose continuous term
    count lies within 1e-9 of the budget, of the cap's limit or of another integer."""
    rng = random.Random(2024)
    for _ in range(3000):
        n, m = rng.randint(3, 8), rng.randint(1, 60)
        rho = rng.choice([1.0, 1.0 - 10 ** rng.uniform(-8, 0), 10 ** rng.uniform(-12, 0)])
        cap = rng.choice([1_000_000, rng.randint(1, 3000)])
        tol = rng.choice([1e-15, 1e-12, 10 ** rng.uniform(-16, -1)])
        yield n, m, rho, rng.uniform(-math.pi, math.pi), cap, tol
    for _ in range(600):
        n, m = rng.randint(3, 8), rng.randint(1, 60)
        cap = rng.choice([1_000_000, rng.randint(30, 3000)])
        tol = rng.choice([1e-15, 1e-12, 1e-9])
        budget = min(routes.DIRECT_TERM_BUDGET * m, 8 * (cap - 2) // 9)
        k = rng.choice([budget, budget + 1, max(2, budget - 1), rng.randint(2, 3000)])
        root = k + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -9)
        # f(root) = ln(tol) with f(k) = k ln(rho) + (1/2 - n) ln(k)
        rho = math.exp((math.log(tol) - (0.5 - n) * math.log(root)) / root)
        if rho < 1.0:
            yield n, m, rho, rng.uniform(-math.pi, math.pi), cap, tol


class TestAutoRuleEquivalence:
    def test_one_budget_test_picks_the_term_count_rule(self):
        at_the_edge = 0
        for n, m, rho, theta, cap, tol in _rule_grid():
            x = _at(rho, m, theta)
            want = _term_count_rule(n, m, x, tol, cap)
            assert resolve_auto(n, m, x, tol=tol, max_terms=cap) == want, (n, m, rho, cap, tol)
            need = terms_needed(n, abs(x) / convergence_radius(m), tol)
            budget = min(routes.DIRECT_TERM_BUDGET * m, 8 * (cap - 2) // 9)
            at_the_edge += need in (budget, budget + 1)
        assert at_the_edge >= 50  # both sides of the budget are sampled closely

    def test_non_positive_tolerance_raises_and_tiny_caps_keep_quadrature(self):
        for tol in (0.0, -1.0):
            with pytest.raises(ArgumentError, match="tol must be positive"):
                resolve_auto(3, 1, 1e-20, tol=tol)
        for cap in (1, 2, 3):
            assert resolve_auto(3, 1, 1e-20, tol=1e-15, max_terms=cap) == "quad-cardano"
        assert resolve_auto(3, 1, 1e-20, max_terms=4) == "direct-sum"  # 1 term: 1.125 + 2 <= 4


class TestEvaluate:
    def test_auto_matches_direct_summation(self):
        for n, m, x in ((2, 1, 0.5), (0, 1, -1.0), (2, 2, 6.0), (3, 1, 1.0), (3, 2, 1.0)):
            ref = sum_direct(n, m, x).value
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
            ref = sum_direct(n, 1, 0.5).value
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
        with pytest.raises(ArgumentError):
            evaluate(2, 2, 0.5, "quad-polylog")
        with pytest.raises(ArgumentError):
            evaluate(2, 2, 0.5, "quad-two-term")
        with pytest.raises(ArgumentError):
            evaluate(2, 1, 0.5 + 0.1j, "quad-two-term")
        with pytest.raises(ArgumentError):
            evaluate(3, 1, 0.5, "pfq")
        with pytest.raises(ArgumentError):
            evaluate(2, 1, 0.5, "newton")
        with pytest.raises(ArgumentError):
            evaluate(2, 7, 1.0, "folding")  # auto falls back here; a named route does not
        with pytest.raises(ArgumentError):
            evaluate(2, 7, 1.0, "closed-form")

    def test_complex_arguments_through_auto(self):
        z = 0.4 + 1.1j
        ref = sum_direct(2, 1, z).value
        assert abs(evaluate(2, 1, z).value - ref) < 1e-12

    def test_complex_hypergeometric_route(self):
        z = 1.0 + 1.0j
        got = evaluate(2, 1, z, "pfq").value
        assert abs(got - s21(z).value) < 1e-12

    @given(
        n=st.integers(0, 4),
        m=st.integers(1, 3),
        x=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_auto_always_lands_in_tolerance_of_direct(self, n, m, x):
        ref = sum_direct(n, m, x).value
        got = evaluate(n, m, x).value
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


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
        ref = sum_direct(n, m, x)
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
FOLD_STRIDE = "folding stride must be in [1, 6], got 0"
STRIDE = "stride m must be >= 1, got 0"


def _needs(k: int, n: int) -> str:
    return f"this route needs n >= {k}, got {n}"


# Each public entry outside its domain, with the error type and message it raised
# before the entries were split into checks and kernels.
DOMAIN_ERRORS = [
    ("s01 past", lambda: s01(7.0), DomainError, _outside(7.0, 1, 0)),
    ("s01 rim", lambda: s01(R), DomainError, _outside(6.75, 1, 0)),
    ("s11 past", lambda: s11(7.0), DomainError, _outside(7.0, 1, 1)),
    ("s11 rim", lambda: s11(R), DomainError, _outside(6.75, 1, 1)),
    ("s21 past", lambda: s21(7.0), DomainError, _outside(7.0, 1, 2)),
    ("fold past", lambda: fold(2, 2, 46.0), DomainError, _outside(46.0, 2, 2)),
    ("fold rim", lambda: fold(1, 2, R2), DomainError, _outside(45.5625, 2, 1)),
    ("fold n<0", lambda: fold(-1, 2, 0.5), ArgumentError, WEIGHT),
    ("fold m0", lambda: fold(2, 0, 0.5), ArgumentError, FOLD_STRIDE),
    ("sum_direct past", lambda: sum_direct(2, 1, 7.0), DomainError, _outside(7.0, 1, 2)),
    ("sum_direct rim", lambda: sum_direct(1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("sum_direct n<0", lambda: sum_direct(-1, 1, 0.5), ArgumentError, WEIGHT),
    ("sum_direct m0", lambda: sum_direct(2, 0, 0.5), ArgumentError, STRIDE),
    ("quad_polylog past", lambda: quad_polylog(2, 7.0), DomainError, _outside(7.0, 1, 2)),
    ("quad_polylog rim", lambda: quad_polylog(1, R), DomainError, _outside(6.75, 1, 1)),
    ("quad_polylog n<0", lambda: quad_polylog(-1, 0.5), ArgumentError, _needs(1, -1)),
    ("quad_cardano past", lambda: quad_cardano(3, 7.0), DomainError, _outside(7.0, 1, 3)),
    # quad_cardano is evaluate's quad-cardano route: the domain rule first, then the route's
    ("quad_cardano rim", lambda: quad_cardano(1, R), DomainError, _outside(6.75, 1, 1)),
    ("quad_cardano n<0", lambda: quad_cardano(-1, 0.5), ArgumentError, WEIGHT),
    ("quad_cardano n<3", lambda: quad_cardano(2, 0.5), ArgumentError,
     "quad-cardano needs n >= 3, got 2"),
    # the two-term limits apply the rule at n = 2 whatever n is
    ("quad_two_term past", lambda: quad_two_term(3, 7.0), DomainError, _outside(7.0, 1, 2)),
    ("quad_two_term rim", lambda: quad_two_term(1, R), ArgumentError, _needs(2, 1)),
    ("quad_two_term n<0", lambda: quad_two_term(-1, 0.5), ArgumentError, _needs(2, -1)),
    ("evaluate past", lambda: evaluate(3, 2, 46.0), DomainError, _outside(46.0, 2, 3)),
    ("evaluate rim", lambda: evaluate(1, 1, R), DomainError, _outside(6.75, 1, 1)),
    ("evaluate n<0", lambda: evaluate(-1, 1, 0.5), ArgumentError, WEIGHT),
    ("evaluate m0", lambda: evaluate(2, 0, 0.5), ArgumentError, STRIDE),
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
    ("pfq", 1, 1, 0.5),
    ("auto", 2, 1, 0.5),
    ("auto", 4, 1, 0.5),
    ("auto", 3, 2, R2),
    ("auto", 2, 7, 1.0),
    ("auto", 3, 1, 0.0),
]


class TestDomainRuleOnce:
    @pytest.mark.parametrize("method,n,m,x", RULE_ONCE)
    def test_evaluate_applies_the_rule_once(self, monkeypatch, method, n, m, x):
        calls = []
        rule = SeriesParams.require_summable

        def counted(n, m, x):
            calls.append((n, m, x))
            return rule(n, m, x)

        monkeypatch.setattr(SeriesParams, "require_summable", staticmethod(counted))
        ev = evaluate(n, m, x, method)
        assert calls == [(n, m, x)]
        assert method in ("auto", ev.method)


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
            ref = (sum_direct(n, 1, x) if abs(x) < 6 else evaluate(n, 1, x)).value
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
        assert evaluate(3, 1, x).method == "direct-sum"
        # the public function refuses with the route's message; the limits still serve
        for n in (2, 5):
            with pytest.raises(ArgumentError) as from_public:
                quad_two_term(n, x)
            assert str(from_public.value) == reason
        if abs(x) >= 1e-306:
            lim = two_term_limits(x)
            assert math.isfinite(lim.alpha) and math.isfinite(lim.beta)

    def test_public_function_serves_from_the_floor(self):
        # at S(5,1;0.0017) it was 1.6e-11 off with an estimate of 1.2e-13
        for x in (TWO_TERM_MIN_X, -TWO_TERM_MIN_X):
            assert quad_two_term(5, x) == evaluate(5, 1, x, "quad-two-term")
        with pytest.raises(DomainError, match="x -> 0"):
            quad_two_term(2, 0.0)

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
    ("sum_direct", lambda tol: sum_direct(2, 1, 0.5, tol=tol)),
    ("adaptive_quad", lambda tol: adaptive_quad(math.sin, 0.0, 1.0, tol)),
    ("quad_polylog", lambda tol: quad_polylog(2, 0.5, tol)),
    ("quad_cardano", lambda tol: quad_cardano(3, 0.5, tol)),
    ("quad_two_term", lambda tol: quad_two_term(2, 0.5, tol)),
    ("run_special_values", lambda tol: run_special_values(tol)),
    ("run_cross_routes", lambda tol: run_cross_routes(tol=tol)),
    ("run_borwein_girgensohn", lambda tol: run_borwein_girgensohn(tol)),
    ("run_polylog_factorization", lambda tol: run_polylog_factorization(tol)),
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
        "entry",
        [case[1] for case in TOL_ENTRIES if not case[0].startswith("run_")],
        ids=[case[0] for case in TOL_ENTRIES if not case[0].startswith("run_")],
    )
    def test_every_entry_serves_its_point(self, entry):
        # the points above are served, so that a refusal comes from the tolerance alone
        assert entry(1e-8) is not None
        assert entry(None) is not None
