"""Direct summation, exact binomials and the term recurrence."""

import cmath
import math
import random
import statistics
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invbinom import (
    ArgumentError,
    ConvergenceError,
    DomainError,
    Evaluation,
    SeriesParams,
    convergence_radius,
    evaluate,
    sum_direct,
)
from invbinom import CardanoRoot, phi, series
from invbinom.closed_forms import REAL_BRANCH, _leading_terms
from invbinom.series import (
    _FACTOR_TABLE,
    _FACTORS,
    _block_terms,
    _computed_factors,
    _first_term,
    _inside,
    _on_rim,
    _ratios,
    _short_sum_terms,
    _step,
    _stride_factors,
    _terms,
    terms_needed,
)

# Frozen from exact-fraction partial sums (math.comb over Fraction).
S22_AT_1 = 0.06717778880529868
S11_AT_HALF = 0.17552982924699026
S01_AT_HALF = 0.18495901209107352


def _summable(n, m, x):
    """The test of the domain rule (``SeriesParams.require_summable``)."""
    return _inside(n, abs(complex(x)), convergence_radius(m))


def _ratio(k, n, m, x):
    """The stride-m term ratio t_{k+1} / t_k, as ``sum_direct`` forms it."""
    return next(_ratios(k, k + 1, n, m, complex(x)))


def _series_terms(n, m, x, count):
    """t_1 .. t_count, built exactly as ``sum_direct`` builds them (in float
    arithmetic for real x): the first term, then the ratio recurrence."""
    xc = complex(x)
    t = _first_term(m, xc)
    if xc.imag == 0.0:
        return [complex(v) for v in _terms(t.real, 1, count - 1, n, m, xc.real)]
    return _terms(t, 1, count - 1, n, m, xc)


class TestDomainModel:
    def test_interior_rim_outside(self):
        assert _summable(2, 1, 3.0) and not _on_rim(1, 3.0)
        assert _on_rim(1, 27 / 4)
        assert not _summable(2, 1, 6.7500001) and not _on_rim(1, 6.7500001)
        assert _on_rim(2, 45.5625)
        assert _on_rim(2, complex(0, 45.5625))

    def test_summable_needs_weight_two_on_the_rim(self):
        assert _summable(2, 1, 27 / 4)
        assert not _summable(1, 1, 27 / 4)
        assert _summable(0, 1, 1.0)

    def test_radius_values_are_exact(self):
        assert convergence_radius(1) == 6.75
        assert convergence_radius(2) == 45.5625
        assert convergence_radius(3) == 307.546875

    def test_invalid_params_raise(self):
        with pytest.raises(ArgumentError):
            SeriesParams(-1, 1, 0.5)
        with pytest.raises(ArgumentError):
            SeriesParams(2, 0, 0.5)

    def test_radius_past_binary64_is_infinite(self):
        assert convergence_radius(371) < math.inf
        assert convergence_radius(372) == math.inf
        assert _summable(2, 400, 1e300)
        assert not _summable(2, 400, math.inf)
        assert not _on_rim(400, math.inf)

    def test_domain_rule_names_the_bound(self):
        with pytest.raises(DomainError, match=r"\(27/4\)\*\*1 = 6.75"):
            SeriesParams.require_summable(2, 1, 7.0)
        with pytest.raises(DomainError, match="n >= 2, got n = 1"):
            SeriesParams.require_summable(1, 1, 27 / 4)
        assert SeriesParams.require_summable(2, 1, 27 / 4) == 6.75 + 0j


class TestEvaluation:
    """One checked constructor for the one value type, an immutable NamedTuple."""

    def test_fields_are_fixed(self):
        assert Evaluation._fields == ("value", "abs_error_est", "method", "work")
        ev = Evaluation(0.5, 1e-16, "direct-sum", 3)
        value, err, method, work = ev
        assert (value, err, method, work) == (0.5 + 0j, 1e-16, "direct-sum", 3)
        assert type(value) is complex
        assert ev == (0.5 + 0j, 1e-16, "direct-sum", 3)
        assert (ev.value, ev.abs_error_est, ev.method, ev.work) == tuple(ev)

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 0.0)]
    )
    def test_rejects_a_non_finite_value(self, value):
        with pytest.raises(ArgumentError, match="^evaluation produced a non-finite value$"):
            Evaluation(value, 0.0, "direct-sum", 1)

    @pytest.mark.parametrize("err", [math.inf, math.nan, -1e-300, -math.inf])
    def test_rejects_a_non_finite_or_negative_estimate(self, err):
        with pytest.raises(ArgumentError, match=r"^abs_error_est must be finite and >= 0$"):
            Evaluation(1.0, err, "direct-sum", 1)

    def test_rejects_negative_work(self):
        with pytest.raises(ArgumentError, match="^work must be >= 0$"):
            Evaluation(1.0, 0.0, "direct-sum", -1)

    def test_checks_run_in_order(self):
        with pytest.raises(ArgumentError, match="non-finite value"):
            Evaluation(math.nan, math.nan, "direct-sum", -1)
        with pytest.raises(ArgumentError, match="abs_error_est"):
            Evaluation(1.0, math.nan, "direct-sum", -1)

    def test_is_immutable(self):
        ev = evaluate(2, 1, 0.5)
        for name in ("value", "abs_error_est", "method", "work", "extra"):
            with pytest.raises(AttributeError):
                setattr(ev, name, 0)
        assert ev == evaluate(2, 1, 0.5)

    def test_replace_goes_through_the_checks(self):
        ev = Evaluation(1.0, 0.0, "direct-sum", 1)
        assert ev._replace(work=2) == Evaluation(1.0, 0.0, "direct-sum", 2)
        with pytest.raises(ArgumentError, match="work"):
            ev._replace(work=-1)
        with pytest.raises(ArgumentError, match="non-finite"):
            Evaluation._make((math.inf, 0.0, "direct-sum", 1))

    def test_cardano_root_is_a_named_tuple(self):
        root = phi(0.5)
        assert CardanoRoot._fields == ("x", "phi", "branch")
        x, p, branch = root
        assert (x, p, branch) == (root.x, root.phi, root.branch)
        assert (x, branch) == (0.5 + 0j, REAL_BRANCH)
        with pytest.raises(AttributeError):
            root.phi = 1.0


class TestTermRatio:
    def test_ratio_at_k1_weight0(self):
        # 2*3*4 / (4*5*6)
        assert _ratio(1, 0, 1, 1.0) == pytest.approx(0.2, abs=0)

    def test_ratio_at_k1_weight2(self):
        # (1/2)**2 * 1/5
        assert _ratio(1, 2, 1, 1.0) == pytest.approx(0.05, abs=0)

    def test_zero_argument_kills_the_ratio(self):
        assert _ratio(1, 0, 1, 0.0) == 0

    def test_modulus_tends_to_4x_over_27(self):
        limit = 4.0 / 27.0
        assert abs(_ratio(4000, 3, 1, 1.0)) == pytest.approx(limit, rel=1e-3)

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
    def test_modulus_monotone_for_large_k(self, n):
        values = [abs(r) for r in _ratios(20, 80, n, 1, 1.0 + 0j)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d <= 0 for d in diffs) or all(d >= 0 for d in diffs)

    def test_stride_one_ratio_against_its_exact_expansion(self):
        # x (k/(k+1))**n (k+1)(2k+1)(2k+2) / ((3k+1)(3k+2)(3k+3)): three roundings
        k, n, x = 3, 2, 0.7
        exact = Fraction(x) * Fraction(k, k + 1) ** n
        exact *= Fraction((k + 1) * (2 * k + 1) * (2 * k + 2), (3 * k + 1) * (3 * k + 2) * (3 * k + 3))
        got = _ratio(k, n, 1, x)
        assert got.imag == 0.0
        assert abs(Fraction(got.real) - exact) <= 2 * exact / 2**53

    def test_huge_stride_ratio_underflows(self):
        # the product of 10**5 factors near 4/27 is 0; building it must not exhaust the C
        # stack, which the materialised chain every _MAP_DEPTH offsets prevents
        assert 10**5 > 100 * series._MAP_DEPTH
        assert _ratio(1, 0, 10**5, 1.0) == 0

    @pytest.mark.parametrize("m", [45, 60, 133])
    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_large_stride_ratio_does_not_overflow(self, m, k):
        # the 3m-factor products overflow binary64 here; the ratio must not
        exact = Fraction(math.comb(3 * m * k, m * k), math.comb(3 * m * (k + 1), m * (k + 1)))
        assert _ratio(k, 0, m, 1.0).real == pytest.approx(float(exact), rel=1e-14)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# (n, m, x): real and complex, both sides of the short-sum threshold, the rim
BIT_POINTS = [
    (0, 1, 6.5),
    (3, 4, 0.9 * 6.75**4 * cmath.exp(0.7j)),
    (2, 8, -0.99 * 6.75**8),
    (3, 1, 0.5),
    (4, 2, 1e-6 * cmath.exp(2.0j)),
    (1, 3, -0.3 * 6.75**3),
    (0, 2, 0.97j * 6.75**2),
    (4, 1, 6.75),
]


class TestBitIdentity:
    def test_stride_one_factors_are_correctly_rounded(self):
        # f_j = C(3j, j) / C(3j+3, j+1) = 2(j+1)(2j+1) / (3(3j+1)(3j+2)), rounded once
        def factor(j):
            return float(Fraction(2 * (j + 1) * (2 * j + 1), 3 * (3 * j + 1) * (3 * j + 2)))

        binomial_ratios = [Fraction(math.comb(3 * j, j), math.comb(3 * j + 3, j + 1)) for j in range(300)]
        assert _stride_factors(0, 300, 1) == list(map(float, binomial_ratios))
        assert _stride_factors(0, 5000, 1) == [factor(j) for j in range(5000)]
        for j in (10**6 + 7, 2**40 + 3, 10**30):
            assert _stride_factors(j, j + 1, 1) == [factor(j)], j

    def test_stride_steps_are_in_order_products_of_the_factors(self):
        # _step (the term-by-term form) and _stride_factors (the block form) agree bit for bit
        for m in [*range(1, 13), 60, 371]:
            f = _stride_factors(m, 60 * m + m, 1)  # j = m .. 60m + m - 1
            block = _stride_factors(1, 61, m)
            for k in range(1, 61):
                want = f[(k - 1) * m]
                for v in f[(k - 1) * m + 1 : k * m]:
                    want *= v
                assert block[k - 1].hex() == want.hex() == _step(k, m).hex(), (k, m)

    def test_factor_table_is_correctly_rounded(self):
        assert isinstance(_FACTORS, tuple) and len(_FACTORS) == _FACTOR_TABLE
        for j, f in enumerate(_FACTORS):
            assert f == float(Fraction((2 * j + 2) * (2 * j + 1), (9 * j + 3) * (3 * j + 2))), j

    @given(
        m=st.sampled_from([*range(1, 9), 134, 371, 1100]),
        start=st.integers(-40, 40),
        count=st.integers(0, 40),
        edge=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    @example(m=3, start=-2, count=5, edge=1.0)  # k straddles j = _FACTOR_TABLE
    @settings(max_examples=80, deadline=None)
    def test_stride_factors_are_in_order_products_past_the_table(self, m, start, count, edge):
        # slices of the table, computed factors past its end, and both in one range
        k0 = max(0, int(edge * _FACTOR_TABLE) // m + start)
        f = list(_computed_factors(m * k0, m * (k0 + count)))
        want = []
        for k in range(count):
            p = f[k * m]
            for v in f[k * m + 1 : (k + 1) * m]:
                p *= v
            want.append(p.hex())
        assert [v.hex() for v in _stride_factors(k0, k0 + count, m)] == want
        if count:
            assert _step(k0 + count - 1, m).hex() == want[-1]

    def test_auto_direct_sums_stay_inside_the_table(self, monkeypatch):
        # the direct sums auto picks at strides m <= 6 never need a factor past the table
        rng = random.Random(20261018)
        points = [
            (n, m, rng.uniform(0.0, 0.9) * 6.75**m * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            for n in (3, 4, 5, 6)
            for m in range(1, 7)
            for _ in range(25)
        ]
        rhos = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)
        points += [(n, m, rho * 6.75**m) for n in (3, 4, 6, 8) for m in range(1, 7) for rho in rhos]

        def computed(j0, j1):
            raise AssertionError(f"factors {j0}..{j1} computed")

        monkeypatch.setattr(series, "_computed_factors", computed)
        methods = [evaluate(n, m, x).method for n, m, x in points]
        assert methods.count("direct-sum") > len(points) // 4

    @pytest.mark.parametrize("n,m,x", BIT_POINTS)
    def test_sum_direct_is_the_fsum_of_series_terms(self, n, m, x):
        ev = sum_direct(n, m, x)
        terms = _series_terms(n, m, x, ev.work)
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        assert _bits(ev.value) == _bits(want)

    @pytest.mark.parametrize("n,m,x", BIT_POINTS)
    def test_short_and_block_paths_give_the_same_bits(self, n, m, x):
        # sum_direct picks a path by the predicted term count alone; both must agree
        xc = complex(x)
        xs = xc.real if xc.imag == 0.0 else xc
        t = _first_term(m, xc)
        t = t.real if xc.imag == 0.0 else t
        short, short_step = _short_sum_terms(t, n, m, xs, 1e-15, 10**6)
        for size in (1, 2, 3, 7, 64, 4096):  # blocks that end anywhere relative to the stop
            block, block_step = _block_terms(t, n, m, xs, 1e-15, 10**6, size)
            assert [_bits(v) for v in block] == [_bits(v) for v in short], size
            assert block_step.hex() == short_step.hex()
        cap = len(short)  # the stop falls on the last term the cap allows
        assert _block_terms(t, n, m, xs, 1e-15, cap, 5)[0] == short
        assert _short_sum_terms(t, n, m, xs, 1e-15, cap - 1)[0] is None
        assert _block_terms(t, n, m, xs, 1e-15, cap - 1, 5)[0] is None


class TestBinomialExact:
    """The exact binomials of the first term and of fold's leading terms (``math.comb``)."""

    @pytest.mark.parametrize("m,expected", [(1, 3), (2, 15), (6, 18564)])
    def test_known_values(self, m, expected):
        assert _first_term(m, complex(expected)) == 1.0  # C(3m, m), exactly

    @pytest.mark.parametrize("n", [0, 2, 5])
    @pytest.mark.parametrize("x", [1e-9, -3e-9 + 4e-9j])
    def test_leading_terms_against_exact_rationals(self, n, x):
        # m up to 40: past the 400 cap on the upper index that fold's leading terms had
        xr, xi = Fraction(x.real), Fraction(complex(x).imag)
        for m in range(1, 41):
            value, err, work = _leading_terms(n, m, complex(x))
            pr, pi, re, im, mag = Fraction(1), Fraction(0), Fraction(0), Fraction(0), 0.0
            for k in (1, 2, 3):
                pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
                c = k**n * math.comb(3 * m * k, m * k)
                re, im = re + pr / c, im + pi / c
                mag += float(abs(complex(pr, pi)) / c)
            miss = abs(complex(float(Fraction(value.real) - re), float(Fraction(value.imag) - im)))
            assert miss <= 4 * 2.220446049250313e-16 * mag <= err, (n, m, x)
            assert work == 3


class TestBetaTermIdentity:
    """t_1 at x = 1 and stride k is 1 / C(3k, k): one division, after C(3k, k) is
    rounded to binary64 (k >= 21), so within two roundings."""

    @pytest.mark.parametrize("k,expected", [(1, 1 / 3), (2, 1 / 15), (5, 1 / 3003)])
    def test_small_k(self, k, expected):
        assert _first_term(k, 1.0 + 0j) == expected

    def test_equals_inverse_binomial_up_to_50(self):
        for k in range(1, 51):
            exact = Fraction(1, math.comb(3 * k, k))
            t1 = _first_term(k, 1.0 + 0j)
            assert t1.imag == 0.0 and abs(Fraction(t1.real) - exact) <= exact / 2**52, k


class TestTermRecurrence:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 2, 5])
    @pytest.mark.parametrize("x", [1.0, -2.5, 0.5, 0.3 + 0.7j])
    def test_recursive_terms_match_exact_binomials(self, m, n, x):
        terms = _series_terms(n, m, x, 30)
        for k, t in enumerate(terms, start=1):
            exact = x**k / (k**n * math.comb(3 * m * k, m * k))
            assert abs(t - exact) <= 1e-13 * (1.0 + abs(exact))


class TestSumDirect:
    def test_weight1_at_half_matches_exact_form(self):
        ev = sum_direct(1, 1, 0.5)
        exact = math.pi / 10 - math.log(2) / 5
        assert abs(ev.value - exact) < 1e-14
        assert abs(ev.value - S11_AT_HALF) < 1e-14
        assert ev.method == "direct-sum"

    def test_weight0_at_half_matches_exact_form(self):
        ev = sum_direct(0, 1, 0.5)
        exact = 2 / 25 - (6 / 125) * math.log(2) + (11 / 250) * math.pi
        assert abs(ev.value - exact) < 1e-14
        assert abs(ev.value - S01_AT_HALF) < 1e-14

    def test_stride_two_at_one(self):
        ev = sum_direct(2, 2, 1.0)
        assert abs(ev.value - S22_AT_1) < 1e-14

    def test_zero_argument_is_exactly_zero(self):
        ev = sum_direct(5, 3, 0.0)
        assert ev.value == 0
        assert ev.abs_error_est == 0.0
        assert ev.work == 0

    def test_error_estimate_covers_truth(self):
        exact = math.pi / 10 - math.log(2) / 5
        ev = sum_direct(1, 1, 0.5, tol=1e-10)
        assert abs(ev.value - exact) <= ev.abs_error_est

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 3, 6])
    @pytest.mark.parametrize("x", [-6.0, -1.0, 0.5, 6.0])
    def test_interior_converges_within_400_terms(self, m, n, x):
        ev = sum_direct(n, m, x, tol=1e-15)
        assert ev.work <= 400

    def test_outside_raises_domain_error(self):
        with pytest.raises(DomainError):
            sum_direct(2, 1, 7.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-15, math.nan])
    def test_non_positive_tolerance_raises(self, tol):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            sum_direct(3, 1, 0.5, tol=tol)
        with pytest.raises(ArgumentError, match="tol must be positive"):
            evaluate(3, 1, 0.5, "direct-sum", tol=tol)

    def test_rim_needs_weight_two(self):
        with pytest.raises(DomainError):
            sum_direct(1, 1, 27 / 4)

    def test_rim_hits_term_cap(self):
        with pytest.raises(ConvergenceError):
            sum_direct(2, 1, 27 / 4, max_terms=20_000)

    @pytest.mark.parametrize("m", [1, 2])
    def test_rim_weight_two_fails_fast(self, m):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="decay polynomially"):
            evaluate(2, m, convergence_radius(m), "direct-sum")
        assert time.perf_counter() - start < 0.01

    def test_rim_weight_four_still_sums(self):
        ev = sum_direct(4, 1, 27 / 4)
        assert ev.work == 18193
        assert ev.value == 2.520440094566093  # the value before the fast-fail bound

    @pytest.mark.parametrize("m", [134, 200, 371])
    def test_first_term_past_the_old_binomial_cap(self, m):
        x = 0.75 - 0.5j
        exact = Fraction(1, math.comb(3 * m, m))
        t1 = _first_term(m, x)
        for got, want in ((t1.real, Fraction(x.real) * exact), (t1.imag, Fraction(x.imag) * exact)):
            assert abs(Fraction(got) - want) <= abs(want) * Fraction(2, 2**53)
        # the next term underflows, so the sum is the first term
        assert evaluate(2, m, x).value == t1

    def test_first_term_where_the_binomial_exceeds_binary64(self):
        m = 400
        x = 1e300
        want = Fraction(x) / math.comb(3 * m, m)
        assert _first_term(m, complex(x)) == complex(float(want))

    def test_env_var_caps_terms(self, monkeypatch):
        monkeypatch.setenv("SERIES_MAX_TERMS", "25")
        with pytest.raises(ConvergenceError):
            sum_direct(2, 1, 6.0)
        monkeypatch.setenv("SERIES_MAX_TERMS", "not-a-number")
        with pytest.raises(ArgumentError):
            sum_direct(2, 1, 6.0)

    @given(n=st.integers(0, 6), m=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_zero_argument_property(self, n, m):
        assert sum_direct(n, m, 0.0).value == 0

    @given(
        n=st.integers(0, 4),
        m=st.integers(1, 3),
        x=st.floats(-6.0, 6.0).filter(lambda v: abs(v) > 1e-3),
    )
    @settings(max_examples=40, deadline=None)
    def test_tail_estimate_dominates_next_partial_move(self, n, m, x):
        loose = sum_direct(n, m, x, tol=1e-8)
        tight = sum_direct(n, m, x, tol=1e-15)
        assert abs(loose.value - tight.value) <= loose.abs_error_est + 1e-15 * abs(tight.value)


def _fixed_point_reference(n, m, x, prec=160):
    """S(n, m; x) inside the disk, summed in fixed-point big integers.

    Every binary64 x is (a + ib) / 2**e exactly, and the term recurrence is
    exact up to one floor division per component and step, so the returned
    pair (re, im) of Fractions is within ``bound`` of S: a geometric tail from
    the current term, valid because |x| C(3mk, mk) / C(3m(k+1), m(k+1))
    decreases in k, plus the floor roundings, which the recurrence amplifies
    by at most a small power of k (k**3 units of 2**-prec is ample).
    """
    xr, xi = Fraction(x.real), Fraction(x.imag)
    e = max(xr.denominator, xi.denominator).bit_length() - 1
    a = xr.numerator * (2**e // xr.denominator)
    b = xi.numerator * (2**e // xi.denominator)
    c = math.comb(3 * m, m)
    ur, ui = (a << prec) // (c << e), (b << prec) // (c << e)  # x**k / C(3mk, mk)
    sr = si = 0
    k = 0
    while True:
        k += 1
        sr += ur // k**n
        si += ui // k**n
        num = math.prod(range(m * k + 1, m * k + m + 1)) * math.prod(
            range(2 * m * k + 1, 2 * m * k + 2 * m + 1)
        )
        den = math.prod(range(3 * m * k + 1, 3 * m * k + 3 * m + 1))
        r = abs(x) * (num / den)
        ur, ui = (ur * a - ui * b) * num // (den << e), (ur * b + ui * a) * num // (den << e)
        if r < 1.0:
            tail = (math.hypot(ur, ui) + k**3) / (1.0 - r)
            if tail < 2.0 ** (prec - 80):
                return Fraction(sr, 2**prec), Fraction(si, 2**prec), (tail + k**3) / 2.0**prec


# Two direct-workload points whose error once exceeded the estimate: the
# rounding floor missed the drift the recurrence accumulates along k.
DRIFT_MISSES = [(0, 5, 13093.916867221438), (0, 5, 13167.412860449718)]
# Median abs_error_est over the grid below before the floor grew with the drift.
PARENT_MEDIAN_ESTIMATE = 1.928156583551455e-14


def _estimate_grid():
    rng = random.Random("direct-sum error estimate")
    points = list(DRIFT_MISSES)
    for n in range(5):
        for m in range(1, 9):
            for unit in (1.0, -1.0, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))):
                points.append((n, m, unit * rng.uniform(0.5, 0.999) * convergence_radius(m)))
    return points


class TestErrorEstimate:
    def test_estimate_bounds_the_error_against_a_big_integer_reference(self):
        estimates = []
        for n, m, x in _estimate_grid():
            x = complex(x)
            ev = sum_direct(n, m, x)
            re, im, bound = _fixed_point_reference(n, m, x)
            err = math.hypot(float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im))
            assert err + bound <= ev.abs_error_est, (n, m, x, err, ev.abs_error_est)
            estimates.append(ev.abs_error_est)
        assert statistics.median(estimates) <= 4.0 * PARENT_MEDIAN_ESTIMATE


def _reference_error(ev, n, m, x):
    """|value - S| against ``_fixed_point_reference``, plus that reference's own bound."""
    re, im, bound = _fixed_point_reference(n, m, complex(x))
    err = math.hypot(float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im))
    return err + bound


class TestDirectSumAgainstTheReference:
    @given(
        n=st.integers(0, 4),
        m=st.integers(1, 8),
        rho=st.floats(1e-9, 0.999),
        axis=st.sampled_from([1.0, -1.0, None]),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    # a point where the estimate needs its drift floor: without it, it misses by 0.6%
    @example(n=0, m=2, rho=0.9956188942713784, axis=1.0, theta=0.0)
    @settings(max_examples=30, deadline=None)
    def test_estimate_bounds_the_error(self, n, m, rho, axis, theta):
        # axis None: at angle theta; +-1: on the real axis, where the kernel runs in floats
        unit = complex(axis) if axis is not None else cmath.exp(1j * theta)
        x = rho * convergence_radius(m) * unit
        ev = evaluate(n, m, x, "direct-sum")
        assert _reference_error(ev, n, m, x) <= ev.abs_error_est, (n, m, x)

    @pytest.mark.parametrize("m", [134, 250, 371])
    def test_large_stride_at_nine_tenths_of_the_radius(self, m):
        # every stride-1 factor is near 4/27, so nothing overflows however long the step
        for n, unit in ((0, 1.0), (3, cmath.exp(2.0j))):
            x = 0.9 * convergence_radius(m) * unit
            ev = evaluate(n, m, x, "direct-sum")
            assert ev.work > 200  # the block kernel, not the term-by-term path
            assert _reference_error(ev, n, m, x) <= ev.abs_error_est, (n, m)


class TestTermsNeeded:
    def test_predicts_the_work_of_direct_summation(self):
        # one seeded point per (n, m, band); each band meets all four angles
        rng = random.Random(2005)
        bands = ((0.3, 0.9), (0.9, 0.99), (0.99, 0.999), (0.999, 0.9999))
        angles = [0.0, math.pi, rng.uniform(0.0, math.pi), rng.uniform(math.pi, 2 * math.pi)]
        checked = 0
        for n in range(3, 7):
            for m in (1, 2, 3):
                rng.shuffle(angles)
                for (lo, hi), theta in zip(bands, angles):
                    rho = rng.uniform(lo, hi)
                    x = rho * convergence_radius(m) * cmath.exp(1j * theta)
                    work = sum_direct(n, m, x).work
                    if work >= 20:
                        need = terms_needed(n, abs(x) / convergence_radius(m), 1e-15)
                        assert abs(need - work) <= 0.1 * work, (n, m, rho, theta, need, work)
                        checked += 1
        assert checked == 48

    def test_edges(self):
        assert terms_needed(3, 0.0, 1e-15) == 1
        assert terms_needed(3, 1e-20, 1e-15) == 1
        assert terms_needed(3, 0.5, 0.0) == math.inf
        assert terms_needed(0, 1.0, 1e-15) == math.inf
        assert terms_needed(4, 1.0, 1e-15) == math.ceil(1e15 ** (1 / 3.5))

    @pytest.mark.parametrize("n", [1, 3, 6, 20])
    @pytest.mark.parametrize("rho", [1e-6, 0.3, 0.9, 0.99, 1 - 1e-9])
    def test_smallest_k_meeting_the_bound(self, n, rho):
        def meets(k):
            return k * math.log(rho) + (0.5 - n) * math.log(k) <= math.log(1e-15)

        k = terms_needed(n, rho, 1e-15)
        assert meets(k) and (k == 1 or not meets(k - 1))


class TestSeriesTerms:
    def test_explicit_max_terms_threading(self):
        with pytest.raises(ConvergenceError):
            sum_direct(2, 1, 6.0, tol=1e-15, max_terms=50)
        ev = sum_direct(2, 1, 6.0, tol=1e-15, max_terms=400)
        assert ev.work <= 400
