"""Direct summation, exact binomials and the term recurrence."""

import cmath
import math
import operator
import random
import statistics
import sys
import threading
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
    fold,
)
from invbinom import CardanoRoot, phi, routes, series
from invbinom.closed_forms import REAL_BRANCH, _leading_terms
from invbinom.series import (
    _FACTOR_TABLE,
    _WEIGHT_TABLE,
    _computed_factors,
    _computed_steps,
    _factors,
    _first_term,
    _inside,
    _on_rim,
    _step_table,
    _sum_terms,
    _weight_table,
    terms_needed,
)

# Frozen from exact-fraction partial sums (math.comb over Fraction).
S22_AT_1 = 0.06717778880529868
S11_AT_HALF = 0.17552982924699026
S01_AT_HALF = 0.18495901209107352


def _summable(n, m, x):
    """The test of the domain rule (``SeriesParams.require_summable``)."""
    return _inside(n, abs(complex(x)), convergence_radius(m))


def _step(k, m):
    """The stride-m step C(3mk, mk) / C(3m(k+1), m(k+1)): the correctly rounded
    factors f_mk .. f_{mk+m-1}, multiplied left to right."""
    factors = _computed_factors(m * k, m * k + m)
    step = next(factors)
    for f in factors:
        step *= f
    return step


def _ratio(k, n, m, x):
    """The stride-m term ratio t_{k+1} / t_k = x (k/(k+1))**n step_k, multiplied left to
    right, the weight one ``pow``: the operations the direct sum rounds."""
    return x * _step(k, m) if n == 0 else x * (k / (k + 1)) ** n * _step(k, m)


def _series_terms(n, m, x, count):
    """t_1 .. t_count, built by the operations the direct sum rounds (in float arithmetic
    for real x): the first term, then the ratio recurrence."""
    xc = complex(x)
    xs = xc.real if xc.imag == 0.0 else xc
    t = _first_term(m, xc)
    t = t.real if xc.imag == 0.0 else t
    terms = [complex(t)]
    for k in range(1, count):
        t *= _ratio(k, n, m, xs)
        terms.append(complex(t))
    return terms


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

    @pytest.mark.parametrize("x", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_is_refused_after_a_float_overflow(self, x):
        # CPython's abs(complex) of a NaN leaves a stale errno standing, which raises
        # OverflowError after an overflow (here the radius (27/4)**400) unless the entry
        # refuses the NaN first
        entries = (
            lambda: SeriesParams.require_summable(0, 1, x),
            lambda: evaluate(0, 1, x),
            lambda: evaluate(0, 1, x, "direct-sum"),
            lambda: fold(0, 2, x),
            lambda: evaluate(3, 1, x, "quad-polylog"),
        )
        for entry in entries:
            evaluate(0, 400, 1.0)
            with pytest.raises(DomainError, match="not a number"):
                entry()


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
        values = [abs(_ratio(k, n, 1, 1.0 + 0j)) for k in range(20, 80)]
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
        # the product of 10**5 factors near 4/27 is 0
        assert _computed_steps(1, 2, 10**5) == [0.0]
        assert _ratio(1, 0, 10**5, 1.0) == 0

    @pytest.mark.parametrize("m", [45, 60, 133])
    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_large_stride_ratio_does_not_overflow(self, m, k):
        # the 3m-factor products overflow binary64 here; the ratio must not
        exact = Fraction(math.comb(3 * m * k, m * k), math.comb(3 * m * (k + 1), m * (k + 1)))
        assert _computed_steps(k, k + 1, m)[0] == pytest.approx(float(exact), rel=1e-14)
        assert _ratio(k, 0, m, 1.0).real == pytest.approx(float(exact), rel=1e-14)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# Sums at m >= 9 (no step table) that run past their first chunk of computed steps, which
# _CHUNK_CAP cuts short: 38,082 and 37,792 terms
LONG_POINTS = [
    (0, 9, 0.999 * 6.75**9 * cmath.exp(0.3j)),
    (2, 10, 0.9995 * 6.75**10 * cmath.exp(2.0j)),
]

# (n, m, x): real and complex, inside the step and weight tables and past them, the rim
BIT_POINTS = [
    (0, 1, 6.5),
    (3, 4, 0.9 * 6.75**4 * cmath.exp(0.7j)),
    (2, 8, -0.99 * 6.75**8),
    (3, 1, 0.5),
    (4, 2, 1e-6 * cmath.exp(2.0j)),
    (1, 3, -0.3 * 6.75**3),
    (0, 2, 0.97j * 6.75**2),
    (4, 1, 6.75),
    (9, 1, 6.75),  # n = 9 has no weight table
    (1, 4, 0.98 * 6.75**4 * cmath.exp(0.7j)),  # 1,515 terms: past both tables' ends (k = 1,024)
    (2, 2, -0.99 * 6.75**2),  # 2,305 terms: past the weight table and the m = 2 steps
    (0, 8, 0.95 * 6.75**8),  # 654 terms: past the m = 8 step table (k = 512)
    (3, 9, 0.97 * 6.75**9 * cmath.exp(2.0j)),  # 612 terms: past the factors' reach (k = 455)
    *LONG_POINTS,
]


class TestBitIdentity:
    def test_stride_one_factors_are_correctly_rounded(self):
        # f_j = C(3j, j) / C(3j+3, j+1) = 2(j+1)(2j+1) / (3(3j+1)(3j+2)), rounded once
        def factor(j):
            return float(Fraction(2 * (j + 1) * (2 * j + 1), 3 * (3 * j + 1) * (3 * j + 2)))

        binomial_ratios = [Fraction(math.comb(3 * j, j), math.comb(3 * j + 3, j + 1)) for j in range(300)]
        assert list(_factors(0, 300)) == list(map(float, binomial_ratios))
        assert list(_factors(0, 5000)) == [factor(j) for j in range(5000)]
        assert _computed_steps(0, 5000, 1) == [factor(j) for j in range(5000)]
        for j in (10**6 + 7, 2**40 + 3, 10**30):
            assert list(_factors(j, j + 1)) == [factor(j)] == _computed_steps(j, j + 1, 1), j

    def test_stride_steps_are_in_order_products_of_the_factors(self):
        # the step tables and _computed_steps agree bit for bit with the product of the
        # factors taken left to right, at each table's end and past it
        def in_order(f, k, m):  # the product of f[km] .. f[km + m - 1], left to right
            want = f[k * m]
            for v in f[k * m + 1 : (k + 1) * m]:
                want *= v
            return want.hex()

        strides = [*range(1, 13), 60, 371, 1100]
        for m in strides:
            f = list(_factors(m, 60 * m + m))  # j = m .. 60m + m - 1
            want = [in_order(f, k, m) for k in range(60)]  # k = 1 .. 60
            assert [v.hex() for v in _computed_steps(1, 61, m)] == want, m
            if m <= 8:
                assert [v.hex() for v in _step_table(m)[1:61]] == want, m
        # the end of each step table (m <= 8), and of the factor table's reach (every m)
        for m in strides:
            end = _FACTOR_TABLE // m
            k0 = max(end - 5, 0)
            f = list(_computed_factors(m * k0, m * (end + 5)))
            want = [in_order(f, k, m) for k in range(end + 5 - k0)]
            if m <= 8:
                assert [v.hex() for v in _step_table(m)[k0:]] == want[: end - k0], m
            chunks = ((k0, end), (end - 1, end), (end, end + 1), (k0, end + 5), (end - 1, end + 3))
            for a, b in chunks:
                got = [v.hex() for v in _computed_steps(a, b, m)]
                assert got == want[a - k0 : b - k0], (a, b, m)

    def test_factor_table_is_correctly_rounded(self):
        factors = _step_table(1)
        assert isinstance(factors, tuple) and len(factors) == _FACTOR_TABLE
        for j, f in enumerate(factors):
            assert f == float(Fraction((2 * j + 2) * (2 * j + 1), (9 * j + 3) * (3 * j + 2))), j

    def test_step_and_weight_tables_are_tuples_of_their_documented_lengths(self):
        # _step_table(m) holds the steps of k < _FACTOR_TABLE // m for m 1..8 (the factor
        # table at m = 1), _weight_table(n) the weights of k < _WEIGHT_TABLE for n 1..8;
        # every other stride and weight has the empty table, and none is stored
        for m in (-1, 0, 9, 10, 371):
            assert _step_table(m) == () and m not in series._STEP_TABLES, m
        for m in range(1, 9):
            table = _step_table(m)
            assert isinstance(table, tuple) and len(table) == _FACTOR_TABLE // m, m
            assert series._STEP_TABLES[m] is table is _step_table(m), m
        assert _WEIGHT_TABLE == 1024
        for n in (0, 9, 10):
            assert _weight_table(n) == () and n not in series._WEIGHT_TABLES, n
        for n in range(1, 9):
            table = _weight_table(n)
            assert isinstance(table, tuple) and len(table) == _WEIGHT_TABLE, n
            assert series._WEIGHT_TABLES[n] is table is _weight_table(n), n

    def test_a_table_is_built_once_and_every_caller_reads_the_same_object(self, monkeypatch):
        # from empty dicts, threads (more than the cores, switching often) that race on a
        # first use all read the one stored table, and a rebuild holds the bits of the first
        before = [_step_table(m) for m in range(1, 9)] + [_weight_table(n) for n in range(1, 9)]
        monkeypatch.setattr(series, "_STEP_TABLES", {})
        monkeypatch.setattr(series, "_WEIGHT_TABLES", {})
        start = threading.Barrier(6)
        got = []

        def first_use():
            start.wait(timeout=30)
            got.append([_step_table(m) for m in range(1, 9)] + [_weight_table(n) for n in range(1, 9)])

        threads = [threading.Thread(target=first_use) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(got) == 6
        stored = [series._STEP_TABLES[m] for m in range(1, 9)]
        stored += [series._WEIGHT_TABLES[n] for n in range(1, 9)]
        for tables in got:
            assert all(map(operator.is_, tables, stored))
        for old, new in zip(before, stored):
            assert old is not new and [v.hex() for v in old] == [v.hex() for v in new]

    def test_weights_are_pow_of_the_rounded_quotient(self):
        # (k/(k+1))**n as one ``pow``, in the table and past it: a table built with products
        # (x * x for x ** 2, which differs at k = 794) fails here
        for n in range(1, 9):
            for k, w in enumerate(_weight_table(n)):
                assert w.hex() == ((k / (k + 1)) ** n).hex(), (n, k)
        # through the term loop, across the table's end (n <= 8) and with no table (n = 9):
        # sums that run past k = _WEIGHT_TABLE give the terms of the reference recurrence
        for n in range(10):
            x, tol = (0.999 * 6.75, 1e-15) if n < 2 else (6.75, (2.0 * _WEIGHT_TABLE) ** (0.5 - n))
            t = _first_term(1, complex(x)).real
            terms, _ = _sum_terms(t, n, 1, x, tol, 10**6, x / 6.75)
            assert len(terms) > _WEIGHT_TABLE + 30, n
            want = [_bits(v) for v in _series_terms(n, 1, x, len(terms))]
            assert [_bits(v) for v in terms] == want, n

    @given(
        m=st.sampled_from([*range(1, 10), 134, 371, 1100]),
        start=st.integers(-40, 40),
        count=st.integers(0, 40),
        edge=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    @example(m=3, start=-2, count=5, edge=1.0)  # k straddles j = _FACTOR_TABLE
    @example(m=8, start=-1, count=3, edge=1.0)  # straddles the end of _step_table(8)
    @example(m=9, start=-1, count=3, edge=1.0)  # m = 9 has no step table
    @example(m=7, start=0, count=1, edge=1.0)  # one past the end of _step_table(7)
    @example(m=5, start=-1, count=1, edge=1.0)  # the last index of _step_table(5)
    @settings(max_examples=80, deadline=None)
    def test_computed_steps_are_in_order_products_past_the_table(self, m, start, count, edge):
        # computed factors past the factor table's end, and both in one range; the step
        # table holds the same bits where it reaches
        k0 = max(0, int(edge * _FACTOR_TABLE) // m + start)
        f = list(_computed_factors(m * k0, m * (k0 + count)))
        want = []
        for k in range(count):
            p = f[k * m]
            for v in f[k * m + 1 : (k + 1) * m]:
                p *= v
            want.append(p.hex())
        assert [v.hex() for v in _computed_steps(k0, k0 + count, m)] == want
        table = _step_table(m)
        assert [v.hex() for v in table[k0 : k0 + count]] == want[: max(0, len(table) - k0)]

    def test_auto_direct_sums_stay_inside_the_table(self, monkeypatch):
        # the direct sums auto picks at strides m <= 6 never need a factor past the table: at
        # weights 0..2 and above 8, and near x = R**m where quad-cardano's series in sigma
        # does not serve
        rng = random.Random(20261018)
        points = [
            (n, m, rng.uniform(0.0, 0.9) * 6.75**m * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
            for n in (0, 1, 2, 9, 10)
            for m in range(1, 7)
            for _ in range(25)
        ]
        rhos = (0.94, 0.95, 0.96, 0.97, 0.98, 0.99)
        points += [(n, m, rho * 6.75**m) for n in (5, 6, 7, 8) for m in range(2, 7) for rho in rhos]

        def computed(j0, j1):
            raise AssertionError(f"factors {j0}..{j1} computed")

        for m in range(1, 7):  # built from computed factors on first use: build them first
            _step_table(m)
        monkeypatch.setattr(series, "_computed_factors", computed)
        methods = [evaluate(n, m, x).method for n, m, x in points]
        assert methods.count("direct-sum") > len(points) // 4

    @pytest.mark.parametrize("n,m,x", BIT_POINTS)
    def test_the_direct_sum_is_the_fsum_of_series_terms(self, n, m, x):
        ev = evaluate(n, m, x, "direct-sum")
        terms = _series_terms(n, m, x, ev.work)
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        assert _bits(ev.value) == _bits(want)

    @pytest.mark.parametrize("n,m,x", BIT_POINTS)
    def test_the_term_loop_gives_the_same_bits_wherever_its_chunks_end(self, n, m, x):
        # the terms and the last step are those of the reference recurrence, wherever the
        # chunks of computed steps end relative to the stop: rho sizes the first chunk,
        # from one step (rho = 0, past a table) up to _CHUNK_CAP
        xc = complex(x)
        xs = xc.real if xc.imag == 0.0 else xc
        t = _first_term(m, xc)
        t = t.real if xc.imag == 0.0 else t
        rho = abs(xc) / convergence_radius(m)
        terms, step = _sum_terms(t, n, m, xs, 1e-15, 10**6, rho)
        want = [_bits(v) for v in _series_terms(n, m, x, len(terms))]
        assert [_bits(v) for v in terms] == want
        assert step.hex() == _step(len(terms), m).hex()
        for r in (0.0, 0.5, 0.9, 0.99, 0.999):
            got, got_step = _sum_terms(t, n, m, xs, 1e-15, 10**6, r)
            assert [_bits(v) for v in got] == want and got_step.hex() == step.hex(), r
        cap = len(terms)  # the stop falls on the last term the cap allows
        got, got_step = _sum_terms(t, n, m, xs, 1e-15, cap, rho)
        assert [_bits(v) for v in got] == want and got_step.hex() == step.hex()
        assert _sum_terms(t, n, m, xs, 1e-15, cap - 1, rho) == (None, 0.0)

    @pytest.mark.parametrize(
        "n,m,x,count",
        [
            (*LONG_POINTS[0], 2),
            (*LONG_POINTS[1], 2),
            (0, 2, 0.99 * 6.75**2, 1),  # 3,164 terms, 2,047 from the step table
            (4, 8, 0.99 * 6.75**8 * cmath.exp(0.7j), 1),  # 1,020 terms, 511 from the table
        ],
    )
    def test_steps_past_the_table_come_in_doubling_chunks(self, n, m, x, count, monkeypatch):
        # the first chunk runs from the table's end to the predicted stop, 1.125
        # terms_needed + 2, each later one is twice the last, and none holds more than
        # _CHUNK_CAP steps; at LONG_POINTS the first, cut there, falls short of the stop
        chunks = []
        start = max(len(_step_table(m)), 1)  # built on first use: before the count starts

        def counted(k0, k1, m):
            chunks.append((k0, k1))
            return _computed_steps(k0, k1, m)

        monkeypatch.setattr(series, "_computed_steps", counted)
        work = evaluate(n, m, x, "direct-sum").work
        rho = abs(x) / convergence_radius(m)
        end = min(1.125 * terms_needed(n, rho, 1e-15) + 3, start + series._CHUNK_CAP)
        assert len(chunks) == count and chunks[0] == (start, max(int(end), start + 1))
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert c == b and d - c == min(2 * (b - a), series._CHUNK_CAP)
        assert chunks[-1][0] <= work < chunks[-1][1]


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
        ev = evaluate(1, 1, 0.5, "direct-sum")
        exact = math.pi / 10 - math.log(2) / 5
        assert abs(ev.value - exact) < 1e-14
        assert abs(ev.value - S11_AT_HALF) < 1e-14
        assert ev.method == "direct-sum"

    def test_weight0_at_half_matches_exact_form(self):
        ev = evaluate(0, 1, 0.5, "direct-sum")
        exact = 2 / 25 - (6 / 125) * math.log(2) + (11 / 250) * math.pi
        assert abs(ev.value - exact) < 1e-14
        assert abs(ev.value - S01_AT_HALF) < 1e-14

    def test_stride_two_at_one(self):
        ev = evaluate(2, 2, 1.0, "direct-sum")
        assert abs(ev.value - S22_AT_1) < 1e-14

    def test_zero_argument_is_exactly_zero(self):
        ev = evaluate(5, 3, 0.0, "direct-sum")
        assert ev.value == 0
        assert ev.abs_error_est == 0.0
        assert ev.work == 0

    def test_error_estimate_covers_truth(self):
        exact = math.pi / 10 - math.log(2) / 5
        ev = evaluate(1, 1, 0.5, "direct-sum", tol=1e-10)
        assert abs(ev.value - exact) <= ev.abs_error_est

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 3, 6])
    @pytest.mark.parametrize("x", [-6.0, -1.0, 0.5, 6.0])
    def test_interior_converges_within_400_terms(self, m, n, x):
        ev = evaluate(n, m, x, "direct-sum", tol=1e-15)
        assert ev.work <= 400

    def test_outside_raises_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(2, 1, 7.0, "direct-sum")

    @pytest.mark.parametrize("tol", [0.0, -1e-15, math.nan])
    def test_non_positive_tolerance_raises(self, tol):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            evaluate(3, 1, 0.5, "direct-sum", tol=tol)
        with pytest.raises(ArgumentError, match="tol must be positive"):
            evaluate(3, 1, 0.5, "direct-sum", tol=tol)

    def test_rim_needs_weight_two(self):
        with pytest.raises(DomainError):
            evaluate(1, 1, 27 / 4, "direct-sum")

    def test_rim_hits_term_cap(self):
        with pytest.raises(ConvergenceError):
            evaluate(2, 1, 27 / 4, "direct-sum", max_terms=20_000)

    @pytest.mark.parametrize("m", [1, 2])
    def test_rim_weight_two_fails_fast(self, m):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="decay polynomially"):
            evaluate(2, m, convergence_radius(m), "direct-sum")
        assert time.perf_counter() - start < 0.01

    def test_rim_weight_four_still_sums(self):
        ev = evaluate(4, 1, 27 / 4, "direct-sum")
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

    def test_the_underflow_stride_matches_the_lgamma_rule(self):
        # _first_term once tested C(3m, m) > 2**2100 by three lgamma calls on every sum;
        # the rule grows with m, so one stride, a literal, decides it
        limit = 2100 * math.log(2.0)
        assert series._UNDERFLOW_STRIDE == 765
        for m in range(1, 20_001):
            rule = math.lgamma(3 * m + 1) - math.lgamma(m + 1) - math.lgamma(2 * m + 1) > limit
            assert rule == (m >= series._UNDERFLOW_STRIDE), m
        assert _first_term(765, complex(1e300)) == 0
        assert _first_term(764, complex(1e300)) == 0  # rounds to zero without the shortcut
        assert _first_term(700, complex(1e300)) != 0

    def test_the_term_cap_caps_terms(self, monkeypatch):
        with pytest.raises(ConvergenceError, match="within 25 terms"):
            evaluate(2, 1, 6.0, "direct-sum", max_terms=25)
        with pytest.raises(ArgumentError, match="max_terms must be an integer"):
            evaluate(2, 1, 6.0, "direct-sum", max_terms="not-a-number")
        # the cap for max_terms None, the same for every route
        monkeypatch.setattr(routes, "DEFAULT_MAX_TERMS", 25)
        with pytest.raises(ConvergenceError, match="within 25 terms"):
            evaluate(2, 1, 6.0, "direct-sum")

    @given(n=st.integers(0, 6), m=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_zero_argument_property(self, n, m):
        assert evaluate(n, m, 0.0, "direct-sum").value == 0

    @given(
        n=st.integers(0, 4),
        m=st.integers(1, 3),
        x=st.floats(-6.0, 6.0).filter(lambda v: abs(v) > 1e-3),
    )
    @settings(max_examples=40, deadline=None)
    def test_tail_estimate_dominates_next_partial_move(self, n, m, x):
        loose = evaluate(n, m, x, "direct-sum", tol=1e-8)
        tight = evaluate(n, m, x, "direct-sum", tol=1e-15)
        assert abs(loose.value - tight.value) <= loose.abs_error_est + 1e-15 * abs(tight.value)


def _fixed_point_reference(n, m, x, prec=160, rim_terms=1000):
    """S(n, m; x) on the closed disk, summed in fixed-point big integers.

    Every binary64 x is (a + ib) / 2**e exactly, and the term recurrence is
    exact up to one floor division per component and step, so the returned
    pair (re, im) of Fractions is within ``bound`` of S: the rest, plus the
    floor roundings, which the recurrence amplifies by at most a small power
    of k (k**3 units is ample). The units are 2**-prec, finer by |x| below 1
    (down to 2**-800 more).
    Inside the disk the rest is a geometric tail from the current term, valid
    because |x| C(3mk, mk) / C(3m(k+1), m(k+1)) decreases in k, and the sum
    stops once the bound is below 2**-80 of the partial sum and of 1. On the
    rim, to rounding, that tail never falls: the sum takes ``rim_terms`` terms
    and bounds the rest by Robbins' C(3N, N) >= sqrt(3/(4 pi N)) (27/4)**N
    e**(-1/(8N)), N = mk, at sqrt(4 pi m/3) e**(1/(8mK)) K**(3/2-n) / (n - 3/2),
    K = rim_terms (n >= 2). Raises rather than loops: ValueError outside the
    disk, or at n < 2 on the rim, and RuntimeError past 2,000,000 terms.
    """
    rho = abs(x) / convergence_radius(m)
    rim = rho >= 1.0 - 1e-15
    if rho > 1.0 + 1e-15 or (rim and n < 2):
        raise ValueError(f"no reference for S({n}, {m}; {x})")
    prec += min(800, max(0, -math.frexp(abs(x))[1]))
    xr, xi = Fraction(x.real), Fraction(x.imag)
    e = max(xr.denominator, xi.denominator).bit_length() - 1
    a = xr.numerator * (2**e // xr.denominator)
    b = xi.numerator * (2**e // xi.denominator)
    c = math.comb(3 * m, m)
    ur, ui = (a << prec) // (c << e), (b << prec) // (c << e)  # x**k / C(3mk, mk)
    sr = si = 0
    for k in range(1, 2_000_001):
        sr += ur // k**n
        si += ui // k**n
        num = math.prod(range(m * k + 1, m * k + m + 1)) * math.prod(
            range(2 * m * k + 1, 2 * m * k + 2 * m + 1)
        )
        den = math.prod(range(3 * m * k + 1, 3 * m * k + 3 * m + 1))
        r = abs(x) * (num / den)
        ur, ui = (ur * a - ui * b) * num // (den << e), (ur * b + ui * a) * num // (den << e)
        if rim and k == rim_terms:
            rest = math.sqrt(4 * math.pi * m / 3) * math.exp(1 / (8 * m * k))
            rest *= k ** (1.5 - n) / (n - 1.5)
            return Fraction(sr, 2**prec), Fraction(si, 2**prec), rest + k**3 / 2.0**prec
        if not rim and r < 1.0:
            tail = (math.hypot(ur, ui) + k**3) / (1.0 - r)
            if tail < 2.0**-80 * min(2.0**prec, math.hypot(sr, si)):
                return Fraction(sr, 2**prec), Fraction(si, 2**prec), (tail + k**3) / 2.0**prec
    raise RuntimeError(f"S({n}, {m}; {x}) did not meet its stop in 2,000,000 terms")


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
            ev = evaluate(n, m, x, "direct-sum")
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
                    work = evaluate(n, m, x, "direct-sum").work
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
            evaluate(2, 1, 6.0, "direct-sum", tol=1e-15, max_terms=50)
        ev = evaluate(2, 1, 6.0, "direct-sum", tol=1e-15, max_terms=400)
        assert ev.work <= 400
