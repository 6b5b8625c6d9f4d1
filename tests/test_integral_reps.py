"""Quadrature routes built on the integral representations."""

import cmath
import functools
import json
import math
import pathlib
from fractions import Fraction

import pytest

from invbinom import (
    ArgumentError,
    DomainError,
    evaluate,
    quad_cardano,
    quad_polylog,
    quad_two_term,
    sum_direct,
    two_term_limits,
)
from invbinom import integral_reps
from invbinom.identities import record_by_id
from invbinom.integral_reps import (
    _S_COEFS,
    _S_ENVELOPE,
    _S_TABLE_ULPS,
    _V_ANCHORS,
    _V_BASE,
    _V_COEFS,
    _V_ENVELOPE,
    _V_FIXED,
    _V_MAGS,
    _V_TERMS,
    POLYLOG_MAX_STRIDE,
    S_MAX,
    _cardano_s,
    _s_series,
    _s_terms,
    _stable_complement,
    _v_series,
    _v_terms,
)
from invbinom.quadrature import QUAD_FLOOR
from invbinom.routes import _EST_FLOOR, ROUTES
from invbinom.verify import _applicable_routes, default_grid
from test_series import _fixed_point_reference

RIM = 27 / 4
RIM_VALUE = 2 * math.pi**2 / 3 - 2 * math.log(2) ** 2
# The points of the default cross-route grid that the two-term route serves.
TWO_TERM_GRID = [p for p in default_grid() if "quad-two-term" in _applicable_routes(p)]


class TestTwoTermLimits:
    def test_rim_limits(self):
        lim = two_term_limits(RIM)
        assert lim.phi == 1.0
        assert lim.alpha == pytest.approx(-math.log(4), abs=1e-15)
        # angular limit carries the 1 - 2*phi orientation: -pi at the rim
        assert lim.beta == pytest.approx(-math.pi, abs=1e-14)

    def test_half(self):
        lim = two_term_limits(0.5)
        # (phi**3 + 1) / (phi + 1)**3 = 1/2 exactly at x = 1/2
        assert lim.alpha == pytest.approx(math.log(0.5), abs=1e-14)
        assert lim.beta == pytest.approx(-math.pi / 4, abs=1e-14)

    def test_negative_argument_flips_signs(self):
        lim = two_term_limits(-0.25)
        assert lim.alpha == pytest.approx(math.log(2.0), abs=1e-13)
        assert lim.beta > 0.0

    def test_unbounded_at_zero(self):
        with pytest.raises(DomainError):
            two_term_limits(0.0)

    def test_outside_disk(self):
        with pytest.raises(DomainError):
            two_term_limits(7.0)

    def test_complex_argument_is_refused_with_the_route_message(self):
        # float(1+1j) raised TypeError; the route's own refusal says why
        with pytest.raises(ArgumentError, match="quad-two-term is a real-argument route"):
            two_term_limits(1 + 1j)
        assert two_term_limits(0.5 + 0j) == two_term_limits(0.5)


SMALL_REAL = (1e-12, 1e-9, 1e-6, 1e-5, 1e-3, 0.1, 1.0, 3.0, 6.7)


class TestQuadPolylog:
    def test_rim_weight_two(self):
        ev = quad_polylog(2, RIM)
        assert abs(ev.value - RIM_VALUE) < 1e-9
        assert ev.abs_error_est >= abs(ev.value - RIM_VALUE)

    def test_half_weight_two(self):
        exact = math.pi**2 / 24 - 0.5 * math.log(2) ** 2
        assert abs(quad_polylog(2, 0.5).value - exact) < 1e-10

    def test_zero_is_zero(self):
        ev = quad_polylog(1, 0.0)
        assert ev.value == 0 and ev.work == 0

    def test_weight_four_matches_direct(self):
        ref = sum_direct(4, 1, 1.0)
        assert abs(quad_polylog(4, 1.0).value - ref.value) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("x", [-0.25, 0.25, -1.0, 1.0, -3.0, 3.0, 6.0, -6.0])
    def test_agreement_with_direct_summation(self, n, x):
        ref = sum_direct(n, 1, x)
        ev = quad_polylog(n, x)
        assert abs(ev.value - ref.value) <= 1e-10, (n, x)

    def test_complex_argument(self):
        z = 2.0 + 1.5j
        ref = sum_direct(3, 1, z)
        assert abs(quad_polylog(3, z).value - ref.value) < 1e-10

    @pytest.mark.parametrize("r", [1e-20, 1e-40, 1e-100])
    def test_tiny_complex_weight_two_within_its_estimate(self, r):
        x = r * cmath.exp(0.7j)
        ev = evaluate(2, 1, x, "quad-polylog")
        # x/3 + x**2/60 + x**3/756 in exact rationals; the next term is below |x|**4
        xr, xi = Fraction(x.real), Fraction(x.imag)
        re, im = Fraction(0), Fraction(0)
        pr, pi = Fraction(1), Fraction(0)
        for k in (1, 2, 3):
            pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
            c = k**2 * math.comb(3 * k, k)
            re, im = re + pr / c, im + pi / c
        err = math.hypot(float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im))
        assert err <= ev.abs_error_est, (r, err, ev.abs_error_est)
        assert err <= 1e-15 * abs(x) / 3

    @pytest.mark.parametrize("x", [s * a for a in SMALL_REAL for s in (1.0, -1.0)])
    def test_real_weight_two_against_a_big_integer_reference(self, x):
        # the weight-1 kernel takes log1p(-w), w = x t (1-t)**2, where |w| <= 0.5: log(u) of
        # the complement u, which rounds near 1, left S(2,1;1e-5) 9e-11 off with an
        # estimate 128 times too small
        ev = quad_polylog(2, x)
        if abs(x) < 1e-6:  # the fixed-point sum stops at 2**-80 absolute
            xf = Fraction(x)
            re = sum(xf**k / (k**2 * math.comb(3 * k, k)) for k in range(1, 6))
            bound = abs(x) ** 6
        else:
            re, _, bound = _fixed_point_reference(2, 1, complex(x))
        err = abs(float(Fraction(ev.value.real) - re)) + bound
        assert err <= ev.abs_error_est, (x, err, ev.abs_error_est)
        assert err <= 1e-15 * abs(float(re)), (x, err / abs(float(re)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_error_estimate_honesty(self, n):
        # the estimate bounds the error at every point, real and complex, against the
        # big-integer reference
        xs = [-0.25, 0.25, -1.0, 1.0, -3.0, 3.0, 6.0, -6.0]
        xs += [rho * RIM * cmath.exp(1j * a) for rho in (0.3, 0.9, 0.99) for a in (0.3, 1.2, 2.5)]
        for x in xs:
            ev = quad_polylog(n, x)
            re, im, bound = _fixed_point_reference(n, 1, complex(x))
            dr, di = Fraction(ev.value.real) - re, Fraction(ev.value.imag) - im
            err = math.hypot(float(dr), float(di)) + bound
            assert err <= ev.abs_error_est, (n, x, err, ev.abs_error_est)

    def test_estimate_bounds_the_error_near_the_branch_point(self):
        # S(4,1;0.9999*27/4): the 15-point panel stopped 3.6e-12 off with an estimate of
        # 1.6e-12; the reference is 40-digit mpmath, 2.7e-24 off
        x = float.fromhex("0x1.aff4f0d844d01p+2")
        assert x == 0.9999 * RIM
        ev = quad_polylog(4, x)
        assert abs(ev.value - 2.5201426569860113) <= ev.abs_error_est

    def test_domain_errors(self):
        with pytest.raises(ArgumentError):
            quad_polylog(0, 1.0)
        with pytest.raises(DomainError):
            quad_polylog(2, 6.76)
        with pytest.raises(DomainError):
            quad_polylog(1, RIM)  # rim needs n >= 2


# The stride-m accuracy grid: n 1..6, m 1..11, |x| = rho R**m with rho in {0.5, 0.99,
# 1 - 1e-6} and the rim (n >= 2), at the angles k pi/4. Rows [n, m, x_re, x_im, ref_re,
# ref_im]: the references of perfbench's oracle (fixed-point sums inside 0.995 of the
# radius, an mpmath fold at 24 and 32 digits beyond), rounded to binary64, written by
# tools/quad_polylog_refs.py.
STRIDE_REFS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "quad_polylog_stride_refs.json").read_text()
)
STRIDE_CELLS = sorted({(row[0], row[1]) for row in STRIDE_REFS})


class TestQuadPolylogAtStrideM:
    @pytest.mark.parametrize("n,m", STRIDE_CELLS)
    def test_within_its_estimate_and_1e12_relative(self, n, m):
        # worst relative error on the grid: 2.0e-14, at n = 2 on the rim, where Li_1 is
        # log-singular at t = 1/3
        rows = [row for row in STRIDE_REFS if row[:2] == [n, m]]
        assert len(rows) == 8 * (4 if n >= 2 else 3)
        for _, _, xr, xi, rr, ri in rows:
            ev = evaluate(n, m, complex(xr, xi), "quad-polylog")
            err = abs(ev.value - complex(rr, ri))
            assert err <= ev.abs_error_est, (n, m, xr, xi, err, ev.abs_error_est)
            assert err <= 1e-12 * abs(complex(rr, ri)), (n, m, xr, xi, err)

    def test_the_largest_stride_is_the_last_exact_radius(self):
        assert 27**POLYLOG_MAX_STRIDE < 2**53 < 27 ** (POLYLOG_MAX_STRIDE + 1)
        rim = (27 / 4) ** POLYLOG_MAX_STRIDE
        assert Fraction(rim) == Fraction(27, 4) ** POLYLOG_MAX_STRIDE

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 11])
    @pytest.mark.parametrize("t", [1e-9, 0.01, 0.3, 1 / 3, 0.3333334, 0.5, 0.9, 1 - 1e-9])
    def test_complement_against_exact_rationals(self, m, t):
        # 1 - (R t (1-t)**2)**m, which has a double zero at t = 1/3, within a few ulps of
        # itself but for the rounding of 1 - 3t, of order eps |1 - 3t|: what an ulp of t,
        # not a cancellation, moves it by
        ft = Fraction(t)
        exact = 1 - (Fraction(27, 4) * ft * (1 - ft) ** 2) ** m
        got = _stable_complement(t, m)
        bound = 8 * (m + 1) * Fraction(2.0**-53) * (abs(exact) + abs(1 - 3 * ft))
        assert abs(Fraction(got) - exact) <= bound, (m, t)


class TestQuadPolylogOnThePositiveRim:
    # Integrand calls at x = R**m, where u = 1 - x (t (1-t)**2)**m has its double zero at
    # t = 1/3 and the kernel integrates in s, t = 1/3 -+ k s**6, on either side; bisecting
    # towards t = 1/3 takes 1,785-1,911 calls at n = 2 and 483-651 at n = 3.
    WORK = {
        (2, 1): 210, (2, 2): 336, (2, 6): 378, (2, 10): 378, (2, 11): 378,
        (3, 1): 210, (3, 2): 294, (3, 6): 294, (3, 10): 336, (3, 11): 336,
    }

    @pytest.mark.parametrize("n,m", sorted(WORK))
    def test_work_and_error_at_the_stride_references(self, n, m):
        x = RIM**m
        [ref] = [complex(rr, ri) for nn, mm, xr, xi, rr, ri in STRIDE_REFS
                 if (nn, mm, xr, xi) == (n, m, x, 0.0)]
        ev = evaluate(n, m, x, "quad-polylog")
        assert ev.work <= self.WORK[n, m], ev.work
        assert abs(ev.value - ref) <= ev.abs_error_est, (ev.value, ref, ev.abs_error_est)

    @pytest.mark.parametrize("tol,work", [(None, 210), (QUAD_FLOOR, 294)])
    def test_weight_two_against_the_exact_value(self, tol, work):
        # bisecting towards t = 1/3 takes 1,785 and 2,289 calls
        exact = record_by_id("S(2,1;27/4)").exact
        ev = evaluate(2, 1, RIM, "quad-polylog", tol=tol)
        assert ev.work <= work, ev.work
        assert abs(ev.value - exact) <= ev.abs_error_est, (ev.value, exact, ev.abs_error_est)


class TestQuadTwoTerm:
    def test_rim_weight_two(self):
        ev = quad_two_term(2, RIM)
        assert abs(ev.value - RIM_VALUE) < 1e-8

    def test_half_weight_two(self):
        exact = math.pi**2 / 24 - 0.5 * math.log(2) ** 2
        assert abs(quad_two_term(2, 0.5).value - exact) < 1e-9

    def test_weight_three_fixes_the_angular_orientation(self):
        # only the 1 - 2*phi orientation reproduces the series at odd log powers
        ref = sum_direct(3, 1, 1.0)
        assert abs(quad_two_term(3, 1.0).value - ref.value) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 6.0])
    def test_route_equivalence_interior(self, n, x):
        ref = sum_direct(n, 1, x)
        assert abs(quad_two_term(n, x).value - ref.value) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 6.0, RIM])
    def test_agrees_with_polylog_route(self, n, x):
        a = quad_two_term(n, x)
        b = quad_polylog(n, x)
        assert abs(a.value - b.value) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("x", [-1.0, -6.0, -0.25])
    def test_negative_arguments(self, n, x):
        ref = sum_direct(n, 1, x)
        assert abs(quad_two_term(n, x).value - ref.value) <= 1e-8

    def test_errors(self):
        with pytest.raises(ArgumentError):
            quad_two_term(1, 0.5)
        with pytest.raises(DomainError):
            quad_two_term(2, -6.76)
        # x = 0 is exactly 0, as on every route
        assert quad_two_term(2, 0.0) == (0j, 0.0, "quad-two-term", 0)

    def test_error_and_estimate_against_a_big_integer_reference(self):
        points = [(p.n, p.x.real) for p in TWO_TERM_GRID]
        points += [(n, s * 0.999 * RIM) for n in (2, 3, 4) for s in (1.0, -1.0)]
        for n, x in points:
            ev = quad_two_term(n, x)
            re, _, bound = _fixed_point_reference(n, 1, complex(x))
            err = abs(float(Fraction(ev.value.real) - re)) + bound
            assert err <= ev.abs_error_est, (n, x, err, ev.abs_error_est)
        # on the rim, against references within 2 ulp (rounded, or a float expression)
        for n, ref in ((2, RIM_VALUE), *((n, r) for n, x, r in RIM_REFERENCES if x == RIM)):
            ev = quad_two_term(n, RIM)
            err = abs(ev.value.real - ref) + 2.0 * math.ulp(ref)
            assert err <= ev.abs_error_est, (n, err, ev.abs_error_est)

    def test_work_on_the_verify_grid(self):
        # u = limit * s**3 smooths the u log(u)**p endpoint; bisecting towards it took 14,430
        assert len(TWO_TERM_GRID) == 19
        assert sum(quad_two_term(p.n, p.x.real).work for p in TWO_TERM_GRID) <= 3000

    def test_tolerance_threading(self):
        ev = quad_two_term(3, 3.0, tol=1e-8)
        ref = sum_direct(3, 1, 3.0)
        assert abs(ev.value - ref.value) < 1e-6


class TestNegativeRim:
    def test_polylog_route_matches_the_closed_form_at_minus_rim(self):
        from invbinom import s21

        ev = quad_polylog(2, -RIM)
        assert abs(ev.value - s21(-RIM).value) < 1e-9

    def test_alpha_negative_beta_negative_inside_the_positive_interval(self):
        for x in (0.5, 1.0, 3.0, 6.0, RIM):
            lim = two_term_limits(x)
            assert lim.alpha < 0.0, x
            assert -math.pi <= lim.beta < 0.0, x


# Exact rim references (fixed-point summation with a rigorous tail, rounded to
# binary64); the complex points lie 1e-14 inside the rim.
RIM_REFERENCES = [
    (3, RIM, 2.974506287708767),
    (3, -RIM, -1.9635326305975798),
    (4, RIM, 2.5204400945844294),
    (4, -RIM, -2.093928828088923),
    (3, -2.211503712041399 + 6.377440813651366j, -0.9295848913264654 + 1.8671011211200321j),
    (4, 6.285700809621863 + 2.4601758741842294j, 2.2463667460376575 + 1.0158953843725302j),
]


def _cardano_grid():
    """n 3..6, rho in {1e-9, ..., 0.995}, both real half-axes and five angles."""
    for n in range(3, 7):
        for rho in (1e-9, 1e-3, 0.3, 0.9, 0.99, 0.995):
            for unit in (1.0, -1.0, *(cmath.exp(1j * t) for t in (0.4, 1.3, 2.2, 3.9, 5.6))):
                yield n, complex(unit * rho * RIM)


class TestQuadCardano:
    def test_weights_above_the_series_tables(self):
        # n > 8 sums the series in x directly at every |x| >= 1e-8
        for n in range(9, 13):
            for rho in (1e-9, 0.3, 0.99, 0.995, 1.0):
                for unit in (1.0, -1.0, *(cmath.exp(1j * t) for t in (0.4, 2.2, 5.6))):
                    x = complex(unit * rho * RIM)
                    ev = quad_cardano(n, x)
                    re, im, bound = _fixed_point_reference(n, 1, x)
                    err = math.hypot(
                        float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im)
                    ) + bound
                    ref = abs(complex(float(re), float(im)))
                    assert err <= ev.abs_error_est, (n, x, err, ev.abs_error_est)
                    assert err <= 1e-15 * ref, (n, x, err / ref)

    def test_error_and_estimate_against_a_big_integer_reference(self):
        for n, x in _cardano_grid():
            ev = quad_cardano(n, x)
            re, im, bound = _fixed_point_reference(n, 1, x)
            err = math.hypot(
                float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im)
            ) + bound
            ref = abs(complex(float(re), float(im)))
            assert err <= ev.abs_error_est, (n, x, err, ev.abs_error_est)
            assert err <= 1e-13 * max(1.0, ref), (n, x, err)

    @pytest.mark.parametrize("n,x,ref", RIM_REFERENCES)
    def test_rim_references(self, n, x, ref):
        ev = quad_cardano(n, x)
        assert ev.method == "quad-cardano"
        assert abs(ev.value - ref) <= 1e-14 * abs(ref)
        assert abs(ev.value - ref) <= ev.abs_error_est
        assert abs(ev.value - quad_polylog(n, x).value) <= 1e-9

    @pytest.mark.parametrize("x", [1e-300, -1e-300, 1e-300j, 1e-320])
    def test_tiny_arguments_answer_by_the_series(self, x):
        ev = quad_cardano(3, x)
        assert ev.value == x / 3.0
        # relative, plus the absolute floor that evaluate adds for subnormal values like 1e-320 / 3
        assert ev.abs_error_est <= 1e-14 * abs(x) + _EST_FLOOR

    def test_zero_and_refusals(self):
        ev = quad_cardano(3, 0.0)
        assert ev.value == 0 and ev.work == 0
        with pytest.raises(ArgumentError, match="quad-cardano needs n >= 3, got 2"):
            quad_cardano(2, 1.0)
        with pytest.raises(DomainError):
            quad_cardano(3, 6.76)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_route_kernel_equals_the_public_entry_bit_for_bit(self, n):
        kernel = ROUTES["quad-cardano"].kernel
        for rho in (1e-12, 0.02, 0.3, 0.9, 0.999, 1.0):
            for unit in (1.0, -1.0, cmath.exp(0.7j), cmath.exp(-2.6j)):
                x = complex(unit * rho * RIM)
                for tol in (None, 1e-9):
                    ev = quad_cardano(n, x, tol)
                    value, err, work = kernel(n, 1, x, tol, None)
                    assert (value.real.hex(), value.imag.hex()) == (
                        ev.value.real.hex(),
                        ev.value.imag.hex(),
                    ), (n, x)
                    assert err.hex() == ev.abs_error_est.hex() and work == ev.work, (n, x)

    def test_tolerance_threading(self):
        ev = quad_cardano(4, 6.0 + 1.0j, tol=1e-6)
        ref = sum_direct(4, 1, 6.0 + 1.0j)
        assert abs(ev.value - ref.value) <= max(ev.abs_error_est, 1e-6)


@functools.lru_cache(maxsize=None)
def _exact_coefficients():
    """a_j(n), n 0..8 and j 1..len(_S_COEFS[0]), as Fractions: the binomial sum for weight
    0, then j a_j(n) = 2 P_j - a_j(n - 1), P_j = sum_{i<=j} (-1)**(j-i) a_i(n - 1)."""
    terms = len(_S_COEFS[0])
    w = [Fraction(27**k, math.comb(3 * k, k)) for k in range(terms + 1)]
    rows = [
        [
            sum((-1) ** (j - k) * math.comb(j + k - 1, j - k) * w[k] for k in range(1, j + 1))
            for j in range(1, terms + 1)
        ]
    ]
    for _ in range(8):
        p, row = Fraction(0), []
        for j, a in enumerate(rows[-1], start=1):
            p = a - p
            row.append((2 * p - a) / j)
        rows.append(row)
    return rows


# S(n, 1; x) at the rim points of the series grid (the rays whose rim lies within the
# grid's |s|), as the mpmath quadrature of Li_{n-1}(x t (1-t)**2) / t at 40 digits; the
# series in s with exact coefficients at 50 digits agreed to 1e-41.
SERIES_RIM_REFERENCES = {
    (3, math.pi): ("-1.963532630597579784799886", "0.0"),
    (4, math.pi): ("-2.093928828088923021361118", "0.0"),
    (5, math.pi): ("-2.167100653761351407288067", "0.0"),
    (6, math.pi): ("-2.20675879562810178500208", "0.0"),
    (7, math.pi): ("-2.227733937094846400684925", "0.0"),
    (8, math.pi): ("-2.238638423867454572725472", "0.0"),
    (3, 0.4): ("2.319648682377303627007879", "1.376358805556830398282918"),
    (4, 0.4): ("2.210158021475437265236175", "1.07916233014119836455045"),
    (5, 0.4): ("2.142162963345151757451822", "0.9641399343991647618404585"),
    (6, 0.4): ("2.106959667876629103950495", "0.9162841808592004357545937"),
    (7, 0.4): ("2.089470739866271351520566", "0.8950976146007643402921984"),
    (8, 0.4): ("2.080845544844087815910557", "0.885299984501317924909855"),
    (3, 1.3): ("0.2326371487413174576612038", "2.238816519695370900791285"),
    (4, 1.3): ("0.4194658148999776711971951", "2.225217549273160252772673"),
    (5, 1.3): ("0.5126975667380293149664967", "2.203863885329024774916292"),
    (6, 1.3): ("0.5582891153066729715771877", "2.188279545966021053837343"),
    (7, 1.3): ("0.5804952602770710814679727", "2.178891853858153632728924"),
    (8, 1.3): ("0.591340927557959272847176", "2.173687684839547930380829"),
    (3, 2.2): ("-1.356388635712381818199676", "1.514284854363390936505678"),
    (4, 2.2): ("-1.351180215331098916102122", "1.656930537987105245465254"),
    (5, 2.2): ("-1.342005337192273791481373", "1.73477241244509171639764"),
    (6, 2.2): ("-1.334717524619121801271164", "1.775883456117894428911548"),
    (7, 2.2): ("-1.330027724972451955270292", "1.797157547051874426270742"),
    (8, 2.2): ("-1.327293993125020699482806", "1.80802711956614606528739"),
    (3, 3.9): ("-1.567173056047313335245383", "-1.255624402087957073333607"),
    (4, 3.9): ("-1.605284691629795039331836", "-1.388501805915992635817289"),
    (5, 3.9): ("-1.621534090414794120892402", "-1.463258350957090250236484"),
    (6, 3.9): ("-1.628344451797749935916937", "-1.50369401589286405258055"),
    (7, 3.9): ("-1.631194933544689767452056", "-1.525003169915577770687824"),
    (8, 3.9): ("-1.632401006164526419712373", "-1.536039306456672955694424"),
    (3, 5.6): ("1.668514603305711992474665", "-1.893652472447580691507521"),
    (4, 5.6): ("1.740551295161700543688913", "-1.645155498981362539381953"),
    (5, 5.6): ("1.752059116882546152344658", "-1.526979093099582966935092"),
    (6, 5.6): ("1.751088409432564592866993", "-1.471461574656296794212072"),
    (7, 5.6): ("1.74877065272391342152376", "-1.44513483885838111163707"),
    (8, 5.6): ("1.747103384508722690237515", "-1.432481981358268834837444"),
}
SERIES_ANGLES = (0.0, math.pi, 0.4, 1.3, 2.2, 3.9, 5.6)


def _on_ray(rho, theta):
    if theta in (0.0, math.pi):
        return complex(math.copysign(rho * RIM, math.cos(theta)))
    return cmath.rect(rho * RIM, theta)


def _series_grid():
    """(n, x, rim): on each ray the point whose |s| is the target, or the rim where the
    ray's largest |s| stays below it."""
    for target in (1e-12, 0.1, 0.3, 0.5, S_MAX):
        for theta in SERIES_ANGLES:
            if abs(_cardano_s(_on_ray(1.0, theta))) <= target:
                x, rim = _on_ray(1.0, theta), True
            else:
                lo, hi = 0.0, 1.0  # |s| grows along the ray
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    inside = abs(_cardano_s(_on_ray(mid, theta))) <= target
                    lo, hi = (mid, hi) if inside else (lo, mid)
                x, rim = _on_ray(lo, theta), False
            for n in range(3, 9):
                yield n, x, (theta if rim else None)


class TestCardanoSeries:
    def test_weight_three_literals_are_correctly_rounded(self):
        for j, (a, c) in enumerate(zip(_exact_coefficients()[3], _S_COEFS[0]), start=1):
            assert (a > 0) == (j % 2 == 1), j  # a_j = (-1)**(j+1) c_j
            assert float(abs(a)).hex() == c.hex(), j

    def test_higher_weights_lie_within_the_assumed_ulps(self):
        exact = _exact_coefficients()
        for n in range(4, 9):
            for j, (a, c) in enumerate(zip(exact[n], _S_COEFS[n - 3]), start=1):
                assert (a > 0) == (j % 2 == 1), (n, j)
                assert abs(Fraction(c) - abs(a)) <= _S_TABLE_ULPS * Fraction(math.ulp(c)), (n, j)

    def test_the_envelope_bounds_every_coefficient_of_the_table(self):
        exact = _exact_coefficients()
        for n in range(3, 9):
            assert max(map(abs, exact[n])) <= _S_ENVELOPE[n - 3], n

    def test_the_table_holds_every_term_up_to_s_max(self):
        most = _s_terms(S_MAX, 8)
        assert max(_s_terms(S_MAX, n) for n in range(3, 9)) == most
        assert all(len(row) == most for row in _S_COEFS)
        assert _s_terms(0.17, 4) < 64 and _s_terms(1e-9, 8) == 2

    def test_series_against_references_and_the_quadrature(self):
        seen = 0
        for n, x, rim in _series_grid():
            s = _cardano_s(x)
            assert abs(s) <= S_MAX
            value, est, work = _s_series(n, s)
            if abs(x) >= 1e-8:  # below, the route sums the series in x itself
                # the kernel runs no direct sum here, so a term cap of 1 changes nothing
                assert integral_reps._cardano_kernel(n, x, None, 1) == (value, est, work)
            if rim is None:
                re, im, bound = _fixed_point_reference(n, 1, x)
            else:
                re, im = map(Fraction, SERIES_RIM_REFERENCES[n, rim])
                bound = 1e-30
            err = math.hypot(float(Fraction(value.real) - re), float(Fraction(value.imag) - im))
            err += bound
            ref = abs(complex(float(re), float(im)))
            assert err <= est, (n, x, err, est)
            assert err <= 1e-15 * ref, (n, x, err / ref)
            quad = quad_polylog(n, x, QUAD_FLOOR).value
            assert abs(quad - value) <= 1e-14 * ref, (n, x)
            seen += rim is not None
        # rims: every ray's at 0.5 and S_MAX, and at 0.3 all but those at angles 0.4 and 5.6
        assert seen == 6 * 16

    def test_real_arguments_take_real_arithmetic(self):
        s = _cardano_s(complex(-3.0))
        assert isinstance(s, float)
        value, _, _ = _s_series(4, s)
        assert value.imag == 0.0


# S(n, 1; x), n = 3..8, at the points of ``_branch_grid`` beyond rho = 0.995 with a
# non-negative angle, up to the rim angle 0.02 (the rest are HANDOVER_BAND_RIM_REFERENCES),
# as tools/cardano_v_tables.py prints them: the series in v at 110 digits over 160
# coefficients, which the mpmath quadrature of Li_{n-1}(x t (1-t)**2) / t matched to
# 1.6e-72 at n = 3 and 8.
BRANCH_REFERENCES = {
    ('near', 1e-12, 0.0): (
        ("2.9745062877079345964973", "0.0"),
        ("2.520440094583988868854984", "0.0"),
        ("2.367064837784683633023182", "0.0"),
        ("2.304013746560378312465639", "0.0"),
        ("2.275750781761783663337084", "0.0"),
        ("2.262503824680324833213376", "0.0"),
    ),
    ('near', 1e-12, 0.7): (
        ("2.974506287708130520624885", "-5.362589936527303617690436e-13"),
        ("2.520440094584092587589489", "-2.83885860939484266069763e-13"),
        ("2.367064837784771518820596", "-2.405499390450807695337061e-13"),
        ("2.304013746560460850186431", "-2.259118570873390285115246e-13"),
        ("2.275750781761864002515073", "-2.198942825441771477977664e-13"),
        ("2.262503824680404186883634", "-2.171968748675794593919437e-13"),
    ),
    ('near', 1e-12, 1.4): (
        ("2.974506287708625876040361", "-8.203071312568088107458304e-13"),
        ("2.520440094584354819861635", "-4.342557656402245952649521e-13"),
        ("2.367064837784993720648019", "-3.679654830607857565277755e-13"),
        ("2.304013746560669530461639", "-3.455738378163642852045493e-13"),
        ("2.275750781762067124210365", "-3.363688480648843438041118e-13"),
        ("2.26250382468060481691787", "-3.322426656901500037464705e-13"),
    ),
    ('near', 1e-06, 0.0): (
        ("2.974505455565188689924076", "0.0"),
        ("2.520439653916860337263976", "0.0"),
        ("2.367064464386529464424382", "0.0"),
        ("2.304013395884458389573824", "0.0"),
        ("2.275750440426755812410632", "0.0"),
        ("2.262503487532398309720845", "0.0"),
    ),
    ('near', 1e-06, 0.7): (
        ("2.974505651176590823908601", "-0.0000005360200804723856816108085"),
        ("2.520439757543265015678521", "-0.0000002838858323591738198076733"),
        ("2.367064552194107698771916", "-0.0000002405499341346951990144834"),
        ("2.304013478348722327082759", "-0.0000002259118554287003755926022"),
        ("2.275750520694434389905777", "-0.0000002198942818623267571946368"),
        ("2.262503566815446537838086", "-0.0000002171968745619366364978861"),
    ),
    ('near', 1e-06, 1.4): (
        ("2.97450614608568252039836", "-0.0000008200693214047637983170362"),
        ("2.520440019685389757702865", "-0.0000004342557559136054747611518"),
        ("2.367064774319570750941786", "-0.0000003679654813915762357996623"),
        ("2.304013686957283465740833", "-0.0000003455738372525360340034979"),
        ("2.275750723746326899504304", "-0.0000003363688478330999891637962"),
        ("2.262503767376534666456684", "-0.0000003322426655862515132384457"),
    ),
    ('near', 0.001, 0.0): (
        ("2.973682502367220865492026", "0.0"),
        ("2.51999945549520450780235", "0.0"),
        ("2.366691444234500292933265", "0.0"),
        ("2.303663071971515031566055", "0.0"),
        ("2.27540944708416798429413", "0.0"),
        ("2.262166676726849595917765", "0.0"),
    ),
    ('near', 0.001, 0.7): (
        ("2.973873942760203493574518", "-0.0005287803007620664019101649"),
        ("2.520103058435527351377731", "-0.0002838577668956629930952868"),
        ("2.366779247682093898110107", "-0.0002405450294521340859671423"),
        ("2.303745534839738621795986", "-0.0002259101985158567360989534"),
        ("2.275489714188853975980354", "-0.0002198936007058428429807302"),
        ("2.262245959517730124164555", "-0.0002171965692274932750797732"),
    ),
    ('near', 0.001, 1.4): (
        ("2.974360483351601727519718", "-0.0008128087163200508123181159"),
        ("2.520365168710215721116689", "-0.000434245869662085594379478"),
        ("2.367001367608790780210647", "-0.0003679638130516349259930167"),
        ("2.303954141530805329705719", "-0.0003455732739180642273119034"),
        ("2.275692765312604882259729", "-0.0003363686162674393592568031"),
        ("2.262446520261267880409705", "-0.0003322425617884860530754598"),
    ),
    ('near', 0.05, 1.4): (
        ("2.966069636963894613426882", "-0.03843257253558676896553048"),
        ("2.516634890544889357258604", "-0.02168599372881633767800119"),
        ("2.363879885901823084700925", "-0.01839401615694496960008818"),
        ("2.301029614638838985070186", "-0.01727727372193382908672384"),
        ("2.27284836294167598581214", "-0.01681786133688387279900627"),
        ("2.259637887950353685185848", "-0.01661187315341477347579106"),
    ),
    ('near', 0.15, 1.4): (
        ("2.946854034136351386535544", "-0.109947573000619241661058"),
        ("2.508711091194316503341816", "-0.06488756305610853917804102"),
        ("2.357440987664753064061137", "-0.05515526930378044387042221"),
        ("2.295037686168748153566353", "-0.05182316254726997525242075"),
        ("2.267033768386711308650355", "-0.05045006901759574909077045"),
        ("2.253901636209261927846941", "-0.04983405178395069557573365"),
    ),
    ('rim', 1e-06): (
        ("2.974506284289865326287337", "0.000005615410106543123162898844"),
        ("2.520440094581621494192373", "0.000002974506286341124245047829"),
        ("2.36706483778356978248443", "0.000002520440094583493447628421"),
        ("2.30401374655946877251499", "0.000002367064837784561272562431"),
        ("2.275750781760941470010561", "0.000002304013746560308907515696"),
        ("2.262503824679509978280906", "0.00000227575078176173048006916"),
    ),
    ('rim', 0.001): (
        ("2.974399368865847290185352", "0.005510672051944347974660252"),
        ("2.520437328432121594329095", "0.002974463437620967475970246"),
        ("2.367063350544170802525509", "0.002520439170473452468903954"),
        ("2.304012486340913078411465", "0.002367064342036735238463622"),
        ("2.275749598229830053937294", "0.002304013326487426170003873"),
        ("2.262502672673893729806542", "0.002275750387251343443582412"),
    ),
    ('rim', 0.02): (
        ("2.965332635911449911291638", "0.1026964171430670952256084"),
        ("2.519393755639961039955616", "0.05941606277860225250287238"),
        ("2.366470362143980864326085", "0.05040175251202910725450787"),
        ("2.303509694034618636722536", "0.04733733264639581337587251"),
        ("2.275277388617683993691717", "0.04607691448710830153262554"),
        ("2.262043038733806454768939", "0.04551185962809093114431701"),
    ),
}
# S(n, 1; 27/4 e**(i alpha)), n = 3..8, at the rim angles alpha of ``_branch_grid`` where
# 0.6 < |s| <= 0.8, past the handover, by tools/cardano_v_tables.py's functions as its
# BRANCH_REFERENCES: the series in v at 110 digits over 160 coefficients, which the mpmath
# quadrature of Li_{n-1}(x t (1-t)**2) / t matched to 2.6e-71 at n = 3 and 8.
HANDOVER_BAND_RIM_REFERENCES = {
    ('rim', 0.031): (
        ("2.957044363036378605061757", "0.155497236017743865176973"),
        ("2.517971895711585155217568", "0.09199064235221734941401912"),
        ("2.365637541620644227823368", "0.07810779593156430887178669"),
        ("2.302802877177475235423469", "0.0733642545804788709751583"),
        ("2.274613521490160396336512", "0.07141191299911944665798526"),
        ("2.261396843055533206767782", "0.07053652207247597782015822"),
    ),
    ('rim', 0.06): (
        ("2.928789900408419115167415", "0.2867722740518960729611121"),
        ("2.511534204087863181370348", "0.1773546523536115121005585"),
        ("2.3617300507752163379334", "0.1510448307125770006547643"),
        ("2.29947971256964443492068", "0.1419170675359077043296472"),
        ("2.271491668441656120457217", "0.1381501223498524994626391"),
        ("2.258357960638189410979842", "0.1364598518199900697626851"),
    ),
    ('rim', 0.091): (
        ("2.891146020739972978452013", "0.4171824739237502531746728"),
        ("2.500599447253944331941703", "0.2675804569544163411532873"),
        ("2.354830539410954229865212", "0.2287433435134884153266974"),
        ("2.293592119801981384005817", "0.2150309825356796481177402"),
        ("2.265958421081335435544031", "0.2093489582747291886391627"),
        ("2.252971253376419623282055", "0.2067961835293585913254571"),
    ),
    ('rim', 0.12): (
        ("2.850724676496469212747667", "0.5316260456006483583416502"),
        ("2.486825471950912333826766", "0.3508483226410441397964043"),
        ("2.345860488150841868824474", "0.3010690243590554163381527"),
        ("2.285908874914022844479645", "0.2831968382753670918971283"),
        ("2.258733488988753790257202", "0.2757567916353109844256311"),
        ("2.245936681521776450009097", "0.2724089935975645653882086"),
    ),
    ('rim', 0.1333): (
        ("2.830791857517003036564688", "0.5819526726450592036703094"),
        ("2.479418742750265856933371", "0.3886313035386778256520794"),
        ("2.340942654793523486233965", "0.3340952902267771247422679"),
        ("2.281684923036448549018063", "0.3143646361312124930918553"),
        ("2.254759632690121787822787", "0.3061317772285494177591408"),
        ("2.242067060273939194134106", "0.302424182297684621804514"),
    ),
}
# S(n, 1; 27/4), n = 5..8, to 25 digits (the quadrature of Li_{n-1} at 50 digits); n = 3
# and 4 are RIM_REFERENCES.
ANCHORS_25 = (
    "2.367064837785057064751060",
    "2.304013746560729019913229",
    "2.275750781762125029051858",
    "2.262503824680662011450018",
)


def _branch_grid():
    """(key, x, conjugate): x = 27/4 - delta e**(i theta) and the rim 27/4 e**(i alpha), at
    both signs of the angle; key names the point of the positive angle, whose conjugate x
    is at the negative one."""
    for delta in (1e-12, 1e-6, 1e-3, 0.05, 0.15, 0.3, 0.4):
        for theta in (0.0, 0.7, 1.4):
            for sign in (1, -1) if theta else (1,):
                x = complex(RIM - delta * cmath.exp(1j * sign * theta))
                yield ("near", delta, theta), x if theta else complex(x.real), sign < 0
    for alpha in (1e-6, 1e-3, 0.02, 0.031, 0.06, 0.091, 0.12, 0.1333):
        for sign in (1, -1):
            yield ("rim", alpha), cmath.rect(RIM, sign * alpha), sign < 0


def _v_of(x):
    return cmath.sqrt(4.0 * (RIM - x) / 27.0)


def _largest_route_v():
    """|v| where the rim leaves |s| <= S_MAX, the largest |v| the route hands the series."""
    lo, hi = 0.0, 0.2  # rim angles; |s| falls along them
    assert abs(_cardano_s(cmath.rect(RIM, hi))) <= S_MAX
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if abs(_cardano_s(cmath.rect(RIM, mid))) > S_MAX else (lo, mid)
    return abs(_v_of(cmath.rect(RIM, lo)))


def _exact_v_rows():
    """The recurrence for weights 3..8 over the literals, in Fractions."""
    rows, prev = [], [Fraction(b) for b in _V_BASE]
    for anchor in _V_ANCHORS:
        sums, row = [Fraction(0), Fraction(0)], [Fraction(anchor), Fraction(0)]
        for k in range(2, _V_TERMS):
            sums[k % 2] += prev[k - 2]
            row.append(-2 * sums[k % 2] / k)
        rows.append(row)
        prev = row
    return rows


class TestCardanoVSeries:
    def test_the_base_table_is_the_weight_two_closed_form(self):
        # at |v| <= 0.35 the 40 terms leave under 1e-19; x inside the disk
        for r in (0.02, 0.1, 0.2, 0.35):
            for psi in (0.0, 0.3, -0.3, 0.6, -0.6):
                x = complex(RIM * (1.0 - (r * cmath.exp(1j * psi)) ** 2))
                if psi == 0.0:
                    x = complex(x.real)
                assert abs(x) <= RIM
                v = _v_of(x)
                value = sum(b * v**k for k, b in enumerate(_V_BASE))
                ref = evaluate(2, 1, x, "closed-form")
                err = abs(value - ref.value)
                assert err <= ref.abs_error_est + 4e-16 * abs(ref.value), (r, psi)

    def test_anchors_are_the_rim_values(self):
        assert _V_ANCHORS[:2] == tuple(ref for n, x, ref in RIM_REFERENCES if x == RIM)
        for anchor, digits in zip(_V_ANCHORS[2:], ANCHORS_25):
            assert anchor == float(Fraction(digits))
        for n, anchor in enumerate(_V_ANCHORS, start=3):
            ev = quad_cardano(n, RIM)
            assert (ev.value, ev.work) == (anchor, 1)

    def test_weights_are_the_rounded_recurrence_over_the_literals(self):
        for row, mags, exact in zip(_V_COEFS, _V_MAGS, _exact_v_rows()):
            for b, mag, e in zip(row, mags, exact):
                floors = Fraction(1, 2 ** (_V_FIXED - 8))  # one unit per step and weight
                assert abs(Fraction(b) - e) <= Fraction(math.ulp(b)) / 2 + floors
                assert abs(b) <= mag

    def test_the_envelope_bounds_every_table_entry(self):
        assert max(max(map(abs, row)) for row in _V_COEFS) == -_V_COEFS[0][2]  # S(2, 1; 27/4)
        assert all(max(mags) <= _V_ENVELOPE for mags in _V_MAGS)

    def test_the_table_holds_every_term_past_s_max(self):
        # The series in v serves |s| > S_MAX. |v| is analytic in s, so its largest value there
        # lies on the boundary: on the rim, where |v| grows with the angle up to the rim's
        # exit from |s| <= S_MAX, or on the arc |s| = S_MAX inside the disk.
        v_max = _largest_route_v()
        assert _v_terms(v_max) <= _V_TERMS
        for k in range(2001):
            s = cmath.rect(S_MAX, math.pi * k / 2000)
            if abs(27.0 * s / (1.0 + s) ** 2) <= RIM:
                assert abs((1.0 - s) / (1.0 + s)) <= v_max, k
        assert _v_terms(0.0) == 1 and _v_terms(1e-7) == 3

    def test_the_two_series_agree_where_both_serve(self):
        reach = 0.0
        for r in (0.26, 0.3, 0.33, 0.365):
            for psi in (0.0, 0.3, -0.3, 0.6, -0.6):
                x = complex(RIM * (1.0 - (r * cmath.exp(1j * psi)) ** 2))
                if psi == 0.0:
                    x = complex(x.real)
                s = _cardano_s(x)
                if abs(x) > RIM or abs(s) > S_MAX:
                    continue
                reach = max(reach, abs(_v_of(x)))
                for n in range(3, 9):
                    a, _, _ = _v_series(n, x)
                    b, _, _ = _s_series(n, s)
                    assert abs(a - b) <= 8 * 2.220446049250313e-16 * abs(b), (n, x)
        assert 0.36 < reach and _v_terms(reach) <= _V_TERMS

    def test_estimates_near_the_branch_point(self):
        worst = 0.0
        for key, x, conjugate in _branch_grid():
            for n in range(3, 9):
                ev = quad_cardano(n, x)
                if abs(x) <= 0.995 * RIM:
                    re, im, bound = _fixed_point_reference(n, 1, x)
                else:
                    refs = BRANCH_REFERENCES.get(key) or HANDOVER_BAND_RIM_REFERENCES[key]
                    re, im = map(Fraction, refs[n - 3])
                    im, bound = -im if conjugate else im, 1e-30
                err = math.hypot(
                    float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im)
                ) + bound
                ref = abs(complex(float(re), float(im)))
                assert err <= ev.abs_error_est, (n, x, err, ev.abs_error_est)
                assert err <= 1e-15 * ref, (n, x, err / ref)
                if abs(_cardano_s(x)) > S_MAX:
                    worst = max(worst, err / ref)
        # the series in v serves every point from delta = 0.05 on and the rim up to 0.1333,
        # 0.6 < |s| <= 0.8 included, where the series in s is up to 1.1e-15 off
        assert worst < 3e-16

    def test_the_route_runs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quad-cardano ran a quadrature")

        monkeypatch.setattr(integral_reps, "adaptive_quad", refuse)
        points = [x for _, x, _ in _branch_grid()] + [x for n, x in _cardano_grid() if n == 3]
        for n in range(3, 13):
            for x in points:
                quad_cardano(n, x)
