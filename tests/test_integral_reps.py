"""Quadrature routes built on the integral representations."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from invbinom import (
    ArgumentError,
    DomainError,
    QuadratureSpec,
    evaluate,
    quad_cardano,
    quad_polylog,
    quad_two_term,
    sum_direct,
    two_term_limits,
)
from invbinom import integral_reps
from invbinom.integral_reps import _TAIL_COEFS, _TAIL_TERMS, _cardano_tail, _tail_terms
from invbinom.routes import ROUTES
from invbinom.series import within_terms
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

    def test_error_estimate_honesty(self):
        # estimate must dominate the actual deviation in at least 95% of the grid
        hits = 0
        total = 0
        for n in (1, 2, 3, 4, 5):
            for x in (-0.25, 0.25, -1.0, 1.0, -3.0, 3.0, 6.0, -6.0):
                ref = sum_direct(n, 1, x)
                ev = quad_polylog(n, x)
                total += 1
                if ev.abs_error_est >= abs(ev.value - ref.value):
                    hits += 1
        assert hits >= math.ceil(0.95 * total)

    def test_domain_errors(self):
        with pytest.raises(ArgumentError):
            quad_polylog(0, 1.0)
        with pytest.raises(DomainError):
            quad_polylog(2, 6.76)
        with pytest.raises(DomainError):
            quad_polylog(1, RIM)  # rim needs n >= 2


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
            quad_two_term(2, 0.0)
        with pytest.raises(DomainError):
            quad_two_term(2, -6.76)

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
        assert sum(quad_two_term(p.n, p.x.real).work for p in TWO_TERM_GRID) <= 3600

    def test_custom_spec_threading(self):
        spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
        ev = quad_two_term(3, 3.0, spec)
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
        assert ev.abs_error_est <= 1e-14 * abs(x)

    def test_zero_and_refusals(self):
        ev = quad_cardano(3, 0.0)
        assert ev.value == 0 and ev.work == 0
        with pytest.raises(ArgumentError):
            quad_cardano(2, 1.0)
        with pytest.raises(DomainError):
            quad_cardano(3, 6.76)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_route_kernel_equals_the_public_entry_bit_for_bit(self, n):
        kernel = ROUTES["quad-cardano"].kernel
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
        for rho in (1e-12, 0.02, 0.3, 0.9, 0.999, 1.0):
            for unit in (1.0, -1.0, cmath.exp(0.7j), cmath.exp(-2.6j)):
                x = complex(unit * rho * RIM)
                for s in (None, spec):
                    ev = quad_cardano(n, x, s)
                    value, err, work = kernel(n, 1, x, 1e-15, s, None)
                    assert (value.real.hex(), value.imag.hex()) == (
                        ev.value.real.hex(),
                        ev.value.imag.hex(),
                    ), (n, x)
                    assert err.hex() == ev.abs_error_est.hex() and work == ev.work, (n, x)

    def test_custom_spec_threading(self):
        spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
        ev = quad_cardano(4, 6.0 + 1.0j, spec)
        ref = sum_direct(4, 1, 6.0 + 1.0j)
        assert abs(ev.value - ref.value) <= max(ev.abs_error_est, 1e-6)


# Largest |y| = |u(r0)| the Cardano route hands its tail, at |r0| = CARDANO_SPLIT and
# r0**3 < 0: 27 * 2.5**3 / (2.5**3 - 1)**2.
TAIL_Y_MAX = 27 * 2.5**3 / (2.5**3 - 1) ** 2


def _exact_tail(p, y, ell0, prec=256):
    """sum_k y**k / (k**3 C(3k, k)) * e_p(k l0) / k**p in fixed-point big integers (units
    of 2**-prec, one floor per operation): (re, im, bound on the rest and the floors)."""
    one = 1 << prec

    def fixed(v):
        return math.floor(Fraction(v) * one)

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1]) >> prec, (u[0] * v[1] + u[1] * v[0]) >> prec

    yf = (fixed(y.real), fixed(y.imag))
    lpow = [(one, 0)]
    for _ in range(p):
        lpow.append(mul(lpow[-1], (fixed(ell0.real), fixed(ell0.imag))))
    r = 4 * abs(y) / 27
    terms = max(2, math.ceil(-60 / math.log10(r)))  # r**terms <= 1e-60
    sr = si = 0
    power = (one, 0)
    for k in range(1, terms + 1):
        power = mul(power, yf)
        er = sum(lpow[i][0] * k**i // math.factorial(i) for i in range(p + 1))
        ei = sum(lpow[i][1] * k**i // math.factorial(i) for i in range(p + 1))
        tr, ti = mul(power, (er, ei))
        c = k ** (3 + p) * math.comb(3 * k, k)
        sr += tr // c
        si += ti // c
    amp = sum(abs(ell0) ** i / math.factorial(i) for i in range(p + 1))
    return Fraction(sr, one), Fraction(si, one), 2 * amp * abs(y) * r**terms + 2.0 ** (60 - prec)


def _tail_grid():
    """p 0..5 (6 and 7 take the inline coefficients), |y| up to the route's maximum at
    seeded angles, complex and real l0."""
    rng = random.Random(8)
    for p in range(8):
        for ay in (1e-7, 0.05, 0.6, 1.3, 1.8, TAIL_Y_MAX):
            for _ in range(2 if p > 5 else 4):
                y = ay * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                ell0 = complex(rng.uniform(-1.0, 2.0), rng.uniform(-4.0, 4.0))
                yield p, y, ell0
            yield p, complex(ay), complex(rng.uniform(-1.0, 2.0))
            yield p, complex(-ay), complex(rng.uniform(-1.0, 2.0))


class TestCardanoTail:
    def test_table_entries_are_correctly_rounded(self):
        assert len(_TAIL_COEFS) == 6 and _tail_terms(4 * TAIL_Y_MAX / 27) <= _TAIL_TERMS
        for w, row in enumerate(_TAIL_COEFS, start=3):
            assert len(row) == _TAIL_TERMS
            for k, c in enumerate(row, start=1):
                assert c == float(Fraction(1, k**w * math.comb(3 * k, k))), (w, k)

    def test_tail_stays_within_its_bound_against_exact_rationals(self):
        for p, y, ell0 in _tail_grid():
            value, bound, terms = _cardano_tail(p, y, ell0)
            re, im, rest = _exact_tail(p, y, ell0)
            err = math.hypot(float(Fraction(value.real) - re), float(Fraction(value.imag) - im))
            assert err + rest <= bound, (p, y, ell0, err, bound)
            assert terms == _tail_terms(4 * abs(y) / 27)

    @pytest.mark.parametrize("ay", [1e-12, 1e-7, 0.05, 0.6, 1.0, 1.3, 1.53, 1.8, 1.97, TAIL_Y_MAX])
    def test_term_count_meets_the_truncation_budget_in_exact_rationals(self, ay):
        # past K terms the weight-3 series adds at most (|y|/3) eps/8, and K is the least
        # count that the Robbins test admits, or one more
        r = 4 * ay / 27
        terms = _tail_terms(r)
        y = Fraction(ay)
        rest = sum(y**k / (k**3 * math.comb(3 * k, k)) for k in range(terms + 1, terms + 80))
        assert rest <= y / 3 * Fraction(2.0**-52) / 8, (ay, terms)
        tol = integral_reps._TAIL_TOL * (1 - r)
        assert within_terms(3, r, tol, terms) or terms == 1
        assert terms <= 2 or not within_terms(3, r, tol, terms - 2)

    def test_term_counts_at_the_route_s_largest_ratios(self):
        assert [_tail_terms(4 * ay / 27) for ay in (1.53, 1.97)] == [21, 25]
        assert _TAIL_TERMS == _tail_terms(0.3)

    def test_real_arguments_stay_real(self):
        value, _, _ = _cardano_tail(2, complex(1.5), complex(0.7))
        assert value.imag == 0.0

    def test_the_route_stays_within_the_table(self, monkeypatch):
        seen = []

        def spy(p, y, ell0):
            seen.append(abs(y))
            return _cardano_tail(p, y, ell0)

        monkeypatch.setattr(integral_reps, "_cardano_tail", spy)
        rng = random.Random(3)
        for _ in range(200):
            quad_cardano(3, cmath.rect(6.75 * rng.random() ** 0.25, rng.uniform(-math.pi, math.pi)))
        assert max(seen) <= TAIL_Y_MAX * (1 + 1e-12)
