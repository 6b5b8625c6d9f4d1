"""Quadrature routes built on the integral representations."""

import math

import pytest

from invbinom import (
    ArgumentError,
    DomainError,
    QuadratureSpec,
    SeriesParams,
    quad_polylog,
    quad_two_term,
    sum_direct,
    two_term_limits,
)

RIM = 27 / 4
RIM_VALUE = 2 * math.pi**2 / 3 - 2 * math.log(2) ** 2


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
        ref = sum_direct(SeriesParams(4, 1, 1.0))
        assert abs(quad_polylog(4, 1.0).value - ref.value) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("x", [-0.25, 0.25, -1.0, 1.0, -3.0, 3.0, 6.0, -6.0])
    def test_agreement_with_direct_summation(self, n, x):
        ref = sum_direct(SeriesParams(n, 1, x))
        ev = quad_polylog(n, x)
        assert abs(ev.value - ref.value) <= 1e-10, (n, x)

    def test_complex_argument(self):
        z = 2.0 + 1.5j
        ref = sum_direct(SeriesParams(3, 1, z))
        assert abs(quad_polylog(3, z).value - ref.value) < 1e-10

    def test_error_estimate_honesty(self):
        # estimate must dominate the actual deviation in at least 95% of the grid
        hits = 0
        total = 0
        for n in (1, 2, 3, 4, 5):
            for x in (-0.25, 0.25, -1.0, 1.0, -3.0, 3.0, 6.0, -6.0):
                ref = sum_direct(SeriesParams(n, 1, x))
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
        ref = sum_direct(SeriesParams(3, 1, 1.0))
        assert abs(quad_two_term(3, 1.0).value - ref.value) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 6.0])
    def test_route_equivalence_interior(self, n, x):
        ref = sum_direct(SeriesParams(n, 1, x))
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
        ref = sum_direct(SeriesParams(n, 1, x))
        assert abs(quad_two_term(n, x).value - ref.value) <= 1e-8

    def test_errors(self):
        with pytest.raises(ArgumentError):
            quad_two_term(1, 0.5)
        with pytest.raises(DomainError):
            quad_two_term(2, 0.0)
        with pytest.raises(DomainError):
            quad_two_term(2, -6.76)

    def test_custom_spec_threading(self):
        spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
        ev = quad_two_term(3, 3.0, spec)
        ref = sum_direct(SeriesParams(3, 1, 3.0))
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
