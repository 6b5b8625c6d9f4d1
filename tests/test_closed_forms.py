"""Cardano root, explicit closed forms, folding."""

import cmath
import math
import os
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invbinom import (
    METHODS,
    ArgumentError,
    DomainError,
    Evaluation,
    SeriesError,
    evaluate,
    fold,
    phi,
    s01,
    s11,
    s21,
    root_of_unity,
    routes,
    sum_direct,
)
from invbinom.closed_forms import (
    _TINY_X,
    PRINCIPAL_BRANCH,
    REAL_BRANCH,
    _principal_root,
    _real_root,
)
from invbinom.integral_reps import _cardano_s
from invbinom.routes import ROUTES
from test_series import _fixed_point_reference, _summable

SQRT3 = math.sqrt(3.0)

# Frozen from exact-fraction partial sums.
S21_AT_1 = 0.3514640300570974
S21_AT_6 = 3.433029058562319
S11_AT_6 = 7.94821259590667
S01_AT_6 = 45.20271593479173
S01_AT_1 = 0.4143220443218204
S01_AT_NEG_QUARTER = -0.07934509970656523
S22_AT_1 = 0.06717778880529868
S23_AT_1 = 0.011918252587160321
# S(n, 1; x) near the branch point x = 27/4 (the closed forms in mpmath at 50 digits; at
# 0.9999 * 27/4 they and the hypergeometric series agree to 1e-42).
NEAR_RIM = {
    (2, 0.9999 * 6.75): "5.546523140000718230206005",
    (2, (1 - 1e-6) * 6.75): "5.611577502855102219321304",
    (2, math.nextafter(6.75, 0)): "5.618830156332719155547024",
    (1, 0.9999 * 6.75): "360.281721459123361107657",
    (1, (1 - 1e-6) * 6.75): "3625.135018824431756125082",
    (1, math.nextafter(6.75, 0)): "316243068.7376366804746926",
    (0, (1 - 1e-6) * 6.75): "1813798355.93683670141629",
    (0, math.nextafter(6.75, 0)): "1201695899861497666232153.0",
}


class TestPhi:
    def test_known_value_at_half(self):
        root = phi(0.5)
        assert root.branch == REAL_BRANCH
        assert root.phi.imag == 0.0
        assert root.phi.real == pytest.approx(2 + SQRT3, abs=1e-14)

    def test_rim_value_is_one(self):
        assert phi(27 / 4).phi == 1.0

    def test_known_negative_value(self):
        root = phi(-0.25)
        assert root.branch == REAL_BRANCH
        assert root.phi.real == pytest.approx(-(5 + math.sqrt(21)) / 2, abs=1e-13)

    def test_zero_raises(self):
        with pytest.raises(DomainError):
            phi(0.0)

    @pytest.mark.parametrize(
        "x",
        [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan), math.inf, complex(1.0, -math.inf)],
    )
    def test_non_finite_raises(self, x):
        # refused before the radical: a NaN or infinite x would give a NaN root
        with pytest.raises(DomainError, match="phi\\(x\\) needs a finite x"):
            phi(x)

    @pytest.mark.parametrize("x", [4e307, -1e308, complex(1e308, 1.0), complex(1.0, 1e308)])
    def test_huge_x_raises(self, x):
        # 12x overflows in the radical, and the root reads NaN
        with pytest.raises(DomainError, match="binary64 range"):
            phi(x)

    def test_complex_branch_flag(self):
        root = phi(1.0 + 1.0j)
        assert root.branch == PRINCIPAL_BRANCH

    def test_real_positive_axis_monotone_and_above_one(self):
        values = [phi(6.75 * (k + 1) / 41).phi.real for k in range(40)]
        assert all(v >= 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(
        re=st.floats(-6.5, 6.5),
        im=st.floats(-6.5, 6.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_radical_identity_residual(self, re, im):
        x = complex(re, im)
        if abs(x) < 1e-3 or abs(x) > 27 / 4:
            return
        root = phi(x)
        if x.imag == 0.0:
            s = math.sqrt(81.0 - 12.0 * x.real)
        else:
            s = cmath.sqrt(81.0 - 12.0 * x)
        resid = abs(2 * x * root.phi**3 + 2 * x - 27 - 3 * s)
        assert resid <= 1e-9 * (1.0 + abs(x))


def _on_disk(rho: float, angle: float) -> complex:
    """rho * 27/4 * e**(i angle), moved back inside where rounding left it past the rim."""
    x = cmath.rect(6.75 * rho, angle)
    while abs(x) > 6.75:
        x *= 1.0 - 2.0**-53
    return x


def _closed_disk_grid():
    """Seeded points of |x| <= 27/4: the interior, the rim, rho = 1 - 2**-52, and angles
    within 1e-12 of both axes, with both axes themselves out to the rim."""
    rng = random.Random(31)
    rims = (1.0, 1.0 - 2.0**-52)
    near_axes = [a + d for a in (0.0, math.pi / 2, math.pi, -math.pi / 2) for d in (1e-12, -1e-12)]
    for _ in range(3000):
        yield _on_disk(rng.random() ** 0.5, rng.uniform(-math.pi, math.pi))
    for rho in rims:
        for k in range(1000):
            yield _on_disk(rho, math.pi * (2 * k / 1000 - 1))
    for rho in rims + tuple(k / 64 for k in range(1, 64)) + (1e-3, 1e-300):
        for angle in near_axes:
            yield _on_disk(rho, angle)
        for axis in (1.0, -1.0, 1j, -1j):
            yield 6.75 * rho * axis


class TestBranchInvariant:
    """The closed forms rest on |phi| >= 1, i.e. |s| = |phi|**-3 <= 1, on the closed disk;
    equality holds only at x = 27/4, where phi = s = 1. On the real axis phi is real:
    phi >= 1 on (0, 27/4] and phi < 0 for x < 0."""

    def test_phi_and_s_on_the_closed_disk(self):
        seen = 0
        for x in _closed_disk_grid():
            assert abs(x) <= 6.75, x
            root = phi(x)
            p = root.phi
            s = _cardano_s(x)
            if x == 6.75:
                assert (p, abs(2.0 * p - 1.0), s) == (1.0, 1.0, 1.0)
                seen += 1
            else:
                assert abs(p) > 1.0, x
                assert abs(2.0 * p - 1.0) > 1.0, x
                assert abs(s) < 1.0, x
            if x.imag == 0.0:
                assert root.branch == REAL_BRANCH and p.imag == 0.0, x
                assert p.real >= 1.0 if x.real > 0.0 else p.real < 0.0, x
        assert seen == 2  # the rim sweep at angle 0 and the end of the positive half-axis


class TestWeightTwoClosedForm:
    def test_rim(self):
        exact = 2 * math.pi**2 / 3 - 2 * math.log(2) ** 2
        assert abs(s21(27 / 4).value - exact) < 1e-13

    def test_half(self):
        exact = math.pi**2 / 24 - 0.5 * math.log(2) ** 2
        assert abs(s21(0.5).value - exact) < 1e-14

    def test_one_against_radical_form(self):
        r = (100 + 12 * math.sqrt(69)) ** (1 / 3)
        exact = (
            6 * math.atan(SQRT3 / (1 - r)) ** 2
            - 0.5 * math.log(12 * (9 + math.sqrt(69)) / (2 + r) ** 3) ** 2
        )
        assert abs(s21(1.0).value - exact) < 1e-13
        assert abs(s21(1.0).value - S21_AT_1) < 1e-13

    def test_negative_quarter_against_arccot_form(self):
        acot = math.atan2(1.0, 2 * SQRT3 + math.sqrt(7))
        exact = 6 * acot**2 - 0.5 * math.log(2) ** 2
        assert abs(s21(-0.25).value - exact) < 1e-14

    def test_six(self):
        assert abs(s21(6.0).value - S21_AT_6) < 1e-13

    def test_zero_short_circuits(self):
        assert s21(0.0).value == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            s21(6.7501)


class TestWeightOneClosedForm:
    def test_half(self):
        exact = math.pi / 10 - math.log(2) / 5
        assert abs(s11(0.5).value - exact) < 1e-14

    def test_six_against_radical_form(self):
        c13 = 2 ** (1 / 3)
        c43 = 2 ** (4 / 3)
        exact = SQRT3 * c43 * (1 + c13) * math.atan(SQRT3 / (c43 - 1)) - c13 * (
            1 - c13
        ) * math.log(c13 - 1)
        assert abs(s11(6.0).value - exact) < 1e-12
        assert abs(s11(6.0).value - S11_AT_6) < 1e-12

    def test_zero_short_circuits(self):
        assert s11(0.0).value == 0

    def test_rim_excluded(self):
        with pytest.raises(DomainError):
            s11(27 / 4)


class TestWeightZeroClosedForm:
    def test_half(self):
        exact = 2 / 25 - (6 / 125) * math.log(2) + (11 / 250) * math.pi
        assert abs(s01(0.5).value - exact) < 1e-14

    def test_negative_quarter(self):
        acot = math.atan2(1.0, 2 * SQRT3 + math.sqrt(7))
        exact = -1 / 28 - (3 / 32) * math.log(2) + 39 / (112 * math.sqrt(7)) * acot
        assert abs(s01(-0.25).value - exact) < 1e-14
        assert abs(s01(-0.25).value - S01_AT_NEG_QUARTER) < 1e-14

    def test_six(self):
        c13 = 2 ** (1 / 3)
        exact = (
            2 * math.sqrt(240 + 96 * c13 + 75 * c13**2) * math.atan(SQRT3 / (2 * c13 - 1))
            + c13 * (4 * c13 - 5) * math.log(c13 - 1)
            + 8
        )
        assert abs(s01(6.0).value - exact) < 5e-12
        assert abs(s01(6.0).value - S01_AT_6) < 5e-12

    def test_one_against_tau_form(self):
        tau = ((25 + 3 * math.sqrt(69)) / 2) ** (1 / 3)
        quad = 1 - tau + tau * tau
        cube1 = 1 + tau**3
        exact = (
            (36 * math.sqrt(23) * tau / (529 * quad) - 18 * SQRT3 * (1 - tau**2) * tau / (23 * quad**2))
            * math.atan(SQRT3 / (2 * tau - 1))
            + (
                9 * tau * (1 - 2 * tau - 2 * tau**3 + tau**4) / (23 * cube1**2)
                - 6 * math.sqrt(69) * (1 - tau) * tau / (529 * cube1)
            )
            * math.log(cube1 / (1 + tau) ** 3)
            + 108 * tau**3 / (23 * cube1**2)
        )
        assert abs(s01(1.0).value - exact) < 1e-13
        assert abs(s01(1.0).value - S01_AT_1) < 1e-13

    def test_rim_excluded(self):
        with pytest.raises(DomainError):
            s01(-27 / 4)


class TestNearTheBranchPoint:
    @pytest.mark.parametrize("n,x", list(NEAR_RIM))
    def test_error_inside_the_estimate(self, n, x):
        # phi forms 81 - 12x exactly here; a rounded 12x put S(2, 1) one ulp below 27/4
        # off by 1.3e-8, outside the flat 8 eps model
        ev = {2: s21, 1: s11, 0: s01}[n](x)
        err = abs(float(Fraction(ev.value.real) - Fraction(NEAR_RIM[n, x])))
        assert ev.value.imag == 0.0
        assert err <= ev.abs_error_est <= 20.0 * max(err, 1e-15 * abs(ev.value))


class TestEstimateAgainstTheReference:
    """The closed-form route's estimate bounds its error, across the disk and off the
    real axis, against the big-integer sum of the series itself."""

    @pytest.mark.parametrize("unit", [1.0, -1.0, cmath.exp(0.7j), cmath.exp(2.4j)])
    @pytest.mark.parametrize("rho", [0.3, 0.9, 0.99, 0.995])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_estimate_bounds_the_error(self, n, rho, unit):
        x = complex(unit * rho * 27 / 4)
        ev = evaluate(n, 1, x, "closed-form")
        re, im, bound = _fixed_point_reference(n, 1, x)
        err = math.hypot(
            float(Fraction(ev.value.real) - re), float(Fraction(ev.value.imag) - im)
        ) + bound
        assert err <= ev.abs_error_est, (n, x, err, ev.abs_error_est)
        assert err <= 1e-14 * max(1.0, abs(ev.value)), (n, x, err)


class TestOracleAgreement:
    """Closed forms against direct summation across the disk."""

    @pytest.mark.parametrize("idx", range(40))
    def test_grid(self, idx):
        lo, hi = -27 / 4 + 0.01, 27 / 4 - 0.01
        x = lo + (hi - lo) * idx / 39
        if abs(x) < 1e-6:
            return
        ref = sum_direct(2, 1, x).value
        assert abs(s21(x).value - ref) <= 1e-11 * (1 + abs(ref))
        ref = sum_direct(1, 1, x).value
        assert abs(s11(x).value - ref) <= 1e-11 * (1 + abs(ref))
        ref = sum_direct(0, 1, x).value
        assert abs(s01(x).value - ref) <= 1e-11 * (1 + abs(ref))

    @pytest.mark.parametrize(
        "z", [0.3 + 0.4j, -1 + 2j, 1j, 2.2 - 1.1j, -3 - 0.5j]
    )
    def test_complex_arguments(self, z):
        for n, form in ((2, s21), (1, s11), (0, s01)):
            ref = sum_direct(n, 1, z).value
            assert abs(form(z).value - ref) <= 1e-12 * (1 + abs(ref)), (n, z)


class TestDerivativeLadder:
    H = 1e-5

    @pytest.mark.parametrize("x", [-1.0, 0.5, 2.0, 5.0])
    def test_weight2_to_weight1(self, x):
        slope = (s21(x + self.H).value - s21(x - self.H).value) / (2 * self.H)
        assert abs(x * slope - s11(x).value) < 1e-6

    @pytest.mark.parametrize("x", [-1.0, 0.5, 2.0, 5.0])
    def test_weight1_to_weight0(self, x):
        slope = (s11(x + self.H).value - s11(x - self.H).value) / (2 * self.H)
        assert abs(x * slope - s01(x).value) < 1e-6


class TestFolding:
    def test_single_term_fold_is_the_closed_form(self):
        assert abs(fold(2, 1, 0.5).value - s21(0.5).value) < 1e-16

    def test_stride2_at_one(self):
        assert abs(fold(2, 2, 1.0).value - S22_AT_1) < 1e-12

    def test_stride3_at_one(self):
        assert abs(fold(2, 3, 1.0).value - S23_AT_1) < 1e-12

    def test_real_folds_are_exactly_real(self):
        assert fold(2, 2, 1.0).value.imag == 0.0
        assert fold(1, 2, -1.0).value.imag == 0.0

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    @pytest.mark.parametrize("x", [-6.0, -1.0, 1.0, 6.0, 20.0, 100.0])
    def test_direct_sum_inner_matches_direct_stride_sum(self, n, m, x):
        if abs(x) >= (27 / 4) ** m:
            return
        ref = sum_direct(n, m, x).value
        got = fold(n, m, x, "direct-sum").value
        assert abs(got - ref) <= 1e-10, (n, m, x)

    @pytest.mark.parametrize("n,m", [(0, 2), (1, 2), (2, 2), (0, 3), (2, 3)])
    @pytest.mark.parametrize("x", [-1.0, 1.0, 6.0])
    def test_closed_form_inner(self, n, m, x):
        ref = sum_direct(n, m, x).value
        got = fold(n, m, x, "closed-form").value
        assert abs(got - ref) <= 1e-10, (n, m, x)

    def test_inner_route_validation(self):
        with pytest.raises(ArgumentError):
            fold(3, 2, 1.0, "closed-form")
        with pytest.raises(ArgumentError):
            fold(0, 2, 1.0, "quad-polylog")
        with pytest.raises(ArgumentError):
            fold(2, 7, 1.0)
        with pytest.raises(ArgumentError):
            fold(2, 2, 1.0, "bogus")

    def test_domain(self):
        with pytest.raises(DomainError):
            fold(2, 2, 46.0)
        with pytest.raises(DomainError):
            fold(1, 2, 45.5625)  # rim needs n >= 2

    def test_zero_short_circuits(self):
        ev = fold(2, 3, 0.0)
        assert ev.value == 0 and ev.work == 0

    def test_work_and_error_accumulate(self):
        ev = fold(2, 2, 1.0, "direct-sum")
        assert ev.work > 0
        assert ev.abs_error_est > 0.0


def _fold_by_public_routes(n: int, m: int, x: complex, inner: str) -> Evaluation:
    """fold written over whole Evaluations: each rotated root, pulled inside the
    stride-1 disk, goes to the public route ``evaluate(n, 1, w, inner)``, and the
    values, estimates and work are added in order. At real x only the roots with
    Im >= 0 are taken, the real m-th root of |x| turned by exp(i pi k / m); each one off
    the axis counts twice its real part and twice its estimate."""
    xc = complex(x)
    if xc == 0:
        return Evaluation(0j, 0.0, "folding", 0)
    paired = xc.imag == 0.0
    if paired:
        root, turn, ks = _real_root(abs(xc.real), m), 2 * m, range(xc.real < 0.0, m + 1, 2)
    else:
        root, turn, ks = _principal_root(xc, m), m, range(1, m + 1)
    total, err, work = 0j, 0.0, 0
    for k in ks:
        w = root_of_unity(k, turn) * root
        while abs(w) >= 27 / 4 and not _summable(n, 1, w):
            w *= 1.0 - 2.220446049250313e-16
        ev = evaluate(n, 1, w, inner)
        value, e = ev.value, ev.abs_error_est
        if paired:
            weight = 2.0 if k % m else 1.0
            value, e = weight * value.real, weight * e
        total += value
        err += e
        work += ev.work
    scale = float(m ** (n - 1))
    return Evaluation(total * scale, err * scale, "folding", work)


def _bits(call):
    """The outcome of call() down to the bit: the fields of its Evaluation, or its error."""
    try:
        ev = call()
    except SeriesError as exc:
        return type(exc).__name__, str(exc)
    value, err, method, work = ev
    return value.real.hex(), value.imag.hex(), float(err).hex(), method, work


class TestFoldSumsKernels:
    """fold adds the routes' kernel triples, with no Evaluation per root; its result
    must be that of adding the public stride-1 Evaluations."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 4),
        m=st.integers(1, 6),
        inner=st.sampled_from(METHODS),
        rho=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        theta=st.one_of(st.sampled_from([0.0, math.pi, math.pi / 2]), st.floats(-math.pi, math.pi)),
    )
    def test_fold_is_the_in_order_sum_of_public_evaluations(self, n, m, inner, rho, theta):
        radius = (27 / 4) ** m
        if theta == 0.0:
            x = complex(rho * radius)
        elif theta == math.pi:
            x = complex(-rho * radius)
        else:
            x = cmath.rect(rho * radius, theta)
        assume(_summable(n, m, x))  # the rim only for n >= 2
        assume(abs(x) >= _TINY_X)  # below it fold sums no kernels (TestFoldTinyArguments)
        # a low term cap keeps direct summation on the rim short: both sides raise alike
        with mock.patch.dict(os.environ, {"SERIES_MAX_TERMS": "20000"}):
            want = _bits(lambda: _fold_by_public_routes(n, m, x, inner))
            got = _bits(lambda: fold(n, m, x, inner))
        assert got == want

    @pytest.mark.parametrize("inner", METHODS)
    @pytest.mark.parametrize(
        "n,m,x",
        [(2, 3, 27**3 / 4**3), (3, 2, -(27**2) / 4**2), (1, 4, 0.9j * 27**4 / 4**4), (0, 6, 1e-3)],
    )
    def test_fold_matches_public_evaluations_at_fixed_points(self, inner, n, m, x):
        with mock.patch.dict(os.environ, {"SERIES_MAX_TERMS": "20000"}):
            want = _bits(lambda: _fold_by_public_routes(n, m, x, inner))
            assert _bits(lambda: fold(n, m, x, inner)) == want


class TestConjugateSymmetry:
    """At real x fold evaluates one root of each conjugate pair and doubles its real part.
    That rests on S(n, 1; conj y) == conj S(n, 1; y) in every bit, with the same estimate
    and work, on every stride-1 route fold runs."""

    @pytest.mark.parametrize("route", ["closed-form", "quad-cardano", "direct-sum", "quad-polylog"])
    def test_stride1_routes_are_conjugate_symmetric_bit_for_bit(self, route):
        rng = random.Random(f"conjugate symmetry {route}")
        values = 0
        for n in range(7):
            for rho in (rng.random(), 1e-9, 1 - 1e-9, 1.0):
                for _ in range(6):
                    y = cmath.rect(rho * 27 / 4, rng.uniform(0.0, math.pi))
                    if not _summable(n, 1, y) or ROUTES[route].refuses(n, 1, y):
                        continue
                    # a low term cap keeps direct summation near the rim short
                    with mock.patch.dict(os.environ, {"SERIES_MAX_TERMS": "20000"}):
                        upper = _bits(lambda: evaluate(n, 1, y, route))
                        lower = _bits(lambda: evaluate(n, 1, y.conjugate(), route))
                    if len(upper) == 2:  # an error: the same one on both sides
                        assert lower[0] == upper[0], (n, y)
                        continue
                    re, im, err, method, work = upper
                    mirrored = (re, (-float.fromhex(im)).hex(), err, method, work)
                    assert lower == mirrored, (n, y)
                    values += 1
        assert values >= 40


class TestFoldPairsConjugateRoots:
    """At real x fold evaluates the roots with Im >= 0 only: floor(m/2) + 1 of them, or m/2
    at even m and x < 0, where no root lies on the real axis."""

    @staticmethod
    def _spy(name, calls):
        kernel = getattr(routes, name)

        def spy(n, y, *rest):
            out = kernel(n, y, *rest)
            calls.append((y, out[2]))
            return out

        return mock.patch.object(routes, name, spy)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_evaluation_per_conjugate_pair(self, m, sign):
        calls = []
        with self._spy("_closed_kernel", calls):
            ev = fold(2, m, sign * 0.5 * (27 / 4) ** m)
        assert len(calls) == (m // 2 if sign < 0 and m % 2 == 0 else m // 2 + 1)
        assert all(y.imag >= 0.0 for y, _ in calls)
        assert ev.value.imag == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_odd_stride_negative_x_takes_the_exact_negative_root(self, n, m, rho):
        x = -rho * (27 / 4) ** m
        calls = []
        with self._spy("_closed_kernel" if n <= 2 else "_cardano_kernel", calls):
            ev = evaluate(n, m, x, "folding")
        assert len(calls) == m // 2 + 1
        assert ev.work == sum(work for _, work in calls)
        assert ev.value.imag == 0.0
        assert [y for y, _ in calls if y.imag == 0.0] == [complex(-_real_root(-x, m))]


def _leading_sum(n, m, x, terms=5):
    """The first ``terms`` terms of S(n, m; x), exactly, as a pair (re, im) of Fractions."""
    xr, xi = Fraction(x.real), Fraction(x.imag)
    pr, pi = Fraction(1), Fraction(0)
    sr = si = Fraction(0)
    for k in range(1, terms + 1):
        pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
        d = k**n * math.comb(3 * m * k, m * k)
        sr += pr / d
        si += pi / d
    return sr, si


def _dist2(value, ref):
    """|value - ref|**2, exactly, for a ref pair (re, im) of Fractions."""
    return (Fraction(value.real) - ref[0]) ** 2 + (Fraction(value.imag) - ref[1]) ** 2


class TestFoldTinyArguments:
    """Below |x| = 1e-8 the m rotated terms of a fold cancel to ~x / C(3m, m), so fold,
    like the stride-1 closed forms, answers from exact leading terms; their estimate
    must cover their own rounding. Five exact terms leave out less than |x|**6."""

    @pytest.mark.parametrize("unit", [1.0, -1.0, cmath.exp(0.7j)])
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(6))
    def test_estimates_bound_the_error(self, n, m, unit):
        for r in (1e-300, 1e-100, 1e-40, 1e-20, 1e-12, 3e-9):
            x = complex(r * unit)
            ref = _leading_sum(n, m, x)
            auto = evaluate(n, m, x)
            if n <= 2:
                assert _dist2(auto.value, ref) <= Fraction(1e-15) ** 2 * _dist2(0j, ref), x
            evs = [auto]
            for inner in METHODS:
                try:
                    evs.append(fold(n, m, x, inner))
                except ArgumentError:  # the inner route refuses the rotated roots
                    pass
            for ev in evs:
                assert _dist2(ev.value, ref) <= Fraction(ev.abs_error_est) ** 2, (x, ev)

    @pytest.mark.parametrize(
        "inner,n,m",
        [("closed-form", 3, 2), ("quad-polylog", 0, 3), ("quad-cardano", 2, 2),
         ("quad-two-term", 2, 1), ("quad-two-term", 3, 4)],
    )
    def test_inner_refusals_come_first(self, inner, n, m):
        with pytest.raises(ArgumentError) as tiny:
            fold(n, m, 1e-10, inner)
        with pytest.raises(ArgumentError) as small:
            fold(n, m, 1e-6, inner)
        assert str(tiny.value) == str(small.value)


class TestLowWeightAutoAboveTheTinyBranch:
    """Just above |x| = 1e-8 a fold still sums m kernels that cancel to ~x / C(3m, m);
    ``auto`` at n <= 2 sums directly there, where a few terms suffice."""

    @pytest.mark.parametrize("unit", [1.0, -1.0, cmath.exp(0.7j)])
    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("n", range(3))
    def test_auto_meets_1e13_relative(self, n, m, unit):
        for r in (1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            x = complex(r * unit)
            ref = _leading_sum(n, m, x)
            ev = evaluate(n, m, x)
            assert _dist2(ev.value, ref) <= Fraction(1e-13) ** 2 * _dist2(0j, ref), (x, ev)
            assert _dist2(ev.value, ref) <= Fraction(ev.abs_error_est) ** 2, (x, ev)


class TestStrideTwoClosedForm:
    def test_matches_single_stride_at_m1(self):
        assert abs(fold(2, 1, 0.5).value - s21(0.5).value) < 1e-15

    def test_stride2_at_one(self):
        assert abs(fold(2, 2, 1.0).value - S22_AT_1) < 1e-12

    def test_stride3_at_one(self):
        assert abs(fold(2, 3, 1.0).value - S23_AT_1) < 1e-12

    def test_zero(self):
        assert fold(2, 2, 0.0).value == 0

    def test_against_direct_sums(self):
        for m, x in ((2, -1.0), (2, 6.0), (2, 20.0), (3, 6.0), (3, 100.0)):
            ref = sum_direct(2, m, x).value
            assert abs(fold(2, m, x).value - ref) <= 1e-10, (m, x)


class TestBranchGuards:
    def test_cancelling_fold_at_weight_11_returns_a_bounding_estimate(self):
        # the six inner values sum to about 1.6e8 times the total; the reference is an
        # mpmath fold at 24 and 32 digits
        ref = 5.098367553058584
        ev = evaluate(11, 6, 94580.34940237338, "folding")
        assert ev.value.imag == 0.0
        assert abs(ev.value - ref) <= ev.abs_error_est

    def test_fold_at_the_stride2_rim_sums_the_stride1_closed_forms(self):
        rim2 = 45.5625
        a = fold(2, 2, rim2, "closed-form").value
        # the rotated arguments are exactly +-27/4; check against the
        # stride-1 closed forms directly
        direct = 2 * (s21(27 / 4).value + s21(-27 / 4).value)
        assert abs(a - direct) < 1e-12


# S(n, m; sign (27/4)**m), n 2..4, m 1..6, from mpmath at 24 and 32 digits (fold to stride
# 1 over the exact m-th roots; mpmath.hyper on the real axis, quadrature of the polylog
# kernel off it), where the two precisions agree to 1e-22 relative.
RIM_REFERENCES = [
    (2, 1, +1, 5.618830239556503),
    (2, 1, -1, -1.7424348436574661),
    (2, 2, +1, 7.752790791798073),
    (2, 2, -1, -2.3388479078978235),
    (2, 3, +1, 9.416439730761951),
    (2, 3, -1, -2.8133637386210104),
    (2, 4, +1, 10.8278857678005),
    (2, 4, -1, -3.219202972205861),
    (2, 5, +1, 12.075658729825472),
    (2, 5, -1, -3.579531577854192),
    (2, 6, +1, 13.206151984281883),
    (2, 6, -1, -3.906869709568371),
    (3, 1, +1, 2.974506287708767),
    (3, 1, -1, -1.9635326305975798),
    (3, 2, +1, 4.0438946284447495),
    (3, 2, -1, -2.6428187798302454),
    (3, 3, +1, 4.886464736835129),
    (3, 3, -1, -3.1821213924478973),
    (3, 4, +1, 5.604303394458015),
    (3, 4, -1, -3.642978870164514),
    (3, 5, +1, 6.240325711600225),
    (3, 5, -1, -4.05197011636127),
    (3, 6, +1, 6.817373377548927),
    (3, 6, -1, -4.423410727446932),
    (4, 1, +1, 2.5204400945844294),
    (4, 1, -1, -2.093928828088923),
    (4, 2, +1, 3.4120901319640526),
    (4, 2, -1, -2.822333539877477),
    (4, 3, +1, 4.116859407384773),
    (4, 3, -1, -3.3999981491549742),
    (4, 4, +1, 4.718052736692606),
    (4, 4, -1, -3.893421202483227),
    (4, 5, +1, 5.251082724005279),
    (4, 5, -1, -4.33121034964469),
    (4, 6, +1, 5.734890065838392),
    (4, 6, -1, -4.728746970860619),
]


class TestRealRoot:
    """The real m-th root under fold: x ** (1/m) is not correctly rounded (1/m is not
    exact), and one ulp of the root moves S(2, 1) near 27/4 by about sqrt(eps)."""

    def test_positive_real_roots_are_correctly_rounded(self):
        rng = random.Random("real m-th root")
        for _ in range(2000):
            m = rng.randint(2, 12)
            x = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1070, 1020))
            r = _real_root(x, m)
            below = (Fraction(math.nextafter(r, 0.0)) + Fraction(r)) / 2
            above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
            assert below**m < Fraction(x) < above**m, (x, m)

    @pytest.mark.parametrize("m", range(2, 12))
    def test_exact_powers_give_exact_roots(self, m):
        # (27/4)**m is exact in binary64 up to m = 11; the rim roots are 27/4 itself
        assert _real_root((27 / 4) ** m, m) == 6.75
        assert _real_root(3.0**m, m) == 3.0

    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    @pytest.mark.parametrize("x", [-100.0, -(27 / 4) ** 3, 1 + 1j, -2.5 - 7j])
    def test_negative_and_complex_arguments_keep_the_principal_power(self, m, x):
        want = cmath.sqrt(x) if m == 2 else complex(x) ** (1.0 / m)
        assert _principal_root(complex(x), m) == want

    @pytest.mark.parametrize("n,m,sign,ref", RIM_REFERENCES)
    def test_rim_values_against_mpmath(self, n, m, sign, ref):
        # auto folds over the closed forms (n = 2) or quad-cardano (n >= 3) for m >= 2.
        # Before the correctly rounded root, S(2, m; R**m) was 2.7e-8 (m = 3), 3.4e-8
        # (m = 5) and 3.8e-8 (m = 6) off, with estimates near 1e-13.
        ev = evaluate(n, m, sign * (27 / 4) ** m)
        err = abs(ev.value - ref)
        assert ev.value.imag == 0.0
        assert err <= ev.abs_error_est, (n, m, sign, err, ev.abs_error_est)
        assert err <= 1e-13 * abs(ref)
        if n == 2 and sign > 0:
            assert err <= 2e-15 * abs(ref)


def _two_sided_root(x, m):
    """The reference for ``_real_root``: from x ** (1/m), step down while the root does not
    exceed the midpoint below, then up while it exceeds the midpoint above, each test in
    exact integer arithmetic (``fold``'s root before it learned the direction first)."""
    xn, xd = x.as_integer_ratio()

    def beyond(a, b):
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        return xn * (2 * ad * bd) ** m > (an * bd + bn * ad) ** m * xd

    r = x ** (1.0 / m)
    while not beyond(below := math.nextafter(r, 0.0), r):
        r = below
    while beyond(r, above := math.nextafter(r, math.inf)):
        r = above
    return r


class TestRealRootAgainstTwoSidedSearch:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_bit_for_bit(self, m):
        rng = random.Random(f"real root, m = {m}")
        xs = [(27 / 4) ** m, 5e-324, sys.float_info.max, math.nextafter(0.0, 1.0) * 3]
        # x = y**m exact in binary64 (y with at most 53 // m significant bits), and one ulp
        # either side of it, where x ** (1/m) is most likely to round the wrong way
        for _ in range(300):
            y = math.ldexp(rng.getrandbits(53 // m) | 1, rng.randint(-(1074 // m), 970 // m))
            power = y**m
            assert power == Fraction(y) ** m
            xs += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
        xs += [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 1023)) for _ in range(2000)]
        for x in xs:
            assert _real_root(x, m) == _two_sided_root(x, m), (x, m)


class TestRimFolding:
    def test_root_rounding_past_the_rim_is_pulled_back(self):
        # |x| is exactly (27/4)**4, but x**(1/4) rounds to modulus 6.750000000000001
        x = 2075.8492076904977 - 19.56499716229806j
        assert abs(x) == (27 / 4) ** 4
        ev = evaluate(2, 4, x)
        assert ev.method == "folding"
        assert abs(ev.value - fold(2, 4, x, "quad-polylog").value) < 1e-12

    def test_stride5_real_rim_roots_stay_on_the_rim(self):
        # the real fifth root of (27/4)**5 rounds past 27/4 and left the real branch
        rim5 = (27 / 4) ** 5
        a = fold(2, 5, rim5)
        b = fold(2, 5, rim5, "quad-polylog")
        assert a.value.imag == 0.0 and abs(a.value - b.value) < 1e-11

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_exact_rim_point_folds(self, m):
        rim = (27 / 4) ** m
        for k in range(120):
            x = rim * cmath.exp(2j * math.pi * (k + 0.37) / 120)
            if abs(x) == rim:
                a = fold(2, m, x).value
                assert abs(a - fold(2, m, x, "quad-polylog").value) < 1e-11, x

    def test_stride2_rim_quad_inner_agrees_with_the_closed_form(self):
        rim2 = 45.5625
        a = fold(2, 2, rim2, "quad-polylog").value
        b = fold(2, 2, rim2).value
        assert abs(a - b) < 1e-9
