"""Polylogarithm on the closed unit disk and the roots of unity."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invbinom import ArgumentError, DomainError, PoleError, li
from invbinom.polylog import (
    RIM_TOL,
    SERIES_RADIUS,
    _TOL,
    _ZETA,
    _li_log,
    _li_series,
    _series_terms,
    _li,
    _zeta,
    root_of_unity,
)

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595943
ZETA4 = 1.0823232337111382


def test_weight0_closed_form():
    assert li(0, 0.5) == pytest.approx(1.0, abs=0)
    assert li(0, -0.25 + 0.1j) == (-0.25 + 0.1j) / (1.25 - 0.1j)


def test_weight1_is_log():
    assert li(1, 0.5) == pytest.approx(math.log(2), abs=1e-15)
    z = 0.3 - 0.8j
    assert li(1, z) == -cmath.log(1 - z)


# -log(1 - z) at z = r * (c + is) for the directions below, from a 700-digit evaluation of
# the float z, correctly rounded part by part.
LI1_DIRECTIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.28, -0.96))
LI1_REFERENCES = {
    1e-300: (
        complex(1e-300, 0.0),
        complex(-1e-300, 0.0),
        complex(-0.0, 1e-300),
        complex(6e-301, 8e-301),
        complex(-2.8000000000000005e-301, -9.6e-301),
    ),
    1e-100: (
        complex(1e-100, 0.0),
        complex(-1e-100, 0.0),
        complex(-5e-201, 1e-100),
        complex(5.999999999999999e-101, 8e-101),
        complex(-2.8000000000000002e-101, -9.6e-101),
    ),
    1e-40: (
        complex(1e-40, 0.0),
        complex(-1e-40, 0.0),
        complex(-4.999999999999999e-81, 1e-40),
        complex(6e-41, 8e-41),
        complex(-2.8e-41, -9.599999999999999e-41),
    ),
    1e-20: (
        complex(1e-20, 0.0),
        complex(-1e-20, 0.0),
        complex(-5e-41, 1e-20),
        complex(6e-21, 8e-21),
        complex(-2.8e-21, -9.6e-21),
    ),
    1e-17: (
        complex(1e-17, 0.0),
        complex(-1e-17, 0.0),
        complex(-5.000000000000001e-35, 1e-17),
        complex(6.0000000000000004e-18, 8e-18),
        complex(-2.8000000000000005e-18, -9.6e-18),
    ),
    1e-16: (
        complex(1e-16, 0.0),
        complex(-1e-16, 0.0),
        complex(-4.9999999999999996e-33, 1e-16),
        complex(6e-17, 8e-17),
        complex(-2.800000000000001e-17, -9.6e-17),
    ),
    1e-12: (
        complex(1.0000000000005e-12, 0.0),
        complex(-9.999999999995e-13, 0.0),
        complex(-5e-25, 1e-12),
        complex(5.9999999999986e-13, 8.000000000004801e-13),
        complex(-2.8000000000042164e-13, -9.599999999997312e-13),
    ),
    1e-08: (
        complex(1.0000000050000001e-08, 0.0),
        complex(-9.999999950000001e-09, 0.0),
        complex(-5e-17, 1e-08),
        complex(5.9999999859999995e-09, 8.000000048000001e-09),
        complex(-2.8000000421600002e-09, -9.59999997312e-09),
    ),
    0.0001: (
        complex(0.00010000500033335834, 0.0),
        complex(-9.999500033330834e-05, 0.0),
        complex(-4.9999999750000005e-09, 9.999999966666667e-05),
        complex(5.999859968797892e-05, 8.00048001173199e-05),
        complex(-2.800421574925879e-05, -9.599731178037467e-05),
    ),
    0.01: (
        complex(0.010050335853501442, 0.0),
        complex(-0.009950330853168083, 0.0),
        complex(-4.999750016665417e-05, 0.009999666686665238),
        complex(0.005985685890609969, 0.008048115969281415),
        complex(-0.002841908234148836, -0.00957290262138183),
    ),
    0.1: (
        complex(0.10536051565782631, 0.0),
        complex(-0.09531017980432487, 0.0),
        complex(-0.004975165426584042, 0.09966865249116204),
        complex(0.05826690812797576, 0.08490179344972197),
        complex(-0.0319566628718264, -0.09311516111649316),
    ),
    0.3: (
        complex(0.35667494393873234, 0.0),
        complex(-0.26236426446749106, 0.0),
        complex(-0.043088848120526164, 0.2914567944778671),
        complex(0.15735537241985012, 0.2847304385227122),
        complex(-0.1147615791391244, -0.25968348550471554),
    ),
    0.5: (
        complex(0.6931471805599453, 0.0),
        complex(-0.4054651081081644, 0.0),
        complex(-0.11157177565710488, 0.4636476090008061),
        complex(0.2153914580462271, 0.519146114246523),
        complex(-0.21263386770217205, -0.3985224456664202),
    ),
}


@pytest.mark.parametrize("r", list(LI1_REFERENCES))
def test_weight1_keeps_its_relative_accuracy_near_zero(r):
    for (c, s), ref in zip(LI1_DIRECTIONS, LI1_REFERENCES[r]):
        z = complex(r * c, r * s)
        got = li(1, z)
        assert abs(got - ref) <= 4 * 2.220446049250313e-16 * abs(ref), (z, got, ref)


def test_zero_argument():
    assert li(3, 0.0) == 0


def test_zeta_values_on_the_rim():
    assert abs(li(2, 1.0) - ZETA2) < 1e-10
    assert abs(li(3, 1.0) - ZETA3) < 1e-10
    assert abs(li(4, 1.0) - ZETA4) < 1e-10


def test_rim_minus_one():
    # alternating zeta: Li_2(-1) = -pi^2/12
    assert abs(li(2, -1.0) + math.pi**2 / 12) < 1e-10


def test_poles_and_domain():
    with pytest.raises(PoleError):
        li(1, 1.0)
    with pytest.raises(PoleError):
        li(0, 1.0)
    with pytest.raises(DomainError):
        li(0, 1j)  # weight 0 needs |z| < 1
    with pytest.raises(DomainError):
        li(2, 1.5)
    with pytest.raises(ArgumentError):
        li(-1, 0.5)
    with pytest.raises(ArgumentError):
        li(-2, 0.1)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "z", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan), complex(1.0, -math.inf)]
)
def test_non_finite_argument_raises(n, z):
    # abs of a NaN is NaN, which passed every disk test and returned nan+nanj
    with pytest.raises(DomainError, match="Li_n needs a finite z"):
        li(n, z)


def test_rim_rounding_tolerated():
    assert abs(li(2, 1.0 + 1e-13) - ZETA2) < 1e-9


@pytest.mark.parametrize(
    "n,z,error,message",
    [
        (-1, 0.5, ArgumentError, "polylog weight must be >= 0, got -1"),
        (-2, 0.1, ArgumentError, "polylog weight must be >= 0, got -2"),
        (2, 1.5, DomainError, "|z| = 1.5 lies outside the closed unit disk"),
        (3, 0.9 + 0.9j, DomainError, f"|z| = {abs(0.9 + 0.9j)!r} lies outside the closed unit disk"),
        (1, 1.0, PoleError, "Li_1 has a logarithmic singularity at z = 1"),
        (0, 1.0, PoleError, "Li_0 has a pole at z = 1"),
        (0, 1j, DomainError, "Li_0 requires |z| < 1"),
    ],
)
def test_li_domain_rule_messages(n, z, error, message):
    with pytest.raises(error) as exc:
        li(n, z)
    assert type(exc.value) is error
    assert str(exc.value) == message


def _exact_series(n, z):
    """sum z**k / k**n as a pair of Fractions, summed until the geometric tail
    r**(k+1) / (1 - r) is below 1e-25 of |z|, far past binary64 resolution."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    r = abs(z)
    pr, pi, sr, si, k = Fraction(1), Fraction(0), Fraction(0), Fraction(0), 0
    while True:
        k += 1
        pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
        sr += pr / k**n
        si += pi / k**n
        if r**k / (1.0 - r) < 1e-25:
            return sr, si


def _rel_error(value, exact):
    re, im = exact
    ref = math.hypot(float(re), float(im))
    return math.hypot(float(Fraction(value.real) - re), float(Fraction(value.imag) - im)) / ref


def test_series_against_exact_partial_sums():
    # seeded grid: |z| <= 0.5 on both real half-axes, both imaginary ones, and random angles
    rng = random.Random("li series")
    for n in range(2, 9):
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(3)]
        for unit in (1.0, -1.0, 1j, -1j, *(cmath.exp(1j * t) for t in angles)):
            z = complex(unit * rng.uniform(1e-3, SERIES_RADIUS))
            err = _rel_error(_li_series(n, z), _exact_series(n, z))
            assert err <= 5e-16, (n, z, err)


@pytest.mark.parametrize("r,terms", [(0.5, 57), (0.6, 78), (1e-300, 1), (5e-324, 1)])
def test_series_term_count(r, terms):
    # the least K with r**K / (1 - r) <= tol / 2, which bounds the tail relative to |Li_n| >= r/2
    assert _series_terms(r) == terms
    assert r**terms / (1.0 - r) <= _TOL / 2
    assert terms == 1 or r ** (terms - 1) / (1.0 - r) > _TOL / 2


@pytest.mark.parametrize("n", [2, 5, 8, 9])
def test_series_past_the_table_radius(n):
    # |z| = 0.6 (the switch test's widest circle) and weight 9 take the inline coefficients
    z = 0.6 * cmath.exp(0.9j)
    assert _rel_error(_li_series(n, z), _exact_series(n, z)) <= 5e-16
    z = complex(-0.45)
    assert _rel_error(_li_series(n, z), _exact_series(n, z)) <= 5e-16


def test_series_and_log_branch_agree_across_the_switch():
    # both internal routes explicitly, on circles either side of SERIES_RADIUS
    for r in (0.45, 0.5, 0.55, 0.6):
        for k in range(20):
            z = r * cmath.exp(2j * math.pi * (k + 0.5) / 20)
            for n in (2, 3, 4, 5):
                a = _li_series(n, z)
                b = _li_log(n, z)
                assert abs(a - b) <= 1e-14 * (1.0 + abs(a)), (n, z)


def _borwein_zeta(s, d):
    """P. Borwein's alternating sum for zeta(s), exact rationals; d from _borwein_d."""
    n = len(d) - 1
    total = sum(Fraction((-1) ** k * (d[k] - d[n]), (k + 1) ** s) for k in range(n))
    return -total / (d[n] * (1 - Fraction(1, 2 ** (s - 1))))


def _borwein_d(n):
    """d_k = n * sum_{i <= k} (n+i-1)! 4**i / ((n-i)! (2i)!), k = 0..n."""
    d, acc = [], Fraction(0)
    for i in range(n + 1):
        acc += Fraction(
            math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i)
        )
        d.append(n * acc)
    return d


def test_zeta_table_is_correctly_rounded():
    # Borwein's truncation error is below 3 / (3 + sqrt(8))**n / (1 - 2**(1-s))
    # <= 6 / 5**n; both ends of that interval must round to the table entry.
    n = 40
    d = _borwein_d(n)
    bound = Fraction(6, 5**n)
    for s in range(2, 61):
        approx = _borwein_zeta(s, d)
        expected = float(approx - bound)
        assert expected == float(approx + bound), s
        assert _zeta(s) == expected, s
        if s - 2 < len(_ZETA):
            assert _ZETA[s - 2] == expected, s
    assert _zeta(54) == 1.0 and len(_ZETA) == 52


def _ulps(value, exact):
    return abs(value - exact) / math.ulp(abs(exact))


def test_special_values_within_four_ulp():
    # correctly rounded references (mpmath at 200 bits)
    assert _ulps(li(2, 0.5).real, 0.5822405264650125) <= 4  # pi^2/12 - log(2)^2/2
    assert _ulps(li(3, 0.5).real, 0.5372131936080402) <= 4
    assert _ulps(li(2, -1.0).real, -0.8224670334241132) <= 4  # -pi^2/12
    value = li(2, 1j)
    assert _ulps(value.real, -0.2056167583560283) <= 4  # -pi^2/48
    assert _ulps(value.imag, 0.915965594177219) <= 4  # Catalan's constant
    for n in range(2, 60):
        assert li(n, 1.0) == _zeta(n)


# li(n, z) recorded before the expansions became generic over float and complex input, as
# (n, z, Re, Im): the series, Crandall's expansion and the duplication formula, on and off
# the real axis (zero imaginary parts of either sign) and on the rim.
LI_BITS = [
    (2, 0.3 + 0.1j, 0.3221545307119092, 0.11864721156660096),
    (2, -0.45 + 0.2j, -0.4135177340459807, 0.16475979694069823),
    (2, 0.7 + 0.4j, 0.7476375090591284, 0.6214760881630763),
    (2, complex(-0.7, -0.0), -0.605158402337705, 0.0),
    (3, -0.8 + 0.3j, -0.7408129214553635, 0.25456324235266603),
    (3, 0.2 - 0.9j, 0.09604933674783525, -0.9176150789081127),
    (3, -0.6 - 0.6j, -0.5899234826330586, -0.5246858726162982),
    (3, complex(0.9, -0.0), 1.04965895018644, 0.0),
    (4, complex(0.9), 0.964005371204078, 0.0),
    (4, complex(-0.9), -0.8564782887553385, 0.0),
    (4, complex(1.0), 1.0823232337111381, 0.0),
    (4, complex(-0.2, -0.0), -0.1975929828245179, 0.0),
    (5, complex(-1.0), -0.9721197704469093, 0.0),
    (5, complex(-0.3), -0.2972913960985421, 0.0),
    (5, 0.6j, -0.011128977872464679, 0.599134479856651),
    (6, -0.9999 - 0.01j, -0.9854551335645275, -0.00972122201098825),
    (6, 0.3 + 0.1j, 0.30127535764274693, 0.1009757336520347),
    (6, -0.45 + 0.2j, -0.447512604267009, 0.1973303519837497),
    (7, 0.7 + 0.4j, 0.7025638538908582, 0.40463920481495225),
    (7, -0.8 + 0.3j, -0.7958333117592042, 0.2964735268285988),
    (7, 0.2 - 0.9j, 0.19380046765219874, -0.9025004817529549),
    (8, -0.6 - 0.6j, -0.5999412965397167, -0.5972527330311155),
    (8, complex(0.9), 0.9032871368454979, 0.0),
    (8, complex(-0.9), -0.896938296407803, 0.0),
    (9, complex(1.0), 1.0020083928260821, 0.0),
    (9, complex(-1.0), -0.9980942975416053, 0.0),
    (9, complex(-0.3), -0.299825560769863, 0.0),
]


@pytest.mark.parametrize("n,z,re,im", LI_BITS)
def test_li_keeps_its_bits(n, z, re, im):
    value = li(n, z)
    assert (value.real.hex(), value.imag.hex()) == (re.hex(), im.hex())


def test_float_kernel_against_li():
    # the kernel quad-polylog's real integrand calls, in float arithmetic: bit-equal to li on
    # the series disk; beyond it math.log and cmath.log differ in the last bit, which the
    # duplication formula's cancellation near -0.8 carries to at most 4 ulp (seen on 160,000
    # seeded points; both kernels are within 4.4 ulp of 40-digit values there)
    rng = random.Random("float li")
    ws = [rng.uniform(-1.0, 1.0) for _ in range(300)] + [1.0, -1.0, 0.5, -0.5]
    for n in range(2, 10):
        for w in ws:
            got, want = _li(n, w), li(n, complex(w)).real
            assert type(got) is float, (n, w)
            if abs(w) <= SERIES_RADIUS:
                assert got == want, (n, w)
            else:
                assert abs(got - want) <= 4 * math.ulp(want), (n, w)
        for edge in (1.0, -1.0):
            # a w rounded past the rim, which the integrand clamps as li does
            assert _li(n, edge) == li(n, math.nextafter(edge, 2 * edge)).real, (n, edge)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_real_arguments_give_real_values(n):
    for i in range(-50, 51):
        assert li(n, i / 50).imag == 0.0, i / 50
    for x in (1.0 + RIM_TOL, 1.0 + RIM_TOL / 2, -1.0 - RIM_TOL, 0.5000001, -0.7071):
        assert li(n, x).imag == 0.0, x


@given(
    n=st.integers(2, 4),
    r=st.floats(0.0, 0.95),
    angle=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetry(n, r, angle):
    z = r * cmath.exp(1j * angle)
    left = li(n, z.conjugate())
    right = li(n, z).conjugate()
    assert abs(left - right) <= 1e-14 * (1.0 + abs(right))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("z", [0.4, -0.3, 0.2 + 0.3j, -0.25 - 0.35j, 0.5j])
def test_derivative_ladder(n, z):
    h = 1e-5
    derivative = (li(n, z + h) - li(n, z - h)) / (2 * h)
    assert abs(z * derivative - li(n - 1, z)) < 1e-7


def test_roots_of_unity_exact_on_axes():
    assert root_of_unity(4, 4) == 1.0
    assert root_of_unity(2, 4) == -1.0
    assert root_of_unity(1, 4) == 1j
    assert root_of_unity(3, 4) == -1j
    assert abs(root_of_unity(1, 6) - cmath.exp(1j * math.pi / 3)) < 1e-16
