"""Evaluation through the integral representations of the series.

Three independent routes, at stride 1 but the first:

* ``quad_polylog`` integrates Li_{n-1}(x*t*(1-t)**2) / t over the unit
  interval. It works for every n >= 1 (n >= 2 on the rim); it is the
  independent cross-check of the Cardano-root route. Its kernel,
  ``_polylog_kernel``, takes the stride: m * Li_{n-1}(x*(t*(1-t)**2)**m) / t, from the
  Beta integral 1/C(3mk, mk) = mk B(mk, 2mk + 1), serves 1 <= m <= POLYLOG_MAX_STRIDE
  in one quadrature, with no fold.
* ``quad_cardano`` (n >= 3) runs no quadrature: it sums S(n, 1; x) as a power series in
  s = phi(x)**-3, in v = sqrt(1 - 4x/27) near the branch point x = 27/4, or in x (see its
  docstring), up to weight 8 in 2-9 us, where ``quad_polylog`` takes 0.05 ms at
  S(3, 1; 0.5) to 0.5 ms at S(3, 1; 27/4) (one Intel Xeon core). It is the route ``auto``
  takes where direct summation, which decays like k**(1/2 - n) on the rim, costs more;
  the route table and ``fold`` call its bare kernel, ``_cardano_kernel``.
* ``quad_two_term`` evaluates the two-term log/trig form whose limits come
  from the Cardano root, each integral in s with u = limit * s**3. Restricted
  to real x, where its trigonometric integrand is derived; complex arguments
  are served by ``quad_polylog`` and by folding. Its two integrals cancel to
  S ~ x/3, so it refuses 0 < |x| < TWO_TERM_MIN_X = 0.002 (``two_term_limits``
  still serves down to 1e-306).

Sign convention of the angular limit: ``two_term_limits`` returns
beta = 3*arctan(sqrt(3)/(1 - 2*phi)), which is negative on (0, 27/4] with
beta(27/4) = -pi. The opposite orientation reproduces the weight-2 values
(only beta**2 enters there) but fails every odd log power; the
route-equivalence tests at n = 3 pin this down numerically.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import accumulate, count, repeat
from operator import add, floordiv, mul

from .closed_forms import _TINY_X, _leading_terms, _radical, phi
from .errors import ArgumentError, DomainError, checked_number
from .polylog import _li, li
from .quadrature import adaptive_quad, quad_tol
from .series import _EPS, RADIUS_BASE, Evaluation, SeriesParams, _inside, _sum_kernel

_TWO_PI = 2.0 * math.pi
_TINY = 1e-300

# quad-two-term's relative error against direct-sum (n 2..6, 400 points per decade) is at
# most 2e-11 above |x| = 1.75e-3, up to 2.8e-8 just below it and 1e-6 below 4e-7: its two
# integrals cancel to S ~ x/3. ``quad_two_term`` and the route refuse 0 < |x| below this.
TWO_TERM_MIN_X = 2e-3
TWO_TERM_FLOOR = f"quad-two-term needs |x| >= {TWO_TERM_MIN_X:g}, where it holds 1e-9 relative"
TWO_TERM_REAL = "quad-two-term is a real-argument route"


class TwoTermLimits(namedtuple("TwoTermLimits", "alpha beta phi")):
    """Integration limits of the two-term route, plus the root behind them: (alpha, beta, phi).

    alpha = log((phi**3 + 1) / (phi + 1)**3); negative on (0, 27/4), with
    alpha(27/4) = -log(4). beta as documented in the module docstring.
    """

    __slots__ = ()


def two_term_limits(x: float) -> TwoTermLimits:
    """Limits (alpha, beta) for real x with 0 < |x| <= 27/4, the closed disk of
    the n >= 2 series they serve; DomainError elsewhere (phi diverges at x = 0),
    ArgumentError for complex x or a non-number.
    """
    xc = checked_number(x)
    if xc.imag != 0.0:
        raise ArgumentError(TWO_TERM_REAL)
    xr = xc.real
    if xr == 0.0:
        raise DomainError("limits are unbounded as x -> 0 (phi diverges)")
    if not _inside(2, abs(xr), RADIUS_BASE):
        SeriesParams.require_summable(2, 1, xr)  # raises
    p = phi(xr).phi.real
    # (p**3 + 1) / (p + 1)**3 = (1 + p**-3) / (1 + 1/p)**3; the log1p form
    # stays finite for the enormous roots produced by tiny x (p**3 would
    # overflow long before x leaves the domain) and is exact at p = 1.
    alpha = math.log1p(p**-3) - 3.0 * math.log1p(1.0 / p)
    beta = 3.0 * math.atan(math.sqrt(3.0) / (1.0 - 2.0 * p))
    return TwoTermLimits(alpha, beta, p)


def quad_polylog(n: int, x: complex, tol: float | None = None) -> Evaluation:
    """S(n, 1; x) as the single integral of Li_{n-1}(x*t*(1-t)**2) / t.

    The integrand tends to x at t = 0 (supplied explicitly). On the rim
    |x| = 27/4 the polylog argument touches 1 at t = 1/3, an integrable
    logarithmic singularity: at x = 27/4 and n <= 3 it is moved to an endpoint (see
    ``_polylog_kernel``), elsewhere the adaptive rule subdivides through it. The
    argument is clamped a hair below 1 there so the weight-1 kernel stays
    finite under rounding. ``tol`` is checked as ``quad_cardano``'s. Strides
    1 <= m <= POLYLOG_MAX_STRIDE go through ``evaluate(n, m, x, "quad-polylog")``.
    """
    return routes.evaluate(n, 1, x, "quad-polylog", tol=tol)


# The largest stride quad-polylog serves: R**m = 27**m / 4**m is exact in binary64 while
# 27**m < 2**53, that is up to m = 11, so that the rim test and the distance R**m - x
# that ``_stable_complement`` takes are exact there.
POLYLOG_MAX_STRIDE = 11


def _polylog_kernel(n: int, m: int, xc: complex, tol) -> tuple[complex, float, int]:
    """``evaluate``'s quad-polylog (value, abs_error_est, work) at summable x != 0 and
    1 <= m <= POLYLOG_MAX_STRIDE; checks tol alone. It integrates the Beta integral
    1/C(3mk, mk) = mk B(mk, 2mk + 1) summed against x**k / k**n:

        S(n, m; x) = m * integral_0^1 Li_{n-1}(x * (t*(1-t)**2)**m) / t dt,  n >= 1,

    whose integrand tends to x at t = 0 for m = 1 and to 0 above. The factor m enters as
    the divisor t / m, exact at m = 1.

    At real x the integrand is a float: weights 0 and 1 through ``_stable_complement``,
    weight 2 and above through ``li``'s unchecked kernel at w clamped into [-1, 1], as
    ``li`` clamps it. At x = R**m exactly, u = 1 - x*(t*(1-t)**2)**m has a double zero at
    t = 1/3, a log singularity that bisection never lands on: at weights 1 and 2 the kernel
    integrates in s on either side, t = (1 - s**6)/3 and t = (1 + 2 s**6)/3, which moves it
    to s = 0 as s**5 log(s) (S(2, 1; 27/4): 210 integrand calls, 1,785 by bisection). At
    weight 3 and above the map costs calls; away from the rim a split doubles every
    one-panel integral.
    """
    tol = quad_tol(tol)
    weight = n - 1
    if xc.imag != 0.0:
        edge = xc if m == 1 else 0j

        def integrand(t: float) -> complex:
            if t == 0.0:
                return edge  # limit of m Li_{n-1}(x*(t*(1-t)**2)**m) / t
            return li(weight, xc * (t * (1.0 - t) ** 2) ** m) / (t / m)

        return adaptive_quad(integrand, 0.0, 1.0, tol)

    xr = xc.real
    edge = xr if m == 1 else 0.0
    d = RADIUS_BASE**m - xr  # exact near the rim (Sterbenz)
    two_m = 2 * m

    def integrand(t: float) -> float:
        if t == 0.0:
            return edge
        if weight >= 2:
            w = xr * (t * (1.0 - t) ** 2) ** m
            if abs(w) > 1.0:  # rounded past the rim, where Crandall's log(-L) would get L > 0
                w = math.copysign(1.0, w)
            return _li(weight, w) / (t / m)
        # Weight 0 and 1 in terms of the cancellation-free complement u = 1 - w; the direct
        # difference loses every digit near t = 1/3 as x approaches R**m, where u has a
        # double zero. Where w is small, log(u) = log1p(-w) keeps the digits that u,
        # rounded near 1, drops.
        tm = t**m
        sm = (1.0 - t) ** two_m
        if weight == 1:
            w = xr * tm * sm
            if abs(w) <= 0.5:
                return -math.log1p(-w) / (t / m)
        u = max(_stable_complement(t, m) + d * tm * sm, _TINY)
        if weight == 0:
            return m * xr * t ** (m - 1) * sm / u
        return -math.log(u) / (t / m)

    if d != 0.0 or weight > 2:
        return adaptive_quad(integrand, 0.0, 1.0, tol)
    left = adaptive_quad(lambda s: 2.0 * s**5 * integrand((1.0 - s**6) / 3.0), 0.0, 1.0, tol)
    right = adaptive_quad(lambda s: 4.0 * s**5 * integrand((1.0 + 2.0 * s**6) / 3.0), 0.0, 1.0, tol)
    return left[0] + right[0], left[1] + right[1], left[2] + right[2]


def quad_cardano(n: int, x: complex, tol: float | None = None) -> Evaluation:
    """S(n, 1; x), n >= 3, through the Cardano root q = phi(x), by a power series: for
    n <= 8 in s = 1/q**3 (x = 27 s / (1 + s)**2) where |s| <= S_MAX = 0.6, and in
    v = sqrt(1 - 4x/27) (s = (1 - v)/(1 + v)) past it, within 0.9 of x = 27/4 (|v| <= 0.3652,
    at most _V_TERMS = 40 terms); in x above weight 8, and its three leading terms below
    |x| = 1e-8. ``work`` counts the terms. ``tol`` is checked as a quadrature's: the route
    refuses one below QUAD_FLOOR.
    """
    return routes.evaluate(n, 1, x, "quad-cardano", tol=tol)


# The direct sum's stop above weight 8: at 1e-15 it was 6e-15 off on the rim at n 9..12.
_DIRECT_TOL = 1e-17


def _cardano_kernel(n: int, xc: complex, tol, max_terms: int) -> tuple[complex, float, int]:
    """``quad_cardano``'s (value, abs_error_est, work) at summable x != 0; checks tol alone."""
    quad_tol(tol)
    if abs(xc) < _TINY_X:
        return _leading_terms(n, 1, xc)
    if n > _S_WEIGHTS:
        return _sum_kernel(n, 1, xc, _DIRECT_TOL, max_terms)
    s = _cardano_s(xc)
    if abs(s) <= S_MAX:
        return _s_series(n, s)
    return _v_series(n, xc)


# s = phi(x)**-3 turns x = 27 q**3 / (1 + q**3)**2 into x = 27 s / (1 + s)**2, which maps
# the unit disk one-to-one onto the plane cut along [27/4, inf), with x = 27/4 at s = 1. So
# S(n, 1; x) = sum_j a_j s**j converges on the whole closed disk |x| <= 27/4 but at that
# branch point, and fastest where direct summation is slowest: |s| <= 0.66 on the rim more
# than 5 degrees off the positive axis, 0.17 at -27/4, about |x|/27 near 0. Every a_j is
# (-1)**(j+1) c_j with c_j > 0, so the tables hold the c_j and the sum runs in -s.
# x d/dx = s (1 + s) / (1 - s) d/ds turns x d/dx S(n) = S(n - 1) into
# j a_j(n) = 2 P_j - a_j(n - 1), P_j = sum_{i<=j} (-1)**(j-i) a_i(n - 1); in the c_j,
# j c_j(n) = C_j + C_(j-1) with C_j = c_1 + ... + c_j, a sum of positive terms.
# Weight 3 is a literal table, each c_j correctly rounded from the exact
# a_j(0) = sum_{k<=j} (-1)**(j-k) C(j+k-1, j-k) 27**k / C(3k, k) and the recurrence (too
# slow in Fractions for the import); weights 4.._S_WEIGHTS follow from it at import.
_S_WEIGHTS = 8
# _S_ENVELOPE[n - 3] bounds c_j(n) for every j >= 1: the largest are 11.925, 19.09, 33.16,
# 59.55, 109.15 and 202.79, at j = 2, 5, 14, 37, 97 and 260; past them every weight falls
# (checked to j = 6,000 in float, from the weight-2 closed form as a series in s**(1/3);
# asymptotically c_j ~ log(j)**(n-1) / j).
_S_ENVELOPE = (12.0, 20.0, 34.0, 60.0, 110.0, 203.0)
# |S(n, 1; x)| >= |x| / 5 on the disk for n >= 3 (the terms k >= 2 sum to at most 0.33 |x|/3
# at n = 3, the largest), and |x| = 27 |s| / |1 + s|**2 >= 27 r / (1 + r)**2 at r = |s|.
# The terms past K sum to at most envelope r**(K+1) / (1 - r), which is below eps/4 of
# that bound on |S| once r**K <= _S_TRUNC (1 - r) / (envelope (1 + r)**2).
_S_TRUNC = 27.0 * _EPS / 20.0
# The largest |s| the series serves; on the disk |s| passes it only within 0.9 of 27/4 (from
# x = 6.328 on the positive axis, 7.6 degrees off it on the rim), where the series in v takes
# over. Its largest |v| there, 0.3651 on the rim, takes 40 terms, all of _V_TERMS.
S_MAX = 0.6


def _s_terms(r: float, n: int) -> int:
    """Terms K of the series in s at r = |s| (0 < r < 1) and weight n <= _S_WEIGHTS."""
    bound = _S_TRUNC * (1.0 - r) / (_S_ENVELOPE[n - 3] * (1.0 + r) ** 2)
    return max(1, math.ceil(math.log(bound) / math.log(r)))


# c_j(3) for j = 1..85 = _s_terms(S_MAX, 8), the most terms any weight takes.
_rows = [(
    9.0, 11.925, 11.378571428571428, 10.54614448051948, 9.773253746253745, 9.102208600223307,
    8.525067123121397, 8.026468882303865, 7.592211144022986, 7.210674381414058, 6.872647946492342,
    6.570865849968992, 6.299568490896778, 6.0541515847789, 5.830898689507094, 5.626780429555739,
    5.439303923055715, 5.2663992676148155, 5.1063332792942004, 4.957643341586224,
    4.819086194558996, 4.689597916735177, 4.568262368237332, 4.454286089211022, 4.346978167803593,
    4.245733967561263, 4.150021877376948, 4.059372447622431, 3.973369424472983, 3.891642305170788,
    3.8138601203139926, 3.7397262124881485, 3.6689738289042744, 3.6013623829530066,
    3.5366742684829817, 3.474712133188168, 3.4152965352421067, 3.3582639213648746,
    3.303464875690835, 3.2507625977573107, 3.2000315751400175, 3.1511564220913426,
    3.1040308602783973, 3.0585568215911194, 3.0146436561697287, 2.9722074314214044,
    2.9311703099652844, 2.8914599962477516, 2.8530092430740934, 2.815755410562158,
    2.7796400710821083, 2.7446086546389097, 2.710610129909297, 2.677596716785815,
    2.6455236268260736, 2.614348828471133, 2.58403283429575, 2.554538507895593, 2.525830888311313,
    2.4978770301436835, 2.4706458577341492, 2.44410803197593, 2.4182358284867607,
    2.393003026018853, 2.3683848041078623, 2.344357649073032, 2.3208992675774875,
    2.297988507042661, 2.2756052822856603, 2.253730507814384, 2.232346035273457,
    2.2114345955856494, 2.1909797453791486, 2.1709658173316666, 2.151377874098443,
    2.1322016655233855, 2.1134235888612616, 2.0950306517644903, 2.07701043781102,
    2.059351074370325, 2.042041202622983, 2.025069949565875, 2.008426901849934, 1.9921020813108106,
    1.976085922064917,
    ),
]
# The recurrence runs on exact integers, the weight-3 values in units of 2**-_S_FIXED (each
# c_j >= 1, so c_j 2**_S_FIXED is an integer), floored once per weight; each float is the
# correctly rounded value of its integer. So every weight is within 0.53 ulp of its exact
# values, within _S_TABLE_ULPS. (A float recurrence was up to 8.8 ulps off, and as those
# errors are alike along j, they cost up to 15 eps of the sum near the positive axis, where
# the terms cancel.) Build time of every table here: about 0.16 ms.
_S_FIXED = 60
_S_TABLE_ULPS = 1
_fixed = list(map(int, map(mul, _rows[0], repeat(2.0**_S_FIXED))))
for _ in range(4, _S_WEIGHTS + 1):
    _sums = list(accumulate(_fixed, initial=0))
    _fixed = list(map(floordiv, map(add, _sums[1:], _sums[:-1]), count(1)))
    _rows.append(tuple(map(mul, map(float, _fixed), repeat(2.0**-_S_FIXED))))
_S_COEFS = tuple(_rows)
_S_PAIRS = tuple(tuple(zip(row, row)) for row in _S_COEFS)  # (c_j, c_j), for ``_horner``
del _rows, _fixed, _sums
# The rounding of the sum, term by term. The j-th term takes j products and j sums of
# Horner's rule, each within 1.62 eps in complex arithmetic (1 eps for floats), and j times
# the relative error of s, within 6.5 eps (its radical, a denominator that cancels by at
# most a factor 2 on the disk, and the quotient); with the table's error it is within
# (_S_STEP_ROUNDING j + _S_TABLE_ULPS + 1) eps |a_j| |s|**j; so is the series in v's (v is
# within 3 eps: an exact d, one quotient and the square root).
_S_STEP_ROUNDING = 9


def _cardano_s(xc: complex) -> complex | float:
    """s = phi(x)**-3 = 2x / (27 - 2x + 3 sqrt(81 - 12x)) with ``phi``'s radical; a float
    for real x. |s| <= 1, with equality only at x = 27/4."""
    rad = _radical(xc)
    if xc.imag == 0.0:
        xr = xc.real
        return 2.0 * xr / (27.0 - 2.0 * xr + 3.0 * rad.real)
    return 2.0 * xc / (27.0 - 2.0 * xc + 3.0 * rad)


def _s_series(n: int, s: complex | float) -> tuple[complex, float, int]:
    """S(n, 1; x) = sum_{j<=K} a_j s**j, 3 <= n <= _S_WEIGHTS and |s| < 1, by Horner's rule
    in -s over the c_j. The error bound is the truncation past K (``_s_terms``) plus the
    rounding, sum_j (_S_STEP_ROUNDING j + _S_TABLE_ULPS + 1) eps c_j r**j at r = |s|: from
    G(r) = sum_j c_j r**(j-1) and G'(r), in ``_horner``'s loop. s is ``_cardano_s(x)``, the
    root of 27 s / (1 + s)**2 = x with |s| <= 1 (the other root is 1/s)."""
    r = abs(s)
    terms = _s_terms(r, n)
    h, g, dg = _horner(_S_PAIRS[n - 3][terms - 1 :: -1], -s, r)
    # sum_j c_j r**j = r G and sum_j j c_j r**j = r G + r**2 G'
    rounding = (_S_STEP_ROUNDING + _S_TABLE_ULPS + 1) * r * g + _S_STEP_ROUNDING * r * r * dg
    truncation = _S_ENVELOPE[n - 3] * r ** (terms + 1) / (1.0 - r)
    return complex(h * s), truncation + _EPS * rounding, terms


def _horner(pairs, t, r):
    """Over ``pairs`` (c_k, a_k), k from K - 1 down to 0, a_k >= |c_k|: by Horner's rule
    h = sum_k c_k t**k, g = sum_k a_k r**k and its derivative dg in r, in one loop."""
    h = g = dg = 0.0
    for c, a in pairs:
        h = h * t + c
        dg = dg * r + g
        g = g * r + a
    return h, g, dg


# Near x = 27/4 the series runs in v = sqrt(1 - 4x/27), Re v >= 0 on the disk: S(n, 1; x)
# = G_n(v) is analytic on |v| < 1 (s = (1 - v)/(1 + v)), and x d/dx = -(1 - v**2)/(2v) d/dv
# turns x d/dx S(n) = S(n - 1) into G_n' = -2v/(1 - v**2) G_(n-1): b_0(n) = S(n, 1; 27/4),
# b_1(n) = 0, b_k(n) = -(2/k) sum_{i>=0} b_(k-2-2i)(n - 1). The literals, b_k(2) for
# k < _V_TERMS (the weight-2 closed form, phi**3 = (1 + v)/(1 - v)) and the anchors b_0(n),
# are correctly rounded from 50 digits (tools/cardano_v_tables.py); the other rows follow at
# import in units of 2**-_V_FIXED, each float the rounded recurrence over the literals.
_V_TERMS = 40
_V_FIXED = 100
_V_BASE = (
    5.618830239556503, -7.255197456936871, 2.462098120373297, -1.3435550846179392,
    0.8820047549738116, -0.6389350846849755, 0.49206083471852746, -0.3950889202386203,
    0.32697001686177124, -0.27687487345563605, 0.23871139570688962, -0.20881184646416318,
    0.18484706924333996, -0.16527282385450304, 0.1490282086425062, -0.13536228813561987,
    0.12372983755879843, -0.11372621376231486, 0.10504531466487022, -0.0974516596837232,
    0.09076138005637674, -0.08482898722727444, 0.07953798044770495, -0.07479406124674785,
    0.07052015281716559, -0.06665269125273213, 0.06313882744283497, -0.059934290577730046,
    0.057001738785674015, -0.05430947286448757, 0.0518304237345057, -0.04954134841144575,
    0.04742218638109084, -0.045455540483137886, 0.04362625526271237, -0.04192107222600068,
    0.04032834622573932, -0.038837810776857426, 0.03744038279434879, -0.03612799928950674,
)
_V_ANCHORS = (
    2.974506287708767, 2.5204400945844294, 2.367064837785057, 2.304013746560729,
    2.275750781762125, 2.262503824680662,
)


def _v_recurrence(base: tuple, sign: int) -> tuple:
    """Rows 3.._S_WEIGHTS from row 2: the anchor, 0, and sign (2/k) sum_i b_(k-2-2i)(n - 1)."""
    rows, prev = [], [int(b * 2.0**_V_FIXED) for b in base]
    for anchor in _V_ANCHORS:
        sums, row = [0, 0], [int(anchor * 2.0**_V_FIXED), 0]
        for k in range(2, _V_TERMS):
            sums[k % 2] += prev[k - 2]
            row.append(sign * 2 * sums[k % 2] // k)
        rows.append(tuple(float(f) * 2.0**-_V_FIXED for f in row))
        prev = row
    return tuple(rows)


_V_COEFS = _v_recurrence(_V_BASE, -1)
# The recurrence over the moduli (+ for -) bounds |b_k(n)| and, times eps, the rows' error
# (eps/2 |b_k(n)| from their rounding, eps/2 of this from the literals').
_V_MAGS = _v_recurrence(tuple(map(abs, _V_BASE)), 1)
_V_PAIRS = tuple(tuple(zip(b, a)) for b, a in zip(_V_COEFS, _V_MAGS))
# |b_k(n)| <= _V_ENVELOPE for n 3.._S_WEIGHTS: the largest is |b_2(3)| = S(2, 1; 27/4) =
# 5.6188, and past k = 100 none exceeds 1.4 (checked to k = 400 at 40 digits, 20,000 in
# float). With |S| >= |x| / 5 >= (27/20)(1 - r**2) at r = |v|, the terms from K on, at most
# envelope r**K / (1 - r), are below eps/8 of |S| once r**K <= _V_TRUNC (1 - r)(1 - r**2)
# / envelope.
_V_ENVELOPE = 5.62
_V_TRUNC = 27.0 * _EPS / 160.0


def _v_terms(r: float) -> int:
    """Terms K of the series in v at r = |v| < 1."""
    bound = _V_TRUNC * (1.0 - r) * (1.0 - r * r) / _V_ENVELOPE
    return max(1, math.ceil(math.log(bound) / math.log(r))) if r else 1


def _v_series(n: int, xc: complex) -> tuple[complex, float, int]:
    """S(n, 1; x) = sum_{k<K} b_k(n) v**k near x = 27/4, v = sqrt(4d/27) with d = 27/4 - x
    exact (Sterbenz). Its bound: the truncation past K plus, with M = _V_MAGS, the rounding
    sum_k (_S_STEP_ROUNDING k + _S_TABLE_ULPS + 1) eps M_k(n) r**k at r = |v|."""
    d = RADIUS_BASE - xc.real
    if xc.imag == 0.0:
        v = math.sqrt(4.0 * d / 27.0)
    else:
        v = cmath.sqrt(complex(4.0 * d / 27.0, -4.0 * xc.imag / 27.0))
    r = abs(v)
    terms = _v_terms(r)
    h, g, dg = _horner(_V_PAIRS[n - 3][terms - 1 :: -1], v, r)
    rounding = (_S_TABLE_ULPS + 1) * g + _S_STEP_ROUNDING * r * dg
    truncation = _V_ENVELOPE * r**terms / (1.0 - r)
    return complex(h), truncation + _EPS * rounding, terms


def _stable_complement(t: float, m: int) -> float:
    """1 - (R*t*(1-t)**2)**m, the complement of the polylog argument at x = R**m, written
    to avoid cancellation; adding d*(t*(1-t)**2)**m, d = R**m - x, gives it at real x.

    With c = (1-3t)**2 * (4-3t) / 4 and a = R*t*(1-t)**2, the exact factorization
    1 - a = c gives 1 - a**m = c * (1 + a + ... + a**(m-1)): non-negative factors on
    [0, 1], and c itself at m = 1. The added term is non-negative too for x <= R**m.
    """
    one_3t = 1.0 - 3.0 * t
    head = 1.0
    if m > 1:
        a = RADIUS_BASE * t * (1.0 - t) ** 2
        for _ in range(m - 1):
            head = head * a + 1.0
    return one_3t * one_3t * (4.0 - 3.0 * t) * 0.25 * head


def _logpow(arg: float, p: int) -> float:
    if p == 0:
        return 1.0
    if arg < _TINY:  # vanishing endpoint; keep log powers finite under rounding
        arg = _TINY
    return math.log(arg) ** p


def _oriented(f, upper: float, tol: float | None) -> tuple[float, float, int]:
    """Integral of f from 0 to ``upper``, either sign, through u = upper * s**3, s in [0, 1]:
    the two-term integrands' u log(u)**p at u = 0 becomes a smooth s**5 log(s)**p."""
    scale = 3.0 * upper
    value, err, work = adaptive_quad(lambda s: scale * s * s * f(upper * s * s * s), 0.0, 1.0, tol)
    return value.real, err, work


def quad_two_term(n: int, x: float, tol: float | None = None) -> Evaluation:
    """S(n, 1; x) as the sum of the two oriented quadratures, n >= 2, real x.

    First term: prefactor (-1)**(n-1) / (n-2)! over [0, alpha], integrand
    u * log(...)**(n-2) with an exponential inner argument. Second term:
    prefactor 4*(-1)**(n-2) / (3*(n-2)!) over [0, beta], trigonometric
    inner argument. Both integrals run through u = limit * s**3, s in [0, 1]
    (``_oriented``), which serves either sign of the limit (negative for x > 0).
    ArgumentError for complex x and for 0 < |x| < TWO_TERM_MIN_X, where the two
    integrals cancel. ``tol`` is checked as ``quad_cardano``'s.
    """
    return routes.evaluate(n, 1, x, "quad-two-term", tol=tol)


def _two_term_kernel(n: int, xr: float, tol) -> tuple[complex, float, int]:
    """``quad_two_term``'s (value, abs_error_est, work) at the x it serves; checks tol alone."""
    tol = quad_tol(tol)
    limits = two_term_limits(xr)
    p = n - 2
    fac = math.factorial(p)

    # 1 - e**u and 1 + 2 cos((2v + 2 pi)/3), written not to cancel near 0
    def f_exp(u: float) -> float:
        eu = math.exp(u)
        return u * _logpow(-math.expm1(u) ** 3 / (xr * eu * eu), p)

    def f_trig(v: float) -> float:
        c = math.cos((2.0 * v + _TWO_PI) / 3.0)
        d = -4.0 * math.sin(v / 3.0 + _TWO_PI / 3.0) * math.sin(v / 3.0)
        return v * _logpow(d**3 / (2.0 * xr * (1.0 + c)), p)

    i1, e1, w1 = _oriented(f_exp, limits.alpha, tol)
    i2, e2, w2 = _oriented(f_trig, limits.beta, tol)
    pref1 = (-1.0) ** (n - 1) / fac
    pref2 = 4.0 * (-1.0) ** (n - 2) / (3.0 * fac)
    value = pref1 * i1 + pref2 * i2
    err = abs(pref1) * e1 + abs(pref2) * e2
    return complex(value), err, w1 + w2


# Last, as the route table imports the kernels above; quad_cardano reads it at call time.
from . import routes  # noqa: E402
