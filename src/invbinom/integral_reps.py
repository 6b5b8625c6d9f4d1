"""Quadrature evaluation through the integral representations of the series.

Three independent routes at stride 1:

* ``quad_polylog`` integrates Li_{n-1}(x*t*(1-t)**2) / t over the unit
  interval. It works for every n >= 1 (n >= 2 on the rim); it is the
  independent cross-check of the Cardano-root route.
* ``quad_cardano`` (n >= 3) integrates the elementary weight-2 closed form
  along the Cardano root and sums the far end of the path as a fast series:
  n - 2 Horner sums over an import-time coefficient table, with the term count
  fixed in advance from the coefficients' k**(-5/2) decay. It is about 20 times
  cheaper than ``quad_polylog`` and is the route ``auto`` takes where direct
  summation, which decays like k**(1/2 - n) on the rim, costs more. The public
  entry is ``evaluate``'s quad-cardano route; the route table and ``fold`` call
  its bare kernel, ``_cardano_kernel``.
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
from dataclasses import dataclass

from .closed_forms import _TINY_X, REAL_BRANCH, SQRT3, phi
from .errors import ArgumentError, DomainError, checked_tol
from .polylog import li
from .quadrature import adaptive_quad
from .series import RADIUS_BASE, Evaluation, SeriesParams, _inside

_TWO_PI = 2.0 * math.pi
_TINY = 1e-300
_EPS = 2.220446049250313e-16

# quad-two-term's relative error against direct-sum (n 2..6, 400 points per decade) is at
# most 2e-11 above |x| = 1.75e-3, up to 2.8e-8 just below it and 1e-6 below 4e-7: its two
# integrals cancel to S ~ x/3. ``quad_two_term`` and the route refuse 0 < |x| below this.
TWO_TERM_MIN_X = 2e-3
TWO_TERM_FLOOR = f"quad-two-term needs |x| >= {TWO_TERM_MIN_X:g}, where it holds 1e-9 relative"

# |r| where quad_cardano hands over from quadrature to the series: beyond it the
# weight-2 kernel cancels by a factor of about |r|, and the series ratio is below 0.3.
CARDANO_SPLIT = 2.5


@dataclass(frozen=True)
class TwoTermLimits:
    """Integration limits of the two-term route, plus the root behind them.

    alpha = log((phi**3 + 1) / (phi + 1)**3); negative on (0, 27/4), with
    alpha(27/4) = -log(4). beta as documented in the module docstring.
    """

    alpha: float
    beta: float
    phi: float


def two_term_limits(x: float) -> TwoTermLimits:
    """Limits (alpha, beta) for real x with 0 < |x| <= 27/4, the closed disk of
    the n >= 2 series they serve; DomainError elsewhere (phi diverges at x = 0).
    """
    xr = float(x)
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
    logarithmic singularity the adaptive rule subdivides through; the
    argument is clamped a hair below 1 there so the weight-1 kernel stays
    finite under rounding.
    """
    checked_tol(tol, None)
    if n < 1:
        raise ArgumentError(f"this route needs n >= 1, got {n}")
    xc = complex(x)
    if not _inside(n, abs(xc), RADIUS_BASE):
        SeriesParams.require_summable(n, 1, xc)  # raises
    if xc == 0:
        return Evaluation(0j, 0.0, "quad-polylog", 0)
    weight = n - 1
    real_arg = xc.imag == 0.0

    if real_arg and weight <= 1:
        # Weight 0 and 1 kernels in terms of the cancellation-free
        # complement u(t) = 1 - x*t*(1-t)**2; the direct difference loses
        # every digit near t = 1/3 as x approaches 27/4, where u has a
        # double zero.
        xr = xc.real

        def integrand(t: float) -> complex:
            if t == 0.0:
                return complex(xr)
            u = max(_stable_complement(xr, t), _TINY)
            if weight == 0:
                return complex(xr * (1.0 - t) ** 2 / u)
            return complex(-math.log(u) / t)

    else:

        def integrand(t: float) -> complex:
            if t == 0.0:
                return xc  # limit of Li_{n-1}(x*t*(1-t)**2) / t
            w = xc * (t * (1.0 - t) ** 2)
            if real_arg:
                wr = w.real
                if wr > 1.0:  # rounding past the rim; mathematically w <= 1
                    wr = 1.0
                w = complex(wr)
            return li(weight, w) / t

    value, err, work = adaptive_quad(integrand, 0.0, 1.0, tol)
    return Evaluation(value, err, "quad-polylog", work)


def quad_cardano(n: int, x: complex, tol: float | None = None) -> Evaluation:
    """S(n, 1; x), n >= 3, by quadrature along the Cardano root of the weight-2 closed form.

    With q = phi(x), u(r) = 27 r**3 / (1 + r**3)**2 (so u(q) = x) and
    w(r) = -d log u / dr = 3 (r**3 - 1) / (r (1 + r**3)), repeating
    x d/dx S(n, 1; x) = S(n - 1, 1; x) down to weight 2 gives

        S(n, 1; x) = 1/(n-3)! * int_q^inf K(r) l(r)**(n-3) w(r) dr,

    K(r) = S(2, 1; u(r)) = 6 atan(sqrt3/(2r - 1))**2 - log((r**2 - r + 1)/(r + 1)**2)**2 / 2,
    l(r) = log(x / u(r)). The path is the ray r = q/tau, tau in (0, 1], on which
    l = 2 log(1 + c (tau**-3 - 1)) + 3 log tau with c = q**3 / (1 + q**3): the
    argument 1 + c s, s >= 0, never crosses the principal cut. The head
    |r| <= CARDANO_SPLIT is one adaptive Gauss-Kronrod integral; beyond it,
    where K cancels (both halves ~ 9/(2 r**2)), the rest is the series
    sum_k y**k / (k**3 C(3k, k)) * sum_{i<=n-3} l0**i / (i! k**(n-3-i)),
    y = u(r0), l0 = l(r0), whose ratio is at most 4|y|/27 < 0.3 (``_cardano_tail``).
    For |q| >= CARDANO_SPLIT (small |x|) the head is empty and the series is the
    direct one.
    """
    return routes.evaluate(n, 1, x, "quad-cardano", tol=tol)


def _cardano_kernel(n: int, xc: complex, tol: float | None) -> tuple[complex, float, int]:
    """The unchecked (value, abs_error_est, work) of ``quad_cardano`` at summable x != 0."""
    p = n - 3
    head, head_err, work = 0j, 0.0, 0
    y0, ell0 = xc, 0j
    root = None if abs(xc) < _TINY_X else phi(xc)  # phi overflows for tiny |x|
    if root is not None and abs(root.phi) < CARDANO_SPLIT:
        q = root.phi
        tau0 = abs(q) / CARDANO_SPLIT
        if root.branch == REAL_BRANCH:
            integrand, ell = _cardano_path(q.real, p, math)  # real arithmetic, about 30% faster
        else:
            integrand, ell = _cardano_path(q, p, cmath)
        # adaptive_quad floors each panel's estimate at 50 eps of its value, which
        # covers the integrand's rounding: the kernel cancels by at most |r| <= 2.5
        head, head_err, work = adaptive_quad(integrand, tau0, 1.0, tol)
        scale = 1.0 / math.factorial(p)
        head *= scale
        head_err *= scale
        r0 = q / tau0
        r3 = r0**3
        y0 = complex(27.0 * r3 / (1.0 + r3) ** 2)
        ell0 = complex(ell(tau0))
    tail, tail_err, terms = _cardano_tail(p, y0, ell0)
    return head + tail, head_err + tail_err, work + terms


def _cardano_path(q: complex, p: int, lib):
    """Head integrand over tau, and l(tau); ``lib`` is math for the real branch of
    phi (q real, |q| >= 1, every value real) and cmath for principal branches."""
    c = q**3 / (1.0 + q**3)
    log, atan, real_log = lib.log, lib.atan, math.log

    def ell(tau: float) -> complex:
        return 2.0 * log(1.0 + c * (tau**-3 - 1.0)) + 3.0 * real_log(tau)

    def integrand(tau: float) -> complex:
        r = q / tau
        rr = r * r
        r3 = rr * r
        r1 = r + 1.0
        at = atan(SQRT3 / (2.0 * r - 1.0))
        lg = log((rr - r + 1.0) / (r1 * r1))
        kernel = 6.0 * at * at - 0.5 * lg * lg
        if p:  # weight 3 has no l(tau) factor: two logs fewer per node
            el = 2.0 * log(1.0 + c * (tau**-3 - 1.0)) + 3.0 * real_log(tau)
            kernel *= el if p == 1 else el**p
        return kernel * 3.0 * (r3 - 1.0) / ((1.0 + r3) * tau)

    return integrand, ell


# Robbins' bound C(3k, k) >= sqrt(3/(4 pi k)) R**k e**(-1/(8k)) puts each weight-3 term
# at most sqrt(4 pi/3) e**(1/16) k**(-5/2) r**k for k >= 2, r = 4|y|/27, so the terms past K
# sum to at most sqrt(4 pi/3) e**(1/16) K**(-5/2) r**(K+1) / (1 - r). That is below the
# tail's truncation budget (|y|/3) eps/8 = 9 r eps/32 when K**(-5/2) r**K <= _TAIL_TOL (1 - r).
_TAIL_TOL = 9.0 * _EPS / (32.0 * math.sqrt(4.0 * math.pi / 3.0) * math.exp(1.0 / 16.0))


def _tail_terms(r: float) -> int:
    """Terms K of the tail series at the ratio bound r = 4|y|/27 < 1 (see ``_cardano_tail``):
    a K >= 1 with K ln r - (5/2) ln K <= ln tol, tol = _TAIL_TOL (1 - r), the test that
    ``series.within_terms`` makes at n = 3. The root k* of that test is the fixed point of
    h(k) = (ln tol + (5/2) ln k) / ln r, which decreases; from the geometric count h(1) >= k*,
    one step gives a lower bound and a second an upper bound within a small fraction of a
    term of k* (|h'| = 5/(2 k |ln r|) is below 0.1 for r <= 0.3). K is its ceiling: the
    least such K, or one more for about 2% of r in (0, 0.3]. No search, no table."""
    tol = _TAIL_TOL * (1.0 - r)
    if r <= tol:
        return 1
    a = math.log(r)
    log_tol = math.log(tol)
    k = max((log_tol + 2.5 * math.log(log_tol / a)) / a, 1.0)
    return math.ceil((log_tol + 2.5 * math.log(k)) / a)


# 1/(k**w C(3k, k)) for weights w = 3..8 and k = 1.._TAIL_TERMS, correctly rounded (as int
# division is); _TAIL_TERMS is the count at the ratio bound 0.3, which the tail's |y| <= 1.98
# stays below. Higher weights, or longer sums, compute the same expression inline.
_TAIL_TERMS = _tail_terms(0.3)
_TAIL_COEFS = tuple(
    tuple([1 / (k**w * math.comb(3 * k, k)) for k in range(1, _TAIL_TERMS + 1)])
    for w in range(3, 9)
)


def _cardano_tail(p: int, y: complex, ell0: complex) -> tuple[complex, float, int]:
    """sum_k y**k / (k**3 C(3k, k)) * e_p(k l0) / k**p, e_p the degree-p exponential sum,
    for |y| < 2 (ratio bound r = 4|y|/27 < 0.3). Returns (value, error bound, terms).

    Since e_p(k l0) / k**p = sum_{i<=p} l0**i / i! * k**(i-p), the sum is
    sum_{i<=p} l0**i / i! * T_{p+3-i}(y) with T_w(y) = sum_{k<=K} y**k / (k**w C(3k, k)) =
    y/3 + y**2 H_w(y): each H_w by Horner's rule over the coefficient table, and the sum
    over i by Horner's rule in l0. Real y and l0 run in float arithmetic.
    """
    ay = abs(y)
    r = 4.0 * ay / 27.0
    terms = _tail_terms(r)
    real = y.imag == 0.0 and ell0.imag == 0.0
    w = y.real if real else y
    ell = ell0.real if real else ell0
    al = abs(ell0)
    s = e = 0.0  # sum_i l0**i / i! H_{p+3-i}, and e_p(l0)
    amp = 0.0  # e_p(|l0|) >= |e_p(k l0)| / k**p for every k >= 1
    for i in range(p, -1, -1):
        weight = p + 3 - i
        if weight <= 8 and terms <= _TAIL_TERMS:
            coefs = _TAIL_COEFS[weight - 3][terms - 1 : 0 : -1]
        else:
            coefs = [1 / (k**weight * math.comb(3 * k, k)) for k in range(terms, 1, -1)]
        h = 0.0
        for c in coefs:
            h = h * w + c
        scale = 1.0 / (i + 1)
        s = s * ell * scale + h
        e = e * ell * scale + 1.0
        amp = amp * al * scale + 1.0
    total = w / 3.0 * e + w * w * s
    # The weight-3 terms, times amp, bound the others, and past K terms they sum to at
    # most (|y|/3) eps / 8 (``_tail_terms``): the rest is below amp (|y|/3) eps / 8. As
    # every ratio |y C(3k, k) k**3 / (C(3k+3, k+1) (k+1)**3)| is below r, each weight-3
    # term is at most (|y|/3) r**(k-1). Rounding: each Horner level j
    # rounds about 4 times relative to its partial sum (at most the terms k >= j), and y
    # and l0 carry a few eps of relative rounding that term k takes k-fold; so below
    # 8 eps sum_k k amp (|y|/3) r**(k-1) = 8 eps amp (|y|/3) / (1 - r)**2. The factor 3
    # taken here covers the l0 sum, the leading y/3, the final sum and the truncation.
    return complex(total), 8.0 * _EPS * amp * ay / (1.0 - r) ** 2, terms


def _stable_complement(x: float, t: float) -> float:
    """1 - x*t*(1-t)**2 for real x <= 27/4, written to avoid cancellation.

    Uses the exact factorization 1 - (27/4)*t*(1-t)**2 = (1-3t)**2 * (4-3t) / 4;
    both summands below are non-negative on [0, 1].
    """
    one_3t = 1.0 - 3.0 * t
    return one_3t * one_3t * (4.0 - 3.0 * t) * 0.25 + (RADIUS_BASE - x) * t * (1.0 - t) ** 2


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
    ArgumentError for 0 < |x| < TWO_TERM_MIN_X, where the two integrals cancel.
    """
    checked_tol(tol, None)
    if n < 2:
        raise ArgumentError(f"this route needs n >= 2, got {n}")
    xr = float(x)
    if 0.0 < abs(xr) < TWO_TERM_MIN_X:
        raise ArgumentError(TWO_TERM_FLOOR)
    limits = two_term_limits(xr)  # applies the domain rule
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
    return Evaluation(complex(value), err, "quad-two-term", w1 + w2)


# Last, as the route table imports the kernels above; quad_cardano reads it at call time.
from . import routes  # noqa: E402
