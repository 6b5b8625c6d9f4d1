"""Quadrature evaluation through the integral representations of the series.

Two independent routes at stride 1:

* ``quad_polylog`` integrates Li_{n-1}(x*t*(1-t)**2) / t over the unit
  interval. It works for every n >= 1 (n >= 2 on the rim) and it is the
  only practical route on the rim, where direct summation decays like
  k**(1/2 - n).
* ``quad_two_term`` evaluates the two-term log/trig form whose limits come
  from the Cardano root. Restricted to real x, where its trigonometric
  integrand is derived; complex arguments are served by ``quad_polylog``
  and by folding.

Sign convention of the angular limit: ``two_term_limits`` returns
beta = 3*arctan(sqrt(3)/(1 - 2*phi)), which is negative on (0, 27/4] with
beta(27/4) = -pi. The opposite orientation reproduces the weight-2 values
(only beta**2 enters there) but fails every odd log power; the
route-equivalence tests at n = 3 pin this down numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_forms import phi
from .errors import ArgumentError, DomainError
from .polylog import li
from .quadrature import QuadratureSpec, adaptive_quad
from .series import RADIUS_BASE, Evaluation, SeriesParams

_TWO_PI = 2.0 * math.pi
_TINY = 1e-300


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
    SeriesParams.require_summable(2, 1, xr)
    p = phi(xr).phi.real
    # (p**3 + 1) / (p + 1)**3 = (1 + p**-3) / (1 + 1/p)**3; the log1p form
    # stays finite for the enormous roots produced by tiny x (p**3 would
    # overflow long before x leaves the domain) and is exact at p = 1.
    alpha = math.log1p(p**-3) - 3.0 * math.log1p(1.0 / p)
    beta = 3.0 * math.atan(math.sqrt(3.0) / (1.0 - 2.0 * p))
    return TwoTermLimits(alpha, beta, p)


def quad_polylog(n: int, x: complex, spec: QuadratureSpec | None = None) -> Evaluation:
    """S(n, 1; x) as the single integral of Li_{n-1}(x*t*(1-t)**2) / t.

    The integrand tends to x at t = 0 (supplied explicitly). On the rim
    |x| = 27/4 the polylog argument touches 1 at t = 1/3, an integrable
    logarithmic singularity the adaptive rule subdivides through; the
    argument is clamped a hair below 1 there so the weight-1 kernel stays
    finite under rounding.
    """
    if n < 1:
        raise ArgumentError(f"this route needs n >= 1, got {n}")
    xc = SeriesParams.require_summable(n, 1, x)
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

    value, err, work = adaptive_quad(integrand, 0.0, 1.0, spec)
    return Evaluation(value, err, "quad-polylog", work)


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


def _oriented(f, upper: float, spec: QuadratureSpec | None) -> tuple[float, float, int]:
    """Integral of f from 0 to ``upper``, either orientation."""
    if upper == 0.0:
        return 0.0, 0.0, 0
    if upper > 0.0:
        value, err, work = adaptive_quad(f, 0.0, upper, spec)
    else:
        value, err, work = adaptive_quad(f, upper, 0.0, spec)
        value = -value
    return value.real if isinstance(value, complex) else value, err, work


def quad_two_term(n: int, x: float, spec: QuadratureSpec | None = None) -> Evaluation:
    """S(n, 1; x) as the sum of the two oriented quadratures, n >= 2, real x.

    First term: prefactor (-1)**(n-1) / (n-2)! over [0, alpha], integrand
    u * log(...)**(n-2) with an exponential inner argument. Second term:
    prefactor 4*(-1)**(n-2) / (3*(n-2)!) over [0, beta], trigonometric
    inner argument. Negative limits (the rule for x > 0) integrate over
    the flipped interval and negate.
    """
    if n < 2:
        raise ArgumentError(f"this route needs n >= 2, got {n}")
    xr = float(x)
    limits = two_term_limits(xr)  # applies the domain rule
    p = n - 2
    fac = math.factorial(p)

    def f_exp(u: float) -> float:
        eu = math.exp(u)
        return u * _logpow((1.0 - eu) ** 3 / (xr * eu * eu), p)

    def f_trig(v: float) -> float:
        c = math.cos((2.0 * v + _TWO_PI) / 3.0)
        return v * _logpow((1.0 + 2.0 * c) ** 3 / (2.0 * xr * (1.0 + c)), p)

    i1, e1, w1 = _oriented(f_exp, limits.alpha, spec)
    i2, e2, w2 = _oriented(f_trig, limits.beta, spec)
    pref1 = (-1.0) ** (n - 1) / fac
    pref2 = 4.0 * (-1.0) ** (n - 2) / (3.0 * fac)
    value = pref1 * i1 + pref2 * i2
    err = abs(pref1) * e1 + abs(pref2) * e2
    return Evaluation(complex(value), err, "quad-two-term", w1 + w2)
