"""Complex polylogarithm Li_n(z) on the closed unit disk.

Weights 0 and 1 use their elementary closed forms, z/(1-z) and
-log(1-z); up to |z| = 0.5 the latter is taken as
-log1p(a(a - 2) + b**2)/2 - i atan2(-b, 1 - a) for z = a + ib, which keeps its
relative accuracy as z -> 0. Higher weights sum the defining series
sum_{k>=1} z**k / k**n up to |z| = 0.5 by Horner's rule (57 terms at most) and,
beyond it, the expansion in powers of L = log z (R. Crandall, "Note on fast
polylogarithm computation", 2006), which converges for |L| < 2*pi:

    Li_n(z) = sum_{k >= 0, k != n-1} zeta(n-k) * L**k / k!
              + L**(n-1) / (n-1)! * (H_{n-1} - log(-L)),   Li_n(1) = zeta(n).

For k >= n the coefficients are zeta(0) = -1/2, the zeros of zeta at the
negative even integers (skipped, so they never stop the sum) and
zeta(1-2i) = (-1)**i * 2 * (2i-1)! * zeta(2i) / (2*pi)**(2i). In the left
half-plane the duplication formula Li_n(z) = 2**(1-n) Li_n(z**2) - Li_n(-z)
keeps |L| small and real arguments real. zeta(2..53) is a table of the
correctly rounded binary64 values, as P. Borwein's alternating-series
algorithm ("An efficient algorithm for the Riemann zeta function", 2000)
gives them in exact rational arithmetic; from zeta(54) on the rounded value
is 1.0.

``root_of_unity`` gives the rotations at which ``fold`` evaluates its inner route.

Principal branches everywhere; no caches, so every function here is pure
and safe to call from any number of threads.
"""

from __future__ import annotations

import cmath
import math

from .errors import ArgumentError, DomainError, PoleError, checked_number

SERIES_RADIUS = 0.5
RIM_TOL = 1e-12
_MAX_LOG_TERMS = 100
_TOL = 4e-17
_TWO_PI_SQ = (2.0 * math.pi) ** 2

# zeta(s) for s = 2..53, correctly rounded.
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
    1.0000000000002274, 1.0000000000001137, 1.0000000000000568, 1.0000000000000284,
    1.0000000000000142, 1.000000000000007, 1.0000000000000036, 1.0000000000000018,
    1.0000000000000009, 1.0000000000000004, 1.0000000000000002, 1.0000000000000002,
)


def _require_valid(n: int, z: complex) -> complex:
    """``complex(z)`` where Li_n is served, else ArgumentError, DomainError or
    PoleError: the one domain rule of ``li``."""
    if n < 0:
        raise ArgumentError(f"polylog weight must be >= 0, got {n}")
    zc = checked_number(z, "z")
    if not cmath.isfinite(zc):  # before abs, as in ``require_summable``
        raise DomainError(f"Li_n needs a finite z, got {zc!r}")
    r = abs(zc)
    if r > 1.0 + RIM_TOL:
        raise DomainError(f"|z| = {r!r} lies outside the closed unit disk")
    if n == 1 and zc == 1:
        raise PoleError("Li_1 has a logarithmic singularity at z = 1")
    if n == 0:
        if zc == 1:
            raise PoleError("Li_0 has a pole at z = 1")
        if r >= 1.0:
            raise DomainError("Li_0 requires |z| < 1")
    return zc


def li(n: int, z: complex) -> complex:
    """Polylogarithm Li_n(z) for |z| <= 1 (weight >= 2 required on the rim)."""
    zc = _require_valid(n, z)
    if n == 0:
        return zc / (1.0 - zc)
    if n == 1:
        if abs(zc) <= SERIES_RADIUS:
            # log|1 - z| as log1p(a (a - 2) + b**2), z = a + ib: 1 - z loses every digit
            # of z below |z| ~ eps, where Li_1(z) ~ z. Near z = 1 that argument cancels.
            # 0.0 - b, as 1.0 - z forms it, keeps the sign of a zero imaginary part.
            a, b = zc.real, zc.imag
            return complex(-0.5 * math.log1p(a * (a - 2.0) + b * b), -math.atan2(0.0 - b, 1.0 - a))
        return -cmath.log(1.0 - zc)
    if zc.imag == 0.0 and abs(zc.real) > 1.0:  # rounding past the rim on the real axis
        zc = complex(math.copysign(1.0, zc.real))
    return complex(_li(n, zc))


def _li(n: int, z: complex | float) -> complex | float:
    """Li_n(z) for n >= 2 and |z| <= 1, unchecked: ``li``'s kernel. Generic over float
    and complex z; a float z gives a float, so a real caller stays in float arithmetic."""
    return _li_series(n, z) if abs(z) <= SERIES_RADIUS else _li_log(n, z)


def _series_terms(r: float) -> int:
    """Terms K of the series at |z| = r: the least K >= 1 with r**K / (1 - r) <= _TOL / 2."""
    return max(1, math.ceil(math.log(0.5 * _TOL * (1.0 - r)) / math.log(r)))


# Weights 2..8: the series coefficients 1/k**n (correctly rounded, as int division is)
# up to the term count at |z| = SERIES_RADIUS, and H_{n-1} for Crandall's expansion.
_SERIES_TERMS = _series_terms(SERIES_RADIUS)
_INV_POWERS = tuple(tuple([1 / k**n for k in range(1, _SERIES_TERMS + 1)]) for n in range(2, 9))
_HARMONIC = tuple(math.fsum(1.0 / j for j in range(1, n)) for n in range(2, 9))


def _zeta(s: int) -> float:
    """zeta(s) for integer s >= 2, correctly rounded."""
    return _ZETA[s - 2] if s - 2 < len(_ZETA) else 1.0


def _li_series(n: int, z: complex | float) -> complex | float:
    """Direct series by Horner's rule, n >= 2 and r = |z| <= 2/3. There |Li_n(z)| >= r/2
    and the tail past K terms is below r**(K+1) / (1 - r), so ``_series_terms`` meets _TOL.
    A float for real z, complex or not."""
    if z == 0:
        return 0.0
    terms = _series_terms(abs(z))
    if n <= 8 and terms <= _SERIES_TERMS:
        coefs = _INV_POWERS[n - 2][terms - 1 :: -1]
    else:
        coefs = [1 / k**n for k in range(terms, 0, -1)]
    w = z.real if z.imag == 0.0 else z  # real arithmetic keeps real arguments real
    total = 0.0
    for c in coefs:
        total = total * w + c
    return total * w


def _li_log(n: int, z: complex | float) -> complex | float:
    """Li_n(z) for n >= 2 beyond the series radius: Crandall's expansion,
    through the duplication formula in the left half-plane."""
    if z.real >= 0.0:
        return _crandall(n, z)
    z2 = z * z
    even = _li_series(n, z2) if abs(z2) <= SERIES_RADIUS else _crandall(n, z2)
    return 2.0 ** (1 - n) * even - _crandall(n, -z)


def _crandall(n: int, z: complex | float) -> complex | float:
    """Crandall's expansion of Li_n(z) in powers of L = log z, n >= 2, |L| < 2*pi; in
    float arithmetic for a float z, which must then lie in (0, 1]."""
    if z == 1:
        return _zeta(n)
    log = math.log if isinstance(z, float) else cmath.log
    big_l = log(z)
    total = 0.0
    power = 1.0  # L**k / k!
    for k in range(n - 1):
        total += _zeta(n - k) * power
        power *= big_l / (k + 1)
    harmonic = _HARMONIC[n - 2] if n <= 8 else math.fsum(1.0 / j for j in range(1, n))
    total += power * (harmonic - log(-big_l))
    power *= big_l / n
    total -= 0.5 * power  # zeta(0) = -1/2
    # Odd negative arguments, k = n-1+2i: coef = zeta(1-2i) / zeta(2i) * L**k / k!.
    # Its modulus shrinks by at least q = |L|**2 / (2*pi)**2 per step, and so
    # does the term (zeta(2i) decreases), which bounds the tail geometrically.
    l_sq = big_l * big_l
    q = abs(l_sq) / _TWO_PI_SQ
    geo = q / (1.0 - q)
    coef = power * big_l * (-2.0 / (_TWO_PI_SQ * (n + 1)))
    for i in range(1, _MAX_LOG_TERMS):
        term = coef * _zeta(2 * i)
        total += term
        if abs(term) * geo <= _TOL * abs(total):
            break
        coef *= -(2 * i) * (2 * i + 1) * l_sq / (_TWO_PI_SQ * (n + 2 * i) * (n + 2 * i + 1))
    return total


def root_of_unity(k: int, m: int) -> complex:
    """exp(2*pi*i*k/m), computed from the angle, exact on the axes."""
    if m < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    k %= m
    if k == 0:
        return complex(1.0)
    if 2 * k == m:
        return complex(-1.0)
    if 4 * k == m:
        return 1j
    if 4 * k == 3 * m:
        return -1j
    return cmath.exp(2j * math.pi * k / m)

