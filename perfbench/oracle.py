"""Reference values of S(n, m; x) that share no code with ``src/``.

    S(n, m; x) = sum_{k >= 1} x**k / (k**n * C(3mk, mk))

Two methods, chosen by how close |x| is to the radius R**m, R = 27/4:

* Inside the disk (|x| <= NEAR_RIM * R**m) every binary64 ``x`` is an exact
  dyadic rational, so the series is summed in fixed-point big integers
  (scale 2**-PREC) with an exact term recurrence. The error bound is
  rigorous: the rounding of each floor division plus the geometric tail
  bound |t_{K+1}| / (1 - |x| q_{K+1}), which holds because the binomial
  ratio q_k = C(3mk, mk) / C(3m(k+1), m(k+1)) decreases in k.
* On and near the rim, stride m folds to stride 1 inside mpmath,
  S(n, m; x) = m**(n-1) * sum_j S(n, 1; w**j x**(1/m)), w = exp(2 pi i/m),
  and each stride-1 value is, for real arguments, ``mpmath.hyper``

      S(n, 1; x) = (x/3) * F([1]*(n+1) + [3/2, 2]; [2]*n + [4/3, 5/3]; 4x/27),

  and for complex ones mpmath's quadrature of the polylog kernel. Both run
  at two working precisions whose difference is the error estimate.

``Reference`` values are cached per exact input (``float.hex`` of both
components), so repeated inputs cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

R = 27.0 / 4.0
NEAR_RIM = 0.995
PREC = 192  # fixed-point fraction bits
_STOP = 2.0**-120  # tail bound target, relative to the running |sum|
_MP_DPS = (24, 32)


@dataclass(frozen=True)
class Reference:
    """value: an exact rational pair (re, im); err: a bound on |value - S|."""

    re: Fraction
    im: Fraction
    err: float

    @property
    def value(self) -> complex:
        return complex(float(self.re), float(self.im))

    def distance(self, z: complex) -> float:
        """|z - value|, computed exactly before the final rounding."""
        dr = Fraction(z.real) - self.re
        di = Fraction(z.imag) - self.im
        return math.hypot(float(dr), float(di))


def key(n: int, m: int, x: complex) -> str:
    return f"{n}:{m}:{float(x.real).hex()}:{float(x.imag).hex()}"


class Oracle:
    """Reference values, cached by exact input."""

    def __init__(self, table: dict[str, Reference] | None = None) -> None:
        self._cache: dict[str, Reference] = dict(table or {})

    def __call__(self, n: int, m: int, x: complex) -> Reference:
        x = complex(x)
        k = key(n, m, x)
        ref = self._cache.get(k)
        if ref is None:
            if abs(x) <= NEAR_RIM * R**m:
                ref = fixed_point_sum(n, m, x)
            else:
                ref = mpmath_fold(n, m, x)
            self._cache[k] = ref
        return ref


def _ratio(k: int, m: int) -> tuple[int, int]:
    """q_k = C(3mk, mk) / C(3m(k+1), m(k+1)) as an exact (num, den) pair."""
    num = math.prod(range(m * k + 1, m * k + m + 1)) * math.prod(
        range(2 * m * k + 1, 2 * m * k + 2 * m + 1)
    )
    den = math.prod(range(3 * m * k + 1, 3 * m * k + 3 * m + 1))
    return num, den


def fixed_point_sum(n: int, m: int, x: complex, max_terms: int = 2_000_000) -> Reference:
    """S(n, m; x) for |x| < R**m by exact-recurrence fixed-point summation."""
    if x == 0:
        return Reference(Fraction(0), Fraction(0), 0.0)
    xr, xi = Fraction(x.real), Fraction(x.imag)
    # x = (a + i b) / 2**e with integers a, b
    e = max(xr.denominator, xi.denominator).bit_length() - 1
    a = xr.numerator << (e - (xr.denominator.bit_length() - 1))
    b = xi.numerator << (e - (xi.denominator.bit_length() - 1))
    absx = abs(x)
    one = 1 << PREC
    c0 = math.comb(3 * m, m)
    # u_k = x**k / C(3mk, mk) in fixed point
    ur = (a << PREC) // (c0 << e)
    ui = (b << PREC) // (c0 << e)
    sr = si = 0
    steps = 0
    for k in range(1, max_terms + 1):
        kn = k**n
        sr += ur // kn
        si += ui // kn
        steps = k
        num, den = _ratio(k, m)
        # u_{k+1} = u_k * x * q_k
        pr = (ur * a - ui * b) >> e
        pi = (ur * b + ui * a) >> e
        ur = pr * num // den
        ui = pi * num // den
        r = absx * num / den  # bounds every later ratio |t_{j+1} / t_j|, j > k
        if r < 1.0 and math.hypot(ur, ui) / (1.0 - r) <= _STOP * math.hypot(sr, si) + 1.0:
            break
    else:
        raise ArithmeticError(f"fixed-point sum did not converge for S({n},{m};{x!r})")
    # Rounding: each step adds < 3 units to the error of u_k and amplifies it
    # by |x| q_k, whose products stay below 2 sqrt(k) (|u_k| grows at most
    # like sqrt(k) inside the disk), so every term is off by < 6 k**1.5
    # units and the sum by < 6 K**2.5. The tail bound drops the (k+1)**-n
    # factor and is padded by 2 for the float evaluation of r and the norm.
    ulp = 2.0**-PREC
    rounding = 6.0 * steps**2.5 * ulp
    tail = 2.0 * (math.hypot(ur, ui) + 6.0 * steps**1.5) * ulp / (1.0 - r)
    return Reference(Fraction(sr, one), Fraction(si, one), rounding + tail)


def _hyper_stride1(mp, n: int, z):
    """S(n, 1; z) for real z, by mpmath's hypergeometric sum."""
    num = [1] * (n + 1) + [mp.mpf(3) / 2, 2]
    den = [2] * n + [mp.mpf(4) / 3, mp.mpf(5) / 3]
    return z / 3 * mp.hyper(num, den, 4 * z / 27)


def _quad_stride1(mp, n: int, z):
    """S(n, 1; z) as mpmath's tanh-sinh quadrature of Li_{n-1}(z t (1-t)**2) / t.

    For complex z near the rim mpmath's hypergeometric sum can fail to
    converge (near arg z = 0). The interval is split at t = 1/3, where
    |z t (1-t)**2| peaks, so that the near-singularity sits at an endpoint.
    """

    def f(t):
        w = z * t * (1 - t) ** 2
        if n == 2 and w == 1:
            return mp.mpf(0)  # the log-singular endpoint node; its weight is nil
        return mp.polylog(n - 1, w) / t

    return mp.quad(f, [0, mp.mpf(1) / 3, 1])


def mpmath_fold(n: int, m: int, x: complex) -> Reference:
    """S(n, m; x) near or on the rim (n >= 2 there), folded to stride 1 in
    mpmath, at two working precisions whose difference bounds the error."""
    import mpmath

    mp = mpmath.mp
    values = []
    for dps in _MP_DPS:
        with mp.workdps(dps):
            xc = mp.mpc(x.real, x.imag)
            root = mp.root(xc, m)
            total = mp.mpc(0)
            for j in range(m):
                z = root if j == 0 else root * mp.expjpi(mp.mpf(2 * j) / m)
                if mp.im(z) == 0:
                    total += _hyper_stride1(mp, n, mp.re(z))
                else:
                    total += _quad_stride1(mp, n, z)
            total *= mp.mpf(m) ** (n - 1)
            if x.imag == 0:
                total = mp.mpc(mp.re(total), 0)
            values.append(total)
    lo, hi = values
    with mp.workdps(_MP_DPS[1]):
        err = float(abs(hi - lo)) + float(abs(hi)) * 10.0 ** -_MP_DPS[0]
        re = _to_fraction(mp.re(hi))
        im = _to_fraction(mp.im(hi))
    return Reference(re, im, err)


def _to_fraction(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def write_rim_table(path) -> None:
    """Store the references of every point the rim workload can produce."""
    import json

    import workloads

    oracle = Oracle()
    out = {}
    for n, m, x in workloads.rim_universe():
        ref = oracle(n, m, x)
        out[key(n, m, x)] = [str(ref.re), str(ref.im), ref.err]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import pathlib

    write_rim_table(pathlib.Path(__file__).resolve().parent / "rim_refs.json")
