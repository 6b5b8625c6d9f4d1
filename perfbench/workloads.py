"""Seeded inputs of the benchmark workloads.

Standard library only; nothing here imports invbinom. Each generator returns
one *pass*: a list of ``Case(n, m, x, method)`` that the timed loop replays
whole, again and again. The passes are stratified: every seed draws the same
number of cases from every stratum of (weight, stride, radius band, axis),
and only the positions inside a stratum are random, so the work in a pass,
and with it the throughput and latency percentiles, depends little on the
seed. The library keeps no caches, so replaying a pass measures the same
work each time.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

R = 27.0 / 4.0
TWO_PI = 2.0 * math.pi

# Seed-independent |x| / R**m values of the rim workload.
RIM_RHOS = (1.0, 1.0 - 1e-3, 1.0 - 1e-4)


@dataclass(frozen=True)
class Case:
    n: int
    m: int
    x: complex
    method: str


def radius(m: int) -> float:
    """(27/4)**m, rounded exactly as the library rounds it."""
    return R**m


# Complex points are kept this far (relative) inside the rim. Exactly on it,
# the root that ``fold`` takes of x can round to a modulus above 27/4, which
# the stride-1 closed form then refuses (S(2,2;x) raises DomainError for some
# x with |x| = (27/4)**2), and the benchmark admits no failing op.
COMPLEX_MARGIN = 1e-14


def clamp(x: complex, limit: float) -> complex:
    """Step both components of x towards 0 until |x| <= limit.

    R**m * exp(i theta) can round to a modulus one ulp above R**m, which lies
    outside the convergence disk; the library rightly refuses it.
    """
    re, im = x.real, x.imag
    while abs(complex(re, im)) > limit:
        re = math.nextafter(re, 0.0)
        im = math.nextafter(im, 0.0)
    return complex(re, im)


def point(rho: float, m: int, axis: str, theta: float) -> complex:
    """x = rho * R**m on the positive ('+') or negative ('-') real axis, or
    at angle theta ('c'), clamped onto the closed disk."""
    rad = radius(m)
    if axis == "+":
        return complex(rho * rad, 0.0)
    if axis == "-":
        return complex(-rho * rad, 0.0)
    return clamp(rho * rad * cmath.exp(1j * theta), rad * (1.0 - COMPLEX_MARGIN))


def _angle(rng: random.Random) -> float:
    """Uniform angle off the real axis (the axes are their own strata)."""
    while True:
        theta = rng.uniform(0.0, TWO_PI)
        if math.sin(theta) != 0.0:
            return theta


def _linear_grid(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """Midpoints of ``count`` equal cells of [lo, hi], each moved by a seeded
    factor in [e**-0.05, e**0.05] on 1 - rho.

    A grid, not independent uniform draws: the cost of an op grows like
    1 / (1 - rho), so a free draw near the top of the range would set the
    cost of the whole pass.
    """
    width = (hi - lo) / count
    out = []
    for i in range(count):
        rho = lo + width * (i + 0.5)
        out.append(min(hi, max(lo, 1.0 - (1.0 - rho) * math.exp(rng.uniform(-0.05, 0.05)))))
    return out


def _log_grid(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """Midpoints of ``count`` equal cells of [log lo, log hi], each moved by
    a seeded tenth of a cell at most."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [math.exp(a + width * (i + 0.5 + rng.uniform(-0.1, 0.1))) for i in range(count)]


AXES = ("-", "+", "c")

# interior: m = 1 weighted 4, the other strides 1 each. m in {7, 8} is left out:
# ``auto`` raises there (fold caps m at 6) and the benchmark admits no failing op.
INTERIOR_M = {1: 4, 2: 1, 3: 1, 4: 1, 6: 1}
INTERIOR_PER_CELL = 3


def interior(seed: int) -> list[Case]:
    """``auto`` over n in 0..4 on both real half-axes and at complex angles,
    with |x|/R**m in equal shares from a log grid on [1e-9, 0.3] and a
    linear grid on [0.3, 0.99]."""
    rng = random.Random(f"interior:{seed}")
    cases = []
    for n in (3, 4, 0, 1, 2):
        for m, weight in INTERIOR_M.items():
            count = INTERIOR_PER_CELL * weight
            for axis in AXES:
                rhos = _log_grid(rng, 1e-9, 0.3, count) + _linear_grid(rng, 0.3, 0.99, count)
                for rho in rhos:
                    cases.append(Case(n, m, point(rho, m, axis, _angle(rng)), "auto"))
    return cases


RIM_M = (1, 2)
RIM_SECTORS = 8
RIM_CHOICES = 4


def _rim_angle(sector: int, choice: int) -> float:
    """Angle ``choice`` of RIM_CHOICES fixed angles near the middle of
    ``sector``, spread over a fifth of it.

    A narrow set: the cost of a case near the positive axis grows steeply as
    its angle nears 0, and wide choices would make the p90 depend on the
    seed. A finite set: the references of rim points cost up to seconds each
    in mpmath, so they are computed once for every point the generator can
    produce (``rim_universe``) and stored in rim_refs.json.
    """
    offset = 0.2 * ((choice + 0.5) / RIM_CHOICES - 0.5)
    return TWO_PI / RIM_SECTORS * (sector + 0.5 + offset)


def _rim_points(choices):
    """(n, m, x) of the rim cases; ``choices()`` gives the angle choices
    taken in each sector."""
    for n in (3, 4, 2):
        for m in RIM_M:
            for rho in RIM_RHOS:
                for axis in ("-", "+"):
                    yield n, m, point(rho, m, axis, 0.0)
                for sector in range(RIM_SECTORS):
                    for choice in choices():
                        yield n, m, point(rho, m, "c", _rim_angle(sector, choice))


def rim(seed: int) -> list[Case]:
    """``auto`` with n in 2..4, m in {1, 2}, |x|/R**m in RIM_RHOS, on both
    real half-axes (seed-independent) and at one seeded angle in each of
    RIM_SECTORS equal sectors. The sectors hold most of the cases, so the
    heaviest ones, on the positive axis, stay below 10% of a pass and the
    p90 falls among the angled ones."""
    rng = random.Random(f"rim:{seed}")
    return [Case(n, m, x, "auto") for n, m, x in _rim_points(lambda: [rng.randrange(RIM_CHOICES)])]


def rim_universe() -> list[tuple[int, int, complex]]:
    """Every (n, m, x) that ``rim`` can produce, for any seed."""
    return list(_rim_points(lambda: range(RIM_CHOICES)))


DIRECT_PER_CELL = 4


def direct(seed: int) -> list[Case]:
    """``direct-sum`` with n in 0..4, m in 1..8, |x|/R**m on a linear grid
    on [0.5, 0.999], on both real half-axes and at complex angles."""
    rng = random.Random(f"direct:{seed}")
    cases = []
    for n in range(5):
        for m in range(1, 9):
            for axis in AXES:
                for rho in _linear_grid(rng, 0.5, 0.999, DIRECT_PER_CELL):
                    cases.append(Case(n, m, point(rho, m, axis, _angle(rng)), "direct-sum"))
    return cases


VERIFY_ARGV = ("verify", "--suite", "all", "--output", "json")


def verify(seed: int) -> list[Case]:
    """One op: the in-process CLI run of the whole verify suite. The seed is
    ignored; the suite's points are fixed."""
    return [Case(0, 0, 0j, "verify")]


GENERATORS = {"interior": interior, "rim": rim, "verify": verify, "direct": direct}
