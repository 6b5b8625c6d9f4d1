"""Break-even of ``auto``'s cost rule: direct summation against the routes it passes over.

For each weight n, stride m and angle (0, 0.7 and pi), the script sweeps
rho = |x| / R**m upwards over RHOS and times the routes at x = rho R**m e**(i angle),
each through ``evaluate`` (the minimum over ``--repeats`` batches of calls, the routes
alternating batch by batch):

* ``direct-sum``, whose cost grows with its term count K;
* the routes ``auto`` takes instead: ``folding`` at m >= 2 (over ``quad-cardano`` for
  n >= 3, over ``closed-form`` for n <= 2), ``quad-cardano`` at m = 1 for n >= 3, and at
  m 2..6 for n 3..8 also ``quad-cardano``'s series in sigma, where |sigma| <= S_MAX (it
  refuses near x = R**m on the positive axis, and those points are left out of its
  comparison).

A sweep's break-even against a route is the first term count at which direct summation
was the slower, interpolated linearly in the time difference between the last point where
it was the faster and that one; a sweep stops once direct summation has been the slower
than every route at three points in a row. Where direct summation was never the slower, up
to rho = 0.995, the sweep has no break-even: it counts as above every budget (inf). The
budgets in ``routes`` were measured against folding, and decide only where folding is the
alternative. The break-even against the series in sigma, printed next to it, is the
evidence for the rule that ``auto`` takes that series wherever it serves, ahead of any
budget: direct summation was never the faster there. Per route and weight the script
prints each sweep's break-even, and the median and range per unit of stride in both
forms that ``routes`` can use, K / m and K / (m - 1). With each it prints, at each
angle, the spread over the strides (interquartile range over median): a budget of one
form fits every stride only where that spread is small. At m = 1 there is no
break-even to fit: the script times every point and counts those at which direct
summation was the faster.

Standard library only; run from the root of a source checkout:

    python3 tools/auto_break_even.py                 # n 3..8, m 1..6 (about 4 minutes)
    python3 tools/auto_break_even.py --weights 0 1 2 --strides 2 3 4 5 6
"""

from __future__ import annotations

import argparse
import cmath
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invbinom import evaluate  # noqa: E402
from invbinom.routes import ROUTES  # noqa: E402
from invbinom.series import convergence_radius  # noqa: E402

RHOS = (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.15, 0.2, 0.25)
RHOS += tuple(0.3 + 0.025 * i for i in range(27)) + (0.97, 0.98, 0.99, 0.995)
# x / |x| by angle: the real axes exactly (cmath.exp(1j * pi) leaves an imaginary part,
# and complex arithmetic costs direct summation about twice as much per term)
UNITS = {0.0: 1.0, 0.7: cmath.exp(0.7j), math.pi: -1.0}
BATCH_S = 1e-3  # each batch of calls lasts at least this long


def _per_call(fn, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def _times(direct, others, repeats: int) -> tuple[float, list[float]]:
    """Minimum seconds per call of direct summation and of each other route, batches
    alternating between them."""
    number = max(1, int(BATCH_S / max(_per_call(fn, 1) for fn in (direct, *others))))
    best_direct, best = math.inf, [math.inf] * len(others)
    for _ in range(repeats):
        best_direct = min(best_direct, _per_call(direct, number))
        best = [min(b, _per_call(fn, number)) for b, fn in zip(best, others)]
    return best_direct, best


def _others(n: int, m: int) -> tuple[str, ...]:
    """The routes auto takes in place of direct summation at (n, m), by name."""
    if m == 1:
        return ("quad-cardano",)
    return ("folding", "quad-cardano") if 3 <= n <= 8 and m <= 6 else ("folding",)


def _sweep(n: int, m: int, theta: float, repeats: int):
    """(terms, direct seconds, {route: seconds}) at each rho, a route left out where it
    refuses x; at m >= 2 only until direct summation has lost to every route three in a
    row."""
    points, behind = [], 0
    for rho in RHOS:
        x = rho * convergence_radius(m) * UNITS[theta]
        terms = evaluate(n, m, x, "direct-sum").work
        names = [name for name in _others(n, m) if ROUTES[name].refuses(n, m, x) is None]
        t_direct, t_others = _times(
            lambda: evaluate(n, m, x, "direct-sum"),
            [lambda name=name: evaluate(n, m, x, name) for name in names],
            repeats,
        )
        points.append((terms, t_direct, dict(zip(names, t_others))))
        behind = behind + 1 if all(t_direct > t for t in t_others) else 0
        if behind == 3 and m > 1:
            break
    return points


def _break_even(points, name: str) -> tuple[float, bool]:
    """Against route ``name``, over the points it serves: the interpolated first term count
    at which direct summation was the slower, and True; where it never was, the last term
    count, a lower bound, and False."""
    served = [(terms, d, others[name]) for terms, d, others in points if name in others]
    for i, (terms, t_direct, t_other) in enumerate(served):
        if t_direct > t_other:
            if i == 0:
                return terms, True
            k0, d0, o0 = served[i - 1]
            lead, lag = o0 - d0, t_direct - t_other
            return k0 + (terms - k0) * lead / (lead + lag), True
    return served[-1][0], False


def _spread(values) -> float:
    """Interquartile range over median."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2


def report(n: int, strides, repeats: int) -> None:
    # (route, form) -> {(angle, m): break-even per unit of stride}; inf where never crossed
    per_unit = {}
    faster_at_one = total_at_one = 0
    for m in strides:
        for theta in UNITS:
            points = _sweep(n, m, theta, repeats)
            if m == 1:
                faster_at_one += sum(d < o["quad-cardano"] for _, d, o in points)
                total_at_one += len(points)
                continue
            shown = []
            for name in _others(n, m):
                k, crossed = _break_even(points, name)
                shown.append(f"vs {name} " + (f"{k:.0f}" if crossed else f"above {k} (never)"))
                k = k if crossed else math.inf
                per_unit.setdefault((name, "m"), {})[theta, m] = k / m
                per_unit.setdefault((name, "m - 1"), {})[theta, m] = k / (m - 1)
            print(f"  n={n} m={m} angle={theta:.2f}: break-even terms {', '.join(shown)}",
                  flush=True)
    if total_at_one:
        print(f"n={n} m=1: direct-sum the faster at {faster_at_one} of {total_at_one} points")
    for (name, form), by_sweep in per_unit.items():
        values = sorted(by_sweep.values())
        spreads = []
        for theta in UNITS:
            row = [v for (t, _), v in by_sweep.items() if t == theta]
            if len(row) >= 2 and math.isfinite(max(row)):
                spreads.append(f"{_spread(row):.2f}")
        print(
            f"n={n} vs {name}, break-even per {form}: median {statistics.median(values):.1f},"
            f" range {values[0]:.1f}..{values[-1]:.1f} over {len(values)} sweeps; spread over"
            f" strides at each angle {' '.join(spreads) or '-'}"
        )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--weights", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8])
    ap.add_argument("--strides", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    for n in args.weights:
        report(n, [m for m in args.strides if n >= 3 or m >= 2], args.repeats)


if __name__ == "__main__":
    main()
