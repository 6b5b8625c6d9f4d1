"""References of tests/data/quad_polylog_stride_refs.json, the stride-m quad-polylog grid.

The grid: n 1..6, m 1..11, |x| = rho (27/4)**m with rho in {0.5, 0.99, 1 - 1e-6} and, for
n >= 2, the rim rho = 1, at the eight angles k pi/4 (exact on the axes; a point rounded
past the rim is pulled in by ulps). Each reference comes from ``perfbench/oracle.py``,
which shares no code with the package's quadrature: fixed-point big-integer summation of
the series inside 0.995 of the radius, and an mpmath fold to stride 1 at 24 and 32 digits
beyond it. Rows are [n, m, x_re, x_im, ref_re, ref_im], the references rounded to binary64.

Needs mpmath; about 15 minutes on two processes. Run from the repository root:
python3 tools/quad_polylog_refs.py [workers]
"""

import json
import math
import multiprocessing
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import oracle  # noqa: E402

from invbinom.errors import DomainError  # noqa: E402
from invbinom.series import SeriesParams  # noqa: E402

R = 27 / 4
C = math.sqrt(0.5)
UNITS = ((1.0, 0.0), (C, C), (0.0, 1.0), (-C, C), (-1.0, 0.0), (-C, -C), (0.0, -1.0), (C, -C))
OUT = ROOT / "tests" / "data" / "quad_polylog_stride_refs.json"


def points():
    for n in range(1, 7):
        for m in range(1, 12):
            for rho in (0.5, 0.99, 1 - 1e-6, 1.0):
                if rho == 1.0 and n < 2:
                    continue
                r = rho * R**m
                for ux, uy in UNITS:
                    x = complex(r * ux, r * uy)
                    while True:
                        try:
                            SeriesParams.require_summable(n, m, x)
                            break
                        except DomainError:
                            x = complex(x.real * (1 - 2**-52), x.imag * (1 - 2**-52))
                    yield n, m, x


def reference(point):
    n, m, x = point
    ref = oracle.Oracle()(n, m, x)
    return [n, m, x.real, x.imag, float(ref.re), float(ref.im)]


if __name__ == "__main__":
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        rows = pool.map(reference, list(points()), chunksize=1)
    OUT.parent.mkdir(exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
