"""Every module of the package imports first in a fresh interpreter.

The route table imports the kernels of series, closed_forms and integral_reps, and their
public entries call the route table: each import below runs that cycle from the start.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["invbinom"] + sorted(
    f"invbinom.{path.stem}" for path in (SRC / "invbinom").glob("*.py") if path.stem != "__init__"
)
# one call through the cycle, so that a half-bound name fails here too
PROBE = "import invbinom; assert invbinom.sum_direct(2, 1, 0.5).work == 14"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}; {PROBE}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Without ``site`` (which may preload typing through a .pth file) the package and its CLI
# load none of these standard-library modules: the value types are plain named tuples.
HEAVY_MODULES = ("dataclasses", "typing", "inspect")
FOOTPRINT = (
    "import sys, invbinom, invbinom.cli; invbinom.evaluate(2, 1, 0.5); "
    f"print(*[name for name in {HEAVY_MODULES!r} if name in sys.modules])"
)


def _run_without_site(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_footprint_without_site():
    assert _run_without_site(FOOTPRINT).split() == []


# The package alone (the CLI imports json for its output) loads neither json nor functools,
# and builds a series table only where a direct sum reads it: auto takes quad-cardano at
# (3, 1, 0.5). A direct sum at stride m and weight n builds the factor table, the step table
# of m and the weight table of n, where m and n have one (1..8).
TABLES = (
    "import sys, invbinom\n"
    "from invbinom import series\n"
    "invbinom.evaluate(3, 1, 0.5)\n"
    "print([name for name in ('json', 'functools') if name in sys.modules])\n"
    "print(sorted(series._STEP_TABLES), sorted(series._WEIGHT_TABLES))\n"
    "invbinom.sum_direct({n}, {m}, 0.9 * series.convergence_radius({m}))\n"
    "print(sorted(series._STEP_TABLES), sorted(series._WEIGHT_TABLES))\n"
    "print([name for name in ('json', 'functools') if name in sys.modules])\n"
)


@pytest.mark.parametrize(
    "n,m,steps,weights",
    [(0, 1, [1], []), (2, 3, [1, 3], [2]), (4, 8, [1, 8], [4]), (1, 9, [1], [1]), (9, 2, [1, 2], [])],
)
def test_the_package_loads_no_json_and_builds_series_tables_on_first_use(n, m, steps, weights):
    lines = _run_without_site(TABLES.format(n=n, m=m)).splitlines()
    assert lines == ["[]", "[] []", f"{steps} {weights}", "[]"]
