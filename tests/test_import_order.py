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


def test_import_footprint_without_site():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
