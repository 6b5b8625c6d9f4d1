"""The runtime is standard-library only: every import in src/invbinom is the
package itself or a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "invbinom").glob("*.py"))


def _imported_modules(tree: ast.AST):
    """(line, top-level module name) of every import; None for relative imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.split(".")[0]


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "routes.py", "integral_reps.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_the_package_or_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [
        (line, name)
        for line, name in _imported_modules(tree)
        if name is not None and name != "invbinom" and name not in sys.stdlib_module_names
    ]
    assert not foreign, f"{path.name} imports outside the standard library: {foreign}"
