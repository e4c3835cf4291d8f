"""The package's import graph: one exact-arithmetic path, and runtime code
kept apart from the test oracles.

Only ``mtcheck.linalg`` imports ``fractions``; every other runtime module
stays on integers or reaches rationals through linalg.  No runtime module
imports from ``tests/``, where the oracles live, and ``mtcheck.roots``, the
runtime types every layer uses, imports nothing from the package.  The
modules are parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "mtcheck"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(path: Path) -> set[str]:
    """Every module an import statement of path names, relative ones with
    their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def _top(name: str) -> str:
    return name.split(".")[0]


def test_package_is_found():
    assert {p.stem for p in MODULES} >= {"__init__", "linalg", "roots", "catalog"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_imports_fractions(path):
    uses_fractions = "fractions" in {_top(name) for name in _imports(path)}
    assert uses_fractions == (path.stem == "linalg")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_runtime_never_imports_tests(path):
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests", "conftest"}
    assert not {_top(name) for name in _imports(path)} & test_modules


def test_roots_imports_nothing_from_the_package():
    names = _imports(PACKAGE / "roots.py")
    assert not {n for n in names if n.startswith(".") or _top(n) == "mtcheck"}
