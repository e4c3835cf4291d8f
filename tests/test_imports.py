"""The package's import graph: one exact-arithmetic path, and runtime code
kept apart from the test oracles.

Only ``mtcheck.linalg`` imports ``fractions``, and inside it only the
Gauss-Jordan oracles ``rref``, ``inverse`` and ``nullspace`` name
``Fraction``: every other runtime module and every kernel of linalg stays
on integers, and ``nullspace`` hands back integer vectors.  No runtime module
imports from ``tests/``, where the oracles live, and ``mtcheck.roots``, the
runtime types every layer uses, imports nothing from the package.  The
exclusion engine and the quadratic rank data build no Lie type: they look
modules of a dimension up in ``mtcheck.catalog`` and never work out a rank
themselves.  The modules are parsed, not imported, except by the package
check, which imports the package to see that it binds its modules and no
other name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

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


def test_only_the_gauss_jordan_oracles_name_fraction():
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    owners = {getattr(top, "name", "<module level>") for top in tree.body
              if any(isinstance(node, ast.Name) and node.id == "Fraction"
                     for node in ast.walk(top))}
    assert owners == {"rref", "inverse", "nullspace"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_runtime_never_imports_tests(path):
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests", "conftest"}
    assert not {_top(name) for name in _imports(path)} & test_modules


def test_roots_imports_nothing_from_the_package():
    names = _imports(PACKAGE / "roots.py")
    assert not {n for n in names if n.startswith(".") or _top(n) == "mtcheck"}


def test_package_binds_only_its_modules():
    # every name is imported from its own module, so the package re-exports
    # none; importing it loads every module but the command line
    package = importlib.import_module("mtcheck")
    public = {name: value for name, value in vars(package).items()
              if not name.startswith("_")}
    assert all(isinstance(value, ModuleType) for value in public.values()), public
    assert set(public) >= {p.stem for p in MODULES} - {"__init__", "cli"}


@pytest.mark.parametrize("name", ["exclusion.py", "quadratic.py"])
def test_dimension_lookups_stay_in_the_catalog(name):
    """These modules build no LieType: a type of a computed rank would be
    a dimension lookup outside the catalog."""
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "LieType"]
    assert not calls, [ast.unparse(call) for call in calls]
