"""The benchmark under bench/ binds mtcheck names directly, and it changes
only in changes of its own.

Its traced run wraps every function listed in bench/tracing.py's WRAPPED
through getattr on the function's home module, and its passes import more
names, such as mtcheck.roots.FormClass.  Moving or renaming one of them
would pass every other test and then crash the benchmark, so these tests
resolve each name the benchmark reaches for.  The benchmark files are
parsed, not imported, so none of their code runs here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).parent.parent / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_traced_functions_resolve():
    wrapped = next(ast.literal_eval(node.value) for node in _parse(BENCH / "tracing.py").body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    assert "monodromy" in wrapped and "linalg" in wrapped
    for module, names in wrapped.items():
        home = importlib.import_module(f"mtcheck.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"mtcheck.{module}.{name}"
    # install() also rebinds this name to count its calls
    assert callable(importlib.import_module("mtcheck.divisibility").comb)


def test_bench_imports_resolve():
    imported = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mtcheck"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert ("mtcheck.roots", "FormClass") in imported
    for module, name in sorted(imported):
        # a fromlist imports a submodule of that name, as the import would
        assert hasattr(__import__(module, fromlist=[name]), name), f"{module}.{name}"
