"""Span tracing around mtcheck's public functions, installed from outside
the program.

``install`` rebinds each wrapped function in every mtcheck module namespace
that holds it: modules import names such as ``descriptor`` and
``surviving_inners`` directly, so patching only the defining module would
miss those calls.  ``math.comb`` is bound separately in several modules;
only the binding in ``divisibility`` is counted.

Each call records a span (span id, parent span id, op id, name, start ns,
end ns).  Spans stay in memory until ``write_spans``.  A function's self
time is its spans' time minus the time of its wrapped children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

WRAPPED = {
    "linalg": ("rank", "mat_mul", "rref", "nullspace", "inverse", "det",
               "same_span", "row_space_contains"),
    "monodromy": ("build_instance", "random_symplectic", "verify_instance",
                  "verify_orthogonality", "verify_filtration", "is_form_compatible"),
    "exclusion": ("surviving_inners", "minuscule_candidates", "check_pair",
                  "theorem61_outer_shapes"),
    "catalog": ("descriptor",),
    "quadratic": ("quadratic_rank_profile",),
    "divisibility": ("divisibility_solutions", "gcd_mod4_check", "exception_pairs"),
    "checker": ("decide", "validate"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.op = 0
        self.rows = 0
        self.spans = []
        self._stack = []  # [span id, time of wrapped children] per open span
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.madds = 0
        self.cells = 0
        self.comb_calls = 0
        self.admissible = 0
        self.solutions = 0
        self.dims = set()

    def wrap(self, name, fn, note=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                spans.append((span_id, parent, self.op, name, start, end))
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def count_comb(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            self.comb_calls += 1
            return fn(*args)
        return counted

    def metrics(self) -> dict[str, float]:
        out = {}
        for module, names in WRAPPED.items():
            for fn in names:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.total_s"] = self.total_ns[name] / 1e9
                out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        candidates = self.calls["exclusion.minuscule_candidates"]
        pairs = self.calls["exclusion.check_pair"]
        out["linalg.mat_mul.madds"] = self.madds
        out["linalg.rank.cells"] = self.cells
        out["exclusion.rebuild_ratio"] = candidates / len(self.dims) if self.dims else 0.0
        out["exclusion.admissible_ratio"] = self.admissible / pairs if pairs else 0.0
        out["divisibility.comb.calls"] = self.comb_calls
        out["divisibility.hit_ratio"] = (self.solutions / self.comb_calls
                                         if self.comb_calls else 0.0)
        out["cli.rows"] = self.rows
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in sorted(self.spans):
                handle.write("\t".join(map(str, span)) + "\n")


def _note_mat_mul(tracer, args, result):
    a, b = args[0], args[1]
    tracer.madds += len(a) * len(b) * (len(b[0]) if b else 0)


def _note_rank(tracer, args, result):
    m = args[0]
    tracer.cells += len(m) * (len(m[0]) if m else 0)


def _note_candidates(tracer, args, result):
    tracer.dims.add(args[0])


def _note_check_pair(tracer, args, result):
    tracer.admissible += result.admissible


def _note_solutions(tracer, args, result):
    tracer.solutions += len(result)


NOTES = {"linalg.mat_mul": _note_mat_mul, "linalg.rank": _note_rank,
         "exclusion.minuscule_candidates": _note_candidates,
         "exclusion.check_pair": _note_check_pair,
         "divisibility.divisibility_solutions": _note_solutions}


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED wherever an mtcheck module binds it."""
    import mtcheck.cli  # noqa: F401  (so its bindings are patched as well)

    modules = [m for name, m in sys.modules.items()
               if name == "mtcheck" or name.startswith("mtcheck.")]
    for module, names in WRAPPED.items():
        home = sys.modules[f"mtcheck.{module}"]
        for fn in names:
            name = f"{module}.{fn}"
            original = getattr(home, fn)
            wrapper = tracer.wrap(name, original, NOTES.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    divisibility = sys.modules["mtcheck.divisibility"]
    divisibility.comb = tracer.count_comb(divisibility.comb)
