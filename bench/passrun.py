"""One pass of a workload in a fresh interpreter.

    python3 bench/passrun.py WORKLOAD            # time the imports only
    python3 bench/passrun.py WORKLOAD SPEC.json  # time the imports, run the ops

The pass first times the import of mtcheck (and of mtcheck.cli on
check_batch), so import cost and any per-process cache or index are paid
inside the measurement.  It then runs the ops of its inputs file one at a
time on a single thread, and writes each op's output and latency, the time
spent in ops, the host factor and the peak RSS to the output file named in
SPEC.  With tracing on, the spans and per-layer totals are written too.  An
op that raises is recorded as having no output and the pass goes on.

The speed of a shared host drifts by tens of percent within seconds and
minutes.  So the pass times a fixed calibration loop before the first op,
after the last, and between ops about every 20 ms of op time.  The loop
imitates the interpreter work of its workload.  The host factor is a
calibration time divided by the loop's reference time.  Each op's latency
is divided by the median factor of the two samples before it and the two
after it; the import time and the per-layer times are divided by the median
factor of the pass.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_ERRORS = 5
CALIBRATE_EVERY_NS = 20_000_000
PROBE_SAMPLES = 9


def _import_program(workload: str) -> float:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import mtcheck
    if workload == "check_batch":
        import mtcheck.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(mtcheck.__file__)) != os.path.join(SRC, "mtcheck"):
        raise SystemExit(f"mtcheck imported from {mtcheck.__file__}, not {SRC}")
    return elapsed


def _integer_loop():
    """Small-integer, tuple, dict and sort work, like the exclusion ladder
    and the verdict rules."""
    from fractions import Fraction  # imported here so it stays out of setup_s

    acc, rows, table = 0, [], {}
    for i in range(1, 1201):
        x = (i * 7919 + 17) ** 4 // (i + 13)
        rows.append((x % 101, i, x))
        table[x % 211] = table.get(x % 211, 0) + 1
        acc += x % 1009
    q = Fraction(0)
    for i in range(1, 61):
        q += Fraction(i, i + 7)
    rows.sort()
    return acc + len(table) + q.numerator % 7 + rows[0][1]


def _fraction_loop():
    """Gauss-Jordan elimination over Fraction of a fixed 6 x 6 integer
    matrix, like the monodromy checks."""
    from fractions import Fraction

    n, x, rows = 6, 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(Fraction(x % 19 - 9))
        rows.append(row)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return rows


# The calibration loop of each workload, and its time at a host factor of 1.
# The small-integer loop does not slow down like Fraction elimination when
# the host is busy, so each workload is calibrated by the loop nearer its own
# work.
CALIBRATION = {"sweep": (_integer_loop, 900_000),
               "check_batch": (_integer_loop, 900_000),
               "monodromy": (_fraction_loop, 610_000)}


class HostSpeed:
    """Times the workload's calibration loop between ops."""

    def __init__(self, workload):
        self.loop, self.ref_ns = CALIBRATION[workload]
        self.samples = []
        self.busy_since = 0

    def sample(self):
        t0 = time.perf_counter_ns()
        self.loop()
        self.samples.append(time.perf_counter_ns() - t0)

    def after(self, busy_ns):
        """Called after each op with its duration; samples when due."""
        self.busy_since += busy_ns
        if self.busy_since >= CALIBRATE_EVERY_NS:
            self.busy_since = 0
            self.sample()

    def mark(self) -> int:
        """The index of the latest sample, taken before the next op."""
        return len(self.samples) - 1

    def factor(self, mark=None) -> float:
        """The factor around the op that followed ``mark``, or of the pass."""
        import statistics
        window = self.samples if mark is None else self.samples[max(0, mark - 1):mark + 3]
        return statistics.median(window) / self.ref_ns


def _timed_loop(ops, call, encode, tracer, errors, host):
    """[(output or None, latency ns over the host factor)] per op, and their
    total."""
    clock = time.perf_counter_ns
    results, marks = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        marks.append(host.mark())
        t0 = clock()
        try:
            value = call(op)
        except Exception as exc:  # a failing op is counted; the pass goes on
            results.append([None, clock() - t0])
            if len(errors) < MAX_ERRORS:
                errors.append(f"op {index} {op}: {exc!r}")
        else:
            ns = clock() - t0
            results.append([encode(op, value), ns])
        host.after(results[-1][1])
    host.sample()
    for result, mark in zip(results, marks):
        result[1] /= host.factor(mark)
    return results, sum(ns for _, ns in results)


def run_sweep(ops, tracer, errors, host):
    from mtcheck import divisibility, exclusion
    from mtcheck.roots import FormClass

    forms = {"nsd": FormClass.NON_SELF_DUAL, "symp": FormClass.SYMPLECTIC}
    calls = {
        "survivors": lambda n, form, r: exclusion.surviving_inners(n, forms[form], r),
        "lemma": lambda m: divisibility.divisibility_solutions(m),
        "mod4": lambda m: divisibility.gcd_mod4_check(m),
        "pairs": lambda g: divisibility.exception_pairs(g),
    }
    encoders = {
        "survivors": lambda value: [e.label for e in value],
        "lemma": lambda value: [list(p) for p in value],
        "mod4": list,
        "pairs": lambda value: [[p.g, p.r] for p in value],
    }
    return _timed_loop(ops, lambda op: calls[op[0]](*op[1:]),
                       lambda op, value: encoders[op[0]](value), tracer, errors, host)


def run_monodromy(ops, tracer, errors, host):
    from dataclasses import replace

    from mtcheck import monodromy

    built = {}

    def call(op):
        kind, g, r, seed = op
        if kind == "instance":
            built.clear()
            built[seed] = inst = monodromy.build_instance(g, r, seed)
            return monodromy.verify_instance(inst)
        # perturb W by a vector of V^I outside it, as acceptance criterion 7 does
        inst = built[seed]
        outside = inst.inertia_invariants[-1]
        first = tuple(a + b for a, b in zip(inst.toric_sub[0], outside))
        bad = replace(inst, toric_sub=(first,) + inst.toric_sub[1:])
        return monodromy.verify_orthogonality(bad)

    return _timed_loop(ops, call, lambda op, value: value, tracer, errors, host)


class LineCapture:
    """Stands in for stdout; records each finished line and when it ended."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.start = 0
        self.lines, self.ns, self._parts = [], [], []

    def reset(self, start):
        self.start = start
        self.lines, self.ns, self._parts = [], [], []

    def write(self, text):
        now = time.perf_counter_ns()
        pieces = text.split("\n")
        self._parts.append(pieces[0])
        for piece in pieces[1:]:
            self.lines.append("".join(self._parts))
            self.ns.append(now - self.start)
            self._parts = [piece]
            if self.tracer is not None:
                self.tracer.op += 1
                self.tracer.rows += 1
        return len(text)

    def flush(self):
        pass


def run_check_batch(paths, tracer, errors, host):
    """Each batch file goes through an in-process ``mtcheck check --file``.
    A row's latency runs from the end of the previous record (or the start
    of the call) to the end of its own record."""
    from mtcheck import cli

    capture = LineCapture(tracer)
    results, marks = [], []
    real_out, real_err = sys.stdout, sys.stderr
    clock = time.perf_counter_ns
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for path in paths:
            error = None
            marks.append(host.mark())
            start = clock()
            capture.reset(start)
            sys.stdout, sys.stderr = capture, sink
            try:
                status = cli.main(["check", "--file", path, "--format", "machine"])
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # recorded against the file; the pass goes on
                status, error = None, repr(exc)
            finally:
                sys.stdout, sys.stderr = real_out, real_err
            elapsed = clock() - start
            host.after(elapsed)
            if error and len(errors) < MAX_ERRORS:
                errors.append(f"{path}: {error}")
            results.append({"status": status, "lines": capture.lines,
                            "ns": capture.ns, "elapsed": elapsed, "error": error})
    host.sample()
    busy = 0
    for result, mark in zip(results, marks):
        factor = host.factor(mark)
        result["ns"] = [ns / factor for ns in result["ns"]]
        busy += result.pop("elapsed") / factor
    return results, busy


RUNNERS = {"sweep": run_sweep, "monodromy": run_monodromy,
           "check_batch": run_check_batch}


def _peak_rss_kb() -> int:
    """Peak RSS of this process's own address space.  ru_maxrss is not used
    where /proc is readable: a child started by fork or vfork keeps the
    parent's resident size in it across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    workload = argv[0]
    import_s = _import_program(workload)
    import json

    host = HostSpeed(workload)
    if len(argv) == 1:
        for _ in range(PROBE_SAMPLES):
            host.sample()
        print(json.dumps({"import_s": import_s / host.factor(), "host": host.factor()}))
        return 0

    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(spec["inputs"], encoding="utf-8") as handle:
        ops = json.load(handle)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    errors = []
    host.sample()
    results, busy_ns = RUNNERS[workload](ops, tracer, errors, host)
    rss_kb = _peak_rss_kb()
    factor = host.factor()
    out = {"import_s": import_s / factor, "busy_ns": busy_ns, "host": factor,
           "rss_kb": rss_kb, "results": results, "errors": errors}
    if tracer is not None:
        out["layers"] = {name: value / factor if name.endswith("_s") else value
                         for name, value in tracer.metrics().items()}
        if spec["spans"]:
            tracer.write_spans(spec["spans"])
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
