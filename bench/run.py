"""Benchmark of mtcheck: the arithmetic sweep, seeded monodromy instances and
batch verdicts, measured end to end and, in a traced run, per module.

    python3 bench/run.py --workload {sweep,monodromy,check_batch} \\
        --seed N --seconds S --trace {0,1}

The inputs are generated from the seed.  Passes of them then run one after
another, each in a fresh single-threaded interpreter (bench/passrun.py),
until the time is spent; every output is checked.  Every time is divided by
a host factor measured next to it (see passrun.py), so a drifting host
speed does not show as a change of the program.  Each metric is printed
by name with its unit, and the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones.  With --trace 1 each untraced pass is
followed by a traced pass of the same inputs, and the metrics are the
per-module ones plus the tracing overhead.  Generated inputs, pass outputs,
spans and result.json go to bench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "monodromy", "check_batch")
PROBES = 7           # import-only interpreters per run, after one warm-up
MIN_ROUNDS = 2
# An untraced run goes on past --seconds until this many ops completed, so
# that p99 has at least ten samples beyond it (monodromy needs this).
MIN_OPS = {"full": 1000, "tiny": 0}
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_p99_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run or a pass crashed; no result is printed."""


@dataclass
class Pass:
    """One pass; its times are already divided by the host factor."""

    host: float
    import_s: float
    busy_s: float    # time spent in ops
    rss_kb: int
    statuses: list   # (status, latency ns or None) per op
    problems: list
    errors: list
    layers: dict | None

    @property
    def ok(self) -> int:
        return sum(1 for status, _ in self.statuses if status == "ok")


def _interpreter(args, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "passrun.py"), *args],
                              capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} ran over {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _probe(workload: str) -> float:
    return json.loads(_interpreter([workload], 60))["import_s"]


def _run_pass(workload, job, work: Path, tag: str, index: int, traced: bool) -> Pass:
    out = work / f"pass-{tag}.json"
    spec = {"inputs": str(job.inputs[index % len(job.inputs)]), "trace": traced,
            "out": str(out),
            "spans": str(work / f"spans-{tag}.tsv") if index == 0 else None}
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _interpreter([workload, str(spec_path)], PASS_TIMEOUT_S)
    data = json.loads(out.read_text(encoding="utf-8"))
    if index:  # keep the first round's files for inspection and the self-test
        out.unlink()
        spec_path.unlink()
    statuses, problems = job.check(index, data["results"])
    return Pass(data["host"], data["import_s"], data["busy_ns"] / 1e9, data["rss_kb"],
                statuses, problems, data["errors"], data.get("layers"))


def _nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mtcheck").glob("*.py")):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def _meta(workload, seed, seconds, trace, job) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_sha": _git_sha(),
            "src_sha256": _src_digest(), "corpus_sha256": job.digest}


def _end_to_end(setup, passes):
    latencies = sorted(ns for p in passes for status, ns in p.statuses
                       if status == "ok")
    if not latencies:
        raise BenchError("no op completed")
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(p.ok / p.busy_s for p in passes),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p99_ms": _nearest_rank(latencies, 0.99) / 1e6,
        "peak_rss_mb": statistics.median(p.rss_kb for p in passes) / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, len(latencies)


def _per_layer(plain, traced):
    names = traced[0].layers.keys()
    metrics = {}
    for name in names:
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = {"value": statistics.median(p.layers[name] for p in traced),
                         "unit": unit}
    overhead = statistics.median(t.busy_s / p.busy_s for p, t in zip(plain, traced)) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool, size: str = "full") -> None:
    if not (SRC / "mtcheck" / "__init__.py").is_file():
        raise BenchError(f"no mtcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mtcheck
    if Path(mtcheck.__file__).resolve().parent != SRC / "mtcheck":
        raise BenchError(f"mtcheck imported from {mtcheck.__file__}, not {SRC}")

    work = BENCH / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = workloads.generate(workload, seed, workloads.SIZES[size][workload],
                             work, ROOT)
    meta = _meta(workload, seed, seconds, trace, job)

    deadline = time.monotonic() + seconds
    _probe(workload)  # warm-up: compiles the bytecode cache once
    setup = [_probe(workload) for _ in range(PROBES)]
    plain, traced, rounds = [], [], []
    while True:
        began = time.monotonic()
        index = len(rounds)
        plain.append(_run_pass(workload, job, work, f"{index}", index, False))
        if trace:
            traced.append(_run_pass(workload, job, work, f"{index}t", index, True))
        rounds.append(time.monotonic() - began)
        left = deadline - time.monotonic()
        if (len(rounds) >= MIN_ROUNDS and left < statistics.median(rounds) / 2
                and (trace or sum(p.ok for p in plain) >= MIN_OPS[size])):
            break
    setup += [p.import_s for p in plain]

    counted = plain + traced
    attempted = sum(len(p.statuses) for p in counted)
    failed = sum(1 for p in counted for status, _ in p.statuses if status != "ok")
    wrong = sum(1 for p in counted for status, _ in p.statuses if status == "wrong")
    problems = sorted({problem for p in counted for problem in p.problems})
    errors = sorted({error for p in counted for error in p.errors})
    correct = wrong == 0 and not problems
    if trace:
        metrics = _per_layer(plain, traced)
        samples = None
    else:
        metrics, samples = _end_to_end(setup, plain)

    print(f"meta {json.dumps(meta)}")
    hosts = sorted(p.host for p in counted)
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"{len(plain[0].statuses)} ops per pass"
          + (f"; latency percentiles over {samples} completed ops" if samples else ""))
    print(f"host factor median {statistics.median(hosts)!r} (min {hosts[0]!r}, "
          f"max {hosts[-1]!r}) over passes; times are divided by the factor")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} ops "
          f"failed: raised, wrong or no output)")
    print(f"check {'ok' if correct else 'FAILED'}: {wrong} wrong outputs, "
          f"{len(problems)} other problems")
    for line in problems[:10] + errors[:10]:
        print(f"  {line}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    per_pass = [{"traced": p.layers is not None, "host": p.host,
                 "import_s": p.import_s, "busy_s": p.busy_s, "completed": p.ok,
                 "rss_kb": p.rss_kb} for p in counted]
    (work / "result.json").write_text(
        json.dumps({"meta": meta, "problems": problems, "errors": errors,
                    "passes": per_pass, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
