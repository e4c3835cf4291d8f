"""Time acceptance-criterion bodies, or Tier-1 as a whole, in fresh
interpreters, alternating two source trees, and write the runs as JSON in
the layout of the ``BENCH_*.json`` files.

    python3 tests/tools/time_criteria.py PARENT_TREE CHANGE_TREE \\
        --runs 6 --out FILE test_criterion_4_exception_closure ... tier1

A tree is a checkout of this repository; its ``src`` and ``tests`` are put
first on ``sys.path``, so each side runs its own code at its own bounds.
Run k calls every named test of ``tests/test_acceptance.py`` once per tree,
each in a new interpreter, and alternates which tree goes first.  A body's
time is the process time of the call alone (imports excluded), so other
processes on the host weigh less than in wall time.  Only tests that take
no pytest fixture can be timed.  The name ``tier1`` runs the Tier-1 command
(``python -m pytest -q --continue-on-collection-errors``, with
``-p no:cacheprovider``) in the tree, with its ``src`` first on
``PYTHONPATH``, and takes the process time of that child and the processes
it waited for, from ``resource.getrusage(RUSAGE_CHILDREN)``.  A failing
body or Tier-1 run stops the timing.  The ``total`` entry sums the named
entries of one tree within one run.  Standard library only; the file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

_BODY = """
import contextlib, io, json, sys, time
tree, name = sys.argv[1], sys.argv[2]
sys.path[:0] = [tree + "/src", tree + "/tests"]
import test_acceptance
body = getattr(test_acceptance, name)
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    start = time.process_time()
    body()
    elapsed = time.process_time() - start
print(json.dumps({"s": elapsed, "printed": printed.getvalue().strip()}))
"""


def _time_body(tree: Path, name: str) -> dict:
    done = subprocess.run([sys.executable, "-c", _BODY, str(tree), name],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _time_tier1(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=tree, env=env, capture_output=True,
                          text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise SystemExit(f"tier1 failed in {tree}:\n{done.stdout[-4000:]}{done.stderr}")
    elapsed = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return {"s": elapsed, "printed": done.stdout.strip().splitlines()[-1]}


def _git_sha(tree: Path) -> str:
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": [round(x, 6) for x in runs], "median": round(statistics.median(runs), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("tests", nargs="+",
                    help="test function names in test_acceptance.py, or tier1")
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent-sha", help="default: the parent tree's git HEAD")
    ap.add_argument("--change-sha", help="default: the change tree's git HEAD")
    ap.add_argument("--what",
                    default="Acceptance-criterion bodies or Tier-1, parent against change.")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be >= 2")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {name: {side: [] for side in sides} for name in args.tests + ["total"]}
    printed = {name: {} for name in args.tests}
    for k in range(args.runs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for side in order:
            total = 0.0
            for name in args.tests:
                result = (_time_tier1(sides[side]) if name == "tier1"
                          else _time_body(sides[side], name))
                times[name][side].append(result["s"])
                printed[name][side] = result["printed"]
                total += result["s"]
            times["total"][side].append(total)
            print(f"run {k} {side}: {total:.3f} s", file=sys.stderr)

    workloads = {}
    for name, by_side in times.items():
        better = sum(c < p for p, c in zip(by_side["parent"], by_side["change"]))
        entry = {"end_to_end": {"body_s": {
            "parent": _summary(by_side["parent"]), "change": _summary(by_side["change"]),
            "change_better_pairs": f"{better}/{args.runs}"}}}
        if name in printed:
            entry["printed"] = printed[name]
        workloads[name] = entry
    report = {
        "what": args.what,
        "harness": "python3 tests/tools/time_criteria.py PARENT CHANGE --runs "
                   f"{args.runs} " + " ".join(args.tests),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "parent_git_sha": args.parent_sha or _git_sha(sides["parent"]),
        "change_git_sha": args.change_sha or _git_sha(sides["change"]),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
