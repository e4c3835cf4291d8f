"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload with tracing off and on, and checks that each metric
named in BENCHMARK.json is printed by name with its unit, that every output
checks out, and that linalg is idle outside monodromy.  Then it plants a
wrong result in a real pass output of each workload (a fake survivor, a
control that passes orthogonality, a row with an altered conclusion) and
checks that the workload's output check rejects it, so no check passes
vacuously.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import run
import tracing
import workloads

CONCLUSIONS = {"MT_and_divisorial", "MT", "MT_or_HodgeDivisorial",
               "ExceptionPairHit", "NotCovered", "InputInconsistent"}
ENDO_TYPES = {"I", "II", "III", "k", "IV", "Q"}


def _run(workload: str, trace: bool):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.run(workload, seed=1, seconds=1, trace=trace, size="tiny")
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _plant(workload: str, results: list) -> str:
    """Falsify one output in place; returns what was planted."""
    if workload == "sweep":
        index = next(i for i, (out, _) in enumerate(results) if out == [])
        results[index][0] = ["A7:w3"]
        return "a fake survivor"
    if workload == "monodromy":
        index = next(i for i, (out, _) in enumerate(results) if out is False)
        results[index][0] = True
        return "a control that passes orthogonality"
    for res in results:
        for j, line in enumerate(res["lines"]):
            record = json.loads(line)
            if record["conclusion"] != "InputInconsistent":
                record["conclusion"] = ("MT" if record["conclusion"] == "NotCovered"
                                        else "NotCovered")
                res["lines"][j] = json.dumps(record)
                return "a row with an altered conclusion"
    raise AssertionError("no verdict row to alter")


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for workload in run.WORKLOADS:
            label = f"{workload} --trace {int(trace)}"
            lines, result = _run(workload, trace)
            printed = {line.split()[1]: line.split()[-1]
                       for line in lines if line.startswith("metric ")}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: the result has exactly the four keys")
            expect(printed == units and got == units,
                   f"{label}: prints every {key} metric by name with its unit")
            expect(result["correct"], f"{label}: every output checks out")
            expect(result["failed"] == 0, f"{label}: no op fails")
            if trace and workload != "monodromy":
                calls = [result["metrics"][f"linalg.{fn}.calls"]["value"]
                         for fn in tracing.WRAPPED["linalg"]]
                expect(not any(calls), f"{label}: linalg is idle")

    for workload in run.WORKLOADS:
        work = run.BENCH / ".work" / workload
        job = workloads.generate(workload, 1, workloads.SIZES["tiny"][workload],
                                 work, run.ROOT)
        results = json.loads((work / "pass-0.json").read_text(encoding="utf-8"))["results"]
        statuses, problems = job.check(0, results)
        expect(all(s != "wrong" for s, _ in statuses) and not problems,
               f"{workload}: a real pass output passes its check")
        planted = _plant(workload, results)
        statuses, problems = job.check(0, results)
        expect(any(s == "wrong" for s, _ in statuses),
               f"{workload}: the check rejects {planted}")

    expect(len(workloads.sweep_queries(2000)) == 5052,
           "sweep: criteria 4 and 5 give 5052 queries up to n = 2000")
    expect([workloads.render(row) for row in workloads.GOLDEN_ROWS]
           == list(workloads.golden_verdicts(run.ROOT)),
           "check_batch: the structured golden rows render to the golden corpus")
    rows = workloads.batch_rows(random.Random("check_batch-1"), 4000)
    seen = {json.loads(workloads.expected_record(row)[0])["conclusion"] for row in rows}
    expect(seen == CONCLUSIONS and {row[1] for row in rows} == ENDO_TYPES,
           "check_batch: the full corpus has every conclusion and endo type")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
