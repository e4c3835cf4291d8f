"""Digest the command line's observable behaviour in two source trees, so a
change can show that its output is byte-identical to its parent's.

    python3 tests/tools/cli_digest.py PARENT_TREE CHANGE_TREE [--runs 2]

A tree is a checkout of this repository.  For each tree a fresh interpreter
puts the tree's ``src`` first on ``sys.path`` and runs every argv of the
fixed set ``ARGVS`` in process through ``mtcheck.cli.main``, capturing the
exit status (a ``SystemExit`` code for ``--help``), stdout and stderr.  A
record's digest is the SHA-256 of its JSON ``[argv, status, stdout,
stderr]``; a subcommand's digest is the SHA-256 of its records' digests in
order, and the overall one of every record's.  Run k alternates which tree
goes first, and a tree whose digests differ between runs is reported as
unstable.  The script prints one digest per subcommand and tree, the
overall digests, then every argv whose record differs between the trees,
and exits 1 if any does.

The set covers every subcommand, each ``$ mtcheck`` example of the README,
the golden batch through ``check --file`` in both formats, a batch of
malformed rows and rows at the edges of the row format, usage and value
errors, specs at the printable dimension bound, and dimensions at the
candidate-search bound and one past it.
``{golden}`` in an argv stands for the tree's
``tests/data/golden_descriptors.txt``; the other files are written to a
temporary working directory shared by both trees.  Standard library only;
the file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_BIG = str(10**30)
_SUBCOMMANDS = ("catalog", "pair", "survivors", "lemma", "exceptions", "monodromy", "check")

ARGVS: list[list[str]] = [
    # catalog
    ["catalog", "--family", "E", "--rank", "7"],
    ["catalog", "--family", "A", "--rank", "3"],
    ["catalog", "--family", "A", "--rank", "9", "--format", "machine"],
    ["catalog", "--family", "B", "--rank", "5"],
    ["catalog", "--family", "C", "--rank", _BIG],
    ["catalog", "--family", "D", "--rank", "4", "--format", "machine"],
    ["catalog", "--family", "D", "--rank", "7"],
    ["catalog", "--family", "E", "--rank", "6", "--format", "machine"],
    ["catalog", "--family", "E", "--rank", "8"],
    ["catalog", "--family", "D", "--rank", "3"],
    ["catalog", "--family", "D", "--rank", "14284"],
    ["catalog", "--family", "D", "--rank", "20000"],
    ["catalog", "--family", "A", "--rank", "3", "--bogus"],
    # pair
    ["pair", "--inner", "A:7:3", "--outer", "A:55:1", "--rank-tau", "15"],
    ["pair", "--inner", "A:7:3", "--outer", "A:55:1", "--rank-tau", "11"],
    ["pair", "--inner", "A:7:5", "--outer", "A:55:1", "--rank-tau", "15"],
    ["pair", "--inner", "A:7:3", "--outer", "C:28:1", "--rank-tau", "15"],
    ["pair", "--inner", "D:6:1", "--outer", "A:11:1", "--rank-tau", "5"],
    ["pair", "--inner", "D:5:5", "--outer", "A:15:1", "--rank-tau", "3"],
    ["pair", "--inner", "D:4:4", "--outer", "A:7:1", "--rank-tau", "3"],
    ["pair", "--inner", "E:7:7", "--outer", "A:55:1", "--rank-tau", "15"],
    ["pair", "--inner", "A:55:1", "--outer", "E:7:7", "--rank-tau", "15"],
    ["pair", "--inner", "A:5:3", "--outer", "C:10:1", "--rank-tau", "6"],
    ["pair", "--inner", "A:7:4", "--outer", "D:35:1", "--rank-tau", "3"],
    ["pair", "--inner", "A:9:9", "--outer", "A:9:1", "--rank-tau", "1"],
    ["pair", "--inner", f"A:{_BIG}:1", "--outer", f"B:{10**30 // 2}:1",
     "--rank-tau", "7"],
    ["pair", "--inner", "X:2:1", "--outer", "A:55:1", "--rank-tau", "3"],
    ["pair", "--inner", "A:5:9", "--outer", "A:55:1", "--rank-tau", "3"],
    ["pair", "--inner", "A:7:3", "--outer", "A:55:1", "--rank-tau", "0"],
    ["pair", "--inner", "A:4:2", "--outer", "A:9:1", "--rank-tau", "-3"],
    ["pair", "--inner", "A:7:3", "--outer", "A:10:1", "--rank-tau", "0"],
    ["pair", "--inner", "A:3:1", "--outer", "A:3:1", "--rank-tau", "0"],
    ["pair", "--inner", "A:3:1", "--outer", "C:2:1", "--rank-tau", "0"],
    ["pair", "--inner", "D:14284:14284", "--outer", "A:5:1", "--rank-tau", "1"],
    ["pair", "--inner", "D:20000:20000", "--outer", "A:5:1", "--rank-tau", "1"],
    ["pair", "--inner", "A:30000:15000", "--outer", "A:5:1", "--rank-tau", "1"],
    # survivors
    ["survivors", "--dim", "56", "--form", "nsd", "--rank-tau", "15"],
    ["survivors", "--dim", "56", "--form", "symp", "--rank-tau", "15"],
    ["survivors", "--dim", "10", "--form", "nsd", "--rank-tau", "3"],
    ["survivors", "--dim", "27", "--form", "orth", "--rank-tau", "2"],
    ["survivors", "--dim", str(10**30 + 1), "--form", "nsd", "--rank-tau", "1"],
    ["survivors", "--dim", "10", "--form", "bad", "--rank-tau", "3"],
    ["survivors", "--dim", "10", "--form", "nsd", "--rank-tau", "5"],
    ["survivors", "--dim", "4", "--form", "nsd", "--rank-tau", "1"],
    ["survivors", "--dim", "56", "--form", "nsd", "--rank-tau", "0"],
    ["survivors", "--dim", str(2**2048 - 1), "--form", "orth", "--rank-tau", "1"],
    ["survivors", "--dim", str(2**2048), "--form", "nsd", "--rank-tau", "1"],
    # lemma and exceptions
    ["lemma", "--mmax", "8"],
    ["lemma", "--mmax", "200"],
    ["lemma", "--mmax", "8", "--format", "machine"],
    ["lemma"],
    ["exceptions", "--gmax", "40"],
    ["exceptions", "--gmax", "500"],
    # monodromy
    ["monodromy", "--g", "3", "--r", "2", "--seed", "11", "--trials", "3"],
    ["monodromy", "--g", "5", "--r", "5", "--seed", "7", "--trials", "2"],
    ["monodromy", "--g", "12", "--r", "7", "--seed", "3", "--trials", "2"],
    ["monodromy", "--g", "3", "--r", "2", "--seed", "1", "--trials", "0"],
    ["monodromy", "--g", "3", "--r", "0", "--seed", "1"],
    ["monodromy", "--g", "3", "--r", "4", "--seed", "1"],
    ["monodromy", "--g", str(10**6), "--r", "1", "--seed", "0"],
    # check
    ["check", "--g", "4", "--endo", "Q", "--toric-rank", "2", "--bad-semistable-split",
     "--simple"],
    ["check", "--g", "56", "--endo", "k", "--degree", "2", "--signature", "28,28",
     "--toric-rank", "30", "--bad-semistable-split", "--simple", "--format", "machine"],
    ["check", "--g", "3", "--endo", "k", "--degree", "2", "--signature", "1,3"],
    ["check", "--g", "3", "--endo", "k", "--degree", "2", "--signature", "1"],
    ["check", "--g", "3", "--endo", "bad"],
    ["check", "--g", str(2**2047 - 1), "--endo", "Q", "--toric-rank", "1",
     "--bad-semistable-split"],
    ["check", "--g", str(2**2047), "--endo", "Q", "--toric-rank", "1", "--bad-semistable-split"],
    ["check", "--file", "{golden}"],
    ["check", "--file", "{golden}", "--format", "machine"],
    ["check", "--file", "rows_with_errors.txt"],
    ["check", "--file", "rows_with_errors.txt", "--format", "machine"],
    ["check", "--file", "no-such-batch.txt"],
    # top level
    [],
    ["nosuchcommand"],
    ["--help"],
    ["check", "--help"],
]

_ROWS_WITH_ERRORS = """\
# a batch whose malformed rows print error lines and the batch goes on
--g 4 --endo Q --toric-rank 2 --bad-semistable-split --simple
--g 4 --bogus
--g 5 --format machine
--g 5 --file other.txt
--help
--g 3 --endo k --degree 2 --signature "1,2"
--g 2 --toric-rank 5 --bad-semistable-split
# rows at the edges of the row format
--g\t5\t--endo Q\t--toric-rank 3\t--bad-semistable-split
--g 4 --g 5 --endo Q --toric-rank 3 --bad-semistable-split --simple --simple
--g -3
--g=5
--g 4 --endo Q --toric-rank 2 --bad-semistable-split --sim
"""

_CHILD = """
import contextlib, hashlib, io, json, sys
tree, argvs = sys.argv[1], json.loads(sys.stdin.read())
golden = tree + "/tests/data/golden_descriptors.txt"
sys.path.insert(0, tree + "/src")
import mtcheck
from mtcheck.cli import main
if not mtcheck.__file__.startswith(tree + "/src/"):
    sys.exit(f"imported {mtcheck.__file__}, not the tree's package")
digests = []
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main([golden if a == "{golden}" else a for a in argv])
        except SystemExit as exc:
            status = exc.code
    record = json.dumps([argv, status, out.getvalue(), err.getvalue()])
    digests.append(hashlib.sha256(record.encode("utf-8", "surrogateescape")).hexdigest())
print(json.dumps(digests))
"""


def _run_tree(tree: Path, workdir: Path) -> list[str]:
    """The digest of every record of ARGVS, run in one fresh interpreter."""
    env = dict(os.environ, COLUMNS="80", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tree)], input=json.dumps(ARGVS),
                          cwd=workdir, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the run in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def _groups(records: list[str]) -> dict[str, str]:
    """One digest per subcommand, in order of first appearance, then the
    overall digest."""
    by_command: dict[str, list[str]] = {}
    for argv, record in zip(ARGVS, records):
        name = argv[0] if argv and argv[0] in _SUBCOMMANDS else "top-level"
        by_command.setdefault(name, []).append(record)
    return {name: _digest(parts) for name, parts in by_command.items()} | {
        "overall": _digest(records)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--runs", type=int, default=2)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "rows_with_errors.txt").write_text(_ROWS_WITH_ERRORS, encoding="utf-8")
        for k in range(args.runs):
            for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
                run = _run_tree(sides[side], workdir)
                if records.setdefault(side, run) != run:
                    raise SystemExit(f"{side}: the digests differ between runs")

    digests = {side: _groups(run) for side, run in records.items()}
    print(f"{'group':<12} {'parent':<16} {'change':<16}")
    for name in digests["parent"]:
        p, c = digests["parent"][name], digests["change"][name]
        print(f"{name:<12} {p[:16]} {c[:16]} {'same' if p == c else 'DIFFERS'}")
    differing = [argv for argv, p, c in zip(ARGVS, records["parent"], records["change"])
                 if p != c]
    print(f"{len(ARGVS)} argvs, {len(differing)} differ")
    for argv in differing:
        print("  mtcheck " + " ".join(argv))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
