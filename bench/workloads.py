"""Seeded inputs and output checks for the three benchmark workloads.

``generate`` writes a workload's inputs as plain JSON (and, for
``check_batch``, as batch files), so a pass process receives only the
generated inputs.  The returned ``Job`` checks a pass's outputs: every op
gets the status "ok", "wrong" (an output that contradicts the expected
one) or "missing" (the op raised or produced no output).

The workloads are fixed here rather than read from the test suite: test
bounds only ever go up, and raising one must not change the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb, gcd
from pathlib import Path
from typing import Callable

SIZES = {
    "full": {
        "sweep": {"n_max": 2000, "lemma_m": 800, "mod4_m": 10_000, "pairs_g": 10_000},
        "monodromy": {"g_max": 10, "cycles_per_pass": 2, "distinct_passes": 20},
        "check_batch": {"rows": 4000},
    },
    "tiny": {
        "sweep": {"n_max": 60, "lemma_m": 30, "mod4_m": 100, "pairs_g": 100},
        "monodromy": {"g_max": 3, "cycles_per_pass": 1, "distinct_passes": 2},
        "check_batch": {"rows": 100},
    },
}

ROWS_PER_FILE = 25


@dataclass
class Job:
    """Generated inputs of one run; pass k reads ``inputs[k % len(inputs)]``."""

    inputs: list[Path]
    # (pass index, pass result) -> ([(status, latency_ns or None)] per op, problems)
    check: Callable[[int, list], tuple[list[tuple[str, int | None]], list[str]]]
    digest: str


def _write_json(path: Path, data) -> str:
    text = json.dumps(data, separators=(",", ":"))
    path.write_text(text, encoding="utf-8")
    return text


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _loop_statuses(results, expected):
    """Statuses of ops timed one by one in the pass loop."""
    out = []
    for (output, ns), want in zip(results, expected, strict=True):
        if output is None:
            out.append(("missing", None))
        else:
            out.append(("ok" if want(output) else "wrong", ns))
    return out


# --- sweep -------------------------------------------------------------------

def candidate_min_ranks(n: int) -> set[int]:
    """Minimal quadratic ranks of the cataloged dim-n modules, from the closed
    forms of the minuscule table; the exceptional modules carry none."""
    ranks = {1}  # (A_{n-1}, w1)
    s = 2
    while comb(2 * s, s) <= n:
        m = 2 * s - 1
        while comb(m + 1, s) < n:
            m += 1
        if comb(m + 1, s) == n:
            ranks.add(comb(m - 1, s - 1))
        s += 1
    if n % 2 == 1 and n >= 5:
        ranks.add(2)  # (B, w1)
    if n % 2 == 0 and n >= 4:
        ranks.add(1)  # (C, w1)
    if n % 2 == 0 and n >= 6:
        ranks.add(2)  # (D, w1)
    k = n.bit_length()
    if k >= 3 and 2 ** (k - 1) == n:
        ranks.add(2 ** (k - 3))  # half-spin of D_k
    return ranks


def sweep_queries(n_max: int) -> list[list]:
    """The (n, form, r) queries of acceptance criteria 4 and 5 up to n_max."""
    queries = []
    for n in range(5, n_max + 1):
        for r in sorted(candidate_min_ranks(n)):
            if gcd(r, n) == 1:
                queries.append(["survivors", n, "nsd", r])
    for n in range(6, n_max + 1, 2):
        for r in sorted(candidate_min_ranks(n) | {1, n - 1}):
            if gcd(r, n) == 1:
                queries.append(["survivors", n, "symp", r])
    return queries


def expected_survivors(n: int, form: str, r: int) -> list[str]:
    """Survivors occur only at (56, 15) and (m(m+1)/2, m-1) with m mod 4 != 3,
    and never in the symplectic class."""
    if form != "nsd":
        return []
    if (n, r) == (56, 15):
        return ["A7:w3"]
    m = r + 1
    if m >= 4 and m % 4 != 3 and m * (m + 1) // 2 == n:
        return [f"A{m}:w2"]
    return []


def _sweep_expectation(op):
    kind, arg = op[0], op[1]
    if kind == "survivors":
        want = expected_survivors(*op[1:])
        return lambda out: out == want
    if kind == "lemma":
        want = sorted([[m, 2] for m in range(5, arg + 1)] + [[7, 3]])
        return lambda out: sorted(out) == want
    if kind == "mod4":
        want = [m for m in range(4, arg + 1) if m % 2 == 0 or m % 4 == 1]
        return lambda out: out == want
    want = [[m * (m + 1) // 2, m - 1] for m in range(4, arg + 1)
            if m * (m + 1) // 2 <= arg and m % 4 != 3]
    if arg >= 56:
        want.append([56, 15])
    want.sort()
    return lambda out: out == want


def _generate_sweep(seed: int, size: dict, work: Path) -> Job:
    ops = sweep_queries(size["n_max"])
    random.Random(f"sweep-{seed}").shuffle(ops)
    ops += [["lemma", size["lemma_m"]], ["mod4", size["mod4_m"]],
            ["pairs", size["pairs_g"]]]
    path = work / "inputs.json"
    text = _write_json(path, ops)
    expected = [_sweep_expectation(op) for op in ops]
    return Job([path], lambda k, results: (_loop_statuses(results, expected), []),
               _digest([text]))


# --- monodromy ---------------------------------------------------------------

def monodromy_pass_ops(rng: random.Random, g_max: int, cycles: int) -> list[list]:
    """Cycles over every (g, r) with 1 <= r <= g <= g_max in seeded order.
    About one instance in ten with r < g is followed by a perturbed control
    of the same instance (built as acceptance criterion 7 builds it)."""
    combos = [(g, r) for g in range(1, g_max + 1) for r in range(1, g + 1)]
    proper = [c for c in combos if c[1] < c[0]]
    ops = []
    for _ in range(cycles):
        order = combos[:]
        rng.shuffle(order)
        controlled = set(rng.sample(proper, round(len(combos) / 10)))
        for g, r in order:
            seed = rng.getrandbits(31)
            ops.append(["instance", g, r, seed])
            if (g, r) in controlled:
                ops.append(["control", g, r, seed])
    return ops


def _generate_monodromy(seed: int, size: dict, work: Path) -> Job:
    rng = random.Random(f"monodromy-{seed}")
    paths, texts, expected = [], [], []
    for k in range(size["distinct_passes"]):
        ops = monodromy_pass_ops(rng, size["g_max"], size["cycles_per_pass"])
        paths.append(work / f"inputs-{k}.json")
        texts.append(_write_json(paths[-1], ops))
        expected.append([
            (lambda out: bool(out) and all(out.values())) if op[0] == "instance"
            else (lambda out: out is False)
            for op in ops
        ])

    def check(k, results):
        return _loop_statuses(results, expected[k % len(expected)]), []

    return Job(paths, check, _digest(texts))


# --- check_batch -------------------------------------------------------------

# Structured descriptors: (g, endo, degree, signature, toric_rank, bad, simple,
# simple_lie).  These are the rows of tests/data/golden_descriptors.txt.
GOLDEN_ROWS = [
    (3, "k", 2, (1, 2), 0, False, False, False),
    (1, "k", 2, (0, 1), 0, False, False, False),
    (4, "k", 2, (1, 3), 0, False, False, False),
    (3, "k", 2, (0, 3), 0, False, False, False),
    (4, "II", 2, None, 0, False, True, False),
    (4, "III", 4, None, 0, False, True, False),
    (5, "Q", 1, None, 1, True, True, False),
    (6, "k", 2, (2, 4), 2, True, True, False),
    (4, "Q", 1, None, 3, True, True, False),
    (4, "Q", 1, None, 2, True, True, False),
    (4, "Q", 1, None, 1, True, True, False),
    (7, "k", 2, (3, 4), 4, True, True, False),
    (9, "k", 2, (3, 6), 2, True, False, False),
    (56, "k", 2, (28, 28), 30, True, True, False),
    (10, "k", 2, (5, 5), 6, True, True, False),
    (10, "k", 2, (4, 6), 6, True, True, False),
    (5, "Q", 1, None, 3, True, False, False),
    (9, "Q", 1, None, 5, True, False, False),
    (6, "Q", 1, None, 2, True, True, False),
    (6, "I", 2, None, 2, True, True, True),
    (5, "Q", 1, None, 3, True, True, True),
    (4, "Q", 1, None, 4, True, True, False),
    (3, "Q", 1, None, 0, False, False, False),
    (5, "IV", 4, None, 0, False, False, False),
    (5, "III", 4, None, 0, False, False, False),
    (2, "I", 2, None, 0, False, False, False),
    (6, "I", 2, None, 2, True, True, False),
    (4, "k", 2, (2, 2), 3, True, True, False),
    (5, "k", 2, (2, 2), 0, False, False, False),
    (3, "Q", 1, None, 4, True, False, False),
]

G_BANDS = ((1, 8), (9, 200), (200, 5000))

# Share of generated rows per kind; "quiet" (no rule fires) takes the rest.
# No malformed rows: the benchmark runs only workloads on which no op fails,
# and a malformed row ends its batch file with argparse's SystemExit 2, which
# loses every later row of the file.
ROW_MIX = {"r1": 0.12, "r5": 0.17, "exception": 0.06, "r6": 0.17, "r7": 0.05,
           "fourfold": 0.06, "simple_lie": 0.08, "inconsistent": 0.05}


def render(row) -> str:
    """The flags of one ``mtcheck check`` call for a structured descriptor."""
    g, endo, degree, signature, toric, bad, simple, simple_lie = row
    flags = [f"--g {g}", f"--endo {endo}"]
    if degree != 1:
        flags.append(f"--degree {degree}")
    if signature is not None:
        flags.append(f"--signature {signature[0]},{signature[1]}")
    if toric:
        flags.append(f"--toric-rank {toric}")
    if bad:
        flags.append("--bad-semistable-split")
    if simple:
        flags.append("--simple")
    if simple_lie:
        flags.append("--simple-lie")
    return " ".join(flags)


def _band_g(rng, band, lo=1):
    a, b = G_BANDS[band]
    return rng.randint(max(a, lo), b)


def _coprime_to(rng, n, hi):
    """A random 1 <= x <= hi with gcd(x, n) = 1 (x = 1 always qualifies)."""
    while True:
        x = rng.randint(1, hi)
        if gcd(x, n) == 1:
            return x


def _row_r1(rng, band):
    g = _band_g(rng, band, 2)
    a = _coprime_to(rng, g, g - 1)
    return (g, "k", 2, (a, g - a), 0, False, rng.random() < 0.5, False)


def _row_r5(rng, band):
    g = _band_g(rng, band, 2)
    r = _coprime_to(rng, g, g // 2)
    a = rng.randint(0, g)
    return (g, "k", 2, (a, g - a), 2 * r, True, rng.random() < 0.5,
            rng.random() < 0.3)


def _row_exception(rng, band):
    if rng.random() < 0.2:
        g, r = 56, 15
    else:
        m = rng.choice([m for m in range(4, 100) if m % 4 != 3])
        g, r = m * (m + 1) // 2, m - 1
    a = rng.randint(0, g)
    return (g, "k", 2, (a, g - a), 2 * r, True, rng.random() < 0.5,
            rng.random() < 0.3)


def _row_r6(rng, band):
    g = _band_g(rng, band)
    t = _coprime_to(rng, 2 * g, g)
    return (g, "Q", 1, None, t, True, rng.random() < 0.5, rng.random() < 0.3)


def _row_r7(rng, band):
    return (_band_g(rng, band, 2), "Q", 1, None, 2, True, True, rng.random() < 0.3)


def _row_fourfold(rng, band):
    if rng.random() < 0.5:
        return (4, "Q", 1, None, rng.randint(1, 4), True, True, False)
    endo = rng.choice(["I", "II", "III", "IV", "k"])
    if endo == "k":
        a = rng.randint(0, 4)
        return (4, "k", 2, (a, 4 - a), 0, False, True, False)
    return (4, endo, rng.choice([1, 2, 4]), None, 0, False, True, False)


def _row_simple_lie(rng, band):
    endo = rng.choice(["I", "II", "Q"])
    degree = 1 if endo == "Q" else rng.choice([1, 2, 3, 4])
    g = _band_g(rng, band)
    toric = 0
    if g >= degree and rng.random() < 0.5:
        toric = degree * rng.randint(1, g // degree)
    return (g, endo, degree, None, toric, toric > 0, True, True)


def _row_quiet(rng, band):
    g = _band_g(rng, band, 2)
    kind = rng.randrange(4)
    if kind == 0:
        return (g, rng.choice(["III", "IV"]), rng.choice([2, 4, 6]), None, 0,
                False, False, False)
    if kind == 1:
        return (g, "Q", 1, None, 0, False, False, rng.random() < 0.5)
    if kind == 2:
        return (g, "I", 2, None, 0, False, False, False)
    h = max(1, g // 2)
    return (2 * h, "k", 2, (h, h), 0, False, False, False)


def _row_inconsistent(rng, band):
    g = _band_g(rng, band, 2)
    a = rng.randint(0, g)
    kind = rng.randrange(8)
    if kind == 0:
        return (0, "Q", 1, None, 0, False, False, False)
    if kind == 1:
        return (g, "Q", 2, None, 0, False, False, False)
    if kind == 2:
        return (g, "k", 3, (a, g - a), 0, False, False, False)
    if kind == 3:
        return (g, "k", 2, None, 0, False, False, False)
    if kind == 4:
        return (g, "k", 2, (a, g - a + 1), 0, False, False, False)
    if kind == 5:
        return (g, "Q", 1, None, g + 1, True, False, False)
    if kind == 6:
        return (g, "Q", 1, None, 1, False, False, False)
    return (g, "k", 2, (a, g - a), 2 * rng.randint(0, (g - 1) // 2) + 1, True,
            True, False)


_ROW_MAKERS = {"r1": _row_r1, "r5": _row_r5, "exception": _row_exception,
               "r6": _row_r6, "r7": _row_r7, "fourfold": _row_fourfold,
               "simple_lie": _row_simple_lie, "inconsistent": _row_inconsistent,
               "quiet": _row_quiet}


def batch_rows(rng: random.Random, n_rows: int) -> list:
    """n_rows structured descriptors in the fixed mix of ROW_MIX, shuffled.
    Each kind takes its g from the three bands in turn, so the share of
    large-g rows does not vary with the seed."""
    rows = []
    for kind, share in ROW_MIX.items():
        count = max(1, round(share * n_rows))
        rows += [_ROW_MAKERS[kind](rng, i % len(G_BANDS)) for i in range(count)]
    rows += [_row_quiet(rng, i % len(G_BANDS)) for i in range(n_rows - len(rows))]
    rng.shuffle(rows)
    return rows


def expected_record(row) -> tuple[str, int]:
    """The machine record of ``decide`` called directly on the structured
    descriptor (not through the CLI parser), and the row's exit status."""
    from mtcheck.checker import (AVDescriptor, EndoType, InputInconsistentError,
                                 Reduction, decide)
    endo = {"I": EndoType.TYPE_I, "II": EndoType.TYPE_II, "III": EndoType.TYPE_III,
            "k": EndoType.IV_IMAG_QUAD, "IV": EndoType.IV_OTHER,
            "Q": EndoType.RATIONAL}
    g, kind, degree, signature, toric, bad, simple, simple_lie = row
    d = AVDescriptor(g=g, endo_type=endo[kind], endo_degree=degree,
                     signature=signature, toric_rank=toric,
                     reduction=(Reduction.BAD_SEMISTABLE_SPLIT if bad
                                else Reduction.GOOD_OR_UNKNOWN),
                     simple=simple, lie_parts_simple=simple_lie)
    try:
        v = decide(d)
    except InputInconsistentError as exc:
        return json.dumps({"conclusion": "InputInconsistent", "citations": [],
                           "notes": [str(exc)]}), 2
    return json.dumps({"conclusion": v.conclusion.value,
                       "citations": list(v.citations),
                       "notes": list(v.notes)}), 0


def golden_verdicts(root: Path) -> dict[str, str]:
    """Flag line -> pinned machine record, from the golden corpus files."""
    data = root / "tests" / "data"
    lines = [line.strip() for line in
             (data / "golden_descriptors.txt").read_text(encoding="utf-8").splitlines()]
    flags = [line for line in lines if line and not line.startswith("#")]
    records = (data / "golden_verdicts.jsonl").read_text(encoding="utf-8").splitlines()
    if len(flags) != len(records):
        raise ValueError("golden descriptor and verdict files differ in length")
    return dict(zip(flags, records))


def check_batch_files(files: list[dict], results: list[dict]):
    """Statuses of the rows of every batch file, and the problems found.

    A row's record is the line at its position in the file's output; a row
    with no record is missing.  Each file must exit with the largest status
    of its rows, and the golden file must reproduce the pinned verdicts byte
    for byte."""
    statuses, problems = [], []
    for meta, res in zip(files, results, strict=True):
        lines, times = res["lines"], res["ns"]
        prev = 0
        for i, row in enumerate(meta["rows"]):
            if i >= len(lines):
                statuses.append(("missing", None))
                continue
            statuses.append(("ok" if lines[i] == row["expect"] else "wrong",
                             times[i] - prev))
            prev = times[i]
        if len(lines) > len(meta["rows"]):
            problems.append(f"{meta['path']}: {len(lines)} records for "
                            f"{len(meta['rows'])} rows")
        if res.get("error"):
            problems.append(f"{meta['path']}: {res['error']}")
        if res["status"] != meta["status"]:
            problems.append(f"{meta['path']}: exit status {res['status']}, "
                            f"expected {meta['status']}")
        if meta["golden"] is not None and "".join(
                line + "\n" for line in lines) != meta["golden"]:
            problems.append(f"{meta['path']}: golden verdicts differ")
    return statuses, problems


def _generate_check_batch(seed: int, size: dict, work: Path, root: Path) -> Job:
    rng = random.Random(f"check_batch-{seed}")
    rows = batch_rows(rng, size["rows"])
    chunks = [rows[i:i + ROWS_PER_FILE] for i in range(0, len(rows), ROWS_PER_FILE)]
    golden_at = rng.randrange(len(chunks) + 1)
    chunks.insert(golden_at, list(GOLDEN_ROWS))
    pinned = golden_verdicts(root)
    files, texts = [], []
    for index, chunk in enumerate(chunks):
        path = work / f"batch-{index:03d}.txt"
        lines, metas = [], []
        for row in chunk:
            lines.append(render(row))
            record, status = expected_record(row)
            metas.append({"expect": record, "status": status})
        text = "".join(line + "\n" for line in lines)
        path.write_text(text, encoding="utf-8")
        texts.append(text)
        golden = None
        if index == golden_at:
            golden = "".join(pinned[line] + "\n" for line in lines)
        files.append({"path": str(path), "rows": metas, "golden": golden,
                      "status": max((m["status"] for m in metas), default=0)})
    inputs = work / "inputs.json"
    _write_json(inputs, [f["path"] for f in files])
    return Job([inputs], lambda k, results: check_batch_files(files, results),
               _digest(texts))


def generate(workload: str, seed: int, size: dict, work: Path, root: Path) -> Job:
    if workload == "sweep":
        return _generate_sweep(seed, size, work)
    if workload == "monodromy":
        return _generate_monodromy(seed, size, work)
    return _generate_check_batch(seed, size, work, root)
