"""End-to-end CLI tests driven through main(argv).

Covers every subcommand's text and machine output, the exit-code contract
(0 verdict, 1 usage/value error, 2 inconsistent input), batch mode, and
byte-stability of the golden descriptor corpus.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mtcheck.cli import _descriptor_from_args, _parse_row, build_parser, main

DATA = Path(__file__).parent / "data"


def _readme_examples():
    """(command, output) for every ``$ mtcheck ...`` line in the README's sh
    blocks; a backslash continues a command, and its output runs to the
    next ``$`` line or the end of the block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL):
        for chunk in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, _, output = re.sub(r"\\\n\s*", "", chunk).partition("\n")
            examples.append(pytest.param(command, output.rstrip("\n") + "\n",
                                         id=command))
    return examples


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_text(capsys):
    code, out, _ = _run(capsys, ["catalog", "--family", "A", "--rank", "3"])
    assert code == 0
    assert out.splitlines() == [
        "A3 w1 dim=4 form=nsd",
        "A3 w2 dim=6 form=orth",
        "A3 w3 dim=4 form=nsd",
    ]


def test_catalog_machine(capsys):
    code, out, _ = _run(capsys, ["catalog", "--family", "D", "--rank", "4",
                                 "--format", "machine"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0] == {"family": "D", "rank": 4, "weight": 1, "dim": 8,
                          "form": "orth"}
    assert [r["weight"] for r in records] == [1, 3, 4]


def test_catalog_empty_for_e8(capsys):
    code, out, _ = _run(capsys, ["catalog", "--family", "E", "--rank", "8"])
    assert code == 0
    assert out == ""


def test_pair_admissible(capsys):
    code, out, _ = _run(capsys, ["pair", "--inner", "A:7:3",
                                 "--outer", "A:55:1", "--rank-tau", "15"])
    assert code == 0
    assert out.startswith("admissible: ")
    assert "[Prop 6.3]" in out


def test_pair_excluded(capsys):
    code, out, _ = _run(capsys, ["pair", "--inner", "D:6:1",
                                 "--outer", "A:11:1", "--rank-tau", "5"])
    assert code == 0
    assert out.startswith("excluded: ")
    assert "no proper overalgebra" in out


def test_pair_bad_module_spec(capsys):
    code, out, err = _run(capsys, ["pair", "--inner", "X:2:1",
                                   "--outer", "A:55:1", "--rank-tau", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad module spec 'X:2:1'")


def test_survivors(capsys):
    code, out, _ = _run(capsys, ["survivors", "--dim", "56", "--form", "nsd",
                                 "--rank-tau", "15"])
    assert code == 0
    assert out.splitlines() == ["A7 w3 dim=56 form=nsd"]
    code, out, _ = _run(capsys, ["survivors", "--dim", "56", "--form", "symp",
                                 "--rank-tau", "15"])
    assert code == 0
    assert out.strip() == "none"


def test_survivors_at_extreme_dimension_fails_fast(capsys):
    # the candidate search bisects m for each s, so 10^30 + 1 costs a few
    # hundred binomials instead of about 10^10 steps
    start = time.perf_counter()
    code, out, err = _run(capsys, ["survivors", "--dim", str(10**30 + 1),
                                   "--form", "nsd", "--rank-tau", "1"])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "none\n", "")


def test_survivors_gcd_violation_is_an_error(capsys):
    code, out, err = _run(capsys, ["survivors", "--dim", "10", "--form", "nsd",
                                   "--rank-tau", "5"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_lemma(capsys):
    code, out, _ = _run(capsys, ["lemma", "--mmax", "10"])
    assert code == 0
    assert out.splitlines() == ["5 2", "6 2", "7 2", "7 3", "8 2", "9 2", "10 2"]


def test_exceptions(capsys):
    code, out, _ = _run(capsys, ["exceptions", "--gmax", "60"])
    assert code == 0
    assert out.splitlines() == ["10 3", "15 4", "21 5", "36 7", "45 8",
                                "55 9", "56 15"]


def test_monodromy(capsys):
    code, out, _ = _run(capsys, ["monodromy", "--g", "3", "--r", "2",
                                 "--seed", "1", "--trials", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith("2/2 pass") for line in lines)


@pytest.mark.parametrize("command, output", _readme_examples())
def test_readme_example(capsys, command, output):
    # byte for byte, so the monodromy example pins its key names and order
    program, *argv = shlex.split(command)
    assert program == "mtcheck"
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == output


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_monodromy_rejects_empty_trial_count(capsys, trials):
    code, out, err = _run(capsys, ["monodromy", "--g", "3", "--r", "2",
                                   "--seed", "1", "--trials", trials])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--trials" in err


def test_check_text(capsys):
    code, out, _ = _run(capsys, ["check", "--g", "4", "--endo", "Q",
                                 "--toric-rank", "2", "--bad-semistable-split",
                                 "--simple"])
    assert code == 0
    assert out.startswith("conclusion: MT_and_divisorial")


def test_check_machine(capsys):
    code, out, _ = _run(capsys, ["check", "--g", "4", "--endo", "Q",
                                 "--toric-rank", "2", "--bad-semistable-split",
                                 "--simple", "--format", "machine"])
    assert code == 0
    record = json.loads(out)
    assert record["conclusion"] == "MT_and_divisorial"
    assert record["citations"] == ["Thm 5.2", "Thm 6.6"]
    assert record["notes"] == []


def test_check_signature_route(capsys):
    code, out, _ = _run(capsys, ["check", "--g", "7", "--endo", "k",
                                 "--degree", "2", "--signature", "3,4",
                                 "--toric-rank", "4", "--bad-semistable-split",
                                 "--simple", "--format", "machine"])
    assert code == 0
    record = json.loads(out)
    assert record["conclusion"] == "MT_and_divisorial"
    assert record["citations"] == ["Thm 1.2", "Thm 6.4"]
    assert any("survivors: none" in note for note in record["notes"])


def test_check_inconsistent_exits_two(capsys):
    code, out, _ = _run(capsys, ["check", "--g", "4", "--endo", "k",
                                 "--degree", "2", "--signature", "2,2",
                                 "--toric-rank", "3", "--bad-semistable-split",
                                 "--simple", "--format", "machine"])
    assert code == 2
    record = json.loads(out)
    assert record["conclusion"] == "InputInconsistent"
    assert record["citations"] == []
    assert any("must divide" in note for note in record["notes"])


def test_check_signature_parsing(capsys):
    code, out, _ = _run(capsys, ["check", "--g", "2", "--endo", "k",
                                 "--degree", "2", "--signature", "2",
                                 "--format", "machine"])
    assert code == 2
    assert "comma-separated" in json.loads(out)["notes"][0]
    code, _, err = _run(capsys, ["check", "--g", "2", "--endo", "k",
                                 "--degree", "2", "--signature", "a,b"])
    assert code == 1
    assert err.startswith("error: ")


def test_check_batch(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "# comment and blank line are skipped\n"
        "\n"
        "--g 5 --endo Q --toric-rank 3 --bad-semistable-split\n"
        "--g 3 --endo Q --toric-rank 4 --bad-semistable-split\n",
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, ["check", "--file", str(batch),
                                 "--format", "machine"])
    assert code == 2  # the worst row wins
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["conclusion"] for r in records] == ["MT", "InputInconsistent"]


def test_check_batch_malformed_row_keeps_going(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "--g 5 --endo Q --toric-rank 3 --bad-semistable-split\n"
        "--g abc\n"
        "--g 4 --endo Q --toric-rank 2 --bad-semistable-split --simple\n",
        encoding="utf-8",
    )
    code, out, err = _run(capsys, ["check", "--file", str(batch),
                                   "--format", "machine"])
    assert code == 1  # the malformed row counts as status 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["conclusion"] for r in records] == ["MT", "MT_and_divisorial"]
    assert err.splitlines() == [
        "error: line 2: mtcheck check: argument --g: invalid int value: 'abc'"]


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_check_batch_help_row_keeps_going(tmp_path, capsys, flag):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        f"{flag}\n"
        "--g 4 --endo Q --toric-rank 2 --bad-semistable-split --simple\n",
        encoding="utf-8",
    )
    code, out, err = _run(capsys, ["check", "--file", str(batch),
                                   "--format", "machine"])
    assert code == 1  # the help row counts as status 1, not a clean exit 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["conclusion"] for r in records] == ["MT_and_divisorial"]
    assert err.startswith("usage: mtcheck check")
    assert err.splitlines()[-1] == "error: line 1: a help flag is not a descriptor"


@pytest.mark.parametrize("row, message", [
    ("--g 5 --endo Q --toric-rank 3 --bad-semistable-split --format text",
     "a batch row may not set --format text in a machine batch"),
    ("--g 5 --endo Q --toric-rank 3 --bad-semistable-split --file other.txt",
     "a batch row may not set --file"),
], ids=["format", "file"])
def test_check_batch_row_may_not_set_format_or_file(tmp_path, capsys, row, message):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        f"{row}\n"
        "--g 4 --endo Q --toric-rank 2 --bad-semistable-split --simple\n",
        encoding="utf-8",
    )
    code, out, err = _run(capsys, ["check", "--file", str(batch),
                                   "--format", "machine"])
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["conclusion"] for r in records] == ["MT_and_divisorial"]
    assert err.splitlines() == [f"error: line 1: {message}"]


def _whole_command_parse(fmt, line):
    """A batch row parsed as the whole command line ``mtcheck check
    --format FMT ROW``, the way batch rows were parsed before the ``check``
    subparser took them alone."""
    try:
        with redirect_stdout(sys.stderr):
            return build_parser().parse_args(["check", "--format", fmt] + shlex.split(line))
    except SystemExit:
        raise ValueError("a help flag is not a descriptor") from None


def _parse_outcome(parse, fmt, line, capsys):
    try:
        args = parse(fmt, line)
    except ValueError as exc:
        outcome = ("error", str(exc))
    else:
        outcome = ("descriptor", _descriptor_from_args(args), args.format)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


MALFORMED_ROWS = [
    "--g 3 --bogus 1", "--g 3 stray", "check --g 3", "--g 3 -- --simple",
    "--g 3 --", "-h", "--help", "--g 3 --help", "--g abc", "--endo X",
    "--toric 2 --g 4 --bad-semistable-split", "--f x", '--signature "2,3" --g 5',
    "--g 3 --bogus=1 extra --simple",
]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_row_parse_matches_whole_command_parse(capsys, fmt):
    corpus = (DATA / "golden_descriptors.txt").read_text(encoding="utf-8")
    rows = [line.strip() for line in corpus.splitlines()
            if line.strip() and not line.startswith("#")]
    parser = build_parser()
    check = parser.parse_args(["check"]).func.keywords["check"]
    for line in rows + MALFORMED_ROWS:
        new = _parse_outcome(lambda f, row: _parse_row(parser, check, f, row),
                             fmt, line, capsys)
        old = _parse_outcome(_whole_command_parse, fmt, line, capsys)
        assert new == old, line


def _calls(tmp_path):
    machine = tmp_path / "machine.txt"
    machine.write_text("--g 5 --endo Q --toric-rank 3 --bad-semistable-split\n"
                       "--g abc\n--g 3 --endo Q --toric-rank 4 --bad-semistable-split\n",
                       encoding="utf-8")
    text = tmp_path / "text.txt"
    text.write_text("--g 4 --endo Q --toric-rank 2 --bad-semistable-split --simple\n"
                    "--g 3 --bogus\n", encoding="utf-8")
    helped = tmp_path / "help.txt"
    helped.write_text("--help\n--g 7 --endo k --degree 2 --signature 3,4\n",
                      encoding="utf-8")
    return [["check", "--file", str(machine), "--format", "machine"],
            ["check", "--file", str(text)],
            ["check", "--g", "56", "--endo", "k", "--degree", "2",
             "--signature", "28,28", "--toric-rank", "30",
             "--bad-semistable-split", "--simple"],
            ["check", "--file", str(helped), "--format", "machine"]]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    calls = _calls(tmp_path)
    first = []
    for argv in calls:
        build_parser.cache_clear()  # as if this call were the first of the process
        first.append(_run(capsys, argv))
    build_parser.cache_clear()
    assert [_run(capsys, argv) for argv in calls] == first
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ["lemma", "--mmax", "8", "--format", "machine"],
    ["catalog", "--family", "A", "--rank", "3", "--bogus"],
    ["lemma"],
    ["nosuchcommand"],
], ids=["unsupported-format", "unknown-flag", "missing-required", "unknown-command"])
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_batch_missing_file(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, out, err = _run(capsys, ["check", "--file", str(missing)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_golden_corpus_is_byte_stable(capsys):
    corpus = DATA / "golden_descriptors.txt"
    expected = (DATA / "golden_verdicts.jsonl").read_bytes().decode("utf-8")
    runs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["check", "--file", str(corpus),
                                     "--format", "machine"])
        assert code == 2  # corpus deliberately contains inconsistent rows
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0] == expected


def test_golden_corpus_covers_every_rule():
    expected = (DATA / "golden_verdicts.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in expected.splitlines()]
    assert len(records) >= 25
    seen = {tag for r in records for tag in r["citations"]}
    assert seen == {"Thm 1.2", "Thm 2.4", "Thm 5.1", "Thm 5.2", "Thm 6.4",
                    "Thm 6.5", "Thm 6.6", "Thm 7.1"}
    conclusions = {r["conclusion"] for r in records}
    assert "ExceptionPairHit" in conclusions
    assert "NotCovered" in conclusions
    assert sum(r["conclusion"] == "InputInconsistent" for r in records) == 3
