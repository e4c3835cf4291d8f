"""End-to-end CLI tests driven through main(argv).

Covers every subcommand's text and machine output, the exit-code contract
(0 verdict, 1 usage/value error, 2 inconsistent input), the order of the
``pair`` preconditions, the printable-dimension bound, batch mode,
byte-stability of the golden descriptor corpus, and the README's examples:
every ``$ mtcheck`` line and the Python session.
"""

from __future__ import annotations

import doctest
import json
import re
import shlex
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mtcheck.catalog import _least_m, descriptor, minuscule_candidates
from mtcheck.cli import _descriptor_from_args, _parse_row, build_parser, main

DATA = Path(__file__).parent / "data"


def _readme_blocks(lang: str) -> list[str]:
    """The body of every fenced ``lang`` block in the README, fences left out."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)


def _readme_examples():
    """(command, output) for every ``$ mtcheck ...`` line in the README's sh
    blocks; a backslash continues a command, and its output runs to the
    next ``$`` line or the end of the block."""
    examples = []
    for block in _readme_blocks("sh"):
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


_BIG = 10**30
# argv, the refused entry, and whether its dimension is computed first
_REFUSED_SPECS = {
    "catalog-d-half-spin": (["catalog", "--family", "D", "--rank", "20000"],
                            "D20000:w20000", False),
    "catalog-a-middle": (["catalog", "--family", "A", "--rank", "20000"],
                         "A20000:w10000", True),
    "catalog-a-huge": (["catalog", "--family", "A", "--rank", str(_BIG)],
                       f"A{_BIG}:w{_BIG // 2}", False),
    "pair-d-half-spin": (["pair", "--inner", f"D:{_BIG}:{_BIG - 1}", "--outer", "A:5:1",
                          "--rank-tau", "1"], f"D{_BIG}:w{_BIG - 1}", False),
    "pair-a-middle": (["pair", "--inner", "A:30000:15000", "--outer", "A:5:1",
                       "--rank-tau", "1"], "A30000:w15000", False),
}


def _spy_on_descriptor(monkeypatch) -> list[str]:
    """The labels of the entries the CLI computes from now on.  An entry of
    rank past 10^5 raises instead, so a regression fails at once rather than
    computing a dimension for hours."""
    computed = []

    def spy(t, s):
        computed.append(f"{t}:w{s}")
        if t.rank > 10**5:
            raise AssertionError(f"computed the dimension of {t}:w{s}")
        return descriptor(t, s)

    monkeypatch.setattr("mtcheck.cli.descriptor", spy)
    return computed


@pytest.mark.parametrize("argv, label, computed", _REFUSED_SPECS.values(), ids=_REFUSED_SPECS)
def test_unprintable_dimensions_are_refused_at_once(capsys, monkeypatch, argv, label, computed):
    # a lower bound on the dimension refuses a half-spin or a far-off A
    # entry uncomputed, and leaves only cheap binomials to compute
    spied = _spy_on_descriptor(monkeypatch)
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out, spied) == (1, "", [label] if computed else [])
    prefix = "error: " if argv[0] == "catalog" else f"error: bad module spec {argv[2]!r}: "
    assert err == f"{prefix}the dimension of {label} is 2^14284 or more, too large to print\n"


def test_dimension_bound(capsys, monkeypatch):
    # D14284's half-spins, 2^14283, are the largest that print
    code, out, _ = _run(capsys, ["catalog", "--family", "D", "--rank", "14284"])
    assert code == 0
    assert [len(line.split()[2]) for line in out.splitlines()] == [4 + 5, 4 + 4300, 4 + 4300]
    # huge w1 entries stay well inside it
    code, out, _ = _run(capsys, ["catalog", "--family", "C", "--rank", str(_BIG)])
    assert (code, out) == (0, f"C{_BIG} w1 dim={2 * _BIG} form=symp\n")
    code, out, _ = _run(capsys, ["pair", "--inner", f"A:{_BIG}:1",
                                 "--outer", f"B:{_BIG // 2}:1", "--rank-tau", "7"])
    assert (code, out) == (0, "excluded: inner and outer duality classes must agree [6.2]\n")
    # a lowered bound keeps the edges cheap: dimensions below 2^10 = 1024
    # pass, and 1024 or more is refused (the half-spins of D11 and more in
    # test_refusal_at_a_lowered_bound_computes_nothing)
    monkeypatch.setattr("mtcheck.cli._MAX_DIM_BITS", 10)
    for argv, fits in [
        (["catalog", "--family", "A", "--rank", "11"], True),     # binom(12, 6) = 924
        (["catalog", "--family", "A", "--rank", "12"], False),    # binom(13, 6) = 1716
        (["catalog", "--family", "D", "--rank", "10"], True),     # 2^9
        (["catalog", "--family", "B", "--rank", "511"], True),    # 1023
        (["catalog", "--family", "B", "--rank", "512"], False),   # 1025
        (["catalog", "--family", "C", "--rank", "512"], False),   # 1024
        (["catalog", "--family", "E", "--rank", "7"], True),      # 56
        (["pair", "--inner", "A:12:4", "--outer", "A:714:1", "--rank-tau", "1"], True),
        (["pair", "--inner", "A:12:9", "--outer", "A:714:1", "--rank-tau", "1"], True),
        (["pair", "--inner", "A:100:100", "--outer", "A:100:1", "--rank-tau", "1"], True),
        (["pair", "--inner", "A:1022:1", "--outer", "B:511:1", "--rank-tau", "1"], True),
        (["pair", "--inner", "A:21:1", "--outer", "D:11:1", "--rank-tau", "1"], True),
    ]:
        code, out, err = _run(capsys, argv)
        assert (code == 0, bool(out), "2^10 or more" in err) == (fits, fits, not fits), argv


def test_refusal_at_a_lowered_bound_computes_nothing(capsys, monkeypatch):
    # at 2^10 the lower bound alone refuses the half-spins 2^10 of D11, the
    # 1024-dimensional w1 and w1023 of A1023, and binom(101, 50)
    monkeypatch.setattr("mtcheck.cli._MAX_DIM_BITS", 10)
    computed = _spy_on_descriptor(monkeypatch)
    for spec in ("D:11:11", "D:11:10", "A:1023:1", "A:1023:1023", "A:100:50"):
        code, out, err = _run(capsys, ["pair", "--inner", spec, "--outer", "A:5:1",
                                       "--rank-tau", "1"])
        assert (code, out) == (1, "") and err.endswith("too large to print\n"), spec
    assert _run(capsys, ["catalog", "--family", "D", "--rank", "11"])[:2] == (1, "")
    assert computed == []
    # binom(13, 7) = 1716 passes the lower bound 6 and is refused once computed
    code, out, err = _run(capsys, ["pair", "--inner", "A:12:7", "--outer", "A:5:1",
                                   "--rank-tau", "1"])
    assert (code, out, computed) == (1, "", ["A12:w7"])


@pytest.mark.parametrize("spec", ["A:5:0", "A:5:6", "D:20000:5", "E:8:1"])
def test_uncataloged_weights_are_spec_errors(capsys, spec):
    code, out, err = _run(capsys, ["pair", "--inner", spec, "--outer", "A:55:1",
                                   "--rank-tau", "3"])
    family, rank, weight = spec.split(":")
    assert (code, out) == (1, "")
    assert err == (f"error: bad module spec {spec!r}: {family}{rank} carries no cataloged "
                   f"module at w{weight}\n")


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


def test_candidate_search_refuses_past_its_bound(tmp_path, capsys, monkeypatch):
    # the search refuses 2^2048 and more; at a lowered bound of 2^10 every
    # route into it takes 1023 and refuses 1024 before it searches: ``survivors --dim``, ``check``
    # at 2g (the rational route) and at g (the imaginary quadratic route), and
    # a batch row; the memo is cleared before each query, so that it neither
    # hands back 1024 from another test nor 1023 from the query before
    code, out, err = _run(capsys, ["survivors", "--dim", str(2**2048), "--form", "nsd",
                                   "--rank-tau", "1"])
    assert (code, out, err) == (1, "", "error: dimension must be below 2^2048\n")
    monkeypatch.setattr("mtcheck.catalog._MAX_CANDIDATE_BITS", 10)
    searched = []

    def spy(n, s, hi):
        searched.append(n)
        return _least_m(n, s, hi)

    monkeypatch.setattr("mtcheck.catalog._least_m", spy)
    rational = ["--endo", "Q", "--toric-rank", "1", "--bad-semistable-split"]
    refused = "dimension must be below 2^10"
    for argv, fits, error in [
        (["survivors", "--dim", "1023", "--form", "orth", "--rank-tau", "1"], True, ""),
        (["survivors", "--dim", "1024", "--form", "nsd", "--rank-tau", "1"], False, refused),
        (["check", "--g", "511"] + rational, True, ""),
        (["check", "--g", "512"] + rational, False, f"Thm 6.5 searches at 2g: {refused}"),
        (_quadratic_check(1023), True, ""),
        (_quadratic_check(1024), False, f"Thm 6.4 searches at g: {refused}"),
    ]:
        searched.clear()
        minuscule_candidates.cache_clear()
        code, out, err = _run(capsys, argv)
        if fits:
            assert (code, err, bool(out), bool(searched)) == (0, "", True, True), argv
        else:
            assert (code, out, searched) == (1, "", []), argv
            assert err == f"error: {error}\n", argv
    batch = tmp_path / "batch.txt"
    batch.write_text(shlex.join(["--g", "511"] + rational) + "\n"
                     + shlex.join(["--g", "512"] + rational) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, ["check", "--file", str(batch), "--format", "machine"])
    assert (code, out.count("\n")) == (1, 1)
    assert err == f"error: line 2: Thm 6.5 searches at 2g: {refused}\n"


def _quadratic_check(g: int) -> list[str]:
    """A ``check`` argv on the imaginary quadratic route (Thm 6.4) at g."""
    return ["check", "--g", str(g), "--endo", "k", "--degree", "2", "--signature",
            f"1,{g - 1}", "--toric-rank", "2", "--bad-semistable-split"]


def test_check_names_the_dimension_its_route_searches(tmp_path, capsys):
    # the user gives g; the rational route (Thm 6.5) searches 2g and the
    # imaginary quadratic one (Thm 6.4) g, so a refusal names which, with
    # one error line and status 1, alone or as a batch row
    rational = ["--g", str(2**2047), "--endo", "Q", "--toric-rank", "1",
                "--bad-semistable-split"]
    too_big = "must be below 2^2048"
    for argv, error in [
        (["check"] + rational, f"Thm 6.5 searches at 2g: dimension {too_big}"),
        (_quadratic_check(2**2048), f"Thm 6.4 searches at g: dimension {too_big}"),
    ]:
        assert _run(capsys, argv) == (1, "", f"error: {error}\n")
    batch = tmp_path / "batch.txt"
    batch.write_text(shlex.join(["--g", "5", "--endo", "Q", "--toric-rank", "1",
                                 "--bad-semistable-split"]) + "\n"
                     + shlex.join(rational) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, ["check", "--file", str(batch), "--format", "machine"])
    assert (code, out.count("\n")) == (1, 1)
    assert err == f"error: line 2: Thm 6.5 searches at 2g: dimension {too_big}\n"


def test_survivors_bad_form_is_an_error(capsys):
    code, out, err = _run(capsys, ["survivors", "--dim", "10", "--form", "bad",
                                   "--rank-tau", "3"])
    assert (code, out) == (1, "")
    assert err == ("error: mtcheck survivors: argument --form: invalid choice: "
                   "'bad' (choose from 'nsd', 'orth', 'symp')\n")


def test_survivors_gcd_violation_is_an_error(capsys):
    code, out, err = _run(capsys, ["survivors", "--dim", "10", "--form", "nsd",
                                   "--rank-tau", "5"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


_PAIR_SHAPE_ERRORS = {
    "pair-dimension-first": ("A:7:3", "A:10:1",
                             "inner and outer must act on the same dimension"),
    "pair-proper-first": ("A:3:1", "A:3:1", "a proper inclusion needs inner != outer"),
    "pair-ambient-first": ("A:3:1", "C:2:1",
                           "the exclusion engine assumes ambient dimension > 4"),
}


@pytest.mark.parametrize("argv, message", [
    (["survivors", "--dim", "6", "--form", "nsd", "--rank-tau", "-1"],
     "quadratic rank -1 must be at least 1"),
    (["survivors", "--dim", "56", "--form", "nsd", "--rank-tau", "0"],
     "quadratic rank 0 must be at least 1"),
    (["pair", "--inner", "A:4:2", "--outer", "A:9:1", "--rank-tau", "-3"],
     "quadratic rank -3 must be at least 1"),
    (["pair", "--inner", "A:7:3", "--outer", "A:55:1", "--rank-tau", "0"],
     "quadratic rank 0 must be at least 1"),
] + [(["pair", "--inner", inner, "--outer", outer, "--rank-tau", "0"], message)
     for inner, outer, message in _PAIR_SHAPE_ERRORS.values()],
    ids=["survivors-negative", "survivors-zero", "pair-negative", "pair-zero",
         *_PAIR_SHAPE_ERRORS])
def test_quadratic_rank_below_one_is_an_error(capsys, argv, message):
    # a bad rank is the last precondition of pair: a pair of unequal
    # dimension, an improper pair or one of dimension <= 4 is reported first
    assert _run(capsys, argv) == (1, "", f"error: {message}\n")


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


def test_readme_python_session():
    # the fenced body alone, so doctest does not read the closing fence as
    # part of the last expected output
    (block,) = _readme_blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted == block.count(">>> ") > 0
    assert result.failed == 0, "".join(report)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_monodromy_rejects_empty_trial_count(capsys, trials):
    code, out, err = _run(capsys, ["monodromy", "--g", "3", "--r", "2",
                                   "--seed", "1", "--trials", trials])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--trials" in err


def test_monodromy_rejects_extreme_genus_at_once(capsys):
    # the genus bound is checked before any draw, so this allocates nothing
    start = time.perf_counter()
    code, out, err = _run(capsys, ["monodromy", "--g", str(10**6), "--r", "1",
                                   "--seed", "0"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_check_batch_undecodable_row_keeps_going(tmp_path, capsys):
    good = b"--g 5 --endo Q --toric-rank 3 --bad-semistable-split\n"
    batch = tmp_path / "batch.txt"
    batch.write_bytes(good * 2 + b"--g \xff 4\n" + good)
    code, out, err = _run(capsys, ["check", "--file", str(batch),
                                   "--format", "machine"])
    assert code == 1  # only the undecodable row fails, as status 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["conclusion"] for r in records] == ["MT"] * 3
    assert err.splitlines() == ["error: line 3: 'utf-8' codec can't decode byte "
                                "0xff in position 4: invalid start byte"]


def test_check_batch_drops_byte_order_mark_and_reads_any_newline(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_bytes(b"\xef\xbb\xbf--g 5 --endo Q --toric-rank 3 --bad-semistable-split\r\n"
                      b"# comment\r"
                      b"--g 4 --endo Q --toric-rank 2 --bad-semistable-split --simple\n")
    code, out, err = _run(capsys, ["check", "--file", str(batch),
                                   "--format", "machine"])
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["conclusion"] for r in records] == ["MT", "MT_and_divisorial"]


def test_check_bad_endo_is_an_error(capsys):
    code, out, err = _run(capsys, ["check", "--endo", "bad"])
    assert (code, out) == (1, "")
    assert err == ("error: mtcheck check: argument --endo: invalid choice: "
                   "'bad' (choose from 'I', 'II', 'III', 'IV', 'Q', 'k')\n")


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
