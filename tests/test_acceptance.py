"""Acceptance gate: nine exact finite verifications, one test per
criterion, each ending in a single machine-greppable pass line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Everything is
exact integer/rational arithmetic; there are no tolerances to tune.
"""

from __future__ import annotations

import json
from math import comb, gcd
from pathlib import Path

from helpers_roots import weyl_dim
from mtcheck.catalog import descriptor, enumerate_minuscule
from mtcheck.checker import (AVDescriptor, Conclusion, EndoType, Reduction,
                             decide)
from mtcheck.cli import main
from mtcheck.divisibility import divisibility_solutions, gcd_mod4_check
from mtcheck.exclusion import minuscule_candidates, surviving_inners
from mtcheck.monodromy import build_instance, verify_instance, verify_orthogonality
from mtcheck.quadratic import (RankUnavailableError, quadratic_min_rank,
                               rank2_constraint, transvection_constraint)
from mtcheck.roots import FormClass, LieType

DATA = Path(__file__).parent / "data"


def _passed(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_minuscule_table_fidelity():
    checked = 0
    for m in range(1, 13):
        table = {e.weight_index: e.dim for e in enumerate_minuscule(LieType("A", m))}
        assert table == {s: comb(m + 1, s) for s in range(1, m + 1)}, ("A", m)
        checked += len(table)
    for m in range(2, 13):
        assert {e.weight_index: e.dim
                for e in enumerate_minuscule(LieType("B", m))} == {1: 2 * m + 1}
        assert {e.weight_index: e.dim
                for e in enumerate_minuscule(LieType("C", m))} == {1: 2 * m}
        checked += 2
    for m in range(3, 13):
        spin = 2 ** (m - 1)
        assert {e.weight_index: e.dim
                for e in enumerate_minuscule(LieType("D", m))} == {
                    1: 2 * m, m - 1: spin, m: spin}
        checked += 3
    assert {e.weight_index: e.dim
            for e in enumerate_minuscule(LieType("E", 6))} == {1: 27, 6: 27}
    assert {e.weight_index: e.dim
            for e in enumerate_minuscule(LieType("E", 7))} == {7: 56}
    assert enumerate_minuscule(LieType("E", 8)) == ()
    checked += 3
    mismatches = 0
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 13):
            for e in enumerate_minuscule(LieType(family, rank)):
                if e.dim != weyl_dim(e.lie_type, e.weight):
                    mismatches += 1
    for rank in (6, 7, 8):
        for e in enumerate_minuscule(LieType("E", rank)):
            if e.dim != weyl_dim(e.lie_type, e.weight):
                mismatches += 1
    assert mismatches == 0
    _passed(f"criterion 1: catalog matches closed forms and the Weyl dimension "
            f"formula for every rank <= 12 ({checked} entries, 0 mismatches)")


def test_criterion_2_divisibility_lemma():
    expected = tuple(
        sorted({(m, 2) for m in range(5, 100_001)} | {(7, 3)})
    )
    assert tuple(sorted(divisibility_solutions(100_000))) == expected
    _passed("criterion 2: divisibility solutions over m <= 10^5 are exactly "
            "{(m, 2)} plus (7, 3)")


def test_criterion_3_mod4_remark():
    hits = set(gcd_mod4_check(10_000))
    for m in range(4, 10_001):
        assert (m in hits) == (m % 2 == 0 or m % 4 == 1), m
    _passed("criterion 3: coprimality gcd(m-1, m(m+1)/2) = 1 agrees with "
            "'m even or m = 1 mod 4' for all m <= 10^4")


def _candidate_min_ranks(n: int) -> set[int]:
    ranks = set()
    for entry in minuscule_candidates(n):
        try:
            ranks.add(quadratic_min_rank(entry))
        except RankUnavailableError:
            continue
    return ranks


def test_criterion_4_exception_closure():
    a7w3 = descriptor(LieType("A", 7), 3)
    assert a7w3.dim == 56
    assert quadratic_min_rank(a7w3) == 15

    survivors_at = {}
    for n in range(5, 20_001):
        for r in sorted(_candidate_min_ranks(n)):
            if gcd(r, n) != 1:
                continue
            found = surviving_inners(n, FormClass.NON_SELF_DUAL, r)
            if found:
                survivors_at[(n, r)] = [e.label for e in found]
    expected = {(56, 15): ["A7:w3"]}
    m = 4
    while m * (m + 1) // 2 <= 20_000:
        if m % 4 != 3:
            expected[(m * (m + 1) // 2, m - 1)] = [f"A{m}:w2"]
        m += 1
    assert survivors_at == expected
    _passed(f"criterion 4: non-self-dual survivors over n <= 20000 occur "
            f"exactly at (56, 15) and the triangular family "
            f"({len(expected)} pairs)")


def test_criterion_5_symplectic_closure():
    checked = 0
    for n in range(6, 20_001, 2):
        for r in sorted(_candidate_min_ranks(n) | {1, n - 1}):
            if gcd(r, n) != 1:
                continue
            assert surviving_inners(n, FormClass.SYMPLECTIC, r) == (), (n, r)
            checked += 1
    _passed(f"criterion 5: symplectic survivors are empty for every even "
            f"n <= 20000 ({checked} (n, r) queries)")


def test_criterion_6_rank2_closure():
    for n in range(8, 201, 2):
        symp = [s.label for s in rank2_constraint(n)
                if s.form is FormClass.SYMPLECTIC]
        assert symp == [f"C{n // 2}:w1"], n
    _passed("criterion 6: the only symplectic rank-2 shape is the full "
            "symplectic algebra for every even 8 <= n <= 200")


def test_criterion_7_monodromy_invariants():
    combos = [(g, r) for g in range(1, 15) for r in range(1, g + 1)]
    for i in range(1000):
        g, r = combos[i % len(combos)]
        inst = build_instance(g, r, seed=9000 + i)
        results = verify_instance(inst)
        assert all(results.values()), (g, r, 9000 + i, results)

    proper = [(g, r) for g, r in combos if r < g]
    for i in range(100):
        g, r = proper[i % len(proper)]
        inst = build_instance(g, r, seed=500 + i)
        outside = inst.inertia_invariants[-1]
        first = tuple(a + b for a, b in zip(inst.toric_sub[0], outside))
        from dataclasses import replace
        bad = replace(inst, toric_sub=(first,) + inst.toric_sub[1:])
        assert not verify_orthogonality(bad), (g, r, 500 + i)
    _passed("criterion 7: 1000 seeded instances verify every invariant; "
            "100 perturbed controls fail orthogonality")


def test_criterion_8_verdict_regressions(capsys):
    bad = Reduction.BAD_SEMISTABLE_SPLIT
    v = decide(AVDescriptor(g=4, endo_type=EndoType.RATIONAL, toric_rank=2,
                            reduction=bad, simple=True))
    assert v.conclusion is Conclusion.MT_AND_DIVISORIAL
    assert v.citations == ("Thm 5.2", "Thm 6.6")
    v = decide(AVDescriptor(g=56, endo_type=EndoType.IV_IMAG_QUAD, endo_degree=2,
                            signature=(28, 28), toric_rank=30, reduction=bad,
                            simple=True))
    assert v.conclusion is Conclusion.EXCEPTION_PAIR_HIT
    assert v.citations == ("Thm 6.4",)
    v = decide(AVDescriptor(g=7, endo_type=EndoType.IV_IMAG_QUAD, endo_degree=2,
                            signature=(3, 4), toric_rank=4, reduction=bad,
                            simple=True))
    assert v.conclusion is Conclusion.MT_AND_DIVISORIAL
    assert v.citations == ("Thm 1.2", "Thm 6.4")
    v = decide(AVDescriptor(g=5, endo_type=EndoType.RATIONAL, toric_rank=3,
                            reduction=bad))
    assert v.conclusion is Conclusion.MT
    assert v.citations == ("Thm 6.5",)

    corpus = str(DATA / "golden_descriptors.txt")
    outputs = []
    for _ in range(2):
        code = main(["check", "--file", corpus, "--format", "machine"])
        assert code == 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    expected = (DATA / "golden_verdicts.jsonl").read_text(encoding="utf-8")
    assert outputs[0] == expected
    records = [json.loads(line) for line in expected.splitlines()]
    assert len(records) >= 25
    _passed("criterion 8: the four reference verdicts and the "
            f"{len(records)}-row golden corpus are reproduced byte for byte")


def test_criterion_9_transvection_lemma():
    for n in range(2, 101):
        labels = [e.label for e in transvection_constraint(n)]
        if n % 2 == 0 and n >= 4:
            assert labels == [f"A{n - 1}:w1", f"C{n // 2}:w1"], n
        else:
            assert labels == [f"A{n - 1}:w1"], n

    def canonical(e):
        fam, m, s = e.lie_type.family, e.lie_type.rank, e.weight_index
        if fam == "A" and s == m:
            return f"A{m}:w1"
        if fam == "D" and m == 3 and s in (2, 3):
            return "A3:w1"  # half-spin of D3 is the standard module of A3
        return e.label

    rank_one = []
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 51):
            for e in enumerate_minuscule(LieType(family, rank)):
                if quadratic_min_rank(e) == 1:
                    rank_one.append(e)
    for e in rank_one:
        fam, m, s = e.lie_type.family, e.lie_type.rank, e.weight_index
        assert (fam == "A" and s in (1, m)) or (fam == "C" and s == 1) \
            or (fam == "D" and m == 3 and s in (2, 3)), e.label
    for n in range(2, 101):
        from_catalog = {canonical(e) for e in rank_one if e.dim == n}
        # the catalog scan stops at rank 50, so compare within that bound
        from_lemma = {e.label for e in transvection_constraint(n)
                      if e.lie_type.rank <= 50}
        assert from_catalog == from_lemma, n
    _passed("criterion 9: transvection shapes are exactly sl and sp for "
            "2 <= n <= 100, matching the rank-1 catalog entries at rank <= 50")
