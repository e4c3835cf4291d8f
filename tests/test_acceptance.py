"""Acceptance gate: nine exact finite verifications, one test per
criterion, each ending in a single machine-greppable pass line (run with
``pytest tests/test_acceptance.py -v -s`` to see them), plus the
un-numbered orthogonal closure sweep, which prints none.  Criteria 4 and 5
and the orthogonal closure read one cached walk over the dimensions, and a
test pins that it builds each dimension once.  Every bound sits in
``BOUNDS``, and a last test pins the README's list of criteria against it.
Everything is exact integer/rational arithmetic; there are no tolerances
to tune.  ``tests/tools/time_criteria.py`` times the bodies.
"""

from __future__ import annotations

import json
from functools import cache
from math import comb, gcd
from pathlib import Path

from helpers_oracles import candidate_min_ranks, rank2_constraint, transvection_constraint
from helpers_roots import highest_weight, weyl_dim
from mtcheck.catalog import descriptor, enumerate_minuscule, minuscule_candidates
from mtcheck.checker import (AVDescriptor, Conclusion, EndoType, Reduction,
                             decide)
from mtcheck.cli import main
from mtcheck.divisibility import divisibility_solutions, gcd_mod4_check
from mtcheck.exclusion import surviving_inners
from mtcheck.monodromy import build_instance, verify_instance, verify_orthogonality
from mtcheck.quadratic import quadratic_rank_profile
from mtcheck.roots import FormClass, LieType

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
SWEEP_BOUND = 10**5  # the largest n of the criterion 4, 5 and orthogonal sweeps
# every criterion's bounds; the loops and the PASS lines read them, and
# test_readme_states_the_bounds pins the README list against them
BOUNDS = {
    1: {"rank": 12},
    2: {"m": 10**5},
    3: {"m": 10**4},
    4: {"n": SWEEP_BOUND},
    5: {"n": SWEEP_BOUND},
    6: {"n": 200},
    7: {"g": 24, "instances": 1000, "controls": 100},
    9: {"n": 100, "rank": 50},
}


def _passed(line: str) -> None:
    print(f"PASS {line}")


def _shown(x: int) -> str:
    """A bound as the PASS lines and the README write it: 10^k for a power
    of ten from 10^4 on, else its digits."""
    k = len(str(x)) - 1
    return f"10^{k}" if k >= 4 and x == 10**k else str(x)


def test_criterion_1_minuscule_table_fidelity():
    top = BOUNDS[1]["rank"]
    checked = 0
    for m in range(1, top + 1):
        table = {e.weight_index: e.dim for e in enumerate_minuscule(LieType("A", m))}
        assert table == {s: comb(m + 1, s) for s in range(1, m + 1)}, ("A", m)
        checked += len(table)
    for m in range(2, top + 1):
        assert {e.weight_index: e.dim
                for e in enumerate_minuscule(LieType("B", m))} == {1: 2 * m + 1}
        assert {e.weight_index: e.dim
                for e in enumerate_minuscule(LieType("C", m))} == {1: 2 * m}
        checked += 2
    for m in range(3, top + 1):
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
        for rank in range(lo, top + 1):
            for e in enumerate_minuscule(LieType(family, rank)):
                if e.dim != weyl_dim(e.lie_type, highest_weight(e)):
                    mismatches += 1
    for rank in (6, 7, 8):
        for e in enumerate_minuscule(LieType("E", rank)):
            if e.dim != weyl_dim(e.lie_type, highest_weight(e)):
                mismatches += 1
    assert mismatches == 0
    _passed(f"criterion 1: catalog matches closed forms and the Weyl dimension "
            f"formula for every rank <= {top} ({checked} entries, 0 mismatches)")


def test_criterion_2_divisibility_lemma():
    top = BOUNDS[2]["m"]
    expected = tuple(
        sorted({(m, 2) for m in range(5, top + 1)} | {(7, 3)})
    )
    assert tuple(sorted(divisibility_solutions(top))) == expected
    _passed(f"criterion 2: divisibility solutions over m <= {_shown(top)} are exactly "
            "{(m, 2)} plus (7, 3)")


def test_criterion_3_mod4_remark():
    top = BOUNDS[3]["m"]
    hits = set(gcd_mod4_check(top))
    for m in range(4, top + 1):
        assert (m in hits) == (m % 2 == 0 or m % 4 == 1), m
    _passed("criterion 3: coprimality gcd(m-1, m(m+1)/2) = 1 agrees with "
            f"'m even or m = 1 mod 4' for all m <= {_shown(top)}")


@cache
def _closure_walk() -> tuple[dict, dict, int]:
    """The one walk over 5 <= n <= SWEEP_BOUND that criteria 4 and 5 and the
    orthogonal closure read.  It builds the candidates of each n once, on a
    cleared memo, and queries ``surviving_inners`` at every r coprime to n
    among their minimal ranks: as they are for the non-self-dual class,
    with 1 and n - 1 for the symplectic class at even n, and with 1, 2 and
    n - 1 for the orthogonal class.  Returns the query count per class, the
    survivors per class keyed by (n, r), and the dimensions built."""
    minuscule_candidates.cache_clear()
    queries = dict.fromkeys(FormClass, 0)
    survivors = {form: {} for form in FormClass}
    for n in range(5, SWEEP_BOUND + 1):
        # 1 and 2 are always among these (A_{n-1}:w1 and the B or D standard
        # module), so of the extra ranks only n - 1 adds queries
        ranks = candidate_min_ranks(n)
        classes = [(FormClass.NON_SELF_DUAL, ranks), (FormClass.ORTHOGONAL, ranks | {1, 2, n - 1})]
        if n % 2 == 0:
            classes.append((FormClass.SYMPLECTIC, ranks | {1, n - 1}))
        for form, form_ranks in classes:
            for r in form_ranks:
                if gcd(r, n) != 1:
                    continue
                queries[form] += 1
                if found := surviving_inners(n, form, r):
                    survivors[form][n, r] = [e.label for e in found]
    return queries, survivors, minuscule_candidates.cache_info().misses


def test_criterion_4_exception_closure():
    a7w3 = descriptor(LieType("A", 7), 3)
    assert a7w3.dim == 56
    assert quadratic_rank_profile(a7w3)[0] == 15

    top = BOUNDS[4]["n"]
    queries, survivors, _ = _closure_walk()
    expected = {(56, 15): ["A7:w3"]}
    m = 4
    while m * (m + 1) // 2 <= top:
        if m % 4 != 3:
            expected[(m * (m + 1) // 2, m - 1)] = [f"A{m}:w2"]
        m += 1
    assert survivors[FormClass.NON_SELF_DUAL] == expected
    assert queries[FormClass.NON_SELF_DUAL] == 150_328  # at SWEEP_BOUND = 10^5
    _passed(f"criterion 4: non-self-dual survivors over n <= {top} occur "
            f"exactly at (56, 15) and the triangular family "
            f"({len(expected)} pairs)")


def test_criterion_5_symplectic_closure():
    top = BOUNDS[5]["n"]
    queries, survivors, _ = _closure_walk()
    assert survivors[FormClass.SYMPLECTIC] == {}
    checked = queries[FormClass.SYMPLECTIC]
    assert checked == 100_108  # at SWEEP_BOUND = 10^5
    _passed(f"criterion 5: symplectic survivors are empty for every even "
            f"n <= {top} ({checked} (n, r) queries)")


def test_orthogonal_closure():
    # ``survivors --form orth`` has no numbered criterion; this is its
    # sweep, to the same bound as criteria 4 and 5, with no PASS line
    queries, survivors, _ = _closure_walk()
    assert survivors[FormClass.ORTHOGONAL] == {}
    assert queries[FormClass.ORTHOGONAL] == 250_324  # at SWEEP_BOUND = 10^5


def test_closure_walk_builds_each_dimension_once():
    # one walk per process serves the three closures, and it builds the
    # candidates of each n in 5..SWEEP_BOUND once
    assert _closure_walk()[2] == SWEEP_BOUND - 4
    assert _closure_walk.cache_info().misses == 1


def test_criterion_6_rank2_closure():
    top = BOUNDS[6]["n"]
    for n in range(8, top + 1, 2):
        symp = [s.label for s in rank2_constraint(n)
                if s.form is FormClass.SYMPLECTIC]
        assert symp == [f"C{n // 2}:w1"], n
    _passed("criterion 6: the only symplectic rank-2 shape is the full "
            f"symplectic algebra for every even 8 <= n <= {top}")


def test_criterion_7_monodromy_invariants():
    bounds = BOUNDS[7]
    combos = [(g, r) for g in range(1, bounds["g"] + 1) for r in range(1, g + 1)]
    for i in range(bounds["instances"]):
        g, r = combos[i % len(combos)]
        inst = build_instance(g, r, seed=9000 + i)
        results = verify_instance(inst)
        assert all(results.values()), (g, r, 9000 + i, results)

    proper = [(g, r) for g, r in combos if r < g]
    for i in range(bounds["controls"]):
        g, r = proper[i % len(proper)]
        inst = build_instance(g, r, seed=500 + i)
        outside = inst.inertia_invariants[-1]
        first = tuple(a + b for a, b in zip(inst.toric_sub[0], outside))
        from dataclasses import replace
        bad = replace(inst, toric_sub=(first,) + inst.toric_sub[1:])
        assert not verify_orthogonality(bad), (g, r, 500 + i)
    _passed(f"criterion 7: {bounds['instances']} seeded instances with g ≤ {bounds['g']} "
            f"verify every invariant; {bounds['controls']} perturbed controls fail "
            "orthogonality")


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
    top, top_rank = BOUNDS[9]["n"], BOUNDS[9]["rank"]
    for n in range(2, top + 1):
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
        for rank in range(lo, top_rank + 1):
            for e in enumerate_minuscule(LieType(family, rank)):
                if quadratic_rank_profile(e)[0] == 1:
                    rank_one.append(e)
    for e in rank_one:
        fam, m, s = e.lie_type.family, e.lie_type.rank, e.weight_index
        assert (fam == "A" and s in (1, m)) or (fam == "C" and s == 1) \
            or (fam == "D" and m == 3 and s in (2, 3)), e.label
    for n in range(2, top + 1):
        from_catalog = {canonical(e) for e in rank_one if e.dim == n}
        # the catalog scan stops at top_rank, so compare within that bound
        from_lemma = {e.label for e in transvection_constraint(n)
                      if e.lie_type.rank <= top_rank}
        assert from_catalog == from_lemma, n
    _passed("criterion 9: transvection shapes are exactly sl and sp for "
            f"2 <= n <= {top}, matching the rank-1 catalog entries at rank <= {top_rank}")


def test_readme_states_the_bounds():
    text = README.read_text(encoding="utf-8")
    listed = text[text.index("\n1. "):text.index("## Library")]
    items = {}
    for chunk in listed.split("\n")[1:]:
        head, _, rest = chunk.partition(". ")
        if head.isdigit():
            items[int(head)] = rest
        elif chunk.strip():
            items[max(items)] += " " + chunk.strip()
    assert sorted(items) == list(range(1, 10))
    assert f"for every rank up to {BOUNDS[1]['rank']};" in items[1]
    assert f"up to `m = {_shown(BOUNDS[2]['m'])}`;" in items[2]
    assert f"up to `m = {_shown(BOUNDS[3]['m'])}`;" in items[3]
    assert f"over all dimensions up to {_shown(BOUNDS[4]['n'])} " in items[4]
    assert "over the same range" in items[5] and BOUNDS[5] == BOUNDS[4]
    assert f"every even dimension up to {BOUNDS[6]['n']};" in items[6]
    b7 = BOUNDS[7]
    assert items[7].startswith(f"{b7['instances']} seeded monodromy instances "
                               f"with g ≤ {b7['g']} ")
    assert f" {b7['controls']} perturbed instances " in items[7]
