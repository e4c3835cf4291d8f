"""Exclusion-engine tests: forced outer shapes, candidate enumeration
against a brute-force dimension scan, the per-pair rule ladder with its
bracketed reason tags, and the surviving-inner summaries."""

from __future__ import annotations

from math import comb, gcd

import pytest

from mtcheck.catalog import descriptor, enumerate_minuscule
from mtcheck.divisibility import divisibility_solutions
from mtcheck.exclusion import (CandidatePair, ExclusionStatus,
                               ExclusionVerdict, check_pair,
                               minuscule_candidates, surviving_inners,
                               theorem61_outer_shapes)
from mtcheck.roots import FormClass, LieType

from helpers_oracles import minuscule_candidates_by_scan


def _labels(entries) -> list[str]:
    return [e.label for e in entries]


def test_outer_shapes():
    nsd, symp, orth = (FormClass.NON_SELF_DUAL, FormClass.SYMPLECTIC,
                       FormClass.ORTHOGONAL)
    assert _labels(theorem61_outer_shapes(56, nsd)) == ["A55:w1"]
    assert _labels(theorem61_outer_shapes(5, nsd)) == ["A4:w1"]
    assert _labels(theorem61_outer_shapes(56, symp)) == ["C28:w1"]
    assert theorem61_outer_shapes(9, symp) == ()
    assert _labels(theorem61_outer_shapes(10, orth)) == ["D5:w1"]
    assert _labels(theorem61_outer_shapes(9, orth)) == ["B4:w1"]
    with pytest.raises(ValueError, match="> 4"):
        theorem61_outer_shapes(4, nsd)


def test_candidate_enumeration_examples():
    assert _labels(minuscule_candidates(56)) == [
        "A7:w3", "A55:w1", "C28:w1", "D28:w1", "E7:w7",
    ]
    assert _labels(minuscule_candidates(27)) == [
        "A26:w1", "B13:w1", "E6:w1", "E6:w6",
    ]
    assert _labels(minuscule_candidates(10)) == [
        "A4:w2", "A9:w1", "C5:w1", "D5:w1",
    ]
    assert _labels(minuscule_candidates(8)) == [
        "A7:w1", "C4:w1", "D4:w1", "D4:w3", "D4:w4",
    ]
    assert _labels(minuscule_candidates(2)) == ["A1:w1"]
    with pytest.raises(ValueError):
        minuscule_candidates(1)


def _canonical(labels: set[str]) -> set[str]:
    """Fold A-family labels onto the duality representative s <= (m+1)/2."""
    out = set()
    for lab in labels:
        head, w = lab.split(":")
        fam, rank, s = head[0], int(head[1:]), int(w[1:])
        if fam == "A" and 2 * s > rank + 1:
            s = rank + 1 - s
        out.add(f"{fam}{rank}:w{s}")
    return out


def test_candidates_match_brute_force_scan():
    max_n = 300
    by_dim: dict[int, set[str]] = {}
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, max_n + 1):
            for e in enumerate_minuscule(LieType(fam, rank)):
                if e.dim <= max_n:
                    by_dim.setdefault(e.dim, set()).add(e.label)
    for rank in (6, 7, 8):
        for e in enumerate_minuscule(LieType("E", rank)):
            by_dim.setdefault(e.dim, set()).add(e.label)
    for n in range(2, max_n + 1):
        got = set(_labels(minuscule_candidates(n)))
        assert got == _canonical(by_dim.get(n, set())), f"dimension {n}"


def test_candidates_match_stepping_scan():
    # s = 2 is read off isqrt(8n + 1) and m is bisected for s >= 3; the
    # scan steps m for every s
    for n in range(2, 10**4 + 1):
        assert minuscule_candidates(n) == minuscule_candidates_by_scan(n), n


def test_candidates_at_extreme_dimensions():
    # the stepping scan would take about 10^8 binomials for s = 3 here
    n = comb(10**8 + 1, 3)
    assert _labels(minuscule_candidates(n)) == [
        "A100000000:w3", f"A{n - 1}:w1", f"C{n // 2}:w1", f"D{n // 2}:w1"]
    # binom(2s, s) = n needs m = 2s - 1, the start of the search
    n = comb(40, 20)
    assert _labels(minuscule_candidates(n))[:2] == ["A39:w20", f"A{n - 1}:w1"]
    for n in (10**30 + 1, 10**100):
        assert all(e.weight_index == 1 for e in minuscule_candidates(n))


def _pair(inner_args, outer_args) -> CandidatePair:
    return CandidatePair(descriptor(*inner_args), descriptor(*outer_args))


A55 = (LieType("A", 55), 1)
A7W3 = (LieType("A", 7), 3)
C28 = (LieType("C", 28), 1)


def test_gcd_hypothesis_fires_before_structure_rules():
    pair = _pair((LieType("A", 5), 3), (LieType("C", 10), 1))
    verdict = check_pair(pair, 6)
    assert not verdict.admissible
    assert "gcd(6, 20)" in verdict.reason
    assert verdict.reason.endswith("[6.2]")


def test_classical_w1_rigidity():
    verdict = check_pair(_pair((LieType("D", 6), 1), (LieType("A", 11), 1)), 5)
    assert not verdict.admissible
    assert "no proper overalgebra" in verdict.reason
    assert verdict.reason.endswith("[Prop 6.3]")
    verdict = check_pair(_pair((LieType("B", 6), 1), (LieType("A", 12), 1)), 5)
    assert not verdict.admissible
    assert verdict.reason.endswith("[Prop 6.3]")


def test_exceptional_inner_excluded():
    verdict = check_pair(_pair((LieType("E", 7), 7), A55), 15)
    assert not verdict.admissible
    assert verdict.reason.endswith("[0.5.1]")


def test_nonstandard_outer_excluded():
    verdict = check_pair(_pair(A55, (LieType("E", 7), 7)), 15)
    assert not verdict.admissible
    assert verdict.reason.endswith("[Thm 6.1]")
    verdict = check_pair(_pair((LieType("A", 7), 1), (LieType("D", 4), 4)), 3)
    assert verdict.reason.endswith("[Thm 6.1]")


def test_half_spin_inners_excluded():
    verdict = check_pair(_pair((LieType("D", 5), 5), (LieType("A", 15), 1)), 3)
    assert not verdict.admissible
    assert "half-spin" in verdict.reason
    assert verdict.reason.endswith("[Lem 6.3]")
    verdict = check_pair(_pair((LieType("D", 4), 4), (LieType("A", 7), 1)), 3)
    assert not verdict.admissible
    assert "(D4, half-spin)" in verdict.reason
    assert verdict.reason.endswith("[Prop 6.3]")


def test_duality_class_mismatch():
    verdict = check_pair(_pair(A7W3, C28), 15)
    assert not verdict.admissible
    assert "duality classes" in verdict.reason
    assert verdict.reason.endswith("[6.2]")


def test_dual_standard_inner_is_not_proper():
    verdict = check_pair(_pair((LieType("A", 9), 9), (LieType("A", 9), 1)), 1)
    assert not verdict.admissible
    assert "not proper" in verdict.reason


def test_middle_weight_excluded():
    # middle weights are self-dual, so the outer must be the matching
    # classical standard for the ladder to reach the middle-weight rule
    verdict = check_pair(_pair((LieType("A", 7), 4), (LieType("D", 35), 1)), 3)
    assert not verdict.admissible
    assert "self-dual middle weight" in verdict.reason
    verdict = check_pair(_pair((LieType("A", 5), 3), (LieType("C", 10), 1)), 3)
    assert not verdict.admissible
    assert "self-dual middle weight" in verdict.reason


def test_rank_realizability():
    verdict = check_pair(_pair(A7W3, A55), 11)
    assert not verdict.admissible
    assert "forces quadratic rank 15, not 11" in verdict.reason
    assert verdict.reason.endswith("[PS]")


def test_admissible_survivors():
    verdict = check_pair(_pair(A7W3, A55), 15)
    assert verdict.admissible
    assert verdict.status is ExclusionStatus.ADMISSIBLE
    assert "binom(6, 2) divides" in verdict.reason
    assert verdict.reason.endswith("[Prop 6.3]")
    verdict = check_pair(_pair((LieType("A", 9), 2), (LieType("A", 44), 1)), 8)
    assert verdict.admissible
    verdict = check_pair(_pair((LieType("A", 5), 2), (LieType("A", 14), 1)), 4)
    assert verdict.admissible


def test_gcd_hypothesis_subsumes_divisibility_failure():
    """The identity in check_pair's docstring, n * s(m+1-s) = r * m(m+1)
    with r = binom(m-1, s-1), makes gcd(r, n) = 1 imply r | s(m+1-s), so
    every non-solution pair is already stopped by the gcd rule and the
    closing divisibility exclusion is purely defensive."""
    solutions = divisibility_solutions(60)
    for m in range(5, 61):
        for s in range(2, m // 2 + 1):
            assert comb(m + 1, s) * s * (m + 1 - s) == comb(m - 1, s - 1) * m * (m + 1)
            if (m, s) not in solutions:
                assert gcd(comb(m - 1, s - 1), comb(m + 1, s)) != 1, (m, s)


def test_pair_construction_validation():
    with pytest.raises(ValueError, match="same dimension"):
        _pair((LieType("A", 7), 3), (LieType("A", 10), 1))
    with pytest.raises(ValueError, match="inner != outer"):
        _pair(A55, A55)
    with pytest.raises(ValueError, match="> 4"):
        check_pair(_pair((LieType("A", 3), 1), (LieType("C", 2), 1)), 1)


def test_a_family_branch_agrees_with_divisibility_table():
    solutions = divisibility_solutions(40)
    for m in range(5, 41):
        for s in range(2, m // 2 + 1):
            n = comb(m + 1, s)
            r = comb(m - 1, s - 1)
            if gcd(r, n) != 1:
                continue
            pair = _pair((LieType("A", m), s), (LieType("A", n - 1), 1))
            admissible = check_pair(pair, r).admissible
            assert admissible == ((m, s) in solutions), (m, s)
            assert admissible == ((s * (m + 1 - s)) % r == 0), (m, s)


def test_surviving_inners_examples():
    nsd, symp, orth = (FormClass.NON_SELF_DUAL, FormClass.SYMPLECTIC,
                       FormClass.ORTHOGONAL)
    assert _labels(surviving_inners(56, nsd, 15)) == ["A7:w3"]
    assert _labels(surviving_inners(10, nsd, 3)) == ["A4:w2"]
    assert _labels(surviving_inners(36, nsd, 7)) == ["A8:w2"]
    assert surviving_inners(56, symp, 15) == ()
    assert surviving_inners(14, symp, 3) == ()
    assert surviving_inners(27, orth, 2) == ()
    assert surviving_inners(56, nsd, 11) == ()


def test_surviving_inners_preconditions():
    with pytest.raises(ValueError, match="> 4"):
        surviving_inners(4, FormClass.NON_SELF_DUAL, 1)
    with pytest.raises(ValueError, match="coprimality"):
        surviving_inners(10, FormClass.NON_SELF_DUAL, 5)


def test_verdict_flag():
    v = ExclusionVerdict(ExclusionStatus.ADMISSIBLE, "ok")
    assert v.admissible
    v = ExclusionVerdict(ExclusionStatus.EXCLUDED, "no")
    assert not v.admissible
