"""Exclusion-engine tests: forced outer shapes, candidate enumeration
against a brute-force dimension scan, a descriptor-built and sorted oracle
and its per-process memo, the entry order where a dimension holds several
entries, the per-pair rule ladder with every reason text pinned byte for
byte, and the surviving-inner summaries."""

from __future__ import annotations

from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtcheck import catalog, exclusion
from mtcheck.catalog import IrrepDescriptor, descriptor, enumerate_minuscule, standard_module
from mtcheck.divisibility import divisibility_solutions
from mtcheck.exclusion import (ExclusionVerdict, check_pair, minuscule_candidates,
                               surviving_inners, theorem61_outer_shapes)
from mtcheck.roots import FormClass, LieType

from helpers_oracles import (candidate_min_ranks, minuscule_candidates_by_descriptor,
                             minuscule_candidates_by_scan, surviving_inners_by_pairs,
                             theorem61_family)
from test_acceptance import SWEEP_BOUND


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


def test_outer_shapes_match_standard_module():
    # the outer is read off the candidate tuple; standard_module looks it
    # up directly
    for n in list(range(5, 10**4 + 1)) + [10**30, 10**30 + 1]:
        for form in FormClass:
            outer = standard_module(theorem61_family(n, form), n)
            assert theorem61_outer_shapes(n, form) == ((outer,) if outer else ()), (n, form)


def test_candidate_enumeration_examples():
    # 8, 56 and the other dimensions with several entries are pinned in
    # test_candidate_order_where_entries_share_a_dimension
    assert _labels(minuscule_candidates(27)) == [
        "A26:w1", "B13:w1", "E6:w1", "E6:w6",
    ]
    assert _labels(minuscule_candidates(10)) == [
        "A4:w2", "A9:w1", "C5:w1", "D5:w1",
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


_DIM_CAP = 10**30


def _max_m(s: int) -> int:
    """The largest m with binom(m + 1, s) <= _DIM_CAP, given binom(2s, s) <= _DIM_CAP."""
    lo, hi = 2 * s - 1, s * 10 ** (30 // s + 1)  # binom(hi + 1, s) > (hi / s)^s
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if comb(mid + 1, s) <= _DIM_CAP else (lo, mid - 1)
    return lo


_M_MAX = {s: _max_m(s) for s in range(3, 60) if comb(2 * s, s) <= _DIM_CAP}


@settings(derandomize=True, database=None, max_examples=300)
@given(st.sampled_from(sorted(_M_MAX)).flatmap(
    lambda s: st.tuples(st.just(s), st.integers(2 * s - 1, _M_MAX[s]))))
def test_bisection_finds_every_a_entry(sm):
    # the s + 1 search is bracketed by the least m found for s, with no
    # doubling; an entry the bracket cut off would be missing here
    s, m = sm
    assert descriptor(LieType("A", m), s) in minuscule_candidates(comb(m + 1, s))


def test_candidates_match_descriptor_oracle():
    # the build emits its entries in sort order and makes its w1 entries
    # without descriptor; the oracle checks every entry and sorts, so ==
    # compares the order too
    for n in range(2, SWEEP_BOUND + 1):
        assert minuscule_candidates(n) == minuscule_candidates_by_descriptor(n), n


def _near(base):
    return st.tuples(base, st.integers(-1, 1)).map(lambda t: max(2, t[0] + t[1]))


_BINOMIAL_DIMS = st.sampled_from(sorted(_M_MAX)).flatmap(
    lambda s: st.integers(2 * s - 1, _M_MAX[s]).map(lambda m: comb(m + 1, s)))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.one_of(_near(_BINOMIAL_DIMS), _near(st.integers(2, 99).map(lambda k: 2**k)),
                 st.integers(2, _DIM_CAP)))
@example(comb(10**8 + 1, 3))
@example(2**64)
@example(10**30 + 1)
def test_candidates_match_descriptor_oracle_at_large_dimensions(n):
    assert minuscule_candidates(n) == minuscule_candidates_by_descriptor(n)


@pytest.mark.parametrize("n, labels", [
    (4, ["A3:w1", "C2:w1", "D3:w2", "D3:w3"]),
    (8, ["A7:w1", "C4:w1", "D4:w1", "D4:w3", "D4:w4"]),  # spin rank = n/2
    (16, ["A15:w1", "C8:w1", "D5:w4", "D5:w5", "D8:w1"]),
    (32, ["A31:w1", "C16:w1", "D6:w5", "D6:w6", "D16:w1"]),
    (56, ["A7:w3", "A55:w1", "C28:w1", "D28:w1", "E7:w7"]),
    (120, ["A9:w3", "A15:w2", "A119:w1", "C60:w1", "D60:w1"]),
    (210, ["A9:w4", "A20:w2", "A209:w1", "C105:w1", "D105:w1"]),
    (1540, ["A21:w3", "A55:w2", "A1539:w1", "C770:w1", "D770:w1"]),
    (3003, ["A13:w6", "A14:w5", "A77:w2", "A3002:w1", "B1501:w1"]),
    (7140, ["A35:w3", "A119:w2", "A7139:w1", "C3570:w1", "D3570:w1"]),
    (11628, ["A18:w5", "A152:w2", "A11627:w1", "C5814:w1", "D5814:w1"]),
    (24310, ["A16:w8", "A220:w2", "A24309:w1", "C12155:w1", "D12155:w1"]),
])
def test_candidate_order_where_entries_share_a_dimension(n, labels):
    assert _labels(minuscule_candidates(n)) == labels


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


def test_candidate_memo_is_transparent():
    # one memo object serves the catalog, the engine and the test oracles
    assert exclusion.minuscule_candidates is catalog.minuscule_candidates
    minuscule_candidates.cache_clear()
    for n in (2, 10, 56, 2**10, 10**30 + 1):
        cold = minuscule_candidates(n)
        assert minuscule_candidates(n) is cold, n
        assert cold == minuscule_candidates.__wrapped__(n), n  # a fresh build
        if n <= 10**4:
            assert cold == minuscule_candidates_by_scan(n), n
    for _ in range(2):  # the memo keeps no exception
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            minuscule_candidates(1)


def test_candidate_memo_is_bounded():
    minuscule_candidates.cache_clear()
    for n in range(2, catalog.CANDIDATE_MEMO_SIZE + 100):
        minuscule_candidates(n)
    info = minuscule_candidates.cache_info()
    assert info.maxsize == info.currsize == catalog.CANDIDATE_MEMO_SIZE


def _pair(inner_args, outer_args) -> tuple[IrrepDescriptor, IrrepDescriptor]:
    """The inner and outer descriptors that check_pair takes first."""
    return descriptor(*inner_args), descriptor(*outer_args)


A55 = (LieType("A", 55), 1)
A7W3 = (LieType("A", 7), 3)
C28 = (LieType("C", 28), 1)


def test_gcd_hypothesis_fires_before_structure_rules():
    pair = _pair((LieType("A", 5), 3), (LieType("C", 10), 1))
    verdict = check_pair(*pair, 6)
    assert not verdict.admissible
    assert "gcd(6, 20)" in verdict.reason
    assert verdict.reason.endswith("[6.2]")


def test_classical_w1_rigidity():
    verdict = check_pair(*_pair((LieType("D", 6), 1), (LieType("A", 11), 1)), 5)
    assert not verdict.admissible
    assert "no proper overalgebra" in verdict.reason
    assert verdict.reason.endswith("[Prop 6.3]")
    verdict = check_pair(*_pair((LieType("B", 6), 1), (LieType("A", 12), 1)), 5)
    assert not verdict.admissible
    assert verdict.reason.endswith("[Prop 6.3]")


def test_exceptional_inner_excluded():
    verdict = check_pair(*_pair((LieType("E", 7), 7), A55), 15)
    assert not verdict.admissible
    assert verdict.reason.endswith("[0.5.1]")


def test_nonstandard_outer_excluded():
    verdict = check_pair(*_pair(A55, (LieType("E", 7), 7)), 15)
    assert not verdict.admissible
    assert verdict.reason.endswith("[Thm 6.1]")
    verdict = check_pair(*_pair((LieType("A", 7), 1), (LieType("D", 4), 4)), 3)
    assert verdict.reason.endswith("[Thm 6.1]")


def test_half_spin_inners_excluded():
    verdict = check_pair(*_pair((LieType("D", 5), 5), (LieType("A", 15), 1)), 3)
    assert not verdict.admissible
    assert "half-spin" in verdict.reason
    assert verdict.reason.endswith("[Lem 6.3]")
    verdict = check_pair(*_pair((LieType("D", 4), 4), (LieType("A", 7), 1)), 3)
    assert not verdict.admissible
    assert "(D4, half-spin)" in verdict.reason
    assert verdict.reason.endswith("[Prop 6.3]")


def test_duality_class_mismatch():
    verdict = check_pair(*_pair(A7W3, C28), 15)
    assert not verdict.admissible
    assert "duality classes" in verdict.reason
    assert verdict.reason.endswith("[6.2]")


def test_dual_standard_inner_is_not_proper():
    verdict = check_pair(*_pair((LieType("A", 9), 9), (LieType("A", 9), 1)), 1)
    assert not verdict.admissible
    assert "not proper" in verdict.reason


def test_middle_weight_excluded():
    # middle weights are self-dual, so the outer must be the matching
    # classical standard for the ladder to reach the middle-weight rule
    verdict = check_pair(*_pair((LieType("A", 7), 4), (LieType("D", 35), 1)), 3)
    assert not verdict.admissible
    assert "self-dual middle weight" in verdict.reason
    verdict = check_pair(*_pair((LieType("A", 5), 3), (LieType("C", 10), 1)), 3)
    assert not verdict.admissible
    assert "self-dual middle weight" in verdict.reason


def test_rank_realizability():
    verdict = check_pair(*_pair(A7W3, A55), 11)
    assert not verdict.admissible
    assert "forces quadratic rank 15, not 11" in verdict.reason
    assert verdict.reason.endswith("[PS]")


def test_admissible_survivors():
    verdict = check_pair(*_pair(A7W3, A55), 15)
    assert verdict.admissible
    assert "binom(6, 2) divides" in verdict.reason
    assert verdict.reason.endswith("[Prop 6.3]")
    verdict = check_pair(*_pair((LieType("A", 9), 2), (LieType("A", 44), 1)), 8)
    assert verdict.admissible
    verdict = check_pair(*_pair((LieType("A", 5), 2), (LieType("A", 14), 1)), 4)
    assert verdict.admissible


# One case per rung, in ladder order, then the admissible text; each reason
# is pinned byte for byte, so a changed word in any rung fails here.
_REASONS = [
    ("exceptional-inner", (LieType("E", 7), 7), A55, 15, False,
     "inner algebra must not be exceptional [0.5.1]"),
    ("non-classical-outer", A55, (LieType("E", 7), 7), 15, False,
     "outer shape must be a classical standard module [Thm 6.1]"),
    ("non-standard-outer", (LieType("A", 7), 1), (LieType("D", 4), 4), 3, False,
     "outer shape must be a classical standard module [Thm 6.1]"),
    ("gcd", (LieType("A", 5), 3), (LieType("C", 10), 1), 6, False,
     "gcd(6, 20) != 1 violates the coprimality hypothesis [6.2]"),
    ("d4-half-spin", (LieType("D", 4), 4), (LieType("A", 7), 1), 3, False,
     "(D4, half-spin) sits in no classical standard module [Prop 6.3]"),
    ("half-spin", (LieType("D", 5), 5), (LieType("A", 15), 1), 3, False,
     "half-spin quadratic ranks 2^(m-3), 2^(m-2) share a factor > 2 "
     "with 2^(m-1) [Lem 6.3]"),
    ("half-spin-w-m-1", (LieType("D", 6), 5), (LieType("A", 31), 1), 3, False,
     "half-spin quadratic ranks 2^(m-3), 2^(m-2) share a factor > 2 "
     "with 2^(m-1) [Lem 6.3]"),
    ("classical-w1-d", (LieType("D", 6), 1), (LieType("A", 11), 1), 5, False,
     "(D_m, w1) admits no proper overalgebra of equal dimension [Prop 6.3]"),
    ("classical-w1-b", (LieType("B", 6), 1), (LieType("A", 12), 1), 5, False,
     "(B_m, w1) admits no proper overalgebra of equal dimension [Prop 6.3]"),
    ("classical-w1-c", (LieType("C", 6), 1), (LieType("A", 11), 1), 5, False,
     "(C_m, w1) admits no proper overalgebra of equal dimension [Prop 6.3]"),
    ("duality", A7W3, C28, 15, False,
     "inner and outer duality classes must agree [6.2]"),
    ("dual-standard", (LieType("A", 9), 9), (LieType("A", 9), 1), 1, False,
     "dual-standard inner fills the outer algebra; the inclusion is not "
     "proper [Thm 6.1]"),
    ("middle-weight", (LieType("A", 7), 4), (LieType("D", 35), 1), 3, False,
     "self-dual middle weight: rank binom(2(s-1), s-1) > s cannot divide s "
     "[Prop 6.3]"),
    ("rank-ps", A7W3, A55, 11, False,
     "(A_7, w3) forces quadratic rank 15, not 11 [PS]"),
    ("rank-ps-dual", (LieType("A", 7), 5), A55, 11, False,
     "(A_7, w3) forces quadratic rank 15, not 11 [PS]"),
    ("admissible", A7W3, A55, 15, True,
     "binom(6, 2) divides 3(8-3) [Prop 6.3]"),
    ("admissible-dual", (LieType("A", 7), 5), A55, 15, True,
     "binom(6, 2) divides 3(8-3) [Prop 6.3]"),
    ("admissible-s2", (LieType("A", 9), 2), (LieType("A", 44), 1), 8, True,
     "binom(8, 1) divides 2(10-2) [Prop 6.3]"),
]


@pytest.mark.parametrize("inner, outer, r, admissible, reason",
                         [case[1:] for case in _REASONS],
                         ids=[case[0] for case in _REASONS])
def test_reason_texts_byte_for_byte(inner, outer, r, admissible, reason):
    assert check_pair(*_pair(inner, outer), r) == ExclusionVerdict(admissible, reason)


def test_gcd_hypothesis_subsumes_divisibility_failure():
    """The identity in check_pair's docstring, n * s(m+1-s) = r * m(m+1)
    with r = binom(m-1, s-1), makes gcd(r, n) = 1 imply r | s(m+1-s), so
    every non-solution pair is already stopped by the gcd rule and the
    ladder needs no divisibility rung of its own."""
    solutions = divisibility_solutions(60)
    for m in range(5, 61):
        for s in range(2, m // 2 + 1):
            assert comb(m + 1, s) * s * (m + 1 - s) == comb(m - 1, s - 1) * m * (m + 1)
            if (m, s) not in solutions:
                assert gcd(comb(m - 1, s - 1), comb(m + 1, s)) != 1, (m, s)


@st.composite
def _a_inner(draw) -> tuple[int, int]:
    m = draw(st.integers(3, 10**4))
    return m, draw(st.integers(2, (m + 1) // 2))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_a_inner())
@example((7, 3))
@example((10**4, 2))
def test_admissible_a_inners_satisfy_divisibility(ms):
    # an (A_m, ws) inner past the gcd and rank rungs is admissible without
    # a divisibility rung, so every admissible verdict must meet the lemma
    m, s = ms
    n, r = comb(m + 1, s), comb(m - 1, s - 1)
    verdict = check_pair(*_pair((LieType("A", m), s), (LieType("A", n - 1), 1)), r)
    if verdict.admissible:
        assert s * (m + 1 - s) % r == 0, (m, s)


def test_check_pair_preconditions():
    # each precondition is reported before the later ones, down to r >= 1
    a3, a7w3 = (LieType("A", 3), 1), (LieType("A", 7), 3)
    for inner, outer, message in [
        (a7w3, (LieType("A", 10), 1), "same dimension"),
        (a3, a7w3, "same dimension"),
        (A55, A55, "inner != outer"),
        (a3, a3, "inner != outer"),
        (a3, (LieType("C", 2), 1), "> 4"),
    ]:
        for r in (1, 0):
            with pytest.raises(ValueError, match=message):
                check_pair(*_pair(inner, outer), r)


def test_a_family_branch_agrees_with_divisibility_table():
    solutions = divisibility_solutions(40)
    for m in range(5, 41):
        for s in range(2, m // 2 + 1):
            n = comb(m + 1, s)
            r = comb(m - 1, s - 1)
            if gcd(r, n) != 1:
                continue
            pair = _pair((LieType("A", m), s), (LieType("A", n - 1), 1))
            admissible = check_pair(*pair, r).admissible
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
    with pytest.raises(ValueError, match="> 4"):
        surviving_inners(4, FormClass.ORTHOGONAL, 1)  # n = 4 has no D outer
    with pytest.raises(ValueError, match="coprimality"):
        surviving_inners(10, FormClass.NON_SELF_DUAL, 5)


@pytest.mark.parametrize("r", [0, -1, -3, -15])
def test_quadratic_rank_below_one_is_rejected(r):
    # gcd(-1, n) = 1, so without the check a negative rank reached the ladder
    for form in FormClass:
        with pytest.raises(ValueError, match="must be at least 1"):
            surviving_inners(56, form, r)
    with pytest.raises(ValueError, match="must be at least 1"):
        check_pair(*_pair(A7W3, A55), r)


def test_surviving_inners_match_pairwise_oracle():
    def agree(n):
        for r in candidate_min_ranks(n) | {1, 2, n - 1}:
            if gcd(r, n) == 1:
                for form in FormClass:
                    assert surviving_inners(n, form, r) == \
                        surviving_inners_by_pairs(n, form, r), (n, form, r)

    for n in range(5, 3001):
        agree(n)
    agree(10**30 + 1)
    agree(comb(10**8 + 1, 3))
