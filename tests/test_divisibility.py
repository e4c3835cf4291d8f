"""Arithmetic layer: frozen small sweeps, structural characterizations of
the full sweeps, the finite reductions that make criteria 2 and 3 hold for
every m, and the exception-pair list checked against a brute-force
predicate."""

from __future__ import annotations

from math import comb, gcd

import pytest

from helpers_oracles import (divisibility_solutions_unpruned, is_exception_pair,
                             triangular_m)
from mtcheck.divisibility import divisibility_solutions, exception_pairs, gcd_mod4_check


def test_divisibility_solutions_frozen_prefix():
    assert divisibility_solutions(10) == (
        (5, 2), (6, 2), (7, 2), (7, 3), (8, 2), (9, 2), (10, 2),
    )


def test_divisibility_solutions_structure():
    expected = {(m, 2) for m in range(5, 201)} | {(7, 3)}
    assert set(divisibility_solutions(200)) == expected


def test_divisibility_solutions_match_unpruned_scan():
    unpruned = divisibility_solutions_unpruned(400)
    for m_max in range(5, 401):
        assert divisibility_solutions(m_max) == tuple(
            p for p in unpruned if p[0] <= m_max), m_max


def test_divisibility_solutions_requires_m_max():
    with pytest.raises(ValueError, match=">= 5"):
        divisibility_solutions(4)


def test_criterion_2_reduces_to_m_at_most_8():
    # binom(m-1, 2) - 3(m-2) and (m-2)(m-7)/2 are polynomials of degree 2
    # in m, so agreeing at three points they agree for every m
    for m in (8, 9, 10):
        assert comb(m - 1, 2) - 3 * (m - 2) == (m - 2) * (m - 7) // 2
    # for m >= 8 both factors are positive, so binom(m-1, 2) > 3(m-2) and
    # s = 3 cannot divide; the ratio binom(m-1, s-1) / (s(m+1-s)) only grows
    # with s <= m/2 (see divisibility_solutions), so no s >= 3 divides, and
    # s = 2 always does: m - 1 divides 2(m - 1).  So the m <= 8 answer
    # decides every m
    assert divisibility_solutions(8) == ((5, 2), (6, 2), (7, 2), (7, 3), (8, 2))


def test_criterion_3_reduces_to_one_period_mod_4():
    # gcd(m-1, m(m+1)/2) divides gcd(m-1, m) gcd(m-1, m+1) = 1 * gcd(m-1, 2),
    # so it is 1 or 2.  It is 2 exactly when m - 1 and m(m+1)/2 are both
    # even, and both parities have period 4 in m: m + 4 adds 4 to m - 1 and
    # 4m + 10 to m(m+1)/2.  So m in {4, ..., 7} decides every m
    for m in range(4, 8):
        assert gcd(m - 1, m * (m + 1) // 2) == (2 if m % 4 == 3 else 1), m
        assert (m + 4) * (m + 5) // 2 - m * (m + 1) // 2 == 4 * m + 10
    assert gcd_mod4_check(7) == (4, 5, 6)
    for m in (10**30 + k for k in range(4)):
        assert gcd(m - 1, m * (m + 1) // 2) == (2 if m % 4 == 3 else 1), m


def test_central_binomial_recurrence():
    # comb(2s, s) = comb(2s-2, s-1) * 2(2s-1)/s drives the candidate-scan
    # cutoff: the central binomial coefficients are strictly increasing.
    for s in range(2, 101):
        assert comb(2 * s, s) * s == comb(2 * s - 2, s - 1) * 2 * (2 * s - 1)
        assert comb(2 * s, s) > comb(2 * s - 2, s - 1)


def test_gcd_mod4_check_frozen_prefix():
    assert gcd_mod4_check(20) == (4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 20)


def test_gcd_mod4_check_characterization():
    hits = set(gcd_mod4_check(500))
    for m in range(4, 501):
        assert (m in hits) == (m % 2 == 0 or m % 4 == 1), m


def test_gcd_mod4_check_requires_m_max():
    with pytest.raises(ValueError, match=">= 4"):
        gcd_mod4_check(3)


def test_triangular_m():
    assert triangular_m(10) == 4
    assert triangular_m(15) == 5
    assert triangular_m(21) == 6
    assert triangular_m(45) == 9
    assert triangular_m(55) == 10
    assert triangular_m(56) is None
    assert triangular_m(6) is None  # m = 3 is below the family threshold
    assert triangular_m(1) is None
    for m in range(4, 100):
        assert triangular_m(m * (m + 1) // 2) == m


def test_is_exception_pair():
    assert is_exception_pair(56, 15)
    assert is_exception_pair(10, 3)
    assert is_exception_pair(15, 4)
    assert is_exception_pair(21, 5)
    assert is_exception_pair(36, 7)
    assert is_exception_pair(45, 8)
    assert is_exception_pair(55, 9)
    assert is_exception_pair(78, 11)
    assert not is_exception_pair(28, 6)   # m = 7 = 3 mod 4 fails coprimality
    assert not is_exception_pair(66, 10)  # m = 11 = 3 mod 4
    assert not is_exception_pair(10, 4)
    assert not is_exception_pair(56, 14)
    assert not is_exception_pair(12, 3)


def test_exception_pairs_frozen():
    got = [(p.g, p.r) for p in exception_pairs(60)]
    assert got == [(10, 3), (15, 4), (21, 5), (36, 7), (45, 8), (55, 9), (56, 15)]
    family = [(m * (m + 1) // 2, m - 1) for m in (4, 5, 6, 8, 9, 10)]
    assert sorted(family + [(56, 15)]) == got


def test_exception_pairs_bounds():
    assert [(p.g, p.r) for p in exception_pairs(10)] == [(10, 3)]
    with pytest.raises(ValueError, match=">= 10"):
        exception_pairs(9)


def test_exception_pairs_agree_with_predicate():
    # the brute list ascends in (g, r), so this pins the order too: (56, 15)
    # comes before the family's (78, 11)
    listed = [(p.g, p.r) for p in exception_pairs(300)]
    brute = [(g, r) for g in range(1, 301) for r in range(1, g + 1)
             if is_exception_pair(g, r)]
    assert listed == brute
    for p in exception_pairs(300):
        assert gcd(p.g, p.r) == 1


def test_family_members_skipped_for_coprimality():
    for m in range(4, 200):
        if m % 4 == 3:
            assert gcd(m * (m + 1) // 2, m - 1) > 1, m
