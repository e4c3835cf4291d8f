"""Arithmetic searches behind the coprime-rank case analysis.

Three exact statements are mechanized here: the binomial divisibility
binom(m-1, s-1) | s(m+1-s) holds only for s = 2 or (m, s) = (7, 3); the
coprimality gcd(m-1, m(m+1)/2) = 1 holds exactly for m even or m = 1 mod
4; and the resulting exception pairs (g, r) are (56, 15) together with the
family (m(m+1)/2, m-1).  Family members with m = 3 mod 4 are omitted since
gcd(r, g) = 1 already fails for them.  ``exception_pairs`` is the one place
the pairs are written down; the tests compare its list with a brute-force
predicate and check gcd(g, r) = 1 on each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd


@dataclass(frozen=True, order=True)
class ExceptionPair:
    """An exception pair (g, r), as ``exception_pairs`` lists them."""

    g: int
    r: int


def divisibility_solutions(m_max: int) -> tuple[tuple[int, int], ...]:
    """All (m, s) with 5 <= m <= m_max, 2 <= s < (m+1)/2 and
    binom(m-1, s-1) | s(m+1-s).

    For each m the scan stops at the first s whose binomial exceeds
    s(m+1-s): it cannot divide there, and no later s can, because from s to
    s+1 the ratio binom(m-1, s-1) / (s(m+1-s)) grows by the factor
    (m+1-s)/(s+1) >= 1 while s <= m/2.  The binomial is carried along
    exactly: binom(m-1, s) = binom(m-1, s-1) (m-s)/s.
    """
    if m_max < 5:
        raise ValueError("m_max must be >= 5")
    out = []
    for m in range(5, m_max + 1):
        binom = comb(m - 1, 1)  # binom(m-1, s-1) at s = 2
        for s in range(2, m // 2 + 1):
            product = s * (m + 1 - s)
            if binom > product:
                break
            if product % binom == 0:
                out.append((m, s))
            binom = binom * (m - s) // s
    return tuple(out)


def gcd_mod4_check(m_max: int) -> tuple[int, ...]:
    """All 4 <= m <= m_max with gcd(m-1, m(m+1)/2) = 1."""
    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    return tuple(
        m for m in range(4, m_max + 1) if gcd(m - 1, m * (m + 1) // 2) == 1
    )


def exception_pairs(g_max: int) -> tuple[ExceptionPair, ...]:
    """All exception pairs with g <= g_max, sorted by (g, r)."""
    if g_max < 10:
        raise ValueError("g_max must be >= 10")
    pairs = []
    m = 4
    while m * (m + 1) // 2 <= g_max:
        if m % 4 != 3:
            pairs.append(ExceptionPair(m * (m + 1) // 2, m - 1))
        m += 1
    if g_max >= 56:
        pairs.append(ExceptionPair(56, 15))
    return tuple(sorted(pairs))
