"""The table of minuscule-type modules driving the exclusion engine.

Per family: A_m carries w1..wm; B_m the vector module w1 (dim 2m+1, the
quasi-minuscule stand-in the case analysis uses for odd orthogonal
groups); C_m the standard w1 (dim 2m); D_m the vector w1 (dim 2m) and the
two half-spin modules (dim 2^(m-1)); E6 carries w1 and w6 and E7 carries
w7.  E8 carries nothing.

A module is named by the index s of its highest weight ws.  ``descriptor``
is the public, checked constructor: it admits exactly the indices
``minuscule_weight_indices`` lists and fills in the closed-form dimension
and duality class.  The tests cross-validate those against the Weyl
dimension formula and the parity criterion of the root-system oracle
``tests/helpers_roots.py``; the package carries no root system, so the
table and the derivation stay independent of each other.

Every "entries of dimension n" lookup goes through the catalog:
``standard_module`` (the classical w1 entry of one family, built straight
from ``_W1``, the w1 dimensions and classes ``_dim_and_form`` reads too)
and ``minuscule_candidates`` (every entry, the E ones from a table built
at import).  ``MIN_RANK`` decides which classical ranks exist.  The
A_m:ws entries with s >= 3 come from a table built at import for every
dimension below _S3_CAP = 2^20 (333 of them); a dimension at or above it
bisects m for each s.  ``minuscule_candidates`` emits its entries in
ascending (family, rank, weight index), the dataclass order, as it finds
them, so it sorts nothing; the tests compare it with a build that takes
every entry from ``descriptor`` and sorts.

``minuscule_candidates`` is memoized per process, so the entries of a
dimension are built once however many ranks r are asked about it.  The
memo keeps the last CANDIDATE_MEMO_SIZE = 4096 dimensions.  A kept
dimension costs about 620 B (its key, the memo's link and a tuple of
slotted descriptors, measured with tracemalloc), so the memo holds at most
about 2.5 MB.  Descriptors and ``LieType`` are frozen and slotted and the
value is a tuple, so the entries are immutable and every caller can share
one value.

The search takes dimensions below 2^_MAX_CANDIDATE_BITS = 2^2048 and
raises at or past it, before it computes anything.  Its s >= 3 bisection runs
s up to about log2(n) / 2 with binomials of about log2(n) bits, so its
cost grows roughly as (log n)^3; the largest accepted dimensions took
about 1 s on a 2-vCPU host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

from .roots import MIN_RANK, FormClass, LieType

# the E entries (rank, index s) with their dimension and duality class
_E = {(6, 1): (27, FormClass.NON_SELF_DUAL), (6, 6): (27, FormClass.NON_SELF_DUAL),
      (7, 7): (56, FormClass.SYMPLECTIC)}
# the w1 entry of each classical family at rank m: dimension k * m + c, and
# its duality class (A1:w1, also the A1 middle weight, is symplectic)
_W1 = {"A": (1, 1, FormClass.NON_SELF_DUAL), "B": (2, 1, FormClass.ORTHOGONAL),
       "C": (2, 0, FormClass.SYMPLECTIC), "D": (2, 0, FormClass.ORTHOGONAL)}


@dataclass(frozen=True, order=True, slots=True)
class IrrepDescriptor:
    """One cataloged module: type, index s of its highest weight ws, dimension, form."""

    lie_type: LieType
    weight_index: int
    dim: int
    form: FormClass

    @property
    def label(self) -> str:
        return f"{self.lie_type}:w{self.weight_index}"


def minuscule_weight_indices(t: LieType) -> range | tuple[int, ...]:
    f, m = t.family, t.rank
    if f == "A":
        return range(1, m + 1)
    if f in ("B", "C"):
        return (1,)
    if f == "D":
        return (1, m - 1, m)
    return tuple(s for k, s in _E if k == m)


def _dim_and_form(t: LieType, s: int) -> tuple[int, FormClass]:
    """Closed-form dimension and duality class of the entry (t, ws)."""
    f, m = t.family, t.rank
    if f == "A" and m + 1 == 2 * s:
        # self-dual middle weight: parity of s(m+1-s) = s^2
        return comb(m + 1, s), FormClass.ORTHOGONAL if s % 2 == 0 else FormClass.SYMPLECTIC
    if s == 1 and f in _W1:
        k, c, form = _W1[f]
        return k * m + c, form
    if f == "A":
        return comb(m + 1, s), FormClass.NON_SELF_DUAL
    if f == "D":
        half_spin = 2 ** (m - 1)
        if m % 2 == 1:
            return half_spin, FormClass.NON_SELF_DUAL
        return half_spin, FormClass.ORTHOGONAL if m % 4 == 0 else FormClass.SYMPLECTIC
    return _E[m, s]


def descriptor(t: LieType, s: int) -> IrrepDescriptor:
    """The catalog entry for fundamental weight index s; raises if absent."""
    if s not in minuscule_weight_indices(t):
        raise ValueError(f"{t} carries no cataloged module at w{s}")
    return IrrepDescriptor(t, s, *_dim_and_form(t, s))


def enumerate_minuscule(t: LieType) -> tuple[IrrepDescriptor, ...]:
    return tuple(descriptor(t, s) for s in minuscule_weight_indices(t))


def _w1(family: str, m: int) -> IrrepDescriptor:
    """The w1 entry of a classical family at a rank LieType admits."""
    k, c, form = _W1[family]
    # A1:w1 is the A1 middle weight, so symplectic (see _dim_and_form)
    return IrrepDescriptor(LieType(family, m), 1, k * m + c,
                           form if m > 1 else FormClass.SYMPLECTIC)


def standard_module(family: str, n: int) -> IrrepDescriptor | None:
    """The classical w1 entry of family A, B, C or D with dimension n, or
    None.  Its rank can only be (n - c) / k, with k and c from ``_W1``;
    ``MIN_RANK`` decides whether that rank exists."""
    k, c, _ = _W1[family]
    m, rest = divmod(n - c, k)
    return None if rest or m < MIN_RANK[family] else _w1(family, m)


# a memory bound (see the module docstring); a sweep over every dimension
# up to 10^5, the bound of the acceptance sweeps, would keep about 62 MB
# without one
CANDIDATE_MEMO_SIZE = 4096
# a time bound (see the module docstring); it covers every dimension that
# reaches the search: ``survivors --dim``, both ``check`` routes and batch rows
_MAX_CANDIDATE_BITS = 2048

_E_ENTRIES = [descriptor(LieType("E", m), s) for m, s in _E]
_E_BY_DIM = {e.dim: tuple(f for f in _E_ENTRIES if f.dim == e.dim) for e in _E_ENTRIES}
# dimensions below this read their s >= 3 entries off _S3_BY_DIM, the
# others bisect
_S3_CAP = 2**20


def _s3_table(cap: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Dimension -> the (m, s) with s >= 3, 2s <= m + 1 and binom(m + 1, s)
    equal to it, by rising m, for each dimension below cap.  Each binomial
    is the one before times its exact ratio."""
    table = {}
    s, least = 3, 20  # least = binom(2s, s), the smallest binomial of s
    while least < cap:
        m, b = 2 * s - 1, least
        while b < cap:
            table.setdefault(b, []).append((m, s))
            m += 1
            b = b * (m + 1) // (m + 1 - s)  # binom(m + 1, s) from binom(m, s)
        least = least * (2 * s + 1) * (2 * s + 2) // ((s + 1) * (s + 1))
        s += 1
    return {n: tuple(sorted(hits)) for n, hits in table.items()}


_S3_BY_DIM = _s3_table(_S3_CAP)


def _least_m(n: int, s: int, hi: int) -> int:
    """The least m >= 2s - 1 with binom(m + 1, s) >= n, bisected below an
    hi with binom(hi + 1, s) >= n, so the search takes O(log hi) binomials.

    ``minuscule_candidates`` passes the previous s's answer as hi.  Call
    M_s the least m with binom(m + 1, s) >= n.  The loop runs s + 1 only
    if binom(2s + 2, s + 1) <= n, and binom(2s + 2, s + 1) exceeds
    binom(m + 1, s) for every m <= 2s, so M_s >= 2s + 1.  For m >= 2s,
    binom(m + 1, s + 1) = binom(m + 1, s) (m + 1 - s) / (s + 1) is at
    least binom(m + 1, s), hence binom(M_s + 1, s + 1) >= n and
    M_{s+1} <= M_s.  The step needs only some hi >= 2s with
    binom(hi + 1, s) >= n, so for s = 3 the bound read off isqrt(8n + 1)
    for s = 2 serves."""
    lo = 2 * s - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid + 1, s) < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


@lru_cache(maxsize=CANDIDATE_MEMO_SIZE)
def minuscule_candidates(n: int) -> tuple[IrrepDescriptor, ...]:
    """All cataloged modules of dimension n, A-family entries reported once
    up to duality (s <= (m+1)/2), in ascending (family, rank, weight
    index), the dataclass order.

    Memoized per process for the last CANDIDATE_MEMO_SIZE dimensions, with
    one shared, immutable value each (see the module docstring).  n < 2
    and n >= 2^_MAX_CANDIDATE_BITS raise on every call: the memo keeps no
    exceptions."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if n.bit_length() > _MAX_CANDIDATE_BITS:
        raise ValueError(f"dimension must be below 2^{_MAX_CANDIDATE_BITS}")
    root = isqrt(8 * n + 1)  # n = binom(m+1, 2) exactly when 8n + 1 = (2m+1)^2
    # the A entries by rising rank: s >= 3, then s = 2, then A_{n-1}:w1
    if n < _S3_CAP:
        out = [descriptor(LieType("A", m), s) for m, s in _S3_BY_DIM.get(n, ())]
    else:
        # m falls as s rises, so the hits come reversed
        out = []
        m = (root + 1) // 2  # 2m + 1 > sqrt(8n + 1), so binom(m + 1, 2) > n
        s = 3
        while comb(2 * s, s) <= n:
            m = _least_m(n, s, m)
            if comb(m + 1, s) == n:
                out.append(descriptor(LieType("A", m), s))
            s += 1
        out.reverse()
    if n >= 6 and root * root == 8 * n + 1:
        out.append(descriptor(LieType("A", (root - 1) // 2), 2))
    out.append(_w1("A", n - 1))
    # the B or the C and D w1 entries by parity, at the ranks MIN_RANK admits
    half = n // 2
    if n % 2:
        if half >= MIN_RANK["B"]:
            out.append(_w1("B", half))
    else:
        if half >= MIN_RANK["C"]:
            out.append(_w1("C", half))
        d_entries = [_w1("D", half)] if half >= MIN_RANK["D"] else []
        spin_m = n.bit_length()  # n = 2^(m-1) means m = bit_length(n)
        if 2 ** (spin_m - 1) == n and spin_m >= MIN_RANK["D"]:
            t = LieType("D", spin_m)
            spins = [descriptor(t, spin_m - 1), descriptor(t, spin_m)]
            # the half-spin rank is below n/2 from n = 16 on; at n = 8 both are 4
            d_entries = spins + d_entries if spin_m < half else d_entries + spins
        out += d_entries
    out += _E_BY_DIM.get(n, ())
    return tuple(out)
