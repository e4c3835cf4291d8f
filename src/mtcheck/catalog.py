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
from the closed forms, since w1 is cataloged in every classical family)
and ``minuscule_candidates`` (every entry, the E ones from a table built
at import).  ``LieType`` alone decides which ranks exist.
``minuscule_candidates`` emits its entries in ascending (family, rank,
weight index), the dataclass order, as it finds them, so it sorts nothing;
the tests compare it with a build that takes every entry from
``descriptor`` and sorts.

``minuscule_candidates`` is memoized per process, so the entries of a
dimension are built once however many ranks r are asked about it.  The
memo keeps the last CANDIDATE_MEMO_SIZE = 4096 dimensions.  A kept
dimension costs about 620 B (its key, the memo's link and a tuple of
slotted descriptors, measured with tracemalloc), so the memo holds at most
about 2.5 MB.  Descriptors and ``LieType`` are frozen and slotted and the
value is a tuple, so the entries are immutable and every caller can share
one value.

The search takes dimensions below 2^_MAX_CANDIDATE_BITS = 2^2048 and
raises at or past it, before it computes anything.  Its s >= 3 loop runs
s up to about log2(n) / 2 with binomials of about log2(n) bits, so its
cost grows roughly as (log n)^3; the largest accepted dimensions took
about 1 s on a 2-vCPU host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

from .roots import FormClass, LieType

# the E entries (rank, index s) with their dimension and duality class
_E = {(6, 1): (27, FormClass.NON_SELF_DUAL), (6, 6): (27, FormClass.NON_SELF_DUAL),
      (7, 7): (56, FormClass.SYMPLECTIC)}


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
    if f == "A":
        dim = comb(m + 1, s)
        if m + 1 != 2 * s:
            return dim, FormClass.NON_SELF_DUAL
        # self-dual middle weight: parity of s(m+1-s) = s^2
        return dim, FormClass.ORTHOGONAL if s % 2 == 0 else FormClass.SYMPLECTIC
    if f == "B":
        return 2 * m + 1, FormClass.ORTHOGONAL
    if f == "C":
        return 2 * m, FormClass.SYMPLECTIC
    if f == "D":
        if s == 1:
            return 2 * m, FormClass.ORTHOGONAL
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


def _lie_type(family: str, rank: int) -> LieType | None:
    """LieType(family, rank), or None where LieType rejects the rank."""
    try:
        return LieType(family, rank)
    except ValueError:
        return None


def standard_module(family: str, n: int) -> IrrepDescriptor | None:
    """The classical w1 entry of family A, B, C or D with dimension n, or
    None.  Its rank can only be n - 1 (A) or n // 2 (B, C, D); LieType
    decides whether that rank exists and the closed-form dimension whether
    the entry fits n."""
    t = _lie_type(family, n - 1 if family == "A" else n // 2)
    if t is None:
        return None
    # w1 is cataloged in every classical family, so descriptor's check is moot
    dim, form = _dim_and_form(t, 1)
    return IrrepDescriptor(t, 1, dim, form) if dim == n else None


# a memory bound (see the module docstring); a sweep over every dimension
# up to 35000, the bound of the acceptance sweeps, would keep about 22 MB
# without one
CANDIDATE_MEMO_SIZE = 4096
# a time bound (see the module docstring); it covers every dimension that
# reaches the search: ``survivors --dim``, both ``check`` routes and batch rows
_MAX_CANDIDATE_BITS = 2048

_E_ENTRIES = [descriptor(LieType("E", m), s) for m, s in _E]
_E_BY_DIM = {e.dim: tuple(f for f in _E_ENTRIES if f.dim == e.dim) for e in _E_ENTRIES}


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
    # the A entries by rising rank: m falls as s rises, so the s >= 3 hits
    # come reversed, then s = 2, then A_{n-1}:w1
    out = []
    root = isqrt(8 * n + 1)  # n = binom(m+1, 2) exactly when 8n + 1 = (2m+1)^2
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
    out.append(standard_module("A", n))
    if n % 2:
        out.append(standard_module("B", n))
    else:
        out.append(standard_module("C", n))
        d_entries = [standard_module("D", n)]
        spin_m = n.bit_length()  # n = 2^(m-1) means m = bit_length(n)
        if 2 ** (spin_m - 1) == n and (t := _lie_type("D", spin_m)):
            spins = [descriptor(t, spin_m - 1), descriptor(t, spin_m)]
            # the half-spin rank is below n/2 from n = 16 on; at n = 8 both are 4
            d_entries = spins + d_entries if spin_m < n // 2 else d_entries + spins
        out += d_entries
    out += _E_BY_DIM.get(n, ())
    return tuple(filter(None, out))  # B, C and D have no w1 entry at n <= 4
