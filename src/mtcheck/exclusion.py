"""Proper-inclusion exclusion engine for minuscule candidate pairs.

Given an ambient dimension n > 4, a duality class and an observed quadratic
rank r with gcd(r, n) = 1, the engine asks which cataloged modules of
dimension n could sit properly inside the forced outer shape.  Outer
shapes: non-self-dual forces sl_n standard, symplectic forces sp_n
standard, orthogonal forces so_n standard [Thm 6.1].  Inner candidates are
then excluded rule by rule; every exclusion carries a bracketed rule tag.

Rule order: exceptional inner [0.5.1]; non-classical or non-standard outer
[Thm 6.1]; gcd hypothesis [6.2]; half-spin inner [Lem 6.3 / Prop 6.3 D4];
classical-w1 rigidity [Prop 6.3]; duality-class mismatch [6.2]; and for
(A_m, ws) inners duality normalization, the self-dual middle weight
[Prop 6.3], rank realizability [PS], and the closing binomial divisibility
binom(m-1, s-1) | s(m+1-s), which by the lemma only s = 2 and
(m, s) = (7, 3) pass [Prop 6.3].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb, gcd, isqrt

from .catalog import IrrepDescriptor, descriptor
from .quadratic import quadratic_ranks
from .roots import FormClass, LieType


class ExclusionStatus(Enum):
    ADMISSIBLE = "admissible"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class ExclusionVerdict:
    status: ExclusionStatus
    reason: str

    @property
    def admissible(self) -> bool:
        return self.status is ExclusionStatus.ADMISSIBLE


@dataclass(frozen=True)
class CandidatePair:
    """A would-be proper inclusion inner < outer of equal-dimension modules."""

    inner: IrrepDescriptor
    outer: IrrepDescriptor

    def __post_init__(self):
        if self.inner.dim != self.outer.dim:
            raise ValueError("inner and outer must act on the same dimension")
        if self.inner == self.outer:
            raise ValueError("a proper inclusion needs inner != outer")

    @property
    def ambient_dim(self) -> int:
        return self.inner.dim


def theorem61_outer_shapes(n: int, form: FormClass) -> tuple[IrrepDescriptor, ...]:
    """The forced outer shape(s) of a dim-n module of the given class, n > 4."""
    if n <= 4:
        raise ValueError("outer shapes assume ambient dimension > 4")
    if form is FormClass.NON_SELF_DUAL:
        return (descriptor(LieType("A", n - 1), 1),)
    if form is FormClass.SYMPLECTIC:
        if n % 2 != 0:
            return ()
        return (descriptor(LieType("C", n // 2), 1),)
    if n % 2 == 0:
        return (descriptor(LieType("D", n // 2), 1),)
    return (descriptor(LieType("B", (n - 1) // 2), 1),)


def _least_m(n: int, s: int) -> int:
    """The least m >= 2s - 1 with binom(m + 1, s) >= n: double an upper
    bound, then bisect, so the search takes O(log m) binomials."""
    lo = hi = 2 * s - 1
    while comb(hi + 1, s) < n:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid + 1, s) < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


def minuscule_candidates(n: int) -> tuple[IrrepDescriptor, ...]:
    """All cataloged modules of dimension n, A-family entries reported once
    up to duality (s <= (m+1)/2)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    out = [descriptor(LieType("A", n - 1), 1)]
    root = isqrt(8 * n + 1)  # n = binom(m+1, 2) exactly when 8n + 1 = (2m+1)^2
    if n >= 6 and root * root == 8 * n + 1:
        out.append(descriptor(LieType("A", (root - 1) // 2), 2))
    s = 3
    while comb(2 * s, s) <= n:
        m = _least_m(n, s)
        if comb(m + 1, s) == n:
            out.append(descriptor(LieType("A", m), s))
        s += 1
    if n % 2 == 1 and n >= 5:
        out.append(descriptor(LieType("B", (n - 1) // 2), 1))
    if n % 2 == 0:
        if n >= 4:
            out.append(descriptor(LieType("C", n // 2), 1))
        if n >= 6:
            out.append(descriptor(LieType("D", n // 2), 1))
    spin_m = n.bit_length()  # n = 2^(m-1) means m = bit_length(n)
    if spin_m >= 3 and 2 ** (spin_m - 1) == n:
        out.append(descriptor(LieType("D", spin_m), spin_m - 1))
        out.append(descriptor(LieType("D", spin_m), spin_m))
    if n == 27:
        out.append(descriptor(LieType("E", 6), 1))
        out.append(descriptor(LieType("E", 6), 6))
    if n == 56:
        out.append(descriptor(LieType("E", 7), 7))
    return tuple(sorted(out, key=IrrepDescriptor.sort_key))


def _excluded(reason: str) -> ExclusionVerdict:
    return ExclusionVerdict(ExclusionStatus.EXCLUDED, reason)


def check_pair(pair: CandidatePair, r: int) -> ExclusionVerdict:
    """Verdict on one candidate proper inclusion, given the quadratic rank r.

    For an (A_m, ws) inner the last rung tests the divisibility lemma's
    condition binom(m-1, s-1) | s(m+1-s) directly.  Its "does not divide"
    branch cannot fire once the gcd rung has passed: with n = binom(m+1, s)
    and r = binom(m-1, s-1),

        binom(m+1, s) * s(m+1-s) = binom(m-1, s-1) * m(m+1),

    so r divides n * s(m+1-s), and gcd(r, n) = 1 leaves r | s(m+1-s).
    """
    n = pair.ambient_dim
    if n <= 4:
        raise ValueError("the exclusion engine assumes ambient dimension > 4")
    inner, outer = pair.inner, pair.outer

    if inner.lie_type.family == "E":
        return _excluded("inner algebra must not be exceptional [0.5.1]")
    if outer.lie_type.family == "E" or outer.weight_index != 1:
        return _excluded("outer shape must be a classical standard module [Thm 6.1]")
    if gcd(r, n) != 1:
        return _excluded(f"gcd({r}, {n}) != 1 violates the coprimality hypothesis [6.2]")

    fam, m = inner.lie_type.family, inner.lie_type.rank
    s = inner.weight_index

    if fam == "D" and s != 1:
        if m == 4:
            return _excluded("(D4, half-spin) sits in no classical standard module [Prop 6.3]")
        return _excluded(
            "half-spin quadratic ranks 2^(m-3), 2^(m-2) share a factor > 2 "
            "with 2^(m-1) [Lem 6.3]"
        )
    if fam in ("B", "C", "D"):
        return _excluded(f"({fam}_m, w1) admits no proper overalgebra of equal "
                         "dimension [Prop 6.3]")
    if inner.form != outer.form:
        return _excluded("inner and outer duality classes must agree [6.2]")

    # inner is (A_m, ws); normalize by duality
    s_norm = min(s, m + 1 - s)
    if s_norm == 1:
        return _excluded("dual-standard inner fills the outer algebra; the "
                         "inclusion is not proper [Thm 6.1]")
    if m + 1 == 2 * s_norm:
        return _excluded("self-dual middle weight: rank binom(2(s-1), s-1) > s "
                         "cannot divide s [Prop 6.3]")
    rank_a = quadratic_ranks(inner)[0]  # binom(m-1, s-1), symmetric in s
    if r != rank_a:
        return _excluded(f"(A_{m}, w{s_norm}) forces quadratic rank {rank_a}, "
                         f"not {r} [PS]")
    if s_norm * (m + 1 - s_norm) % rank_a == 0:
        return ExclusionVerdict(
            ExclusionStatus.ADMISSIBLE,
            f"binom({m - 1}, {s_norm - 1}) divides {s_norm}({m + 1}-{s_norm}) "
            "[Prop 6.3]",
        )
    return _excluded(f"binom({m - 1}, {s_norm - 1}) does not divide "
                     f"{s_norm}({m + 1}-{s_norm}) [Prop 6.3]")


def surviving_inners(n: int, form: FormClass, r: int) -> tuple[IrrepDescriptor, ...]:
    """Admissible proper-inclusion inners; empty means the algebras coincide."""
    if n <= 4:
        raise ValueError("the exclusion engine assumes ambient dimension > 4")
    if gcd(r, n) != 1:
        raise ValueError(f"gcd({r}, {n}) != 1 violates the coprimality hypothesis")
    outers = theorem61_outer_shapes(n, form)
    return tuple(inner for inner in minuscule_candidates(n) if any(
        inner != outer and check_pair(CandidatePair(inner, outer), r).admissible
        for outer in outers))
