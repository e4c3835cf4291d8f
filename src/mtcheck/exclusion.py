"""Proper-inclusion exclusion engine for minuscule candidate pairs.

Given an ambient dimension n > 4, a duality class and an observed quadratic
rank r with gcd(r, n) = 1, the engine asks which cataloged modules of
dimension n could sit properly inside the forced outer shape.  Outer
shapes: non-self-dual forces sl_n standard, symplectic forces sp_n
standard, orthogonal forces so_n standard [Thm 6.1]: the w1 entry of
family A, C, or B/D by parity among the catalog's
``minuscule_candidates(n)``, found by one pass over them.  The inners,
those same candidates, are then excluded rule by rule; every exclusion
carries a bracketed rule tag.

Rule order: exceptional inner [0.5.1]; non-classical or non-standard outer
[Thm 6.1]; gcd hypothesis [6.2]; half-spin inner [Lem 6.3 / Prop 6.3 D4];
classical-w1 rigidity [Prop 6.3]; duality-class mismatch [6.2]; and for
(A_m, ws) inners duality normalization, the self-dual middle weight
[Prop 6.3] and rank realizability [PS].  An inner past the last rung
satisfies the binomial divisibility binom(m-1, s-1) | s(m+1-s), which by
the lemma only s = 2 and (m, s) = (7, 3) do [Prop 6.3].

The ladder is written once, as a private walk over (inner, outer, r) that
returns the admissible flag and the reason.  ``check_pair`` wraps its
answer in an ``ExclusionVerdict``; ``surviving_inners`` checks its
preconditions once per query and keeps only the flag per inner.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .catalog import IrrepDescriptor, minuscule_candidates
from .quadratic import quadratic_rank_profile
from .roots import FormClass


@dataclass(frozen=True)
class ExclusionVerdict:
    admissible: bool
    reason: str


def _outer(n: int, form: FormClass,
           candidates: tuple[IrrepDescriptor, ...]) -> IrrepDescriptor | None:
    """The w1 entry among the dim-n candidates of the family Theorem 6.1
    forces, or None: A for non-self-dual, C for symplectic, B or D by the
    parity of n for orthogonal.  Each family has at most one w1 entry of
    dimension n, so the first match is the only one."""
    if form is FormClass.ORTHOGONAL:
        family = "B" if n % 2 else "D"
    else:
        family = "A" if form is FormClass.NON_SELF_DUAL else "C"
    for c in candidates:
        if c.weight_index == 1 and c.lie_type.family == family:
            return c
    return None


def theorem61_outer_shapes(n: int, form: FormClass) -> tuple[IrrepDescriptor, ...]:
    """The forced outer shape(s) of a dim-n module of the given class, n > 4."""
    if n <= 4:
        raise ValueError("outer shapes assume ambient dimension > 4")
    outer = _outer(n, form, minuscule_candidates(n))
    return (outer,) if outer else ()


def _ladder(inner: IrrepDescriptor, outer: IrrepDescriptor,
            r: int) -> tuple[bool, str]:
    """The rung walk behind ``check_pair`` and ``surviving_inners``:
    ``(False, reason)`` from the first rung that excludes inner < outer,
    else ``(True, reason)``.  The caller vouches for a proper pair of equal
    dimension n > 4."""
    t = inner.lie_type
    fam = t.family
    if fam == "E":
        return False, "inner algebra must not be exceptional [0.5.1]"
    if outer.lie_type.family == "E" or outer.weight_index != 1:
        return False, "outer shape must be a classical standard module [Thm 6.1]"
    n = inner.dim
    if gcd(r, n) != 1:
        return False, f"gcd({r}, {n}) != 1 violates the coprimality hypothesis [6.2]"

    m, s = t.rank, inner.weight_index
    if fam == "D" and s != 1:
        if m == 4:
            return False, ("(D4, half-spin) sits in no classical standard module "
                           "[Prop 6.3]")
        return False, ("half-spin quadratic ranks 2^(m-3), 2^(m-2) share a factor > 2 "
                       "with 2^(m-1) [Lem 6.3]")
    if fam in ("B", "C", "D"):
        return False, (f"({fam}_m, w1) admits no proper overalgebra of equal "
                       "dimension [Prop 6.3]")
    if inner.form != outer.form:
        return False, "inner and outer duality classes must agree [6.2]"

    # inner is (A_m, ws); normalize by duality
    s_norm = min(s, m + 1 - s)
    if s_norm == 1:
        return False, ("dual-standard inner fills the outer algebra; the "
                       "inclusion is not proper [Thm 6.1]")
    if m + 1 == 2 * s_norm:
        return False, ("self-dual middle weight: rank binom(2(s-1), s-1) > s "
                       "cannot divide s [Prop 6.3]")
    rank_a = quadratic_rank_profile(inner)[0]  # binom(m-1, s-1), symmetric in s
    if r != rank_a:
        return False, (f"(A_{m}, w{s_norm}) forces quadratic rank {rank_a}, "
                       f"not {r} [PS]")
    return True, (f"binom({m - 1}, {s_norm - 1}) divides "
                  f"{s_norm}({m + 1}-{s_norm}) [Prop 6.3]")


def check_pair(inner: IrrepDescriptor, outer: IrrepDescriptor, r: int) -> ExclusionVerdict:
    """Verdict on one candidate proper inclusion inner < outer, given the
    quadratic rank r: the reason of the first rung that excludes it, or the
    admissible text.  It raises unless, checked in this order, the
    dimensions agree, inner != outer, n > 4 and r >= 1.

    An (A_m, ws) inner that passes the gcd rung and the rank rung
    (n = binom(m+1, s), r = binom(m-1, s-1)) is admissible, because

        binom(m+1, s) * s(m+1-s) = binom(m-1, s-1) * m(m+1)

    makes r divide n * s(m+1-s), and gcd(r, n) = 1 leaves r | s(m+1-s).
    """
    if inner.dim != outer.dim:
        raise ValueError("inner and outer must act on the same dimension")
    if inner == outer:
        raise ValueError("a proper inclusion needs inner != outer")
    if inner.dim <= 4:
        raise ValueError("the exclusion engine assumes ambient dimension > 4")
    if r < 1:
        raise ValueError(f"quadratic rank {r} must be at least 1")
    return ExclusionVerdict(*_ladder(inner, outer, r))


def surviving_inners(n: int, form: FormClass, r: int) -> tuple[IrrepDescriptor, ...]:
    """Admissible proper-inclusion inners; empty means the algebras coincide.

    One pass over the candidates finds the forced outer (Theorem 6.1
    forces at most one).  Each other candidate then goes through the
    ladder once against it."""
    if n <= 4:
        raise ValueError("the exclusion engine assumes ambient dimension > 4")
    if r < 1:
        raise ValueError(f"quadratic rank {r} must be at least 1")
    if gcd(r, n) != 1:
        raise ValueError(f"gcd({r}, {n}) != 1 violates the coprimality hypothesis")
    candidates = minuscule_candidates(n)
    outer = _outer(n, form, candidates)
    if outer is None:
        return ()
    return tuple(inner for inner in candidates
                 if inner is not outer and _ladder(inner, outer, r)[0])
