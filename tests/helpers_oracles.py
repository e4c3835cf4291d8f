"""Independent oracles that pin derived values before the tests check the
library's own closed forms against them, one line each:

- ``descent_dual_index``: the dual of ws, by reflecting to the antidominant chamber;
- ``pairing_minuscule``: the coroot-pairing criterion for a minuscule weight;
- ``orbit_size``: the Weyl orbit of ws, by breadth-first reflection;
- ``rank_one_search_orthogonal``: rank-1 members of so(n) over an integer box;
- ``orthogonality_by_nullspace``: W as the complement of V^I, by a rational nullspace;
- ``symplectic_inverse``: the signed-transpose inverse of a standard-form symplectic matrix;
- ``preserves_form``: N^T Theta N = Theta by full products, with N = I + tau;
- ``symplectic_by_three_products``, ``tau_by_pairing``: the seeded symplectic element
  and tau of a built instance, by the block formula and with S = A^T A formed;
- ``filtration_by_spans``: the filtration clauses, one vector at a time;
- ``failing_keys_by_ranks``: every key of ``verify_instance``, each on its own;
- ``transvection_constraint``, ``rank2_constraint``: the shapes with a rank-1 or rank-2
  quadratic element, by catalog lookups (criteria 9 and 6);
- ``is_exception_pair``: the closed form (56, 15) plus the triangular family;
- ``minuscule_candidates_by_scan``: the candidates of n, stepping m for every s;
- ``minuscule_candidates_by_descriptor``: the candidates of n from ``descriptor``, sorted;
- ``surviving_inners_by_pairs``: the survivors by one ``check_pair`` per (inner, outer);
- ``candidate_min_ranks``: the minimal quadratic ranks the closure sweeps query;
- ``divisibility_solutions_unpruned``: the lemma with a fresh binomial per s;
- ``fundamental_index_by_scan``, ``label_by_weight``: a weight's index and label, read off
  its coordinates.

``vec_add``, ``vec_sub``, ``mat_add``, ``mat_sub`` and ``mat_vec`` are plain
sums, differences and a matrix-vector product that only tests use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, isqrt

from helpers_roots import (Weight, ambient_weight, coroot_pairings, fundamental_weights,
                           reflect, simple_roots, vec_dot)
from mtcheck import linalg
from mtcheck.catalog import IrrepDescriptor, descriptor, enumerate_minuscule, standard_module
from mtcheck.exclusion import check_pair, minuscule_candidates
from mtcheck.monodromy import (SpecializationInstance, SymplecticSpace, _random_symmetric,
                               _unit_upper, standard_symplectic_form)
from mtcheck.quadratic import quadratic_rank_profile
from mtcheck.roots import FormClass, LieType


def descent_dual_index(t: LieType, s: int) -> int:
    """Index sigma(s) with dual(V_ws) = V_w(sigma(s)), found by reflecting
    ws to the antidominant chamber and matching -w0(ws) against the
    fundamental weights."""
    v = ambient_weight(t, Weight.fundamental(t.rank, s))
    alphas = simple_roots(t)
    while True:
        for i in range(1, t.rank + 1):
            alpha = alphas[i - 1]
            if 2 * vec_dot(v, alpha) > 0:
                v = reflect(t, v, i)
                break
        else:
            break
    lowest_neg = tuple(-x for x in v)
    for j, w in enumerate(fundamental_weights(t), start=1):
        if tuple(Fraction(x) for x in w) == tuple(Fraction(x) for x in lowest_neg):
            return j
    raise AssertionError(f"-w0(w{s}) of {t} is not a fundamental weight")


def pairing_minuscule(t: LieType, s: int) -> bool:
    """Strict coroot-pairing criterion: every <ws, alpha-check> lies in
    {0, 1} over the positive roots."""
    return all(p in (0, 1) for p in coroot_pairings(t, Weight.fundamental(t.rank, s)))


def orbit_size(t: LieType, s: int, cap: int = 200000) -> int:
    """Size of the Weyl orbit of ws by breadth-first reflection closure."""
    start = tuple(Fraction(x) for x in ambient_weight(t, Weight.fundamental(t.rank, s)))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, t.rank + 1):
                w = tuple(reflect(t, v, i))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > cap:
                        raise AssertionError("orbit larger than cap")
        frontier = nxt
    return len(seen)


def split_orthogonal_form(n: int) -> linalg.Matrix:
    """Antidiagonal symmetric form, split over Q."""
    return tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))


def vec_add(u: linalg.Vector, v: linalg.Vector) -> linalg.Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: linalg.Vector, v: linalg.Vector) -> linalg.Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def mat_add(a: linalg.Matrix, b: linalg.Matrix) -> linalg.Matrix:
    return tuple(vec_add(r, s) for r, s in zip(a, b, strict=True))


def mat_sub(a: linalg.Matrix, b: linalg.Matrix) -> linalg.Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b, strict=True))


def mat_vec(m: linalg.Matrix, v: linalg.Vector) -> linalg.Vector:
    return tuple(vec_dot(row, v) for row in m)


def in_orthogonal_algebra(m: linalg.Matrix, g: linalg.Matrix) -> bool:
    lhs = mat_add(linalg.mat_mul(linalg.transpose(m), g), linalg.mat_mul(g, m))
    return linalg.is_zero_matrix(lhs)


def rank_one_search_orthogonal(n: int, bound: int = 2) -> list[linalg.Matrix]:
    """All nonzero rank-1 members u v^T of so(split form) with u in the
    integer box [-bound, bound]^n (first nonzero entry positive) and v
    rational, up to scale.  Membership is linear in v once u is fixed --
    entrywise it reads v_i a_j + a_i v_j = 0 with a = g u -- so the v
    candidates are exactly the kernel of that system, whose integer basis
    ``nullspace`` returns."""
    g = split_orthogonal_form(n)
    found = []
    box = [v for v in product(range(-bound, bound + 1), repeat=n) if any(v)]
    # normalize u so its first nonzero entry is positive
    unormed = [v for v in box if v[next(i for i, x in enumerate(v) if x)] > 0]
    for u in unormed:
        a = mat_vec(g, u)
        system = tuple(
            tuple((a[j] if k == i else 0) + (a[i] if k == j else 0) for k in range(n))
            for i in range(n) for j in range(i, n)
        )
        for v in linalg.nullspace(system):
            m = tuple(tuple(ui * vj for vj in v) for ui in u)
            if not linalg.is_zero_matrix(m) and in_orthogonal_algebra(m, g):
                found.append(m)
    return found


@cache
def symplectic_complement(space: SymplecticSpace, basis: linalg.Matrix) -> linalg.Matrix:
    """Basis of the form-orthogonal complement of the row span; cached, as
    the key oracle meets the same V^I under many defects of W, T and N."""
    pairing_rows = tuple(mat_vec(space.form, v) for v in basis)
    return linalg.nullspace(pairing_rows)


def orthogonality_by_nullspace(inst: SpecializationInstance) -> bool:
    """W equals the complement of V^I, computed as a rational nullspace."""
    comp = symplectic_complement(inst.space, inst.inertia_invariants)
    return linalg.same_span(comp, inst.toric_sub)


def symplectic_inverse(m: linalg.Matrix) -> linalg.Matrix:
    """M^-1 = -Theta M^T Theta for M in Sp_2g and the standard form: for
    M = [[P, Q], [R, S]] the signed transpose [[S^T, -Q^T], [-R^T, P^T]]."""
    n = len(m)
    g = n // 2
    # entry (i, j) is M[j + g][i + g] with indices mod 2g (a negative index
    # wraps), negated when i and j lie in different halves
    return tuple(tuple(m[j - g][i - g] if (i < g) == (j < g) else -m[j - g][i - g]
                       for j in range(n)) for i in range(n))


def monodromy(inst: SpecializationInstance) -> linalg.Matrix:
    """N = I + tau, formed by a full sum with the identity."""
    return mat_add(linalg.identity(inst.space.dim), inst.tau)


def preserves_form(inst: SpecializationInstance) -> bool:
    """N^T Theta N = Theta, computed as two full products."""
    n_mat = monodromy(inst)
    lhs = linalg.mat_mul(linalg.transpose(n_mat), linalg.mat_mul(inst.space.form, n_mat))
    return linalg.is_zero_matrix(mat_sub(lhs, inst.space.form))


def symplectic_by_three_products(g: int, rng: random.Random) -> linalg.Matrix:
    """M = [[P, PD + B], [C, CD + I]] with P = I + BC, by three g x g
    products, from the same seeded B, C and D as ``random_symplectic``."""
    b, c, d = (_random_symmetric(g, rng) for _ in range(3))
    eye = linalg.identity(g)
    p = mat_add(eye, linalg.mat_mul(b, c))
    halves = (p, mat_add(linalg.mat_mul(p, d), b)), (c, mat_add(linalg.mat_mul(c, d), eye))
    return tuple(left + right for pair in halves for left, right in zip(*pair))


def tau_by_pairing(g: int, r: int, seed: int) -> linalg.Matrix:
    """tau of ``build_instance(g, r, seed)`` as W^T S (W Theta), with
    S = A^T A formed and W Theta a full product with the standard form."""
    rng = random.Random(seed)
    a = _unit_upper(r, rng)
    w = linalg.transpose(symplectic_by_three_products(g, rng))[:r]
    s = linalg.mat_mul(linalg.transpose(a), a)
    w_theta = linalg.mat_mul(w, standard_symplectic_form(g))
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(w), s), w_theta)


def filtration_by_spans(inst: SpecializationInstance) -> bool:
    """tau has rank r, kills each V^I vector, sends each basis vector into W
    and maps T onto W, tested one vector at a time."""
    tau = inst.tau
    r = inst.toric_rank
    if linalg.rank(tau) != r:
        return False
    for v in inst.inertia_invariants:
        if any(x != 0 for x in mat_vec(tau, v)):
            return False
    for col in linalg.identity(inst.space.dim):
        if not linalg.row_space_contains(inst.toric_sub, mat_vec(tau, col)):
            return False
    t_images = tuple(mat_vec(tau, v) for v in inst.lift)
    return linalg.rank(t_images) == r and linalg.same_span(t_images, inst.toric_sub)


def failing_keys_by_ranks(inst: SpecializationInstance) -> set[str]:
    """The keys ``verify_instance`` must report False on inst, each invariant
    computed on its own: separate ranks of V^I, W, V^I + W and V^I + T, the
    full tau . tau product, the rank of tau, the nullspace orthogonality,
    the span filtration, tau^T Theta + Theta tau and N^T Theta N = Theta by
    full products."""
    n, r = inst.space.dim, inst.toric_rank
    vi, w, t = inst.inertia_invariants, inst.toric_sub, inst.lift
    tau = inst.tau
    vi_rank = linalg.rank(vi)
    holds = {
        "tau_square_zero": linalg.is_zero_matrix(linalg.mat_mul(tau, tau)),
        "tau_rank_r": linalg.rank(tau) == r,
        "invariant_dim": vi_rank == n - r,
        "orthogonality": orthogonality_by_nullspace(inst),
        "filtration": (linalg.rank(w) == r and linalg.rank(vi + w) == vi_rank
                       and linalg.rank(vi + t) == n and filtration_by_spans(inst)),
        # tau^T Theta + Theta tau = 0 is the so(G) identity with Theta for G
        "form_compatible": in_orthogonal_algebra(tau, inst.space.form),
        "monodromy_symplectic": preserves_form(inst),
    }
    return {key for key, ok in holds.items() if not ok}


@dataclass(frozen=True)
class AlgebraShape:
    """A candidate algebra acting irreducibly: one factor, or a x sl2."""

    factors: tuple[IrrepDescriptor, ...]

    @property
    def form(self) -> FormClass:
        if len(self.factors) == 1:
            return self.factors[0].form
        return tensor_form(self.factors[0].form, self.factors[1].form)

    @property
    def label(self) -> str:
        return " x ".join(f.label for f in self.factors)


def tensor_form(a: FormClass, b: FormClass) -> FormClass:
    """Duality class of a tensor product of irreducibles of distinct factors."""
    if FormClass.NON_SELF_DUAL in (a, b):
        return FormClass.NON_SELF_DUAL
    if a == b:
        return FormClass.ORTHOGONAL
    return FormClass.SYMPLECTIC


def transvection_constraint(n: int) -> tuple[IrrepDescriptor, ...]:
    """Irreducible dim-n modules containing a rank-1 quadratic element.

    Exactly the full sl(U) standard module, plus sp(U) when n is even; for
    n = 2 the symplectic case coincides with (A_1, w1).
    """
    if n < 2:
        raise ValueError("transvection constraint needs n >= 2")
    return tuple(e for f in ("A", "C") if (e := standard_module(f, n)))


def rank2_constraint(n: int) -> tuple[AlgebraShape, ...]:
    """Candidate shapes for a dim-n module (n >= 8) with a rank-2 quadratic
    element: the classical standard modules plus the products a x sl2 with
    a in {sl(n/2), sp(n/2)} acting on a tensor split."""
    if n < 8:
        raise ValueError("rank-2 constraint assumes n >= 8")
    shapes = [AlgebraShape((e,)) for f in "ABCD" if (e := standard_module(f, n))]
    if n % 2 == 0:
        sl2 = descriptor(LieType("A", 1), 1)
        shapes += [AlgebraShape((a, sl2)) for a in transvection_constraint(n // 2)]
    return tuple(shapes)


def triangular_m(g: int) -> int | None:
    """The m >= 4 with g = m(m+1)/2, if any."""
    m = (isqrt(8 * g + 1) - 1) // 2
    if m >= 4 and m * (m + 1) // 2 == g:
        return m
    return None


def is_exception_pair(g: int, r: int) -> bool:
    if (g, r) == (56, 15):
        return True
    m = triangular_m(g)
    return m is not None and m % 4 != 3 and r == m - 1


def _entry_order(e: IrrepDescriptor) -> tuple[str, int, int]:
    """(family, rank, weight index), the order ``minuscule_candidates`` emits."""
    return e.lie_type.family, e.lie_type.rank, e.weight_index


def minuscule_candidates_by_scan(n: int) -> tuple[IrrepDescriptor, ...]:
    """``catalog.minuscule_candidates`` with a stepping scan for every s."""
    out = [descriptor(LieType("A", n - 1), 1)]
    s = 2
    while comb(2 * s, s) <= n:
        m = 2 * s - 1
        while comb(m + 1, s) < n:
            m += 1
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
    spin_m = n.bit_length()
    if spin_m >= 3 and 2 ** (spin_m - 1) == n:
        out.append(descriptor(LieType("D", spin_m), spin_m - 1))
        out.append(descriptor(LieType("D", spin_m), spin_m))
    if n == 27:
        out.append(descriptor(LieType("E", 6), 1))
        out.append(descriptor(LieType("E", 6), 6))
    if n == 56:
        out.append(descriptor(LieType("E", 7), 7))
    return tuple(sorted(out, key=_entry_order))


def minuscule_candidates_by_descriptor(n: int) -> tuple[IrrepDescriptor, ...]:
    """``catalog.minuscule_candidates`` as built before it emitted its
    entries in order: every entry from the checked ``descriptor``, the A
    entries of each s >= 2 found by a doubling bisection of their own, and
    the whole list sorted by (family, rank, weight index)."""
    out = []
    for family in ("A", "B") if n % 2 else ("A", "C", "D"):
        try:
            t = LieType(family, n - 1 if family == "A" else n // 2)
        except ValueError:
            continue
        if (entry := descriptor(t, 1)).dim == n:
            out.append(entry)
    s = 2
    while comb(2 * s, s) <= n:
        lo = hi = 2 * s - 1
        while comb(hi + 1, s) < n:
            lo, hi = hi, 2 * hi
        while lo < hi:  # the least m in [lo, hi] with binom(m + 1, s) >= n
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if comb(mid + 1, s) < n else (lo, mid)
        if comb(lo + 1, s) == n:
            out.append(descriptor(LieType("A", lo), s))
        s += 1
    spin_m = n.bit_length()
    if spin_m >= 3 and 2 ** (spin_m - 1) == n:
        out += [descriptor(LieType("D", spin_m), spin_m - 1),
                descriptor(LieType("D", spin_m), spin_m)]
    out += [e for m in (6, 7) for e in enumerate_minuscule(LieType("E", m)) if e.dim == n]
    return tuple(sorted(out, key=_entry_order))


def theorem61_family(n: int, form: FormClass) -> str:
    """The family whose standard module Theorem 6.1 forces as the outer."""
    if form is FormClass.ORTHOGONAL:
        return "B" if n % 2 else "D"
    return "A" if form is FormClass.NON_SELF_DUAL else "C"


def candidate_min_ranks(n: int) -> set[int]:
    """The minimal quadratic ranks of the dim-n candidates that record one:
    every family but E."""
    return {quadratic_rank_profile(entry)[0] for entry in minuscule_candidates(n)
            if entry.lie_type.family != "E"}


def surviving_inners_by_pairs(n: int, form: FormClass, r: int) -> tuple[IrrepDescriptor, ...]:
    """``exclusion.surviving_inners`` with the outer from ``standard_module``,
    an equality filter and one ``check_pair`` per (inner, outer) pair."""
    outer = standard_module(theorem61_family(n, form), n)
    outers = (outer,) if outer else ()
    return tuple(inner for inner in minuscule_candidates(n) if any(
        inner != outer and check_pair(inner, outer, r).admissible
        for outer in outers))


def divisibility_solutions_unpruned(m_max: int) -> tuple[tuple[int, int], ...]:
    """The lemma scan over every 2 <= s <= m/2, one comb per s."""
    return tuple((m, s) for m in range(5, m_max + 1) for s in range(2, m // 2 + 1)
                 if s * (m + 1 - s) % comb(m - 1, s - 1) == 0)


def fundamental_index_by_scan(w: Weight) -> int:
    """The s with w = ws, read off the coordinates; raises unless w is
    fundamental."""
    nonzero = [i + 1 for i, c in enumerate(w.coords) if c != 0]
    if len(nonzero) != 1 or w.coords[nonzero[0] - 1] != 1:
        raise ValueError(f"{w} is not a fundamental weight")
    return nonzero[0]


def label_by_weight(t: LieType, w: Weight) -> str:
    return f"{t}:{w}"
