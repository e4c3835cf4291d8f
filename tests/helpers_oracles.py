"""Independent oracles used to pin derived values before testing the
library's own closed forms against them.

The duality oracle walks a fundamental weight down to the antidominant
chamber by simple reflections (reaching w0 . w) instead of trusting the
permutation of the root-system oracle ``helpers_roots``; the minuscule
oracle applies the coroot-pairing criterion; the transvection oracle
brute-forces rank-1 elements of orthogonal algebras over a small integer
box; the monodromy oracles restate orthogonality and the filtration by
rational nullspaces and span tests, the formulation the library's
product-and-rank verifiers replaced, ``preserves_form`` tests
N^T Theta N = Theta by full products, the check ``verify_instance`` reads
off form compatibility instead, and ``instance_error_by_ranks`` runs the
instance checks in their order with the separate ranks of V^I + T and
V^I + W that one prefix-rank pass replaced; the exception-pair oracle is
the closed form (56, 15) plus the triangular family (m(m+1)/2, m-1),
m != 3 mod 4, that the verdict engine's exclusion sweep must reproduce;
the lemma oracle tests every s with a fresh binomial, without the early
stop; the weight oracles read a descriptor's index and label off the
coordinates of its weight, as the catalog did before it stored the index;
the candidate oracle finds the A-family entries of a dimension by stepping
m one at a time for every s, as the exclusion engine did before it read
s = 2 off ``isqrt`` and bisected m for s >= 3.  ``mat_add`` and
``mat_vec`` are a plain matrix sum and matrix-vector product that only
tests use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, isqrt

from helpers_roots import (ambient_weight, coroot_pairings, fundamental_weights,
                           reflect, simple_roots, vec_dot)
from mtcheck import linalg
from mtcheck.catalog import IrrepDescriptor, descriptor
from mtcheck.monodromy import SpecializationInstance, SymplecticSpace
from mtcheck.roots import LieType, Weight


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


def mat_add(a: linalg.Matrix, b: linalg.Matrix) -> linalg.Matrix:
    return tuple(linalg.vec_add(r, s) for r, s in zip(a, b, strict=True))


def mat_vec(m: linalg.Matrix, v: linalg.Vector) -> linalg.Vector:
    return tuple(vec_dot(row, v) for row in m)


def in_orthogonal_algebra(m: linalg.Matrix, g: linalg.Matrix) -> bool:
    lhs = mat_add(linalg.mat_mul(linalg.transpose(m), g), linalg.mat_mul(g, m))
    return linalg.is_zero_matrix(lhs)


def rank_one_search_orthogonal(n: int, bound: int = 2) -> list[linalg.Matrix]:
    """All nonzero rank-1 members u v^T of so(split form) with u in the
    integer box [-bound, bound]^n (first nonzero entry positive) and v
    rational.  Membership is linear in v once u is fixed -- entrywise it
    reads v_i a_j + a_i v_j = 0 with a = g u -- so the v candidates are
    exactly the kernel of that system."""
    g = split_orthogonal_form(n)
    found = []
    box = [v for v in product(range(-bound, bound + 1), repeat=n) if any(v)]
    # normalize u so its first nonzero entry is positive
    unormed = [v for v in box if v[next(i for i, x in enumerate(v) if x)] > 0]
    for u in unormed:
        a = mat_vec(g, tuple(Fraction(x) for x in u))
        system = tuple(
            tuple((a[j] if k == i else 0) + (a[i] if k == j else 0) for k in range(n))
            for i in range(n) for j in range(i, n)
        )
        for v in linalg.nullspace(system):
            m = tuple(tuple(ui * vj for vj in v) for ui in u)
            if not linalg.is_zero_matrix(m) and in_orthogonal_algebra(m, g):
                found.append(m)
    return found


def catalog_dims_by_brute_force(n: int, max_rank: int) -> set[str]:
    """Labels of cataloged modules of dimension n found by scanning every
    type of rank <= max_rank."""
    from mtcheck.catalog import enumerate_minuscule

    labels = set()
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, max_rank + 1):
            for entry in enumerate_minuscule(LieType(family, rank)):
                if entry.dim == n:
                    labels.add(entry.label)
    for rank in (6, 7, 8):
        for entry in enumerate_minuscule(LieType("E", rank)):
            if entry.dim == n:
                labels.add(entry.label)
    return labels


def symplectic_complement(space: SymplecticSpace, basis: linalg.Matrix) -> linalg.Matrix:
    """Basis of the form-orthogonal complement of the row span."""
    pairing_rows = tuple(mat_vec(space.form, v) for v in basis)
    return linalg.nullspace(pairing_rows)


def orthogonality_by_nullspace(inst: SpecializationInstance) -> bool:
    """W equals the complement of V^I, computed as a rational nullspace."""
    comp = symplectic_complement(inst.space, inst.inertia_invariants)
    return linalg.same_span(comp, inst.toric_sub)


def preserves_form(inst: SpecializationInstance) -> bool:
    """N^T Theta N = Theta, computed as two full products."""
    n_mat = inst.monodromy
    lhs = linalg.mat_mul(linalg.transpose(n_mat), linalg.mat_mul(inst.space.form, n_mat))
    return linalg.is_zero_matrix(linalg.mat_sub(lhs, inst.space.form))


def filtration_by_spans(inst: SpecializationInstance) -> bool:
    """tau has rank r, kills each V^I vector, sends each basis vector into W
    and maps T onto W, tested one vector at a time."""
    tau = inst.log_matrix()
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


def instance_error_by_ranks(space: SymplecticSpace, inertia_invariants,
                            toric_sub, lift, monodromy, toric_rank) -> str | None:
    """The ValueError text SpecializationInstance must raise on these
    fields, or None: rank(V^I + T) decides complementarity and
    rank(V^I + W) the inclusion of W."""
    n, r = space.dim, toric_rank
    vi, w, t = inertia_invariants, toric_sub, lift
    if not 1 <= r <= n // 2:
        return "toric rank must satisfy 1 <= r <= g"
    if len(vi) != n - r:
        return "V^I must have dimension 2g - r"
    if len(w) != r or len(t) != r:
        return "W and T must have dimension r"
    complementary = linalg.rank(vi + t) == n
    bases = ((("W", w),) if complementary else
             (("V^I", vi), ("W", w), ("T", t)))
    for name, basis in bases:
        if linalg.rank(basis) != len(basis):
            return f"basis of {name} is not independent"
    if linalg.rank(vi + w) != n - r:
        return "W must lie inside V^I"
    if not complementary:
        return "V^I and T must be complementary"
    tau = linalg.mat_sub(monodromy, linalg.identity(n))
    if not linalg.is_zero_matrix(linalg.mat_mul(tau, tau)):
        return "N - I must square to zero"
    return None


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


def minuscule_candidates_by_scan(n: int) -> tuple[IrrepDescriptor, ...]:
    """``exclusion.minuscule_candidates`` with a stepping scan for every s."""
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
    return tuple(sorted(out, key=IrrepDescriptor.sort_key))


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
