"""Quadratic-rank data validated against independent matrix constructions.

The type-A ranks are re-derived here by building the derivation that a
rank-1 square-zero element of sl(U) induces on an exterior power and
computing its matrix rank.  The classical minimal ranks are anchored by
explicit rank-1 (symplectic) and rank-2 (orthogonal) square-zero witnesses
and by the fact that so_n admits no rank-1 element, shown by parity (G X is
alternating for X in so(G)) and, independently, by a box search.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, prod

import pytest

from helpers_oracles import (in_orthogonal_algebra, mat_add,
                             rank_one_search_orthogonal, split_orthogonal_form)
from mtcheck import linalg
from mtcheck.catalog import descriptor, enumerate_minuscule
from mtcheck.monodromy import standard_symplectic_form
from mtcheck.quadratic import (AlgebraShape, RankUnavailableError,
                               quadratic_rank_profile, rank2_constraint, tensor_form,
                               transvection_constraint)
from mtcheck.roots import FormClass, LieType


def test_rank_values_examples():
    assert quadratic_rank_profile(descriptor(LieType("A", 7), 3)) == (15,)
    assert quadratic_rank_profile(descriptor(LieType("A", 4), 2)) == (3,)
    assert quadratic_rank_profile(descriptor(LieType("A", 9), 1)) == (1,)
    assert quadratic_rank_profile(descriptor(LieType("C", 9), 1)) == (1,)
    assert quadratic_rank_profile(descriptor(LieType("B", 5), 1)) == (2,)
    assert quadratic_rank_profile(descriptor(LieType("D", 7), 1)) == (2,)
    assert quadratic_rank_profile(descriptor(LieType("D", 7), 7)) == (16, 32)
    assert quadratic_rank_profile(descriptor(LieType("D", 5), 4)) == (4, 8)


def test_rank_profiles_sweep():
    for m in range(1, 51):
        for s in range(1, m + 1):
            profile = quadratic_rank_profile(descriptor(LieType("A", m), s))
            assert profile == (comb(m - 1, s - 1),)
    for m in range(2, 51):
        assert quadratic_rank_profile(descriptor(LieType("B", m), 1)) == (2,)
        assert quadratic_rank_profile(descriptor(LieType("C", m), 1)) == (1,)
    for m in range(3, 51):
        half_spin = (2 ** (m - 3), 2 ** (m - 2))
        assert quadratic_rank_profile(descriptor(LieType("D", m), 1)) == (2,)
        assert quadratic_rank_profile(descriptor(LieType("D", m), m)) == half_spin
        assert quadratic_rank_profile(descriptor(LieType("D", m), m - 1)) == half_spin
    # every profile is a valid list of square-zero ranks, minimal first
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for m in range(lo, 51):
            for entry in enumerate_minuscule(LieType(f, m)):
                ranks = quadratic_rank_profile(entry)
                assert ranks and list(ranks) == sorted(ranks), entry
                assert ranks[0] >= 1, entry
                assert 2 * ranks[-1] <= entry.dim, entry


def test_exceptional_types_have_no_rank_data():
    assert issubclass(RankUnavailableError, ValueError)
    for t, s in ((LieType("E", 6), 1), (LieType("E", 6), 6), (LieType("E", 7), 7)):
        with pytest.raises(RankUnavailableError):
            quadratic_rank_profile(descriptor(t, s))


def _exterior_derivation_rank(m: int, s: int) -> int:
    """Rank on the s-th exterior power of Q^(m+1) of the derivation induced
    by the square-zero element e_1 (x) e_2* of sl(m+1).

    With the ascending-tuple basis the derivation sends e_2 ^ (rest) to
    e_1 ^ (rest) when 1 is not in rest, and everything else to zero; no
    signs arise because e_2 sits first in any tuple avoiding 1.
    """
    basis = list(combinations(range(1, m + 2), s))
    index = {b: i for i, b in enumerate(basis)}
    rows = []
    for b in basis:
        row = [0] * len(basis)
        if 2 in b and 1 not in b:
            image = tuple(sorted((set(b) - {2}) | {1}))
            row[index[image]] = 1
        rows.append(tuple(row))
    # rank(M) == rank(M^T), so the row/column orientation is immaterial
    return linalg.rank(tuple(rows))


@pytest.mark.parametrize("m", range(2, 7))
def test_exterior_power_ranks(m):
    for s in range(1, m + 1):
        expected = quadratic_rank_profile(descriptor(LieType("A", m), s))[0]
        assert _exterior_derivation_rank(m, s) == expected


@pytest.mark.parametrize("n, bound", [(5, 2), (6, 1)])
def test_orthogonal_algebras_admit_no_rank_one(n, bound):
    assert rank_one_search_orthogonal(n, bound) == []


def _is_alternating(m: linalg.Matrix) -> bool:
    return all(m[i][j] == -m[j][i] for i in range(len(m)) for j in range(i, len(m)))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_orthogonal_algebras_have_even_ranks(n):
    """Every X in so(G) has even rank, so none has rank 1: G X is
    alternating, an alternating matrix has even rank, and G is invertible,
    so rank X = rank G X."""
    g = split_orthogonal_form(n)
    assert linalg.rank(g) == n
    # X^T G + G X = 0 as a linear system in the entries of X, X[k][l] at k * n + l
    system = tuple(
        tuple((g[k][j] if l == i else 0) + (g[i][k] if l == j else 0)
              for k in range(n) for l in range(n))
        for i in range(n) for j in range(n)
    )
    basis = linalg.nullspace(system)
    assert len(basis) == n * (n - 1) // 2
    for v in basis:
        x = tuple(v[k * n:(k + 1) * n] for k in range(n))
        assert in_orthogonal_algebra(x, g)
        # by linearity G X is then alternating for all of so(G)
        assert _is_alternating(linalg.mat_mul(g, x))
    rng = random.Random(n)
    ranks = set()
    for k in range(n // 2 + 2):
        for _ in range(3):
            # a sum of k wedges u v^T - v u^T is alternating, of rank at most 2k
            a = ((0,) * n,) * n
            for _ in range(k):
                u, v = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
                a = tuple(tuple(x + u[i] * v[j] - v[i] * u[j] for j, x in enumerate(row))
                          for i, row in enumerate(a))
            assert _is_alternating(a)
            ranks.add(linalg.rank(a))
    assert ranks == set(range(0, n + 1, 2))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_orthogonal_rank_two_witness(n):
    g = split_orthogonal_form(n)
    m = tuple(
        tuple(1 if (i, j) == (0, 1) else -1 if (i, j) == (n - 2, n - 1) else 0
              for j in range(n))
        for i in range(n)
    )
    assert in_orthogonal_algebra(m, g)
    assert linalg.is_zero_matrix(linalg.mat_mul(m, m))
    assert linalg.rank(m) == 2


@pytest.mark.parametrize("g", [1, 2, 3, 5])
def test_symplectic_rank_one_witness(g):
    theta = standard_symplectic_form(g)
    n = 2 * g
    m = tuple(tuple(1 if (i, j) == (0, g) else 0 for j in range(n)) for i in range(n))
    lhs = mat_add(linalg.mat_mul(linalg.transpose(m), theta),
                  linalg.mat_mul(theta, m))
    assert linalg.is_zero_matrix(lhs)
    assert linalg.is_zero_matrix(linalg.mat_mul(m, m))
    assert linalg.rank(m) == 1


def test_transvection_constraint_examples():
    assert [e.label for e in transvection_constraint(2)] == ["A1:w1"]
    assert [e.label for e in transvection_constraint(5)] == ["A4:w1"]
    assert [e.label for e in transvection_constraint(6)] == ["A5:w1", "C3:w1"]
    with pytest.raises(ValueError):
        transvection_constraint(1)


def test_transvection_constraint_sweep():
    for n in range(2, 40):
        entries = transvection_constraint(n)
        assert len(entries) == (2 if n % 2 == 0 and n >= 4 else 1)
        for e in entries:
            assert e.dim == n
            assert quadratic_rank_profile(e)[0] == 1


def test_rank2_constraint_small_cases():
    assert [s.label for s in rank2_constraint(8)] == [
        "A7:w1", "C4:w1", "D4:w1", "A3:w1 x A1:w1", "C2:w1 x A1:w1",
    ]
    assert [s.label for s in rank2_constraint(9)] == ["A8:w1", "B4:w1"]
    assert [s.label for s in rank2_constraint(10)] == [
        "A9:w1", "C5:w1", "D5:w1", "A4:w1 x A1:w1",
    ]
    with pytest.raises(ValueError):
        rank2_constraint(7)


def _shape_order(shape):
    """Single factors first, then by family, rank and weight index."""
    return (len(shape.factors),) + tuple(f.sort_key() for f in shape.factors)


def test_rank2_constraint_sweep():
    for n in range(8, 61):
        shapes = rank2_constraint(n)
        labels = [s.label for s in shapes]
        assert len(set(labels)) == len(labels)
        assert labels == [s.label for s in sorted(shapes, key=_shape_order)]
        for s in shapes:
            assert len(s.factors) in (1, 2)
            assert prod(f.dim for f in s.factors) == n


@pytest.mark.parametrize("n", [8, 12, 16, 20, 30])
def test_symplectic_rank2_shapes_are_standard(n):
    symp = [s for s in rank2_constraint(n) if s.form is FormClass.SYMPLECTIC]
    assert [s.label for s in symp] == [f"C{n // 2}:w1"]


def test_symplectic_rank2_shapes_empty_for_odd_dim():
    assert [s for s in rank2_constraint(9) if s.form is FormClass.SYMPLECTIC] == []


def test_tensor_form_truth_table():
    orth, symp, nsd = (FormClass.ORTHOGONAL, FormClass.SYMPLECTIC,
                       FormClass.NON_SELF_DUAL)
    assert tensor_form(orth, orth) is orth
    assert tensor_form(symp, symp) is orth
    assert tensor_form(orth, symp) is symp
    assert tensor_form(symp, orth) is symp
    for x in (orth, symp, nsd):
        assert tensor_form(nsd, x) is nsd
        assert tensor_form(x, nsd) is nsd


def _kron(a: linalg.Matrix, b: linalg.Matrix) -> linalg.Matrix:
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a)) for k in range(len(b))
    )


def test_tensor_form_matches_kronecker_symmetry():
    symp = ((0, 1), (-1, 0))
    orth = ((1, 0), (0, 1))

    def symmetry(m):
        t = linalg.transpose(m)
        if t == m:
            return FormClass.ORTHOGONAL
        assert linalg.is_zero_matrix(mat_add(t, m))
        return FormClass.SYMPLECTIC

    cases = {FormClass.SYMPLECTIC: symp, FormClass.ORTHOGONAL: orth}
    for fa, ma in cases.items():
        for fb, mb in cases.items():
            assert symmetry(_kron(ma, mb)) is tensor_form(fa, fb)


def test_shape_validation_and_properties():
    a = descriptor(LieType("A", 3), 1)
    sl2 = descriptor(LieType("A", 1), 1)
    shape = AlgebraShape((a, sl2))
    assert shape.label == "A3:w1 x A1:w1"
    assert shape.form is FormClass.NON_SELF_DUAL
