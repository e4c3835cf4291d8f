"""Root systems: the runtime ``LieType`` validation, and the root-system
oracle of ``helpers_roots`` (positive-root counts, the Weyl dimension
formula, the duality involution and the parity form criterion), each pinned
against an independent oracle (explicit enumeration, reflection descent, or
frozen hand values)."""

from fractions import Fraction

import pytest

from helpers_oracles import descent_dual_index, orbit_size
from helpers_roots import (Weight, ambient_weight, duality_involution, dual_weight,
                           form_class, positive_roots, simple_roots,
                           two_rho_coroot_pairing, vec_dot, weyl_dim)
from mtcheck import linalg
from mtcheck.roots import FormClass, LieType

ALL_SMALL = (
    [LieType("A", m) for m in range(1, 9)]
    + [LieType("B", m) for m in range(2, 9)]
    + [LieType("C", m) for m in range(2, 9)]
    + [LieType("D", m) for m in range(3, 9)]
    + [LieType("E", 6), LieType("E", 7)]
)


def _expected_count(t):
    m = t.rank
    if t.family == "E":
        return {6: 36, 7: 63, 8: 120}[m]
    return {"A": m * (m + 1) // 2, "B": m * m, "C": m * m, "D": m * (m - 1)}[t.family]


@pytest.mark.parametrize("t", ALL_SMALL + [LieType("E", 8)], ids=str)
def test_positive_root_counts(t):
    assert len(positive_roots(t)) == _expected_count(t)


def test_a7_roots_match_explicit_enumeration():
    expected = set()
    for i in range(8):
        for j in range(8):
            if i < j:
                v = [0] * 8
                v[i], v[j] = 1, -1
                expected.add(tuple(v))
    got = {tuple(int(x) for x in r) for r in positive_roots(LieType("A", 7))}
    assert got == expected


def test_e7_structural_checks():
    roots = positive_roots(LieType("E", 7))
    assert len(roots) == 63
    # simply laced after the uniform doubling: every root has norm 8
    assert {vec_dot(r, r) for r in roots} == {8}
    assert linalg.rank(roots) == 7
    assert len(set(roots)) == 63


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_simple_roots_are_positive_roots(t):
    pos = set(positive_roots(t))
    for alpha in simple_roots(t):
        assert tuple(alpha) in pos


def test_lie_type_validation():
    for family, rank in (("A", 0), ("B", 1), ("C", 1), ("D", 2),
                         ("E", 5), ("E", 9), ("F", 4), ("G", 2)):
        with pytest.raises(ValueError):
            LieType(family, rank)


def test_weyl_dim_hand_values():
    assert weyl_dim(LieType("A", 1), Weight.fundamental(1, 1)) == 2
    assert weyl_dim(LieType("A", 7), Weight.fundamental(7, 3)) == 56
    assert weyl_dim(LieType("E", 7), Weight.fundamental(7, 7)) == 56
    assert weyl_dim(LieType("E", 6), Weight.fundamental(6, 1)) == 27
    assert weyl_dim(LieType("B", 3), Weight.fundamental(3, 1)) == 7
    # adjoint modules: dim = rank + number of roots
    for t in (LieType("A", 3), LieType("D", 4), LieType("E", 6)):
        adjoint = {"A": Weight((1, 0, 1)), "D": Weight((0, 1, 0, 0)),
                   "E": Weight((0, 1, 0, 0, 0, 0))}[t.family]
        assert weyl_dim(t, adjoint) == t.rank + 2 * len(positive_roots(t))


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(LieType("A", 2), Weight((1, -1)))
    with pytest.raises(ValueError):
        weyl_dim(LieType("A", 2), Weight((1,)))


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_duality_involution_matches_descent_oracle(t):
    perm = duality_involution(t)
    assert sorted(perm) == list(range(1, t.rank + 1))
    for s in range(1, t.rank + 1):
        assert perm[s - 1] == descent_dual_index(t, s), (t, s)
    # an involution
    for s in range(1, t.rank + 1):
        assert perm[perm[s - 1] - 1] == s


def test_duality_involution_hand_values():
    assert duality_involution(LieType("A", 7)) == (7, 6, 5, 4, 3, 2, 1)
    assert duality_involution(LieType("B", 5)) == (1, 2, 3, 4, 5)
    assert duality_involution(LieType("C", 6)) == (1, 2, 3, 4, 5, 6)
    assert duality_involution(LieType("D", 5)) == (1, 2, 3, 5, 4)
    assert duality_involution(LieType("D", 6)) == (1, 2, 3, 4, 5, 6)
    assert duality_involution(LieType("E", 6)) == (6, 2, 5, 4, 3, 1)
    assert duality_involution(LieType("E", 7)) == (1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("t", [LieType("A", 5), LieType("D", 5), LieType("E", 6)],
                         ids=str)
def test_duality_preserves_dimension(t):
    for s in range(1, t.rank + 1):
        w = Weight.fundamental(t.rank, s)
        assert weyl_dim(t, w) == weyl_dim(t, dual_weight(t, w))


def test_form_class_hand_values():
    for m in range(2, 7):
        assert form_class(LieType("C", m), Weight.fundamental(m, 1)) is FormClass.SYMPLECTIC
        assert form_class(LieType("B", m), Weight.fundamental(m, 1)) is FormClass.ORTHOGONAL
    assert form_class(LieType("A", 3), Weight.fundamental(3, 2)) is FormClass.ORTHOGONAL
    assert form_class(LieType("A", 7), Weight.fundamental(7, 3)) is FormClass.NON_SELF_DUAL
    # half-spin classes cycle with m mod 4
    assert form_class(LieType("D", 4), Weight.fundamental(4, 4)) is FormClass.ORTHOGONAL
    assert form_class(LieType("D", 5), Weight.fundamental(5, 5)) is FormClass.NON_SELF_DUAL
    assert form_class(LieType("D", 6), Weight.fundamental(6, 6)) is FormClass.SYMPLECTIC


def test_two_rho_pairing_closed_form_for_a():
    # <ws, 2 rho-check> = s(m+1-s) in type A
    for m in range(1, 8):
        t = LieType("A", m)
        for s in range(1, m + 1):
            assert two_rho_coroot_pairing(t, Weight.fundamental(m, s)) == s * (m + 1 - s)


@pytest.mark.parametrize("t", [LieType("A", 4), LieType("B", 3), LieType("C", 3),
                               LieType("D", 4)], ids=str)
def test_form_class_constant_on_dual_pairs(t):
    for s in range(1, t.rank + 1):
        w = Weight.fundamental(t.rank, s)
        assert form_class(t, w) == form_class(t, dual_weight(t, w))


def test_orbit_size_spot_check():
    # |W(A7) . w3| = 8! / (3! 5!) = 56, the weights of a minuscule module
    assert orbit_size(LieType("A", 7), 3) == 56
    assert orbit_size(LieType("E", 6), 1) == 27


def test_ambient_weight_is_rational_exact():
    v = ambient_weight(LieType("A", 1), Weight.fundamental(1, 1))
    assert v == (Fraction(1, 2), Fraction(-1, 2))
