"""Cross-checks of the module catalog against the general machinery.

The catalog's closed-form dimensions are validated with the Weyl dimension
formula, its duality classes against the involution/parity computation, and
its membership list against the strict coroot-pairing criterion.  The one
deliberate divergence is the B family: the catalog keeps the vector module
w1 (dimension 2m+1, quasi-minuscule, with a zero weight) as the odd
orthogonal representative and drops the strictly minuscule spin module wm,
so the membership test carves B out and pins both sides of that choice.
"""

from __future__ import annotations

import pytest

from helpers_oracles import (fundamental_index_by_scan, label_by_weight, orbit_size,
                             pairing_minuscule)
from helpers_roots import form_class, weyl_dim
from mtcheck.catalog import (IrrepDescriptor, descriptor, enumerate_minuscule,
                             is_minuscule, minuscule_weight_indices, table_dim)
from mtcheck.roots import FormClass, LieType, Weight


def _small_types() -> list[LieType]:
    types = [LieType("A", m) for m in range(1, 13)]
    types += [LieType("B", m) for m in range(2, 13)]
    types += [LieType("C", m) for m in range(2, 13)]
    types += [LieType("D", m) for m in range(3, 13)]
    types += [LieType("E", m) for m in (6, 7, 8)]
    return types


@pytest.mark.parametrize("t", _small_types(), ids=str)
def test_membership_matches_strict_pairing(t):
    strict = {s for s in range(1, t.rank + 1) if pairing_minuscule(t, s)}
    listed = set(minuscule_weight_indices(t))
    if t.family == "B":
        # The strictly minuscule module of B_m is the spin module wm; the
        # catalog deliberately lists the vector module w1 instead.
        assert strict == {t.rank}
        assert listed == {1}
    else:
        assert listed == strict


@pytest.mark.parametrize("t", _small_types(), ids=str)
def test_dims_match_weyl_formula(t):
    for entry in enumerate_minuscule(t):
        assert entry.dim == weyl_dim(t, entry.weight)


@pytest.mark.parametrize(
    "family, rank, s",
    [("A", 30, 1), ("A", 30, 15), ("B", 30, 1), ("C", 30, 1),
     ("D", 30, 1), ("D", 30, 30)],
)
def test_dims_at_rank_thirty(family, rank, s):
    t = LieType(family, rank)
    assert table_dim(t, s) == weyl_dim(t, Weight.fundamental(rank, s))


@pytest.mark.parametrize("t", _small_types(), ids=str)
def test_forms_match_parity_criterion(t):
    for entry in enumerate_minuscule(t):
        assert entry.form is form_class(t, entry.weight)


@pytest.mark.parametrize(
    "family, rank, s, expected",
    [
        ("A", 29, 15, FormClass.SYMPLECTIC),   # middle weight, s odd
        ("A", 30, 15, FormClass.NON_SELF_DUAL),
        ("D", 29, 29, FormClass.NON_SELF_DUAL),
        ("D", 30, 30, FormClass.SYMPLECTIC),
        ("D", 32, 32, FormClass.ORTHOGONAL),
    ],
)
def test_forms_at_large_rank(family, rank, s, expected):
    t = LieType(family, rank)
    entry = descriptor(t, s)
    assert entry.form is expected
    assert form_class(t, entry.weight) is expected


_ORBIT_TYPES = ([LieType(f, m) for f in "BCD" for m in range(3, 7)]
                + [LieType("A", m) for m in range(1, 7)]
                + [LieType("E", 6), LieType("E", 7)])


@pytest.mark.parametrize("t", _ORBIT_TYPES, ids=str)
def test_dim_counts_the_weight_orbit(t):
    for entry in enumerate_minuscule(t):
        # The quasi-minuscule B vector module has one extra (zero) weight.
        expected = entry.dim - 1 if t.family == "B" else entry.dim
        assert orbit_size(t, entry.weight_index) == expected


def test_is_minuscule_examples():
    assert not is_minuscule(LieType("B", 2), Weight.fundamental(2, 2))
    assert is_minuscule(LieType("B", 2), Weight.fundamental(2, 1))
    assert is_minuscule(LieType("A", 5), Weight.fundamental(5, 3))
    assert is_minuscule(LieType("D", 4), Weight.fundamental(4, 4))
    assert is_minuscule(LieType("E", 6), Weight.fundamental(6, 6))
    assert not is_minuscule(LieType("E", 7), Weight.fundamental(7, 1))
    assert not is_minuscule(LieType("E", 8), Weight.fundamental(8, 8))
    assert not is_minuscule(LieType("A", 3), Weight((1, 1, 0)))
    assert not is_minuscule(LieType("C", 3), Weight((2, 0, 0)))


def test_is_minuscule_input_validation():
    with pytest.raises(ValueError, match="rank"):
        is_minuscule(LieType("A", 3), Weight((1, 0)))
    with pytest.raises(ValueError, match="dominant"):
        is_minuscule(LieType("A", 3), Weight((1, -1, 0)))


def test_e8_carries_nothing():
    e8 = LieType("E", 8)
    assert minuscule_weight_indices(e8) == ()
    assert enumerate_minuscule(e8) == ()
    with pytest.raises(ValueError, match="no cataloged module"):
        descriptor(e8, 1)


def test_descriptor_rejects_uncataloged_indices():
    with pytest.raises(ValueError):
        descriptor(LieType("B", 4), 4)
    with pytest.raises(ValueError):
        descriptor(LieType("C", 4), 2)
    with pytest.raises(ValueError):
        descriptor(LieType("D", 5), 3)
    with pytest.raises(ValueError):
        descriptor(LieType("A", 5), 6)


def test_d3_matches_a3_through_the_accidental_isomorphism():
    d3 = LieType("D", 3)
    entries = {e.weight_index: e for e in enumerate_minuscule(d3)}
    assert set(entries) == {1, 2, 3}
    assert (entries[1].dim, entries[2].dim, entries[3].dim) == (6, 4, 4)
    assert entries[1].form is FormClass.ORTHOGONAL
    assert entries[2].form is FormClass.NON_SELF_DUAL
    assert entries[3].form is FormClass.NON_SELF_DUAL
    a3 = LieType("A", 3)
    assert entries[1].dim == weyl_dim(a3, Weight.fundamental(3, 2))
    assert entries[2].dim == weyl_dim(a3, Weight.fundamental(3, 1))


def test_descriptor_label_and_index():
    e = descriptor(LieType("A", 7), 3)
    assert e.label == "A7:w3"
    assert e.weight_index == 3
    assert str(e) == "(A7, w3)"
    assert e.dim == 56
    assert e.form is FormClass.NON_SELF_DUAL


def test_descriptor_fields_match_weight_coordinates():
    types = [LieType(f, m) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for m in range(lo, 41)] + [LieType("E", 6), LieType("E", 7)]
    for t in types:
        for e in enumerate_minuscule(t):
            w = e.weight
            assert len(w.coords) == t.rank, e
            assert fundamental_index_by_scan(w) == e.weight_index, e
            assert e.label == label_by_weight(t, w)
            assert str(e) == f"({t}, {w})"


def test_weight_index_requires_fundamental():
    for s in (0, 3, -1):
        with pytest.raises(ValueError, match="fundamental"):
            IrrepDescriptor(LieType("A", 2), s, 3, FormClass.NON_SELF_DUAL)


@pytest.mark.parametrize(
    "t, count",
    [(LieType("A", 9), 9), (LieType("B", 6), 1), (LieType("C", 6), 1),
     (LieType("D", 6), 3), (LieType("E", 6), 2), (LieType("E", 7), 1),
     (LieType("E", 8), 0)],
    ids=str,
)
def test_catalog_sizes(t, count):
    assert len(enumerate_minuscule(t)) == count


def test_sort_key_orders_by_family_rank_index():
    entries = [descriptor(LieType("D", 5), 5), descriptor(LieType("A", 7), 3),
               descriptor(LieType("C", 4), 1), descriptor(LieType("A", 7), 1)]
    ordered = sorted(entries, key=IrrepDescriptor.sort_key)
    assert [e.label for e in ordered] == ["A7:w1", "A7:w3", "C4:w1", "D5:w5"]
