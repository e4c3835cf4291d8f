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
from helpers_roots import Weight, form_class, highest_weight, weyl_dim
from mtcheck.catalog import (IrrepDescriptor, descriptor, enumerate_minuscule,
                             minuscule_weight_indices, standard_module)
from mtcheck.roots import FormClass, LieType


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
        assert entry.dim == weyl_dim(t, highest_weight(entry))


@pytest.mark.parametrize(
    "family, rank, s",
    [("A", 30, 1), ("A", 30, 15), ("B", 30, 1), ("C", 30, 1),
     ("D", 30, 1), ("D", 30, 30)],
)
def test_dims_at_rank_thirty(family, rank, s):
    t = LieType(family, rank)
    assert descriptor(t, s).dim == weyl_dim(t, Weight.fundamental(rank, s))


@pytest.mark.parametrize("t", _small_types(), ids=str)
def test_forms_match_parity_criterion(t):
    for entry in enumerate_minuscule(t):
        assert entry.form is form_class(t, highest_weight(entry))


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
    assert form_class(t, highest_weight(entry)) is expected


_ORBIT_TYPES = ([LieType(f, m) for f in "BCD" for m in range(3, 7)]
                + [LieType("A", m) for m in range(1, 7)]
                + [LieType("E", 6), LieType("E", 7)])


@pytest.mark.parametrize("t", _ORBIT_TYPES, ids=str)
def test_dim_counts_the_weight_orbit(t):
    for entry in enumerate_minuscule(t):
        # The quasi-minuscule B vector module has one extra (zero) weight.
        expected = entry.dim - 1 if t.family == "B" else entry.dim
        assert orbit_size(t, entry.weight_index) == expected


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
    assert e.dim == 56
    assert e.form is FormClass.NON_SELF_DUAL


def test_descriptors_are_frozen_and_slotted():
    # the candidate memo hands one value to every caller, and keeps
    # thousands of these, so they take no assignment and carry no __dict__
    entry = descriptor(LieType("A", 7), 3)
    for obj, field in ((entry, "dim"), (entry.lie_type, "rank")):
        assert not hasattr(obj, "__dict__"), obj
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)


def test_descriptor_fields_match_weight_coordinates():
    types = [LieType(f, m) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for m in range(lo, 41)] + [LieType("E", 6), LieType("E", 7)]
    for t in types:
        for e in enumerate_minuscule(t):
            w = highest_weight(e)
            assert len(w.coords) == t.rank, e
            assert fundamental_index_by_scan(w) == e.weight_index, e
            assert e.label == label_by_weight(t, w)


@pytest.mark.parametrize(
    "t, count",
    [(LieType("A", 9), 9), (LieType("B", 6), 1), (LieType("C", 6), 1),
     (LieType("D", 6), 3), (LieType("E", 6), 2), (LieType("E", 7), 1),
     (LieType("E", 8), 0)],
    ids=str,
)
def test_catalog_sizes(t, count):
    assert len(enumerate_minuscule(t)) == count


def test_dataclass_order_is_family_rank_index():
    # D4's w1, w3 and w4 (and E6's w1 and w6) share a rank, a dimension and
    # a form, so the weight index alone orders them
    entries = [descriptor(LieType("E", 6), 6), descriptor(LieType("D", 5), 5),
               descriptor(LieType("D", 4), 4), descriptor(LieType("A", 7), 3),
               descriptor(LieType("D", 4), 1), descriptor(LieType("E", 6), 1),
               descriptor(LieType("C", 4), 1), descriptor(LieType("D", 4), 3),
               descriptor(LieType("A", 7), 1)]
    assert [e.label for e in sorted(entries)] == [
        "A7:w1", "A7:w3", "C4:w1", "D4:w1", "D4:w3", "D4:w4", "D5:w5", "E6:w1", "E6:w6"]


def _w1_entries_by_scan(family: str, max_rank: int) -> dict[int, list[IrrepDescriptor]]:
    """Every w1 entry of the family up to max_rank, keyed by dimension; the
    ranks LieType rejects are skipped."""
    by_dim: dict[int, list[IrrepDescriptor]] = {}
    for rank in range(max_rank + 1):
        try:
            t = LieType(family, rank)
        except ValueError:
            continue
        for e in enumerate_minuscule(t):
            if e.weight_index == 1:
                by_dim.setdefault(e.dim, []).append(e)
    return by_dim


@pytest.mark.parametrize("family", "ABCD")
def test_standard_module_matches_scan(family):
    by_dim = _w1_entries_by_scan(family, 300)
    for n in range(2, 301):
        found = by_dim.get(n, [])
        assert len(found) <= 1, (family, n)
        assert standard_module(family, n) == (found[0] if found else None), (family, n)


def test_standard_module_at_extreme_dimension():
    n, half = 10 ** 30, 5 * 10 ** 29
    expected = {("A", n): f"A{n - 1}:w1", ("A", n + 1): f"A{n}:w1",
                ("B", n + 1): f"B{half}:w1", ("C", n): f"C{half}:w1",
                ("D", n): f"D{half}:w1"}
    for family in "ABCD":
        for dim in (n, n + 1):
            entry = standard_module(family, dim)
            if (family, dim) in expected:
                assert (entry.label, entry.dim) == (expected[family, dim], dim)
            else:
                assert entry is None, (family, dim)
