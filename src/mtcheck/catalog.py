"""The table of minuscule-type modules driving the exclusion engine.

Per family: A_m carries w1..wm; B_m the vector module w1 (dim 2m+1, the
quasi-minuscule stand-in the case analysis uses for odd orthogonal
groups); C_m the standard w1 (dim 2m); D_m the vector w1 (dim 2m) and the
two half-spin modules (dim 2^(m-1)); E6 carries w1 and w6 (dim 27) and E7
carries w7 (dim 56).  E8 carries nothing.

A module is named by the index s of its highest weight ws.  ``descriptor``
is the one constructor: it admits exactly the indices
``minuscule_weight_indices`` lists and fills in the closed-form dimension
and duality class.  The tests cross-validate those against the Weyl
dimension formula and the parity criterion of the root-system oracle
``tests/helpers_roots.py``; the package carries no root system, so the
table and the derivation stay independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .roots import FormClass, LieType


@dataclass(frozen=True)
class IrrepDescriptor:
    """One cataloged module: type, index s of its highest weight ws, dimension, form."""

    lie_type: LieType
    weight_index: int
    dim: int
    form: FormClass

    @property
    def label(self) -> str:
        return f"{self.lie_type}:w{self.weight_index}"

    def sort_key(self):
        return (self.lie_type.family, self.lie_type.rank, self.weight_index)


def minuscule_weight_indices(t: LieType) -> range | tuple[int, ...]:
    f, m = t.family, t.rank
    if f == "A":
        return range(1, m + 1)
    if f in ("B", "C"):
        return (1,)
    if f == "D":
        return (1, m - 1, m)
    if m == 6:
        return (1, 6)
    if m == 7:
        return (7,)
    return ()


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
    if m == 6:
        return 27, FormClass.NON_SELF_DUAL
    return 56, FormClass.SYMPLECTIC


def descriptor(t: LieType, s: int) -> IrrepDescriptor:
    """The catalog entry for fundamental weight index s; raises if absent."""
    if s not in minuscule_weight_indices(t):
        raise ValueError(f"{t} carries no cataloged module at w{s}")
    return IrrepDescriptor(t, s, *_dim_and_form(t, s))


def enumerate_minuscule(t: LieType) -> tuple[IrrepDescriptor, ...]:
    return tuple(descriptor(t, s) for s in minuscule_weight_indices(t))

