"""The table of minuscule-type modules driving the exclusion engine.

Per family: A_m carries w1..wm; B_m the vector module w1 (dim 2m+1, the
quasi-minuscule stand-in the case analysis uses for odd orthogonal
groups); C_m the standard w1 (dim 2m); D_m the vector w1 (dim 2m) and the
two half-spin modules (dim 2^(m-1)); E6 carries w1 and w6 (dim 27) and E7
carries w7 (dim 56).  E8 carries nothing.

Dimensions and duality classes are closed-form here.  The tests
cross-validate them against the Weyl dimension formula and the parity
criterion of the root-system oracle ``tests/helpers_roots.py``; the
package carries no root system, so the table and the derivation stay
independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .roots import FormClass, LieType, Weight, _check_weight


@dataclass(frozen=True)
class IrrepDescriptor:
    """One cataloged module: type, index s of its highest weight ws, dimension, form."""

    lie_type: LieType
    weight_index: int
    dim: int
    form: FormClass

    def __post_init__(self):
        if not 1 <= self.weight_index <= self.lie_type.rank:
            raise ValueError(f"cataloged weights are fundamental: {self.lie_type} has no "
                             f"w{self.weight_index}")

    @property
    def weight(self) -> Weight:
        """The highest weight ws in coordinates, built on demand."""
        return Weight.fundamental(self.lie_type.rank, self.weight_index)

    @property
    def label(self) -> str:
        return f"{self.lie_type}:w{self.weight_index}"

    def sort_key(self):
        return (self.lie_type.family, self.lie_type.rank, self.weight_index)

    def __str__(self) -> str:
        return f"({self.lie_type}, w{self.weight_index})"


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


def table_dim(t: LieType, s: int) -> int:
    f, m = t.family, t.rank
    if f == "A":
        return comb(m + 1, s)
    if f == "B":
        return 2 * m + 1
    if f == "C":
        return 2 * m
    if f == "D":
        return 2 * m if s == 1 else 2 ** (m - 1)
    return 27 if m == 6 else 56


def table_form(t: LieType, s: int) -> FormClass:
    f, m = t.family, t.rank
    if f == "A":
        if m + 1 != 2 * s:
            return FormClass.NON_SELF_DUAL
        # self-dual middle weight: parity of s(m+1-s) = s^2
        return FormClass.ORTHOGONAL if s % 2 == 0 else FormClass.SYMPLECTIC
    if f == "B":
        return FormClass.ORTHOGONAL
    if f == "C":
        return FormClass.SYMPLECTIC
    if f == "D":
        if s == 1:
            return FormClass.ORTHOGONAL
        if m % 2 == 1:
            return FormClass.NON_SELF_DUAL
        return FormClass.ORTHOGONAL if m % 4 == 0 else FormClass.SYMPLECTIC
    if m == 6:
        return FormClass.NON_SELF_DUAL
    return FormClass.SYMPLECTIC


def descriptor(t: LieType, s: int) -> IrrepDescriptor:
    """The catalog entry for fundamental weight index s; raises if absent."""
    if s not in minuscule_weight_indices(t):
        raise ValueError(f"{t} carries no cataloged module at w{s}")
    return IrrepDescriptor(t, s, table_dim(t, s), table_form(t, s))


def enumerate_minuscule(t: LieType) -> tuple[IrrepDescriptor, ...]:
    return tuple(descriptor(t, s) for s in minuscule_weight_indices(t))


def is_minuscule(t: LieType, w: Weight) -> bool:
    """Whether w is one of the cataloged weights of t (dominance required)."""
    _check_weight(t, w)
    return any(w == e.weight for e in enumerate_minuscule(t))
