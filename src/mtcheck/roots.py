"""Runtime types for the simple Lie algebras the catalog names.

``LieType`` is a family letter plus a rank, ``Weight`` a weight in
fundamental-weight coordinates and ``FormClass`` the duality class of an
irreducible module; ``_check_weight`` is the shape-and-dominance check
behind ``catalog.is_minuscule``.  The catalog's dimensions and duality
classes are closed-form, so the runtime needs no root system.  The
root-system derivation that cross-checks them (positive roots,
fundamental weights, the Weyl dimension formula, the duality involution
and the Frobenius-Schur parity) is the test oracle ``tests/helpers_roots.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

_E_RANKS = (6, 7, 8)
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


class FormClass(Enum):
    """Duality class of an irreducible module."""

    ORTHOGONAL = "orth"
    SYMPLECTIC = "symp"
    NON_SELF_DUAL = "nsd"


@dataclass(frozen=True, order=True)
class LieType:
    """A simple type: family letter plus rank.

    A needs rank >= 1, B/C >= 2, D >= 3.  Family E admits ranks 6, 7 and 8;
    E8 exists so oracle sweeps can confirm it carries nothing of interest,
    but the catalog lists no modules for it.  F4 and G2 are not
    constructible at all.
    """

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D", "E"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "E":
            if self.rank not in _E_RANKS:
                raise ValueError(f"E requires rank in {_E_RANKS}, got {self.rank}")
        elif self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"{self.family} requires rank >= {_MIN_RANK[self.family]}, got {self.rank}"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(c, int) for c in self.coords):
            raise ValueError("weight coordinates must be integers")

    @classmethod
    def fundamental(cls, rank: int, s: int) -> "Weight":
        if not 1 <= s <= rank:
            raise ValueError(f"fundamental weight index {s} out of range 1..{rank}")
        return cls(tuple(1 if i == s - 1 else 0 for i in range(rank)))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __str__(self) -> str:
        nonzero = [i for i, c in enumerate(self.coords) if c != 0]
        if len(nonzero) == 1 and self.coords[nonzero[0]] == 1:
            return f"w{nonzero[0] + 1}"
        return "+".join(f"{self.coords[i]}w{i + 1}" for i in nonzero) or "0"


def _check_weight(t: LieType, w: Weight) -> None:
    """Raise unless w has one coordinate per rank of t and is dominant."""
    if len(w.coords) != t.rank:
        raise ValueError(f"weight has {len(w.coords)} coordinates, {t} has rank {t.rank}")
    if not w.is_dominant:
        raise ValueError(f"weight {w} is not dominant")
