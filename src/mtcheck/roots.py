"""Runtime types for the simple Lie algebras the catalog names.

``LieType`` is a family letter plus a rank and ``FormClass`` the duality
class of an irreducible module.  The catalog names a module by the index
s of its fundamental highest weight ws, and its dimensions and duality
classes are closed-form, so the runtime needs neither weight coordinates
nor a root system.  Weights in fundamental-weight coordinates and the
root-system derivation that cross-checks the catalog (positive roots,
fundamental weights, the Weyl dimension formula, the duality involution
and the Frobenius-Schur parity) are the test oracle ``tests/helpers_roots.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

E_RANKS = (6, 7, 8)
MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


class FormClass(Enum):
    """Duality class of an irreducible module."""

    ORTHOGONAL = "orth"
    SYMPLECTIC = "symp"
    NON_SELF_DUAL = "nsd"


@dataclass(frozen=True, order=True, slots=True)
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
            if self.rank not in E_RANKS:
                raise ValueError(f"E requires rank in {E_RANKS}, got {self.rank}")
        elif self.rank < MIN_RANK[self.family]:
            raise ValueError(
                f"{self.family} requires rank >= {MIN_RANK[self.family]}, got {self.rank}"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"
