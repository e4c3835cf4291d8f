"""Rank data for square-zero (quadratic) nilpotents in cataloged modules.

The recorded ranks are the ones the case analysis relies on: a quadratic
element of (A_m, ws) has rank binom(m-1, s-1); the classical w1 modules
admit minimal rank 1 (symplectic) or 2 (orthogonal); a half-spin module of
D_m forces rank 2^(m-3) or 2^(m-2).  ``quadratic_rank_profile`` states
these once, as a plain tuple of ranks, minimal first; the tests check on
every entry up to rank 50 that the ranks are ascending, at least 1 and at
most half the dimension.  The exceptional types deliberately carry no rank
data: asking for one raises ``ValueError``, so callers must exclude them
rather than read a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .catalog import IrrepDescriptor, descriptor, standard_module
from .roots import FormClass, LieType


def quadratic_rank_profile(irrep: IrrepDescriptor) -> tuple[int, ...]:
    """The recorded quadratic ranks of irrep, minimal first."""
    f, m = irrep.lie_type.family, irrep.lie_type.rank
    s = irrep.weight_index
    if f == "E":
        raise ValueError(f"no quadratic rank data for {irrep.lie_type}")
    if f == "A":
        return (comb(m - 1, s - 1),)
    if f == "C":
        return (1,)
    if f == "B" or s == 1:
        return (2,)
    return (2 ** (m - 3), 2 ** (m - 2))  # D_m half-spin


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
