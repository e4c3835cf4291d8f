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

from math import comb

from .catalog import IrrepDescriptor


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
