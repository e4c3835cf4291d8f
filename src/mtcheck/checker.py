"""Verdict engine: route an abelian-variety descriptor through the theorem
catalog and report the strongest applicable conclusion.

Endomorphism routing: each ``EndoType`` value is its ``check --endo``
token.  "I", "II" and "III" are the Albert types; "Q" means type I with
endomorphism algebra exactly Q; "k" means the algebra is an imaginary
quadratic field k (degree 2, with a signature (m_sigma, m_rho) summing to
g); "IV" is any other type IV.  The dimension/rank bookkeeping differs per
route: the imaginary quadratic case works with modules of dimension g and
half the toric rank, the rational case with dimension 2g and the full
toric rank.

The rules form one ordered table, `_RULES`, walked once per descriptor.
The verdict keeps the citation tags of every fired rule in order and
reports the strongest conclusion (MT_and_divisorial > MT >
MT_or_HodgeDivisorial > ExceptionPairHit > NotCovered).  Thm 6.4 takes its
conclusion from the exclusion engine: a surviving proper inclusion is an
exception-pair hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .exclusion import surviving_inners
from .roots import FormClass


class EndoType(Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"
    IV_IMAG_QUAD = "k"
    IV_OTHER = "IV"
    RATIONAL = "Q"


class Reduction(Enum):
    GOOD_OR_UNKNOWN = "good-or-unknown"
    BAD_SEMISTABLE_SPLIT = "bad-semistable-split"


class Conclusion(Enum):
    MT_AND_DIVISORIAL = "MT_and_divisorial"
    MT = "MT"
    MT_OR_HODGE_DIVISORIAL = "MT_or_HodgeDivisorial"
    EXCEPTION_PAIR_HIT = "ExceptionPairHit"
    NOT_COVERED = "NotCovered"
    INPUT_INCONSISTENT = "InputInconsistent"


# Conclusion is declared strongest first; a larger strength is stronger.  It
# is a plain attribute, as a dict keyed by members hashes each one in Python
for _rank, _member in enumerate(Conclusion):
    _member.strength = -_rank
del _rank, _member


class InputInconsistentError(ValueError):
    """Descriptor data contradicts itself; names the violated constraint."""


@dataclass(frozen=True)
class AVDescriptor:
    """What is known about one abelian variety over a number field."""

    g: int
    endo_type: EndoType
    endo_degree: int = 1
    signature: tuple[int, int] | None = None
    toric_rank: int = 0
    reduction: Reduction = Reduction.GOOD_OR_UNKNOWN
    simple: bool = False
    lie_parts_simple: bool = False

    @property
    def bad(self) -> bool:
        return self.reduction is Reduction.BAD_SEMISTABLE_SPLIT


@dataclass(frozen=True)
class Verdict:
    conclusion: Conclusion
    citations: tuple[str, ...]
    notes: tuple[str, ...]


def validate(d: AVDescriptor) -> None:
    """Raise InputInconsistentError on any self-contradictory descriptor."""
    if d.g < 1:
        raise InputInconsistentError("g must be >= 1")
    if d.endo_degree < 1:
        raise InputInconsistentError("endomorphism degree must be >= 1")
    if d.endo_type is EndoType.RATIONAL and d.endo_degree != 1:
        raise InputInconsistentError("endo type Q forces degree 1")
    if d.endo_type is EndoType.IV_IMAG_QUAD and d.endo_degree != 2:
        raise InputInconsistentError("an imaginary quadratic field has degree 2")
    if d.endo_type is EndoType.IV_IMAG_QUAD and d.signature is None:
        raise InputInconsistentError("imaginary quadratic descriptors need a signature")
    if d.signature is not None:
        a, b = d.signature
        if a < 0 or b < 0:
            raise InputInconsistentError("signature entries must be >= 0")
        if a + b != d.g:
            raise InputInconsistentError(
                f"signature {d.signature} must sum to g = {d.g}")
    if d.toric_rank < 0 or d.toric_rank > d.g:
        raise InputInconsistentError("toric rank must lie in 0..g")
    bad = d.bad
    if bad and d.toric_rank == 0:
        raise InputInconsistentError("bad semistable reduction forces toric rank >= 1")
    if not bad and d.toric_rank != 0:
        raise InputInconsistentError("toric rank is only meaningful for bad reduction")
    if bad and d.simple and d.toric_rank % d.endo_degree != 0:
        raise InputInconsistentError(
            f"endomorphism degree {d.endo_degree} must divide toric rank "
            f"{d.toric_rank} for a simple variety")


def _thm64_hypothesis(d: AVDescriptor) -> bool:
    """Imaginary quadratic multiplication, bad reduction, toric rank 2r with
    gcd(r, g) = 1."""
    return (d.endo_type is EndoType.IV_IMAG_QUAD and d.bad
            and d.toric_rank % 2 == 0 and d.toric_rank >= 2
            and gcd(d.toric_rank // 2, d.g) == 1)


def _thm65_hypothesis(d: AVDescriptor) -> bool:
    """Endomorphisms Q, bad reduction, toric rank prime to 2g."""
    return d.endo_type is EndoType.RATIONAL and d.bad and gcd(d.toric_rank, 2 * d.g) == 1


def _exclusion(tag: str, dim: str, n: int, form: FormClass, r: int) -> tuple[bool, str]:
    """Whether a proper inclusion survives at (n, form, r), and the note
    saying which.  n is the route's dimension, named dim ("g" or "2g") in
    the error raised when n is past the candidate search's bound."""
    if n <= 4:
        return False, (f"{tag}: ambient dimension {n} <= 4 handled by the "
                       "small-dimension results; exclusion engine not consulted")
    try:
        survivors = surviving_inners(n, form, r)
    except ValueError as exc:  # on these routes only the dimension bound refuses
        raise ValueError(f"{tag} searches at {dim}: {exc}") from None
    if not survivors:
        return False, f"{tag}: survivors: none (dim {n}, {form.value}, rank {r})"
    names = ", ".join(s.label for s in survivors)
    return True, (f"{tag}: surviving proper inclusions: {names} "
                  f"(dim {n}, {form.value}, rank {r})")


# An evaluation returns (conclusion, note) when its rule fires and the reason
# it did not fire otherwise; it also sees the strongest conclusion so far.
_Outcome = tuple[Conclusion, str | None] | str


def _coprime_signature(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if d.endo_type is not EndoType.IV_IMAG_QUAD:
        return "endo type is not an imaginary quadratic field"
    if gcd(*d.signature) != 1:
        return "signature entries are not coprime"
    return Conclusion.MT_AND_DIVISORIAL, None


def _extra_endo_fourfold(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if d.g == 4 and d.simple and d.endo_type is not EndoType.RATIONAL:
        return Conclusion.MT, None
    return "needs g = 4, simple, and endomorphisms beyond Q"


def _minimal_toric_rank(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if d.bad and d.simple:
        if d.endo_type is EndoType.RATIONAL and d.toric_rank == 1:
            return Conclusion.MT_AND_DIVISORIAL, None
        if d.endo_type is EndoType.IV_IMAG_QUAD and d.toric_rank == 2:
            return Conclusion.MT, None
    return ("needs bad reduction at the minimal toric rank (1 over Q, "
            "2 over an imaginary quadratic field) and simplicity")


def _fourfold_not_purely_multiplicative(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if (d.g == 4 and d.simple and d.endo_type is EndoType.RATIONAL and d.bad
            and d.toric_rank in (1, 2, 3)):
        return Conclusion.MT_AND_DIVISORIAL, None
    return ("needs g = 4, simple, endomorphisms Q, bad reduction of "
            "toric rank 1, 2 or 3")


def _quadratic_coprime_half_rank(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if not _thm64_hypothesis(d):
        return ("needs imaginary quadratic multiplication, bad reduction, "
                "toric rank 2r with gcd(r, g) = 1")
    hit, note = _exclusion("Thm 6.4", "g", d.g, FormClass.NON_SELF_DUAL, d.toric_rank // 2)
    return (Conclusion.EXCEPTION_PAIR_HIT if hit else Conclusion.MT), note


def _rational_coprime_rank(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if not _thm65_hypothesis(d):
        return "needs endomorphisms Q, bad reduction, toric rank prime to 2g"
    _, note = _exclusion("Thm 6.5", "2g", 2 * d.g, FormClass.SYMPLECTIC, d.toric_rank)
    return Conclusion.MT, note


def _rational_simple_rank_two(d: AVDescriptor, _: Conclusion) -> _Outcome:
    if d.endo_type is EndoType.RATIONAL and d.simple and d.bad and d.toric_rank == 2:
        return Conclusion.MT, None
    return "needs endomorphisms Q, simple, bad reduction of toric rank 2"


def _simple_lie_parts(d: AVDescriptor, strongest: Conclusion) -> _Outcome:
    non_weil = (d.endo_type is EndoType.IV_IMAG_QUAD
                and d.signature[0] != d.signature[1])
    if not (d.simple and (non_weil or d.endo_type in (
            EndoType.TYPE_I, EndoType.TYPE_II, EndoType.RATIONAL))):
        return ("needs simplicity and type I, II, Q, or imaginary quadratic "
                "with unbalanced signature")
    if not (d.lie_parts_simple or _thm64_hypothesis(d) or _thm65_hypothesis(d)):
        return ("simplicity of the Lie parts is not inferable (no coprime "
                "toric rank and no explicit flag)")
    if strongest.strength >= Conclusion.MT_OR_HODGE_DIVISORIAL.strength:
        return "a stronger conclusion already fired"
    return Conclusion.MT_OR_HODGE_DIVISORIAL, None


# (rule id, citation tag, description, evaluation), in citation order
_RULES = (
    ("R1", "Thm 1.2", "imaginary quadratic multiplication with coprime signature: "
                      "all Hodge and Tate classes are divisorial", _coprime_signature),
    ("R2", "Thm 2.4", "fourfold with extra endomorphisms", _extra_endo_fourfold),
    ("R3", "Thm 5.1", "bad semistable reduction of minimal toric rank",
     _minimal_toric_rank),
    ("R4", "Thm 5.2", "fourfold, endomorphisms Q, bad but not purely "
                      "multiplicative reduction", _fourfold_not_purely_multiplicative),
    ("R5", "Thm 6.4", "imaginary quadratic case with toric rank 2r, gcd(r, g) = 1",
     _quadratic_coprime_half_rank),
    ("R6", "Thm 6.5", "endomorphisms Q, toric rank prime to 2g", _rational_coprime_rank),
    ("R7", "Thm 6.6", "endomorphisms Q, simple, bad reduction of toric rank 2",
     _rational_simple_rank_two),
    ("R8", "Thm 7.1", "simple Lie parts: MT group or Hodge classes divisorial",
     _simple_lie_parts),
)

_DESCRIPTIONS = {tag: description for _, tag, description, _ in _RULES}


def decide(d: AVDescriptor) -> Verdict:
    """Validate, evaluate every rule once in table order, and return the
    strongest conclusion."""
    validate(d)
    strongest = Conclusion.NOT_COVERED
    citations: list[str] = []
    notes: list[str] = []
    misses: list[str] = []
    for _, tag, _, evaluate in _RULES:
        outcome = evaluate(d, strongest)
        if isinstance(outcome, str):
            misses.append(outcome)
            continue
        conclusion, note = outcome
        citations.append(tag)
        if note:
            notes.append(note)
        if conclusion.strength > strongest.strength:
            strongest = conclusion
    if not citations:  # then every rule missed, in table order
        notes = [f"{rule_id} ({tag}) did not fire: {why}"
                 for (rule_id, tag, _, _), why in zip(_RULES, misses)]
    if (d.endo_type is EndoType.IV_IMAG_QUAD and 0 in d.signature and d.g >= 2):
        notes.append("signature has a zero entry: CM type, settled classically "
                     "outside this rule set")
    return Verdict(strongest, tuple(citations), tuple(notes))


def explain(v: Verdict) -> str:
    """Human-readable report for a verdict."""
    lines = [f"conclusion: {v.conclusion.value}"]
    if v.citations:
        lines.append("fired rules:")
        for tag in v.citations:
            lines.append(f"  {tag}: {_DESCRIPTIONS[tag]}")
    else:
        lines.append("fired rules: none")
    if v.notes:
        lines.append("notes:")
        for note in v.notes:
            lines.append(f"  {note}")
    return "\n".join(lines)
