"""Verdict-engine tests: descriptor validation, the four reference verdicts,
rule coverage, purely-multiplicative fall-through, consistency with the
exclusion engine and the exception-pair closed form, the reporting helpers,
a digest of every verdict over a bounded descriptor box, and the README's
rule table."""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers_oracles import is_exception_pair
from mtcheck.checker import (_RULES, AVDescriptor, Conclusion, EndoType,
                             InputInconsistentError, Reduction, Verdict,
                             decide, explain, validate)
from mtcheck.exclusion import surviving_inners
from mtcheck.roots import FormClass

BAD = Reduction.BAD_SEMISTABLE_SPLIT
GOOD = Reduction.GOOD_OR_UNKNOWN


def _q(g, toric=0, reduction=GOOD, simple=False, lie_parts_simple=False):
    return AVDescriptor(g=g, endo_type=EndoType.RATIONAL, toric_rank=toric,
                        reduction=reduction, simple=simple,
                        lie_parts_simple=lie_parts_simple)


def _k(g, signature, toric=0, reduction=GOOD, simple=False):
    return AVDescriptor(g=g, endo_type=EndoType.IV_IMAG_QUAD, endo_degree=2,
                        signature=signature, toric_rank=toric,
                        reduction=reduction, simple=simple)


def test_validate_accepts_consistent_descriptors():
    assert validate(_q(4, toric=3, reduction=BAD)) is None
    assert validate(_k(5, (2, 3))) is None
    assert validate(_q(1)) is None


@pytest.mark.parametrize(
    "descriptor, message",
    [
        (AVDescriptor(g=0, endo_type=EndoType.RATIONAL), "g must be"),
        (AVDescriptor(g=2, endo_type=EndoType.TYPE_II, endo_degree=0), "degree must be"),
        (AVDescriptor(g=2, endo_type=EndoType.RATIONAL, endo_degree=2), "forces degree 1"),
        (AVDescriptor(g=4, endo_type=EndoType.IV_IMAG_QUAD, endo_degree=3,
                      signature=(2, 2)), "degree 2"),
        (AVDescriptor(g=4, endo_type=EndoType.IV_IMAG_QUAD, endo_degree=2),
         "need a signature"),
        (_k(4, (-1, 5)), "must be >= 0"),
        (_k(5, (2, 2)), "must sum to g"),
        (_q(3, toric=4, reduction=BAD), "0..g"),
        (_q(3, toric=0, reduction=BAD), "toric rank >= 1"),
        (_q(3, toric=1, reduction=GOOD), "only meaningful for bad"),
        (_k(4, (2, 2), toric=3, reduction=BAD, simple=True), "must divide"),
    ],
)
def test_validate_rejects_inconsistent_descriptors(descriptor, message):
    assert issubclass(InputInconsistentError, ValueError)
    with pytest.raises(InputInconsistentError, match=message):
        validate(descriptor)
    with pytest.raises(InputInconsistentError):
        decide(descriptor)


def test_divisibility_constraint_needs_simplicity():
    # without the simple flag an odd toric rank over a quadratic field is
    # allowed (the variety may be isogenous to a product)
    assert validate(_k(4, (2, 2), toric=3, reduction=BAD)) is None


def test_reference_verdict_fourfold_rank_two():
    verdict = decide(_q(4, toric=2, reduction=BAD, simple=True))
    assert verdict.conclusion is Conclusion.MT_AND_DIVISORIAL
    assert verdict.citations == ("Thm 5.2", "Thm 6.6")


def test_reference_verdict_exception_pair_hit():
    verdict = decide(_k(56, (28, 28), toric=30, reduction=BAD, simple=True))
    assert verdict.conclusion is Conclusion.EXCEPTION_PAIR_HIT
    assert verdict.citations == ("Thm 6.4",)
    assert any("A7:w3" in note for note in verdict.notes)


def test_reference_verdict_coprime_signature_and_rank():
    verdict = decide(_k(7, (3, 4), toric=4, reduction=BAD, simple=True))
    assert verdict.conclusion is Conclusion.MT_AND_DIVISORIAL
    assert verdict.citations == ("Thm 1.2", "Thm 6.4")
    assert any("survivors: none" in note for note in verdict.notes)


def test_reference_verdict_coprime_toric_rank():
    verdict = decide(_q(5, toric=3, reduction=BAD))
    assert verdict.conclusion is Conclusion.MT
    assert verdict.citations == ("Thm 6.5",)
    assert any("dim 10, symp, rank 3" in note for note in verdict.notes)


def test_purely_multiplicative_fourfold_not_covered():
    for toric in (1, 2, 3):
        verdict = decide(_q(4, toric=toric, reduction=BAD, simple=True))
        assert verdict.conclusion in (Conclusion.MT, Conclusion.MT_AND_DIVISORIAL)
    verdict = decide(_q(4, toric=4, reduction=BAD, simple=True))
    assert verdict.conclusion is Conclusion.NOT_COVERED
    assert verdict.citations == ()
    assert len(verdict.notes) == 8
    assert all("did not fire" in note for note in verdict.notes)


def test_every_rule_fires_somewhere():
    by_rule = {
        "Thm 1.2": _k(3, (1, 2)),
        "Thm 2.4": AVDescriptor(g=4, endo_type=EndoType.TYPE_II, endo_degree=2,
                                simple=True),
        "Thm 5.1": _q(5, toric=1, reduction=BAD, simple=True),
        "Thm 5.2": _q(4, toric=1, reduction=BAD, simple=True),
        "Thm 6.4": _k(7, (3, 4), toric=4, reduction=BAD, simple=True),
        "Thm 6.5": _q(5, toric=3, reduction=BAD),
        "Thm 6.6": _q(4, toric=2, reduction=BAD, simple=True),
        "Thm 7.1": AVDescriptor(g=6, endo_type=EndoType.TYPE_I, endo_degree=2,
                                toric_rank=2, reduction=BAD, simple=True,
                                lie_parts_simple=True),
    }
    for tag, descriptor in by_rule.items():
        assert tag in decide(descriptor).citations, tag


def test_minimal_reduction_over_quadratic_field():
    verdict = decide(_k(6, (2, 4), toric=2, reduction=BAD, simple=True))
    assert "Thm 5.1" in verdict.citations
    # over k the minimal case concludes MT without the divisorial bonus,
    # but R5 can still fire alongside (r = 1 is coprime to everything)
    assert verdict.conclusion is Conclusion.MT


def test_disjunction_upgrades_exception_hit():
    # unbalanced signature + exception pair (10, 3): the hit is recorded but
    # the simple-Lie-parts disjunction still gives a stronger conclusion
    verdict = decide(_k(10, (4, 6), toric=6, reduction=BAD, simple=True))
    assert verdict.conclusion is Conclusion.MT_OR_HODGE_DIVISORIAL
    assert verdict.citations == ("Thm 6.4", "Thm 7.1")
    assert any("A4:w2" in note for note in verdict.notes)


def test_disjunction_suppressed_by_stronger_rule():
    verdict = decide(_q(5, toric=3, reduction=BAD, simple=True,
                        lie_parts_simple=True))
    assert "Thm 6.5" in verdict.citations
    assert "Thm 7.1" not in verdict.citations


def test_weil_signature_blocks_disjunction():
    verdict = decide(_k(56, (28, 28), toric=30, reduction=BAD, simple=True))
    assert "Thm 7.1" not in verdict.citations
    assert verdict.conclusion is Conclusion.EXCEPTION_PAIR_HIT


def test_cm_note():
    verdict = decide(_k(3, (0, 3)))
    assert verdict.conclusion is Conclusion.NOT_COVERED
    assert any("CM type" in note for note in verdict.notes)
    # g = 1 with signature (0, 1) is coprime and needs no CM note
    verdict = decide(_k(1, (0, 1)))
    assert verdict.conclusion is Conclusion.MT_AND_DIVISORIAL
    assert not any("CM type" in note for note in verdict.notes)


def test_r5_exclusion_consistency():
    for g in range(5, 26):
        for r in range(1, g // 2 + 1):
            if gcd(r, g) != 1:
                continue
            verdict = decide(_k(g, (0, g), toric=2 * r, reduction=BAD))
            assert "Thm 6.4" in verdict.citations
            survivors = surviving_inners(g, FormClass.NON_SELF_DUAL, r)
            hit = verdict.conclusion is Conclusion.EXCEPTION_PAIR_HIT
            assert hit == bool(survivors), (g, r)
            assert hit == is_exception_pair(g, r), (g, r)


def test_r6_exclusion_consistency():
    for g in range(3, 21):
        for toric in range(1, g + 1, 2):
            if gcd(toric, 2 * g) != 1:
                continue
            verdict = decide(_q(g, toric=toric, reduction=BAD))
            assert "Thm 6.5" in verdict.citations
            assert verdict.conclusion is Conclusion.MT
            assert surviving_inners(2 * g, FormClass.SYMPLECTIC, toric) == ()


def test_signature_on_rational_type_changes_nothing():
    base = _q(5, toric=3, reduction=BAD)
    with_sig = replace(base, signature=(2, 3))
    assert decide(base).conclusion is decide(with_sig).conclusion
    assert decide(base).citations == decide(with_sig).citations


def test_decide_is_deterministic():
    d = _k(7, (3, 4), toric=4, reduction=BAD, simple=True)
    assert decide(d) == decide(d)
    assert isinstance(decide(d), Verdict)


def test_explain_output():
    text = explain(decide(_q(4, toric=2, reduction=BAD, simple=True)))
    assert text.startswith("conclusion: MT_and_divisorial")
    assert "Thm 5.2:" in text
    assert "Thm 6.6:" in text
    text = explain(decide(_q(4, toric=4, reduction=BAD, simple=True)))
    assert "conclusion: NotCovered" in text
    assert "fired rules: none" in text
    assert "did not fire" in text


# sha256 of the box report below, computed on the engine before its rules
# became one table; any change to a verdict, note or message shows here
_BOX_DIGEST = "0ced7acf7d5ca2c0bbe3c768c8d0c41c74a5fba87619b5f0e713cd364c4bfbe1"


def _descriptor_box():
    """Every endo type, degree 1-3, signature, toric rank, reduction and flag
    pair for g <= 8; for the exception-pair dimensions 10, 56, 66 and a few
    more, the consistent descriptors of every toric rank."""
    flags = tuple(product((False, True), repeat=2))
    for g in range(1, 9):
        signatures = [None] + [(a, g - a) for a in range(g + 1)]
        for endo, degree, sig, toric, red, (simple, lie) in product(
                EndoType, (1, 2, 3), signatures, range(g + 1), Reduction, flags):
            yield AVDescriptor(g, endo, degree, sig, toric, red, simple, lie)
    for g in (10, 15, 21, 28, 36, 45, 55, 56, 66):
        kinds = ((EndoType.RATIONAL, 1, (None,)), (EndoType.TYPE_I, 2, (None,)),
                 (EndoType.IV_OTHER, 3, (None,)),
                 (EndoType.IV_IMAG_QUAD, 2, ((0, g), (1, g - 1), (g // 2, g - g // 2))))
        for (endo, degree, signatures), toric, (simple, lie) in product(
                kinds, range(g + 1), flags):
            red = Reduction.BAD_SEMISTABLE_SPLIT if toric else Reduction.GOOD_OR_UNKNOWN
            for sig in signatures:
                yield AVDescriptor(g, endo, degree, sig, toric, red, simple, lie)


def test_descriptor_box_digest():
    digest = hashlib.sha256()
    cited, concluded = set(), set()
    for d in _descriptor_box():
        try:
            verdict = decide(d)
        except InputInconsistentError as exc:
            text = f"InputInconsistent: {exc}"
        else:
            text = explain(verdict)
            cited.update(verdict.citations)
            concluded.add(verdict.conclusion)
        digest.update(text.encode() + b"\n\n")
    assert cited == {tag for _, tag, _, _ in _RULES}
    assert concluded == set(Conclusion) - {Conclusion.INPUT_INCONSISTENT}
    assert digest.hexdigest() == _BOX_DIGEST


_EXPECTED_DEGREE = {EndoType.RATIONAL: 1, EndoType.IV_IMAG_QUAD: 2}


@st.composite
def _any_descriptor(draw):
    """A descriptor with g up to 10^30: a consistent one, or one with a
    single field replaced by an arbitrary value from a box around it."""
    g = draw(st.one_of(st.integers(1, 60), st.integers(1, 10**30),
                       st.integers(10**29, 10**30)))
    endo = draw(st.sampled_from(EndoType))
    a = draw(st.integers(0, g))
    signature = draw(st.sampled_from(
        ((a, g - a),) if endo is EndoType.IV_IMAG_QUAD else (None, (a, g - a))))
    toric = min(draw(st.sampled_from((0, 1, 2)) | st.integers(0, 7) | st.integers(0, g)), g)
    d = AVDescriptor(g, endo, _EXPECTED_DEGREE.get(endo) or draw(st.integers(1, 4)),
                     signature, toric, BAD if toric else GOOD,
                     draw(st.booleans()), draw(st.booleans()))
    box = {"g": st.integers(-1, 10**30), "endo_degree": st.integers(-1, 4),
           "signature": st.none() | st.tuples(st.integers(-1, g + 1), st.integers(-1, g + 1)),
           "toric_rank": st.integers(-1, g + 1), "reduction": st.sampled_from(Reduction)}
    field = draw(st.sampled_from((None, None) + tuple(box)))
    return replace(d, **{field: draw(box[field])}) if field else d


# The deadline is hypothesis's default, kept on purpose: at g near 10^30 the
# Thm 6.4 and 6.5 rules ask the exclusion engine for the candidates of that
# dimension, which must take milliseconds, not hours.
@settings(derandomize=True, database=None, max_examples=300, deadline=200)
@given(_any_descriptor())
@example(_k(10**24 + 1, (1, 10**24), toric=2, reduction=BAD))
@example(_k(10**30 + 1, (1, 10**30), toric=2, reduction=BAD))
@example(_q(10**30, toric=1, reduction=BAD))
def test_decide_is_total(d):
    try:
        verdict = decide(d)
    except InputInconsistentError:
        return
    assert isinstance(verdict, Verdict)
    assert verdict.conclusion is not Conclusion.INPUT_INCONSISTENT
    assert set(verdict.citations) <= {tag for _, tag, _, _ in _RULES}
    assert explain(verdict).startswith(f"conclusion: {verdict.conclusion.value}\n")


def test_readme_rule_table_matches_rules():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(Thm [\d.]+)` \| (.+) \|$", readme, re.MULTILINE)
    assert rows == [(tag, description) for _, tag, description, _ in _RULES]
