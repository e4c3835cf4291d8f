"""Exact-arithmetic case analysis for Mumford-Tate verdicts under
reduction constraints: root systems, the minuscule module table, quadratic
nilpotent ranks, the proper-inclusion exclusion engine, seeded monodromy
models, and the theorem-citing verdict rules."""

from .catalog import IrrepDescriptor, enumerate_minuscule, is_minuscule
from .checker import (AVDescriptor, Conclusion, EndoType, InputInconsistentError,
                      Reduction, Verdict, decide, explain, validate)
from .divisibility import (ExceptionPair, divisibility_solutions, exception_pairs,
                           gcd_mod4_check)
from .exclusion import (CandidatePair, ExclusionVerdict, check_pair,
                        surviving_inners, theorem61_outer_shapes)
from .monodromy import (SpecializationInstance, SymplecticSpace, build_instance,
                        verify_filtration, verify_orthogonality)
from .quadratic import (QuadraticRankProfile, RankUnavailableError,
                        quadratic_min_rank, rank2_constraint,
                        transvection_constraint)
from .roots import (FormClass, LieType, Weight, duality_involution, form_class,
                    positive_roots, weyl_dim)

__version__ = "0.1.0"

__all__ = [
    "AVDescriptor", "CandidatePair", "Conclusion", "EndoType", "ExceptionPair",
    "ExclusionVerdict", "FormClass", "InputInconsistentError", "IrrepDescriptor",
    "LieType", "QuadraticRankProfile", "RankUnavailableError",
    "Reduction", "SpecializationInstance", "SymplecticSpace", "Verdict",
    "Weight", "build_instance", "check_pair", "decide", "divisibility_solutions",
    "duality_involution", "enumerate_minuscule", "exception_pairs", "explain",
    "form_class", "gcd_mod4_check", "is_minuscule",
    "positive_roots", "quadratic_min_rank", "rank2_constraint",
    "surviving_inners", "theorem61_outer_shapes", "transvection_constraint",
    "validate", "verify_filtration", "verify_orthogonality", "weyl_dim",
]
