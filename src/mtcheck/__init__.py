"""Exact-arithmetic case analysis for Mumford-Tate verdicts under
reduction constraints: Lie types, the closed-form minuscule module
table, quadratic nilpotent ranks, the proper-inclusion exclusion
engine, seeded monodromy models, and the theorem-citing verdict rules.
The root-system derivation that cross-checks the table is a test oracle,
not part of the package.  Each name is imported from its module, for
example ``from mtcheck.exclusion import check_pair``; the package itself
exports only ``__version__``.
"""

from . import catalog, checker, divisibility, exclusion, monodromy, quadratic, roots

__version__ = "0.1.0"
