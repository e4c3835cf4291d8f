"""The root-system oracle: exact root data for families A-E, derived from
first principles so the catalog's closed forms can be checked against it.

Weights are ``Weight`` values in fundamental-weight coordinates;
``highest_weight`` gives the highest weight ws of a catalog entry,
which the package names by its index s alone.  Ambient coordinates follow
the standard orthonormal constructions: A_m in Q^(m+1), B/C/D_m in Q^m,
and the E family inside Q^8.  E-family vectors are uniformly doubled so
that every root has integer coordinates; all derived quantities are
scale-invariant, so the doubling is invisible to callers.

Everything is computed with ``fractions.Fraction``; no floating point.
The package's catalog is closed-form and needs none of this, so it lives
with the tests, together with ``solve`` and ``vec_dot``, which only this
derivation and the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from mtcheck import linalg
from mtcheck.catalog import IrrepDescriptor
from mtcheck.roots import FormClass, LieType

# rational data: ``linalg``'s own Matrix and Vector are integer-only
Scalar = Fraction | int
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]


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


def highest_weight(entry: IrrepDescriptor) -> Weight:
    """The highest weight ws of a catalog entry, in coordinates."""
    return Weight.fundamental(entry.lie_type.rank, entry.weight_index)


def vec_dot(u: Vector, v: Vector) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None when inconsistent."""
    n_cols = len(a[0]) if a else 0
    aug = tuple(tuple(row) + (b[i],) for i, row in enumerate(a))
    red, pivots = linalg.rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


def _check_shape(t: LieType, w: Weight) -> None:
    """Raise unless w has one coordinate per rank of t; w may be non-dominant."""
    if len(w.coords) != t.rank:
        raise ValueError(f"weight has {len(w.coords)} coordinates, {t} has rank {t.rank}")


def _check_weight(t: LieType, w: Weight) -> None:
    """Raise unless w has one coordinate per rank of t and is dominant."""
    _check_shape(t, w)
    if not w.is_dominant:
        raise ValueError(f"weight {w} is not dominant")


def _unit(n: int, i: int, value=1) -> Vector:
    return tuple(value if j == i else 0 for j in range(n))


def _pair(n: int, i: int, j: int, sign: int = -1, value: int = 1) -> Vector:
    """value·(e_i + sign·e_j) in Q^n, for i != j."""
    return tuple(value if k == i else sign * value if k == j else 0 for k in range(n))


@lru_cache(maxsize=None)
def simple_roots(t: LieType) -> Matrix:
    f, m = t.family, t.rank
    if f == "A":
        n = m + 1
        return tuple(_pair(n, i, i + 1) for i in range(m))
    if f in ("B", "C", "D"):
        chain = [_pair(m, i, i + 1) for i in range(m - 1)]
        if f == "B":
            chain.append(_unit(m, m - 1))
        elif f == "C":
            chain.append(_unit(m, m - 1, 2))
        else:
            chain.append(_pair(m, m - 2, m - 1, 1))
        return tuple(chain)
    return _e_simple_roots(m)


def _e_simple_roots(rank: int) -> Matrix:
    # Doubled standard E8 coordinates: alpha1 = e1 - e2 - ... - e7 + e8,
    # alpha2 = 2(e1 + e2), alpha_k = 2(e_{k-2+1} - e_{k-2}) for k >= 3.
    alpha1 = (1, -1, -1, -1, -1, -1, -1, 1)
    alpha2 = (2, 2, 0, 0, 0, 0, 0, 0)
    chain = [_pair(8, i, i - 1, value=2) for i in range(1, 7)]
    return tuple([alpha1, alpha2] + chain)[:rank]


@lru_cache(maxsize=None)
def _e8_all_roots() -> Matrix:
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    for bits in range(256):
        signs = [1 if bits >> k & 1 else -1 for k in range(8)]
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(signs))
    return tuple(roots)


def _coefficients_in(basis: Matrix, v: Vector) -> Vector | None:
    """Coefficients of v over basis rows, or None when v is outside the span."""
    gram = tuple(tuple(vec_dot(a, b) for b in basis) for a in basis)
    rhs = tuple(vec_dot(a, v) for a in basis)
    coeffs = solve(gram, rhs)
    if coeffs is None:
        return None
    recon = [Fraction(0)] * len(v)
    for c, row in zip(coeffs, basis):
        for k, x in enumerate(row):
            recon[k] += c * x
    return coeffs if tuple(recon) == tuple(Fraction(x) for x in v) else None


@lru_cache(maxsize=None)
def positive_roots(t: LieType) -> Matrix:
    """All positive roots as integer ambient vectors."""
    f, m = t.family, t.rank
    if f == "A":
        n = m + 1
        return tuple(_pair(n, i, j) for i in range(n) for j in range(i + 1, n))
    if f in ("B", "C", "D"):
        roots = []
        for i in range(m):
            for j in range(i + 1, m):
                roots.append(_pair(m, i, j))
                roots.append(_pair(m, i, j, 1))
        if f == "B":
            roots.extend(_unit(m, i) for i in range(m))
        elif f == "C":
            roots.extend(_unit(m, i, 2) for i in range(m))
        return tuple(roots)
    basis = simple_roots(t)
    out = []
    for root in _e8_all_roots():
        coeffs = _coefficients_in(basis, root)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            out.append(root)
    return tuple(out)


def _pair_with_coroot(v: Vector, root: Vector) -> Fraction:
    return Fraction(2) * vec_dot(v, root) / vec_dot(root, root)


@lru_cache(maxsize=None)
def _cartan_matrix(t: LieType) -> Matrix:
    alphas = simple_roots(t)
    return tuple(
        tuple(_pair_with_coroot(a_k, a_j) for a_k in alphas) for a_j in alphas
    )


@lru_cache(maxsize=None)
def fundamental_weights(t: LieType) -> Matrix:
    """Ambient vectors of the fundamental weights (rows)."""
    alphas = simple_roots(t)
    coeff = linalg.inverse(linalg.transpose(_cartan_matrix(t)))
    weights = []
    for row in coeff:
        w = [Fraction(0)] * len(alphas[0])
        for c, alpha in zip(row, alphas):
            for k, x in enumerate(alpha):
                w[k] += c * x
        weights.append(tuple(w))
    return tuple(weights)


def ambient_weight(t: LieType, w: Weight) -> Vector:
    _check_shape(t, w)
    fw = fundamental_weights(t)
    v = [Fraction(0)] * len(fw[0])
    for c, row in zip(w.coords, fw):
        for k, x in enumerate(row):
            v[k] += c * x
    return tuple(v)


def weyl_dim(t: LieType, w: Weight) -> int:
    """Dimension of the irreducible module of highest weight w.

    Product over positive roots of (w + rho, alpha) / (rho, alpha); the
    normalization of alpha cancels in the ratio, so ambient inner products
    suffice.  Exact rational arithmetic; the result is checked integral.
    """
    _check_weight(t, w)
    rho = tuple(sum(col) for col in zip(*fundamental_weights(t)))
    lam = tuple(x + y for x, y in zip(ambient_weight(t, w), rho, strict=True))
    d = prod(
        Fraction(vec_dot(lam, a), 1) / vec_dot(rho, a)
        for a in positive_roots(t)
    )
    if d.denominator != 1:
        raise ArithmeticError(f"non-integral dimension for {t}, {w}")
    return int(d)


@lru_cache(maxsize=None)
def duality_involution(t: LieType) -> tuple[int, ...]:
    """Permutation sigma of fundamental-weight indices with dual(V_ws) = V_w(sigma(s)).

    Entry i-1 holds sigma(i), 1-based.  A_m reverses the diagram, D_m with m
    odd swaps the two spin nodes, E6 swaps nodes 1,6 and 3,5; everything
    else is fixed.
    """
    f, m = t.family, t.rank
    perm = list(range(1, m + 1))
    if f == "A":
        perm = [m + 1 - s for s in perm]
    elif f == "D" and m % 2 == 1:
        perm[m - 2], perm[m - 1] = m, m - 1
    elif f == "E" and m == 6:
        perm[0], perm[5] = 6, 1
        perm[2], perm[4] = 5, 3
    return tuple(perm)


def dual_weight(t: LieType, w: Weight) -> Weight:
    _check_shape(t, w)
    perm = duality_involution(t)
    coords = [0] * t.rank
    for i, c in enumerate(w.coords):
        coords[perm[i] - 1] = c
    return Weight(tuple(coords))


def two_rho_coroot_pairing(t: LieType, w: Weight) -> int:
    """<w, 2 rho-check> = sum over positive roots of <w, alpha-check>."""
    _check_shape(t, w)
    v = ambient_weight(t, w)
    total = sum(_pair_with_coroot(v, a) for a in positive_roots(t))
    assert total.denominator == 1
    return int(total)


def form_class(t: LieType, w: Weight) -> FormClass:
    """Duality class via the Frobenius-Schur parity.

    Non-self-dual iff the duality involution moves w; otherwise orthogonal
    for even <w, 2 rho-check> and symplectic for odd.
    """
    _check_weight(t, w)
    if dual_weight(t, w) != w:
        return FormClass.NON_SELF_DUAL
    if two_rho_coroot_pairing(t, w) % 2 == 0:
        return FormClass.ORTHOGONAL
    return FormClass.SYMPLECTIC


def reflect(t: LieType, v: Vector, i: int) -> Vector:
    """Simple reflection s_i applied to an ambient vector (i is 1-based)."""
    alpha = simple_roots(t)[i - 1]
    c = _pair_with_coroot(v, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


def coroot_pairings(t: LieType, w: Weight) -> tuple[Fraction, ...]:
    """<w, alpha-check> over all positive roots, in enumeration order."""
    v = ambient_weight(t, w)
    return tuple(_pair_with_coroot(v, a) for a in positive_roots(t))
