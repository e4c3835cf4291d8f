"""Seeded exact models of split semistable monodromy.

An instance lives on a 2g-dimensional symplectic space and records the
inertia invariants V^I (dim 2g - r), the toric subspace W inside it
(dim r), a lift T of V / V^I (dim r), and the log tau = N - I of a
unipotent monodromy N: tau is quadratic of rank r with tau(V^I) = 0 and
tau: T -> W an isomorphism.  The record holds tau, which every verifier
reads; N = I + tau is formed only where a key cannot be read off tau.
Instances are built in an adapted symplectic basis and conjugated by a
seeded integer symplectic element, so every entry stays an exact integer
and runs reproduce bit for bit.  Each seeded matrix takes its entries from
one byte string of the seeded generator, with no rank test and no retry
loop but the rare redraw of a rejected byte (``_uniform_entries``).  A is
drawn unit upper triangular; S = A^T A is the monodromy pairing
Theta(tau t, t') on T, not a factor the build forms (tau = Y^T (Y Theta)
with Y = A W).  S is symmetric, definite and of determinant 1, as the
monodromy pairing of a polarized abelian variety is definite (SGA 7 I,
Exp. IX, section 10); the paper needs only S symmetric and invertible,
so the definiteness is beyond it.

Each invariant is checked once, by a verifier.  SpecializationInstance is
a record whose toric rank r is the row count of W: on construction it
checks only 1 <= r <= g and the row counts 2g - r of V^I and r of T that
the verifiers index by, so a defective instance still builds and its
defects show as False keys of verify_instance.  Each instance computes,
once and only when a verifier asks, its basis images (tau of each V^I and
T basis row), its Gram matrix (the form on the rows of V^I, T and W) and
its rank facts: rank V^I = 2g - r, rank W = r and W in V^I, certified by
blocks of the Gram matrix where their premises hold
(SpecializationInstance._rank_facts gives the argument) and decided by an
exact rank otherwise.  Once those facts hold and W pairs to zero with
V^I, one r x 2g product of tau(T) with the rows of V^I + T times the form
decides the filtration (verify_filtration gives the argument).  The named
theorems are *verified*, not assumed:
invariant_dim (rank V^I = 2g - r), verify_orthogonality (W = (V^I)-perp),
verify_filtration (the flag; tau kills V^I and maps T onto W),
is_form_compatible (tau in sp), and in verify_instance tau^2 = 0 and the
rank of tau, read off the filtration when it holds, and N in Sp, read off
form compatibility when tau^2 = 0; each is computed by its own product or
rank otherwise.  The verifiers take any SymplecticSpace form and never
read the construction, so a construction shortcut cannot vouch for
itself.  Every check is a statement about integer products and Bareiss
ranks, so nothing here needs rational elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from operator import add

from . import linalg
from .linalg import Matrix

_ENTRY_BOUND = 9
_MAX_GENUS = 64


@dataclass(frozen=True)
class SymplecticSpace:
    """Q^dim with a nondegenerate alternating form, a matrix of dim rows."""

    form: Matrix

    @property
    def dim(self) -> int:
        return len(self.form)

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError("symplectic spaces have positive even dimension")
        if any(len(r) != self.dim for r in self.form):
            raise ValueError("form matrix has wrong shape")
        mt = linalg.transpose(self.form)
        if any(a != -b for row_a, row_b in zip(self.form, mt) for a, b in zip(row_a, row_b)):
            raise ValueError("form must be alternating")
        if linalg.rank(self.form) != self.dim:
            raise ValueError("form must be nondegenerate")


@dataclass(frozen=True)
class SpecializationInstance:
    """One seeded monodromy model; see the module docstring for the roles.

    Construction checks only the shape the verifiers index by; every rank
    and product is a verifier's, so dataclasses.replace runs none.
    """

    space: SymplecticSpace
    inertia_invariants: Matrix  # rows span V^I
    toric_sub: Matrix           # rows span W
    lift: Matrix                # rows span T
    tau: Matrix                 # N - I

    @property
    def toric_rank(self) -> int:
        return len(self.toric_sub)

    def __post_init__(self):
        n, r = self.space.dim, self.toric_rank
        if not 1 <= r <= n // 2:
            raise ValueError("toric rank must satisfy 1 <= r <= g")
        if len(self.inertia_invariants) != n - r:
            raise ValueError("V^I must have dimension 2g - r")
        if len(self.lift) != r:
            raise ValueError("T must have dimension r")

    @cached_property
    def basis_images(self) -> Matrix:
        """tau(v) for each row v of V^I, then of T, computed once per
        instance."""
        return linalg.mat_mul(self.inertia_invariants + self.lift,
                              linalg.transpose(self.tau))

    @cached_property
    def _rows_by_form(self) -> Matrix:
        """R Theta over the rows R of V^I, T and W, in that order, computed
        once per instance; on a monomial form the product takes its
        permutation path."""
        return linalg.mat_mul(self.inertia_invariants + self.lift + self.toric_sub,
                              self.space.form)

    @cached_property
    def _gram(self) -> Matrix:
        """The Gram matrix G: Theta(b, b') over the rows b, b' of V^I, T and
        W, in that order, computed once per instance as (R Theta) R^T."""
        rows = self.inertia_invariants + self.lift + self.toric_sub
        return linalg.mat_mul(self._rows_by_form, linalg.transpose(rows))

    @cached_property
    def _orthogonal(self) -> bool:
        """Does W pair to zero with V^I?  Is the W x V^I block of G 0?  The
        rank facts and both verifiers of the pairing read it."""
        n, r = self.space.dim, self.toric_rank
        return not any(any(row[:n - r]) for row in self._gram[n:])

    @cached_property
    def _rank_facts(self) -> tuple[bool, bool, bool]:
        """rank V^I = 2g - r; rank W = r; W in V^I.

        Blocks of the Gram matrix certify all three.  The 2g rows B of
        V^I + T have the block G = B Theta B^T, and det G = det(B)^2 det
        Theta with Theta nondegenerate; so G monomial (one nonzero entry in
        each row and column, ``linalg.monomial_columns``) makes B
        nonsingular, and rank V^I = 2g - r.  The W x T block W Theta T^T
        has rank at most rank W, so a monomial one gives rank W = r; W
        pairing to zero with V^I then makes W the complement (V^I)-perp, of
        dimension r, and V^I = W-perp, so W lies in V^I exactly when the
        W x W block is 0.  Once V^I + T is a basis, (V^I)-perp pairs
        perfectly with T, so the W x T block of W = (V^I)-perp is
        nonsingular; on every built instance it and G are the form in the
        adapted basis, signed permutations, in any coordinates.  Where a
        premise fails, one prefix-rank pass over V^I + W decides (W lies in
        V^I when it adds no rank to V^I), with an exact rank of W.
        """
        n, r = self.space.dim, self.toric_rank
        gram = self._gram
        blocks = tuple(row[:n] for row in gram[:n]), tuple(row[n - r:n] for row in gram[n:])
        if self._orthogonal and None not in map(linalg.monomial_columns, blocks):
            return True, True, not any(any(row[n:]) for row in gram[n:])
        ranks = linalg.prefix_ranks(self.inertia_invariants + self.toric_sub)
        return (ranks[n - r - 1] == n - r, linalg.rank(self.toric_sub) == r,
                ranks[-1] == ranks[n - r - 1])


def standard_symplectic_form(g: int) -> Matrix:
    """Theta(e_i, f_j) = delta_ij on the ordered basis e_1..e_g, f_1..f_g."""
    n = 2 * g
    return tuple(tuple((j == i + g) - (i == j + g) for j in range(n)) for i in range(n))


@cache
def _standard_space(g: int) -> SymplecticSpace:
    """The standard space of genus g, validated once and shared by every
    instance of that genus."""
    return SymplecticSpace(standard_symplectic_form(g))


def _byte_table(bound: int) -> tuple[tuple[int, ...], bytes]:
    """The entry of each byte b, b mod (2 bound + 1) - bound in [-bound,
    bound], and the bytes to reject: the bytes below the largest multiple
    of 2 bound + 1 that is at most 256 hit every value equally often, and
    the rest (the 9 bytes from 247 for bound 9, byte 255 for bound 1) are
    dropped, so each entry stays uniform."""
    values = 2 * bound + 1
    return (tuple(b % values - bound for b in range(256)),
            bytes(range(256 - 256 % values, 256)))


# built once at import: a table built per draw costs more than the draw
_BYTE_TABLES = {bound: _byte_table(bound) for bound in (1, _ENTRY_BOUND)}


def _uniform_entries(count: int, bound: int, rng: random.Random) -> list[int]:
    """count entries drawn uniformly from [-bound, bound], read off rng's
    bytes through ``_BYTE_TABLES``; a rejected byte is drawn again."""
    table, rejected = _BYTE_TABLES[bound]
    raw = b""
    while len(raw) < count:
        raw += rng.randbytes(count - len(raw)).translate(None, rejected)
    return list(map(table.__getitem__, raw))


def _random_symmetric(n: int, rng: random.Random) -> Matrix:
    """A symmetric n x n matrix whose upper triangle, read row by row, is
    one draw of uniform entries in [-9, 9]."""
    upper = _uniform_entries(n * (n + 1) // 2, _ENTRY_BOUND, rng)
    rows: list[list[int]] = []
    start = 0
    for i in range(n):
        # left of the diagonal, row i repeats column i of the rows above
        row = [above[i] for above in rows]
        row += upper[start:start + n - i]
        rows.append(row)
        start += n - i
    return tuple(map(tuple, rows))


def _unit_upper(r: int, rng: random.Random) -> Matrix:
    """A unit upper triangular r x r A, its entries above the diagonal
    drawn uniformly from {-1, 0, 1}.

    For S = A^T A, det S = det(A)^2 = 1 and x^T S x = |Ax|^2 > 0 for
    x != 0, so S is symmetric positive definite.  S_jk sums A_ij A_ik over
    i <= min(j, k), so |S_jk| <= min(j, k) + 1 <= r (0-based j, k).
    """
    upper = iter(_uniform_entries(r * (r - 1) // 2, 1, rng))
    return tuple(tuple(0 if j < i else 1 if j == i else next(upper) for j in range(r))
                 for i in range(r))


def random_symplectic(g: int, rng: random.Random) -> Matrix:
    """A seeded integer element of Sp_2g for the standard form.

    M = [[I, B], [0, I]] [[I, 0], [C, I]] [[I, D], [0, I]] with B, C and D
    symmetric, so each shear is in Sp_2g and no factor is inverted;
    multiplied out by g x g blocks, M = [[P, PD + B], [C, X]] with
    P = I + BC and X = CD + I.  As PD + B = D + BX, the top half is
    [I | D] + B [C | X], so two products form M.  With entries of B, C, D
    at most 9 in absolute value, every entry of M is at most 729 g^2 + 18
    (the top right block; the others are at most 81 g + 1).
    """
    b, c, d = (_random_symmetric(g, rng) for _ in range(3))
    bottom = tuple(rc + rx[:i] + (rx[i] + 1,) + rx[i + 1:]
                   for i, (rc, rx) in enumerate(zip(c, linalg.mat_mul(c, d))))
    top = tuple(rb[:i] + (rb[i] + 1,) + rb[i + 1:g] + tuple(map(add, rb[g:], rd))
                for i, (rb, rd) in enumerate(zip(linalg.mat_mul(b, bottom), d)))
    return top + bottom


def build_instance(g: int, r: int, seed: int) -> SpecializationInstance:
    """Deterministic instance for the given genus, toric rank and seed.

    The genus is at most _MAX_GENUS = 64, checked before any draw: one
    instance at the bound takes seconds, and the cost grows as g^3, so an
    extreme genus fails at once instead of running for hours.  A is drawn
    (``_unit_upper``); S = A^T A is the pairing, not a factor the build
    forms, and is definite of determinant 1, so no draw is rank-tested.
    """
    if not 1 <= r <= g:
        raise ValueError("need 1 <= r <= g")
    if g > _MAX_GENUS:
        raise ValueError(f"need g <= {_MAX_GENUS}")
    rng = random.Random(seed)
    space = _standard_space(g)

    # adapted picture: W = <e_1..e_r>, V^I = <e_1..e_g, f_{r+1}..f_g>,
    # T = <f_1..f_r>, tau(f_j) = sum_i S_ij e_i with S = A^T A, definite,
    # det 1 (symmetry makes N symplectic, det 1 makes tau: T -> W iso)
    a = _unit_upper(r, rng)
    images = linalg.transpose(random_symplectic(g, rng))
    # images are conj e_1..conj e_g, conj f_1..conj f_g
    w_basis = images[:r]
    # conjugated, tau = W^T S (W Theta) = Y^T (Y Theta) with Y = A W; the
    # standard form gives y Theta = (-y[g:], y[:g]) for a row y
    y = linalg.mat_mul(a, w_basis)
    y_theta = tuple(tuple(-x for x in row[g:]) + row[:g] for row in y)
    return SpecializationInstance(
        space=space,
        inertia_invariants=images[:g] + images[g + r:],
        toric_sub=w_basis,
        lift=images[g:g + r],
        tau=linalg.mat_mul(linalg.transpose(y), y_theta),
    )


def verify_orthogonality(inst: SpecializationInstance) -> bool:
    """Does W equal the form-orthogonal complement of V^I?

    W pairs to zero with V^I, so it lies in the complement, whose dimension
    is 2g - rank V^I.  With rank V^I = 2g - r that is r, and rank W = r
    makes the inclusion an equality.  The pairing is the W x V^I block of
    the instance's Gram matrix, read before any rank; the rank facts
    (SpecializationInstance._rank_facts) are read only once it vanishes,
    so a W that pairs with V^I costs the two Gram products alone.
    """
    return inst._orthogonal and all(inst._rank_facts[:2])


def verify_filtration(inst: SpecializationInstance) -> bool:
    """The flag W in V^I in V = V^I + T, with rank W = r; tau kills V^I and
    restricts to an iso T -> W of rank r.

    The instance's basis images are tau(v) for the V^I rows and then the r
    T rows.  V = V^I + T is not checked, because the other clauses imply
    it: a vector t of span T inside V^I has tau(t) = 0, and rank tau(T) = r
    makes tau injective on span T, so t = 0; with rank V^I = 2g - r,
    V = V^I (+) T.  Hence, once the rank facts hold and the V^I images are
    zero, the T images tau(T) span the image of tau, and the flag holds
    exactly when tau(T) lies in W and has rank r.

    Where W also pairs to zero with V^I, W is (V^I)-perp
    (verify_orthogonality), so tau(T) lies in W exactly when it pairs to
    zero with V^I.  One r x 2g product P = tau(T) (R Theta)^T over the
    instance's cached R Theta, with P_ij = Theta(b_j, tau t_i) for the rows
    b_j of V^I + T, decides both: its V^I columns are 0 exactly when tau(T)
    lies in W, and given that, its r x r T block has rank r exactly when
    tau(T) has.  A block of rank r makes the r rows of tau(T) independent.
    Conversely, rank tau(T) = r gives V = V^I (+) T as above, so the
    annihilator W of V^I, of dimension r = dim V / V^I, pairs perfectly
    with T; tau(T), then a basis of W, gives a nonsingular block.  On a
    built instance the block is -S, definite of determinant 1.

    Where W does not pair to zero with V^I, one prefix-rank pass over
    tau(T) + W gives rank tau(T) and rank(tau(T) + W): with rank W = r,
    both of rank r put the image inside W, and tau(T) of rank r makes T
    map onto W and tau itself of rank r.
    """
    images, n, r = inst.basis_images, inst.space.dim, inst.toric_rank
    if not (all(inst._rank_facts) and linalg.is_zero_matrix(images[:-r])):
        return False
    if inst._orthogonal:
        pairing = linalg.mat_mul(images[-r:], linalg.transpose(inst._rows_by_form[:n]))
        return (not any(any(row[:n - r]) for row in pairing)
                and linalg.rank(tuple(row[n - r:] for row in pairing)) == r)
    ranks = linalg.prefix_ranks(images[-r:] + inst.toric_sub)
    return ranks[r - 1] == r and ranks[-1] == r


def is_form_compatible(inst: SpecializationInstance) -> bool:
    """tau lies in the symplectic algebra: tau^T Theta + Theta tau = 0.

    Theta^T = -Theta (SymplecticSpace enforces it) makes the transpose of
    tau^T Theta equal to Theta^T tau = -Theta tau, so the condition says
    tau^T Theta is symmetric.  Theta stands on the right, as in every form
    product here, so a monomial form takes the product's permutation path.
    """
    tau_theta = linalg.mat_mul(linalg.transpose(inst.tau), inst.space.form)
    return tau_theta == linalg.transpose(tau_theta)


def verify_instance(inst: SpecializationInstance) -> dict[str, bool]:
    """All verified invariants by name (used by the CLI and the sweeps).

    invariant_dim is rank V^I = 2g - r, a rank fact that the Gram matrix
    certifies or a rank decides (SpecializationInstance._rank_facts).  Three keys are read off
    others that imply them, and computed by their own product or rank
    otherwise.  The filtration gives tau^2 = 0 (tau(V) = tau(T) lies in W,
    inside V^I = ker tau) and image tau = tau(T) of rank r.  With
    tau^2 = 0, N^-1 = I - tau, so N^T Theta N = Theta, i.e.
    N^T Theta = Theta N^-1, reads Theta + tau^T Theta = Theta - Theta tau,
    which is tau^T Theta + Theta tau = 0: monodromy_symplectic is
    form_compatible restated.  Otherwise N = I + tau is formed and
    N^T Theta N compared with Theta.
    """
    filtration = verify_filtration(inst)
    tau, form = inst.tau, inst.space.form
    square_zero = filtration or linalg.is_zero_matrix(linalg.mat_mul(tau, tau))
    form_compatible = is_form_compatible(inst)
    if square_zero:
        symplectic = form_compatible
    else:
        n_mat = tuple(row[:i] + (row[i] + 1,) + row[i + 1:] for i, row in enumerate(tau))
        symplectic = linalg.mat_mul(linalg.mat_mul(linalg.transpose(n_mat), form), n_mat) == form
    return {
        "tau_square_zero": square_zero,
        "tau_rank_r": filtration or linalg.rank(tau) == inst.toric_rank,
        "invariant_dim": inst._rank_facts[0],
        "orthogonality": verify_orthogonality(inst),
        "filtration": filtration,
        "form_compatible": form_compatible,
        "monodromy_symplectic": symplectic,
    }
