"""Seeded exact models of split semistable monodromy.

An instance lives on a 2g-dimensional symplectic space and records the
inertia invariants V^I (dim 2g - r), the toric subspace W inside it
(dim r), a lift T with V = V^I + T, and a unipotent monodromy N whose log
tau = N - I is quadratic of rank r with tau(V^I) = 0 and tau: T -> W an
isomorphism.  Instances are built in an adapted symplectic basis and
conjugated by a seeded integer symplectic element, so every entry stays an
exact integer and runs reproduce bit for bit.

Each invariant is stated once.  SpecializationInstance enforces the shape
on construction: the dimensions 2g - r and r, independent bases, W inside
V^I, V = V^I + T and tau^2 = 0; the ranks of V^I, V^I + W and
V^I + W + T come from one prefix-rank pass, and tau and its basis images
(tau of each V^I and T basis row) are computed once per instance; tau^2 = 0
is read off those images.  The named theorems are *verified*, not assumed:
verify_orthogonality (W = (V^I)-perp), verify_filtration (tau kills V^I,
maps into W, T -> W onto), is_form_compatible (tau in sp, which with
tau^2 = 0 is N in Sp) and the rank of tau in verify_instance.  The
verifiers take any SymplecticSpace form and never read the construction,
so a construction shortcut cannot vouch for itself.  Every check is a
statement about integer products and Bareiss ranks, so nothing here needs
rational elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property

from . import linalg
from .linalg import Matrix

_ENTRY_BOUND = 9
_MAX_GENUS = 64


@dataclass(frozen=True)
class SymplecticSpace:
    """Q^dim with a nondegenerate alternating form (given as a matrix)."""

    dim: int
    form: Matrix

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError("symplectic spaces have positive even dimension")
        if len(self.form) != self.dim or any(len(r) != self.dim for r in self.form):
            raise ValueError("form matrix has wrong shape")
        mt = linalg.transpose(self.form)
        if any(a != -b for row_a, row_b in zip(self.form, mt) for a, b in zip(row_a, row_b)):
            raise ValueError("form must be alternating")
        if linalg.rank(self.form) != self.dim:
            raise ValueError("form must be nondegenerate")


@dataclass(frozen=True)
class SpecializationInstance:
    """One seeded monodromy model; see the module docstring for the roles."""

    space: SymplecticSpace
    inertia_invariants: Matrix  # rows span V^I
    toric_sub: Matrix           # rows span W
    lift: Matrix                # rows span T
    monodromy: Matrix           # N
    toric_rank: int

    def __post_init__(self):
        n, r = self.space.dim, self.toric_rank
        if not 1 <= r <= n // 2:
            raise ValueError("toric rank must satisfy 1 <= r <= g")
        if len(self.inertia_invariants) != n - r:
            raise ValueError("V^I must have dimension 2g - r")
        if len(self.toric_sub) != r or len(self.lift) != r:
            raise ValueError("W and T must have dimension r")
        vi, w, t = self.inertia_invariants, self.toric_sub, self.lift
        # rank V^I, rank V^I + W and rank V^I + W + T from one elimination.
        # With W in the span of V^I the full rank is rank(V^I + T), and
        # 2g - r rows of V^I and r rows of T of rank 2g are independent, so a
        # complementary pair needs only W's rank.  With W outside V^I an
        # error below is certain, and checking every basis in order raises
        # the first one.
        ranks = linalg.prefix_ranks(vi + w + t)
        vi_rank = ranks[n - r - 1]
        complementary = ranks[n - 1] == vi_rank and ranks[-1] == n
        if vi_rank != n - r:
            raise ValueError("basis of V^I is not independent")
        for name, basis in (("W", w),) if complementary else (("W", w), ("T", t)):
            if linalg.rank(basis) != len(basis):
                raise ValueError(f"basis of {name} is not independent")
        if ranks[n - 1] != n - r:
            raise ValueError("W must lie inside V^I")
        if not complementary:
            raise ValueError("V^I and T must be complementary")
        # V^I + T is a basis by now, so tau^2 = 0 exactly when tau kills the
        # image of every basis row; only the nonzero images need a product
        nonzero = [x for x in self.basis_images if any(x)]
        if not linalg.is_zero_matrix(
                linalg.mat_mul(nonzero, linalg.transpose(self.log_matrix))):
            raise ValueError("N - I must square to zero")

    @cached_property
    def log_matrix(self) -> Matrix:
        """tau = N - I, computed once per instance."""
        return linalg.mat_sub(self.monodromy, linalg.identity(self.space.dim))

    @cached_property
    def basis_images(self) -> Matrix:
        """tau(v) for each row v of V^I, then of T, computed once per
        instance."""
        return linalg.mat_mul(self.inertia_invariants + self.lift,
                              linalg.transpose(self.log_matrix))


def standard_symplectic_form(g: int) -> Matrix:
    """Theta(e_i, f_j) = delta_ij on the ordered basis e_1..e_g, f_1..f_g."""
    n = 2 * g
    rows = []
    for i in range(n):
        row = [0] * n
        if i < g:
            row[g + i] = 1
        else:
            row[i - g] = -1
        rows.append(tuple(row))
    return tuple(rows)


@cache
def _standard_space(g: int) -> SymplecticSpace:
    """The standard space of genus g, validated once and shared by every
    instance of that genus."""
    return SymplecticSpace(2 * g, standard_symplectic_form(g))


def _random_symmetric(n: int, rng: random.Random, invertible: bool) -> Matrix:
    while True:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND)
        m = tuple(tuple(row) for row in entries)
        if not invertible or linalg.rank(m) == n:
            return m


def _block(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Matrix:
    top = [tuple(ra) + tuple(rb) for ra, rb in zip(a, b)]
    bottom = [tuple(rc) + tuple(rd) for rc, rd in zip(c, d)]
    return tuple(top + bottom)


def random_symplectic(g: int, rng: random.Random) -> Matrix:
    """A seeded integer element of Sp_2g for the standard form.

    M = [[I, B], [0, I]] [[I, 0], [C, I]] [[I, D], [0, I]] with B, C and D
    symmetric, so each shear is in Sp_2g and no factor is inverted;
    multiplied out by g x g blocks, M = [[P, PD + B], [C, CD + I]] with
    P = I + BC.  With entries of B, C, D at most 9 in absolute value, every
    entry of M is at most 729 g^2 + 18 (the top right block; the others
    are at most 81 g + 1).
    """
    b, c, d = (_random_symmetric(g, rng, invertible=False) for _ in range(3))
    eye = linalg.identity(g)
    p = tuple(map(linalg.vec_add, eye, linalg.mat_mul(b, c)))
    return _block(p, tuple(map(linalg.vec_add, linalg.mat_mul(p, d), b)), c,
                  tuple(map(linalg.vec_add, linalg.mat_mul(c, d), eye)))


def build_instance(g: int, r: int, seed: int) -> SpecializationInstance:
    """Deterministic instance for the given genus, toric rank and seed.

    The genus is at most _MAX_GENUS = 64, checked before any draw: one
    instance at the bound takes seconds, and the cost grows as g^3, so an
    extreme genus fails at once instead of running for hours.
    """
    if not 1 <= r <= g:
        raise ValueError("need 1 <= r <= g")
    if g > _MAX_GENUS:
        raise ValueError(f"need g <= {_MAX_GENUS}")
    rng = random.Random(seed)
    space = _standard_space(g)

    # adapted picture: W = <e_1..e_r>, V^I = <e_1..e_g, f_{r+1}..f_g>,
    # T = <f_1..f_r>, tau(f_j) = sum_i S_ij e_i with S symmetric invertible
    # (symmetry makes N symplectic, invertibility makes tau: T -> W iso)
    s_block = _random_symmetric(r, rng, invertible=True)
    images = linalg.transpose(random_symplectic(g, rng))
    # images are conj e_1..conj e_g, conj f_1..conj f_g
    w_basis = images[:r]
    # conjugated, tau = sum_ij S_ij (conj e_i) (x) Theta(conj e_j, .); the
    # standard form gives x Theta = (-x[g:], x[:g]) for a row x
    duals = tuple(tuple(-x for x in w[g:]) + w[:g] for w in w_basis)
    tau = linalg.mat_mul(linalg.mat_mul(linalg.transpose(w_basis), s_block), duals)
    monodromy = tuple(map(linalg.vec_add, tau, linalg.identity(2 * g)))
    return SpecializationInstance(
        space=space,
        inertia_invariants=images[:g] + images[g + r:],
        toric_sub=w_basis,
        lift=images[g:g + r],
        monodromy=monodromy,
        toric_rank=r,
    )


def verify_orthogonality(inst: SpecializationInstance) -> bool:
    """Does W equal the form-orthogonal complement of V^I?

    W pairs to zero with V^I, so it lies in the complement, whose dimension
    is 2g - dim V^I = r.  The instance invariants make W and V^I independent
    bases of sizes r and 2g - r, so dim W = r and the inclusion is an
    equality.
    """
    vi, w = inst.inertia_invariants, inst.toric_sub
    pairing = linalg.mat_mul(linalg.mat_mul(w, inst.space.form), linalg.transpose(vi))
    return linalg.is_zero_matrix(pairing)


def verify_filtration(inst: SpecializationInstance) -> bool:
    """tau kills V^I, maps into W, and restricts to an iso T -> W of rank r.

    The instance's basis images are tau(v) for the V^I rows and then the r
    T rows, a product of the instance's own fields.  Once the V^I images
    are zero, the instance invariant V = V^I + T makes the T images tau(T)
    span the image of tau.  One prefix-rank pass over tau(T) + W gives
    rank tau(T) and rank(tau(T) + W).  The instance invariants make the
    rows of W an independent basis of size r, so dim W = r; tau(T) and W
    together have rank r, so the image lies in W; tau(T) has rank r, so T
    maps onto W and tau itself has rank r.
    """
    images, r = inst.basis_images, inst.toric_rank
    if not linalg.is_zero_matrix(images[:-r]):
        return False
    ranks = linalg.prefix_ranks(images[-r:] + inst.toric_sub)
    return ranks[r - 1] == r and ranks[-1] == r


def is_form_compatible(inst: SpecializationInstance) -> bool:
    """tau lies in the symplectic algebra: tau^T Theta + Theta tau = 0.

    Theta^T = -Theta (SymplecticSpace enforces it) makes tau^T Theta equal
    to -(Theta tau)^T, so the condition says Theta tau is symmetric.
    """
    theta_tau = linalg.mat_mul(inst.space.form, inst.log_matrix)
    return theta_tau == linalg.transpose(theta_tau)


def verify_instance(inst: SpecializationInstance) -> dict[str, bool]:
    """All verified invariants by name (used by the CLI and the sweeps).

    tau_square_zero and invariant_dim (dim V^I = 2g - r) are enforced by
    SpecializationInstance on construction, so they read True on every
    instance; they are reported with the rest.  tau_rank_r needs its own
    rank only when the filtration fails: the filtration gives image tau =
    tau(T) of rank r.  monodromy_symplectic (N^T Theta N = Theta) is
    form_compatible restated: tau^2 = 0 gives N^-1 = I - tau, so
    N^T Theta N = Theta, i.e. N^T Theta = Theta N^-1, reads
    Theta + tau^T Theta = Theta - Theta tau, which is
    tau^T Theta + Theta tau = 0.
    """
    filtration = verify_filtration(inst)
    form_compatible = is_form_compatible(inst)
    return {
        "tau_square_zero": True,
        "tau_rank_r": (filtration
                       or linalg.rank(inst.log_matrix) == inst.toric_rank),
        "invariant_dim": True,
        "orthogonality": verify_orthogonality(inst),
        "filtration": filtration,
        "form_compatible": form_compatible,
        "monodromy_symplectic": form_compatible,
    }
