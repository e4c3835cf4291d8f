"""Monodromy-model tests.

The builder only guarantees the structural shape of an instance, so the
positive sweeps assert that every named invariant actually verifies; the
negative controls construct shape-valid instances that must fail the
orthogonality and filtration checks, and one targeted defect per remaining
verifier (form compatibility, N in Sp, filtration, the image clause of the
filtration, rank of tau) must turn that verifier's key False, pinning down
that the verifiers test the theorems and not the construction path.
Instances moved to a non-standard form by a unimodular change of
coordinates must verify alike and fail the same defects.  The
product-and-rank verifiers are compared against the nullspace and span
formulations kept in helpers_oracles, the N-in-Sp key (read off form
compatibility) against N^T Theta N = Theta by full products, the
construction errors against their old rank-based order, and a digest pins
every seeded instance bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import fields, replace

import pytest

from helpers_oracles import (filtration_by_spans, instance_error_by_ranks,
                             mat_add, mat_vec, orthogonality_by_nullspace,
                             preserves_form, symplectic_complement,
                             symplectic_inverse)
from mtcheck import linalg
from mtcheck.monodromy import (SpecializationInstance, SymplecticSpace,
                               build_instance, is_form_compatible,
                               random_symplectic, standard_symplectic_form,
                               verify_filtration, verify_instance,
                               verify_orthogonality)


def test_standard_form_pairing():
    # form[i][j] is Theta(b_i, b_j) on the basis e_1..e_g, f_1..f_g
    g = 3
    form = SymplecticSpace(2 * g, standard_symplectic_form(g)).form
    for i in range(g):
        for j in range(g):
            assert form[i][g + j] == (1 if i == j else 0)
            assert form[g + j][i] == (-1 if i == j else 0)
            assert form[i][j] == 0
            assert form[g + i][g + j] == 0


def test_symplectic_space_validation():
    with pytest.raises(ValueError, match="even dimension"):
        SymplecticSpace(3, ((0,) * 3,) * 3)
    with pytest.raises(ValueError, match="wrong shape"):
        SymplecticSpace(4, standard_symplectic_form(1))
    with pytest.raises(ValueError, match="wrong shape"):
        SymplecticSpace(4, standard_symplectic_form(2)[:3])  # rows of length 4
    short_row = standard_symplectic_form(2)[:3] + ((0, -1, 0),)
    with pytest.raises(ValueError, match="wrong shape"):
        SymplecticSpace(4, short_row)  # 4 rows, one of length 3
    with pytest.raises(ValueError, match="alternating"):
        SymplecticSpace(2, ((1, 0), (0, 1)))
    degenerate = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="nondegenerate"):
        SymplecticSpace(4, degenerate)


def test_random_symplectic_preserves_form():
    # g = 7 and 12 reach criterion-7 sizes, where the g x g block product
    # and the signed-transpose inverse meet generic entries; g = 40 is far
    # past them
    for g in (1, 2, 4, 7, 12, 40):
        rng = random.Random(2024 + g)
        theta = standard_symplectic_form(g)
        m = random_symplectic(g, rng)
        assert linalg.mat_mul(m, symplectic_inverse(m)) == linalg.identity(2 * g)
        lhs = linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(theta, m))
        assert linalg.is_zero_matrix(linalg.mat_sub(lhs, theta))
        assert all(isinstance(x, int) for row in m for x in row)


def test_random_symplectic_entries_stay_polynomial_in_g():
    # B, C, D have entries at most 9, so the top right block PD + B =
    # D + BCD + B is at most 729 g^2 + 18 and the rest at most 81 g + 1;
    # every later product and rank pays for the size of these entries
    for g in (1, 2, 7, 12, 40, 64):
        for seed in range(3):
            m = random_symplectic(g, random.Random(seed))
            assert max(abs(x) for row in m for x in row) <= 729 * g * g + 18


@pytest.mark.parametrize("g, r, seed", [(4, 2, 7), (8, 5, 123)])
def test_build_instance_examples(g, r, seed):
    inst = build_instance(g, r, seed)
    results = verify_instance(inst)
    assert set(results) == {
        "tau_square_zero", "tau_rank_r", "invariant_dim", "orthogonality",
        "filtration", "form_compatible", "monodromy_symplectic",
    }
    assert all(results.values()), results


def test_build_instance_sweep():
    for g, r in ((1, 1), (2, 1), (2, 2), (3, 2), (5, 3)):
        for seed in range(8):
            inst = build_instance(g, r, seed)
            assert all(verify_instance(inst).values()), (g, r, seed)


def test_build_instance_is_deterministic():
    assert build_instance(4, 2, 7) == build_instance(4, 2, 7)
    assert build_instance(4, 2, 0).monodromy != build_instance(4, 2, 1).monodromy


def test_build_instance_digest():
    # pins every entry (and its int type, through repr) of these instances
    h = hashlib.sha256()
    for g in range(1, 7):
        for r in range(1, g + 1):
            for seed in range(5):
                inst = build_instance(g, r, seed)
                h.update(repr((g, r, seed, inst.inertia_invariants, inst.toric_sub,
                               inst.lift, inst.monodromy)).encode())
    assert h.hexdigest() == (
        "02a96371aa075dc4a396ebbc5c0a5ec1e199016adeaac3d5bdfb0b2f35b1eafe")


def test_build_instance_bounds(monkeypatch):
    with pytest.raises(ValueError, match="1 <= r <= g"):
        build_instance(3, 0, 1)
    with pytest.raises(ValueError, match="1 <= r <= g"):
        build_instance(3, 4, 1)
    with pytest.raises(ValueError, match="g <= 64"):
        build_instance(65, 1, 0)
    # the genus bound itself is accepted; a lowered bound keeps this cheap
    monkeypatch.setattr("mtcheck.monodromy._MAX_GENUS", 3)
    assert build_instance(3, 1, 0).space.dim == 6
    with pytest.raises(ValueError, match="need g <= 3"):
        build_instance(4, 1, 0)


def _perturb_toric(inst: SpecializationInstance) -> SpecializationInstance:
    """Replace W by a shape-valid subspace of V^I that differs from it.

    Adding the last V^I basis vector (an image of some f_k, k > r, hence
    outside W) to w_1 keeps the rows independent and inside V^I but moves
    the span, so the instance still constructs while the orthogonality
    theorem must now fail.  Requires r < g.
    """
    outside = inst.inertia_invariants[-1]
    first = tuple(a + b for a, b in zip(inst.toric_sub[0], outside))
    return replace(inst, toric_sub=(first,) + inst.toric_sub[1:])


def _leak_invariants(inst: SpecializationInstance) -> SpecializationInstance:
    """Add w_1 (x) Theta(u, .) to tau, u the last V^I basis vector.

    u lies in V^I = W-perp, so Theta(u, .) vanishes on W and on the image
    of tau: the new log still squares to zero and maps into W.  It no longer
    kills the V^I vectors that pair with u, so the filtration must fail.
    Requires r < g.
    """
    phi = mat_vec(linalg.transpose(inst.space.form), inst.inertia_invariants[-1])
    leaked = tuple(tuple(x + w * p for x, p in zip(row, phi))
                   for row, w in zip(inst.monodromy, inst.toric_sub[0]))
    return replace(inst, monodromy=leaked)


def _monodromy(inst: SpecializationInstance, images, duals):
    """N = I + sum_i images_i (x) Theta(duals_i, .); as a matrix,
    I + U^T . D . Theta with U and D the rows of images and duals."""
    tau = linalg.mat_mul(linalg.transpose(images),
                         linalg.mat_mul(duals, inst.space.form))
    return mat_add(linalg.identity(inst.space.dim), tau)


def _log_on(inst: SpecializationInstance, basis, block) -> SpecializationInstance:
    """Replace tau by sum_ij block[i][j] b_i (x) Theta(b_j, .) over the rows b
    of an isotropic basis (W or T).

    The basis is isotropic, so Theta(b_j, .) kills every b_i: the new log
    squares to zero and has image span(b).  For W it also kills V^I, the
    complement of W, and a symmetric invertible block then gives an honest
    monodromy; the defects below vary the block or the basis.
    """
    # the image paired with Theta(b_j, .) is sum_i block[i][j] b_i
    images = linalg.mat_mul(linalg.transpose(block), basis)
    return replace(inst, monodromy=_monodromy(inst, images, basis))


def _log_leaving_toric(inst: SpecializationInstance) -> SpecializationInstance:
    """Replace tau by sum_i u_i (x) Theta(w_i, .) with u_1 = w_1 + v, v the
    last V^I basis vector (outside W), and u_i = w_i otherwise.

    Theta(w_i, .) kills V^I = W-perp, which holds every u_j, so the new log
    squares to zero, kills V^I and maps T onto span(u) with rank r; only
    its image leaves W.  Requires r < g.
    """
    w = inst.toric_sub
    u = (linalg.vec_add(w[0], inst.inertia_invariants[-1]),) + w[1:]
    return replace(inst, monodromy=_monodromy(inst, u, w))


def _unit_block(r: int, extra: dict) -> tuple:
    return tuple(tuple(extra.get((i, j), 1 if i == j else 0) for j in range(r))
                 for i in range(r))


# Each defect passes __post_init__ (bases and tau^2 = 0) and must turn its
# own verify_instance key False.  Every other key named False as well is
# forced: N = I + tau with tau^2 = 0 has N^-1 = I - tau, so N preserves the
# form exactly when tau lies in sp, and form_compatible and
# monodromy_symplectic agree on every instance.
_DEFECTS = {
    # non-symmetric invertible block on W: tau leaves sp
    "form_compatible": (
        lambda inst: _log_on(inst, inst.toric_sub,
                             _unit_block(inst.toric_rank, {(0, 1): 1})),
        {"form_compatible", "monodromy_symplectic"}),
    # the leak adds w_1 (x) Theta(u, .), u in V^I outside W: N leaves Sp and
    # tau no longer kills V^I
    "monodromy_symplectic": (
        _leak_invariants,
        {"monodromy_symplectic", "form_compatible", "filtration"}),
    # an honest log on T instead of W: in sp, rank r, but tau(V^I) != 0 and
    # its image is T, not W
    "filtration": (
        lambda inst: _log_on(inst, inst.lift, _unit_block(inst.toric_rank, {})),
        {"filtration"}),
    # an image outside W, with V^I killed and T -> span(u) of rank r: only
    # the image clause of the filtration can see it, and tau leaves sp
    "filtration_image": (
        _log_leaving_toric,
        {"filtration", "form_compatible", "monodromy_symplectic"}),
    # symmetric block of rank r - 1 on W: T no longer maps onto W
    "tau_rank_r": (
        lambda inst: _log_on(inst, inst.toric_sub,
                             _unit_block(inst.toric_rank, {(0, 0): 0})),
        {"tau_rank_r", "filtration"}),
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_targeted_defects_fail_their_own_check(defect):
    build, failing = _DEFECTS[defect]
    for g in range(3, 7):
        for r in range(2, g):
            for seed in range(3):
                inst = build_instance(g, r, seed)
                # the honest log on W with the same block shape verifies
                honest = _log_on(inst, inst.toric_sub, _unit_block(r, {}))
                assert all(verify_instance(honest).values()), (g, r, seed)
                assert preserves_form(honest), (g, r, seed)
                bad = build(inst)
                results = verify_instance(bad)
                assert {k for k, ok in results.items() if not ok} == failing, (
                    defect, g, r, seed, results)
                # the key read off form_compatible agrees with N^T Theta N
                assert preserves_form(bad) is results["monodromy_symplectic"], (
                    defect, g, r, seed)


def _unimodular(n: int, rng: random.Random) -> tuple[linalg.Matrix, linalg.Matrix]:
    """A seeded integer P and its integer inverse: a product of 2n shears
    E = I + c e_ij (i != j, c = +-1), each inverted by I - c e_ij."""
    p = [list(row) for row in linalg.identity(n)]
    p_inv = [list(row) for row in linalg.identity(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- E P adds c times row j to row i; P^-1 <- P^-1 E^-1 subtracts
        # c times column i from column j
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return tuple(map(tuple, p)), tuple(map(tuple, p_inv))


def _move(inst: SpecializationInstance, p, p_inv) -> SpecializationInstance:
    """The instance in the coordinates x -> Px: the form becomes
    P^-T Theta P^-1, N becomes P N P^-1, and each basis row v becomes
    (Pv)^T = v P^T."""
    pt = linalg.transpose(p)
    form = linalg.mat_mul(linalg.transpose(p_inv), linalg.mat_mul(inst.space.form, p_inv))
    return SpecializationInstance(
        space=SymplecticSpace(inst.space.dim, form),
        inertia_invariants=linalg.mat_mul(inst.inertia_invariants, pt),
        toric_sub=linalg.mat_mul(inst.toric_sub, pt),
        lift=linalg.mat_mul(inst.lift, pt),
        monodromy=linalg.mat_mul(p, linalg.mat_mul(inst.monodromy, p_inv)),
        toric_rank=inst.toric_rank,
    )


def test_verifiers_on_a_non_standard_form():
    # the verifiers read inst.space.form; every instance above is built on
    # the standard form, so a verifier that assumed it would pass them all.
    # g starts at 2: the shears have determinant 1, and SL_2 = Sp_2.
    rng = random.Random(1729)
    for g in range(2, 7):
        for r in range(1, g + 1):
            for seed in range(2):
                inst = build_instance(g, r, seed)
                p, p_inv = _unimodular(2 * g, rng)
                assert linalg.mat_mul(p, p_inv) == linalg.identity(2 * g)
                moved = _move(inst, p, p_inv)
                label = (g, r, seed)
                assert moved.space.form != inst.space.form, label
                assert verify_instance(moved) == verify_instance(inst), label
                if not 2 <= r < g:
                    continue
                for defect, (build, failing) in _DEFECTS.items():
                    results = verify_instance(build(moved))
                    assert {k for k, ok in results.items() if not ok} == failing, (
                        defect, label, results)


def test_image_defect_fails_only_the_image_clause():
    for g in range(2, 8):
        for r in range(1, g):
            for seed in range(2):
                bad = _log_leaving_toric(build_instance(g, r, seed))
                tau_t = linalg.transpose(bad.log_matrix)
                label = (g, r, seed)
                # tau kills V^I and T maps onto an r-dimensional image ...
                assert linalg.is_zero_matrix(
                    linalg.mat_mul(bad.inertia_invariants, tau_t)), label
                assert linalg.rank(linalg.mat_mul(bad.lift, tau_t)) == r, label
                # ... which is not W
                assert linalg.rank(bad.toric_sub + tau_t) > r, label
                assert not verify_filtration(bad), label
                assert not filtration_by_spans(bad), label


def test_verifiers_agree_with_span_oracles():
    for g in range(1, 7):
        for r in range(1, g + 1):
            for seed in range(3):
                inst = build_instance(g, r, seed)
                trivial = replace(inst, monodromy=linalg.identity(2 * g))
                cases = [(inst, True, True), (trivial, True, False)]
                if r < g:
                    cases.append((_perturb_toric(inst), False, False))
                    cases.append((_leak_invariants(inst), True, False))
                for case, orthogonal, filtered in cases:
                    label = (g, r, seed, orthogonal, filtered)
                    assert verify_orthogonality(case) is orthogonal, label
                    assert orthogonality_by_nullspace(case) is orthogonal, label
                    assert verify_filtration(case) is filtered, label
                    assert filtration_by_spans(case) is filtered, label


def test_perturbed_toric_subspace_fails_orthogonality():
    for seed in range(100):
        inst = build_instance(3, 2, seed)
        bad = _perturb_toric(inst)
        assert not linalg.same_span(bad.toric_sub, inst.toric_sub)
        assert not verify_orthogonality(bad), seed
        assert not verify_filtration(bad), seed


def test_trivial_monodromy_fails_filtration():
    inst = build_instance(3, 2, 5)
    trivial = replace(inst, monodromy=linalg.identity(6))
    results = verify_instance(trivial)
    assert not results["filtration"]
    assert not results["tau_rank_r"]
    assert results["tau_square_zero"]
    assert results["orthogonality"]  # W itself is untouched


def test_log_bridges_algebra_and_group():
    # For these instances tau^T Theta tau = 0, so tau in sp and N in Sp
    # are equivalent statements; assert both, N in Sp by the full product,
    # and the bridge identity.
    inst = build_instance(4, 3, 99)
    tau = inst.log_matrix
    theta = inst.space.form
    assert is_form_compatible(inst)
    assert preserves_form(inst)
    middle = linalg.mat_mul(linalg.transpose(tau), linalg.mat_mul(theta, tau))
    assert linalg.is_zero_matrix(middle)


def test_conjugation_invariance():
    inst = build_instance(3, 2, 11)
    rng = random.Random(99)
    m = random_symplectic(3, rng)
    m_inv = symplectic_inverse(m)
    assert linalg.mat_mul(m_inv, m) == linalg.identity(6)
    moved = SpecializationInstance(
        space=inst.space,
        inertia_invariants=tuple(mat_vec(m, v) for v in inst.inertia_invariants),
        toric_sub=tuple(mat_vec(m, v) for v in inst.toric_sub),
        lift=tuple(mat_vec(m, v) for v in inst.lift),
        monodromy=linalg.mat_mul(m, linalg.mat_mul(inst.monodromy, m_inv)),
        toric_rank=inst.toric_rank,
    )
    assert all(verify_instance(moved).values())


def test_instance_validation_errors():
    inst = build_instance(2, 1, 3)
    with pytest.raises(ValueError, match="W must lie inside"):
        replace(inst, toric_sub=inst.lift)
    with pytest.raises(ValueError, match="complementary"):
        replace(inst, lift=inst.inertia_invariants[:1])
    with pytest.raises(ValueError, match="square to zero"):
        replace(inst, monodromy=tuple(tuple(2 * x for x in row)
                                      for row in linalg.identity(4)))
    jordan4 = tuple(tuple(1 if j in (i, i + 1) else 0 for j in range(4))
                    for i in range(4))  # unipotent, but (N - I)^2 != 0
    with pytest.raises(ValueError, match="square to zero"):
        replace(inst, monodromy=jordan4)
    dependent = (inst.inertia_invariants[0],) * 2 + inst.inertia_invariants[2:]
    with pytest.raises(ValueError, match="not independent"):
        replace(inst, inertia_invariants=dependent)
    with pytest.raises(ValueError, match="dimension 2g - r"):
        replace(inst, inertia_invariants=inst.inertia_invariants[:2])
    for short in ({"lift": inst.lift[:-1]}, {"toric_sub": inst.toric_sub[:-1]}):
        with pytest.raises(ValueError, match="W and T must have dimension r"):
            replace(inst, **short)
    for toric_rank in (0, inst.space.dim // 2 + 1):
        with pytest.raises(ValueError, match="toric rank must satisfy 1 <= r <= g"):
            replace(inst, toric_rank=toric_rank)


def test_symplectic_complement_dimensions():
    g = 3
    space = SymplecticSpace(2 * g, standard_symplectic_form(g))
    basis = linalg.identity(2 * g)
    comp = symplectic_complement(space, basis[:2])
    assert len(comp) == 2 * g - 2
    # <e_1, e_2> is isotropic, so it lies inside its own complement
    assert linalg.row_space_contains(comp, basis[0])
    assert linalg.row_space_contains(comp, basis[1])
    assert not linalg.row_space_contains(comp, basis[g])


def _construction_cases(inst: SpecializationInstance) -> dict:
    """Field changes with one or more construction defects each."""
    vi, w, t = inst.inertia_invariants, inst.toric_sub, inst.lift
    n, r = inst.space.dim, inst.toric_rank
    doubled = tuple(tuple(2 * x for x in row) for row in linalg.identity(n))
    cases = {
        "honest": {},
        "W = T, outside V^I": {"toric_sub": t},
        "W partly outside V^I": {"toric_sub": (linalg.vec_add(w[0], t[0]),) + w[1:]},
        "W zero": {"toric_sub": ((0,) * n,) * r},
        "T = W, inside V^I": {"lift": w},
        "T inside V^I": {"lift": vi[:r]},
        "V^I dependent, W outside": {"inertia_invariants": vi[:-1] + (vi[0],),
                                     "toric_sub": t},
        "V^I dependent, T inside": {"inertia_invariants": vi[:-1] + (vi[0],),
                                    "lift": vi[:r]},
        "V^I holds t_1": {"inertia_invariants": vi[:-1] + (t[0],)},
        "V^I holds t_1, W outside": {"inertia_invariants": vi[:-1] + (t[0],),
                                     "toric_sub": t},
        "W outside, N - I not square zero": {"toric_sub": t, "monodromy": doubled},
        "N - I not square zero": {"monodromy": doubled},
        # Theta(w_1, t_1) = 1.  t_1 (x) Theta(w_1, .) kills V^I = W-perp and
        # fixes t_1; w_1 (x) Theta(t_1, .) kills the isotropic T and negates
        # w_1.  So tau^2 != 0 shows only through a T image, or only through
        # a V^I image.
        "N - I not square zero through T": {"monodromy": _monodromy(inst, t[:1], w[:1])},
        "N - I not square zero through V^I": {"monodromy": _monodromy(inst, w[:1], t[:1])},
    }
    if r >= 2:
        cases.update({
            "W dependent, inside V^I": {"toric_sub": (w[0],) * 2 + w[2:]},
            "W dependent, outside V^I": {"toric_sub": (t[0],) * 2 + t[2:]},
            "W outside V^I, T dependent": {"toric_sub": t,
                                           "lift": (t[0],) * 2 + t[2:]},
            # only the last W row leaves V^I, and V^I + W + T is still
            # everything, so complementarity must read rank V^I + W in full
            "last W row outside V^I, T dependent": {
                "toric_sub": w[:-1] + (t[1],), "lift": (t[0],) * 2 + t[2:]},
            "T dependent": {"lift": (t[0],) * 2 + t[2:]},
            "T inside V^I, W dependent": {"lift": vi[:r],
                                          "toric_sub": (w[0],) * 2 + w[2:]},
        })
    return cases


def test_construction_errors_match_rank_order():
    seen = set()
    for g in range(1, 6):
        for r in range(1, g + 1):
            for seed in range(2):
                inst = build_instance(g, r, seed)
                base = {f.name: getattr(inst, f.name) for f in fields(inst)}
                for name, changes in _construction_cases(inst).items():
                    expected = instance_error_by_ranks(**{**base, **changes})
                    try:
                        replace(inst, **changes)
                        got = None
                    except ValueError as exc:
                        got = str(exc)
                    assert got == expected, (g, r, seed, name)
                    seen.add(got)
    # the table reaches every check after the shape checks
    assert seen == {None, "basis of V^I is not independent",
                    "basis of W is not independent",
                    "basis of T is not independent", "W must lie inside V^I",
                    "V^I and T must be complementary",
                    "N - I must square to zero"}


def test_square_zero_defects_reach_one_side_of_the_basis():
    # the nonzero basis images of each defect lie only among the T rows or
    # only among the V^I rows, and tau^2 = 0 must fail on either side
    for g in range(1, 6):
        for r in range(1, g + 1):
            inst = build_instance(g, r, 0)
            n = 2 * g
            cases = _construction_cases(inst)
            for name, side in (("N - I not square zero through T", range(n - r, n)),
                               ("N - I not square zero through V^I", range(n - r))):
                monodromy = cases[name]["monodromy"]
                tau = linalg.mat_sub(monodromy, linalg.identity(n))
                images = linalg.mat_mul(inst.inertia_invariants + inst.lift,
                                        linalg.transpose(tau))
                nonzero = {i for i, x in enumerate(images) if any(x)}
                assert nonzero and nonzero <= set(side), (g, r, name)
                with pytest.raises(ValueError, match="N - I must square to zero"):
                    replace(inst, monodromy=monodromy)


def test_basis_images_match_the_generic_product():
    for g in range(3, 7):
        for r in range(2, g):
            inst = build_instance(g, r, g + r)
            identity = linalg.identity(2 * g)
            replaced = [replace(inst, monodromy=identity)]
            replaced += [build(inst) for build, _ in _DEFECTS.values()]
            for case in [inst] + replaced:
                tau = linalg.mat_sub(case.monodromy, identity)
                assert case.basis_images == linalg.mat_mul(
                    case.inertia_invariants + case.lift, linalg.transpose(tau)), (g, r)
            # a replaced instance computes its own images
            assert all(case.basis_images != inst.basis_images for case in replaced)


def test_log_and_space_caches():
    inst = build_instance(4, 2, 7)
    identity = linalg.identity(8)
    assert inst.log_matrix == linalg.mat_sub(inst.monodromy, identity)
    # a replaced monodromy gets its own tau, and the verifiers read it
    leaked = _leak_invariants(inst)
    assert leaked.log_matrix == linalg.mat_sub(leaked.monodromy, identity)
    assert leaked.log_matrix != inst.log_matrix
    assert not verify_instance(leaked)["filtration"]
    assert verify_instance(inst)["filtration"]
    # one validated space per genus
    assert build_instance(4, 1, 3).space is inst.space
    assert build_instance(3, 1, 3).space is not inst.space
    # and a space built directly is still validated
    with pytest.raises(ValueError, match="alternating"):
        SymplecticSpace(8, identity)
    # the standard form of genus 4 with the pair e_4, f_4 cut out
    degenerate = tuple(tuple(0 if {i, j} & {3, 7} else x for j, x in enumerate(row))
                       for i, row in enumerate(standard_symplectic_form(4)))
    with pytest.raises(ValueError, match="nondegenerate"):
        SymplecticSpace(8, degenerate)
