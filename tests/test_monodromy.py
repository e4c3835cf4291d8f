"""Monodromy-model tests.

An instance checks only its shape on construction, so the positive sweeps
assert that every named invariant actually verifies; the negative controls
construct shape-valid instances that must fail the orthogonality and
filtration checks, and one targeted defect per remaining key (tau^2 = 0,
also with tau in sp, invariant dimension, form compatibility, N in Sp,
filtration, the image clause of the filtration, rank of tau) must turn
that key False, pinning down that the verifiers test the theorems and not
the construction path.  Instances moved to a non-standard form by a
unimodular change of coordinates must verify alike and fail the same
defects.  The product-and-rank verifiers are compared against the
nullspace and span formulations kept in helpers_oracles, the N-in-Sp key
against N^T Theta N = Theta by full products, the False keys of every
construction defect against a key oracle that computes each invariant on
its own, and the rank, product and identity calls of one build and
verify are counted.  The Gram-matrix certificates for the rank facts must
decide as their elimination fallbacks do, and rebased instances, whose
Gram matrix of V^I + T or whose W x T block is not monomial, must verify
through the fallbacks alone.  The byte draws must reject the bytes that
would bias an entry and cover [-9, 9], and the monodromy pairing on T of
every built instance must be definite of determinant 1.  A digest pins
every seeded instance bit for bit up to g = 6; past it the symplectic
element and tau of a build must equal the block formula in three products
and W^T (A^T A) (W Theta), oracles in helpers_oracles.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from helpers_oracles import (failing_keys_by_ranks, filtration_by_spans,
                             mat_add, mat_vec, monodromy,
                             orthogonality_by_nullspace, preserves_form,
                             symplectic_by_three_products, symplectic_complement,
                             symplectic_inverse, tau_by_pairing)
from mtcheck import linalg
from mtcheck.monodromy import (SpecializationInstance, SymplecticSpace,
                               _random_symmetric, _uniform_entries,
                               build_instance, is_form_compatible,
                               random_symplectic, standard_symplectic_form,
                               verify_filtration, verify_instance,
                               verify_orthogonality)


@pytest.mark.parametrize("g", [1, 2, 3, 8, 19, 23])
def test_standard_form_pairing(g):
    # form[i][j] is Theta(b_i, b_j) on the basis e_1..e_g, f_1..f_g; g = 1
    # has 1 x 1 blocks and g = 23 is criterion 7's bound
    form = SymplecticSpace(standard_symplectic_form(g)).form
    for i in range(g):
        for j in range(g):
            assert form[i][g + j] == (1 if i == j else 0)
            assert form[g + j][i] == (-1 if i == j else 0)
            assert form[i][j] == 0
            assert form[g + i][g + j] == 0


def test_symplectic_space_validation():
    # the dimension is the row count of the form
    assert SymplecticSpace(standard_symplectic_form(3)).dim == 6
    for rows in ((), ((0,),), ((0,) * 3,) * 3, standard_symplectic_form(2)[:3]):
        with pytest.raises(ValueError, match="even dimension"):
            SymplecticSpace(rows)
    with pytest.raises(ValueError, match="wrong shape"):
        SymplecticSpace(standard_symplectic_form(2)[:2])  # 2 rows of length 4
    short_row = standard_symplectic_form(2)[:3] + ((0, -1, 0),)
    with pytest.raises(ValueError, match="wrong shape"):
        SymplecticSpace(short_row)  # 4 rows, one of length 3
    with pytest.raises(ValueError, match="alternating"):
        SymplecticSpace(((1, 0), (0, 1)))
    degenerate = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="nondegenerate"):
        SymplecticSpace(degenerate)


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


@pytest.mark.parametrize("g", [7, 12, 20, 40])
def test_build_matches_the_three_product_oracle(g):
    # past the digest's g <= 6: M in two products against the block
    # formula, and tau = Y^T (Y Theta) against W^T (A^T A) (W Theta)
    for seed in range(3):
        m = random_symplectic(g, random.Random(seed))
        assert m == symplectic_by_three_products(g, random.Random(seed))
        for r in (1, 2, g // 2, g):
            assert build_instance(g, r, seed).tau == tau_by_pairing(g, r, seed)


class _Bytes:
    """A generator stand-in whose randbytes hands out the given bytes in
    order."""

    def __init__(self, data: bytes):
        self.data = data

    def randbytes(self, k: int) -> bytes:
        out, self.data = self.data[:k], self.data[k:]
        return out


def test_byte_draws_reject_the_uneven_tail():
    # 247 = 13 * 19 bytes map onto [-9, 9] as b mod 19 - 9; bytes 255 down
    # to 247 are dropped and drawn again, so the 247 entries are those of
    # bytes 246 down to 0, each value 13 times
    entries = _uniform_entries(247, 9, _Bytes(bytes(range(255, -1, -1))))
    assert entries == [b % 19 - 9 for b in range(246, -1, -1)]
    assert set(Counter(entries).values()) == {13}
    # for {-1, 0, 1} only byte 255 is dropped
    assert _uniform_entries(3, 1, _Bytes(bytes((255, 254, 255, 0, 1)))) == [1, -1, 0]


def test_symmetric_draws_cover_the_entry_range():
    seen = Counter()
    for seed in range(12):
        m = _random_symmetric(9, random.Random(seed))
        assert len(m) == 9 and m == linalg.transpose(m), seed
        seen.update(x for i, row in enumerate(m) for x in row[i:])
    # every value in [-9, 9] and nothing else, over 540 upper entries
    assert set(seen) == set(range(-9, 10))
    assert _random_symmetric(1, random.Random(0))[0][0] in range(-9, 10)


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
    assert build_instance(4, 2, 0).tau != build_instance(4, 2, 1).tau


def test_build_instance_digest():
    # pins every entry (and its int type, through repr) of these instances;
    # the hashed N = I + tau is formed here, as the instances hold tau
    h = hashlib.sha256()
    for g in range(1, 7):
        for r in range(1, g + 1):
            for seed in range(5):
                inst = build_instance(g, r, seed)
                h.update(repr((g, r, seed, inst.inertia_invariants, inst.toric_sub,
                               inst.lift, monodromy(inst))).encode())
    assert h.hexdigest() == (
        "847c82a134ce073c57cfe8f73c226c06226890b3e8a006340e448a97e08eb5e2")


def test_monodromy_pairing_on_t_is_definite_and_unimodular():
    # Theta(tau t_i, t_j) over the rows of T is S = A^T A: symmetric, of
    # determinant 1, and definite, so every leading principal minor is
    # positive (Sylvester); its entries stay at most r
    for g in range(1, 7):
        for r in range(1, g + 1):
            for seed in range(5):
                inst = build_instance(g, r, seed)
                tau_t = linalg.mat_mul(inst.lift, linalg.transpose(inst.tau))
                block = _pairing(inst, tau_t, inst.lift)
                label = (g, r, seed, block)
                assert block == linalg.transpose(block), label
                assert linalg.det(block) == 1, label
                assert all(linalg.det(tuple(row[:k] for row in block[:k])) > 0
                           for k in range(1, r + 1)), label
                assert max(abs(x) for row in block for x in row) <= r, label


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
                   for row, w in zip(inst.tau, inst.toric_sub[0]))
    return replace(inst, tau=leaked)


def _log(inst: SpecializationInstance, images, duals):
    """tau = sum_i images_i (x) Theta(duals_i, .); as a matrix, U^T . D .
    Theta with U and D the rows of images and duals."""
    return linalg.mat_mul(linalg.transpose(images), linalg.mat_mul(duals, inst.space.form))


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
    return replace(inst, tau=_log(inst, images, basis))


def _log_leaving_toric(inst: SpecializationInstance, k: int = -1) -> SpecializationInstance:
    """Replace tau by sum_i u_i (x) Theta(w_i, .) with u_1 = w_1 + v, v the
    V^I basis vector of index k (the last by default; outside W), and
    u_i = w_i otherwise.

    Theta(w_i, .) kills V^I = W-perp, which holds every u_j, so the new log
    squares to zero, kills V^I and maps T onto span(u) with rank r; only
    its image leaves W.  Requires r < g.
    """
    w = inst.toric_sub
    u = (linalg.vec_add(w[0], inst.inertia_invariants[k]),) + w[1:]
    return replace(inst, tau=_log(inst, u, w))


def _image_follows(inst: SpecializationInstance, u) -> dict:
    """W moved to the rows u, and tau = sum_i u_i (x) Theta(w_i, .): it
    kills V^I = W-perp and maps T onto span(u), so of the filtration's
    clauses only W in V^I can fail."""
    return {"toric_sub": u, "tau": _log(inst, u, inst.toric_sub)}


def _unit_block(r: int, extra: dict) -> tuple:
    return tuple(tuple(extra.get((i, j), 1 if i == j else 0) for j in range(r))
                 for i in range(r))


# Each defect is shape-valid and must turn its own verify_instance key
# False.  Every other key named False as well is forced: N = I + tau with
# tau^2 = 0 has N^-1 = I - tau, so N preserves the form exactly when tau
# lies in sp, and form_compatible and monodromy_symplectic agree on every
# instance with tau^2 = 0; the filtration implies tau^2 = 0; and the
# orthogonality and filtration both need rank V^I = 2g - r.
_DEFECTS = {
    # V^I with its last row replaced by its first: rank 2g - r - 1, so the
    # complement of V^I is too large for W and V^I + W + T misses a vector
    "invariant_dim": (
        lambda inst: replace(inst, inertia_invariants=(
            inst.inertia_invariants[:-1] + inst.inertia_invariants[:1])),
        {"invariant_dim", "orthogonality", "filtration"}),
    # tau = I (N = 2I) is not square zero, has rank 2g and leaves sp
    "tau_square_zero": (
        lambda inst: replace(inst, tau=linalg.identity(inst.space.dim)),
        {"tau_square_zero", "tau_rank_r", "filtration", "form_compatible",
         "monodromy_symplectic"}),
    # the identity block on w_1, t_1, w_3..w_r, a basis that is not
    # isotropic (Theta(w_1, t_1) = 1): tau is in sp and of rank r, but
    # tau(t_1) = w_1 and tau(w_1) = -t_1, so tau^2 != 0, tau does not kill
    # V^I, and N^T Theta N = Theta - Theta tau^2 leaves Sp although tau is
    # in sp
    "tau_square_zero_in_sp": (
        lambda inst: _log_on(inst, inst.toric_sub[:1] + inst.lift[:1] + inst.toric_sub[2:],
                             _unit_block(inst.toric_rank, {})),
        {"tau_square_zero", "filtration", "monodromy_symplectic"}),
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
    P^-T Theta P^-1, tau becomes P tau P^-1, and each basis row v becomes
    (Pv)^T = v P^T."""
    pt = linalg.transpose(p)
    form = linalg.mat_mul(linalg.transpose(p_inv), linalg.mat_mul(inst.space.form, p_inv))
    return SpecializationInstance(
        space=SymplecticSpace(form),
        inertia_invariants=linalg.mat_mul(inst.inertia_invariants, pt),
        toric_sub=linalg.mat_mul(inst.toric_sub, pt),
        lift=linalg.mat_mul(inst.lift, pt),
        tau=linalg.mat_mul(p, linalg.mat_mul(inst.tau, p_inv)),
    )


def _interleaving(g: int):
    """The signed permutation P that reorders e_1..e_g, f_1..f_g as e_1,
    f_1, e_2, -f_2, e_3, f_3, ..., and its inverse P^T."""
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        rows[2 * i][i] = 1
        rows[2 * i + 1][g + i] = (-1) ** i
    p = tuple(map(tuple, rows))
    return p, linalg.transpose(p)


def test_verifiers_on_a_non_standard_form():
    # the verifiers read inst.space.form; every instance above is built on
    # the standard form, so a verifier that assumed it would pass them all.
    # Each instance moves to a dense form and to a monomial one, which the
    # products apply as a column permutation as they do the standard form.
    # g starts at 2: the shears have determinant 1, and SL_2 = Sp_2; and at
    # g = 1 the interleaving is the identity.
    rng = random.Random(1729)
    for g in range(2, 7):
        for r in range(1, g + 1):
            for seed in range(2):
                inst = build_instance(g, r, seed)
                for kind, (p, p_inv) in (("dense", _unimodular(2 * g, rng)),
                                         ("monomial", _interleaving(g))):
                    assert linalg.mat_mul(p, p_inv) == linalg.identity(2 * g)
                    moved = _move(inst, p, p_inv)
                    label = (g, r, seed, kind)
                    assert moved.space.form != inst.space.form, label
                    assert (linalg.monomial_columns(moved.space.form) is not None) == (
                        kind == "monomial"), label
                    assert verify_instance(moved) == verify_instance(inst), label
                    if not 2 <= r < g:
                        continue
                    for defect, (build, failing) in _DEFECTS.items():
                        results = verify_instance(build(moved))
                        assert {k for k, ok in results.items() if not ok} == failing, (
                            defect, label, results)


def _pairing(inst: SpecializationInstance, left, right) -> linalg.Matrix:
    """Theta(b, b') over the rows b of left and b' of right."""
    return linalg.mat_mul(linalg.mat_mul(left, inst.space.form), linalg.transpose(right))


def _gram(inst: SpecializationInstance) -> linalg.Matrix:
    """Theta(b, b') over the rows b, b' of V^I + T."""
    basis = inst.inertia_invariants + inst.lift
    return _pairing(inst, basis, basis)


def _monomial(m: linalg.Matrix) -> bool:
    return all(sum(1 for x in row if x) == 1 for rows in (m, linalg.transpose(m)) for row in rows)


def test_certificates_and_fallbacks_decide_alike(monkeypatch):
    # a built instance's Gram matrix of V^I + T and its W x T block are the
    # form in its adapted basis, in any coordinates, so the rank facts come
    # from the certificates.  With linalg.monomial_columns switched off,
    # every rank fact comes from the elimination pass and every form
    # product is packed, and every key and rank fact must come out the
    # same.  Each runs at the least and the greatest r it allows; the
    # rebased honest cases of _construction_cases take the fallback.
    rng = random.Random(4111)
    cases = []
    for g in range(1, 8):
        for r in sorted({1, g - 1, g} - {0}):
            inst = build_instance(g, r, g + r)
            moved = [_move(inst, *_unimodular(2 * g, rng))] if g > 1 else []
            for form, base in [("standard", inst)] + [("moved", m) for m in moved]:
                assert _monomial(_gram(base)), (g, r, form)
                assert _monomial(_pairing(base, base.toric_sub, base.lift)), (g, r, form)
                cases.append(((g, r, form, "honest"), base))
                if r < g:
                    # W moved off (V^I)-perp, inside V^I, or out of it at
                    # w_1 with the image of tau following it
                    leaving = (linalg.vec_add(base.toric_sub[0], base.lift[0]),) + base.toric_sub[1:]
                    cases += [((g, r, form, "perturbed"), _perturb_toric(base)),
                              ((g, r, form, "leaving"),
                               replace(base, **_image_follows(base, leaving)))]
                if 2 <= r == g - 1:
                    cases += [((g, r, form, defect), build(base))
                              for defect, (build, _) in _DEFECTS.items()]
    certified = [(verify_instance(case), case._rank_facts) for _, case in cases]
    monkeypatch.setattr("mtcheck.linalg.monomial_columns", lambda m: None)
    for (label, case), (results, facts) in zip(cases, certified):
        fresh = replace(case)  # a new record, without the cached facts
        assert verify_instance(fresh) == results, label
        assert fresh._rank_facts == facts, label


def test_image_defect_fails_only_the_image_clause():
    # v the last V^I row pairs with V^I at e_g alone; v = e_g (V^I row
    # g - 1) pairs with the last V^I row f_g alone, so tau(T) pairs with
    # V^I in the last column only
    for g in range(2, 8):
        for r in range(1, g):
            for seed, k in ((0, -1), (1, -1), (0, g - 1), (1, g - 1)):
                bad = _log_leaving_toric(build_instance(g, r, seed), k)
                tau_t = linalg.transpose(bad.tau)
                label = (g, r, seed, k)
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
                trivial = replace(inst, tau=((0,) * 2 * g,) * 2 * g)
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
    trivial = replace(inst, tau=((0,) * 6,) * 6)
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
    tau = inst.tau
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
        tau=linalg.mat_mul(m, linalg.mat_mul(inst.tau, m_inv)),
    )
    assert all(verify_instance(moved).values())


def test_instance_validation_errors():
    # construction checks the shape only; a rank or product defect builds
    # and shows as False keys (test_construction_cases_match_the_key_oracle)
    inst = build_instance(3, 2, 3)
    assert (inst.space.dim, inst.toric_rank) == (6, 2)
    with pytest.raises(ValueError, match="dimension 2g - r"):
        replace(inst, inertia_invariants=inst.inertia_invariants[:3])
    for lift in (inst.lift[:-1], inst.lift + inst.lift[:1]):
        with pytest.raises(ValueError, match="T must have dimension r"):
            replace(inst, lift=lift)
    # r is the row count of W, so a W of another size changes r, and the
    # row count of V^I or T no longer fits it
    for toric_sub in (inst.toric_sub[:-1], inst.toric_sub + inst.lift[:1]):
        with pytest.raises(ValueError, match="dimension 2g - r"):
            replace(inst, toric_sub=toric_sub)
        fitting = (inst.inertia_invariants + inst.lift)[:6 - len(toric_sub)]
        with pytest.raises(ValueError, match="T must have dimension r"):
            replace(inst, toric_sub=toric_sub, inertia_invariants=fitting)
    for toric_sub in ((), inst.toric_sub + inst.lift[:2]):
        with pytest.raises(ValueError, match="toric rank must satisfy 1 <= r <= g"):
            replace(inst, toric_sub=toric_sub)


def test_symplectic_complement_dimensions():
    g = 3
    space = SymplecticSpace(standard_symplectic_form(g))
    basis = linalg.identity(2 * g)
    comp = symplectic_complement(space, basis[:2])
    assert len(comp) == 2 * g - 2
    # <e_1, e_2> is isotropic, so it lies inside its own complement
    assert linalg.row_space_contains(comp, basis[0])
    assert linalg.row_space_contains(comp, basis[1])
    assert not linalg.row_space_contains(comp, basis[g])


def _construction_cases(inst: SpecializationInstance) -> dict:
    """Shape-valid field changes with one or more defects each."""
    vi, w, t = inst.inertia_invariants, inst.toric_sub, inst.lift
    n, r = inst.space.dim, inst.toric_rank

    # d pairs with the last V^I row alone among the rows of V^I, W and T, so
    # adding w_1 (x) Theta(d, .) to tau changes only the last V^I image
    d = vi[n // 2 - 1] if r < n // 2 else t[-1]
    leak = _log(inst, w[:1], (d,))
    # N a Jordan block: tau the shift e_i -> e_(i-1), tau^2 != 0 from 2g = 4
    shift = tuple(tuple(1 if j == i + 1 else 0 for j in range(n)) for i in range(n))
    zero_last = vi[:-1] + ((0,) * n,)
    # V^I with v_1 + v_g + v_(2g-r) = e_1 + e_g + f_g for v_g = e_g and v_1
    # again for v_(2g-r) = f_g: dependent, yet every row pairs with some row
    # of V^I + T, so their Gram matrix has no zero row.  Needs r < g.
    paired = vi[:n // 2 - 1] + (linalg.vec_add(linalg.vec_add(vi[0], vi[n // 2 - 1]), vi[-1]),)
    paired += vi[n // 2:-1] + vi[:1]
    # w_1, t_1, w_3..w_r: not isotropic, Theta(w_1, t_1) = 1
    hyperbolic = (w[0], t[0]) + w[2:]

    def rebase(rows):
        # row i plus row i + 1: a unimodular recombination, the same span
        return tuple(linalg.vec_add(a, b) for a, b in zip(rows, rows[1:])) + rows[-1:]

    cases = {
        "honest": {},
        # the same spans in another basis, whose Gram matrix is not
        # monomial from g = 2, so only the elimination fallback verifies it
        "honest, rebased": {"inertia_invariants": rebase(vi), "toric_sub": rebase(w),
                            "lift": rebase(t)},
        "W = T, outside V^I": {"toric_sub": t},
        "W partly outside V^I": {"toric_sub": (linalg.vec_add(w[0], t[0]),) + w[1:]},
        "W zero": {"toric_sub": ((0,) * n,) * r},
        # V^I + T is not all of V: the verifiers check no such clause, and
        # rank tau(T) < r must fail the filtration, as the oracle's rank of
        # V^I + T does
        "T = W, inside V^I": {"lift": w},
        "T inside V^I": {"lift": vi[:r]},
        # a zero row, so that V^I is dependent even when it has one row
        "V^I dependent, W outside": {"inertia_invariants": zero_last, "toric_sub": t},
        "V^I dependent, T inside": {"inertia_invariants": zero_last, "lift": vi[:r]},
        "V^I holds t_1": {"inertia_invariants": vi[:-1] + (t[0],)},
        "V^I holds t_1, W outside": {"inertia_invariants": vi[:-1] + (t[0],),
                                     "toric_sub": t},
        "W outside, N - I not square zero": {"toric_sub": t, "tau": linalg.identity(n)},
        "N - I not square zero": {"tau": linalg.identity(n)},
        "N a Jordan block": {"tau": shift},
        # in Sp on the standard form, but not unipotent, so the N-in-Sp key
        # cannot be read off form compatibility
        "N a symplectic shear product": {"tau": linalg.mat_sub(
            random_symplectic(n // 2, random.Random(n)), linalg.identity(n))},
        "V^I with a zero row": {"inertia_invariants": zero_last},
        # w_1 + t_1 pairs only with v_1 = w_1, here moved to the last V^I row
        "W partly outside V^I, V^I rotated": {
            "inertia_invariants": vi[1:] + vi[:1],
            "toric_sub": (linalg.vec_add(w[0], t[0]),) + w[1:]},
        "W and the image of tau leave V^I at w_1": _image_follows(
            inst, (linalg.vec_add(w[0], t[0]),) + w[1:]),
        "W and the image of tau leave V^I at w_r": _image_follows(
            inst, w[:-1] + (linalg.vec_add(w[-1], t[0]),)),
        "tau leaks on the last V^I row only": {"tau": mat_add(inst.tau, leak)},
        # Theta(w_1, t_1) = 1.  t_1 (x) Theta(w_1, .) kills V^I = W-perp and
        # fixes t_1; w_1 (x) Theta(t_1, .) kills the isotropic T and negates
        # w_1.  So tau^2 != 0 shows only through a T image, or only through
        # a V^I image.
        "N - I not square zero through T": {"tau": _log(inst, t[:1], w[:1])},
        "N - I not square zero through V^I": {"tau": _log(inst, w[:1], t[:1])},
    }
    if r < n // 2:
        cases["V^I dependent, no row pairing to zero with V^I + T"] = {
            "inertia_invariants": paired}
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
            # the same W in another basis: V^I + T keeps its monomial Gram
            # matrix, but the W x T block is bidiagonal in the adapted basis
            "honest, W rebased": {"toric_sub": rebase(w)},
            "T inside V^I, W dependent": {"lift": vi[:r],
                                          "toric_sub": (w[0],) * 2 + w[2:]},
            # V^I with t_2 for v_1 = w_1 has the complement u = hyperbolic:
            # W = u is (V^I)-perp but leaves V^I, T completes the basis,
            # and tau = sum_i u_i (x) Theta(u_i, .) kills V^I = u-perp and
            # maps T onto W, so of the filtration's clauses only W in V^I
            # fails
            "W = (V^I)-perp, not isotropic": {
                "inertia_invariants": t[1:2] + vi[1:], "toric_sub": hyperbolic,
                "lift": (w[0], t[0]) + t[2:],
                "tau": _log(inst, hyperbolic, hyperbolic)},
        })
    return cases


def test_construction_cases_match_the_key_oracle():
    # every case builds, and verify_instance fails exactly the keys that
    # the oracle computes on their own; g = 2, 3 at seed 0 also on a
    # non-standard form
    rng = random.Random(4099)
    seen = set()
    for g in range(1, 6):
        for r in range(1, g + 1):
            for seed in range(2):
                inst = build_instance(g, r, seed)
                bases = [("standard", inst)]
                if 2 <= g <= 3 and seed == 0:
                    bases.append(("moved", _move(inst, *_unimodular(2 * g, rng))))
                for form, base in bases:
                    for name, changes in _construction_cases(base).items():
                        case = replace(base, **changes)
                        results = verify_instance(case)
                        failing = {k for k, ok in results.items() if not ok}
                        label = (g, r, seed, form, name, failing)
                        assert failing == failing_keys_by_ranks(case), label
                        assert bool(failing) is not name.startswith("honest"), label
                        if name == "honest, rebased" and g >= 2:
                            assert not _monomial(_gram(case)), label
                        if name == "honest, W rebased":
                            assert _monomial(_gram(case)), label
                            assert not _monomial(_pairing(case, case.toric_sub, case.lift)), label
                        if name.startswith("V^I dependent"):
                            assert "invariant_dim" in failing, label
                        seen |= failing
    # the table reaches every key
    assert seen == set(results)


def test_square_zero_defects_reach_one_side_of_the_basis():
    # the nonzero basis images of each defect lie only among the T rows or
    # only among the V^I rows, and the tau^2 = 0 key must fail on either side
    for g in range(1, 6):
        for r in range(1, g + 1):
            inst = build_instance(g, r, 0)
            n = 2 * g
            cases = _construction_cases(inst)
            for name, side in (("N - I not square zero through T", range(n - r, n)),
                               ("N - I not square zero through V^I", range(n - r))):
                tau = cases[name]["tau"]
                images = linalg.mat_mul(inst.inertia_invariants + inst.lift,
                                        linalg.transpose(tau))
                nonzero = {i for i, x in enumerate(images) if any(x)}
                assert nonzero and nonzero <= set(side), (g, r, name)
                results = verify_instance(replace(inst, tau=tau))
                assert not results["tau_square_zero"], (g, r, name)


def test_basis_images_match_the_generic_product():
    for g in range(3, 7):
        for r in range(2, g):
            inst = build_instance(g, r, g + r)
            replaced = [replace(inst, tau=((0,) * 2 * g,) * 2 * g)]
            replaced += [build(inst) for build, _ in _DEFECTS.values()]
            for case in [inst] + replaced:
                assert case.basis_images == linalg.mat_mul(
                    case.inertia_invariants + case.lift, linalg.transpose(case.tau)), (g, r)
            # a replaced tau gives the instance its own images
            assert all(case.basis_images != inst.basis_images for case in replaced
                       if case.tau != inst.tau)


def test_rank_and_product_calls_of_one_build_and_verify(monkeypatch):
    calls = Counter()
    for name in ("prefix_ranks", "rank", "mat_mul", "identity", "mat_sub"):
        def counted(*args, _fn=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)

    def count(step):
        calls.clear()
        value = step()
        return value, dict(calls)

    build_instance(4, 2, 7)  # validates the shared space of genus 4 once
    # two products for the symplectic element (X = CD + I, then B [C | X]),
    # one for Y = A W and one for tau = Y^T (Y Theta), which the record
    # holds; S = A^T A is never formed, and no draw needs a rank or an
    # identity
    inst, built = count(lambda: build_instance(4, 2, 7))
    assert built == {"mat_mul": 4}
    # two products for the Gram matrix of V^I + T + W, whose blocks certify
    # every rank fact, one for the basis images, one for the pairing of
    # tau(T) with V^I + T and the rank of its T block, and one for
    # tau^T Theta; no prefix-rank pass, no rank of W, and no identity, as
    # nothing forms N
    results, verified = count(lambda: verify_instance(inst))
    assert all(results.values())
    assert verified == {"rank": 1, "mat_mul": 5}
    # a second verify reads the cached R Theta, Gram matrix, rank facts
    # and basis images
    assert count(lambda: verify_instance(inst))[1] == {"rank": 1, "mat_mul": 2}
    # neither construction nor replace runs a rank or a product
    bad, replaced = count(lambda: _perturb_toric(inst))
    assert replaced == {}
    # the perturbed control stops at the nonzero W x V^I block of its Gram
    # matrix, before any rank
    assert count(lambda: verify_orthogonality(bad)) == (False, {"mat_mul": 2})


def test_log_and_space_caches():
    inst = build_instance(4, 2, 7)
    assert all(verify_instance(inst).values())
    # a tau replaced after the caches were filled gets basis images of its
    # own, and every verifier reads it
    leaked = _leak_invariants(inst)
    assert leaked.tau != inst.tau
    assert leaked.basis_images != inst.basis_images
    assert not verify_filtration(leaked) and not is_form_compatible(leaked)
    assert {k for k, ok in verify_instance(leaked).items() if not ok} == {
        "filtration", "form_compatible", "monodromy_symplectic"}
    # one validated space per genus
    assert build_instance(4, 1, 3).space is inst.space
    assert build_instance(3, 1, 3).space is not inst.space
    # and a space built directly is still validated
    with pytest.raises(ValueError, match="alternating"):
        SymplecticSpace(linalg.identity(8))
    # the standard form of genus 4 with the pair e_4, f_4 cut out
    degenerate = tuple(tuple(0 if {i, j} & {3, 7} else x for j, x in enumerate(row))
                       for i, row in enumerate(standard_symplectic_form(4)))
    with pytest.raises(ValueError, match="nondegenerate"):
        SymplecticSpace(degenerate)
