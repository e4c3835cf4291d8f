"""Exact linear algebra: rank/rref/det/nullspace agree with each other and
with hand values; the kernels stay on ints and refuse anything else."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import mat_vec
from helpers_roots import solve
from mtcheck import linalg


def _random_matrix(rng, rows, cols):
    return tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))


def _rank_by_rref(m):
    _, pivots = linalg.rref(m)
    return len(pivots)


@pytest.mark.parametrize("seed", range(30))
def test_rank_matches_rref(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    assert linalg.rank(m) == _rank_by_rref(m)


def test_rank_edge_cases():
    assert linalg.rank(()) == 0
    assert linalg.rank(((0, 0), (0, 0))) == 0
    assert linalg.rank(linalg.identity(5)) == 5
    assert linalg.rank(((1, 2), (2, 4))) == 1
    with pytest.raises(ValueError, match="matrix is singular"):
        linalg.inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        linalg.det(((1, 2),))


@pytest.mark.parametrize("seed", range(20))
def test_det_and_inverse(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 6)
    m = _random_matrix(rng, n, n)
    d = linalg.det(m)
    if d == 0:
        assert linalg.rank(m) < n
        return
    inv = linalg.inverse(m)
    assert _triple_loop(m, inv) == linalg.identity(n)
    # d * inv is the adjugate, an integer matrix of determinant d^(n - 1)
    adjugate = tuple(tuple(d * x for x in row) for row in inv)
    assert all(x.denominator == 1 for row in adjugate for x in row)
    assert linalg.det(tuple(tuple(x.numerator for x in row) for row in adjugate)) == d ** (n - 1)


@pytest.mark.parametrize("seed", range(20))
def test_nullspace_is_kernel(seed):
    rng = random.Random(200 + seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    basis = linalg.nullspace(m)
    n_cols = len(m[0])
    assert len(basis) == n_cols - linalg.rank(m)
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))
    _assert_primitive_int_vectors(basis)
    assert linalg.rank(basis) == len(basis)


def _assert_primitive_int_vectors(basis):
    for v in basis:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1


def test_solve_consistent_and_inconsistent():
    a = ((1, 2), (2, 4))
    assert solve(a, (1, 2)) is not None
    assert solve(a, (1, 3)) is None
    x = solve(((2, 0), (0, 3)), (4, 9))
    assert x == (2, 3)


def test_span_predicates():
    b1 = ((1, 0, 0), (0, 1, 0))
    b2 = ((1, 1, 0), (1, -1, 0))
    assert linalg.same_span(b1, b2)
    assert not linalg.same_span(b1, ((0, 0, 1),))
    assert linalg.row_space_contains(b1, (3, -2, 0))
    assert not linalg.row_space_contains(b1, (0, 0, 1))
    assert linalg.row_space_contains((), (0, 0, 0))


def test_rank_regression_zero_in_pivot_column():
    # A row with a zero in the first pivot column must still be rescaled
    # during fraction-free elimination; this matrix (rank 4, last row a sum
    # of two others) used to come back as rank 5.
    m = ((80, -88, -77, 4, 9, -6),
         (71, -83, -81, 15, 16, -3),
         (286, -326, -285, -1, 0, 0),
         (0, -1, -2, 1, 0, 1),
         (80, -89, -79, 5, 9, -5))
    assert linalg.rank(m) == 4
    assert linalg.row_space_contains(m[:4], m[4])


@pytest.mark.parametrize("seed", range(60))
def test_rank_matches_rref_sparse_and_low_rank(seed):
    rng = random.Random(3000 + seed)
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    if seed % 2 == 0:
        # sparse: zeros land in pivot columns often
        m = tuple(
            tuple(rng.randint(-4, 4) if rng.random() < 0.5 else 0
                  for _ in range(cols))
            for _ in range(rows)
        )
    else:
        # forced low rank: product of thin factors
        k = rng.randint(1, min(rows, cols))
        u = _random_matrix(rng, rows, k)
        v = _random_matrix(rng, k, cols)
        m = linalg.mat_mul(u, v)
        assert linalg.rank(m) <= k
    assert linalg.rank(m) == _rank_by_rref(m)


@pytest.mark.parametrize("seed", range(20))
def test_rank_additivity_of_row_sums(seed):
    rng = random.Random(4000 + seed)
    m = _random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
    summed = m + (linalg.vec_add(m[0], m[-1]),)
    assert linalg.rank(summed) == linalg.rank(m)


# Hypothesis properties: the integer kernels (zipped Bareiss updates,
# C-level products) against plain Fraction references.

_PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                     deadline=None)
# zeros are drawn often, so zero pivot columns and dependent rows are common
_ENTRY = st.one_of(st.just(0), st.integers(-9, 9))


def _matrices(rows, cols, entry=_ENTRY):
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: tuple(tuple(flat[i:i + cols])
                           for i in range(0, rows * cols, cols)))


@st.composite
def _any_matrix(draw):
    if draw(st.booleans()):
        return draw(_matrices(draw(st.integers(1, 6)), draw(st.integers(1, 6))))
    # one rank short of full: a dependent row must cancel exactly, after
    # pivots larger than 1 and rows with zeros in a pivot column, which is
    # where a skipped Bareiss update loses the exact division
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(rows, 6))
    return linalg.mat_mul(draw(_matrices(rows, rows - 1)),
                          draw(_matrices(rows - 1, cols)))


def _fraction_rank_det(m):
    """Rank and (for square m) determinant by textbook Gaussian elimination
    over Fraction."""
    rows = [[Fraction(x) for x in row] for row in m]
    n_rows, n_cols = len(rows), len(rows[0])
    r, d = 0, Fraction(1)
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            d = Fraction(0)
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            d = -d
        d *= rows[r][c]
        for i in range(r + 1, n_rows):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r, d


@_PROPERTY
@given(_any_matrix())
def test_rank_matches_fraction_elimination(m):
    assert linalg.rank(m) == _fraction_rank_det(m)[0]
    assert linalg.rank(linalg.transpose(m)) == linalg.rank(m)


@_PROPERTY
@given(_any_matrix())
def test_prefix_ranks_match_fraction_elimination(m):
    ranks = linalg.prefix_ranks(m)
    assert ranks == tuple(_fraction_rank_det(m[:k])[0] for k in range(1, len(m) + 1))
    # a row adds at most one to the rank
    assert all(b - a in (0, 1) for a, b in zip((0,) + ranks, ranks))
    assert linalg.rank(m) == ranks[-1]


def test_prefix_ranks_edge_cases():
    assert linalg.prefix_ranks(()) == ()
    assert linalg.prefix_ranks(((0, 0, 0),) * 3) == (0, 0, 0)
    assert linalg.prefix_ranks(((),) * 2) == (0, 0)
    assert linalg.rank(((),) * 2) == 0
    # the empty matrix: no pivots, so rank 0 and determinant 1
    d = linalg.det(())
    assert d == 1 and type(d) is int
    assert linalg.nullspace(()) == ()


def test_eliminations_reject_ragged_rows():
    # zip would cut the longer row short: the rank read 1 here, and the
    # prefix ranks indexed past the short row; in the last shape the short
    # row would lose its first entry to the dropped pivot column and still
    # zip with the pivot row
    for ragged in (((1,), (0, 5)), ((0, 1), (1,)), ((1, 2), (3, 4), (5,)),
                   ((1, 2, 3), (4, 5))):
        with pytest.raises(ValueError, match="one length"):
            linalg.rank(ragged)
        with pytest.raises(ValueError, match="one length"):
            linalg.prefix_ranks(ragged)
    with pytest.raises(ValueError, match="one length"):
        linalg.mat_mul(((1, 2),), ((1, 2), (3,)))


def test_pivot_columns_out_of_order():
    # first nonzeros in columns 2, 0, 1: two inversions, so det is +24
    m = ((0, 0, 3), (2, 0, 1), (1, 4, 5))
    assert linalg._bareiss(m)[0] == [2, 0, 1]
    assert linalg.det(m) == _fraction_rank_det(m)[1] == 24
    # one inversion: the sign flips
    swapped = ((0, 0, 3), (0, 2, 1), (4, 1, 5))
    assert linalg._bareiss(swapped)[0] == [2, 1, 0]
    assert linalg.det(swapped) == _fraction_rank_det(swapped)[1] == -24
    for n in range(1, 7):
        anti = tuple(tuple(k + 1 if j == n - 1 - k else 0 for j in range(n))
                     for k in range(n))
        assert linalg._bareiss(anti)[0] == list(range(n - 1, -1, -1))
        assert linalg.det(anti) == _fraction_rank_det(anti)[1]


@_PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    _matrices(n, n), st.permutations(range(n)))))
def test_column_permutations_match_fraction_elimination(case):
    # permuted columns put the pivot columns out of order, which only the
    # sign of det and the original column indices kept by the pass see
    m, perm = case
    permuted = tuple(tuple(row[j] for j in perm) for row in m)
    rank, d = _fraction_rank_det(permuted)
    assert linalg.det(permuted) == d
    assert linalg.prefix_ranks(permuted) == tuple(
        _fraction_rank_det(permuted[:k])[0] for k in range(1, len(m) + 1))
    cols = linalg._bareiss(permuted)[0]
    assert len(cols) == rank == len(set(cols))


def test_rows_that_become_zero_partway():
    # row 2 is twice row 1 and vanishes at the first step; row 4 is row 1
    # plus row 3 and vanishes at the second; the rows after each still
    # receive every step
    m = ((1, 2, 3, 0), (2, 4, 6, 0), (0, 1, 1, 2), (1, 3, 4, 2), (0, 0, 1, 5), (3, 1, 4, 1))
    assert linalg.prefix_ranks(m) == tuple(
        _fraction_rank_det(m[:k])[0] for k in range(1, len(m) + 1)) == (1, 1, 2, 2, 3, 4)
    assert linalg.det(m[:4]) == 0
    square = (m[0], m[2], m[4], m[5])
    assert linalg.det(square) == _fraction_rank_det(square)[1] != 0
    # a zero row between pivots, then a dependent row and a new pivot
    assert linalg.prefix_ranks(((0, 2, 4), (0, 0, 0), (0, 1, 2), (2, 1, 2))) == (1, 1, 1, 2)


@_PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: _matrices(n, n)))
def test_det_matches_fraction_elimination(m):
    d = linalg.det(m)
    assert type(d) is int
    assert d == _fraction_rank_det(m)[1]


def _triple_loop(a, b):
    n, k, p = len(a), len(b), len(b[0])
    return tuple(tuple(sum((a[i][j] * b[j][q] for j in range(k)), 0)
                       for q in range(p)) for i in range(n))


# up to 10^30 a cell needs more than one 64-bit slot; zeros and small
# entries next to large ones put slots of different signs side by side
_BIG_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))


def _with_entry(draw, matrices, entries):
    """A drawn matrix with one drawn entry put at a drawn place."""
    m = [list(row) for row in draw(matrices)]
    i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m[0]) - 1))
    m[i][j] = draw(entries)
    return tuple(map(tuple, m))


@st.composite
def _product_case(draw, kind):
    """(a, b) of one of the factor shapes the product tells apart."""
    n_rows = draw(st.integers(1, 4))
    if kind in ("monomial", "one per row", "repeated column"):
        # a scaled permutation; or one with two rows' nonzeros in one column,
        # so another column is empty; or one with column i copied over j
        n = draw(st.integers(2, 5))
        cols = list(draw(st.permutations(range(n))))
        i, j = draw(st.permutations(range(n)))[:2]
        if kind == "one per row":
            cols[i] = cols[j]
        scale = st.one_of(st.sampled_from((1, -1)), _ENTRY.filter(bool))
        b = [[draw(scale) if q == c else 0 for q in range(n)] for c in cols]
        if kind == "repeated column":
            for row in b:
                row[j] = row[i]
        return draw(_matrices(n_rows, n)), tuple(map(tuple, b))
    if kind == "slot limits":
        # the cell bound max(max|a|, 1)·max|b|·inner lands on 2^63 - 1 (the
        # last 8-byte slot) or just past it: 2^63 at one inner term, 2^63 + 6
        # at seven, with 2^63 - 1 = 7·top exactly; a and b trade roles
        inner = draw(st.sampled_from((1, 7)))
        top = (2**63 - 1) // inner
        edges = (top, -top, top + 1, -top - 1)
        p = draw(st.integers(1, 4))
        big_b = draw(st.booleans())
        big_shape, small_shape = (inner, p), (n_rows, inner)
        if not big_b:
            big_shape, small_shape = small_shape, big_shape
        # each factor holds its extreme, the other entries range up to it
        big = _with_entry(draw, _matrices(*big_shape, st.sampled_from((0, 1, -1) + edges)),
                          st.sampled_from(edges))
        small = _with_entry(draw, _matrices(*small_shape, st.sampled_from((0, 1, -1))),
                            st.sampled_from((1, -1)))
        return (small, big) if big_b else (big, small)
    inner = draw(st.integers(1, 5))
    p = {"non-square": draw(st.integers(1, 5).filter(lambda q: q != inner)),
         "one column": 1, "zero a": draw(st.integers(1, 5))}[kind]
    a = ((0,) * inner,) * n_rows if kind == "zero a" else draw(_matrices(n_rows, inner))
    return a, draw(_matrices(inner, p, _BIG_ENTRY if kind == "zero a" else _ENTRY))


@_PROPERTY
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda nkp: st.tuples(_matrices(*nkp[:2]), _matrices(*nkp[1:]))))
def test_mat_mul_matches_triple_loop(factors):
    a, b = factors
    assert linalg.mat_mul(a, b) == _triple_loop(a, b)


@pytest.mark.parametrize("kind", ["monomial", "one per row", "repeated column", "non-square",
                                  "one column", "zero a", "slot limits"])
@settings(_PROPERTY, max_examples=30)
@given(data=st.data())
def test_mat_mul_matches_triple_loop_by_factor_kind(kind, data):
    a, b = data.draw(_product_case(kind))
    product = linalg.mat_mul(a, b)
    assert product == _triple_loop(a, b)
    assert all(type(x) is int for row in product for x in row)


@_PROPERTY
@given(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda nkp: st.tuples(_matrices(*nkp[:2], _BIG_ENTRY), _matrices(*nkp[1:], _BIG_ENTRY))))
def test_packed_product_matches_triple_loop_on_large_entries(factors):
    a, b = factors
    product = linalg.mat_mul(a, b)
    assert product == _triple_loop(a, b)
    assert all(type(x) is int for row in product for x in row)


def test_packed_product_at_the_slot_limits():
    top = 2**63 - 1
    # one 64-bit slot: +-(2^63 - 1) side by side, and next to 0 and -1
    assert linalg.mat_mul(((top,), (-top,), (1,)), ((1, -1, 0, -1),)) == (
        (top, -top, 0, -top), (-top, top, 0, top), (1, -1, 0, -1))
    # -2^63 needs a bound of 2^63, so two words; the cells are exact
    bottom = -2**63
    assert linalg.mat_mul(((bottom,), (top,)), ((1, -1, 1),)) == (
        (bottom, -bottom, bottom), (top, -top, top))
    # a sum that lands exactly on the limits
    assert linalg.mat_mul(((2**62, 2**62 - 1), (-2**62, -2**62)), ((1, 0), (1, 1))) == (
        (top, 2**62 - 1), (bottom, -2**62))
    # each term fits one slot but the sum does not, so the bound counts
    # the inner dimension
    assert linalg.mat_mul(((2**62, 2**62), (-2**62, -2**62 - 1)), ((1,), (1,))) == (
        (2**63,), (bottom - 1,))
    for cells in (((top,),), ((-top,),), ((bottom,),)):
        assert linalg.mat_mul(cells, ((1,),)) == cells
        assert all(type(x) is int for x in linalg.mat_mul(cells, ((1,),))[0])


def test_monomial_columns():
    assert linalg.monomial_columns(((0, -2, 0), (0, 0, 1), (5, 0, 0))) == [1, 2, 0]
    # a row with two nonzeros, a column with two (and one with none) and a
    # zero row are not monomial
    for m in (((1, 1), (0, 1)), ((1, 0), (1, 0)), ((0, 0), (0, 1))):
        assert linalg.monomial_columns(m) is None, m


def test_is_zero_matrix():
    def by_generator(m):  # compares every entry with 0
        return all(x == 0 for row in m for x in row)

    cases = {
        (): True,
        ((), ()): True,
        ((0, 0, 0), (0, 0, 0)): True,
        ((0, 0, 0), (0, 0, 1)): False,
        ((0, -3), (0, 0)): False,
        ((-1,),): False,
        ((False, False), (False, False)): True,
        ((False, False), (False, True)): False,
    }
    for m, expected in cases.items():
        assert linalg.is_zero_matrix(m) is by_generator(m) is expected


def test_product_edge_shapes():
    # b with zero columns, inner dimension 0, and no rows in a
    assert linalg.mat_mul(((1, 2), (3, 4)), ((), ())) == ((), ())
    assert linalg.mat_mul(((), ()), ()) == ((), ())
    assert linalg.mat_mul((), ((1, 2), (3, 4))) == ()
    assert linalg.mat_mul((), ()) == ()
    # a zero factor: the cell bound is 0
    assert linalg.mat_mul(((0, 0),), ((5, 6), (7, 8))) == ((0, 0),)


def test_kernels_refuse_non_int_entries():
    # the pass's exact // would floor a Fraction, so the guard raises first
    for m in (((Fraction(1, 2), 1), (1, 1)), ((1, 2), (3, Fraction(4))), ((2.0, 1), (1, 1))):
        for kernel in (linalg.rank, linalg.prefix_ranks, linalg.det):
            with pytest.raises(TypeError, match="int entries"):
                kernel(m)
    # the product refuses a non-int operand with TypeError on every path,
    # never struct.error from its packing: as the largest entry or not, in
    # a or b, against a dense b of 8-byte or of wider slots, a monomial b,
    # or a zero a; in a monomial b as its nonzero entry or as a zero
    for bad in (Fraction(1, 2), Fraction(4), Fraction(0), 0.5, 4.0, 0.0):
        for odd in (((bad, 1), (1, 1)), ((bad, 9), (1, 1))):
            for ints in (((1, 2), (3, 4)), ((1, 0), (0, -1)), ((0, 0), (0, 0)),
                         ((2**70, 1), (3, 4))):
                for a, b in ((odd, ints), (ints, odd), (odd, odd)):
                    with pytest.raises(TypeError, match="int entries"):
                        linalg.mat_mul(a, b)
        for b in (((0, bad), (1, 0)), ((bad, 1), (1, 0)), ((0, 0, 1), (0, bad, 0), (1, 0, 0))):
            for a in (((1,) * len(b),), ((0,) * len(b),)):
                with pytest.raises(TypeError, match="int entries"):
                    linalg.mat_mul(a, b)
    # a bool is an int to both kernels: every result equals the one on the
    # same matrix written with 1 and 0, dense or monomial, square or not
    for m in (((True, False), (False, True)), ((False, True), (True, False)),
              ((True, True), (True, False)), ((True, False, True), (False, True, True)),
              ((True,),), ((False, False), (False, False))):
        ints = tuple(tuple(map(int, row)) for row in m)
        assert linalg.rank(m) == linalg.rank(ints), m
        assert linalg.prefix_ranks(m) == linalg.prefix_ranks(ints), m
        if len(m) == len(m[0]):
            assert linalg.det(m) == linalg.det(ints), m
        mt, ints_t = linalg.transpose(m), linalg.transpose(ints)
        for a, b, expected in ((m, mt, linalg.mat_mul(ints, ints_t)),
                               (mt, m, linalg.mat_mul(ints_t, ints)),
                               (ints, mt, linalg.mat_mul(ints, ints_t))):
            assert linalg.mat_mul(a, b) == expected, (a, b)


def test_nullspace_returns_primitive_int_vectors():
    # the rational basis vectors are (-1/2, 1, 0) and (-1/3, 0, 1)
    assert linalg.nullspace(((6, 3, 2),)) == ((-1, 2, 0), (-1, 0, 3))
    # Fraction input is fine for the Gauss-Jordan oracle; the basis is int
    basis = linalg.nullspace(((Fraction(1, 2), Fraction(1, 3), 1),))
    assert basis == ((-2, 3, 0), (-2, 0, 1))
    _assert_primitive_int_vectors(basis)
    assert linalg.mat_mul(((3, 2, 6),), linalg.transpose(basis)) == ((0, 0),)


@_PROPERTY
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(-3, 3).filter(bool))
def test_mat_mul_rejects_mismatched_shapes(n, k, p, skew):
    a = ((1,) * k,) * n
    with pytest.raises(ValueError):
        linalg.mat_mul(a, ((1,) * p,) * max(k + skew, 0))
    ragged = a[:-1] + ((1,) * (k + 1),)  # one row of a too long for b
    with pytest.raises(ValueError):
        linalg.mat_mul(ragged, ((1,) * p,) * k)
