"""Exact linear algebra: rank/rref/det/nullspace agree with each other and
with hand values; everything stays rational."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import mat_vec
from helpers_roots import solve
from mtcheck import linalg


def _random_matrix(rng, rows, cols, frac=False):
    def entry():
        if frac and rng.random() < 0.3:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        return rng.randint(-9, 9)
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def _rank_by_rref(m):
    _, pivots = linalg.rref(m)
    return len(pivots)


@pytest.mark.parametrize("seed", range(30))
def test_rank_matches_rref(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), frac=True)
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
    assert linalg.mat_mul(m, inv) == tuple(
        tuple(Fraction(x) for x in row) for row in linalg.identity(n)
    )
    assert d * linalg.det(inv) == 1


@pytest.mark.parametrize("seed", range(20))
def test_nullspace_is_kernel(seed):
    rng = random.Random(200 + seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    basis = linalg.nullspace(m)
    n_cols = len(m[0])
    assert len(basis) == n_cols - linalg.rank(m)
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))


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


# Hypothesis properties: the integer kernels (row-lcm scaling, zipped
# Bareiss updates, C-level products) against plain Fraction references.

_PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                     deadline=None)
# zeros are drawn often, so zero pivot columns and dependent rows are common
_ENTRY = st.one_of(st.just(0), st.integers(-5, 5),
                   st.fractions(min_value=-5, max_value=5, max_denominator=6))
_INT_ENTRY = st.one_of(st.just(0), st.integers(-9, 9))


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
    return linalg.mat_mul(draw(_matrices(rows, rows - 1, _INT_ENTRY)),
                          draw(_matrices(rows - 1, cols, _INT_ENTRY)))


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
    assert d == 1 and isinstance(d, Fraction)
    assert linalg.nullspace(()) == ()
    # Fraction rows: the second is twice the first and leaves the rank as it is
    third = Fraction(1, 3)
    assert linalg.prefix_ranks(((1, Fraction(1, 2), 0), (2, 1, 0),
                                (0, third, 1), (third, 0, 0))) == (1, 1, 2, 3)


@_PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: _matrices(n, n)))
def test_det_matches_fraction_elimination(m):
    d = linalg.det(m)
    assert isinstance(d, Fraction)
    assert d == _fraction_rank_det(m)[1]


@_PROPERTY
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda nkp: st.tuples(_matrices(*nkp[:2]), _matrices(*nkp[1:]))))
def test_mat_mul_matches_triple_loop(factors):
    a, b = factors
    n, k, p = len(a), len(b), len(b[0])
    expected = tuple(tuple(sum((a[i][j] * b[j][q] for j in range(k)), 0)
                           for q in range(p)) for i in range(n))
    assert linalg.mat_mul(a, b) == expected


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
