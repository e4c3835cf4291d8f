"""Exact linear algebra over the integers.

Matrices are immutable tuples of row tuples; vectors are tuples.  The
kernels take and return ints only and never widen them to floats.

Two kernels do the work, and each one's docstring gives its scheme:
``mat_mul``, which applies a monomial right factor (one nonzero entry in
each row and column, as in every form the monodromy models build) as a
scaled column permutation and packs any other into one big-int product
(Kronecker substitution), and ``_bareiss``, one row-ordered fraction-free
elimination pass.  ``prefix_ranks`` reads the rank of every leading block
of rows off the pass, ``rank`` the number of pivots, and ``det`` the last
pivot, signed by the order of the pivot columns.  A non-int entry raises
TypeError in both kernels, by one rule (``_require_ints``): a ``Fraction``
would make the pass's exact divisions floor.  A bool is an int there.

Only ``rref``, ``inverse`` and ``nullspace`` use ``fractions.Fraction``,
since a reduced row echelon form and an inverse have intrinsic
denominators.  They run Gauss-Jordan elimination, apart from that pass, so
the tests can use them as its oracle; ``nullspace`` scales each basis
vector back to a primitive integer vector.

No runtime module calls ``rref``, ``inverse``, ``nullspace``, ``det``,
``same_span`` or ``row_space_contains``; the root-system oracle and the
tests do.  They stay in the package because the benchmark's traced run
binds each of them by name on this module, so moving them out needs a
benchmark change first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from operator import itemgetter, lshift, mul
from struct import Struct

Scalar = int
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def _lengths_are(n: int, m: Matrix) -> bool:
    return {n}.issuperset(map(len, m))


def _require_ints(rows, kernel: str) -> None:
    """TypeError unless every entry is an int (a bool is one): ``math.gcd``
    takes integers only, and one call per row costs less than a type scan."""
    try:
        for row in rows:
            gcd(*row)
    except TypeError:
        raise TypeError(f"{kernel} needs int entries") from None


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a·b, one row per row of a.

    Every entry of a and b must be an int (``_require_ints``), so a
    ``Fraction`` or float raises TypeError before any arithmetic, whichever
    path follows.

    A monomial b (see ``monomial_columns``) is a scaled column
    permutation: with src[j] the row of b whose nonzero entry lies in
    column j, cell (i, j) of a·b is a[i][src[j]]·b[src[j]][j], so each row
    is one gather and one elementwise product, with no packing.  A 1 × 1 b
    takes the packed path, as an ``itemgetter`` of one index returns an
    entry, not a tuple.

    Any other b is packed (Kronecker substitution): row k of b becomes the
    int sum_j b[k][j]·2^(w·j), with one slot width w = 64·s bits
    (``word_bytes`` = 8·s) for all cells, chosen so that every cell c of
    the product has |c| <= max(max|a|, 1)·max|b|·inner < 2^(w - 1).  Row i
    of a·b is then sum_k a[i][k]·packed[k], a dot product of big ints at C
    level.  With 8-byte slots one ``Struct`` packs a row of b as signed
    words, and ``from_bytes`` reads them as one unsigned int U.  That
    counts each negative word 2^64 too high, one unit of the next slot;
    its bit 63 is set, so U - ((U & bias) << 1), with ``bias`` the sum of
    2^(64·j + 63), takes exactly those units off.  The correction needs
    |b| < 2^63, which the bound gives only because it counts max|a| as at
    least 1.  Wider slots are packed by shifts.  Adding ``bias`` to each
    row of the product makes every slot a digit in [0, 2^w) with no borrow
    between slots, and XOR-ing it back out leaves each slot in w-bit two's
    complement, which is read as little-endian signed words.
    """
    inner = len(b)
    if not _lengths_are(inner, a):
        raise ValueError("matrix product needs len(row of a) == rows of b")
    p = len(b[0]) if b else 0
    if not _lengths_are(p, b):
        raise ValueError("rows of a matrix must have one length")
    _require_ints(chain(a, b), "matrix product")
    if not (a and inner and p):
        return tuple((0,) * p for _ in a)
    cols = monomial_columns(b) if inner == p > 1 else None
    if cols is not None:
        src = sorted(range(p), key=cols.__getitem__)
        take, scale = itemgetter(*src), [b[k][j] for j, k in enumerate(src)]
        # a list first: a tuple built from the map is resized as it grows
        return tuple(tuple(list(map(mul, take(row), scale))) for row in a)
    bound = (max(max(map(abs, chain.from_iterable(a))), 1)
             * max(map(abs, chain.from_iterable(b))) * inner)
    word_bytes = 8 * (bound.bit_length() // 64 + 1)
    bias = int.from_bytes((bytes(word_bytes - 1) + b"\x80") * p, "little")
    if word_bytes == 8:
        words = Struct(f"<{p}q")
        unsigned = (int.from_bytes(words.pack(*row), "little") for row in b)
        packed = [u - ((u & bias) << 1) for u in unsigned]
    else:
        shifts = range(0, 8 * word_bytes * p, 8 * word_bytes)
        packed = [sum(map(lshift, row, shifts)) for row in b]
    rows = [((sum(map(mul, row, packed)) + bias) ^ bias).to_bytes(word_bytes * p, "little")
            for row in a]
    if word_bytes == 8:
        return tuple(map(words.unpack, rows))
    return tuple(tuple(int.from_bytes(raw[j:j + word_bytes], "little", signed=True)
                       for j in range(0, len(raw), word_bytes)) for raw in rows)


def monomial_columns(m: Matrix) -> list[int] | None:
    """For a square m with exactly one nonzero entry in each row and in each
    column, the column of each row's nonzero entry; None for any other m."""
    n = len(m)
    cols = []
    for row in m:
        if row.count(0) != n - 1:
            return None
        cols.append(next(compress(count(), row)))
    return cols if len(set(cols)) == n else None


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b, strict=True))


def is_zero_matrix(m: Matrix) -> bool:
    return not any(map(any, m))


def _bareiss(m: Matrix) -> tuple[list[int], list[int], int]:
    """Row-ordered fraction-free (Bareiss-style) elimination of m.

    Each row receives every earlier pivot step in order.  After step j its
    entry in column x is the (j + 1)-minor of m on the first j pivot rows
    and the row itself, and on the first j pivot columns, in pivot order,
    and x; so the division by the pivot of step j - 1 is exact.  The minor
    on column x = the pivot column of step j is 0, so step j drops that
    column from the row, as it was dropped from its pivot row; no later
    step reads it.  A row left nonzero becomes the next pivot row, at its
    first nonzero column.

    Returns the pivot columns (indices of m) in pivot order, the rank of
    each leading block of rows and the last pivot (1 before the first).
    Rows of different lengths raise ValueError, and a non-int entry, on
    which ``//`` would floor, raises TypeError.
    """
    width = len(m[0]) if m else 0
    if not _lengths_are(width, m):
        raise ValueError("rows of a matrix must have one length")
    _require_ints(m, "elimination")
    live = list(range(width))  # the column of m at each place of a row
    steps = []  # pivot row without its pivot column, column, pivot, divisor
    cols = []
    ranks = []
    prev = 1
    for row in m:
        row = list(row)
        # every step must be applied, even with a zero in its pivot column,
        # or the later exact divisions lose their guarantee
        for top, c, piv, div in steps:
            factor = row.pop(c)
            row = [(piv * x - factor * y) // div for x, y in zip(row, top)]
        c = next(compress(count(), row), None)
        if c is not None:
            pivot = row.pop(c)
            steps.append((row, c, pivot, prev))
            prev = pivot
            cols.append(live.pop(c))
        ranks.append(len(cols))
    return cols, ranks, prev


def prefix_ranks(m: Matrix) -> tuple[int, ...]:
    """Rank of each leading block of rows: entry k - 1 is rank(m[:k])."""
    return tuple(_bareiss(m)[1])


def rank(m: Matrix) -> int:
    """Rank by fraction-free elimination: the number of pivots."""
    return len(_bareiss(m)[0])


def rref(m: Matrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [[Fraction(x) for x in row] for row in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def det(m: Matrix) -> int:
    """Determinant, read off the elimination of ``_bareiss`` (exact).

    Below full rank it is 0.  Otherwise every row is a pivot row, and the
    last pivot is the determinant of m with its columns in pivot order; the
    parity of that order gives the sign.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    cols, _, last = _bareiss(m)
    if len(cols) < n:
        return 0
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return -last if inversions % 2 else last


def inverse(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    n = len(m)
    aug = tuple(tuple(Fraction(x) for x in row) + tuple(identity(n)[i])
                for i, row in enumerate(m))
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red[:n])


def nullspace(m: Matrix) -> Matrix:
    """Basis of the right kernel, one primitive integer vector per free
    column: the rational vector with a 1 there, times the lcm of its
    denominators."""
    if not m:
        return ()
    n_cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        scale = lcm(*(x.denominator for x in v))
        basis.append(tuple(x.numerator * (scale // x.denominator) for x in v))
    return tuple(basis)


def row_space_contains(basis: Matrix, v: Vector) -> bool:
    return rank(basis) == rank(basis + (v,))


def same_span(a: Matrix, b: Matrix) -> bool:
    return rank(a) == rank(tuple(a) + tuple(b)) == rank(b)
