"""Exact linear algebra over the integers and the rationals.

Matrices are immutable tuples of row tuples; vectors are tuples.  Entries
are ints or ``fractions.Fraction`` and are never widened to floats.

Products, ``rank`` and the rank-based span tests keep integer input
integer; the monodromy layer is integer-only and uses nothing else.
``mat_mul`` checks the shapes once, transposes ``b`` once and sums each
cell as ``sum(map(mul, row, col))``, so the per-cell work runs at C level.
One fraction-free Bareiss pass, ``_bareiss``, clears each row's
denominators with one ``lcm`` (an all-integer row is used as it is) and
eliminates row by row: each new row is zipped with every earlier pivot row
in order.  ``prefix_ranks`` reads the rank of every leading block of rows
off it, ``rank`` the number of pivots, and ``det`` (a ``Fraction``) the
last pivot, signed by the order of the pivot columns and divided by the
row scales.  ``rref``, ``inverse`` and ``nullspace`` run Gauss-Jordan
elimination over ``Fraction``, apart from that pass, so the tests can use
them as its oracle.

No runtime module calls ``rref``, ``inverse``, ``nullspace``, ``det``,
``same_span`` or ``row_space_contains``; the root-system oracle and the
tests do.  They stay in the package because the benchmark's traced run
binds each of them by name on this module, so moving them out needs a
benchmark change first.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Scalar = Fraction | int
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("matrix product needs len(row of a) == rows of b")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b, strict=True))


def is_zero_matrix(m: Matrix) -> bool:
    return all(x == 0 for row in m for x in row)


def _bareiss(m: Matrix) -> tuple[list[int], list[int], int, int]:
    """Row-ordered fraction-free (Bareiss-style) elimination of m.

    Each row is first scaled by the lcm of its denominators (an all-integer
    row is used as it is).  It then receives every earlier pivot step in
    order.  After step j its entry in column x is the (j + 1)-minor of the
    scaled m on the first j pivot rows and the row itself, and on the first
    j pivot columns, in pivot order, and x; so the division by the pivot of
    step j - 1 is exact.  A row left nonzero becomes the next pivot row, at
    its first nonzero column.

    Returns the pivot columns in pivot order, the rank of each leading
    block of rows, the last pivot (1 before the first) and the product of
    the row scales.
    """
    steps = []  # row, column, pivot, divisor
    ranks = []
    prev = 1
    scales = 1
    for row in m:
        scale = lcm(*(x.denominator for x in row))
        if scale != 1:
            row = [int(x * scale) for x in row]
            scales *= scale
        # every step must be applied, even with a zero in its pivot column,
        # or the later exact divisions lose their guarantee
        for top, c, piv, div in steps:
            factor = row[c]
            row = [(piv * x - factor * y) // div for x, y in zip(row, top)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            steps.append((row, c, row[c], prev))
            prev = row[c]
        ranks.append(len(steps))
    return [c for _, c, _, _ in steps], ranks, prev, scales


def prefix_ranks(m: Matrix) -> tuple[int, ...]:
    """Rank of each leading block of rows: entry k - 1 is rank(m[:k])."""
    return tuple(_bareiss(m)[1])


def rank(m: Matrix) -> int:
    """Rank by fraction-free elimination: the number of pivots."""
    return len(_bareiss(m)[0])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
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


def det(m: Matrix) -> Fraction:
    """Determinant, read off the elimination of ``_bareiss`` (exact).

    Below full rank it is 0.  Otherwise every row is a pivot row, and the
    last pivot is the determinant of the scaled m with its columns in pivot
    order; the parity of that order gives the sign.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    cols, _, last, scales = _bareiss(m)
    if len(cols) < n:
        return Fraction(0)
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return Fraction(-last if inversions % 2 else last, scales)


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = tuple(tuple(Fraction(x) for x in row) + tuple(identity(n)[i])
                for i, row in enumerate(m))
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red[:n])


def nullspace(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the right kernel."""
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
        basis.append(tuple(v))
    return tuple(basis)


def row_space_contains(basis: Matrix, v: Vector) -> bool:
    return rank(basis) == rank(basis + (v,))


def same_span(a: Matrix, b: Matrix) -> bool:
    return rank(a) == rank(tuple(a) + tuple(b)) == rank(b)
