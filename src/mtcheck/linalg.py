"""Exact linear algebra over the integers and the rationals.

Matrices are immutable tuples of row tuples; vectors are tuples.  Entries
are ints or ``fractions.Fraction`` and are never widened to floats.

Products, ``rank`` and the rank-based span tests keep integer input
integer; the monodromy layer is integer-only and uses nothing else.
``mat_mul`` checks the shapes once, transposes ``b`` once and sums each
cell as ``sum(map(mul, row, col))``, so the per-cell work runs at C level.
``prefix_ranks`` clears each row's denominators with one ``lcm`` (an
all-integer row is copied as it is) and runs fraction-free Bareiss
elimination row by row: each new row is zipped with every earlier pivot
row in order, so one pass gives the rank of every leading block of rows.
``rank`` is its last entry.  ``det`` is Bareiss by columns and returns a
``Fraction``.  ``rref``, ``inverse`` and ``nullspace`` run Gauss-Jordan
elimination over ``Fraction``.

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


def _int_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Each row scaled by the lcm of its denominators, and the product of
    those scales (rank ignores it; det divides by it).  An int has
    denominator 1, so an all-integer row is copied unchanged."""
    out = []
    scales = 1
    for row in m:
        scale = lcm(*(x.denominator for x in row))
        out.append(list(row) if scale == 1 else [int(x * scale) for x in row])
        scales *= scale
    return out, scales


def prefix_ranks(m: Matrix) -> tuple[int, ...]:
    """Rank of each leading block of rows: entry k - 1 is rank(m[:k]).

    Row-ordered fraction-free (Bareiss-style) elimination.  Each new row
    receives every earlier pivot step in order, so after step j its entries
    are (j + 1)-minors of m and the division by the pivot of step j - 1 is
    exact.  A row left nonzero becomes the next pivot row, at its first
    nonzero column.
    """
    rows, _ = _int_rows(m)
    steps: list[tuple[list[int], int, int, int]] = []  # row, column, pivot, divisor
    ranks = []
    prev = 1
    for row in rows:
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
    return tuple(ranks)


def rank(m: Matrix) -> int:
    """Rank by fraction-free elimination: the last of the prefix ranks."""
    return prefix_ranks(m)[-1] if m else 0


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
    """Determinant by Bareiss elimination (exact)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    rows, denom = _int_rows(m)
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        top = rows[c]
        piv = top[c]
        for i in range(c + 1, n):
            row = rows[i]
            factor = row[c]
            rows[i] = [(piv * x - factor * y) // prev for x, y in zip(row, top)]
        prev = piv
    return Fraction(sign * rows[n - 1][n - 1], 1) / denom


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
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    return rank(basis) == rank(basis + (v,))


def same_span(a: Matrix, b: Matrix) -> bool:
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    if ra != rb:
        return False
    joint = tuple(a) + tuple(b)
    return (rank(joint) if joint else 0) == ra
