"""Dense `Fraction` references and matrix wrappers for the tests.

`make_form` reads rank, signature and determinant off a fraction-free
integer elimination (`forms._inertia`).  The tests compare it with these
plain rational sweeps: a congruence diagonalization that also returns the
change of basis, and a Gaussian-elimination determinant.

The package's one way into elimination is `kernel`, which takes the rows
of a map and also returns the image's pivots; `column_kernel` here reaches
it from the columns of a map, which the package never needs.  `kernel_basis`
wraps that for dense `QMatrix` inputs; `span` reaches the reduced echelon
basis of a span of rows through it, and `rref` wraps `span`.
"""

from fractions import Fraction

from fourfold.forms import NotSymmetric
from fourfold.linalg import QMatrix, Subspace, kernel

_ZERO = Fraction(0)
_ONE = Fraction(1)


def congruence_diagonalize(matrix: QMatrix) -> tuple[QMatrix, tuple[Fraction, ...]]:
    """Diagonalize a symmetric matrix by congruence.

    Returns (P, d) with P invertible and P^T S P = diag(d) exactly.  Only
    symmetric row/column operations are used, so the multiset of signs of d
    is the congruence invariant of S.
    """
    n = matrix.rows
    a = [list(r) for r in matrix.entries]
    if matrix.cols != n or any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise NotSymmetric("congruence diagonalization needs a symmetric matrix")
    p = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    for k in range(n):
        if not a[k][k]:
            j = next((i for i in range(k + 1, n) if a[i][i]), -1)
            if j >= 0:
                for t in range(n):
                    a[t][k], a[t][j] = a[t][j], a[t][k]
                a[k], a[j] = a[j], a[k]
                for t in range(n):
                    p[t][k], p[t][j] = p[t][j], p[t][k]
            else:
                j = next((i for i in range(k + 1, n) if a[k][i]), -1)
                if j < 0:
                    continue
                # No nonzero diagonal is available: fold column/row j into
                # k, which makes a[k][k] = 2 a[k][j] != 0.
                for t in range(n):
                    a[t][k] += a[t][j]
                for t in range(n):
                    a[k][t] += a[j][t]
                for t in range(n):
                    p[t][k] += p[t][j]
        piv = a[k][k]
        if not piv:
            continue
        for i in range(k + 1, n):
            f = a[k][i] / piv
            if f:
                for t in range(n):
                    a[t][i] -= f * a[t][k]
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    p[t][i] -= f * p[t][k]
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j]:
                raise AssertionError("congruence reduction left an off-diagonal entry")
    diag = tuple(a[i][i] for i in range(n))
    return QMatrix(n, n, tuple(tuple(row) for row in p)), diag


def determinant(matrix: QMatrix) -> Fraction:
    """Exact determinant via fraction elimination with row swaps."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    a = [list(r) for r in matrix.entries]
    det = _ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), -1)
        if pr < 0:
            return _ZERO
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        piv = a[c][c]
        det *= piv
        for i in range(c + 1, n):
            f = a[i][c]
            if f:
                f /= piv
                row = a[i]
                prow = a[c]
                for j in range(c, n):
                    if prow[j]:
                        row[j] -= f * prow[j]
    return det


def rref(matrix: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Reduced row echelon form of a matrix.

    Returns (R, pivot columns, rank); R is the unique RREF of the input.
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix.entries]
    reduced = span(matrix.cols, rows).rows
    entries = [tuple(r.get(j, _ZERO) for j in range(matrix.cols)) for r in reduced.values()]
    entries += [(_ZERO,) * matrix.cols] * (matrix.rows - len(entries))
    return QMatrix(matrix.rows, matrix.cols, tuple(entries)), tuple(reduced), len(reduced)


def column_kernel(columns) -> tuple[Subspace, frozenset]:
    """`kernel` of the map that sends basis vector j to `columns[j]`, keyed by j.

    Each column is a sparse dict keyed by any sortable coordinate of the
    target; its zero entries are left out of the rows.
    """
    last = len(columns) - 1
    rows: dict = {}
    for j, column in enumerate(columns):
        for key, x in column.items():
            if x:
                rows.setdefault(key, {})[last - j] = x
    return kernel(rows, range(len(columns)))


def kernel_basis(matrix: QMatrix) -> Subspace:
    """Basis of {v : Mv = 0} with dim = cols - rank."""
    columns = [{i: row[j] for i, row in enumerate(matrix.entries)} for j in range(matrix.cols)]
    return column_kernel(columns)[0]


def transpose(rows, ncols: int) -> list:
    """The columns of a matrix given by sparse rows, keyed by row index."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return columns


def span(ncols: int, rows) -> Subspace:
    """The reduced echelon basis of the span of sparse `rows` over columns
    0..ncols-1, by two kernels: the span is the annihilator of its
    annihilator, and the annihilator of some rows is the kernel of the map
    whose columns are their transpose."""
    annihilator, _ = column_kernel(transpose(rows, ncols))
    return column_kernel(transpose(annihilator.rows.values(), ncols))[0]


def dense(sub: Subspace) -> tuple[tuple, ...]:
    """The basis rows of a subspace keyed by column 0..n-1, as dense tuples."""
    n = sub.ambient_dim
    assert all(set(row) <= set(range(n)) for row in sub.rows.values())
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in sub.rows.values())
