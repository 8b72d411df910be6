"""Dense `Fraction` references and matrix wrappers for the tests.

`make_form` reads rank, signature and determinant off a fraction-free
integer elimination (`forms._inertia`).  The tests compare it with these
plain rational sweeps: a congruence diagonalization that also returns the
change of basis, and a Gaussian-elimination determinant.

The package eliminates sparse rows only; `rref` and `kernel_basis` wrap
`Subspace.from_vectors` and `kernel` (which takes the matrix's columns and
also returns the image's pivots, dropped here) for dense `QMatrix` inputs.
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
    reduced = Subspace.from_vectors(matrix.cols, matrix.entries).rows
    entries = [tuple(r.get(j, _ZERO) for j in range(matrix.cols)) for r in reduced.values()]
    entries += [(_ZERO,) * matrix.cols] * (matrix.rows - len(entries))
    return QMatrix(matrix.rows, matrix.cols, tuple(entries)), tuple(reduced), len(reduced)


def kernel_basis(matrix: QMatrix) -> Subspace:
    """Basis of {v : Mv = 0} with dim = cols - rank."""
    columns = [{i: row[j] for i, row in enumerate(matrix.entries)} for j in range(matrix.cols)]
    return kernel(columns)[0]
