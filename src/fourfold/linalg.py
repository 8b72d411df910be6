"""Exact linear algebra over the rationals.

An exact rational is stored as an `int` when it is integral and as a
`fractions.Fraction` otherwise (`exact` puts a value in that form), so
elimination multiplies plain integers wherever it can; nothing in this
module ever touches floating point.  Degenerate shapes (0 x n and
n x 0) are legal everywhere.

Rows are sparse: dicts from column index to nonzero value.  One routine,
`_eliminate`, reduces rows against echelon rows keyed by pivot column,
lowest pivot first, then back-substitutes; rank, kernels, complements and
membership all go through it.  Reduced echelon bases are unique, so results
depend only on the column order, never on the row order.  A kernel takes one
elimination, of its system with the columns reversed: the kernel vectors read
off that form are already in reduced echelon form in the original order
(`kernel_from_reduced`).  Functions taking rows accept sparse or dense ones,
and `Subspace.basis` gives dense tuples.  `QMatrix`, a dense matrix with a
transpose and a product, is used by no other module of the package; the
acceptance suite builds unimodular congruences U^T S U with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

__all__ = [
    "NotContained",
    "QMatrix",
    "Subspace",
    "row_reduce",
    "kernel_basis_from_rows",
    "kernel_from_reduced",
    "complement_in",
    "exact",
]


class NotContained(ValueError):
    """The claimed subspace inclusion does not hold."""


def exact(x) -> int | Fraction:
    """`x` as the engine stores a rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _fraction_row(row: Iterable) -> tuple[Fraction, ...]:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)


@dataclass(frozen=True)
class QMatrix:
    """Immutable dense rational matrix, row major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable], cols: int | None = None) -> "QMatrix":
        data = tuple(_fraction_row(r) for r in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return QMatrix(len(data), cols, data)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols,
            self.rows,
            tuple(
                tuple(self.entries[i][j] for i in range(self.rows))
                for j in range(self.cols)
            ),
        )

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        out = []
        for i in range(self.rows):
            srow = self.entries[i]
            nz = [(k, srow[k]) for k in range(self.cols) if srow[k]]
            acc = [Fraction(0)] * other.cols
            for k, v in nz:
                orow = other.entries[k]
                for j in range(other.cols):
                    if orow[j]:
                        acc[j] += v * orow[j]
            out.append(tuple(acc))
        return QMatrix(self.rows, other.cols, tuple(out))


def _sparse(vector, ncols: int) -> dict:
    """A fresh sparse copy, without zeros, of a row given as a dict or a dense sequence."""
    if isinstance(vector, dict):
        if vector and (min(vector) < 0 or max(vector) >= ncols):
            raise ValueError("row has a column beyond the ambient dimension")
        if all(vector.values()):
            return dict(vector)
        return {j: x for j, x in vector.items() if x}
    if len(vector) != ncols:
        raise ValueError("row length mismatch")
    return {j: x for j, x in enumerate(_fraction_row(vector)) if x}


def _dense(row: dict, ncols: int) -> tuple:
    return tuple(row.get(j, 0) for j in range(ncols))


def _reduce(v: dict, held: dict) -> dict:
    """Clear, in place, the columns of `v` that are pivots of `held`.

    `held` maps each pivot to a row whose smallest column it is, with entry
    1 there; so a subtraction only creates entries right of its pivot.
    """
    heap = [c for c in v if c in held]
    if not heap:
        return v
    heapify(heap)
    while heap:
        p = heappop(heap)
        f = v.pop(p, None)
        if f is None:  # pushed twice, or cancelled on the way
            continue
        f = -f
        for j, x in held[p].items():
            if j == p:
                continue
            old = v.get(j)
            if old is None:
                v[j] = f * x
                if j in held:
                    heappush(heap, j)
            else:
                new = old + f * x
                if new:
                    v[j] = new
                else:
                    del v[j]
    return v


def _eliminate(rows: Iterable[dict]) -> dict:
    """Reduced echelon basis of the span of `rows`, keyed by ascending pivot.

    Consumes `rows`, fresh sparse dicts: each is reduced against the pivot
    rows kept so far and its nonzero remainder kept as a new pivot row; the
    kept rows are then back-substituted, highest pivot first, and put in the
    form of `exact`.  A pivot of 1 or -1 keeps integer rows integral; any
    other is divided out as a Fraction, the only division of the engine.
    """
    held: dict = {}
    for v in rows:
        _reduce(v, held)
        if v:
            lead = min(v)
            pivot = v[lead]
            if pivot == -1:
                for j, x in v.items():
                    v[j] = -x
            elif pivot != 1:
                scale = Fraction(1) / pivot
                for j, x in v.items():
                    v[j] = x * scale
            held[lead] = v
    pivots = sorted(held)
    done: dict = {}
    for p in reversed(pivots):
        row = done[p] = _reduce(held[p], done)
        for j, x in row.items():
            if type(x) is not int:
                row[j] = exact(x)
    return {p: done[p] for p in pivots}


def row_reduce(rows: Sequence, ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of a row list.

    Returns (pivot rows, pivot columns), both in ascending pivot order; the
    pivot rows are sparse and the zero rows of the echelon form are left out.
    """
    echelon = _eliminate([_sparse(r, ncols) for r in rows])
    return list(echelon.values()), list(echelon)


class Subspace:
    """Subspace of Q^n stored by its unique reduced echelon basis.

    `rows` maps each pivot column, in ascending order, to a sparse basis row
    with entry 1 there and zeros in the other pivot columns, so equal
    subspaces compare equal.  The constructor takes such a dict as it is;
    `from_vectors` reduces any spanning rows to one.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: dict):
        self.ambient_dim = ambient_dim
        self.rows = rows

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence) -> "Subspace":
        rows = _eliminate([_sparse(v, ambient_dim) for v in vectors])
        return Subspace(ambient_dim, rows)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, {})

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple, ...]:
        """The basis rows as dense tuples."""
        return tuple(_dense(r, self.ambient_dim) for r in self.rows.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Subspace({self.ambient_dim}, {self.rows!r})"


def kernel_basis_from_rows(rows: Sequence, ncols: int) -> Subspace:
    """Kernel of the linear map whose constraint rows are given."""
    flipped = [{ncols - 1 - j: x for j, x in _sparse(r, ncols).items()} for r in rows]
    reduced, pivots = row_reduce(flipped, ncols)
    return kernel_from_reduced(reduced, pivots, ncols)


def kernel_from_reduced(
    reduced: Sequence[dict], pivots: Sequence[int], ncols: int
) -> Subspace:
    """Kernel read off the reduced echelon form R of a column-reversed system.

    R (`reduced`, `pivots`) holds column j of the system at ncols - 1 - j.
    A free column f' gives e_f' - sum_p' R[p'][f'] e_p', nonzero only at f'
    and pivots p' < f'; in the original order it leads with 1 at a free column
    and vanishes at every other one: the kernel's reduced echelon basis.
    """
    last = ncols - 1
    vectors = {f: {f: 1} for f in range(ncols)}
    for p in pivots:
        del vectors[last - p]
    for p, row in zip(pivots, reduced):
        for f, x in row.items():
            if f != p:
                vectors[last - f][last - p] = -x
    return Subspace(ncols, vectors)


def complement_in(sub: Subspace, within: Subspace) -> Subspace:
    """Deterministic complement of `sub` inside `within`.

    Raises NotContained unless every basis vector of `sub` lies in `within`.
    The result is the part of `within` that vanishes on the pivot columns of
    `sub`: together with `sub` it spans `within` and meets `sub` only in 0.
    The pivots of `sub` are pivots of `within`, whose other reduced rows
    vanish there, so those rows are already its reduced echelon basis.
    """
    if sub.ambient_dim != within.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for row in sub.rows.values():
        if _reduce(dict(row), within.rows):
            raise NotContained("subspace is not contained in the ambient one")
    kept = {p: row for p, row in within.rows.items() if p not in sub.rows}
    return Subspace(sub.ambient_dim, kept)
