"""Exact linear algebra over the rationals.

An exact rational is stored as an `int` when it is integral and as a
`fractions.Fraction` otherwise (`exact` puts a value in that form), so
elimination multiplies plain integers wherever it can; nothing in this
module ever touches floating point.  Degenerate shapes (0 x n and
n x 0) are legal everywhere.

Rows are sparse: dicts from a sortable key, a column index or a monomial
word, to nonzero value.  One routine, `_eliminate`, reduces rows against
echelon rows keyed by pivot, lowest first, then back-substitutes; rank,
kernels and image pivots go through it, and membership
(`Subspace.contains`) through its reduction step.  Reduced echelon bases
are unique, so results depend only on the key order, never on the row
order.  `kernel` is the one way into elimination.  It takes a map as the
rows it eliminates, one per target coordinate, with the columns reversed
(its docstring states that contract), and eliminates them once; the kernel
vectors read off that form are in reduced echelon form in the original
order, and the rows that survive name the pivots of the image, so the rank
of a map is the size of that set.  Every map reaches it in that form:
the differential from `gca.Derivation.rows`, the stage map from
`sullivan.QuasiMorphism.rows`.  `add_scaled`, acc += c * row in
place, is the one sparse accumulate outside elimination.  `QMatrix`, a dense
matrix with a transpose and a product, is used by no other module; the
acceptance suite builds U^T S U with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

__all__ = [
    "QMatrix",
    "Subspace",
    "kernel",
    "exact",
    "add_scaled",
]


def exact(x) -> int | Fraction:
    """`x` as the engine stores a rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def add_scaled(acc: dict, coeff, row: dict) -> dict:
    """acc += coeff * row on sparse rows, in place; an entry that cancels is deleted."""
    for j, x in row.items():
        s = acc.get(j, 0) + coeff * x
        if s:
            acc[j] = s
        elif j in acc:
            del acc[j]
    return acc


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

    Consumes `rows`, fresh sparse dicts, in place and in order: each is
    reduced against the pivot rows kept so far, and its nonzero remainder is
    kept as a new pivot row, which is the same dict as the row given.  So a
    row given is left `{}` exactly when it depends on the rows before it.
    The kept rows are then back-substituted, highest pivot first, and put in
    the form of `exact`.  A pivot of 1 or -1 keeps integer rows integral; any
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


class Subspace:
    """Subspace of Q^n stored by its unique reduced echelon basis.

    `rows` maps each pivot, ascending, to a sparse basis row with entry 1
    there and zeros at the other pivots, so equal subspaces compare equal;
    the pivots are columns or other sortable keys, such as one degree's
    words.  The constructor takes such a dict as it is; `kernel` builds
    one for the kernel of a map.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: dict):
        self.ambient_dim = ambient_dim
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Subspace({self.ambient_dim}, {self.rows!r})"

    def contains(self, vector: dict) -> bool:
        """Whether the sparse row `vector` lies in the subspace."""
        return not _reduce(dict(vector), self.rows)


def kernel(rows: dict, keys: Sequence) -> tuple[Subspace, frozenset]:
    """Kernel of a map given by its rows, keyed by `keys`, and the pivots of
    its image.

    The rows contract, the one statement of the position convention:
    `rows` maps each sortable coordinate of the target to a fresh sparse row
    of nonzero entries, in which column j of the map, the image of basis
    vector `keys[j]`, sits at position len(keys) - 1 - j.  `gca.Derivation.rows`
    assembles a differential in this form and `sullivan.QuasiMorphism.rows`
    the stage map.  The rows, taken in sorted order of their coordinates,
    are consumed in place by one `_eliminate` to R.  A free
    column f' of R gives e_f' - sum_p' R[p'][f'] e_p', nonzero only at f' and
    pivots p' < f'; in the original order it leads with 1 at a free column and
    vanishes at every other one: the kernel's reduced echelon basis, its rows
    keyed by `keys` (which ascend).  The row of a coordinate survives exactly
    when it is independent of the rows before it, the rule for a pivot of the
    image's reduced echelon basis: those coordinates are the second value.
    """
    last = len(keys) - 1
    targets = sorted(rows)
    reduced = _eliminate([rows[t] for t in targets])
    vectors = {key: {key: 1} for j, key in enumerate(keys) if last - j not in reduced}
    for p, row in reduced.items():
        lead = keys[last - p]
        for f, x in row.items():
            if f != p:
                vectors[keys[last - f]][lead] = -x
    return Subspace(len(keys), vectors), frozenset(t for t in targets if rows[t])

