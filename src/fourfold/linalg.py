"""Exact linear algebra over the rationals.

An exact rational is stored as an `int` when it is integral and as a
`fractions.Fraction` otherwise (`exact` puts an int or a Fraction in it);
nothing in this module ever touches floating point.  Degenerate shapes
(0 x n and n x 0) are legal everywhere.

Rows are sparse: dicts from a sortable key, a column index or a monomial
word, to nonzero value.  One routine, `_eliminate`, reduces rows against
echelon rows keyed by pivot, each led by its largest column, then
back-substitutes; rank, kernels and image pivots go through it, and only
this module knows which end of a row leads.  It is fraction-free: every
row stays integral, and it divides only at the end, each row by its pivot.
Reduced echelon bases are unique, so results depend only on the key order,
never on the row order.
`kernel` is the one way into elimination.  It takes a map as the rows it
eliminates, one per target coordinate, with column j at key j, and
eliminates them once; the kernel vectors read off that form are in reduced
echelon form, and the rows that survive name the pivots of the image, so
the rank of a map is the size of that set.  Every map reaches it in that
form: the differential from `gca.Derivation.rows`, the stage map from
`sullivan.QuasiMorphism.rows`.  `add_scaled`, acc += c * row in place, is
the one sparse accumulate outside elimination.  `QMatrix`, a dense matrix
with a transpose and a product, is used by no other module; the
acceptance suite builds U^T S U with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "QMatrix",
    "Subspace",
    "kernel",
    "exact",
    "add_scaled",
]


def exact(x) -> int | Fraction:
    """An int or Fraction `x` (no bool or float) as an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise ValueError(f"an exact rational is an int or a Fraction, not {type(x).__name__}")
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
    return tuple(Fraction(exact(x)) for x in row)


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
    """Clear, in place, the int columns of integral `v` that are pivots of `held`.

    `held` maps each pivot to an integral row whose largest column it is,
    with a positive entry a there; so a subtraction only creates entries
    left of its pivot, and a min-heap of negated columns clears the pivots
    from the largest down.  The entry f of v there goes by v -= f * row when
    a = 1, else by v = (a/g) v - (f/g) row with g = gcd(a, f), and then v is
    divided by the gcd of its entries: v stays integral.
    """
    heap = [-c for c in v if c in held]
    heapify(heap)
    while heap:
        p = -heappop(heap)
        f = v.pop(p, None)
        if f is None:  # pushed twice, or cancelled on the way
            continue
        row = held[p]
        a, f = row[p], -f
        if a != 1:
            g = gcd(a, f)
            a, f = a // g, f // g
            if a != 1:
                for j, x in v.items():
                    v[j] = a * x
        for j, x in row.items():
            if j == p:
                continue
            old = v.get(j)
            if old is None:
                v[j] = f * x
                if j in held:
                    heappush(heap, -j)
            else:
                new = old + f * x
                if new:
                    v[j] = new
                else:
                    del v[j]
        if a != 1 and v:
            g = gcd(*v.values())
            for j, x in v.items():
                v[j] = x // g
    return v


def _eliminate(rows: Iterable[dict]) -> dict:
    """Reduced echelon basis of the span of `rows`, keyed by ascending pivot.

    Consumes `rows`, fresh sparse dicts, in place and in order: each is
    reduced against the pivot rows kept so far, and its nonzero remainder,
    the same dict, is kept as the pivot row of its largest column.  So a
    row given is left `{}` exactly when it depends on the rows before it.
    A row enters integral, times the lcm of its denominators, and is kept
    with a positive lead.  The kept rows are back-substituted, lowest pivot
    first, and only then divided by their pivots, through `exact`.
    """
    held: dict = {}
    for v in rows:
        denominators = [x.denominator for x in v.values() if type(x) is not int]
        if denominators:
            scale = lcm(*denominators)
            for j, x in v.items():
                v[j] = int(x * scale)  # exact: scale clears every denominator
        if not held.keys().isdisjoint(v):
            _reduce(v, held)
        if v:
            lead = max(v)
            if v[lead] < 0:
                for j, x in v.items():
                    v[j] = -x
            held[lead] = v
    done: dict = {}
    for p in sorted(held):
        if not done.keys().isdisjoint(held[p]):
            _reduce(held[p], done)
        done[p] = held[p]
    for p, row in done.items():
        if row[p] != 1:
            pivot = row[p]
            for j, x in row.items():
                row[j] = exact(Fraction(x, pivot))
    return done


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
        """Whether the sparse row `vector` lies in the subspace: the rows vanish
        at each other's pivots, so it must be the sum of vector[p] * row p."""
        rest = dict(vector)
        for p, x in vector.items():
            if p in self.rows:
                add_scaled(rest, -x, self.rows[p])
        return not rest


def kernel(rows: dict, keys: Sequence) -> tuple[Subspace, frozenset]:
    """Kernel of a map given by its rows, keyed by `keys`, and the pivots of
    its image.

    Column j at key j: `rows` maps each sortable coordinate of the target
    to a fresh sparse row of nonzero entries, in which entry j is that
    coordinate of the image of basis vector `keys[j]`.  `gca.Derivation.rows`
    assembles a differential in this form and `sullivan.QuasiMorphism.rows`
    the stage map.  The rows, taken in sorted order of their coordinates,
    are consumed in place by one `_eliminate` to R.  A free column f of R
    gives e_f - sum_p R[p][f] e_p, nonzero only at f and pivots p > f: it
    leads with 1 at a free column and vanishes at every other one, the
    kernel's reduced echelon basis, its rows keyed by `keys` (which ascend).
    The row of a coordinate survives exactly when it is independent of the
    rows before it, the rule for a pivot of the image's reduced echelon
    basis: those coordinates are the second value.
    """
    targets = sorted(rows)
    reduced = _eliminate([rows[t] for t in targets])
    vectors = {key: {key: 1} for j, key in enumerate(keys) if j not in reduced}
    for p, row in reduced.items():
        lead = keys[p]
        for f, x in row.items():
            if f != p:
                vectors[keys[f]][lead] = -x
    return Subspace(len(keys), vectors), frozenset(t for t in targets if rows[t])
