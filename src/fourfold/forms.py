"""Closed oriented simply connected four-manifolds via their intersection forms.

An intersection form is a symmetric unimodular integer matrix; rank,
signature and determinant are computed exactly, in integers, by
fraction-free symmetric elimination.  From the form we present the rational
cohomology algebra by its diagonalized pairing (degrees 0, 2 and 4, zero
differential), take the homotopy ranks from one divisor sum, and classify
rational homotopy type by rank and signature.  A small catalog covers the
classical examples: complex projective hypersurfaces, complete
intersections, the K3 surface and connected sums of projective planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "NotSymmetric",
    "NotUnimodular",
    "IntersectionForm",
    "CohomologyAlgebra",
    "RankTable",
    "make_form",
    "cohomology_algebra",
    "algebra_from_split",
    "closed_form_ranks",
    "loop_space_ranks",
    "hypersurface_b2",
    "complete_intersection_b2",
    "rationally_equivalent",
    "canonical_connected_sum",
    "diagonal_form",
    "empty_form",
    "hyperbolic_form",
    "e8_form",
    "k3_form",
    "connected_sum_form",
]


class NotSymmetric(ValueError):
    """A symmetric matrix was required."""


class NotUnimodular(ValueError):
    """The matrix determinant is not +1 or -1."""


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric unimodular integer matrix with rank and signature split."""

    matrix: tuple[tuple[int, ...], ...]
    b2: int
    b2_plus: int
    b2_minus: int

    @property
    def rank(self) -> int:
        return self.b2

    @property
    def signature(self) -> int:
        return self.b2_plus - self.b2_minus


def _validated_int(x) -> int:
    # bools are ints in Python; a form entry must be a plain integer
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"form entries must be integers, got {x!r}")
    return x


def _inertia(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(plus, minus, det) of a symmetric integer matrix, in integers only.

    Symmetric fraction-free elimination (Bareiss, Math. Comp. 22, 1968):
    after step k the trailing block is D_k times the Schur complement of the
    leading block, D_k its determinant and the last pivot, so every update
    divides exactly by the pivot before.  A zero pivot is replaced by a
    later nonzero diagonal entry (swap) or else by folding in a column j
    with a[k][j] != 0, giving 2 a[k][j]; both are unimodular congruences on
    indices >= k, so the leading minors and the exact divisions stay.  A
    zero row of the trailing block is a zero of the diagonal and is skipped.
    The diagonal entry D_k / D_{k-1} is positive when both minors have the
    same sign.
    """
    a = [list(r) for r in rows]
    n = len(a)
    plus = minus = 0
    prev = 1
    for k in range(n):
        if not a[k][k]:
            j = next((i for i in range(k + 1, n) if a[i][i]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((i for i in range(k + 1, n) if a[k][i]), None)
                if j is None:
                    continue
                for row in a:
                    row[k] += row[j]
                a[k] = [x + y for x, y in zip(a[k], a[j])]
        piv = a[k][k]
        if (piv > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        top = a[k][k + 1 :]
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = piv
    return plus, minus, prev if plus + minus == n else 0


def make_form(matrix: Sequence[Sequence[int]]) -> IntersectionForm:
    """Validate a square symmetric integer matrix and derive its invariants.

    Rank, signature split and determinant come from `_inertia`.  The empty
    0 x 0 matrix is the rank-zero form (the four-sphere class), with
    determinant 1.  |det| must be 1; the negative-definite diagonal forms
    are legal (det -1 in odd rank).
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("form matrix must be square")
    data = tuple(tuple(_validated_int(x) for x in r) for r in rows)
    for i in range(n):
        for j in range(i):
            if data[i][j] != data[j][i]:
                raise NotSymmetric("intersection form must be symmetric")
    plus, minus, det = _inertia(data)
    if det != 1 and det != -1:
        raise NotUnimodular(f"determinant is {det}, expected +1 or -1")
    return IntersectionForm(data, n, plus, minus)


# ---------------------------------------------------------------- catalog


def diagonal_form(entries: Sequence[int]) -> IntersectionForm:
    n = len(entries)
    return make_form([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def empty_form() -> IntersectionForm:
    return make_form([])


def hyperbolic_form() -> IntersectionForm:
    return make_form([[0, 1], [1, 0]])


_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))


def e8_form(negative: bool = False) -> IntersectionForm:
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2
    for i, j in _E8_EDGES:
        rows[i][j] = rows[j][i] = -1
    if negative:
        rows = [[-x for x in r] for r in rows]
    return make_form(rows)


def _block_diagonal(blocks: Sequence[IntersectionForm]) -> list[list[int]]:
    size = sum(b.b2 for b in blocks)
    rows = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i in range(b.b2):
            for j in range(b.b2):
                rows[offset + i][offset + j] = b.matrix[i][j]
        offset += b.b2
    return rows


def k3_form() -> IntersectionForm:
    """Three hyperbolic planes plus two negative E8 blocks: b2 22, signature -16."""
    h = hyperbolic_form()
    e8m = e8_form(negative=True)
    return make_form(_block_diagonal([h, h, h, e8m, e8m]))


def connected_sum_form(plus: int, minus: int) -> IntersectionForm:
    return diagonal_form([1] * plus + [-1] * minus)


# --------------------------------------------------------- cohomology algebra


@dataclass(frozen=True)
class CohomologyAlgebra:
    """Rational cohomology of a four-manifold, given by its diagonalized pairing.

    Degree 0 is spanned by the unit, degree 2 by classes x1..xb2 that
    diagonalize the intersection pairing, degree 4 by the volume class V; at
    rank zero only the unit and V remain.  The only products of
    positive-degree classes that can be nonzero are given by the pairing,
    x_i * x_j = sign(i) V if i == j and 0 otherwise (`pair`); every other one
    lands above degree 4.  Vectors are sparse dicts from basis index to
    nonzero coefficient.  The differential is zero throughout.
    """

    b2: int
    b2_plus: int
    b2_minus: int

    def __post_init__(self) -> None:
        if self.b2 != self.b2_plus + self.b2_minus or min(self.b2_plus, self.b2_minus) < 0:
            raise ValueError("invalid signature split")

    @property
    def signature(self) -> int:
        return self.b2_plus - self.b2_minus

    def dim(self, degree: int) -> int:
        if degree == 0 or degree == 4:
            return 1
        if degree == 2:
            return self.b2
        return 0

    def sign(self, i: int) -> int:
        return 1 if i < self.b2_plus else -1

    def pair(self, a: dict, b: dict) -> dict:
        """Product of two degree-2 vectors: a multiple of V, as a sparse vector."""
        if len(b) < len(a):
            a, b = b, a
        acc = 0
        for i, x in a.items():
            y = b.get(i)
            if y is not None:
                acc += x * y * self.sign(i)
        return {0: acc} if acc else {}


def cohomology_algebra(form: IntersectionForm) -> CohomologyAlgebra:
    return CohomologyAlgebra(form.b2, form.b2_plus, form.b2_minus)


def algebra_from_split(plus: int, minus: int) -> CohomologyAlgebra:
    return CohomologyAlgebra(plus + minus, plus, minus)


# ---------------------------------------------------------------- rank tables


@dataclass(frozen=True)
class RankTable:
    """Known homotopy group ranks by degree.

    When `finite_tail` is set, every unlisted degree has rank zero (the
    rationally elliptic cases).  Otherwise unlisted degrees are unknown
    rather than zero.
    """

    ranks: Mapping[int, int] = field(default_factory=dict)
    finite_tail: bool = False

    def rank(self, degree: int):
        if degree in self.ranks:
            return self.ranks[degree]
        return 0 if self.finite_tail else None


def closed_form_ranks(b2: int, max_degree: int = 7) -> RankTable:
    """Ranks of the rational homotopy groups as functions of b2 alone.

    Ranks 0 to 2 are rationally elliptic, with a full table.  For b2 >= 2 the
    table lists the nonzero `loop_space_ranks` up to degree 4 (5 at rank 3);
    above rank 2 it is infinite-dimensional and higher degrees are unknown.
    """
    if b2 < 0:
        raise ValueError("b2 must be nonnegative")
    if b2 <= 1:
        entries = {4: 1, 7: 1} if b2 == 0 else {2: 1, 5: 1}
    else:
        ranks = loop_space_ranks(b2, 5 if b2 == 3 else 4)
        entries = {r: v for r, v in ranks.items() if v}
    entries = {r: v for r, v in entries.items() if r <= max_degree}
    return RankTable(entries, b2 <= 2)


def loop_space_ranks(b2: int, max_degree: int) -> dict[int, int]:
    """rk pi_r for every 2 <= r <= max_degree, from the loop-space homology.

    For b2 >= 2 the top cell is attached by an inert map (Halperin-Lemaire,
    Math. Scand. 1987), so H_*(Omega M; Q) has Poincare series
    1 / (1 - b2 t + t^2) = 1 / ((1 - alpha t)(1 - beta t)).  By Milnor-Moore
    and Poincare-Birkhoff-Witt (Felix-Halperin-Thomas, section 33) that is
    prod_{i odd} (1 + t^i)^r_{i+1} / prod_{i even} (1 - t^i)^r_{i+1}, r_k =
    rk pi_k.  With a_d = (-1)^d r_{d+1} and the Lucas numbers V_n = alpha^n +
    beta^n = b2 V_{n-1} - V_{n-2} (V_0 = 2, V_1 = b2), n times the t^n terms of
    the logarithms read sum_{d | n} d a_d = (-1)^n V_n, solved for a_n here.
    Moebius inversion gives rk pi_{n+1} = ((-1)^{n+1} / n) sum_{d | n}
    mu(n/d) (-1)^{d+1} V_d, whose cases n = 2, 3 are b2 (b2 + 1) / 2 - 1 and
    b2 (b2^2 - 4) / 3.  For b2 <= 1 (S^4, CP^2) the elliptic tables apply.
    """
    if b2 <= 1:
        table = closed_form_ranks(b2, max_degree)
        return {r: table.rank(r) for r in range(2, max_degree + 1)}
    lucas, prev = b2, 2  # V_n and V_{n-1}
    below = [0] * max_degree  # below[n]: sum of d a_d over the divisors d < n of n
    ranks = {}
    for n in range(1, max_degree):
        sign = -1 if n % 2 else 1
        a = (sign * lucas - below[n]) // n  # exact: a_n is an integer
        for m in range(2 * n, max_degree, n):
            below[m] += n * a
        ranks[n + 1] = sign * a
        lucas, prev = b2 * lucas - prev, lucas
    return ranks


def hypersurface_b2(d: int) -> int:
    """Second Betti number of a smooth degree-d surface in complex projective 3-space."""
    if d < 1:
        raise ValueError("degree must be positive")
    return d * (6 - 4 * d + d * d) - 2


def complete_intersection_b2(degrees: Sequence[int]) -> int:
    """Second Betti number of a complete intersection surface of the given type.

    Computed from the Euler characteristic
    e = [C(n+3,2) - (n+3)*sum d_i + sum d_i^2 + sum_{i<j} d_i d_j] * prod d_i
    as e - 2.  The single-degree case reproduces the hypersurface formula.
    """
    ds = list(degrees)
    if not ds:
        raise ValueError("at least one degree is required")
    for d in ds:
        if d < 1:
            raise ValueError("degrees must be positive")
    n = len(ds)
    s1 = sum(ds)
    s2 = sum(d * d for d in ds)
    cross = sum(ds[i] * ds[j] for i in range(n) for j in range(i + 1, n))
    bracket = math.comb(n + 3, 2) - (n + 3) * s1 + s2 + cross
    e = bracket * math.prod(ds)
    return e - 2


# ------------------------------------------------------------- classification


def rationally_equivalent(q1: IntersectionForm, q2: IntersectionForm) -> bool:
    """Rational equivalence of unimodular forms: same rank and signature."""
    return q1.rank == q2.rank and q1.signature == q2.signature


def canonical_connected_sum(q: IntersectionForm) -> tuple[int, int]:
    """(p, q) with diag(+1 x p, -1 x q) rationally equivalent to the form."""
    return q.b2_plus, q.b2_minus
