"""Sullivan minimal models of four-manifold cohomology algebras.

The engine runs the inductive stage construction against a zero-differential
graded algebra A.  Stage 2 has one closed degree-2 generator per basis class
of A in degree 2.  Each later step from stage k to k+1 adjoins degree-(k+1)
generators of two kinds:

* closed generators u, one per basis vector of a complement of the image of
  the stage map inside A in degree k+1, mapped onto those vectors;
* generators v with dv = z, one per basis vector z of the kernel of the map
  induced on degree-(k+2) cohomology by the stage map, mapped to zero.

Because the target differential vanishes, the stage map must kill every z
exactly; each z is taken from the kernel of that map, and verify_stage()'s
chain_map check re-checks every generator.  The number of generators
adjoined in degree r is the rank of the r-th rational homotopy group.
verify_stage() checks those counts in every degree against ranks that do not
come from the engine: the loop-space series of the manifold
(forms.loop_space_ranks, a divisor sum over Lucas numbers).

Target vectors are sparse rows (basis index -> nonzero coefficient), as in
the linear algebra layer.  The only product the stage map needs is the
pairing of two degree-2 classes, CohomologyAlgebra.pair.

Kernel and complement bases are always the deterministic echelon bases of
the linear algebra layer, so two runs produce identical models.  Any basis
choice would give an isomorphic model and the same rank table.

Degree bookkeeping: only monomials in generators of degree <= n can appear
in degree n, so once a stage index passes n the degree-n cochains are final.
Each extension therefore reuses the kernel and image data computed by the
previous one and eliminates exactly one new differential, the one on the
cochains two degrees above the new stage; its kernel is read off that same
column-reversed reduction (linalg.kernel_from_reduced).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .forms import CohomologyAlgebra, RankTable, loop_space_ranks
from .gca import (
    DEFAULT_GUARD,
    BasisTooLarge,
    Derivation,
    Generator,
    GeneratorSet,
    Poly,
    basis,
    check_d_squared,
)
from .linalg import (
    NotContained,
    Subspace,
    complement_in,
    kernel_basis_from_rows,
    kernel_from_reduced,
    row_reduce,
)

__all__ = [
    "NotSimplyConnected",
    "QuasiMorphism",
    "MinimalModelStage",
    "StageReport",
    "CheckResult",
    "VerifyReport",
    "init_stage",
    "extend_stage",
    "stage_cohomology",
    "build",
    "verify_stage",
]


class NotSimplyConnected(ValueError):
    """The target algebra is not connected and simply connected."""


def _add_scaled(acc: dict, coeff, row: dict) -> None:
    """acc += coeff * row on sparse rows, in place, keeping nonzeros only."""
    for j, x in row.items():
        s = acc.get(j, 0) + coeff * x
        if s:
            acc[j] = s
        else:
            del acc[j]


@dataclass(frozen=True)
class QuasiMorphism:
    """Multiplicative map from the free algebra to the target algebra.

    Determined by one sparse target vector per generator; extended to
    monomials by multiplying images and to polynomials linearly.
    """

    images: tuple[dict, ...]

    def on_mono(self, algebra: CohomologyAlgebra, mono) -> dict:
        """Image of a monomial of degree 0, 2 or 4, the degrees where A lives.

        Such a monomial is 1, one generator or a product of two degree-2
        generators; three positive-degree factors land in degree >= 6.
        """
        if not mono:
            return {0: 1}
        if len(mono) == 1:
            return self.images[mono[0]]
        i, j = mono
        return algebra.pair(self.images[i], self.images[j])

    def on_poly(self, algebra: CohomologyAlgebra, poly: Poly, degree: int) -> dict:
        acc: dict = {}
        if not algebra.dim(degree):
            return acc
        for mono, coeff in poly.terms.items():
            _add_scaled(acc, coeff, self.on_mono(algebra, mono))
        return acc

    def extended(self, more: Sequence[dict]) -> "QuasiMorphism":
        return QuasiMorphism(self.images + tuple(more))


@dataclass(frozen=True)
class _DiffData:
    """Differential of one degree: domain basis, kernel and image data.

    `kernel` is the cocycle subspace in coordinates over `blist`; `image`
    holds the differentials of the pivot columns of the column-reversed
    reduction, an independent basis of the coboundaries one degree up.
    """

    blist: tuple
    kernel: Subspace
    image: tuple


@dataclass
class StageReport:
    """What one extension step did."""

    k: int
    new_cocycle_generators: int
    new_kernel_generators: int
    basis_sizes: dict
    elapsed: float


class MinimalModelStage:
    """Generators, differential and stage map after building through degree k.

    Instances are immutable; `_data` only memoizes per-degree eliminations,
    which are deterministic functions of the stage.
    """

    __slots__ = ("algebra", "gens", "diff", "qm", "k", "_data")

    def __init__(
        self,
        algebra: CohomologyAlgebra,
        gens: GeneratorSet,
        diff: Derivation,
        qm: QuasiMorphism,
        k: int,
        data: dict | None = None,
    ):
        self.algebra = algebra
        self.gens = gens
        self.diff = diff
        self.qm = qm
        self.k = k
        self._data = {} if data is None else data

    def generator_counts(self) -> dict:
        counts: dict = {}
        for g in self.gens:
            counts[g.degree] = counts.get(g.degree, 0) + 1
        return counts

    def rank_table(self) -> RankTable:
        counts = self.generator_counts()
        return RankTable({r: counts.get(r, 0) for r in range(2, self.k + 1)}, False)


def _coboundaries(image: Sequence[Poly], blist) -> Subspace:
    """Span of the image polynomials, in coordinates over `blist`."""
    index = {m: i for i, m in enumerate(blist)}
    return Subspace.from_vectors(
        len(blist), [{index[m]: c for m, c in p.terms.items()} for p in image]
    )


def _vector_poly(row: dict, blist, degree: int) -> Poly:
    return Poly({blist[j]: c for j, c in row.items()}, degree)


def _combine(combo: dict, rows: Sequence[dict]) -> dict:
    """The sparse row sum of combo[i] * rows[i]."""
    acc: dict = {}
    for i, coeff in combo.items():
        _add_scaled(acc, coeff, rows[i])
    return acc


def _diff_data(stage: MinimalModelStage, n: int, guard: int) -> _DiffData:
    cached = stage._data.get(n)
    if cached is not None:
        return cached
    blist = basis(stage.gens, n, guard) if n >= 0 else []
    index = {m: i for i, m in enumerate(basis(stage.gens, n + 1, guard))}
    ncols = len(blist)
    last = ncols - 1
    col_polys = [stage.diff.apply_mono(m) for m in blist]
    # Reversed columns: kernel_from_reduced needs no second elimination.
    rowmap: dict = {}
    for j, p in enumerate(col_polys):
        for mono, c in p.terms.items():
            rowmap.setdefault(index[mono], {})[last - j] = c
    reduced, pivots = row_reduce([rowmap[i] for i in sorted(rowmap)], ncols)
    kernel = kernel_from_reduced(reduced, pivots, ncols)
    image = tuple(col_polys[last - q] for q in pivots)
    data = _DiffData(tuple(blist), kernel, image)
    stage._data[n] = data
    return data


def init_stage(algebra: CohomologyAlgebra) -> MinimalModelStage:
    """Stage 2: one closed degree-2 generator per degree-2 basis class."""
    if algebra.dim(0) != 1 or algebra.dim(1) != 0:
        raise NotSimplyConnected(
            "the target algebra must be connected with nothing in degree 1"
        )
    n2 = algebra.dim(2)
    gens = GeneratorSet([(f"x{i + 1}", 2) for i in range(n2)])
    diff = Derivation(gens, [Poly.zero()] * n2)
    qm = QuasiMorphism(tuple({i: 1} for i in range(n2)))
    return MinimalModelStage(algebra, gens, diff, qm, 2)


def extend_stage(
    stage: MinimalModelStage, guard: int = DEFAULT_GUARD
) -> tuple[MinimalModelStage, StageReport]:
    """One construction step: stage k to stage k+1."""
    started = time.perf_counter()
    algebra = stage.algebra
    gens = stage.gens
    k = stage.k
    low = _diff_data(stage, k + 1, guard)
    high = _diff_data(stage, k + 2, guard)

    # Closed generators: the unit vectors at the non-pivot columns of the image
    # of the stage map, a complement of it in the degree-(k+1) target.
    target_dim = algebra.dim(k + 1)
    if target_dim:
        image_vectors = [
            stage.qm.on_poly(algebra, _vector_poly(z, low.blist, k + 1), k + 1)
            for z in low.kernel.rows.values()
        ]
        reached = Subspace.from_vectors(target_dim, image_vectors)
        y_images = [{p: 1} for p in range(target_dim) if p not in reached.rows]
    else:
        y_images = []

    # Exact generators: a complement of the coboundaries inside the
    # degree-(k+2) cocycles that the stage map sends to zero.
    boundary_sub = _coboundaries(low.image, high.blist)
    if algebra.dim(k + 2):
        zvecs = list(high.kernel.rows.values())
        # One constraint row per target coordinate: the transposed images.
        constraint_rows: dict = {}
        for i, z in enumerate(zvecs):
            image = stage.qm.on_poly(algebra, _vector_poly(z, high.blist, k + 2), k + 2)
            for r, x in image.items():
                constraint_rows.setdefault(r, {})[i] = x
        combos = kernel_basis_from_rows(list(constraint_rows.values()), len(zvecs))
        vanishing = Subspace.from_vectors(
            len(high.blist), [_combine(c, zvecs) for c in combos.rows.values()]
        )
    else:
        vanishing = high.kernel
    z_polys = [
        _vector_poly(v, high.blist, k + 2)
        for v in complement_in(boundary_sub, vanishing).rows.values()
    ]

    degree = k + 1
    new_gens = [Generator(f"u{degree}_{i + 1}", degree) for i in range(len(y_images))]
    new_gens += [Generator(f"v{degree}_{j + 1}", degree) for j in range(len(z_polys))]
    gens2 = gens.extended(new_gens)
    diff2 = stage.diff.extended(
        gens2, [Poly.zero()] * len(y_images) + list(z_polys)
    )
    qm2 = stage.qm.extended(y_images + [{}] * len(z_polys))
    # Degree-n cochain data stays valid while no monomial of degree n is
    # created: appending degree-(k+1) generators only touches degree k+1
    # itself and degrees >= k+3.
    carried = {n: d for n, d in stage._data.items() if n <= k or n == k + 2}
    successor = MinimalModelStage(algebra, gens2, diff2, qm2, k + 1, carried)
    report = StageReport(
        k=k + 1,
        new_cocycle_generators=len(y_images),
        new_kernel_generators=len(z_polys),
        basis_sizes={k + 1: len(low.blist), k + 2: len(high.blist)},
        elapsed=time.perf_counter() - started,
    )
    return successor, report


def stage_cohomology(
    stage: MinimalModelStage, n: int, guard: int = DEFAULT_GUARD
) -> tuple[int, list, Subspace]:
    """Cohomology of the stage in degree n.

    Returns (dimension, cocycle representatives, coboundary subspace); the
    representatives project to a basis of the quotient.
    """
    if n == 0:
        return 1, [Poly.monomial(stage.gens, ())], Subspace.zero(1)
    here = _diff_data(stage, n, guard)
    below = _diff_data(stage, n - 1, guard)
    boundary_sub = _coboundaries(below.image, here.blist)
    reps = [
        _vector_poly(v, here.blist, n)
        for v in complement_in(boundary_sub, here.kernel).rows.values()
    ]
    return here.kernel.dim - len(below.image), reps, boundary_sub


def build(
    algebra: CohomologyAlgebra, max_degree: int = 5, guard: int = DEFAULT_GUARD
) -> tuple[MinimalModelStage, RankTable, list]:
    """Run the construction through the requested degree.

    Returns the final stage, the rank table (rank of the r-th homotopy group
    = generators of degree r, for 2 <= r <= max_degree) and the per-step
    reports.  If the basis guard trips, the raised BasisTooLarge carries the
    table of any stages completed so far.  The table is not checked here;
    verify_stage() checks it against the loop-space series.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    if algebra.dim(2) > guard:  # the degree-2 basis: one generator per class
        raise BasisTooLarge(2, guard)
    stage = init_stage(algebra)
    reports: list[StageReport] = []
    try:
        while stage.k < max_degree:
            stage, report = extend_stage(stage, guard=guard)
            reports.append(report)
    except BasisTooLarge as exc:
        exc.partial_ranks = stage.rank_table()
        exc.reports = reports
        raise
    return stage, stage.rank_table(), reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_stage(stage: MinimalModelStage, guard: int = DEFAULT_GUARD) -> VerifyReport:
    """Run the full invariant suite on a stage.

    Checks: the differential squares to zero, differentials land in the
    decomposable part, the stage map is a chain map and induces cohomology
    isomorphisms through degree k, and the generator count of every degree
    2..k equals the rank that the loop-space series gives for b2.  The
    cohomology check alone misses a dropped degree-k generator with nonzero
    differential, because the class it kills lives in degree k + 1; the
    count check catches it.
    """
    algebra = stage.algebra
    gens = stage.gens
    checks: list[CheckResult] = []

    report = check_d_squared(gens, stage.diff)
    detail = "" if report.ok else f"d(d({report.witness})) != 0"
    checks.append(CheckResult("d_squared", report.ok, detail))

    witness = stage.diff.minimality_witness()
    checks.append(
        CheckResult(
            "minimality",
            witness is None,
            "" if witness is None else f"image of {witness[0]} has a linear term",
        )
    )

    bad_chain = None
    for i, g in enumerate(gens):
        img = stage.diff.image(i)
        if img.is_zero():
            continue
        if stage.qm.on_poly(algebra, img, g.degree + 1):
            bad_chain = g.name
            break
    checks.append(
        CheckResult(
            "chain_map",
            bad_chain is None,
            "" if bad_chain is None else f"stage map does not kill d({bad_chain})",
        )
    )

    iso_failures = []
    for i in range(0, stage.k + 1):
        try:
            dim, reps, _ = stage_cohomology(stage, i, guard)
        except NotContained:
            # boundaries escape the cocycles, so the differential is broken
            iso_failures.append(f"H^{i}: coboundaries are not closed")
            continue
        target = algebra.dim(i)
        if dim != target:
            iso_failures.append(f"H^{i}: stage {dim} vs target {target}")
            continue
        if target:
            rows = [stage.qm.on_poly(algebra, rep, i) for rep in reps]
            _, pivots = row_reduce(rows, target)
            if len(pivots) != target:
                iso_failures.append(f"H^{i}: induced map has rank {len(pivots)}")
    checks.append(
        CheckResult("cohomology_isomorphism", not iso_failures, "; ".join(iso_failures))
    )

    count_failures = []
    counts = stage.generator_counts()
    for r, expected in loop_space_ranks(algebra.b2, stage.k).items():
        if counts.get(r, 0) != expected:
            count_failures.append(
                f"degree {r}: {counts.get(r, 0)} generators vs loop-space rank {expected}"
            )
    checks.append(
        CheckResult("generator_counts", not count_failures, "; ".join(count_failures))
    )

    return VerifyReport(tuple(checks))
