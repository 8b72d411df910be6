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
chain_map check re-checks every generator, so also that the map kills every
coboundary.  The number of generators adjoined in degree r is the rank of the
r-th rational homotopy group.  verify_stage() checks those counts in every
degree against ranks that do not come from the engine, through the one
verdict the command line uses too: forms.loop_space_mismatches, against the
loop-space series of the manifold (a divisor sum over Lucas numbers).

Target vectors are sparse rows (basis index -> nonzero coefficient), as in
the linear algebra layer; cochain rows, and the differential of each
generator, are word dicts {word: coeff}.
The only product the stage map needs is CohomologyAlgebra.pair.  Every use
of the stage map, the complement and the kill step of the construction and
the chain-map and cohomology checks of the verifier, goes through one
routine, QuasiMorphism.rows: it maps each word of a degree once and writes
the map of a list of cochains straight into the rows linalg.kernel takes.

Kernel and complement bases are always the deterministic echelon bases of
the linear algebra layer, so two runs produce identical models.  Within one
degree no word is a prefix of another, so word order is the basis order.

Degree bookkeeping: only monomials in generators of degree <= n can appear
in degree n, so once a stage index passes n the degree-n cochains are final.
Each extension therefore reuses the kernel and image data computed by the
previous one and eliminates exactly one new differential, the one on the
cochains two degrees above the new stage, assembled in one pass over the
degree's words straight into the rows that linalg.kernel takes
(Derivation.rows) and eliminated once, for both its kernel, keyed by the
words, and the pivot words of its image.  H^n is then a filter with
no elimination of its own: the cocycle rows whose lead is no pivot of B^n.
Every pivot of B^n is a pivot of Z^n, because D^2 = 0 puts B^n inside Z^n.
The degree of the new generators gains their words, which sort after every
older one, and the step carries that degree's data on rather than dropping
it: the closed generators join the kernel as unit rows and the leads of the
differentials z of the others join the image's pivots.  That is the fresh
elimination's result, because the z are independent modulo the coboundaries
by construction (see extend_stage); if the grown basis would exceed the
guard, the step leaves the degree to be built afresh.  One routine reads H^n
off that data for the verifier and for the construction (_cohomology),
which keeps the H^{k+2} classes the stage map kills.  The verifier also
tests d(dx) = 0 as membership of dx in the cached cocycles of its degree, so
after build() it differentiates no word above degree 2.  The guard is the stage's own, and
cached data stays within it as rebuilt data would; it counts, never builds,
the degree d lands in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .forms import CohomologyAlgebra, RankTable, loop_space_mismatches
from .gca import (
    DEFAULT_GUARD,
    BasisTooLarge,
    Derivation,
    Generator,
    GeneratorSet,
    basis,
    basis_count,
)
from .linalg import Subspace, add_scaled, exact, kernel

__all__ = [
    "NotSimplyConnected",
    "QuasiMorphism",
    "MinimalModelStage",
    "StageReport",
    "CheckResult",
    "VerifyReport",
    "init_stage",
    "extend_stage",
    "build",
    "verify_stage",
]


class NotSimplyConnected(ValueError):
    """The target algebra is not connected and simply connected."""


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

    def rows(self, algebra: CohomologyAlgebra, degree: int, vectors: Sequence[dict]) -> dict:
        """The map on degree-`degree` cochains given by word-keyed `vectors`,
        as the rows `linalg.kernel` eliminates.

        Maps each target coordinate to {j: that coordinate of the image of
        vectors[j]}; each word is mapped once, entries that cancel are
        dropped, and so are empty rows.  Where A vanishes the map is zero and
        there are no rows.
        """
        out: dict = {}
        if not algebra.dim(degree):
            return out
        images: dict = {}
        for position, vector in enumerate(vectors):
            for word, c in vector.items():
                image = images.get(word)
                if image is None:
                    image = images[word] = self.on_mono(algebra, word)
                for t, x in image.items():
                    row = out.get(t)
                    if row is None:
                        row = out[t] = {}
                    s = row.get(position, 0) + c * x
                    if s:
                        row[position] = s
                    else:
                        del row[position]
        return {t: row for t, row in out.items() if row}

    def extended(self, more: Sequence[dict]) -> "QuasiMorphism":
        return QuasiMorphism(self.images + tuple(more))


@dataclass(frozen=True)
class _DiffData:
    """Differential of one degree: its kernel and the pivots of its image.

    `kernel` is the cocycle subspace, its rows keyed by the degree's words
    and its ambient_dim the word count; `bounds` is the set of pivot words of
    the reduced echelon basis of the coboundaries one degree up.  A step
    that adjoins generators of this degree adds unit rows at the closed
    ones' words to `kernel` and the leads of the others' differentials to
    `bounds` (see extend_stage).
    """

    kernel: Subspace
    bounds: frozenset


@dataclass
class StageReport:
    """What one extension step did."""

    k: int
    new_cocycle_generators: int
    new_kernel_generators: int


class MinimalModelStage:
    """Generators, differential and stage map after building through degree k.

    `guard` bounds every monomial basis the stage's cochain data reads; a
    successor keeps it.  Instances are immutable; `_data` only memoizes
    per-degree eliminations, which are deterministic functions of the stage.
    """

    __slots__ = ("algebra", "gens", "diff", "qm", "k", "guard", "_data")

    def __init__(
        self,
        algebra: CohomologyAlgebra,
        gens: GeneratorSet,
        diff: Derivation,
        qm: QuasiMorphism,
        k: int,
        guard: int = DEFAULT_GUARD,
        data: dict | None = None,
    ):
        self.algebra = algebra
        self.gens = gens
        self.diff = diff
        self.qm = qm
        self.k = k
        self.guard = guard
        self._data = {} if data is None else data

    def generator_counts(self) -> dict:
        return self.gens.multiplicity

    def rank_table(self) -> RankTable:
        counts = self.generator_counts()
        return RankTable({r: counts.get(r, 0) for r in range(2, self.k + 1)}, False)


def _combine(combo: dict, rows: Sequence[dict]) -> dict:
    """The sparse row sum of combo[i] * rows[i], in the form of linalg.exact;
    a fresh copy of rows[i] when combo is {i: 1}."""
    if len(combo) == 1:
        (i, coeff), = combo.items()
        if coeff == 1:
            return dict(rows[i])
    acc: dict = {}
    for i, coeff in combo.items():
        add_scaled(acc, coeff, rows[i])
    return {j: exact(x) for j, x in acc.items()}


def _diff_data(stage: MinimalModelStage, n: int) -> _DiffData:
    cached = stage._data.get(n)
    if cached is not None:
        return cached
    blist = basis(stage.gens, n, stage.guard) if n >= 0 else []
    basis_count(stage.gens, n + 1, stage.guard)  # and the degree d lands in
    data = _DiffData(*kernel(stage.diff.rows(blist), blist))
    stage._data[n] = data
    return data


def _cohomology(stage: MinimalModelStage, n: int) -> list:
    """The rows of H^n: the cocycle rows whose lead is no pivot of B^n.

    B^n lies in Z^n, so each pivot of B^n leads a cocycle row, and the other
    rows, which vanish there, span a complement of B^n in Z^n.
    """
    rows = _diff_data(stage, n).kernel.rows
    bounds = _diff_data(stage, n - 1).bounds
    return [row for lead, row in rows.items() if lead not in bounds]


def init_stage(algebra: CohomologyAlgebra, guard: int = DEFAULT_GUARD) -> MinimalModelStage:
    """Stage 2: one closed degree-2 generator per degree-2 basis class."""
    if algebra.dim(0) != 1 or algebra.dim(1) != 0:
        raise NotSimplyConnected(
            "the target algebra must be connected with nothing in degree 1"
        )
    n2 = algebra.dim(2)
    gens = GeneratorSet([(f"x{i + 1}", 2) for i in range(n2)])
    diff = Derivation(gens, [{}] * n2)
    qm = QuasiMorphism(tuple({i: 1} for i in range(n2)))
    return MinimalModelStage(algebra, gens, diff, qm, 2, guard)


def extend_stage(stage: MinimalModelStage) -> tuple[MinimalModelStage, StageReport]:
    """One construction step: stage k to stage k+1, under the stage's guard.

    The successor keeps the cached data of every degree the new generators
    leave alone, and gets degree k+1 with their words added.  The new
    words sort after the old ones, so no old pivot moves; the unit rows
    at the closed u words keep the kernel basis reduced; and the kernel
    gains nothing else, because no nonzero combination of the v
    differentials z is a coboundary.  No check is needed for that: the H
    rows are cocycle rows whose leads are no pivots of B^{k+2}, and every
    such pivot leads a cocycle row, so they vanish on those pivots; the z
    rows, reduced echelon combinations of them, vanish there too and lead at
    distinct words.  A nonzero combination of the z is then nonzero at its
    first lead and lies outside B^{k+2}, whose pivots grow by those leads.
    """
    algebra = stage.algebra
    gens = stage.gens
    k = stage.k
    low = _diff_data(stage, k + 1)

    # Closed generators: the unit vectors at the non-pivot columns of the image
    # of the stage map, a complement of it in the degree-(k+1) target.
    target_dim = algebra.dim(k + 1)
    y_images = []
    if target_dim:
        cocycles = list(low.kernel.rows.values())
        reached = kernel(stage.qm.rows(algebra, k + 1, cocycles), range(len(cocycles)))[1]
        y_images = [{p: 1} for p in range(target_dim) if p not in reached]

    # Exact generators: the degree-(k+2) cohomology classes that the stage
    # map sends to zero.
    classes = _cohomology(stage, k + 2)
    if algebra.dim(k + 2):
        combos, _ = kernel(stage.qm.rows(algebra, k + 2, classes), range(len(classes)))
        # Both bases are reduced, so the combinations are the reduced echelon
        # basis of their span: row c leads with 1 where its free column's
        # class does and vanishes at every other kept class's pivot.
        classes = [_combine(c, classes) for c in combos.rows.values()]

    degree = k + 1
    new_gens = [Generator(f"u{degree}_{i + 1}", degree) for i in range(len(y_images))]
    new_gens += [Generator(f"v{degree}_{j + 1}", degree) for j in range(len(classes))]
    gens2 = gens.extended(new_gens)
    diff2 = stage.diff.extended(gens2, [{}] * len(y_images) + classes)
    qm2 = stage.qm.extended(y_images + [{}] * len(classes))
    # Degree-n cochain data stays valid while no monomial of degree n is
    # created: appending degree-(k+1) generators only touches degree k+1
    # itself and degrees >= k+3, where the d of degree k+2 lands: keep it only
    # while that count stays within the guard, as for a fresh elimination.
    carried = {n: d for n, d in stage._data.items() if n <= k or n == k + 2}
    try:
        basis_count(gens2, k + 3, stage.guard)
    except BasisTooLarge:
        del carried[k + 2]
    # Carry degree k+1 only if its basis stays within the guard.
    width = low.kernel.ambient_dim + len(new_gens)
    if width <= stage.guard:
        u_words = [(len(gens) + i,) for i in range(len(y_images))]
        cocycles = {**low.kernel.rows, **{w: {w: 1} for w in u_words}}
        bounds = low.bounds | {min(z) for z in classes}
        carried[k + 1] = _DiffData(Subspace(width, cocycles), bounds)
    successor = MinimalModelStage(algebra, gens2, diff2, qm2, k + 1, stage.guard, carried)
    report = StageReport(k + 1, len(y_images), len(classes))
    return successor, report


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
    stage = init_stage(algebra, guard)
    reports: list[StageReport] = []
    try:
        while stage.k < max_degree:
            stage, report = extend_stage(stage)
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


def verify_stage(stage: MinimalModelStage) -> VerifyReport:
    """Run the full invariant suite on a stage, under the stage's guard.

    Checks: the differential squares to zero (each dx lies in the cocycles
    of its degree), differentials land in the decomposable part, the stage
    map is a chain map and induces cohomology isomorphisms through degree k,
    and the generator count of every degree 2..k equals the rank that the
    loop-space series gives for b2.  The cohomology check alone misses a
    dropped degree-k generator with nonzero differential, because the class
    it kills lives in degree k + 1; the count check catches it.
    """
    algebra = stage.algebra
    gens = stage.gens
    checks: list[CheckResult] = []

    # D^2 = [D, D] / 2 is a derivation, so it vanishes when it vanishes on
    # the generators; d(dx) = 0 says dx is a cocycle of degree |x| + 1.
    bad_square = None
    for g, img in zip(gens, stage.diff.images):
        if img and not _diff_data(stage, g.degree + 1).kernel.contains(img):
            bad_square = g.name
            break
    checks.append(
        CheckResult(
            "d_squared",
            bad_square is None,
            "" if bad_square is None else f"d(d({bad_square})) != 0",
        )
    )

    witness = stage.diff.minimality_witness()
    checks.append(
        CheckResult(
            "minimality",
            witness is None,
            "" if witness is None else f"image of {witness[0]} has a linear term",
        )
    )

    bad_chain = None
    for g, img in zip(gens, stage.diff.images):
        if img and stage.qm.rows(algebra, g.degree + 1, [img]):
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
        reps = _cohomology(stage, i)
        target = algebra.dim(i)
        if len(reps) != target:
            iso_failures.append(f"H^{i}: stage {len(reps)} vs target {target}")
            continue
        if target:
            rows = stage.qm.rows(algebra, i, reps)
            rank = len(kernel(rows, range(target))[1])
            if rank != target:
                iso_failures.append(f"H^{i}: induced map has rank {rank}")
    checks.append(
        CheckResult("cohomology_isomorphism", not iso_failures, "; ".join(iso_failures))
    )

    counts = stage.rank_table().ranks
    count_failures = [
        f"degree {r}: {counts[r]} generators vs loop-space rank {expected}"
        for r, expected in loop_space_mismatches(algebra.b2, counts).items()
    ]
    checks.append(
        CheckResult("generator_counts", not count_failures, "; ".join(count_failures))
    )

    return VerifyReport(tuple(checks))
