import tracemalloc
from fractions import Fraction

import pytest

from fourfold import linalg, sullivan
from fourfold.forms import algebra_from_split
from fourfold.gca import (
    DEFAULT_GUARD,
    BasisTooLarge,
    Derivation,
    GeneratorSet,
    Poly,
    basis,
    mul,
)
from fourfold.linalg import QMatrix, Subspace
from fourfold.sullivan import (
    MinimalModelStage,
    NotSimplyConnected,
    QuasiMorphism,
    build,
    extend_stage,
    init_stage,
    stage_cohomology,
    verify_stage,
)
from fraction_reference import kernel_basis
from test_gca import gen
from test_linalg import canonical

F = Fraction


def splits(b2):
    return [(p, b2 - p) for p in range(b2 + 1)]


# ---------------------------------------------------------------- init stage


def test_init_stage_rank_zero_has_no_generators():
    stage = init_stage(algebra_from_split(0, 0))
    assert len(stage.gens) == 0
    assert stage.k == 2


def test_init_stage_rank_three():
    a = algebra_from_split(2, 1)
    stage = init_stage(a)
    assert [g.name for g in stage.gens] == ["x1", "x2", "x3"]
    assert all(g.degree == 2 for g in stage.gens)
    for i in range(3):
        assert stage.qm.images[i] == {i: 1}
        assert stage.diff.image(i).is_zero()


def test_init_stage_memory_is_linear_in_b2():
    a = algebra_from_split(2000, 0)
    tracemalloc.start()
    try:
        stage = init_stage(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stage.qm.images) == 2000
    assert peak < 4 << 20


def test_init_stage_rejects_non_simply_connected_target():
    class Fake:
        def dim(self, n):
            return 1 if n in (0, 1) else 0

    with pytest.raises(NotSimplyConnected):
        init_stage(Fake())


# ------------------------------------------------------------- first extension


def test_first_extension_rank_three_adds_five_exact_generators():
    a = algebra_from_split(3, 0)
    stage, report = extend_stage(init_stage(a))
    assert report.new_cocycle_generators == 0
    assert report.new_kernel_generators == 5
    assert stage.k == 3
    new = [g for g in stage.gens if g.degree == 3]
    assert len(new) == 5
    # The differentials span exactly the quadrics killed by the pairing:
    # x1^2 - x2^2, x1^2 - x3^2 and all off-diagonal products.
    gens = stage.gens
    quadrics = basis(gens, 4)
    index = {m: i for i, m in enumerate(quadrics)}

    def vec(p):
        v = [F(0)] * len(quadrics)
        for m, c in p.terms.items():
            v[index[m]] = c
        return v

    x = [gen(gens, f"x{i}") for i in (1, 2, 3)]
    sq = lambda i: mul(gens, x[i - 1], x[i - 1])
    expected = Subspace.from_vectors(
        len(quadrics),
        [
            vec(sq(1) - sq(2)),
            vec(sq(1) - sq(3)),
            vec(mul(gens, x[0], x[1])),
            vec(mul(gens, x[0], x[2])),
            vec(mul(gens, x[1], x[2])),
        ],
    )
    got = Subspace.from_vectors(
        len(quadrics), [vec(stage.diff.images[gens.index(g.name)]) for g in new]
    )
    assert got == expected


def test_first_extension_keeps_quasi_morphism_zero_on_new_generators():
    a = algebra_from_split(1, 2)
    stage, _ = extend_stage(init_stage(a))
    for g in stage.gens:
        if g.degree == 3:
            assert stage.qm.images[stage.gens.index(g.name)] == {}


# ------------------------------------------------- the degree-5 cocycle system


def cochain_coefficient_system(split):
    """The linear system on the coefficients of a degree-5 cochain.

    Independent oracle: rows are the coefficient-extraction equations for
    each cubic monomial, written directly from the product rules for
    dv_i = x1^2 + s_i x_i^2 and dv_ij = x_i x_j.  Variable order matches the
    graded-lex degree-5 monomial basis x_k * v of the hand-built stage.
    """
    p, q = split
    assert p + q == 3
    sign = lambda i: 1 if i <= p else -1
    s = {i: (-1 if sign(i) == sign(1) else 1) for i in (2, 3)}
    vcols = {"v2": 0, "v3": 1, "v12": 2, "v13": 3, "v23": 4}

    def col(v, k):
        return (k - 1) * 5 + vcols[v]

    rows = []

    def row(*entries):
        r = [F(0)] * 15
        for c, val in entries:
            r[c] += val
        rows.append(r)

    row((col("v2", 1), 1), (col("v3", 1), 1))  # x1^3
    row((col("v2", 2), s[2]))  # x2^3
    row((col("v3", 3), s[3]))  # x3^3
    row((col("v2", 2), 1), (col("v3", 2), 1), (col("v12", 1), 1))  # x1^2 x2
    row((col("v2", 3), 1), (col("v3", 3), 1), (col("v13", 1), 1))  # x1^2 x3
    row((col("v2", 1), s[2]), (col("v12", 2), 1))  # x2^2 x1
    row((col("v2", 3), s[2]), (col("v23", 2), 1))  # x2^2 x3
    row((col("v3", 1), s[3]), (col("v13", 3), 1))  # x3^2 x1
    row((col("v3", 2), s[3]), (col("v23", 3), 1))  # x3^2 x2
    row((col("v12", 3), 1), (col("v13", 2), 1), (col("v23", 1), 1))  # x1 x2 x3
    return rows


def hand_stage(split):
    p, q = split
    sign = lambda i: 1 if i <= p else -1
    gens = GeneratorSet(
        [("x1", 2), ("x2", 2), ("x3", 2), ("v2", 3), ("v3", 3), ("v12", 3), ("v13", 3), ("v23", 3)]
    )
    x = {i: gen(gens, f"x{i}") for i in (1, 2, 3)}
    sq = lambda i: mul(gens, x[i], x[i])
    images = {}
    for i in (2, 3):
        s_i = -1 if sign(i) == sign(1) else 1
        images[f"v{i}"] = sq(1) + sq(i).scaled(s_i)
    images["v12"] = mul(gens, x[1], x[2])
    images["v13"] = mul(gens, x[1], x[3])
    images["v23"] = mul(gens, x[2], x[3])
    return gens, Derivation(gens, images)


@pytest.mark.parametrize("split", splits(3))
def test_degree5_system_matches_differential_kernel(split):
    gens, deriv = hand_stage(split)
    a = algebra_from_split(*split)
    qm = QuasiMorphism(tuple({i: F(1)} for i in range(3)) + ({},) * 5)
    _, reps, cob = stage_cohomology(MinimalModelStage(a, gens, deriv, qm, 3), 5)
    assert cob.dim == 0  # so the representatives span the cocycles
    blist = basis(gens, 5)
    engine_kernel = Subspace.from_vectors(
        len(blist), [[rep.terms.get(m, F(0)) for m in blist] for rep in reps]
    )
    system_kernel = kernel_basis(
        QMatrix.from_rows(cochain_coefficient_system(split), cols=15)
    )
    assert engine_kernel.dim == 5  # = 3(3^2-4)/3
    assert engine_kernel == system_kernel


@pytest.mark.parametrize("split", splits(3))
def test_engine_degree5_cocycles_have_dimension_five(split):
    stage, _, _ = build(algebra_from_split(*split), max_degree=3)
    dim, reps, cob = stage_cohomology(stage, 5)
    assert dim == 5
    assert cob.dim == 0  # no degree-5 coboundaries at this stage
    assert len(reps) == 5


# ------------------------------------------------------------- stage cohomology


def test_stage_cohomology_degree_zero():
    stage, _, _ = build(algebra_from_split(2, 0), max_degree=3)
    dim, reps, cob = stage_cohomology(stage, 0)
    assert dim == 1
    assert reps[0].terms.get(()) == 1


def test_stage_cohomology_degree_six_at_rank_three():
    stage, _, _ = build(algebra_from_split(3, 0), max_degree=4)
    dim, _, _ = stage_cohomology(stage, 6)
    assert dim == 10


def test_stage_cohomology_matches_target_through_stage_degree():
    a = algebra_from_split(2, 1)
    stage, _, _ = build(a, max_degree=5)
    for i in range(0, 6):
        dim, _, _ = stage_cohomology(stage, i)
        assert dim == a.dim(i)


# ---------------------------------------------------------------------- build


def test_build_rank_one_table():
    _, table, _ = build(algebra_from_split(1, 0), max_degree=5)
    assert table.ranks == {2: 1, 3: 0, 4: 0, 5: 1}


def test_build_rank_one_differential_is_cube():
    stage, _, _ = build(algebra_from_split(0, 1), max_degree=5)
    v = next(g for g in stage.gens if g.degree == 5)
    gens = stage.gens
    x = gen(gens, "x1")
    cube = mul(gens, x, mul(gens, x, x))
    image = stage.diff.images[gens.index(v.name)]
    # dv spans the line through x^3 (the echelon basis normalizes the sign)
    assert image == cube or image == -cube


def test_build_rank_two_is_elliptic_through_degree_five():
    _, table, _ = build(algebra_from_split(1, 1), max_degree=5)
    assert table.ranks == {2: 2, 3: 2, 4: 0, 5: 0}


def test_build_rank_four_table():
    _, table, _ = build(algebra_from_split(4, 0), max_degree=4)
    assert table.ranks == {2: 4, 3: 9, 4: 16}


def test_build_rank_zero_through_degree_seven():
    stage, table, _ = build(algebra_from_split(0, 0), max_degree=7)
    assert table.ranks == {2: 0, 3: 0, 4: 1, 5: 0, 6: 0, 7: 1}
    u = next(g for g in stage.gens if g.degree == 4)
    v = next(g for g in stage.gens if g.degree == 7)
    assert stage.diff.images[stage.gens.index(u.name)].is_zero()
    # the degree-7 generator kills the square of the degree-4 one
    gens = stage.gens
    up = gen(gens, u.name)
    assert stage.diff.images[gens.index(v.name)] == mul(gens, up, up)
    # and the stage map sends u to the top class
    assert stage.qm.images[gens.index(u.name)] == {0: 1}


def test_build_rank_three_degree_five_generators():
    _, table, _ = build(algebra_from_split(3, 0), max_degree=5)
    assert table.ranks == {2: 3, 3: 5, 4: 5, 5: 10}


@pytest.mark.parametrize("b2", [2, 3, 4])
def test_build_tables_do_not_depend_on_signature_split(b2):
    tables = [build(algebra_from_split(p, q), max_degree=4)[1] for p, q in splits(b2)]
    assert all(t.ranks == tables[0].ranks for t in tables)


def test_build_guard_failure_carries_partial_table():
    with pytest.raises(BasisTooLarge) as info:
        build(algebra_from_split(4, 0), max_degree=5, guard=50)
    exc = info.value
    assert exc.partial_ranks is not None
    assert exc.partial_ranks.ranks == {2: 4, 3: 9}
    assert exc.reports  # at least one stage completed


def test_one_elimination_per_differential(monkeypatch):
    built, _, _ = build(algebra_from_split(2, 1), max_degree=6)
    stage = MinimalModelStage(built.algebra, built.gens, built.diff, built.qm, built.k)
    calls = []
    real = linalg._eliminate

    def counting(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    for n in range(9):
        before = len(calls)
        data = sullivan._diff_data(stage, n, DEFAULT_GUARD)
        assert len(calls) == before + 1, f"degree {n}"
        assert sullivan._diff_data(stage, n, DEFAULT_GUARD) is data
        assert len(calls) == before + 1, f"degree {n}, cached"
    assert stage._data[8].kernel.dim  # a nontrivial kernel among them


def test_build_reports_shapes():
    _, _, reports = build(algebra_from_split(3, 0), max_degree=4)
    assert [r.k for r in reports] == [3, 4]
    assert reports[0].new_kernel_generators == 5
    assert reports[1].new_kernel_generators == 5
    assert all(r.new_cocycle_generators == 0 for r in reports)
    assert reports[1].basis_sizes[5] == 15


# --------------------------------------------------------------- verification


def test_verify_fresh_stage_passes():
    stage, _, _ = build(algebra_from_split(2, 1), max_degree=5)
    report = verify_stage(stage)
    assert report.ok, report.failures()


def test_verify_detects_broken_differential():
    stage, _, _ = build(algebra_from_split(3, 0), max_degree=4)
    gens = stage.gens
    w = next(g for g in gens if g.degree == 4)
    v = next(g for g in gens if g.degree == 3)
    bad_image = mul(gens, gen(gens, "x1"), gen(gens, v.name))
    images = list(stage.diff.images)
    images[gens.index(w.name)] = bad_image
    broken = MinimalModelStage(
        stage.algebra, gens, Derivation(gens, images), stage.qm, stage.k
    )
    report = verify_stage(broken)
    failed = {c.name for c in report.failures()}
    assert "d_squared" in failed


def test_verify_detects_linear_term():
    stage, _, _ = build(algebra_from_split(3, 0), max_degree=4)
    gens = stage.gens
    v = next(g for g in gens if g.degree == 3)
    w = next(g for g in gens if g.degree == 4)
    images = list(stage.diff.images)
    images[gens.index(v.name)] = gen(gens, w.name)  # bare generator
    broken = MinimalModelStage(
        stage.algebra, gens, Derivation(gens, images), stage.qm, stage.k
    )
    report = verify_stage(broken)
    failed = {c.name for c in report.failures()}
    assert "minimality" in failed


def test_verify_detects_chain_map_violation():
    stage, _, _ = build(algebra_from_split(3, 0), max_degree=3)
    gens = stage.gens
    v = next(g for g in gens if g.degree == 3)
    x1 = gen(gens, "x1")
    images = list(stage.diff.images)
    images[gens.index(v.name)] = mul(gens, x1, x1)  # maps to V, not zero
    broken = MinimalModelStage(
        stage.algebra, gens, Derivation(gens, images), stage.qm, stage.k
    )
    report = verify_stage(broken)
    failed = {c.name for c in report.failures()}
    assert "chain_map" in failed


# (b2, split, degrees with generators up to the top degree of the cell)
DROP_CELLS = [
    (3, (1, 2), (2, 3, 4, 5, 6, 7)),
    (4, (4, 0), (2, 3, 4, 5, 6)),
    (0, (0, 0), (4, 7)),
    (1, (1, 0), (2, 5)),
    (2, (1, 1), (2, 3)),
]


@pytest.mark.parametrize(
    "b2,split,r",
    [
        pytest.param(b2, split, r, id=f"b2={b2}-split={split[0]},{split[1]}-r={r}")
        for b2, split, degrees in DROP_CELLS
        for r in degrees
    ],
)
def test_verify_detects_dropped_generator(b2, split, r):
    # Generators are adjoined degree by degree, so the last generator of a
    # stage built through degree r has degree r; nothing below refers to it.
    stage, _, _ = build(algebra_from_split(*split), max_degree=r)
    assert verify_stage(stage).ok
    assert stage.gens[-1].degree == r
    gens = GeneratorSet(stage.gens.generators[:-1])
    broken = MinimalModelStage(
        stage.algebra,
        gens,
        Derivation(gens, stage.diff.images[:-1]),
        QuasiMorphism(stage.qm.images[:-1]),
        r,
    )
    report = verify_stage(broken)
    failed = {c.name for c in report.failures()}
    assert "generator_counts" in failed


def test_no_new_closed_generators_above_the_first_step():
    # With positive rank the target is exhausted in degrees 2 and 4 right
    # away, so later steps only add generators with nonzero differential.
    for b2 in (1, 2, 3):
        _, _, reports = build(algebra_from_split(b2, 0), max_degree=5)
        assert all(r.new_cocycle_generators == 0 for r in reports)


# ---------------------------------------------------------------- coefficients


COEFFICIENT_CELLS = [(split, 5) for b2 in range(7) for split in splits(b2)] + [
    ((1, 2), 8),
    ((1, 0), 9),
    ((0, 1), 9),
]


@pytest.mark.parametrize(
    "split,max_degree", COEFFICIENT_CELLS, ids=lambda c: str(c).replace(" ", "")
)
def test_model_coefficients_are_ints_or_proper_fractions(split, max_degree):
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    differential = [c for p in stage.diff.images for c in p.terms.values()]
    rows = [
        x
        for data in stage._data.values()
        for row in data.kernel.rows.values()
        for x in row.values()
    ]
    assert all(canonical(x) for x in differential + rows)
    others = [x for image in stage.qm.images for x in image.values()]
    others += [
        c for data in stage._data.values() for p in data.image for c in p.terms.values()
    ]
    assert not any(isinstance(x, float) for x in others)
