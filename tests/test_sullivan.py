import random
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
from fourfold.linalg import QMatrix, add_scaled
from fourfold.sullivan import (
    MinimalModelStage,
    NotSimplyConnected,
    QuasiMorphism,
    build,
    extend_stage,
    init_stage,
    verify_stage,
)
import leibniz_reference
from d_squared_reference import check_d_squared
from fraction_reference import column_kernel, kernel_basis, span
from test_gca import gen
from test_linalg import canonical, ref_complement, ref_rref

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
        assert stage.diff.images[i] == {}


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
    x = [gen(gens, f"x{i}") for i in (1, 2, 3)]
    sq = lambda i: mul(gens, x[i - 1], x[i - 1])
    expected = [
        (sq(1) - sq(2)).terms,
        (sq(1) - sq(3)).terms,
        mul(gens, x[0], x[1]).terms,
        mul(gens, x[0], x[2]).terms,
        mul(gens, x[1], x[2]).terms,
    ]
    got = [stage.diff.images[gens.index(g.name)] for g in new]

    def rank(images):
        return len(column_kernel(images)[1])

    # equal spans: both have rank 5, and so has their union
    assert rank(got) == rank(expected) == rank(got + expected) == 5


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
    images = [{}] * 3
    for i in (2, 3):
        s_i = -1 if sign(i) == sign(1) else 1
        images.append((sq(1) + sq(i).scaled(s_i)).terms)  # v2, v3
    images.append(mul(gens, x[1], x[2]).terms)  # v12
    images.append(mul(gens, x[1], x[3]).terms)  # v13
    images.append(mul(gens, x[2], x[3]).terms)  # v23
    return gens, Derivation(gens, images)


@pytest.mark.parametrize("split", splits(3))
def test_degree5_system_matches_differential_kernel(split):
    gens, deriv = hand_stage(split)
    a = algebra_from_split(*split)
    qm = QuasiMorphism(tuple({i: F(1)} for i in range(3)) + ({},) * 5)
    stage = MinimalModelStage(a, gens, deriv, qm, 3)
    reps = sullivan._cohomology(stage, 5)
    # no coboundaries, so the representatives span the cocycles
    assert sullivan._diff_data(stage, 4).bounds == set()
    index = {m: i for i, m in enumerate(basis(gens, 5))}
    engine_kernel = span(
        len(index), [{index[m]: c for m, c in rep.items()} for rep in reps]
    )
    system_kernel = kernel_basis(
        QMatrix.from_rows(cochain_coefficient_system(split), cols=15)
    )
    assert engine_kernel.dim == 5  # = 3(3^2-4)/3
    assert engine_kernel == system_kernel


@pytest.mark.parametrize("split", splits(3))
def test_engine_degree5_cocycles_have_dimension_five(split):
    stage, _, _ = build(algebra_from_split(*split), max_degree=3)
    reps = sullivan._cohomology(stage, 5)
    # no degree-5 coboundaries at this stage
    assert sullivan._diff_data(stage, 4).bounds == set()
    assert len(reps) == 5


# ------------------------------------------------------------- stage cohomology


def test_stage_cohomology_degree_zero():
    stage, _, _ = build(algebra_from_split(2, 0), max_degree=3)
    reps = sullivan._cohomology(stage, 0)
    assert len(reps) == 1
    assert reps[0].get(()) == 1


def test_stage_cohomology_degree_six_at_rank_three():
    stage, _, _ = build(algebra_from_split(3, 0), max_degree=4)
    assert len(sullivan._cohomology(stage, 6)) == 10


def test_stage_cohomology_matches_target_through_stage_degree():
    a = algebra_from_split(2, 1)
    stage, _, _ = build(a, max_degree=5)
    for i in range(0, 6):
        assert len(sullivan._cohomology(stage, i)) == a.dim(i)


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
    assert image == cube.terms or image == (-cube).terms


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
    assert stage.diff.images[stage.gens.index(u.name)] == {}
    # the degree-7 generator kills the square of the degree-4 one
    gens = stage.gens
    up = gen(gens, u.name)
    assert stage.diff.images[gens.index(v.name)] == mul(gens, up, up).terms
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
    # and one basis: the guard on the degree d lands in counts it, never builds it
    bases = []
    real_basis = sullivan.basis
    monkeypatch.setattr(sullivan, "basis", lambda *a: bases.append(a[1]) or real_basis(*a))
    for n in range(9):
        before = len(calls)
        data = sullivan._diff_data(stage, n)
        assert len(calls) == before + 1, f"degree {n}"
        assert sullivan._diff_data(stage, n) is data
        assert len(calls) == before + 1, f"degree {n}, cached"
    assert bases == list(range(9))
    assert stage._data[8].kernel.dim  # a nontrivial kernel among them


def test_build_reports_shapes():
    _, _, reports = build(algebra_from_split(3, 0), max_degree=4)
    assert [r.k for r in reports] == [3, 4]
    assert reports[0].new_kernel_generators == 5
    assert reports[1].new_kernel_generators == 5
    assert all(r.new_cocycle_generators == 0 for r in reports)


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
    bad_image = mul(gens, gen(gens, "x1"), gen(gens, v.name)).terms
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
    images[gens.index(v.name)] = gen(gens, w.name).terms  # bare generator
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
    images[gens.index(v.name)] = mul(gens, x1, x1).terms  # maps to V, not zero
    broken = MinimalModelStage(
        stage.algebra, gens, Derivation(gens, images), stage.qm, stage.k
    )
    report = verify_stage(broken)
    failed = {c.name for c in report.failures()}
    assert "chain_map" in failed


@pytest.mark.parametrize(
    "split,max_degree,images,detail",
    [
        # x1 and x2 both sent to the first class of H^2: rank 1 of 2
        ((2, 0), 2, ({0: 1}, {0: 1}), "H^2: induced map has rank 1"),
        # S^4: u4_1 sent to zero, so H^4 = Q maps to nothing
        ((0, 0), 4, ({},), "H^4: induced map has rank 0"),
    ],
    ids=["b2=2-rank-1", "b2=0-rank-0"],
)
def test_verify_detects_a_degenerate_induced_map(split, max_degree, images, detail):
    # H^n of the stage has the target's dimension, so only the rank of the
    # induced map can fail
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    assert len(stage.qm.images) == len(images)
    broken = MinimalModelStage(
        stage.algebra, stage.gens, stage.diff, QuasiMorphism(images), stage.k
    )
    failures = {c.name: c.detail for c in verify_stage(broken).failures()}
    assert failures == {"cohomology_isomorphism": detail}


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
    for g, image in zip(stage.gens, stage.diff.images):
        assert isinstance(image, dict), g.name
        assert all(stage.gens.monomial_degree(w) == g.degree + 1 for w in image), g.name
    differential = [c for image in stage.diff.images for c in image.values()]
    rows = [
        x
        for data in stage._data.values()
        for row in data.kernel.rows.values()
        for x in row.values()
    ]
    assert all(canonical(x) for x in differential + rows)
    others = [x for image in stage.qm.images for x in image.values()]
    assert not any(isinstance(x, float) for x in others)


def test_kill_step_combination_of_one_class_is_a_copy():
    classes = [{(0, 0): 1, (1, 1): -1}, {(0, 1): F(1, 2)}]
    row = sullivan._combine({1: 1}, classes)
    assert row == classes[1] and row is not classes[1]
    assert sullivan._combine({1: 2}, classes) == {(0, 1): 1}


# ------------------------------------------------------------- stage-map rows


def reference_image(qm, algebra, degree, vector):
    """The stage map of one word-keyed vector, one word at a time (the
    per-polynomial route that `QuasiMorphism.rows` replaces)."""
    acc = {}
    if algebra.dim(degree):
        for word, c in vector.items():
            linalg.add_scaled(acc, c, qm.on_mono(algebra, word))
    return acc


def assert_rows_match_the_reference(qm, algebra, degree, vectors):
    images = [reference_image(qm, algebra, degree, v) for v in vectors]
    rows = qm.rows(algebra, degree, vectors)
    expected = {}
    for j, image in enumerate(images):
        for t, x in image.items():
            expected.setdefault(t, {})[j] = x
    assert rows == expected
    assert all(row and all(row.values()) for row in rows.values())
    assert linalg.kernel(rows, range(len(vectors))) == column_kernel(images)


def test_stage_map_rows_match_the_per_vector_route():
    rng = random.Random(2501)
    for _ in range(60):
        algebra = algebra_from_split(rng.randint(0, 4), rng.randint(0, 3))
        b2 = algebra.b2
        # degree-2 generators, then a few of degree 4 mapped to multiples of V
        twos = [
            {i: F(rng.randint(-3, 3) or 1, rng.randint(1, 2))
             for i in rng.sample(range(b2), rng.randint(1, b2))}
            for _ in range(rng.randint(0, 5) if b2 else 0)
        ]
        if len(twos) > 1:
            twos[-1] = dict(twos[0])  # two generators with one image
        fours = [{0: rng.choice([1, -2, F(1, 3)])} for _ in range(rng.randint(0, 3))]
        qm = QuasiMorphism(tuple(twos + fours))
        n2 = len(twos)
        words = {
            2: [(i,) for i in range(n2)],
            4: [(i, j) for i in range(n2) for j in range(i, n2)]
            + [(n2 + i,) for i in range(len(fours))],
        }
        for degree, pool in words.items():
            mapped = [w for w in pool if qm.on_mono(algebra, w)]
            vectors = []
            for _ in range(rng.randint(0, 6)):
                vector = {w: F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                          for w in rng.sample(pool, rng.randint(0, len(pool)))}
                if len(mapped) > 1 and rng.random() < 0.6:
                    # words whose images cancel in this vector
                    a, b = rng.sample(mapped, 2)
                    ia, ib = qm.on_mono(algebra, a), qm.on_mono(algebra, b)
                    t = next(iter(ia))
                    if set(ia) == set(ib) and all(ia[s] * ib[t] == ib[s] * ia[t] for s in ia):
                        vector[a], vector[b] = ib[t], -ia[t]
                vectors.append(vector)
            assert_rows_match_the_reference(qm, algebra, degree, vectors)
        # where A vanishes the map has no rows
        assert qm.rows(algebra, 6, [{(0, 0, 0): 1}] if n2 else []) == {}


def test_rows_put_item_j_at_key_j():
    # The rows of a list are the rows of each item alone, moved to its index.
    stage, _, _ = build(algebra_from_split(2, 1), 5)

    def merged(one, items):
        out = {}
        for j, item in enumerate(items):
            for t, row in one(item).items():
                assert set(row) == {0}
                out.setdefault(t, {})[j] = row[0]
        return out

    words = basis(stage.gens, 5)
    assert len(stage.diff.rows(words)) > 1
    assert stage.diff.rows(words) == merged(lambda w: stage.diff.rows([w]), words)
    start = init_stage(stage.algebra)  # its kill step reads all six degree-4 words
    classes = sullivan._cohomology(start, 4)
    assert len(classes) == 6
    rows = start.qm.rows(start.algebra, 4, classes)
    assert rows == merged(lambda v: start.qm.rows(start.algebra, 4, [v]), classes)


def test_stage_map_rows_on_the_hypersurface_kill_step():
    # b2 = 53, split (9, 44): the degree-4 classes of stage 2, all 1431 words,
    # that the first extension step reads the stage map on.
    algebra = algebra_from_split(9, 44)
    stage = init_stage(algebra)
    classes = sullivan._cohomology(stage, 4)
    assert len(classes) == 53 * 54 // 2
    assert_rows_match_the_reference(stage.qm, algebra, 4, classes)
    rows = stage.qm.rows(algebra, 4, classes)
    combos, pivots = linalg.kernel(rows, range(len(classes)))
    assert (combos.dim, len(pivots)) == (1430, 1)


def test_kill_step_combinations_are_in_exact_form():
    # An integral sum of Fractions stays a Fraction unless put through exact.
    row = sullivan._combine({0: F(1, 2), 1: 1}, [{0: 2, 1: 4}, {1: -1, 2: F(3, 2)}])
    assert row == {0: 1, 1: 1, 2: F(3, 2)}
    assert all(canonical(x) for x in row.values())


# ---------------------------------------------------------- carried degree data


@pytest.mark.parametrize(
    "split,max_degree", COEFFICIENT_CELLS, ids=lambda c: str(c).replace(" ", "")
)
def test_carried_degree_data_matches_a_fresh_elimination(split, max_degree):
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    fresh = MinimalModelStage(stage.algebra, stage.gens, stage.diff, stage.qm, stage.k)
    assert max_degree in stage._data  # the top degree, carried by the last step
    for n, data in stage._data.items():
        again = sullivan._diff_data(fresh, n)
        assert data.kernel.ambient_dim == again.kernel.ambient_dim, f"degree {n}"
        assert data.kernel == again.kernel, f"degree {n}"
        assert data.bounds == again.bounds, f"degree {n}"


@pytest.mark.parametrize(
    "split,max_degree,guard",
    [((0, 0), 4, 0), ((0, 0), 5, 0), ((0, 0), 7, 1), ((1, 0), 5, 1), ((2, 0), 5, 6),
     ((1, 1), 5, 6), ((3, 0), 5, 55), ((2, 1), 5, 55), ((4, 0), 5, 234)],
)
def test_cached_degrees_stay_within_the_guard(split, max_degree, guard):
    # Each guard is the least at which the build completes.  At b2 = 0 the
    # carry would grow degree 4 by u4_1 to one word, over a guard of 0.
    stage, _, _ = build(algebra_from_split(*split), max_degree, guard=guard)
    sizes = {n: data.kernel.ambient_dim for n, data in stage._data.items() if n >= 1}
    assert max(sizes.values()) <= guard, sizes
    with pytest.raises(BasisTooLarge):
        build(algebra_from_split(*split), max_degree, guard=guard - 1)
    # The guard lives on the stage, so the cache cannot change the verdict.
    fresh = MinimalModelStage(
        stage.algebra, stage.gens, stage.diff, stage.qm, stage.k, stage.guard
    )
    assert verdict(fresh) == verdict(stage)


def verdict(stage):
    """verify_stage's checks, or the degree at which the guard trips."""
    try:
        return verify_stage(stage).checks
    except BasisTooLarge as exc:
        return exc.degree


def test_verify_holds_a_stage_to_the_guard_it_was_built_under():
    stage, _, _ = build(algebra_from_split(3, 0), 5)
    assert stage.guard == DEFAULT_GUARD and verify_stage(stage).ok
    small = MinimalModelStage(stage.algebra, stage.gens, stage.diff, stage.qm, stage.k, 10)
    assert verdict(small) == 4


def test_a_successor_keeps_its_parents_guard():
    stage = init_stage(algebra_from_split(2, 1), guard=55)
    for _ in range(3):
        stage, _ = extend_stage(stage)
        assert stage.guard == 55
    with pytest.raises(BasisTooLarge) as info:
        extend_stage(init_stage(algebra_from_split(2, 1), guard=5))
    assert info.value.limit == 5


@pytest.mark.parametrize("split,max_degree", [((3, 0), 5), ((1, 2), 7), ((0, 0), 9)])
def test_cocycle_rows_are_keyed_by_the_words_of_their_degree(split, max_degree):
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    for n, data in stage._data.items():
        words = basis(stage.gens, n)
        assert data.kernel.ambient_dim == len(words), f"degree {n}"
        assert list(data.kernel.rows) == sorted(data.kernel.rows), f"degree {n}"
        for lead, row in data.kernel.rows.items():
            assert set(row) <= set(words), f"degree {n}"
            assert min(row) == lead and row[lead] == 1, f"degree {n}"


@pytest.mark.parametrize("split,max_degree", [((3, 0), 5), ((1, 2), 8), ((0, 0), 9)])
def test_verify_after_build_differentiates_no_word_above_degree_two(
    monkeypatch, split, max_degree
):
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    degrees = []
    real = Derivation.rows

    def spy(self, words):
        degrees.extend(self.gens.monomial_degree(m) for m in words)
        return real(self, words)

    monkeypatch.setattr(Derivation, "rows", spy)
    assert verify_stage(stage).ok
    assert degrees and max(degrees) <= 2


@pytest.mark.parametrize(
    "split,max_degree", [((1, 2), 8), ((4, 0), 6), ((6, 0), 5), ((3, 3), 5), ((4, 3), 5)]
)
def test_columns_match_the_per_word_loop_in_every_fresh_degree(monkeypatch, split, max_degree):
    # the model cells of the deep benchmark workload
    calls = []
    real = Derivation.rows

    def spy(self, words):
        rows = real(self, words)
        # split before `kernel` consumes the rows
        calls.append((self, words, leibniz_reference.split_rows(rows, len(words))))
        return rows

    monkeypatch.setattr(Derivation, "rows", spy)
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    degrees = [stage.gens.monomial_degree(words[0]) for _, words, _ in calls if words]
    assert degrees == list(range(4, max_degree + 2))  # each assembled once
    for diff, words, cols in calls:
        assert cols == [leibniz_reference.apply_mono(diff, m) for m in words]


@pytest.mark.parametrize(
    "split,max_degree", COEFFICIENT_CELLS, ids=lambda c: str(c).replace(" ", "")
)
def test_kill_step_rows_vanish_on_the_coboundary_pivots(split, max_degree):
    # Degree k+1 is carried with no independence check: each step's z rows
    # must vanish on the pivot words of B^{k+2} and lead at distinct words.
    stage = init_stage(algebra_from_split(*split))
    while stage.k < max_degree:
        k = stage.k
        fresh = MinimalModelStage(stage.algebra, stage.gens, stage.diff, stage.qm, k)
        bounds = sullivan._diff_data(fresh, k + 1).bounds
        stage, report = extend_stage(stage)
        if not report.new_kernel_generators:
            continue
        z_rows = stage.diff.images[-report.new_kernel_generators:]
        assert not any(word in bounds for z in z_rows for word in z), f"step {k + 1}"
        leads = [min(z) for z in z_rows]
        assert len(set(leads)) == len(leads), f"step {k + 1}"
        for z in z_rows:
            assert z[min(z)] == 1 and not any(z.get(w) for w in leads if w != min(z))


def coboundary_rows(stage, n):
    """B^n as dense rows over the degree-n words: the reduced span of the
    differentials of the degree-(n-1) words, by the per-word reference loop."""
    words = {w: i for i, w in enumerate(basis(stage.gens, n))}
    below = basis(stage.gens, n - 1) if n else []
    images = [leibniz_reference.apply_mono(stage.diff, m) for m in below]
    dense = [[F(0)] * len(words) for _ in images]
    for row, image in zip(dense, images):
        for w, x in image.items():
            row[words[w]] = F(x)
    return ref_rref(dense, len(words))[0]


@pytest.mark.parametrize(
    "split,max_degree", [((0, 0), 7), ((1, 0), 6), ((1, 1), 5), ((2, 1), 5), ((3, 0), 5)]
)
def test_cohomology_rows_match_the_dense_complement_reference(split, max_degree):
    # through degree k + 2, whose classes the next step would kill
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    for n in range(0, max_degree + 3):
        words = basis(stage.gens, n)

        def dense(rows):
            return [tuple(row.get(w, 0) for w in words) for row in rows]

        cocycles = dense(sullivan._diff_data(stage, n).kernel.rows.values())
        expected = ref_complement(coboundary_rows(stage, n), cocycles, len(words))
        assert dense(sullivan._cohomology(stage, n)) == expected, f"degree {n}"


@pytest.mark.parametrize("split,max_degree", [((3, 0), 5), ((1, 2), 7), ((0, 0), 9)])
def test_verify_eliminates_only_for_the_stage_map_ranks(monkeypatch, split, max_degree):
    # After build, H^n is read off cached data by a filter; verify_stage
    # eliminates only the degrees no step needed (below 3, all with zero
    # rows) and the image of H^n under the stage map where A lives.
    stage, _, _ = build(algebra_from_split(*split), max_degree)
    uncached = sum(n not in stage._data for n in range(-1, 3))
    calls = []
    real = linalg._eliminate

    def spy(rows):
        rows = list(rows)
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    assert verify_stage(stage).ok
    ranks = [stage.algebra.dim(n) for n in range(stage.k + 1) if stage.algebra.dim(n)]
    assert [c for c in calls if c] == ranks
    assert len(calls) == uncached + len(ranks)


# ------------------------------------------------ d^2 = 0 against the reference


def _broken_stages():
    """Stages whose differential the test_verify_detects_* cases break."""
    stage, _, _ = build(algebra_from_split(3, 0), max_degree=4)
    gens = stage.gens
    v = next(g for g in gens if g.degree == 3)
    w = next(g for g in gens if g.degree == 4)
    x1 = gen(gens, "x1")
    for i, image in [
        (gens.index(w.name), mul(gens, x1, gen(gens, v.name))),
        (gens.index(v.name), gen(gens, w.name)),
        (gens.index(v.name), mul(gens, x1, x1)),
    ]:
        images = list(stage.diff.images)
        images[i] = image.terms
        yield MinimalModelStage(
            stage.algebra, gens, Derivation(gens, images), stage.qm, stage.k
        )
    for b2, split, degrees in DROP_CELLS:
        r = degrees[-1]
        stage, _, _ = build(algebra_from_split(*split), max_degree=r)
        gens = GeneratorSet(stage.gens.generators[:-1])
        yield MinimalModelStage(
            stage.algebra,
            gens,
            Derivation(gens, stage.diff.images[:-1]),
            QuasiMorphism(stage.qm.images[:-1]),
            r,
        )


def _mutated_stages(seed):
    """Built stages with one or two images changed by a random polynomial."""
    rng = random.Random(seed)
    for split, max_degree in [((3, 0), 5), ((1, 2), 6), ((2, 2), 5), ((0, 0), 7)]:
        stage, _, _ = build(algebra_from_split(*split), max_degree)
        gens = stage.gens
        targets = [i for i, g in enumerate(gens) if g.degree >= 3]
        for _ in range(4):
            images = list(stage.diff.images)
            for i in rng.sample(targets, min(len(targets), rng.choice((1, 2)))):
                degree = gens[i].degree
                products = [m for m in basis(gens, degree) if len(m) > 1]
                if products and rng.random() < 0.5:
                    # a coboundary: d of a product of lower-degree generators
                    shift = stage.diff.apply(Poly.from_terms(gens, {rng.choice(products): 1}))
                else:
                    words = [m for m in basis(gens, degree + 1) if len(m) > 1]
                    shift = Poly.from_terms(gens, {
                        m: F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
                        for m in rng.sample(words, min(len(words), 3))
                    })
                images[i] = add_scaled(dict(images[i]), 1, shift.terms)
            yield MinimalModelStage(
                stage.algebra, gens, Derivation(gens, images), stage.qm, stage.k
            )


def test_d_squared_verdict_and_witness_match_the_reference():
    fresh = [
        build(algebra_from_split(*split), max_degree)[0]
        for split, max_degree in COEFFICIENT_CELLS
    ]
    verdicts = []
    for stage in fresh + list(_broken_stages()) + list(_mutated_stages(15)):
        expected = check_d_squared(stage.gens, stage.diff)
        check = next(c for c in verify_stage(stage).checks if c.name == "d_squared")
        detail = "" if expected.ok else f"d(d({expected.witness})) != 0"
        assert (check.passed, check.detail) == (expected.ok, detail)
        verdicts.append(expected.ok)
    assert verdicts.count(False) >= 5 and verdicts.count(True) > len(fresh)
