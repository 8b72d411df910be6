import itertools
import math
import random
from fractions import Fraction

import pytest

from fourfold.forms import (
    CohomologyAlgebra,
    NotSymmetric,
    NotUnimodular,
    RankTable,
    algebra_from_split,
    canonical_connected_sum,
    closed_form_ranks,
    cohomology_algebra,
    complete_intersection_b2,
    complete_intersection_split,
    diagonal_form,
    e8_form,
    empty_form,
    hyperbolic_form,
    hypersurface_b2,
    k3_form,
    loop_space_mismatches,
    loop_space_ranks,
    _inertia,
    make_form,
    rationally_equivalent,
)
from fourfold.gca import GeneratorSet, Poly
from fourfold.linalg import QMatrix
from fourfold.sullivan import QuasiMorphism
from fraction_reference import congruence_diagonalize, determinant
import pbw_reference

F = Fraction


def random_unimodular_rows(rng, n, steps=12):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for t in range(n):
                u[i][t] += c * u[j][t]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        else:
            for t in range(n):
                u[i][t] = -u[i][t]
    return u


def congruent_form(rng, form):
    n = form.b2
    u = QMatrix.from_rows(random_unimodular_rows(rng, n))
    s = QMatrix.from_rows(form.matrix)
    moved = u.transpose().mul(s).mul(u)
    return make_form([[int(x) for x in row] for row in moved.entries])


# ---------------------------------------------------------------- make_form


def test_make_form_projective_plane():
    q = make_form([[1]])
    assert (q.b2, q.signature) == (1, 1)
    assert canonical_connected_sum(q) == (1, 0)


def test_make_form_hyperbolic():
    q = hyperbolic_form()
    assert (q.b2_plus, q.b2_minus) == (1, 1)
    assert q.signature == 0


def test_make_form_positive_definite_non_diagonal():
    q = make_form([[2, 1], [1, 1]])
    assert determinant(QMatrix.from_rows(q.matrix)) == 1
    assert q.signature == 2


def test_make_form_empty_is_rank_zero():
    q = empty_form()
    assert (q.b2, q.b2_plus, q.b2_minus) == (0, 0, 0)
    assert canonical_connected_sum(q) == (0, 0)


def test_make_form_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        make_form([[0, 1], [2, 0]])


def test_make_form_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        make_form([[2]])


def test_make_form_accepts_negative_determinant():
    q = make_form([[-1]])
    assert (q.b2_plus, q.b2_minus) == (0, 1)


def test_make_form_rejects_bad_entries():
    with pytest.raises(ValueError):
        make_form([[True]])
    with pytest.raises(ValueError):
        make_form([[1, 0], [0]])


def test_e8_form_is_positive_definite_unimodular():
    q = e8_form()
    assert (q.b2, q.signature) == (8, 8)
    assert abs(determinant(QMatrix.from_rows(q.matrix))) == 1


def test_k3_form_invariants():
    q = k3_form()
    assert (q.b2, q.signature) == (22, -16)
    assert canonical_connected_sum(q) == (3, 19)


def form_or_error(factory, arg):
    try:
        return factory(arg)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entries", [
    [], [1], [-1], [1, -1, -1], [-1] * 5, [0], [1, 0, -1], [2], [-2], [2, 3], [1, -2, 1],
    [True],
])
def test_diagonal_form_equals_make_form(entries):
    n = len(entries)
    matrix = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert form_or_error(diagonal_form, entries) == form_or_error(make_form, matrix)


def test_catalog_forms_equal_make_form():
    for q in (hyperbolic_form(), e8_form(), e8_form(negative=True), k3_form(),
              diagonal_form([1] * 3 + [-1] * 19)):
        assert q == make_form(q.matrix)


def reference_inertia(rows):
    n = len(rows)
    _, d = congruence_diagonalize(QMatrix.from_rows(rows, cols=n))
    return sum(1 for x in d if x > 0), sum(1 for x in d if x < 0), math.prod(d)


def test_inertia_agrees_with_fraction_reference():
    # Mostly zero diagonals force swaps and folds after earlier elimination
    # steps; singular and non-unimodular matrices are among the samples.
    rng = random.Random(53)
    for _ in range(3000):
        n = rng.randint(0, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.25:
                rows[i][i] = rng.randint(-3, 3)
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        assert _inertia(rows) == reference_inertia(rows), rows


def scrambled(matrix, rng, target=1000):
    """A random congruence P^T A P, P unimodular, with some entry near `target`."""
    a = [list(row) for row in matrix]
    n = len(a)
    while max(abs(x) for row in a for x in row) < target:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in a:
            row[i] += c * row[j]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def test_make_form_on_congruences_with_large_entries():
    rng = random.Random(71)
    e8_plus_h = [list(r) + [0, 0] for r in e8_form().matrix]
    e8_plus_h += [[0] * 8 + [0, 1], [0] * 8 + [1, 0]]
    for base, expected in ((k3_form().matrix, (22, 3, 19)), (e8_plus_h, (10, 9, 1))):
        for _ in range(4):
            q = make_form(scrambled(base, rng))
            assert max(abs(x) for row in q.matrix for x in row) >= 1000
            assert (q.b2, q.b2_plus, q.b2_minus) == expected


# ------------------------------------------------------------------- algebra


@pytest.mark.parametrize("split", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (3, 2)])
def test_algebra_product_table(split):
    a = algebra_from_split(*split)
    assert [a.dim(n) for n in range(7)] == [1, 0, a.b2, 0, 1, 0, 0]
    # the degree-2 pairing is the diagonalized form
    for i in range(a.b2):
        for j in range(a.b2):
            prod = a.pair({i: F(1)}, {j: F(1)})
            assert prod == ({0: F(a.sign(i))} if i == j else {})


@pytest.mark.parametrize("split", [(1, 0), (2, 1), (0, 3), (3, 19)])
def test_algebra_pairing_is_commutative_and_bilinear(split):
    a = algebra_from_split(*split)
    rng = random.Random(sum(split))
    vectors = [{}] + [{i: F(1)} for i in range(a.b2)]
    for _ in range(20):
        support = rng.sample(range(a.b2), rng.randint(1, a.b2))
        vectors.append({i: F(rng.randint(-3, 3) or 1, rng.randint(1, 4)) for i in support})
    for x in vectors:
        for y in vectors:
            assert a.pair(x, y) == a.pair(y, x)
            value = sum(x[i] * y[i] * a.sign(i) for i in x if i in y)
            assert a.pair(x, y) == ({0: value} if value else {})


def test_algebra_rank_zero_shape():
    a = cohomology_algebra(empty_form())
    assert a.dim(2) == 0
    assert a.dim(4) == 1
    # the top class squares to zero: u -> V sends u^2 to degree 8
    gens = GeneratorSet([("u", 4)])
    qm = QuasiMorphism(({0: F(1)},))
    assert qm.rows(a, 8, [Poly.from_terms(gens, {(0, 0): 1}).terms]) == {}


def test_algebra_rank_one_powers():
    a = cohomology_algebra(make_form([[1]]))
    assert a.pair({0: F(1)}, {0: F(1)}) == {0: F(1)}  # x^2 = V
    gens = GeneratorSet([("x", 2)])
    qm = QuasiMorphism(({0: F(1)},))
    assert qm.rows(a, 4, [Poly.from_terms(gens, {(0, 0): 1}).terms]) == {0: {0: F(1)}}
    assert qm.rows(a, 6, [Poly.from_terms(gens, {(0, 0, 0): 1}).terms]) == {}  # x^3 = 0


def test_cohomology_algebra_sign_split():
    a = algebra_from_split(2, 1)
    x = [{i: F(1)} for i in range(3)]
    assert a.pair(x[0], x[0]) == {0: F(1)}
    assert a.pair(x[1], x[1]) == {0: F(1)}
    assert a.pair(x[2], x[2]) == {0: F(-1)}
    assert a.pair(x[0], x[2]) == {}
    assert a.pair({0: F(1), 2: F(1)}, {0: F(1), 2: F(1)}) == {}  # x1^2 + x3^2 = 0


# ---------------------------------------------------------------- rank tables


def test_closed_form_ranks_k3():
    t = closed_form_ranks(22)
    assert t.ranks == {2: 22, 3: 252, 4: 3520}
    assert not t.finite_tail
    assert t.rank(5) is None  # unknown, not zero


def test_closed_form_ranks_elliptic_cases():
    assert closed_form_ranks(0).ranks == {4: 1, 7: 1}
    assert closed_form_ranks(0).finite_tail
    assert closed_form_ranks(1).ranks == {2: 1, 5: 1}
    assert closed_form_ranks(2).ranks == {2: 2, 3: 2}
    assert closed_form_ranks(2).rank(9) == 0


def test_closed_form_ranks_rank_three_has_degree_five():
    t = closed_form_ranks(3)
    assert t.ranks == {2: 3, 3: 5, 4: 5, 5: 10}


def test_closed_form_ranks_hurewicz():
    for b2 in range(0, 12):
        assert closed_form_ranks(b2).rank(2) == b2


def test_closed_form_ranks_max_degree_cutoff():
    assert closed_form_ranks(3, max_degree=4).ranks == {2: 3, 3: 5, 4: 5}
    assert closed_form_ranks(0, max_degree=5).ranks == {4: 1}


def test_loop_space_ranks_agree_with_closed_forms_where_listed():
    for b2 in range(0, 31):
        table = closed_form_ranks(b2)
        ranks = loop_space_ranks(b2, 7)
        assert set(ranks) == set(range(2, 8))
        listed = range(2, 8) if table.finite_tail else table.ranks
        for r in listed:
            assert ranks[r] == table.rank(r), (b2, r)


def test_loop_space_ranks_match_the_series_product_reference():
    for b2 in range(2, 31):
        assert loop_space_ranks(b2, 40) == pbw_reference.loop_space_ranks(b2, 40), b2
    for max_degree in range(-1, 3):
        assert loop_space_ranks(5, max_degree) == pbw_reference.loop_space_ranks(5, max_degree)


def test_closed_form_ranks_are_the_reference_in_every_listed_degree():
    for b2 in range(2, 31):
        expected = pbw_reference.loop_space_ranks(b2, 7)
        for r, v in closed_form_ranks(b2).ranks.items():
            assert v == expected[r], (b2, r)


def test_loop_space_ranks_beyond_the_closed_forms():
    assert loop_space_ranks(22, 6) == {2: 22, 3: 252, 4: 3520, 5: 57960, 6: 1020096}
    assert loop_space_ranks(3, 6) == {2: 3, 3: 5, 4: 5, 5: 10, 6: 24}
    assert loop_space_ranks(4, 6)[6] == 144


def old_cli_mismatches(b2, engine, max_degree):
    """The command line's verdict before it moved to `forms`, kept as the reference."""
    expected = loop_space_ranks(b2, max_degree)
    return {r: expected[r] for r, v in engine.ranks.items() if v != expected[r]}


@pytest.mark.parametrize("b2", range(9))
def test_loop_space_mismatches_is_the_old_cli_verdict(b2):
    for max_degree in range(2, 9):
        right = RankTable(loop_space_ranks(b2, max_degree))
        assert loop_space_mismatches(b2, right.ranks) == {}
        assert old_cli_mismatches(b2, right, max_degree) == {}
        for r in range(2, max_degree + 1):
            wrong = RankTable({**right.ranks, r: right.ranks[r] + 1})
            bad = loop_space_mismatches(b2, wrong.ranks)
            assert bad == old_cli_mismatches(b2, wrong, max_degree)
            assert bad == {r: right.ranks[r]}


def test_loop_space_mismatches_names_every_wrong_degree():
    table = {2: 3, 3: 5, 4: 4, 5: 10, 6: 25}  # b2 = 3 has rk pi_4 = 5, rk pi_6 = 24
    assert loop_space_mismatches(3, table) == {4: 5, 6: 24}
    assert loop_space_mismatches(3, table) == old_cli_mismatches(3, RankTable(table), 6)
    assert loop_space_mismatches(3, {}) == {}


# ------------------------------------------------------------------ examples


def test_hypersurface_b2_values():
    assert [hypersurface_b2(d) for d in (1, 2, 3, 4)] == [1, 2, 7, 22]


def test_complete_intersection_matches_hypersurface():
    for d in range(1, 7):
        assert complete_intersection_b2([d]) == hypersurface_b2(d)


def test_complete_intersection_quadric():
    # e = (6 - 8 + 4) * 2 = 4
    assert complete_intersection_b2([2]) == 2


def test_complete_intersection_linear_sections_are_projective_planes():
    for n in range(1, 6):
        assert complete_intersection_b2([1] * n) == 1


def test_complete_intersection_two_quadrics():
    # quartic del Pezzo surface: e = [10 - 20 + 8 + 4] * 4 = 8
    assert complete_intersection_b2([2, 2]) == 6


def test_complete_intersection_split_adds_up_to_b2():
    # `examples` reads b2 off the split
    types = [[d] for d in range(1, 200)]
    for n in (2, 3):
        types += itertools.combinations_with_replacement(range(1, 9), n)
    for ds in types:
        plus, minus = complete_intersection_split(ds)
        assert min(plus, minus) >= 0 and plus + minus == complete_intersection_b2(ds), ds


# ------------------------------------------------------------- classification


def test_rational_equivalence_examples():
    assert rationally_equivalent(diagonal_form([1, -1]), hyperbolic_form())
    assert not rationally_equivalent(diagonal_form([1, 1]), hyperbolic_form())
    assert rationally_equivalent(e8_form(), diagonal_form([1] * 8))


def test_rational_equivalence_is_reflexive_and_symmetric():
    q = k3_form()
    assert rationally_equivalent(q, q)
    h = hyperbolic_form()
    d = diagonal_form([1, -1])
    assert rationally_equivalent(h, d) == rationally_equivalent(d, h)


def test_rational_equivalence_invariant_under_congruence():
    rng = random.Random(11)
    forms = [hyperbolic_form(), diagonal_form([1, 1]), diagonal_form([1, -1, -1])]
    for q in forms:
        for _ in range(15):
            moved = congruent_form(rng, q)
            assert rationally_equivalent(q, moved)
            assert canonical_connected_sum(moved) == canonical_connected_sum(q)


def test_canonical_connected_sum_examples():
    assert canonical_connected_sum(e8_form()) == (8, 0)
    assert canonical_connected_sum(hyperbolic_form()) == (1, 1)
    assert canonical_connected_sum(empty_form()) == (0, 0)
    p, q = canonical_connected_sum(k3_form())
    assert rationally_equivalent(algebra_from_split(p, q), k3_form())


def test_rank_table_is_plain_data():
    t = RankTable({2: 5}, False)
    assert t.rank(2) == 5
    assert t.rank(3) is None
