import math
import random
from fractions import Fraction

import pytest

from fourfold import linalg
from fourfold.forms import NotSymmetric, algebra_from_split
from fourfold.gca import basis
from fourfold.linalg import QMatrix, Subspace, kernel
from fourfold.sullivan import build

import leibniz_reference
from fraction_reference import (
    column_kernel,
    congruence_diagonalize,
    dense,
    determinant,
    kernel_basis,
    rref,
    span,
    transpose,
)

F = Fraction


def mat(rows, cols=None):
    return QMatrix.from_rows(rows, cols=cols)


def in_span(rows, vector):
    """Whether the sparse row `vector` lies in the span of `rows`: adding it
    leaves the rank, the number of image pivots, alone."""
    return len(column_kernel([*rows, vector])[1]) == len(column_kernel(rows)[1])


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return mat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n, steps=12):
    """Product of elementary integer operations, so det = +-1."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for t in range(n):
                u[i][t] += c * u[j][t]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif kind == 2:
            for t in range(n):
                u[i][t] = -u[i][t]
    return mat(u)


# ---------------------------------------------------------------- rref


def test_rref_zero_matrix():
    m = mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    r, pivots, rank = rref(m)
    assert rank == 0
    assert pivots == ()
    assert r == m


def test_rref_identity():
    m = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r, pivots, rank = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_rank_one():
    # Hand elimination: row2 - 2*row1 kills the second row.
    r, pivots, rank = rref(mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == (0,)
    assert r.entries == ((F(1), F(2)), (F(0), F(0)))


def test_rref_empty_shapes():
    r, pivots, rank = rref(mat([], cols=5))
    assert (r.rows, r.cols, rank) == (0, 5, 0)
    r, pivots, rank = rref(mat([[], [], []], cols=0))
    assert (r.rows, r.cols, rank) == (3, 0, 0)


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r, _, _ = rref(m)
        r2, _, _ = rref(r)
        assert r2 == r


# ---------------------------------------------------------------- kernel


def test_kernel_of_identity_is_zero():
    k = kernel_basis(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert k.dim == 0
    assert k.ambient_dim == 4


def test_kernel_of_difference_row():
    k = kernel_basis(mat([[1, -1]]))
    assert k == Subspace(2, {0: {0: 1, 1: 1}})


def test_kernel_rank_nullity_and_annihilation():
    rng = random.Random(99)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        _, _, rank = rref(m)
        ker = kernel_basis(m)
        assert rank + ker.dim == cols
        for v in ker.rows.values():
            assert all(sum(row[j] * x for j, x in v.items()) == 0 for row in m.entries)


def test_kernel_of_zero_map_is_everything():
    k = kernel_basis(mat([[0, 0, 0], [0, 0, 0]]))
    assert k.dim == 3
    assert k == Subspace(3, {0: {0: F(1)}, 1: {1: F(1)}, 2: {2: F(1)}})


# ---------------------------------------------------------------- subspaces


def test_subspace_canonical_form_is_unique():
    a = span(3, [{0: 1, 1: 1}, {1: 1, 2: 1}])
    b = span(3, [{0: 1, 1: 2, 2: 1}, {0: 2, 1: 3, 2: 1}])
    assert a == b == Subspace(3, {0: {0: 1, 2: -1}, 1: {1: 1, 2: 1}})


def test_repr_evaluates_to_an_equal_subspace():
    spaces = [
        Subspace(3, {}),
        Subspace(2, {0: {0: F(1)}, 1: {1: F(1)}}),
        span(5, [{0: 2, 1: 4, 3: 1}, {2: 3, 3: 1, 4: F(1, 2)}, {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}]),
        span(3, [{0: 1, 2: 3}]),
    ]
    for s in spaces:
        assert eval(repr(s), {"Subspace": Subspace, "Fraction": Fraction}) == s
    assert repr(spaces[0]) == "Subspace(3, {})"
    assert spaces[2].rows == {
        0: {0: 1, 1: 2, 4: F(-1, 2)}, 2: {2: 1, 4: F(-1, 6)}, 3: {3: 1, 4: 1}
    }
    # integral entries print as ints; the order within a row is the kernel's
    assert repr(spaces[2]).startswith("Subspace(5, {0: {0: 1, ")
    assert "Fraction(-1, 2)" in repr(spaces[2]) and "Fraction(1, 1)" not in repr(spaces[2])


def complement_of_image(inner, outer):
    """The cocycle rows of a complex `inner` then `outer` (given by columns)
    whose lead is no pivot of the image of `inner`, as `sullivan._cohomology`
    reads H^n off its kernel data."""
    cocycles, _ = column_kernel(outer)
    _, bounds = column_kernel(inner)
    return {p: row for p, row in cocycles.rows.items() if p not in bounds}


def test_complement_of_itself_is_zero():
    outer = [{0: 1}, {}, {0: -1}]  # cocycles: e0 + e2 and e1
    inner = [{0: 2, 2: 2}, {1: 3}, {0: 1, 1: 1, 2: 1}]
    assert column_kernel(inner)[1] == set(column_kernel(outer)[0].rows) == {0, 1}
    assert complement_of_image(inner, outer) == {}


def test_complement_of_zero_is_everything():
    outer = [{0: 1}, {}, {0: -1}]
    for inner in ([], [{}, {}], [{1: 0}]):
        assert complement_of_image(inner, outer) == column_kernel(outer)[0].rows


def test_complement_splits_ambient():
    inner = [{0: F(1)}]
    comp = complement_of_image(inner, [{}, {}, {}])
    assert comp == {1: {1: 1}, 2: {2: 1}}
    assert len(column_kernel(inner + list(comp.values()))[1]) == 3
    for v in comp.values():
        assert not in_span(inner, v)


def test_complement_random_dimension_count():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        outer = [
            {i: rng.randint(-2, 2) for i in range(rng.randint(0, 3))} for _ in range(n)
        ]
        cocycles, _ = column_kernel(outer)
        # coboundaries: integer combinations of the cocycles, so B lies in Z
        inner = []
        for _ in range(rng.randint(0, cocycles.dim + 1)):
            column: dict = {}
            for row in cocycles.rows.values():
                linalg.add_scaled(column, rng.randint(-2, 2), row)
            inner.append(column)
        sub = span(n, inner)
        bounds = column_kernel(inner)[1]
        assert bounds == set(sub.rows) <= set(cocycles.rows)
        comp = complement_of_image(inner, outer)
        assert sub.dim + len(comp) == cocycles.dim
        assert span(n, list(sub.rows.values()) + list(comp.values())) == cocycles
        got = [tuple(row.get(j, 0) for j in range(n)) for row in comp.values()]
        assert got == ref_complement(dense(sub), dense(cocycles), n)


def test_membership_matches_the_rank_test():
    rng = random.Random(15)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        sub = span(
            n,
            [{j: rng.randint(-2, 2) for j in range(n)} for _ in range(rng.randint(0, n))],
        )
        if rng.random() < 0.5:
            # a combination of the basis rows, with rational coefficients
            vector: dict = {}
            for row in sub.rows.values():
                linalg.add_scaled(vector, F(rng.randint(-3, 3), rng.randint(1, 3)), row)
        else:
            vector = {j: x for j in range(n) if (x := rng.randint(-2, 2))}
        before = dict(vector)
        assert sub.contains(vector) == in_span(list(sub.rows.values()), vector)
        assert vector == before  # the row is left as it was
        seen.add(sub.contains(vector))
    assert seen == {True, False}


def test_add_scaled_updates_in_place_and_deletes_what_cancels():
    acc = {0: 1, 2: F(1, 2), 5: 3}
    row = {0: 2, 2: -1, 4: 7}
    out = linalg.add_scaled(acc, F(1, 2), row)
    assert out is acc
    assert acc == {0: 2, 4: F(7, 2), 5: 3}  # column 2 cancelled and is gone
    assert row == {0: 2, 2: -1, 4: 7}
    assert linalg.add_scaled(acc, -1, dict(acc)) == {}


# ------------------------------------------------- congruence diagonalization


def diag_signs(d):
    return tuple(0 if x == 0 else (1 if x > 0 else -1) for x in d)


def test_congruence_identity():
    identity = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    p, d = congruence_diagonalize(identity)
    assert p == identity
    assert d == (F(1), F(1), F(1))


def test_congruence_hyperbolic_signs():
    # Oracle: the characteristic polynomial of [[0,1],[1,0]] is t^2 - 1,
    # so the eigenvalues are +1 and -1 and the signs must be (+, -).
    s = mat([[0, 1], [1, 0]])
    p, d = congruence_diagonalize(s)
    assert sorted(diag_signs(d), reverse=True) == [1, -1]
    assert p.transpose().mul(s).mul(p).entries == tuple(
        tuple(d[i] if i == j else F(0) for j in range(2)) for i in range(2)
    )


E8_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]


def e8_rows():
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2
    for i, j in E8_EDGES:
        rows[i][j] = rows[j][i] = -1
    return rows


def test_congruence_e8_positive_definite():
    rows = e8_rows()
    # Oracle: all leading principal minors computed exactly are positive,
    # so the form is positive definite and every sign must be +.
    for k in range(1, 9):
        minor = determinant(mat([row[:k] for row in rows[:k]]))
        assert minor > 0
    s = mat(rows)
    p, d = congruence_diagonalize(s)
    assert diag_signs(d) == (1,) * 8
    assert p.transpose().mul(s).mul(p).entries == tuple(
        tuple(d[i] if i == j else F(0) for j in range(8)) for i in range(8)
    )


def test_congruence_requires_symmetry():
    with pytest.raises(NotSymmetric):
        congruence_diagonalize(mat([[0, 1], [2, 0]]))


def test_congruence_exact_and_sign_invariant_under_unimodular_change():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 5)
        raw = random_matrix(rng, n, n)
        s = QMatrix.from_rows(
            [
                [raw.entries[i][j] + raw.entries[j][i] for j in range(n)]
                for i in range(n)
            ]
        )
        p, d = congruence_diagonalize(s)
        recomputed = p.transpose().mul(s).mul(p)
        assert recomputed.entries == tuple(
            tuple(d[i] if i == j else F(0) for j in range(n)) for i in range(n)
        )
        u = random_unimodular(rng, n)
        s2 = u.transpose().mul(s).mul(u)
        _, d2 = congruence_diagonalize(s2)
        assert sorted(diag_signs(d)) == sorted(diag_signs(d2))


def test_congruence_zero_and_empty():
    p, d = congruence_diagonalize(mat([[0, 0], [0, 0]]))
    assert d == (F(0), F(0))
    p, d = congruence_diagonalize(mat([], cols=0))
    assert d == ()


# ---------------------------------------------------------------- determinant


def test_determinant_basics():
    assert determinant(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 1
    assert determinant(mat([[0, 1], [1, 0]])) == -1
    assert determinant(mat([[2, 1], [1, 1]])) == 1
    assert determinant(mat([[1, 2], [2, 4]])) == 0
    assert determinant(mat([], cols=0)) == 1


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert determinant(a.mul(b)) == determinant(a) * determinant(b)


def test_congruence_diagonal_product_is_determinant():
    # The two references agree on the determinant.
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        s = mat(rows, cols=n)
        _, d = congruence_diagonalize(s)
        assert math.prod(d) == determinant(s)


# ------------------------------------------- sparse kernel vs dense reference


def ref_rref(rows, ncols):
    """Textbook dense Gauss-Jordan elimination: (nonzero RREF rows, pivots)."""
    a = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return [tuple(row) for row in a[: len(pivots)]], pivots


def ref_kernel(rows, ncols):
    reduced, pivots = ref_rref(rows, ncols)
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return ref_rref(vectors, ncols)[0]


def ref_complement(sub_rows, within_rows, ncols):
    """Reduce each basis vector of `within` to zero on the pivot columns of
    everything held so far, keep the nonzero remainders, then reduce those."""
    held, kept = list(sub_rows), []
    for w in within_rows:
        basis_rows, pivots = ref_rref(held, ncols)
        v = list(w)
        for row, p in zip(basis_rows, pivots):
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
        if any(v):
            held.append(v)
            kept.append(v)
    return ref_rref(kept, ncols)[0]


def random_sparse_rows(rng, nrows, ncols, density=0.25):
    rows = [
        [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else F(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))  # a duplicate row
    if rng.random() < 0.2:
        rows.append([F(0)] * ncols)  # an all-zero row
    rng.shuffle(rows)
    return rows


SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (5, 9), (9, 5), (12, 12)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_sparse_kernel_matches_dense_reference(shape):
    rng = random.Random(f"sparse-{shape}")
    nrows, ncols = shape
    for _ in range(25):
        rows = random_sparse_rows(rng, nrows, ncols)
        m = mat(rows, cols=ncols)
        reduced, pivots = ref_rref(rows, ncols)
        r, got_pivots, rank = rref(m)
        assert got_pivots == tuple(pivots) and rank == len(pivots)
        assert r.entries == tuple(reduced) + ((F(0),) * ncols,) * (m.rows - rank)
        assert dense(kernel_basis(m)) == tuple(ref_kernel(rows, ncols))


def canonical(x):
    """An exact rational as the engine stores it: an int, or a non-integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def random_integer_rows(rng, nrows, ncols, mixed):
    """Sparse rows of small ints, each leading with a pivot in {+-1, +-2, 3};
    with `mixed`, some later entries are Fractions (x/2 and x/3)."""
    rows = []
    for _ in range(nrows):
        lead = rng.randrange(ncols)
        row = {lead: rng.choice([1, -1, 2, -2, 3])}
        for j in range(lead + 1, ncols):
            if rng.random() < 0.3:
                x = rng.choice([-3, -2, -1, 1, 2, 3])
                row[j] = F(x, rng.choice([2, 3])) if mixed and rng.random() < 0.4 else x
        rows.append(row)
    return rows


@pytest.mark.parametrize("mixed", [False, True], ids=["int", "mixed"])
@pytest.mark.parametrize(
    "shape", [s for s in SHAPES if s[1]], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_integer_rows_match_dense_reference_in_canonical_form(shape, mixed):
    rng = random.Random(f"integer-{shape}-{mixed}")
    nrows, ncols = shape
    for _ in range(25):
        rows = random_integer_rows(rng, nrows, ncols, mixed)
        full = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        reduced, pivots = ref_rref(full, ncols)
        within = span(ncols, rows)
        got = list(within.rows.values())
        assert list(within.rows) == pivots
        assert [tuple(r.get(j, 0) for j in range(ncols)) for r in got] == list(reduced)
        null, _ = column_kernel(transpose(rows, ncols))
        assert dense(null) == tuple(ref_kernel(full, ncols))
        assert kernel_basis(mat(full, cols=ncols)) == null
        outputs = got + [r for s in (null, within) for r in s.rows.values()]
        assert all(canonical(x) for r in outputs for x in r.values())


def shared_factor_rows(rng, nrows, ncols):
    """Sparse rows led at their largest column by 4, 6 or 9 (either sign), or
    by 1 or -2, with Fraction entries over 2, 3, 4 and 5; some rows are
    combinations of earlier ones, so they cancel to {} in elimination."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            s, t = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 3])), rng.choice([-1, 1, 2])
            combo = linalg.add_scaled({j: s * x for j, x in rng.choice(rows).items()}, t, rng.choice(rows))
            rows.append({j: linalg.exact(x) for j, x in combo.items()})
            continue
        lead = rng.randrange(ncols)
        row = {lead: linalg.exact(F(rng.choice([4, -4, 6, -6, 9, 1, -2]), rng.choice([1, 1, 3])))}
        for j in range(lead):
            if rng.random() < 0.5:
                x = rng.choice([-6, -4, -3, -1, 1, 2, 4, 6, 9])
                row[j] = linalg.exact(F(x, rng.choice([2, 3, 4, 5]))) if rng.random() < 0.3 else x
        rows.append(row)
    return rows


def test_elimination_against_pivots_that_share_a_factor(monkeypatch):
    # Against a pivot a other than 1 a step takes g = gcd(a, f) and scales v
    # by a/g; leads of 4, 6 and 9 make both g != 1 and a/g != 1 occur.
    steps = []

    def spy(*args):
        g = math.gcd(*args)
        if len(args) == 2:
            steps.append((args[0], g))
        return g

    monkeypatch.setattr(linalg, "gcd", spy)
    rng = random.Random("shared-factors")
    for _ in range(80):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 6)
        rows = shared_factor_rows(rng, nrows, ncols)
        full = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        given = [dict(row) for row in rows]
        reduced = linalg._eliminate(given)
        # _eliminate leads each row at its largest column: the textbook form
        # of the matrix with its columns reversed
        backwards, pivots = ref_rref([row[::-1] for row in full], ncols)
        assert list(reduced) == sorted(ncols - 1 - p for p in pivots)
        assert {p: tuple(r.get(j, 0) for j in range(ncols)) for p, r in reduced.items()} == {
            ncols - 1 - p: tuple(row[::-1]) for p, row in zip(pivots, backwards)
        }
        expected, pivots = ref_rref(full, ncols)
        assert rref(mat(full, cols=ncols))[0].entries[: len(pivots)] == tuple(expected)
        assert all(canonical(x) for r in reduced.values() for x in r.values())
        # a row is left {} exactly when it depends on the rows before it
        ranks = [len(ref_rref(full[: i + 1], ncols)[1]) for i in range(nrows)]
        assert [not row for row in given] == [r == (ranks[i - 1] if i else 0) for i, r in enumerate(ranks)]
        null, _ = column_kernel(transpose(rows, ncols))
        assert dense(null) == tuple(ref_kernel(full, ncols))
    assert any(g != 1 and a // g != 1 for a, g in steps)
    assert any(g != 1 and a // g == 1 for a, g in steps)
    assert any(g == 1 and a != 1 for a, g in steps)


def test_reduced_echelon_form_ignores_row_order():
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        rows = random_sparse_rows(rng, nrows, ncols, density=0.4)
        expected = rref(mat(rows, cols=ncols))
        for _ in range(4):
            rng.shuffle(rows)
            assert rref(mat(rows, cols=ncols)) == expected


def test_image_pivots_do_not_depend_on_the_key_type():
    # the pivots `column_kernel` reports are those of the span of its columns
    rng = random.Random("span")

    def word(j):  # sorts as j does, like the words of one degree
        return (j // 3, j % 3)

    for _ in range(40):
        ncols = rng.randint(1, 8)
        rows = [
            {j: rng.randint(-3, 3) for j in rng.sample(range(ncols), rng.randint(0, ncols))}
            for _ in range(rng.randint(0, 6))
        ]
        before = [dict(row) for row in rows]
        expected = ref_image_pivots(rows)
        assert column_kernel(rows)[1] == expected
        keyed = [{word(j): x for j, x in row.items()} for row in rows]
        assert column_kernel(keyed)[1] == {word(p) for p in expected}
        assert rows == before
    assert column_kernel([{(0, 1): 0, (1,): F(2)}])[1] == {(1,)}


def ref_image_pivots(columns):
    """The pivots of the reduced echelon basis of the span of `columns`,
    read off a dense elimination over the sorted keys they use."""
    keys = sorted({key for column in columns for key in column})
    dense = [[column.get(key, 0) for key in keys] for column in columns]
    return {keys[p] for p in ref_rref(dense, len(keys))[1]}


@pytest.mark.parametrize("mixed", [False, True], ids=["int", "mixed"])
def test_kernel_pivots_match_a_dense_reference(mixed):
    rng = random.Random(f"kernel-pivots-{mixed}")

    def value():
        x = rng.choice([-3, -2, -1, 1, 2, 3])
        return F(x, rng.choice([2, 3])) if mixed and rng.random() < 0.4 else x

    for trial in range(120):
        nkeys = rng.randint(1, 9)
        keys = [(j // 3, j % 3) for j in range(nkeys)] if trial % 2 else list(range(nkeys))
        columns = []
        for _ in range(rng.randint(0, 9)):
            kind = rng.random()
            if columns and kind < 0.15:
                columns.append(dict(rng.choice(columns)))  # repeated
            elif kind < 0.25:
                columns.append({})  # zero
            elif kind < 0.3:
                columns.append({rng.choice(keys): 0})  # a stored zero
            else:
                columns.append({k: value() for k in rng.sample(keys, rng.randint(1, nkeys))})
        null, pivots = column_kernel(columns)
        assert pivots == ref_image_pivots(columns)
        assert len(pivots) + null.dim == len(columns)  # rank + nullity
    assert column_kernel([]) == (Subspace(0, {}), set())


def differential_rows(b2, max_degree, degree):
    """Sparse constraint rows of d from degree `degree` of the stage built
    through `max_degree`: one row per target monomial, graded-lex columns."""
    stage, _, _ = build(algebra_from_split(b2, 0), max_degree)
    blist = basis(stage.gens, degree)
    index = {m: i for i, m in enumerate(basis(stage.gens, degree + 1))}
    rowmap = {index[mono]: row for mono, row in stage.diff.rows(blist).items()}
    return [rowmap[i] for i in sorted(rowmap)], len(blist)


def test_kernel_of_a_real_differential_matches_dense_reference():
    # b2 = 3, degree 8 -> 9 at stage 7: 193 rows, 212 columns, nullity 101,
    # far past the random shapes above
    rows, ncols = differential_rows(3, 7, 8)
    rng = random.Random("differential-b2=3-degree-8")
    rows = [{j: x * F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
             for j, x in row.items()} for row in rows]
    rows += [{j: 2 * x for j, x in rng.choice(rows).items()} for _ in range(5)]
    rng.shuffle(rows)
    full = [[row.get(j, F(0)) for j in range(ncols)] for row in rows]
    null = kernel_basis(mat(full, cols=ncols))
    assert 0 < null.dim < ncols
    assert dense(null) == tuple(ref_kernel(full, ncols))
    assert column_kernel(transpose(rows, ncols))[0] == null


def ref_kernel_of_columns(columns):
    """`ref_kernel` of the matrix whose columns are given, with its rows in
    the sorted order of the keys the columns use."""
    keys = sorted({key for column in columns for key in column})
    dense = [[column.get(key, 0) for column in columns] for key in keys]
    return tuple(tuple(row) for row in ref_kernel(dense, len(columns)))


def test_kernel_of_columns_keyed_by_monomial_words():
    # stage 5 of b2 = 3: degree-7 words of length 2 (x v5, v3 v4) and 3 (x x v3)
    stage, _, _ = build(algebra_from_split(2, 1), 5)
    targets = basis(stage.gens, 7)
    assert len({len(word) for word in targets}) > 1
    differential = [leibniz_reference.apply_mono(stage.diff, m) for m in basis(stage.gens, 6)]
    null, pivots = column_kernel(differential)
    assert 0 < null.dim < len(differential)
    assert dense(null) == ref_kernel_of_columns(differential)
    assert pivots == ref_image_pivots(differential)
    rng = random.Random("word-columns")
    for _ in range(40):
        columns = [
            {w: rng.choice([1, -1, 2, F(1, 2), F(-3, 2)])
             for w in rng.sample(targets, rng.randint(0, 3))}
            for _ in range(rng.randint(1, 12))
        ]
        got, pivots = column_kernel(columns)
        assert dense(got) == ref_kernel_of_columns(columns)
        assert pivots == ref_image_pivots(columns)
        assert all(canonical(x) for r in got.rows.values() for x in r.values())


def test_kernel_of_degenerate_columns():
    assert column_kernel([]) == (Subspace(0, {}), set())
    # all-empty columns: everything is in the kernel, and the image is 0
    assert column_kernel([{}, {}, {}]) == (Subspace(3, {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}), set())
    # a stored zero contributes nothing, even as a column's only entry
    stored = [{"a": 1, "b": 0}, {"b": 0}, {"a": -1, "c": 0}, {"a": 0, "c": 2}]
    cleaned = [{k: x for k, x in column.items() if x} for column in stored]
    null = Subspace(4, {0: {0: 1, 2: 1}, 1: {1: 1}})
    assert column_kernel(stored) == column_kernel(cleaned) == (null, {"a", "c"})
    assert dense(column_kernel(stored)[0]) == ref_kernel_of_columns(stored)
    assert dense(column_kernel([{0: 0}] * 2)[0]) == ref_kernel_of_columns([{0: 0}] * 2)


def test_kernel_keys_its_vectors_by_the_domain_keys():
    # `kernel` takes rows with column j at key j and keys the kernel by
    # `keys`; `column_kernel` keys it by column index
    rng = random.Random("kernel-keys")
    for _ in range(60):
        ncols = rng.randint(0, 8)
        keys = sorted(rng.sample([(a, b) for a in range(4) for b in range(4)], ncols))
        columns = [
            {t: rng.choice([1, -1, 2, F(1, 2)]) for t in rng.sample("abcdef", rng.randint(0, 3))}
            for _ in range(ncols)
        ]
        rows = {}
        for j, column in enumerate(columns):
            for t, x in column.items():
                rows.setdefault(t, {})[j] = x
        by_index, pivots = column_kernel(columns)
        null, image = kernel(rows, keys)
        assert image == pivots
        assert null == Subspace(ncols, {
            keys[p]: {keys[j]: x for j, x in row.items()} for p, row in by_index.rows.items()
        })
        assert {t for t, row in rows.items() if row} == pivots  # the rows are consumed
    assert kernel({}, []) == (Subspace(0, {}), set())
    assert kernel({}, ["u", "v"]) == (Subspace(2, {"u": {"u": 1}, "v": {"v": 1}}), set())
    # u -> a, v -> a + b, w -> b: w = v - u
    null, image = kernel({"a": {0: 1, 1: 1}, "b": {1: 1, 2: 1}}, ["u", "v", "w"])
    assert null == Subspace(3, {"u": {"u": 1, "v": -1, "w": 1}})
    assert image == {"a", "b"}


def test_clearing_a_pivot_can_create_an_entry_at_a_smaller_one():
    # Rows a, b, c in that order: a leads at column 2 and b at 1; c = {2: 2,
    # 3: 1} loses column 2 to a, which leaves -2 at pivot 1, and clearing
    # that by b leaves 2 at column 0: c keeps {3: 1, 0: 2}, led by 3.
    def rows():
        return {"a": {1: 1, 2: 1}, "b": {0: 1, 1: 1}, "c": {2: 2, 3: 1}}

    columns = [{"b": 1}, {"a": 1, "b": 1}, {"a": 1, "c": 2}, {"c": 1}]
    null, image = kernel(rows(), ["w", "x", "y", "z"])
    assert null == Subspace(4, {"w": {"w": 1, "x": -1, "y": 1, "z": -2}})
    assert image == {"a", "b", "c"}
    by_index, pivots = column_kernel(columns)
    assert by_index == kernel(rows(), range(4))[0] and pivots == image
    dense_rows = [[column.get(t, 0) for column in columns] for t in "abc"]
    assert dense(by_index) == tuple(ref_kernel(dense_rows, 4))


def test_membership_on_word_keyed_reduced_rows():
    # A reduced basis keyed by words: each row is 1 at its pivot word and 0
    # at the other's.
    sub = Subspace(4, {(0, 0): {(0, 0): 1, (1, 1): 2}, (0, 1): {(0, 1): 1, (1, 1): F(-1, 2)}})
    member = {(0, 0): 3, (0, 1): F(2, 3), (1, 1): F(17, 3)}  # 3 * first + 2/3 * second
    outside = {(0, 0): 1, (1, 1): 1}
    no_pivot = {(1, 1): 1, (2, 2): -1}
    for vector, expected in [(member, True), (outside, False), (no_pivot, False), ({}, True)]:
        before = dict(vector)
        assert sub.contains(vector) is expected
        assert vector == before  # the row is left as it was
    assert not Subspace(4, {}).contains(no_pivot)


def test_kernel_eliminates_once(monkeypatch):
    calls = []
    real = linalg._eliminate

    def counting(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    rng = random.Random("kernel-calls")
    for n in range(1, 30):
        ncols = rng.randint(1, 8)
        column_kernel(transpose(random_integer_rows(rng, rng.randint(0, 8), ncols, mixed=True), ncols))
        assert len(calls) == n
