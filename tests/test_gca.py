import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from fourfold.gca import (
    DegreeMismatch,
    Derivation,
    GeneratorSet,
    Poly,
    basis,
    basis_count,
    decomposable_subspace,
    format_poly,
    mono_mul,
    mul,
)
from fourfold.linalg import kernel

import leibniz_reference
from d_squared_reference import check_d_squared
from dense_reference import dense_basis, dense_mono_mul, to_word

F = Fraction


def gen(gens, name):
    """The generator called `name`, as a polynomial."""
    return Poly.from_terms(gens, {(gens.index(name),): 1})


def two_vars():
    return GeneratorSet([("x1", 2), ("x2", 2)])


def stage3_b2_3():
    """Generators shaped like the third model stage at second Betti number 3."""
    return GeneratorSet(
        [("x1", 2), ("x2", 2), ("x3", 2), ("v2", 3), ("v3", 3), ("v12", 3), ("v13", 3), ("v23", 3)]
    )


def stage3_differential(gens):
    """dv_i = x1^2 - x_i^2 and dv_ij = x_i x_j (definite case)."""
    x = {i: gen(gens, f"x{i}") for i in (1, 2, 3)}
    sq = lambda i: mul(gens, x[i], x[i])
    images = [
        {},
        {},
        {},
        (sq(1) - sq(2)).terms,
        (sq(1) - sq(3)).terms,
        mul(gens, x[1], x[2]).terms,
        mul(gens, x[1], x[3]).terms,
        mul(gens, x[2], x[3]).terms,
    ]
    return Derivation(gens, images)


def random_homogeneous(rng, gens, degree):
    monos = basis(gens, degree)
    terms = {}
    for m in monos:
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
            if c:
                terms[m] = F(c)
    return Poly.from_terms(gens, terms)


# ---------------------------------------------------------------- basis


def test_basis_degree_zero_is_unit():
    assert basis(two_vars(), 0) == [()]
    assert basis(GeneratorSet([]), 0) == [()]
    assert basis_count(two_vars(), 0) == basis_count(GeneratorSet([]), 0) == 1


def test_basis_two_degree_two_generators():
    got = basis(two_vars(), 4)
    assert got == [(0, 0), (0, 1), (1, 1)]  # x1^2, x1*x2, x2^2 in graded-lex order


def test_basis_of_many_generators_needs_no_recursion():
    # 1500 generators is past the interpreter's default recursion limit, so
    # an enumeration that recursed once per generator would fail here.
    gens = GeneratorSet([(f"x{i}", 2) for i in range(1500)])
    monos = basis(gens, 2)
    assert len(monos) == 1500
    assert monos[0] == (0,) and monos[-1] == (1499,)


def per_generator_count(gens, degree):
    """The number of degree-`degree` monomials, folding in one generator at
    a time: an even one takes any exponent, an odd one 0 or 1."""
    counts = [1] + [0] * degree
    for d in gens.degrees:
        steps = range(degree, d - 1, -1) if d % 2 else range(d, degree + 1)
        for m in steps:
            counts[m] += counts[m - d]
    return counts[degree]


def test_basis_count_matches_the_per_generator_count():
    # basis_count folds in the generators of one degree together, with
    # binomial coefficients once there are more of them than fit in the
    # degree (odd ones at most once each); both sides of that are drawn.
    rng = random.Random(25)
    for _ in range(200):
        spec = []
        for d in rng.sample(range(2, 9), rng.randint(1, 5)):
            spec += [d] * rng.randint(1, 12)
        rng.shuffle(spec)
        gens = GeneratorSet([(f"g{i}", d) for i, d in enumerate(spec)])
        for degree in range(0, 19):
            assert basis_count(gens, degree) == per_generator_count(gens, degree)
    assert basis_count(GeneratorSet([("v", 3), ("w", 3)]), 6) == 1  # v*w alone
    with pytest.raises(ValueError):
        basis_count(two_vars(), -1)


def test_generator_set_counts_each_degree():
    gens = GeneratorSet([("a", 3), ("b", 2), ("c", 3)])
    assert gens.multiplicity == {3: 2, 2: 1}
    grown = gens.extended([("d", 4), ("e", 2)])
    assert grown.multiplicity == {3: 2, 2: 2, 4: 1}
    assert gens.multiplicity == {3: 2, 2: 1}  # the original is left alone


def test_basis_count_is_the_length_of_the_basis():
    rng = random.Random(7)
    for _ in range(300):
        gens = GeneratorSet([(f"g{i}", rng.randint(2, 7)) for i in range(rng.randint(1, 6))])
        degree = rng.randint(1, 14)
        assert basis_count(gens, degree) == len(basis(gens, degree))


def test_basis_mixed_degree_five_counts():
    gens = stage3_b2_3()
    monos = basis(gens, 5)
    # Exhaustive cross-check: degree 5 = 2 + 3 exactly, so the basis must be
    # all x_i * v products and nothing else.
    assert len(monos) == 3 * 5
    for m in monos:
        assert len(m) == 2 and m[0] < 3 <= m[1]


def test_word_basis_and_products_match_the_dense_reference():
    """Word bases come in the dense graded-lex order; products keep their signs.

    Some generator sets have unsorted degrees, as a hand-written set may.
    Sorting the words ascending must also give the order of the dense
    vectors sorted descending, the order the output formats rely on.
    """
    rng = random.Random(8)
    for trial in range(400):
        degs = [rng.randint(2, 7) for _ in range(rng.randint(1, 7))]
        if trial % 2:
            degs.sort()
        gens = GeneratorSet([(f"g{i}", d) for i, d in enumerate(degs)])
        bases = {}
        for degree in range(0, 13):
            dense = dense_basis(gens, degree)
            words = basis(gens, degree)
            assert words == [to_word(m) for m in dense]
            assert sorted(words) == [to_word(m) for m in sorted(dense, reverse=True)]
            bases[degree] = list(zip(dense, words))
        for _ in range(20):
            da, db = rng.randint(2, 8), rng.randint(2, 8)
            if not bases[da] or not bases[db]:
                continue
            (ma, wa), (mb, wb) = rng.choice(bases[da]), rng.choice(bases[db])
            want = dense_mono_mul(gens, ma, mb)
            got = mono_mul(gens, wa, wb)
            if want is None:
                assert got is None
            else:
                assert got == (want[0], to_word(want[1]))


def test_basis_odd_total_degree_of_even_generators_is_empty():
    assert basis(two_vars(), 5) == []


def test_basis_polynomial_dimension_formula():
    for g in range(1, 5):
        gens = GeneratorSet([(f"x{i}", 2) for i in range(g)])
        for n in range(0, 11):
            expect = 0 if n % 2 else math.comb(g + n // 2 - 1, n // 2)
            assert len(basis(gens, n)) == expect


def test_basis_odd_generators_square_free():
    gens = GeneratorSet([("a", 3), ("b", 3)])
    assert basis(gens, 6) == [(0, 1)]
    assert basis(gens, 9) == []


# ---------------------------------------------------------------- products


def test_odd_generator_squares_to_zero():
    gens = GeneratorSet([("u", 3)])
    u = gen(gens, "u")
    assert mul(gens, u, u).is_zero()


def test_odd_generators_anticommute():
    gens = GeneratorSet([("v2", 3), ("v3", 3)])
    a = gen(gens, "v2")
    b = gen(gens, "v3")
    assert mul(gens, a, b) == -mul(gens, b, a)
    assert not mul(gens, a, b).is_zero()


def test_difference_of_squares():
    gens = two_vars()
    x1 = gen(gens, "x1")
    x2 = gen(gens, "x2")
    got = mul(gens, x1 + x2, x1 - x2)
    want = mul(gens, x1, x1) - mul(gens, x2, x2)
    assert got == want


def test_even_times_odd_commutes():
    gens = GeneratorSet([("x", 2), ("v", 3)])
    x = gen(gens, "x")
    v = gen(gens, "v")
    assert mul(gens, x, v) == mul(gens, v, x)


def test_ring_axioms_on_random_samples():
    rng = random.Random(2024)
    gens = GeneratorSet([("x1", 2), ("x2", 2), ("a", 3), ("b", 3), ("w", 4)])
    degrees = [2, 3, 4, 5]
    for _ in range(200):
        da, db, dc = (rng.choice(degrees) for _ in range(3))
        a = random_homogeneous(rng, gens, da)
        b = random_homogeneous(rng, gens, db)
        c = random_homogeneous(rng, gens, dc)
        # associativity
        assert mul(gens, mul(gens, a, b), c) == mul(gens, a, mul(gens, b, c))
        # graded commutativity
        sign = -1 if (da % 2) and (db % 2) else 1
        assert mul(gens, a, b) == mul(gens, b, a).scaled(sign)
        # distributivity (b and c must share a degree to be addable)
        c2 = random_homogeneous(rng, gens, db)
        assert mul(gens, a, b + c2) == mul(gens, a, b) + mul(gens, a, c2)


def test_poly_rejects_inhomogeneous_terms():
    gens = GeneratorSet([("x", 2), ("v", 3)])
    with pytest.raises(ValueError):
        Poly.from_terms(gens, {(0,): 1, (1,): 1})


def test_poly_rejects_unsorted_word():
    gens = GeneratorSet([("x", 2), ("y", 2)])
    assert Poly.from_terms(gens, {(0, 1): 1}).degree == 4
    # (0, 5, 1): first and last in range, the middle letter above the last
    for word in [(1, 0), (0, 5, 1), (0, -1, 1)]:
        with pytest.raises(ValueError, match="must ascend"):
            Poly.from_terms(gens, {word: 1})


def test_poly_rejects_repeated_odd_index():
    gens = GeneratorSet([("x", 2), ("v", 3)])
    assert Poly.from_terms(gens, {(0, 0, 1): 1}).degree == 7
    for word in [(1, 1), (0, 1, 1)]:  # v^2, x*v^2
        with pytest.raises(ValueError, match="odd ones once"):
            Poly.from_terms(gens, {word: 1})


@pytest.mark.parametrize("index", [2, -1, -2, 7])
def test_poly_rejects_out_of_range_index(index):
    gens = GeneratorSet([("x", 2), ("v", 3)])
    with pytest.raises(ValueError, match=f"index {index} is out of range"):
        Poly.from_terms(gens, {(index,): 1})
    with pytest.raises(ValueError, match=f"index {index} is out of range"):
        Poly.from_terms(gens, {(0, index) if index > 0 else (index, 0): 1})
    # a zero term is dropped before its word is checked
    assert Poly.from_terms(gens, {(index,): 0, (0,): 1}) == Poly({(0,): 1}, 2)


# ---------------------------------------------------------------- derivations


def test_zero_derivation_gives_zero_matrices():
    class Unread(list):  # a zero derivation returns {} without reading its words
        def __iter__(self):
            raise AssertionError("the words of a zero derivation were read")

    gens = two_vars()
    d = Derivation(gens, [{}, {}])
    for n in range(0, 7):
        words = basis(gens, n)
        assert d.rows(Unread(words)) == {}


def test_single_relation_model_matrix():
    # One degree-2 generator with a degree-5 partner killing its cube.
    gens = GeneratorSet([("x", 2), ("u", 5)])
    x = gen(gens, "x")
    x3 = mul(gens, x, mul(gens, x, x))
    d = Derivation(gens, [{}, x3.terms])
    # Degree 5 is spanned by u alone; it maps onto x^3.
    assert basis(gens, 5) == [(1,)]
    assert d.rows([(1,)]) == {m: {0: c} for m, c in x3.terms.items()}


def test_columns_cover_collisions_cubes_and_cancellation():
    # x even, a and b odd, w even with dw = x*a, v with the cubic dv = x^3.
    gens = GeneratorSet([("x", 2), ("a", 3), ("b", 3), ("w", 4), ("v", 5)])
    x, a, b, w = (gen(gens, name) for name in "xabw")
    x2 = mul(gens, x, x)
    x3 = mul(gens, x, x2)
    d = Derivation(gens, [{}, x2.terms, x2.terms, mul(gens, x, a).terms, x3.terms])
    words = [(1, 3), (0, 4), (0, 1, 3), (1, 2), (0, 0, 3, 3)]
    cols = leibniz_reference.split_rows(d.rows(words), len(words))
    assert cols == [leibniz_reference.apply_mono(d, m) for m in words]
    # word j of the list sits at key j of each row
    assert d.rows(words[:2]) == {(0, 0, 3): {0: 1}, (0, 0, 0, 0): {1: 1}}
    # D(aw) = da*w - a*dw, and a*x*a vanishes
    assert cols[0] == {(0, 0, 3): 1}
    assert cols[1] == {(0, 0, 0, 0): 1}
    assert cols[3] == {(0, 0, 2): 1, (0, 0, 1): -1}
    assert d.rows([]) == {}
    assert d.apply(mul(gens, x, a) - mul(gens, x, b)).is_zero()  # x^3 - x^3
    assert d.apply(mul(gens, a, w)) == Poly(cols[0], 8)


def test_image_terms_with_an_odd_letter_take_each_sign_branch():
    # a and b odd, x even; du = x*b, dc = x^3 - a*b and de = a*c carry odd
    # letters, and dc lists its even term first.  A word's rest (the word less
    # the letter differentiated) may hold no odd letter, one below the term's,
    # one above it, or the term's own, which kills the term.
    gens = GeneratorSet([("a", 3), ("x", 2), ("b", 3), ("u", 4), ("c", 5), ("e", 7)])
    images = [{}, {}, {(1, 1): 1}, {(1, 2): 1}, {(1, 1, 1): 1, (0, 2): -1}, {(0, 4): 1}]
    d = Derivation(gens, images)
    expected = {
        (1, 3): {(1, 1, 2): 1},  # x*du: no odd letter in the rest
        (0, 3): {(0, 1, 2): -1},  # a*du: a below b, one crossing
        (3, 4): {(1, 2, 4): 1, (1, 1, 1, 3): 1, (0, 2, 3): -1},  # du*c: c above b
        (2, 3): {(1, 1, 3): 1},  # b*du vanishes, db*u stays
        (0, 4): {(0, 1, 1, 1): -1},  # -a*dc: a*a*b vanishes
        (2, 4): {(1, 1, 4): 1, (1, 1, 1, 2): -1},  # -b*dc: b*a*b vanishes
        (0, 3, 4): {(0, 1, 2, 4): -1, (0, 1, 1, 1, 3): -1},  # odd letters on both sides
        (4, 5): {(1, 1, 1, 5): 1, (0, 2, 5): -1},  # -c*de vanishes: its rest is c, not e
    }
    words = list(expected)
    cols = leibniz_reference.split_rows(d.rows(words), len(words))
    assert cols == [leibniz_reference.apply_mono(d, m) for m in words]
    assert cols == list(expected.values())


def test_two_letter_words_put_the_other_letter_into_each_two_letter_term():
    # a, b and c odd, x and u even.  On a two-letter word the rest is one
    # letter r, which falls below, between or above a two-letter term t; an
    # odd r crosses the odd letters of t above it, and dies when t holds it.
    # dv also has the cubic x^3, which takes the sorting path.
    gens = GeneratorSet([("a", 3), ("x", 2), ("b", 3), ("c", 3), ("u", 4), ("v", 5)])
    du = {(1, 2): 1, (0, 1): -1, (1, 3): F(1, 2)}  # x*b - a*x + x*c/2
    dv = {(2, 3): 1, (1, 4): -1, (1, 1, 1): 1, (0, 2): 1, (0, 3): F(-3, 2)}
    d = Derivation(gens, [{}, {}, {}, {}, du, dv])
    expected = {
        (0, 4): {(0, 1, 2): -1, (0, 1, 3): F(-1, 2)},  # a below x*b: one crossing; a*x dies
        (0, 5): {(0, 2, 3): -1, (0, 1, 4): 1, (0, 1, 1, 1): -1},  # a below b*c: two crossings
        (1, 5): {(1, 2, 3): 1, (1, 1, 4): -1, (1, 1, 1, 1): 1, (0, 1, 2): 1, (0, 1, 3): F(-3, 2)},
        (2, 5): {(1, 2, 4): 1, (1, 1, 1, 2): -1, (0, 2, 3): F(-3, 2)},  # b between a and c
        (3, 5): {(1, 3, 4): 1, (1, 1, 1, 3): -1, (0, 2, 3): -1},  # c above a*b
        (4, 4): {(1, 2, 4): 2, (0, 1, 4): -2, (1, 3, 4): 1},  # u^2: outer 2
        (4, 5): {
            (1, 2, 5): 1, (0, 1, 5): -1, (1, 3, 5): F(1, 2),
            (2, 3, 4): 1, (1, 4, 4): -1, (1, 1, 1, 4): 1, (0, 2, 4): 1, (0, 3, 4): F(-3, 2),
        },
    }
    words = list(expected)
    cols = leibniz_reference.split_rows(d.rows(words), len(words))
    assert cols == [leibniz_reference.apply_mono(d, m) for m in words]
    assert cols == list(expected.values())


def test_derivation_image_degree_is_checked():
    gens = GeneratorSet([("x", 2), ("u", 5)])
    x = gen(gens, "x")
    with pytest.raises(DegreeMismatch):
        Derivation(gens, [{}, mul(gens, x, x).terms])


def test_every_word_of_an_image_is_checked():
    # x^2 has the expected degree 4 and u the wrong degree 3, in either order
    closed = GeneratorSet([("x", 2), ("y", 2)])
    gens = closed.extended([("u", 3)])
    for image in ({(0, 0): 1, (2,): 1}, {(2,): 1, (0, 0): 1}):
        with pytest.raises(DegreeMismatch, match="image of u has degree 3, expected 4"):
            Derivation(gens, [{}, {}, image])
        with pytest.raises(DegreeMismatch, match="image of u has degree 3, expected 4"):
            Derivation(closed, [{}, {}]).extended(gens, [image])
    assert Derivation(gens, [{}, {}, {(0, 0): 1, (0, 1): -2}]).images[2] == {(0, 0): 1, (0, 1): -2}
    # Words of the expected degree that break the word rule, and a zero
    # coefficient: each image belongs to a generator w appended to x and y.
    closed = GeneratorSet([("x", 2), ("y", 3)])
    with pytest.raises(ValueError, match="index -1 is out of range"):  # -1 would read y
        Derivation(closed, [{(-1,): 1}, {}])
    for degree, image, message in [
        (2, {(-2,): 1}, "index -2 is out of range"),  # -2 would read y
        (4, {(1, 0): 1}, "indices must ascend"),
        (5, {(1, 1): 1}, "odd ones once"),  # y^2
        (4, {(0, -2): 1}, "indices must ascend"),
        (3, {(0, 0): 0}, "image of w has a zero coefficient"),
    ]:
        gens = closed.extended([("w", degree)])
        with pytest.raises(ValueError, match=message):
            Derivation(gens, [{}, {}, image])
        with pytest.raises(ValueError, match=message):
            Derivation(closed, [{}, {}]).extended(gens, [image])


@pytest.mark.parametrize(
    "degree,image,message",
    [
        (3, {(0, 0): "1/2"}, "coefficient that is no int or Fraction"),
        (3, {(0, 0): 0.5}, "coefficient that is no int or Fraction"),
        (3, {(0, 0): True}, "coefficient that is no int or Fraction"),
        (2, {(True,): 1}, "letter that is not an int"),  # would read u
        (2, {(1.0,): 1}, "letter that is not an int"),
    ],
)
def test_an_image_takes_int_letters_and_int_or_fraction_coefficients(degree, image, message):
    # each image belongs to a generator w appended to x and u; the
    # constructor is where images from outside the engine enter
    gens = GeneratorSet([("x", 2), ("u", 3), ("w", degree)])
    with pytest.raises(ValueError, match=message):
        Derivation(gens, [{}, {}, image])
    good = {(0, 0): F(1, 2)} if degree == 3 else {(1,): -1}
    assert Derivation(gens, [{}, {}, good]).images[2] == good


def test_extended_checks_what_it_appends():
    gens = GeneratorSet([("x", 2), ("u", 5)])
    x = gen(gens, "x")
    x3 = mul(gens, x, mul(gens, x, x))
    d = Derivation(gens, [{}, x3.terms])
    with pytest.raises(ValueError, match="generator names must be unique"):
        gens.extended([("y", 2), ("x", 4)])
    with pytest.raises(ValueError, match="generator names must be unique"):
        gens.extended([("w", 3), ("w", 3)])
    with pytest.raises(ValueError, match="degree 1 < 2"):
        gens.extended([("t", 1)])
    for pair in [("t", 2.9), ("t", "3"), ("t", True), (3, 2)]:
        with pytest.raises(ValueError, match=r"a generator is a \(str, int\) pair"):
            GeneratorSet([pair])
        with pytest.raises(ValueError, match=r"a generator is a \(str, int\) pair"):
            gens.extended([pair])
    grown = gens.extended([("w", 3), ("y", 2)])
    assert gens == GeneratorSet([("x", 2), ("u", 5)])  # left as it was
    with pytest.raises(DegreeMismatch, match="image of w has degree 6, expected 4"):
        d.extended(grown, [x3.terms, {}])
    with pytest.raises(ValueError, match="one image per generator"):
        d.extended(grown, [{}])
    grown_d = d.extended(grown, [mul(gens, x, x).terms, {}])
    assert grown_d.images == ({}, x3.terms, mul(gens, x, x).terms, {})
    assert d.gens == gens and len(d.images) == 2


def test_extended_sets_match_sets_built_at_once():
    rng = random.Random("extended")
    for _ in range(200):
        degrees = [rng.randint(2, 9) for _ in range(rng.randint(0, 8))]
        cut = rng.randint(0, len(degrees))
        named = [(f"g{i}", d) for i, d in enumerate(degrees)]
        grown = GeneratorSet(named[:cut]).extended(named[cut:])
        fresh = GeneratorSet(named)
        for field in GeneratorSet.__slots__:
            assert getattr(grown, field) == getattr(fresh, field), field
        # Every ascending word of up to 5 letters, odd letters at most once,
        # by its degree: all the words of degree <= 11, as generators have
        # degree >= 2.
        words = defaultdict(list)
        for length in range(6):
            for word in combinations_with_replacement(range(len(degrees)), length):
                if all(word.count(i) == 1 for i in word if degrees[i] % 2):
                    words[sum(degrees[i] for i in word)].append(word)
        for degree in range(12):
            assert basis(grown, degree) == sorted(words[degree])


def test_quadratic_relations_kernel_dimension():
    # The degree-5 cocycles of the hand-built stage span a space of
    # dimension 3(3^2-4)/3 = 5.
    gens = stage3_b2_3()
    d = stage3_differential(gens)
    dom = basis(gens, 5)
    cocycles, pivots = kernel(d.rows(dom), dom)
    assert len(dom) == 15
    assert cocycles.dim == 5
    assert len(pivots) == len(dom) - 5  # rank + nullity


def test_leibniz_rule_on_products():
    rng = random.Random(7)
    gens = stage3_b2_3()
    d = stage3_differential(gens)
    degrees = [2, 3, 4, 5]
    for _ in range(120):
        da, db = rng.choice(degrees), rng.choice(degrees)
        a = random_homogeneous(rng, gens, da)
        b = random_homogeneous(rng, gens, db)
        ab = mul(gens, a, b)
        sign = -1 if da % 2 else 1
        leibniz = mul(gens, d.apply(a), b) + mul(gens, a, d.apply(b)).scaled(sign)
        assert d.apply(ab) == leibniz


def test_d_squared_passes_on_honest_differential():
    gens = stage3_b2_3()
    d = stage3_differential(gens)
    report = check_d_squared(gens, d)
    assert report.ok


def test_d_squared_failure_carries_witness():
    # Fabricated: dx = v and dv = x^2, so d(dx) = x^2 != 0.
    gens = GeneratorSet([("x", 2), ("v", 3)])
    x = gen(gens, "x")
    v = gen(gens, "v")
    d = Derivation(gens, [v.terms, mul(gens, x, x).terms])
    report = check_d_squared(gens, d)
    assert not report.ok
    assert report.witness == "x"
    assert report.value == mul(gens, x, x)


# ---------------------------------------------------------------- decomposables


def test_no_decomposables_in_degree_two():
    gens = stage3_b2_3()
    assert decomposable_subspace(gens, 2).dim == 0


def test_decomposables_fill_degree_four_for_two_variables():
    gens = two_vars()
    sub = decomposable_subspace(gens, 4)
    assert sub.ambient_dim == 3
    assert sub.dim == 3  # codimension 0: no degree-4 generators needed


def test_decomposables_empty_in_degree_three_of_stage():
    gens = stage3_b2_3()
    sub = decomposable_subspace(gens, 3)
    assert sub.ambient_dim == 5
    assert sub.dim == 0  # codimension 5 = number of degree-3 generators


def test_generator_count_equals_codimension():
    gens = GeneratorSet([("x1", 2), ("x2", 2), ("a", 3), ("b", 3), ("c", 3), ("w1", 4), ("w2", 4)])
    for n in range(2, 8):
        codim = len(basis(gens, n)) - decomposable_subspace(gens, n).dim
        assert codim == sum(g.degree == n for g in gens)


# ---------------------------------------------------------------- formatting


def test_format_poly_is_ordered_and_signed():
    gens = two_vars()
    x1 = gen(gens, "x1")
    x2 = gen(gens, "x2")
    p = mul(gens, x1, x1) - mul(gens, x2, x2)
    assert format_poly(gens, p.terms) == "x1^2 - x2^2"
    assert format_poly(gens, {}) == "0"
    assert format_poly(gens, mul(gens, x1, x2).scaled(F(3, 2)).terms) == "3/2*x1*x2"
