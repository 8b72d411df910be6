"""Property tests: intersection-form invariants, the loop-space ranks, the
batch assembly of a derivation's columns, and the exit contract of the
command line on malformed form files and odd argument tokens.

Examples are drawn deterministically (`derandomize=True`, a fixed
`max_examples`, no example database), so every run checks the same cases.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from fourfold.cli import main
from fourfold.forms import (
    _block_diagonal,
    _inertia,
    diagonal_form,
    e8_form,
    hyperbolic_form,
    loop_space_ranks,
    make_form,
)
from fourfold.gca import Derivation, GeneratorSet, Poly, basis
from fourfold.linalg import add_scaled
import leibniz_reference
import pbw_reference
from test_forms import reference_inertia


def deterministic(max_examples):
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=max_examples
    )


# the blocks of an indefinite or definite unimodular block sum
BLOCKS = [
    diagonal_form([1]),
    diagonal_form([-1]),
    hyperbolic_form(),
    e8_form(),
    e8_form(negative=True),
]


@st.composite
def block_sums(draw):
    """Blocks whose ranks add up to a rank in 9..24."""
    rank = draw(st.integers(9, 24))
    blocks = []
    while rank:
        block = draw(st.sampled_from([b for b in BLOCKS if b.b2 <= rank]))
        blocks.append(block)
        rank -= block.b2
    return blocks


# (kind, i, j, c): add c times row j to row i, swap rows i and j, or negate row i
OPERATIONS = st.tuples(st.integers(0, 2), st.integers(0, 23), st.integers(0, 23),
                       st.integers(-2, 2))


def unimodular(n, operations):
    """An integer matrix of determinant +-1: row operations on the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, c in operations:
        i, j = i % n, j % n
        if kind == 0 and i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def congruence(s, u):
    """U^T S U in integers."""
    n = len(s)
    su = [[sum(s[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * su[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@deterministic(40)
@given(block_sums(), st.lists(OPERATIONS, max_size=72))
def test_make_form_reads_the_split_of_a_congruent_block_sum(blocks, operations):
    s = _block_diagonal(blocks)
    moved = congruence(s, unimodular(len(s), operations))
    form = make_form(moved)
    assert form.b2 == sum(b.b2 for b in blocks)
    assert form.b2_plus == sum(b.b2_plus for b in blocks)
    assert form.b2_minus == sum(b.b2_minus for b in blocks)
    assert _inertia(moved) == reference_inertia(moved)


@deterministic(60)
@given(st.integers(2, 200), st.integers(0, 60))
def test_loop_space_ranks_match_the_series_product(b2, max_degree):
    ranks = loop_space_ranks(b2, max_degree)
    assert ranks == pbw_reference.loop_space_ranks(b2, max_degree)
    assert list(ranks) == list(range(2, max_degree + 1))
    assert all(type(v) is int and v >= 0 for v in ranks.values())


# ---------------------------------------------------------------- derivations

COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def derivations(draw):
    """Up to five generators of mixed parity; each image is drawn from all
    words one degree up, so it may be linear, quadratic or a cube (x^3 for a
    degree-5 generator), and may repeat the image of an earlier generator."""
    degrees = draw(st.lists(st.integers(2, 6), min_size=1, max_size=5))
    gens = GeneratorSet([(f"g{i}", d) for i, d in enumerate(degrees)])
    images = []
    for d in degrees:
        same = [img for img, e in zip(images, degrees) if e == d and img]
        if same and draw(st.booleans()):
            images.append(draw(st.sampled_from(same)))
            continue
        words = basis(gens, d + 1)
        chosen = draw(st.lists(st.sampled_from(words), max_size=4, unique=True)) if words else []
        coeffs = draw(st.lists(COEFFS, min_size=len(chosen), max_size=len(chosen)))
        images.append(Poly.from_terms(gens, dict(zip(chosen, coeffs))).terms)
    return Derivation(gens, images)


@deterministic(150)
@given(derivations(), st.integers(2, 10), st.data())
def test_columns_match_the_per_word_leibniz_loop(d, degree, data):
    words = basis(d.gens, degree)
    reference = [leibniz_reference.apply_mono(d, m) for m in words]
    assert leibniz_reference.split_rows(d.rows(words), len(words)) == reference
    picked = data.draw(st.lists(st.sampled_from(words), max_size=8)) if words else []
    assert leibniz_reference.split_rows(d.rows(picked), len(picked)) == [
        leibniz_reference.apply_mono(d, m) for m in picked
    ]
    # Two words whose columns share a word m: their combination cancels at m.
    for (u, cu), (w, cw) in zip(zip(words, reference), zip(words[1:], reference[1:])):
        for m in cu.keys() & cw.keys():
            poly = Poly.from_terms(d.gens, {u: cw[m], w: -cu[m]})
            expected = add_scaled(add_scaled({}, cw[m], cu), -cu[m], cw)
            assert m not in expected
            assert d.apply(poly).terms == expected


# ---------------------------------------------------------------- command line


def run(*argv):
    """(exit code, stdout, stderr); a SystemExit out of `main` fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


ODD_ENTRIES = st.one_of(
    st.integers(-3, 3).map(lambda x: x * 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-1, 1), max_size=2),
)
ENTRIES = st.one_of(st.integers(-3, 3), ODD_ENTRIES)


@st.composite
def odd_square(draw):
    """A square integer matrix with one entry that is not a small integer."""
    n = draw(st.integers(1, 3))
    m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ODD_ENTRIES)
    return m


MATRICES = st.one_of(
    st.lists(st.lists(ENTRIES, max_size=4), max_size=4),  # ragged, non-square, anything
    odd_square(),
    st.integers(0, 3).flatmap(lambda n: st.lists(  # square integer matrices
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
    )),
    st.lists(st.sampled_from([1, -1]), max_size=4).map(  # unimodular diagonals
        lambda d: [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]
    ),
    st.just([[0, 1], [1, 0]]),
    st.lists(ENTRIES, max_size=3),  # rows that are not lists
    ENTRIES,  # a scalar
)


@st.composite
def form_texts(draw):
    """The JSON text of a form document: whole, without its "matrix" key, a
    bare matrix, truncated, or with an integer over the parser's digit limit."""
    kind = draw(st.sampled_from(
        ["form"] * 4 + ["no matrix key", "bare", "truncated", "long integer"]
    ))
    if kind == "long integer":
        return '{"matrix": [[' + "7" * 5000 + "]]}"
    matrix = draw(MATRICES)
    doc = {"matrix": matrix, "name": draw(st.one_of(st.text(max_size=4), st.integers()))}
    text = json.dumps({"bare": matrix, "no matrix key": {"rows": matrix}}.get(kind, doc))
    if kind == "truncated":
        return text[: draw(st.integers(0, max(0, len(text) - 1)))]
    return text


# How an argv that argparse rejects begins its one stderr line.
ARGPARSE_ERRORS = (
    "error: argument", "error: unrecognized arguments", "error: the following arguments"
)


def check_contract(code, out, err):
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
    else:
        assert err == ""


@settings(deterministic(80), suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(form_texts())
def test_malformed_form_files_exit_zero_or_two(tmp_path, text):
    path = tmp_path / "form.json"
    path.write_text(text, encoding="utf-8")
    for argv in (
        ("ranks", "--form", str(path)),
        ("model", "--form", str(path), "--max-degree", "3"),
        ("classify", str(path), "hyperbolic"),
    ):
        code, out, err = run(*argv)
        assert not err.startswith(ARGPARSE_ERRORS)  # the argv reached the form reader
        check_contract(code, out, err)


def odd_int(values):
    """An integer in an odd spelling; about a third are spellings `int` rejects."""
    shapes = ["{}"] * 6 + ["+{}", "0{}", " {} ", "{}.0", "{}_", "x{}", "", "{}e0"]
    return st.builds(lambda v, shape: shape.format(v), values, st.sampled_from(shapes))


@deterministic(80)
@given(
    st.sampled_from(["ranks", "model"]),
    odd_int(st.one_of(st.integers(-2, 3), st.just(10**30))),
    st.one_of(st.none(), st.text("0123456789,-+ x", max_size=6)),
    odd_int(st.integers(-2, 5)),
    st.one_of(st.none(), odd_int(st.integers(-2, 4))),  # a huge one would let b2 = 10**30 run
)
def test_odd_argument_tokens_keep_the_exit_contract(command, b2, split, degree, guard):
    argv = [command, "--b2", b2, "--max-degree", degree]
    if split is not None:
        argv += ["--split", split]
    if guard is not None:
        argv += ["--guard", guard]
    code, out, err = run(*argv)
    if code == 3:  # a tiny --guard or a huge b2 trips the basis guard
        assert err.startswith("error: monomial basis")
    else:
        check_contract(code, out, err)
