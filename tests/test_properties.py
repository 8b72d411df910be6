"""Property tests: intersection-form invariants and the loop-space ranks.

Examples are drawn deterministically (`derandomize=True`, a fixed
`max_examples`, no example database), so every run checks the same cases.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fourfold.forms import (
    _block_diagonal,
    _inertia,
    diagonal_form,
    e8_form,
    hyperbolic_form,
    loop_space_ranks,
    make_form,
)
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
