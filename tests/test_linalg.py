"""The zero-skipping linalg routines against their dense forms.

rref, mat_mul and meet_coordinates skip the cells where a factor is zero.
On matrices that are at least half zeros, over Q and over Q(a, b), they
must give the same rows, pivots and entry types as the dense routines in
oracles.py, which touch every cell.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp4hodge.linalg import inverse, mat_mul, meet_coordinates, rref
from gsp4hodge.scalars import RatFunc
from oracles import dense_mat_mul, dense_meet_coordinates, dense_rref

A = RatFunc.var("a")
B = RatFunc.var("b")
ONE = RatFunc.const(1)

ZERO = {Q: Q(0), RatFunc: RatFunc.const(0)}
NONZERO = {
    Q: (Q(1), Q(-1), Q(2), Q(-1, 2), Q(3, 4)),
    RatFunc: (ONE, -ONE, A, B, ONE / (A + B), A * B - 1),
}
FIELDS = st.sampled_from((Q, RatFunc))


@st.composite
def sparse_matrices(draw, field, rows=None, cols=None):
    """A rows x cols matrix over field with at least half its entries zero."""
    n = draw(st.integers(1, 6)) if rows is None else rows
    m = draw(st.integers(1, 7)) if cols is None else cols
    cells = [(i, j) for i in range(n) for j in range(m)]
    M = [[ZERO[field]] * m for _ in range(n)]
    for i, j in draw(st.lists(st.sampled_from(cells), max_size=n * m // 2, unique=True)):
        M[i][j] = draw(st.sampled_from(NONZERO[field]))
    return M


def types(rows):
    return [[type(x) for x in r] for r in rows]


SETTINGS = settings(max_examples=80, derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("field", (Q, RatFunc))
@SETTINGS
@given(data=st.data())
def test_rref_matches_dense(field, data):
    M = data.draw(sparse_matrices(field))
    (rows, pivots), (dense_rows, dense_pivots) = rref(M), dense_rref(M)
    assert rows == dense_rows and pivots == dense_pivots
    assert types(rows) == types(dense_rows)


@SETTINGS
@given(data=st.data(), fields=st.tuples(FIELDS, FIELDS), k=st.integers(1, 6))
def test_mat_mul_matches_dense(data, fields, k):
    P = data.draw(sparse_matrices(fields[0], cols=k))
    R = data.draw(sparse_matrices(fields[1], rows=k))
    out, dense = mat_mul(P, R), dense_mat_mul(P, R)
    assert out == dense and types(out) == types(dense)


@SETTINGS
@given(data=st.data(), fields=st.tuples(FIELDS, FIELDS), m=st.integers(1, 7))
def test_meet_coordinates_matches_dense(data, fields, m):
    gens = data.draw(sparse_matrices(fields[0], cols=m))
    ann = data.draw(sparse_matrices(fields[1], cols=m))
    out, dense = meet_coordinates(gens, ann), dense_meet_coordinates(gens, ann)
    assert out == dense and types(out) == types(dense)


def test_inverse_of_a_singular_matrix():
    with pytest.raises(ValueError, match="^matrix is singular$"):
        inverse([[1, 2], [2, 4]])
