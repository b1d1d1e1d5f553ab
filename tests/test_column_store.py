"""`Matrix` keeps only its nonzero columns; the dense arithmetic it ran
before, `DenseMatrix` in dense_matrix.py, is the oracle.  Every operation
is compared on matrices with mixed denominators, complex entries, zero
columns and empty shapes, and every result is checked to be stored the
one canonical way: nonzero pairs only, in ascending row order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent.algebras import direct_sum, make_matrix_algebra
from nctangent.scalars import ZERO, Matrix, Scalar, Scalar as sc

from dense_matrix import DenseMatrix
from test_scalars import SPARSE, scalars

# mixed denominators up to 9 and complex entries, often zero
ENTRY = st.sampled_from(SPARSE) | scalars


@st.composite
def grid(draw, rows, cols):
    """Dense rows of this shape, with some columns all zero."""
    zero_columns = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return [
        [ZERO if j in zero_columns else draw(ENTRY) for j in range(cols)]
        for _ in range(rows)
    ]


@st.composite
def operands(draw):
    """Two r x k grids, a k x c grid, a factor and a length-k vector, for
    r, k and c in 0-4, so that 0 x n and n x 0 shapes come up."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return (
        (draw(grid(r, k)), k),
        (draw(grid(r, k)), k),
        (draw(grid(k, c)), c),
        draw(ENTRY),
        tuple(draw(ENTRY) for _ in range(k)),
    )


def assert_stored_like(got, want):
    """`got`, a Matrix, holds the entries of `want`, a DenseMatrix, as
    the canonical column store of nonzero Scalars."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for column in got.nonzero_columns():
        assert all(type(a) is Scalar and a for _, a in column)
        assert [i for i, _ in column] == sorted({i for i, _ in column})
    assert DenseMatrix.of(got) == want
    again = want.to_matrix()
    assert got == again and hash(got) == hash(again)


@given(operands())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_the_dense_oracle(case):
    (m, k), (n, _), (p, c), factor, v = case
    DM, DN, DP = DenseMatrix(m, cols=k), DenseMatrix(n, cols=k), DenseMatrix(p, cols=c)
    M, N, P = DM.to_matrix(), DN.to_matrix(), DP.to_matrix()
    m_shape = (M.rows, k)
    assert_stored_like(M, DM)
    assert_stored_like(Matrix.zero(*m_shape), DenseMatrix.zero(*m_shape))
    assert_stored_like(Matrix.identity(k), DenseMatrix.identity(k))
    assert_stored_like(M + N, DM + DN)
    assert_stored_like(M - N, DM - DN)
    assert_stored_like(-M, -DM)
    assert_stored_like(M.scale(factor), DM.scale(factor))
    assert_stored_like(M @ P, DM @ DP)
    assert M.apply(v) == DM.apply(v)
    assert M.is_zero() == DM.is_zero()
    assert (M == N) == (DM == DN)
    if M == N:
        assert hash(M) == hash(N)
    columns = [M.column(j) for j in range(M.cols)]
    assert columns == [DM.column(j) for j in range(DM.cols)]
    assert_stored_like(DenseMatrix.from_columns(columns, rows=M.rows).to_matrix(), DM)
    for j in (-1, M.cols):
        with pytest.raises(IndexError):
            M.column(j)
        with pytest.raises(IndexError):
            DM.column(j)


def test_equality_and_hash_read_the_shape():
    assert Matrix.zero(0, 3) != Matrix.zero(0, 5)
    assert Matrix.zero(3, 0) != Matrix.zero(5, 0)
    assert hash(Matrix.zero(0, 3)) != hash(Matrix.zero(0, 5))
    assert hash(Matrix.zero(3, 0)) != hash(Matrix.zero(5, 0))
    empty = DenseMatrix([], cols=3).to_matrix()
    assert Matrix.zero(0, 3) == empty == DenseMatrix.from_columns([()] * 3, rows=0).to_matrix()
    assert len({Matrix.zero(0, 3), Matrix.zero(0, 5), empty}) == 2


def test_column_rejects_an_index_outside_the_columns():
    M = DenseMatrix([[1, 2], [3, 4]]).to_matrix()
    assert M.column(1) == (sc(2), sc(4))
    for j in (-1, -2, 2):
        with pytest.raises(IndexError, match="out of range"):
            M.column(j)
    with pytest.raises(IndexError):
        Matrix.zero(3, 0).column(0)


def test_the_column_store_is_read_only():
    M = DenseMatrix([[0, sc(0, 1)], [sc("1/3"), 0]]).to_matrix()
    columns = (((1, sc("1/3")),), ((0, sc(0, 1)),))
    assert M.nonzero_columns() == columns
    assert DenseMatrix.of(M).entries == ((ZERO, sc(0, 1)), (sc("1/3"), ZERO))
    for name in ("rows", "cols", "_columns", "entries"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    assert M.nonzero_columns() == columns and not hasattr(M, "entries")


def test_model_operators_match_the_dense_oracle():
    """Left multiplication and the involution of a block sum, built on
    columns, against the dense products of their basis images."""
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    z = tuple(Scalar(i % 3 - 1, Fraction(i % 2, 3)) for i in range(A.dim))
    L = A.left_mult_matrix(z)
    want = DenseMatrix.from_columns(
        [A.multiply(z, A.basis_vector(j)) for j in range(A.dim)], rows=A.dim
    )
    assert_stored_like(L, want)
    invol = DenseMatrix.of(A.involution)
    assert_stored_like(A.involution @ A.involution, invol @ invol)
    assert A.involution @ A.involution == Matrix.identity(A.dim)
    assert_stored_like(L @ A.involution - A.involution, DenseMatrix.of(L) @ invol - invol)
