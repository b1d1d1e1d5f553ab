"""The element kernels against their Scalar-operator routes, on mixed
denominators.

`StarAlgebra.multiply`, `Matrix.apply`, `Matrix.__matmul__`,
`forms.koszul_d` and the vector helpers sum their products on the int
triples of the Scalars.  Each is compared here with the route it
replaced, one Scalar operation at a time (`terms_multiply`,
`operator_apply`, `operator_matmul`, `operator_koszul_d`,
`operator_vec_*`), and with the dense oracles beside them, on entries
whose denominators are drawn from {1, 2, 3, 5, 7, 11, 12} with complex
parts, so that running sums change denominator often.  Outputs that
cancel must be `ZERO`, the triple (0, 0, 1)."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent.algebras import AlgebraError, StarAlgebra, make_matrix_algebra
from nctangent.forms import FormN, kappa_basis, koszul_d
from nctangent.scalars import (
    Matrix,
    ONE,
    Scalar,
    ZERO,
    _axpy,
    _scalars,
    vec_add,
    vec_scale,
    vec_sub,
)
from nctangent.tangent import canonical_inner_model

from dense_matrix import DenseMatrix
from test_algebras import dense_multiply, terms_multiply, terms_of
from test_calculus_routes import dense_koszul_d, operator_koszul_d
from test_scalars import (
    operator_apply,
    operator_matmul,
    operator_vec_add,
    operator_vec_scale,
    operator_vec_sub,
    oracle_apply,
)

DENOMINATORS = (1, 2, 3, 5, 7, 11, 12)
KAPPAS = (Fraction(1), Fraction(3, 5), Fraction(5, 2))
# 25 pairwise coprime denominators
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97)


def mixed_scalar():
    return st.builds(
        lambda a, p, b, q: Scalar(Fraction(a, p), Fraction(b, q)),
        st.integers(-12, 12), st.sampled_from(DENOMINATORS),
        st.integers(-12, 12), st.sampled_from(DENOMINATORS),
    )


def sparse_mixed_scalar():
    return st.one_of(st.just(ZERO), mixed_scalar(), mixed_scalar())


def mixed_vectors(n):
    return st.lists(sparse_mixed_scalar(), min_size=n, max_size=n).map(tuple)


def triples(v):
    return [(x._a, x._b, x._q) for x in v]


def assert_zero(v):
    assert triples(v) == [(0, 0, 1)] * len(v)


@st.composite
def mixed_algebra(draw):
    """Any bilinear product on Q(i)^n, n <= 4, with mixed-denominator
    structure constants.  Draws (algebra, dense table)."""
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(sparse_mixed_scalar(), min_size=n ** 3, max_size=n ** 3))
    table = [
        [tuple(cells[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n)]
        for i in range(n)
    ]
    A = StarAlgebra(["b%d" % i for i in range(n)], terms_of(table), Matrix.identity(n), None)
    return A, table


@st.composite
def mixed_matrix(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    entries = draw(st.lists(mixed_vectors(cols), min_size=rows, max_size=rows))
    return DenseMatrix(entries, cols=cols).to_matrix()


# -- the accumulator ----------------------------------------------------------


def test_sums_keep_the_lcm_of_their_denominators():
    sums = {}
    terms = [(0, Scalar(Fraction(1, q))) for q in (4, 6, 12) * 10]
    _axpy(sums, 1, 0, 1, terms)
    _axpy(sums, 0, 1, 5, [(1, Scalar(Fraction(1, 3)))] * 30)
    # thirty terms over 4, 6 and 12 stay over 12, not over their product
    assert sums == {0: [10 * (3 + 2 + 1), 0, 12], 1: [0, 30, 15]}
    assert _scalars(sums, 3) == (Scalar(5), Scalar(0, 2), ZERO)


def test_a_long_sum_over_coprime_denominators_is_exact():
    column = [(0, Scalar(Fraction(1, p), Fraction(-1, p))) for p in PRIMES]
    sums = {}
    _axpy(sums, 2, 1, 3, column)
    total = sum(Fraction(1, p) for p in PRIMES)
    factor = Scalar(Fraction(2, 3), Fraction(1, 3))
    (got,) = _scalars(sums, 1)
    assert got == factor * Scalar(total, -total)
    product = 1
    for p in PRIMES:
        product *= p
    assert sums[0][2] == 3 * product


def test_untouched_and_cancelled_sums_are_zero():
    sums = {}
    x = Scalar(Fraction(2, 7), Fraction(-5, 11))
    _axpy(sums, 1, 0, 1, [(1, x), (1, -x), (2, x)])
    got = _scalars(sums, 3)
    assert got[0] is ZERO and got[1] is ZERO
    assert got[2] == x


# -- multiply -----------------------------------------------------------------


@given(mixed_algebra(), st.data())
@settings(max_examples=100, deadline=None)
def test_multiply_matches_its_operator_route_on_mixed_denominators(case, data):
    A, table = case
    u = data.draw(mixed_vectors(A.dim))
    v = data.draw(mixed_vectors(A.dim))
    got = A.multiply(u, v)
    assert got == terms_multiply(A, u, v) == dense_multiply(table, u, v)
    assert triples(got) == triples(terms_multiply(A, u, v))


def test_multiply_cancels_to_zero():
    M2 = make_matrix_algebra(2)  # basis e11, e12, e21, e22
    x = Scalar(Fraction(1, 7), Fraction(2, 11))
    y = Scalar(Fraction(-5, 12), Fraction(1, 3))
    u = (x, x, ZERO, ZERO)
    v = (y, ZERO, -y, ZERO)  # e11 e11 - e12 e21 = 0
    assert_zero(M2.multiply(u, v))
    assert M2.multiply(u, v) == terms_multiply(M2, u, v)


def test_multiply_sums_many_coprime_denominators_into_one_coordinate():
    # n = 5, every product b_i b_j lands on b_0 with coefficient 1/p
    n = 5
    table = [
        [(Scalar(Fraction(1, PRIMES[i * n + j]), Fraction(i - j, PRIMES[i * n + j])),)
         + (ZERO,) * (n - 1) for j in range(n)]
        for i in range(n)
    ]
    A = StarAlgebra(["b%d" % i for i in range(n)], terms_of(table), Matrix.identity(n), None)
    u = tuple(Scalar(Fraction(k + 1, 12), Fraction(-k, 7)) for k in range(n))
    v = tuple(Scalar(Fraction(2, 11), k) for k in range(n))
    got = A.multiply(u, v)
    assert got == terms_multiply(A, u, v) == dense_multiply(table, u, v)
    assert got[0] and got[1:] == (ZERO,) * (n - 1)


def test_multiply_rejects_a_wrong_length():
    M2 = make_matrix_algebra(2)
    for u, v in (((ONE,) * 3, (ONE,) * 4), ((ONE,) * 4, (ONE,) * 5)):
        with pytest.raises(AlgebraError, match="element length mismatch"):
            M2.multiply(u, v)


# -- apply and @ --------------------------------------------------------------


@given(mixed_matrix(), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_matches_its_operator_route_on_mixed_denominators(M, data):
    v = data.draw(mixed_vectors(M.cols))
    got = M.apply(v)
    assert got == operator_apply(M, v) == oracle_apply(M, v)
    assert triples(got) == triples(operator_apply(M, v))


def test_apply_sums_a_long_column_and_cancels():
    n = len(PRIMES)
    row = [Scalar(Fraction(1, p), Fraction(p % 5, p)) for p in PRIMES]
    M = DenseMatrix([row, [-a for a in row]] + [row[:-1] + [ZERO]]).to_matrix()
    v = tuple(Scalar(Fraction(k % 3, 12), Fraction(1, 11)) for k in range(n))
    got = M.apply(v)
    assert got == operator_apply(M, v)
    assert got[0] == -got[1] and got[0]
    assert got[2] == got[0] - row[-1] * v[-1]
    # the columns cancel in pairs on a vector with equal coordinates
    N = DenseMatrix([[a, -a] for a in row]).to_matrix()
    assert_zero(N.apply((Scalar(Fraction(3, 7), -1),) * 2))


def test_apply_rejects_a_wrong_length():
    with pytest.raises(ValueError, match="vector length mismatch"):
        Matrix.identity(2).apply((ONE,) * 3)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_matmul_matches_its_operator_route_on_mixed_denominators(r, k, c, data):
    M = data.draw(mixed_matrix(r, k))
    N = data.draw(mixed_matrix(k, c))
    got = M @ N
    want = operator_matmul(M, N)
    assert (got.rows, got.cols) == (want.rows, want.cols) == (r, c)
    assert got == want
    assert [triples(row) for row in DenseMatrix.of(got).entries] == [
        triples(row) for row in DenseMatrix.of(want).entries
    ]


def test_matmul_cancels_to_zero_and_rejects_a_shape_mismatch():
    x = Scalar(Fraction(5, 12), Fraction(-2, 7))
    M = DenseMatrix([[x, x], [ONE, ONE]]).to_matrix()
    N = DenseMatrix([[Scalar(Fraction(1, 11)), ZERO], [Scalar(Fraction(-1, 11)), ZERO]]).to_matrix()
    for row in DenseMatrix.of(M @ N).entries:
        assert_zero(row)
    with pytest.raises(ValueError, match="shape mismatch in product"):
        M @ Matrix.identity(3)


# -- vector helpers -----------------------------------------------------------


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(mixed_vectors(n), mixed_vectors(n))),
       sparse_mixed_scalar())
@settings(max_examples=150, deadline=None)
def test_vector_helpers_match_their_operator_routes(pair, c):
    u, v = pair
    assert vec_add(u, v) == operator_vec_add(u, v)
    assert vec_sub(u, v) == operator_vec_sub(u, v)
    assert vec_scale(c, u) == operator_vec_scale(c, u)
    assert_zero(vec_sub(u, u))
    assert_zero(vec_add(u, vec_scale(-1, u)))


def test_vector_helpers_reject_unequal_lengths():
    for helper in (vec_add, vec_sub):
        with pytest.raises(ValueError):
            helper((ONE, ONE), (ONE,))
        with pytest.raises(ValueError):
            helper((ONE,), (ONE, ONE))


# -- koszul_d -----------------------------------------------------------------


MODELS = [(kappa, N, d) for kappa in KAPPAS for N, d in ((2, 1), (3, 1), (3, 2))]
BASES = [kappa_basis(canonical_inner_model(N, d, kappa)) for kappa, N, d in MODELS]


@pytest.mark.parametrize(
    "basis", BASES, ids=["M%d-d%d-kappa%s" % (N, d, kappa) for kappa, N, d in MODELS]
)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_koszul_d_matches_its_operator_route_on_mixed_denominators(basis, data):
    A = basis.algebra
    for degree in range(basis.rank):
        keys = list(combinations(range(basis.rank), degree))
        rho = FormN(basis, degree, {key: data.draw(mixed_vectors(A.dim)) for key in keys})
        got = koszul_d(rho)
        want = operator_koszul_d(rho)
        assert got.entries == want.entries == dense_koszul_d(rho).entries
        # d d = 0: every coordinate cancels exactly
        for value in koszul_d(got).entries.values():
            assert_zero(value)


def test_koszul_d_of_a_unit_multiple_is_zero():
    for basis in BASES:
        A = basis.algebra
        a = vec_scale(Scalar(Fraction(3, 11), Fraction(-1, 12)), A.unit)
        d = koszul_d(FormN(basis, 0, {(): a}))
        for value in d.entries.values():
            assert_zero(value)
        assert d.entries == operator_koszul_d(FormN(basis, 0, {(): a})).entries
