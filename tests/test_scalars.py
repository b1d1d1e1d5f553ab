"""Substrate checks: field axioms, elimination, subspaces, quotients."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent.scalars import (
    I,
    ONE,
    ZERO,
    Matrix,
    QuotientSpace,
    Scalar,
    Subspace,
    nullspace,
    rref,
    sc,
    solve_linear,
    unit_vec,
    vec,
    vec_is_zero,
    vec_sub,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_conjugation_and_inverse(a):
    assert a.conjugate().conjugate() == a
    if a:
        assert a * a.inverse() == ONE
        norm = a * a.conjugate()
        assert norm.im == 0 and norm.re > 0


def test_scalar_str_parse_roundtrip():
    samples = [
        ZERO,
        ONE,
        I,
        -I,
        sc(Fraction(3, 5)),
        sc(0, Fraction(-2, 7)),
        sc(1, 2),
        sc(Fraction(-1, 2), Fraction(1, 3)),
        sc(2, -1),
    ]
    for s in samples:
        assert Scalar.parse(str(s)) == s
    assert Scalar.parse("3/4") == sc(Fraction(3, 4))
    assert Scalar.parse("-i") == -I


def test_solve_identity():
    A = Matrix.identity(2)
    particular, kernel = solve_linear(A, vec(1, 2))
    assert particular == vec(1, 2)
    assert kernel == []


def test_solve_zero_map():
    A = Matrix.zero(2, 2)
    particular, kernel = solve_linear(A, vec(0, 0))
    assert particular == vec(0, 0)
    assert len(kernel) == 2


def test_solve_rank_deficient():
    # hand elimination: x + y = 3 twice over; kernel spans (1, -1)
    A = Matrix([[1, 1], [2, 2]])
    particular, kernel = solve_linear(A, vec(3, 6))
    assert A.apply(particular) == vec(3, 6)
    assert len(kernel) == 1
    k = kernel[0]
    assert vec_is_zero(A.apply(k))
    assert k[0] == -k[1] and k[0]


def test_solve_inconsistent():
    A = Matrix([[1, 1], [1, 1]])
    assert solve_linear(A, vec(0, 1)) is None


def test_matrix_inverse_and_rank():
    A = Matrix([[1, 2], [3, 5]])
    assert A @ A.inverse() == Matrix.identity(2)
    assert A.rank() == 2
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_rref_pivots():
    rows, pivots = rref([vec(0, 1, 2), vec(0, 2, 4), vec(1, 0, 0)])
    assert pivots == [0, 1]
    assert rows[0] == vec(1, 0, 0)


def test_intersect_transverse_lines():
    U = Subspace(2, [vec(1, 0)])
    V = Subspace(2, [vec(0, 1)])
    assert U.intersect(V).is_zero()


def test_intersect_idempotent():
    U = Subspace(3, [vec(1, 2, 3), vec(0, 1, 1)])
    assert U.intersect(U) == U


def test_intersect_common_line():
    # brute-force check over rational combinations done by hand:
    # span{e1+e2, e3} meets span{e1+e2, e1} exactly in span{e1+e2}
    U = Subspace(3, [vec(1, 1, 0), vec(0, 0, 1)])
    V = Subspace(3, [vec(1, 1, 0), vec(1, 0, 0)])
    W = U.intersect(V)
    assert W == Subspace(3, [vec(1, 1, 0)])


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_dimension_formula(n, data):
    def draw_subspace():
        count = data.draw(st.integers(0, n))
        vecs = [
            tuple(
                Scalar(data.draw(st.integers(-3, 3)), data.draw(st.integers(-1, 1)))
                for _ in range(n)
            )
            for _ in range(count)
        ]
        return Subspace(n, vecs)

    U = draw_subspace()
    V = draw_subspace()
    assert U.dim + V.dim == U.sum(V).dim + U.intersect(V).dim


def test_quotient_trivial_subspace():
    Q = QuotientSpace(3, Subspace(3, []))
    assert Q.dim == 3
    for k in range(3):
        e = unit_vec(3, k)
        assert Q.lift(Q.project(e)) == e


def test_quotient_full_subspace():
    Q = QuotientSpace(2, Subspace(2, [vec(1, 0), vec(0, 1)]))
    assert Q.dim == 0
    assert Q.project(vec(5, 7)) == ()


def test_quotient_identifies_e1_e2():
    Q = QuotientSpace(3, Subspace(3, [vec(1, -1, 0)]))
    assert Q.dim == 2
    assert Q.project(unit_vec(3, 0)) == Q.project(unit_vec(3, 1))
    # projection composed with section is the identity on the quotient
    for x in [vec(1, 0), vec(0, 1), vec(2, 3)]:
        assert Q.project(Q.lift(x)) == x


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_quotient_kernel_is_subspace(n, data):
    count = data.draw(st.integers(0, n))
    vecs = [
        tuple(Scalar(data.draw(st.integers(-3, 3))) for _ in range(n))
        for _ in range(count)
    ]
    S = Subspace(n, vecs)
    Q = QuotientSpace(n, S)
    assert Q.dim == n - S.dim
    # every subspace vector projects to zero and projection is onto
    for v in S.basis:
        assert vec_is_zero(Q.project(v))
    probe = tuple(Scalar(data.draw(st.integers(-3, 3))) for _ in range(n))
    assert vec_is_zero(Q.project(probe)) == S.contains(probe)
    # section picks representatives: v - lift(project(v)) lies in S
    assert S.contains(vec_sub(probe, Q.lift(Q.project(probe))))


def test_nullspace_matches_rank():
    A = Matrix([[1, 2, 3], [2, 4, 6]])
    ker = nullspace(A)
    assert len(ker) == 2
    for v in ker:
        assert vec_is_zero(A.apply(v))
