"""Substrate checks: field axioms, elimination, subspaces, quotients."""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent import cli
from nctangent.algebras import (
    characters,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    quotient_algebra,
)
from nctangent.cli import _jsonable
from nctangent.connection import (
    ConnectionCoefficients,
    curvature_components,
    generator_derivation,
)
from nctangent.forms import FormN, kappa_basis
from nctangent.minkowski import PBWElement, PoincareGenerator, coproduct
from nctangent.scalars import (
    I,
    Immutable,
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
from nctangent.tangent import canonical_inner_model, glue

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
scalars = st.builds(Scalar, rationals, rationals)


class PairRef:
    """Reference Gaussian rational: a plain pair of Fractions, the slow
    and obvious route that the int kernel of `Scalar` must agree with."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return PairRef(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return PairRef(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return PairRef(-self.re, -self.im)

    def __mul__(self, other):
        return PairRef(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return PairRef(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def conjugate(self):
        return PairRef(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        def imag(f):
            return {1: "i", -1: "-i"}.get(f, "%si" % f)

        if not self.im:
            return str(self.re)
        if not self.re:
            return imag(self.im)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s" % (self.re, sign, imag(abs(self.im)))


# raw numerator/denominator pairs, so Fraction sees negative denominators
# and reduces large ones itself
big_rationals = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6) | st.integers(-(10**6), -1),
)
parts = st.one_of(big_rationals, st.integers(-5, 5), st.sampled_from([Fraction(0), Fraction(-1, 2)]))
pairs = st.tuples(parts, parts)


def assert_agrees(s, ref):
    assert isinstance(s, Scalar)
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == (ref.re, ref.im)
    # one representation per value: equal to the Scalar built from parts
    assert s == Scalar(ref.re, ref.im)
    assert hash(s) == hash(Scalar(ref.re, ref.im))
    assert str(s) == str(ref)
    assert bool(s) is bool(ref)


@given(pairs, pairs)
@settings(max_examples=300)
def test_scalar_matches_fraction_pair_reference(x, y):
    s, t = Scalar(*x), Scalar(*y)
    r, u = PairRef(*x), PairRef(*y)
    assert_agrees(s, r)
    assert_agrees(s + t, r + u)
    assert_agrees(s - t, r - u)
    assert_agrees(s * t, r * u)
    assert_agrees(-s, -r)
    assert_agrees(s.conjugate(), r.conjugate())
    if u:
        assert_agrees(s / t, r / u)
        assert_agrees(t.inverse(), u.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            t.inverse()
    assert (s == t) is ((r.re, r.im) == (u.re, u.im))
    assert Scalar.parse(str(s)) == s


@given(pairs, parts)
@settings(max_examples=200)
def test_scalar_mixes_with_int_and_fraction(x, c):
    s, r, rc = Scalar(*x), PairRef(*x), PairRef(c)
    assert_agrees(s + c, r + rc)
    assert_agrees(c + s, rc + r)
    assert_agrees(s - c, r - rc)
    assert_agrees(c - s, rc - r)
    assert_agrees(s * c, r * rc)
    assert_agrees(c * s, rc * r)
    if c:
        assert_agrees(s / c, r / rc)
    if r:
        assert_agrees(c / s, rc / r)
    real = Scalar(c)
    assert real == c and c == real
    assert (s == c) is (r.im == 0 and r.re == c)
    assert (s == Fraction(c)) is (s == c)
    assert hash(real) == hash(c)


@lru_cache(maxsize=None)
def immutable_instances():
    """One instance of each class that takes its guard from `Immutable`,
    with the two concrete subclasses of `minkowski._Combination`."""
    scn = cli.load_scenario(str(SCENARIOS / "block_model.json"))
    cov, P = scn.covering, scn.partition
    assign = canonical_inner_model(2, 1, 1)
    basis = kappa_basis(assign)
    p0 = PBWElement.generator(1, 1, 0)
    out = [
        Matrix.identity(2),
        Subspace(2, [vec(1, 0)]),
        QuotientSpace(2, Subspace(2, [vec(1, 0)])),
        assign.algebra,
        characters(make_function_algebra(2))[0],
        ConnectionCoefficients.zero(assign),
        curvature_components(ConnectionCoefficients.zero(assign)),
        cov,
        basis,
        FormN.zero(basis, 1),
        p0,
        coproduct(p0),
        PoincareGenerator("P0"),
        P.elements[0],
        P,
        assign,
        generator_derivation(assign, 0),
        glue(cov, P, [generator_derivation(a, 0) for a in scn.actions]),
    ]
    return {type(x).__name__: x for x in out}


IMMUTABLE_CLASSES = (
    "Matrix", "Subspace", "QuotientSpace", "StarAlgebra", "Character",
    "ConnectionCoefficients", "CurvatureTensor", "Covering", "DerivationBasis",
    "FormN", "PBWElement", "TensorElement", "PoincareGenerator",
    "PartitionElement", "Partition", "ActionAssignment", "LocalDerivation",
    "GlobalDerivation",
)


def test_immutable_instances_cover_each_class():
    def subclasses(cls):
        return {s for c in cls.__subclasses__() for s in {c} | subclasses(c)}

    named = {c.__name__ for c in subclasses(Immutable)} - {"_Combination"}
    assert named == set(IMMUTABLE_CLASSES) == set(immutable_instances())


@pytest.mark.parametrize("name", IMMUTABLE_CLASSES)
def test_assigning_to_an_immutable_value_names_its_class(name):
    value = immutable_instances()[name]
    assert isinstance(value, Immutable)
    # a slot the constructor filled, and a name that is no slot at all
    slot = next(c.__slots__[0] for c in type(value).__mro__ if c.__dict__.get("__slots__"))
    for attr in (slot, "extra"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(value, attr, None)


def test_scalar_stays_a_plain_immutable_object():
    s = sc(Fraction(9, 25))
    assert not isinstance(s, tuple)
    with pytest.raises(AttributeError):
        s.re = Fraction(1)
    with pytest.raises(AttributeError):
        s.extra = 1
    # reports write a Scalar as its string, never as an array
    assert json.dumps(_jsonable(("phi_1", s))) == '["phi_1", "9/25"]'
    with pytest.raises(TypeError):
        Scalar(1.5)


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


def test_short_complement_raises_a_typed_error():
    # the complement size check must not be an assert, which `python -O`
    # strips.  A stored basis of three vectors in the plane claims three
    # dimensions, so the quotient would need -1 vectors while the
    # elimination leaves a complement of 0
    S = object.__new__(Subspace)
    object.__setattr__(S, "ambient_dim", 2)
    object.__setattr__(S, "basis", (vec(1, 0), vec(0, 1), vec(1, 0)))
    with pytest.raises(ValueError, match="complement has 0 vectors"):
        QuotientSpace(2, S)


# ---------------------------------------------------------------------------
# oracles: the routes that stored pivots and the closed-form quotient replace


def oracle_contains(S, v):
    """Membership by reducing along each basis row, its pivot found anew."""
    v = list(v)
    for row in S.basis:
        c = next((j for j, a in enumerate(row) if a), None)
        if c is not None and v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return all(not a for a in v)


def oracle_quotient(n, S):
    """(complement, projection entries, section entries) by the greedy
    choice of unit vectors, smallest index first, one elimination per
    candidate, and the inverse of the basis-plus-complement matrix."""
    q = n - S.dim
    chosen, current = [], list(S.basis)
    for idx in range(n):
        if len(chosen) == q:
            break
        cand = unit_vec(n, idx)
        if not oracle_contains(Subspace(n, current), cand):
            chosen.append(idx)
            current.append(cand)
    assert len(chosen) == q
    columns = list(S.basis) + [unit_vec(n, idx) for idx in chosen]
    if n:
        Minv = Matrix.from_columns(columns, rows=n).inverse()
        projection = Matrix([Minv.entries[S.dim + i] for i in range(q)], cols=n)
    else:
        projection = Matrix.zero(0, 0)
    section = Matrix.from_columns([unit_vec(n, idx) for idx in chosen], rows=n)
    return tuple(chosen), projection.entries, section.entries


SPARSE = [ZERO] * 6 + [ONE, -ONE, sc(2), sc(-1, 1), sc("1/2"), I]


@st.composite
def subspace_and_probes(draw):
    n = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(["sparse", "dense", "empty", "full"]))
    if shape == "dense":
        entry = st.builds(Scalar, st.integers(-3, 3), st.integers(-1, 1))
    else:
        entry = st.sampled_from(SPARSE)
    count = 0 if shape == "empty" else draw(st.integers(0, n + 1))
    vecs = [tuple(draw(entry) for _ in range(n)) for _ in range(count)]
    if shape == "full":
        vecs += [unit_vec(n, k) for k in draw(st.permutations(range(n)))]
    S = Subspace(n, vecs)
    # a member of S, a member nudged off S along one axis, and a free probe
    coeffs = [draw(entry) for _ in S.basis]
    member = tuple(
        sum((c * row[j] for c, row in zip(coeffs, S.basis)), ZERO) for j in range(n)
    )
    probes = [member, tuple(draw(entry) for _ in range(n))]
    if n:
        k = draw(st.integers(0, n - 1))
        probes.append(tuple(a + ONE if j == k else a for j, a in enumerate(member)))
    return n, S, probes


@given(subspace_and_probes())
@settings(max_examples=300, deadline=None)
def test_quotient_and_contains_match_the_oracles(case):
    n, S, probes = case
    Q = QuotientSpace(n, S)
    chosen, projection, section = oracle_quotient(n, S)
    assert Q.complement_indices == chosen
    assert Q.projection.entries == projection
    assert Q.section.entries == section
    assert (Q.projection.rows, Q.projection.cols) == (len(chosen), n)
    assert (Q.section.rows, Q.section.cols) == (n, len(chosen))
    for v in probes:
        assert S.contains(v) == oracle_contains(S, v)
    assert S.contains(probes[0])


@pytest.mark.parametrize("n", [0, 1, 4])
def test_quotient_oracle_on_the_empty_and_full_subspaces(n):
    for S in (Subspace(n, []), Subspace(n, [unit_vec(n, k) for k in range(n)])):
        Q = QuotientSpace(n, S)
        chosen, projection, section = oracle_quotient(n, S)
        assert (Q.complement_indices, Q.projection.entries, Q.section.entries) == (
            chosen, projection, section
        )


# ---------------------------------------------------------------------------
# oracle: the dense scan that the per-column nonzero pairs of `apply` replace


def oracle_apply(M, v):
    """M v, reading every entry of each column whose coordinate in v is
    nonzero."""
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    out = [ZERO] * M.rows
    for j, x in enumerate(v):
        if not x:
            continue
        for i in range(M.rows):
            a = M.entries[i][j]
            if a:
                out[i] = out[i] + a * x
    return tuple(out)


@st.composite
def matrix_and_vectors(draw):
    """A matrix of 0-5 rows and 0-5 columns, some columns all zero, and
    vectors of its column count."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.sampled_from(SPARSE)
    zero_columns = draw(st.sets(st.integers(0, 4)))
    entries = [
        [ZERO if j in zero_columns else draw(entry) for j in range(cols)]
        for _ in range(rows)
    ]
    vectors = [tuple(draw(entry) for _ in range(cols)) for _ in range(3)]
    return Matrix(entries, cols=cols), vectors


def assert_apply_matches(M, vectors):
    for v in vectors:
        # twice: the first call builds the column pairs, the second reads them
        assert M.apply(v) == oracle_apply(M, v)
        assert M.apply(v) == oracle_apply(M, v)
    for wrong in (M.cols + 1, M.cols - 1):
        if wrong < 0:
            continue
        with pytest.raises(ValueError, match="vector length mismatch"):
            oracle_apply(M, (ONE,) * wrong)
        with pytest.raises(ValueError, match="vector length mismatch"):
            M.apply((ONE,) * wrong)


@given(matrix_and_vectors())
@settings(max_examples=300, deadline=None)
def test_apply_matches_the_dense_scan_on_random_matrices(case):
    M, vectors = case
    assert_apply_matches(M, vectors)


def model_operators():
    """The operators the calculus applies: multiplication matrices, the
    involution, the canonical actions, and quotient projections and
    sections, on M_2-M_4, a direct sum, a quotient and a function algebra."""
    block_sum = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    killed = Subspace(13, [unit_vec(13, 4 + k) for k in range(9)])
    quotient, projection, section = quotient_algebra(block_sum, killed)
    out = [projection, section, Matrix.zero(3, 0), Matrix.zero(0, 3)]
    for A in (
        make_matrix_algebra(2),
        make_matrix_algebra(3),
        make_matrix_algebra(4),
        block_sum,
        quotient,
        make_function_algebra(5),
    ):
        dense = tuple(Scalar(i - 2, i % 3) for i in range(A.dim))
        out += [A.involution, A.left_mult_matrix(dense), A.right_mult_matrix(dense)]
        out += [A.left_mult_matrix(unit_vec(A.dim, A.dim - 1))]
    for n in (2, 3, 4):
        out += canonical_inner_model(n, 1, Fraction(2, 3)).operators
    return out


def test_apply_matches_the_dense_scan_on_model_operators():
    for M in model_operators():
        probes = [unit_vec(M.cols, j) for j in range(M.cols)]
        probes += [(ZERO,) * M.cols, tuple(Scalar(j, 1 - j) for j in range(M.cols))]
        assert_apply_matches(M, probes)


def test_apply_leaves_the_matrix_unchanged():
    entries = [[ONE, ZERO, sc(0, 2)], [ZERO, ZERO, sc("1/3")]]
    M = Matrix(entries)
    assert M.apply(vec(1, 2, 3)) == (sc(1, 6), sc(1))
    assert M.apply(vec(0, 5, 0)) == (ZERO, ZERO)
    fresh = Matrix(entries)
    assert M == fresh and hash(M) == hash(fresh)
    assert M.entries == fresh.entries and (M.rows, M.cols) == (2, 3)
    assert {fresh: "found"}[M] == "found"
    for name in ("entries", "rows", "_columns", "extra"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    assert M.apply(vec(1, 2, 3)) == (sc(1, 6), sc(1))


# -- oracle: Scalars built through Fraction, Matrices through promotion -------


def fraction_route(re, im=0):
    """The Scalar that `__init__` built from two Fractions before it took
    ints as they are."""
    return Scalar(Fraction(re), Fraction(im))


@pytest.mark.parametrize(
    "re, im",
    [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (-3, 2), (7, -7), (10**30, -(10**30) + 1)],
)
def test_scalar_from_ints_matches_the_fraction_route(re, im):
    s, ref = Scalar(re, im), fraction_route(re, im)
    assert (s._a, s._b, s._q) == (ref._a, ref._b, ref._q) == (re, im, 1)
    assert s == ref and hash(s) == hash(ref)
    assert str(s) == str(ref) and bool(s) is bool(ref)
    if not im:
        # equal to the int and the Fraction of the same value, and hashed alike
        assert s == re == Fraction(re) and hash(s) == hash(re) == hash(Fraction(re))
        assert Scalar(re) == ref and hash(Scalar(re)) == hash(ref)


def test_scalar_from_bools_keeps_ints_inside():
    for re, im in ((True, False), (False, True), (True, True), (True, 0), (0, True)):
        s = Scalar(re, im)
        assert s == fraction_route(re, im) == Scalar(int(re), int(im))
        assert hash(s) == hash(Scalar(int(re), int(im)))
        assert all(type(part) is int for part in (s._a, s._b, s._q))
    assert str(Scalar(True)) == "1" and str(Scalar(0, True)) == "i"


def promoting_matrix(rows, cols):
    """The same entries through the public, promoting constructor."""
    return Matrix([list(row) for row in rows], cols=cols)


def assert_built_like_the_promoting_route(M, rows, cols):
    want = promoting_matrix(rows, cols)
    assert (M.rows, M.cols) == (want.rows, want.cols)
    assert M.entries == want.entries and M == want and hash(M) == hash(want)
    assert type(M.entries) is tuple
    assert all(type(row) is tuple for row in M.entries)
    assert all(type(a) is Scalar for row in M.entries for a in row)


@st.composite
def matrix_pair(draw):
    """Two matrices of one shape (0-4 rows and columns) and a third whose
    row count is their column count."""
    rows, cols, width = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.sampled_from(SPARSE)

    def grid(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    return (
        Matrix(grid(rows, cols), cols=cols),
        Matrix(grid(rows, cols), cols=cols),
        Matrix(grid(cols, width), cols=width),
    )


@given(matrix_pair(), st.sampled_from(SPARSE))
@settings(max_examples=200, deadline=None)
def test_matrix_arithmetic_matches_the_promoting_constructor(case, c):
    M, N, P = case
    E, F = M.entries, N.entries
    assert_built_like_the_promoting_route(
        M + N, [[a + b for a, b in zip(r, s)] for r, s in zip(E, F)], M.cols
    )
    assert_built_like_the_promoting_route(
        M - N, [[a - b for a, b in zip(r, s)] for r, s in zip(E, F)], M.cols
    )
    assert_built_like_the_promoting_route(-M, [[-a for a in r] for r in E], M.cols)
    assert_built_like_the_promoting_route(M.scale(c), [[c * a for a in r] for r in E], M.cols)
    assert_built_like_the_promoting_route(
        M.conjugate(), [[a.conjugate() for a in r] for r in E], M.cols
    )
    assert_built_like_the_promoting_route(
        M.transpose(), [[E[i][j] for i in range(M.rows)] for j in range(M.cols)], M.rows
    )
    product = [
        [sum((E[i][k] * P.entries[k][j] for k in range(M.cols)), ZERO) for j in range(P.cols)]
        for i in range(M.rows)
    ]
    assert_built_like_the_promoting_route(M @ P, product, P.cols)
    assert (M - N) + N == M and (M.transpose()).transpose() == M


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 5)])
def test_identity_and_zero_match_the_promoting_constructor(rows, cols):
    assert_built_like_the_promoting_route(
        Matrix.zero(rows, cols), [[0] * cols for _ in range(rows)], cols
    )
    assert_built_like_the_promoting_route(
        Matrix.identity(cols), [[int(i == j) for j in range(cols)] for i in range(cols)], cols
    )
    with pytest.raises(ValueError, match="shape mismatch in addition"):
        Matrix.zero(rows, cols) - Matrix.zero(rows + 1, cols)


@given(matrix_pair())
@settings(max_examples=100, deadline=None)
def test_from_columns_matches_the_promoting_constructor(case):
    M = case[0]
    columns = [M.column(j) for j in range(M.cols)]
    built = Matrix.from_columns(columns, rows=M.rows)
    assert_built_like_the_promoting_route(built, M.entries, M.cols)
    # Scalar columns are taken as they are, not promoted again
    assert all(a is b for r, s in zip(built.entries, M.entries) for a, b in zip(r, s))


def test_from_columns_promotes_ints_strings_and_fractions():
    columns = [(1, "1/2", sc(0, 1)), (Fraction(-3, 4), 0, "2")]
    M = Matrix.from_columns(columns, rows=3)
    assert_built_like_the_promoting_route(
        M, [[1, Fraction(-3, 4)], ["1/2", 0], [I, 2]], 2
    )


@pytest.mark.parametrize("columns, rows", [([(1, 2)], 3), ([(1, 2)], 1), ([(), ()], 1)])
def test_from_columns_rejects_a_row_count_the_columns_contradict(columns, rows):
    with pytest.raises(ValueError, match="explicit row count contradicts the columns"):
        Matrix.from_columns(columns, rows=rows)


def test_from_columns_keeps_the_shape_of_empty_columns():
    M = Matrix.from_columns([(), (), ()], rows=0)
    assert (M.rows, M.cols, M.entries) == (0, 3, ())
    empty = Matrix.from_columns([], rows=2)
    assert (empty.rows, empty.cols) == (2, 0)
    with pytest.raises(ValueError, match="ragged columns"):
        Matrix.from_columns([(ONE, ZERO), (ONE,)])
