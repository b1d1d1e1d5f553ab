"""Substrate checks: field axioms, elimination, subspaces, quotients, and
the dense solve and null space that are the oracles of the sparse ones."""

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
from nctangent.connection import ConnectionCoefficients, curvature_components
from nctangent.forms import FormN, kappa_basis
from nctangent.minkowski import PBWElement, PoincareGenerator, coproduct
from nctangent.scalars import (
    I,
    Immutable,
    ONE,
    ZERO,
    Matrix,
    Scalar,
    Subspace,
    eliminate,
    nullspace,
    quotient_projection,
    rref,
    Scalar as sc,
    solve_linear,
    unit_vec,
    vec_is_zero,
    vec_sub,
)
from nctangent.tangent import canonical_inner_model, generator_derivation, glue

from dense_matrix import DenseMatrix
from seeded import right_mult_matrix

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


def conjugate(z):
    """The complex conjugate of a Scalar: the coefficient map of the
    involutions in the tests."""
    return Scalar(z.re, -z.im)


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
    assert_agrees(conjugate(s), r.conjugate())
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
        Subspace(2, [(sc(1), sc(0))]),
        assign.algebra,
        characters(make_function_algebra(2))[0],
        ConnectionCoefficients.zero(assign),
        curvature_components(ConnectionCoefficients.zero(assign)),
        cov,
        basis,
        FormN(basis, 1, {}),
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
    "Matrix", "Subspace", "StarAlgebra", "Character",
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
    assert conjugate(conjugate(a)) == a
    if a:
        assert a * a.inverse() == ONE
        norm = a * conjugate(a)
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


@pytest.mark.parametrize(
    "text, value, shown",
    [
        ("1e-2i", sc(0, Fraction(1, 100)), "1/100i"),
        ("1+1e-2i", sc(1, Fraction(1, 100)), "1+1/100i"),
        ("1E+2i", sc(0, 100), "100i"),
        ("1e2i", sc(0, 100), "100i"),
        ("1/100i", sc(0, Fraction(1, 100)), "1/100i"),
        ("1e-2", sc(Fraction(1, 100)), "1/100"),
        ("2e-1-3E-1i", sc(Fraction(1, 5), Fraction(-3, 10)), "1/5-3/10i"),
    ],
)
def test_parse_reads_a_signed_exponent(text, value, shown):
    x = Scalar.parse(text)
    assert x == value
    assert str(x) == shown
    assert Scalar.parse(str(x)) == x


@pytest.mark.parametrize("text", ["1--i", "i1"])
def test_parse_still_rejects_malformed_literals(text):
    with pytest.raises(ValueError):
        Scalar.parse(text)


def equations(A, b):
    """The sparse rows of A x = b, the right-hand side at column A.cols."""
    return [
        {c: a for c, a in enumerate(row + (y,)) if a}
        for row, y in zip(DenseMatrix.of(A).entries, b)
    ]


def test_solve_identity():
    A = Matrix.identity(2)
    assert solve_linear(equations(A, (sc(1), sc(2))), 2) == (sc(1), sc(2))
    assert nullspace(equations(A, (sc(0), sc(0))), 2) == []


def test_solve_zero_map():
    assert solve_linear(equations(Matrix.zero(2, 2), (sc(0), sc(0))), 2) == (sc(0), sc(0))
    assert nullspace([], 2) == [(sc(1), sc(0)), (sc(0), sc(1))]


def test_solve_rank_deficient():
    # hand elimination: x + y = 3 twice over; y is free and set to 0, and
    # the kernel spans (-1, 1)
    A = DenseMatrix([[1, 1], [2, 2]]).to_matrix()
    particular = solve_linear(equations(A, (sc(3), sc(6))), 2)
    assert particular == (sc(3), sc(0))
    assert A.apply(particular) == (sc(3), sc(6))
    assert nullspace(equations(A, (sc(0), sc(0))), 2) == [(sc(-1), sc(1))]


def test_solve_inconsistent():
    A = DenseMatrix([[1, 1], [1, 1]]).to_matrix()
    assert solve_linear(equations(A, (sc(0), sc(1))), 2) is None
    # an equation with only a right-hand side, 0 = 1, and no unknowns
    assert solve_linear([{2: ONE}, {0: ONE}], 2) is None
    assert solve_linear([{0: ONE}], 0) is None
    assert solve_linear([], 0) == ()


def test_matrix_inverse_and_rank():
    A = DenseMatrix([[1, 2], [3, 5]]).to_matrix()
    assert A @ matrix_inverse(A) == Matrix.identity(2)
    assert len(rref(DenseMatrix.of(A).entries)[1]) == 2
    assert len(rref([(sc(1), sc(2)), (sc(2), sc(4))])[1]) == 1


def test_rref_pivots():
    rows, pivots = rref([(sc(0), sc(1), sc(2)), (sc(0), sc(2), sc(4)), (sc(1), sc(0), sc(0))])
    assert pivots == [0, 1]
    assert rows[0] == (sc(1), sc(0), sc(0))


def test_intersect_transverse_lines():
    U = Subspace(2, [(sc(1), sc(0))])
    V = Subspace(2, [(sc(0), sc(1))])
    assert U.intersect(V).is_zero()


def test_intersect_idempotent():
    U = Subspace(3, [(sc(1), sc(2), sc(3)), (sc(0), sc(1), sc(1))])
    assert U.intersect(U) == U


def test_intersect_common_line():
    # brute-force check over rational combinations done by hand:
    # span{e1+e2, e3} meets span{e1+e2, e1} exactly in span{e1+e2}
    U = Subspace(3, [(sc(1), sc(1), sc(0)), (sc(0), sc(0), sc(1))])
    V = Subspace(3, [(sc(1), sc(1), sc(0)), (sc(1), sc(0), sc(0))])
    W = U.intersect(V)
    assert W == Subspace(3, [(sc(1), sc(1), sc(0))])


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


def quotient(n, S):
    """(complement, projection, section) of Q(i)^n / S: `quotient_projection`
    of S's rows, and the unit vectors at the complement indices as the
    section, which `quotient_algebra` takes."""
    chosen, projection = quotient_projection(n, S._rows)
    section = DenseMatrix.from_columns([unit_vec(n, c) for c in chosen], rows=n).to_matrix()
    return tuple(chosen), projection, section


def holds(S, v):
    """Whether v lies in S, by `Subspace._holds`: the membership route of
    the covering laws, on the ints of v's nonzero entries."""
    return S._holds({c: [x._a, x._b, x._q] for c, x in enumerate(v) if x})


def test_quotient_trivial_subspace():
    chosen, P, section = quotient(3, Subspace(3, []))
    assert chosen == (0, 1, 2)
    for k in range(3):
        e = unit_vec(3, k)
        assert section.apply(P.apply(e)) == e


def test_quotient_full_subspace():
    chosen, P, _ = quotient(2, Subspace(2, [(sc(1), sc(0)), (sc(0), sc(1))]))
    assert chosen == ()
    assert P.apply((sc(5), sc(7))) == ()


def test_quotient_identifies_e1_e2():
    chosen, P, section = quotient(3, Subspace(3, [(sc(1), sc(-1), sc(0))]))
    assert len(chosen) == 2
    assert P.apply(unit_vec(3, 0)) == P.apply(unit_vec(3, 1))
    # projection composed with section is the identity on the quotient
    for x in [(sc(1), sc(0)), (sc(0), sc(1)), (sc(2), sc(3))]:
        assert P.apply(section.apply(x)) == x


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_quotient_kernel_is_subspace(n, data):
    count = data.draw(st.integers(0, n))
    vecs = [
        tuple(Scalar(data.draw(st.integers(-3, 3))) for _ in range(n))
        for _ in range(count)
    ]
    S = Subspace(n, vecs)
    chosen, P, section = quotient(n, S)
    assert len(chosen) == n - S.dim
    # every subspace vector projects to zero and projection is onto
    for v in S.basis:
        assert vec_is_zero(P.apply(v))
    probe = tuple(Scalar(data.draw(st.integers(-3, 3))) for _ in range(n))
    assert vec_is_zero(P.apply(probe)) == holds(S, probe)
    # section picks representatives: v - lift(project(v)) lies in S
    assert holds(S, vec_sub(probe, section.apply(P.apply(probe))))


def test_nullspace_matches_rank():
    A = DenseMatrix([[1, 2, 3], [2, 4, 6]]).to_matrix()
    ker = nullspace(equations(A, (sc(0), sc(0))), 3)
    assert len(ker) == 2
    for v in ker:
        assert vec_is_zero(A.apply(v))


def test_short_complement_raises_a_typed_error():
    # the complement size check must not be an assert, which `python -O`
    # strips.  A stored basis of three vectors in the plane, with the
    # sparse rows the quotient eliminates, claims three dimensions, so
    # the quotient would need -1 vectors while the elimination leaves a
    # complement of 0
    S = object.__new__(Subspace)
    object.__setattr__(S, "ambient_dim", 2)
    object.__setattr__(S, "basis", ((sc(1), sc(0)), (sc(0), sc(1)), (sc(1), sc(0))))
    object.__setattr__(S, "_rows", ({0: ONE}, {1: ONE}, {0: ONE}))
    object.__setattr__(S, "_pivots", (0, 1, 0))
    F = make_function_algebra(2)
    with pytest.raises(ValueError, match="complement has 0 vectors, the quotient needs -1"):
        quotient_algebra(F, S)
    with pytest.raises(ValueError, match="subspace lives in a different ambient space"):
        quotient_algebra(F, Subspace(3, []))


# ---------------------------------------------------------------------------
# oracles: the routes that stored pivots and the closed-form quotient replace


def matrix_inverse(M):
    """The inverse of the square, invertible M, from the reduced form of
    [M | 1]."""
    n = M.rows
    if M.cols != n:
        raise ValueError("inverse of non-square matrix")
    aug = [list(row) + list(unit_vec(n, i)) for i, row in enumerate(DenseMatrix.of(M).entries)]
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return DenseMatrix([row[n:] for row in reduced]).to_matrix()


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
        Minv = matrix_inverse(DenseMatrix.from_columns(columns, rows=n).to_matrix())
        projection = DenseMatrix.of(Minv).entries[S.dim:]
    else:
        projection = ()
    section = DenseMatrix.from_columns([unit_vec(n, idx) for idx in chosen], rows=n)
    return tuple(chosen), projection, section.entries


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
    got = quotient(n, S)
    chosen, projection, section = oracle_quotient(n, S)
    assert got[0] == chosen
    assert DenseMatrix.of(got[1]).entries == projection
    assert DenseMatrix.of(got[2]).entries == section
    assert (got[1].rows, got[1].cols) == (len(chosen), n)
    assert (got[2].rows, got[2].cols) == (n, len(chosen))
    for v in probes:
        assert holds(S, v) == oracle_contains(S, v)
    assert holds(S, probes[0])


@pytest.mark.parametrize("n", [0, 1, 4])
def test_quotient_oracle_on_the_empty_and_full_subspaces(n):
    for S in (Subspace(n, []), Subspace(n, [unit_vec(n, k) for k in range(n)])):
        chosen, projection, section = quotient(n, S)
        want = oracle_quotient(n, S)
        assert (chosen, DenseMatrix.of(projection).entries, DenseMatrix.of(section).entries) == want
        if n:
            # both are ideals of F_n: the quotient algebra's maps agree
            _, P, sigma = quotient_algebra(make_function_algebra(n), S)
            assert (DenseMatrix.of(P).entries, DenseMatrix.of(sigma).entries) == want[1:]


# ---------------------------------------------------------------------------
# oracle: the dense scan that the per-column nonzero pairs of `apply` replace


def oracle_apply(M, v):
    """M v, reading every entry of each column whose coordinate in v is
    nonzero."""
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    out = [ZERO] * M.rows
    entries = DenseMatrix.of(M).entries
    for j, x in enumerate(v):
        if not x:
            continue
        for i in range(M.rows):
            a = entries[i][j]
            if a:
                out[i] = out[i] + a * x
    return tuple(out)


def operator_apply(M, v):
    """`Matrix.apply` one Scalar operation at a time, over the nonzero
    pairs of each column."""
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    out = [ZERO] * M.rows
    for x, column in zip(v, M.nonzero_columns()):
        if not x:
            continue
        for i, a in column:
            out[i] = out[i] + a * x
    return tuple(out)


def operator_matmul(M, N):
    """`M @ N` one Scalar operation at a time, row by row."""
    if M.cols != N.rows:
        raise ValueError("shape mismatch in product")
    if M.rows == 0 or N.cols == 0 or M.cols == 0:
        return Matrix.zero(M.rows, N.cols)
    out = []
    right = DenseMatrix.of(N).entries
    for ri in DenseMatrix.of(M).entries:
        orow = [ZERO] * N.cols
        for a, brow in zip(ri, right):
            if a:
                orow = [x + a * b for x, b in zip(orow, brow)]
        out.append(tuple(orow))
    return DenseMatrix(out, cols=N.cols).to_matrix()


def operator_vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def operator_vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def operator_vec_scale(c, u):
    c = Scalar.promote(c)
    return tuple(c * a for a in u)


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
    return DenseMatrix(entries, cols=cols).to_matrix(), vectors


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
        out += [A.involution, A.left_mult_matrix(dense), right_mult_matrix(A, dense)]
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
    M = DenseMatrix(entries).to_matrix()
    assert M.apply((sc(1), sc(2), sc(3))) == (sc(1, 6), sc(1))
    assert M.apply((sc(0), sc(5), sc(0))) == (ZERO, ZERO)
    fresh = DenseMatrix(entries).to_matrix()
    assert M == fresh and hash(M) == hash(fresh)
    assert DenseMatrix.of(M) == DenseMatrix.of(fresh) and (M.rows, M.cols) == (2, 3)
    assert {fresh: "found"}[M] == "found"
    for name in ("cols", "rows", "_columns", "extra"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    assert M.apply((sc(1), sc(2), sc(3))) == (sc(1, 6), sc(1))


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
    """The same entries, each promoted, as a `DenseMatrix`."""
    return DenseMatrix([list(row) for row in rows], cols=cols)


def assert_built_like_the_promoting_route(M, rows, cols):
    want = promoting_matrix(rows, cols)
    assert DenseMatrix.of(M) == want
    assert M == want.to_matrix() and hash(M) == hash(want.to_matrix())
    assert all(type(a) is Scalar for column in M.nonzero_columns() for _, a in column)


@st.composite
def matrix_pair(draw):
    """Two matrices of one shape (0-4 rows and columns) and a third whose
    row count is their column count."""
    rows, cols, width = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.sampled_from(SPARSE)

    def grid(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    return (
        DenseMatrix(grid(rows, cols), cols=cols).to_matrix(),
        DenseMatrix(grid(rows, cols), cols=cols).to_matrix(),
        DenseMatrix(grid(cols, width), cols=width).to_matrix(),
    )


@given(matrix_pair(), st.sampled_from(SPARSE))
@settings(max_examples=200, deadline=None)
def test_matrix_arithmetic_matches_the_promoting_constructor(case, c):
    M, N, P = case
    E, F, G = (DenseMatrix.of(X).entries for X in (M, N, P))
    assert_built_like_the_promoting_route(
        M + N, [[a + b for a, b in zip(r, s)] for r, s in zip(E, F)], M.cols
    )
    assert_built_like_the_promoting_route(
        M - N, [[a - b for a, b in zip(r, s)] for r, s in zip(E, F)], M.cols
    )
    assert_built_like_the_promoting_route(-M, [[-a for a in r] for r in E], M.cols)
    assert_built_like_the_promoting_route(M.scale(c), [[c * a for a in r] for r in E], M.cols)
    product = [
        [sum((E[i][k] * G[k][j] for k in range(M.cols)), ZERO) for j in range(P.cols)]
        for i in range(M.rows)
    ]
    assert_built_like_the_promoting_route(M @ P, product, P.cols)
    assert (M - N) + N == M


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
    built = DenseMatrix.from_columns(columns, rows=M.rows).to_matrix()
    dense = DenseMatrix.of(M).entries
    assert_built_like_the_promoting_route(built, dense, M.cols)
    # Scalar columns are taken as they are, not promoted again
    assert all(
        a is b for r, s in zip(DenseMatrix.of(built).entries, dense) for a, b in zip(r, s)
    )


def test_from_columns_promotes_ints_strings_and_fractions():
    columns = [(1, "1/2", sc(0, 1)), (Fraction(-3, 4), 0, "2")]
    M = DenseMatrix.from_columns(columns, rows=3).to_matrix()
    assert_built_like_the_promoting_route(
        M, [[1, Fraction(-3, 4)], ["1/2", 0], [I, 2]], 2
    )


@pytest.mark.parametrize("columns, rows", [([(1, 2)], 3), ([(1, 2)], 1), ([(), ()], 1)])
def test_from_columns_rejects_a_row_count_the_columns_contradict(columns, rows):
    with pytest.raises(ValueError, match="explicit row count contradicts the columns"):
        DenseMatrix.from_columns(columns, rows=rows).to_matrix()


def test_from_columns_keeps_the_shape_of_empty_columns():
    M = DenseMatrix.from_columns([(), (), ()], rows=0).to_matrix()
    assert (M.rows, M.cols, DenseMatrix.of(M).entries) == (0, 3, ())
    empty = DenseMatrix.from_columns([], rows=2).to_matrix()
    assert (empty.rows, empty.cols) == (2, 0)
    with pytest.raises(ValueError, match="ragged columns"):
        DenseMatrix.from_columns([(ONE, ZERO), (ONE,)]).to_matrix()


# -- oracle: the dense elimination that the sparse-row `eliminate` replaces ---


def dense_rref(rows):
    """Reduced row echelon form by whole-row operations on dense lists:
    the elimination `rref` ran before it wrapped `eliminate`."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, nrows):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * a for a in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows], pivots


def dense_solve(A, b):
    """Solve A x = b, A a `DenseMatrix`, from the dense reduced form of [A | b]:
    (the particular solution with free unknowns 0, a kernel basis), or
    None when inconsistent."""
    if A.rows != len(b):
        raise ValueError("right-hand side length mismatch")
    n = A.cols
    reduced, pivots = dense_rref([tuple(row) + (y,) for row, y in zip(A.entries, b)])
    if n in pivots:
        return None
    particular = [ZERO] * n
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][n]
    return tuple(particular), dense_kernel(reduced, pivots, n)


def dense_nullspace(A):
    """Null space basis of the `DenseMatrix` A, from `dense_rref`."""
    reduced, pivots = dense_rref(A.entries)
    return dense_kernel(reduced, pivots, A.cols)


def dense_kernel(reduced, pivots, n):
    """One kernel vector per free column f of dense reduced rows: e_f
    minus column f of the rows at their pivots."""
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


@st.composite
def dense_rows(draw):
    """0-6 rows of 1-6 entries, often sparse, with repeated and zero
    rows among them."""
    cols = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(SPARSE), min_size=cols, max_size=cols).map(tuple)
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows += [rows[0], (ZERO,) * cols]
    return rows


@given(dense_rows())
@settings(max_examples=300, deadline=None)
def test_rref_matches_the_dense_elimination(rows):
    assert rref(rows) == dense_rref(rows)


@given(dense_rows())
@settings(max_examples=150, deadline=None)
def test_sparse_nullspace_matches_nullspace(rows):
    cols = len(rows[0]) if rows else 3
    sparse = [{c: a for c, a in enumerate(row) if a} for row in rows]
    assert nullspace(sparse, cols) == dense_nullspace(DenseMatrix(rows, cols=cols))


MIXED = st.sampled_from(SPARSE) | scalars


@st.composite
def linear_systems(draw):
    """A x = b over 0-5 unknowns with mixed denominators and complex
    entries: rank-deficient systems, consistent ones (b = A x) and
    inconsistent ones, and zero rows of A beside a nonzero b, which are
    equations with only a right-hand side."""
    cols = draw(st.integers(0, 5))
    row = st.lists(MIXED, min_size=cols, max_size=cols).map(tuple)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        rows.append(rows[0])
    if draw(st.booleans()):
        rows.append((ZERO,) * cols)
    A = DenseMatrix(rows, cols=cols).to_matrix()
    if draw(st.booleans()):
        b = A.apply(tuple(draw(MIXED) for _ in range(cols)))
    else:
        b = tuple(draw(MIXED) for _ in rows)
    return A, b


@given(linear_systems())
@settings(max_examples=300, deadline=None)
@example((DenseMatrix(((),), cols=0).to_matrix(), (sc(1),)))
@example((DenseMatrix([[0, 0], [1, 1]]).to_matrix(), (sc(2), sc(1))))
@example((DenseMatrix([[1, 1], [2, 2]]).to_matrix(), (sc(1), sc(2))))
def test_solve_linear_matches_the_dense_solve(case):
    A, b = case
    want = dense_solve(DenseMatrix.of(A), b)
    got = solve_linear(equations(A, b), A.cols)
    assert got == (None if want is None else want[0])
    if got is not None:
        assert A.apply(got) == b
    homogeneous = equations(A, (ZERO,) * A.rows)
    assert nullspace(homogeneous, A.cols) == dense_nullspace(DenseMatrix.of(A))


def test_eliminate_reads_sparse_rows_and_drops_cleared_ones():
    rows = [{2: sc(2)}, {0: sc(1), 2: sc(4)}, {0: sc(3), 2: sc(12)}, {}]
    reduced, pivots = eliminate(rows, 4)
    assert pivots == [0, 2]
    assert reduced == [{0: ONE}, {2: ONE}]


def test_column_and_unit_vec():
    M = DenseMatrix([[1, 2, 3], [4, 5, 6]]).to_matrix()
    assert [M.column(j) for j in range(3)] == [(sc(1), sc(4)), (sc(2), sc(5)), (sc(3), sc(6))]
    assert Matrix.zero(0, 2).column(1) == ()
    for n in range(1, 5):
        for k in range(n):
            assert unit_vec(n, k) == tuple(ONE if j == k else ZERO for j in range(n))
    for n, k in ((3, 3), (3, -1), (0, 0)):
        with pytest.raises(ValueError, match="out of range"):
            unit_vec(n, k)
