"""Structure-constant algebras: models, axioms, centers, derivations,
characters, supports."""

import inspect
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import character_oracle
from character_oracle import (
    CHARACTER_DIM_BOUND,
    UnsupportedCharacters,
    generic_characters,
    is_character,
)
from nctangent import algebras
from nctangent.algebras import (
    AlgebraError,
    Character,
    StarAlgebra,
    center,
    characters,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    make_moyal_truncation,
    noncentral_witness,
    quotient_algebra,
    two_sided_ideal_closure,
)
from nctangent.connection import InvalidConnection
from nctangent.covering import (
    Covering,
    IntersectionNonzero,
    NotAnIdeal,
    ideal_from_declaration,
)
from nctangent.forms import NotBracketClosed
from nctangent.partition import IllDefined
from nctangent.scalars import (
    Matrix,
    ONE,
    Scalar,
    Subspace,
    ZERO,
    Scalar as sc,
    nullspace,
    unit_vec,
    vec_is_zero,
    vec_sub,
    zero_vec,
)
from nctangent.tangent import NonCentralCoefficient, leibniz_failures

from dense_matrix import DenseMatrix
from seeded import right_mult_matrix
from test_scalars import dense_nullspace, holds, quotient


def terms_of(table):
    """The sparse rows of a dense table, zeros included: the constructor
    drops them."""
    return [tuple((j, tuple(enumerate(cell))) for j, cell in enumerate(row)) for row in table]


def label_index(A, label):
    return A.labels.index(label)


def basis_of(A, label):
    return unit_vec(A.dim, label_index(A, label))


@pytest.mark.parametrize(
    "error",
    [
        NotAnIdeal,
        IntersectionNonzero,
        IllDefined,
        NonCentralCoefficient,
        NotBracketClosed,
        InvalidConnection,
    ],
)
def test_errors_carry_their_witness(error):
    assert issubclass(error, AlgebraError)
    assert error.__doc__ and error.__doc__ != AlgebraError.__doc__
    bare = error("what broke")
    assert str(bare) == "what broke"
    assert bare.witness is None
    err = error("what broke", witness=(0, ("star", None)))
    assert str(err) == "what broke"
    assert err.witness == (0, ("star", None))
    with pytest.raises(AlgebraError, match="^what broke$") as caught:
        raise err
    assert caught.value.witness == (0, ("star", None))


# -- matrix model -----------------------------------------------------------


def test_matrix_algebra_n1_is_the_field():
    A = make_matrix_algebra(1)
    assert A.dim == 1
    assert A.unit == (ONE,)
    assert A.multiply((sc(2),), (sc(3),)) == (sc(6),)


def test_matrix_units_multiply_by_delta():
    A = make_matrix_algebra(2)
    e12 = basis_of(A, "E_12")
    e21 = basis_of(A, "E_21")
    assert A.multiply(e12, e21) == basis_of(A, "E_11")
    assert A.multiply(e21, e12) == basis_of(A, "E_22")
    assert vec_is_zero(A.multiply(e12, e12))


def test_matrix_algebra_axioms_full_sweep():
    # all 729 triples for n = 3
    assert check_axioms(make_matrix_algebra(3)) == []
    assert check_axioms(make_matrix_algebra(2)) == []


def test_matrix_involution_is_conjugate_transpose():
    A = make_matrix_algebra(2)
    v = (sc(1, 1), sc(0, 2), sc(0), sc(0))  # (1+i)E_11 + 2i E_12
    w = A.involute(v)
    assert w[label_index(A, "E_11")] == sc(1, -1)
    assert w[label_index(A, "E_21")] == sc(0, -2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_involution_matches_the_unit_column_route(n):
    # the route the permutation rows replace: one unit column per basis
    # element, E_mk sent to E_km, every entry promoted
    dim = n * n
    want = DenseMatrix.from_columns(
        [unit_vec(dim, k * n + m) for m in range(n) for k in range(n)], rows=dim
    ).to_matrix()
    for A in (make_matrix_algebra(n), make_moyal_truncation(n)):
        assert A.involution == want and hash(A.involution) == hash(want)
        assert (A.involution.rows, A.involution.cols) == (dim, dim)
        assert all(type(a) is Scalar for col in A.involution.nonzero_columns() for _, a in col)
        assert A.involution @ A.involution == Matrix.identity(dim)


def test_matrix_algebra_rejects_zero_size():
    with pytest.raises(Exception):
        make_matrix_algebra(0)


# -- function model ---------------------------------------------------------


def test_function_algebra_single_point():
    A = make_function_algebra(1)
    assert A.dim == 1 and A.unit == (ONE,)


def test_function_algebra_disjoint_indicators():
    A = make_function_algebra(4)
    assert vec_is_zero(A.multiply(basis_of(A, "delta_2"), basis_of(A, "delta_3")))
    assert check_axioms(A) == []


def test_function_algebra_characters_are_point_evaluations():
    A = make_function_algebra(4)
    chars = characters(A)
    assert len(chars) == 4
    for p, phi in enumerate(chars):
        assert phi(unit_vec(4, p)) == ONE
        assert phi(A.unit) == ONE


def test_characters_separate_commutative_elements():
    A = make_function_algebra(3)
    a = (sc(1), sc(2), sc(3))
    b = (sc(1), sc(2), sc(4))
    assert any(phi(a) != phi(b) for phi in characters(A))


# -- direct sums ------------------------------------------------------------


def test_direct_sum_of_fields_matches_two_point_functions():
    S = direct_sum(make_matrix_algebra(1), make_matrix_algebra(1))
    F = make_function_algebra(2)
    assert S.table == F.table
    assert S.unit == F.unit


def test_direct_sum_dimension():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    assert A.dim == 13
    assert check_axioms(A) == []


def test_direct_sum_characters_union():
    A = direct_sum(make_matrix_algebra(1), make_function_algebra(2))
    assert len(characters(A)) == 3
    B = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    assert characters(B) == ()


# -- centers ----------------------------------------------------------------


def test_center_of_simple_matrix_algebra():
    A = make_matrix_algebra(3)
    Z = center(A)
    assert Z.dim == 1
    assert holds(Z, A.unit)


def test_center_of_commutative_algebra_is_everything():
    A = make_function_algebra(4)
    assert center(A).dim == 4


def test_center_of_block_sum_is_two_dimensional():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    Z = center(A)
    assert Z.dim == 2
    block1 = (sc(1), sc(0), sc(0), sc(1)) + zero_vec(9)
    block2 = zero_vec(4) + tuple(make_matrix_algebra(3).unit)
    assert holds(Z, block1) and holds(Z, block2)
    assert noncentral_witness(A, block1) is None
    assert noncentral_witness(A, unit_vec(13, 1)) is not None


# -- derivations ------------------------------------------------------------


def test_derivations_of_function_algebras_vanish():
    for n in (2, 3, 4):
        assert derivations(make_function_algebra(n)) == []


def test_derivations_of_m1_vanish():
    assert derivations(make_matrix_algebra(1)) == []


def test_derivations_of_m2_are_inner():
    A = make_matrix_algebra(2)
    basis = derivations(A)
    assert len(basis) == 3  # ad-image of the trace-free part
    for D in basis:
        assert leibniz_failures(A, D) == []


def test_derivations_of_m5_are_inner():
    # 24 = dim of the trace-free part of M_5; the dense oracle is too slow
    # at n^3 x n^4 equations, so each map is checked against Leibniz
    A = make_matrix_algebra(5)
    basis = derivations(A)
    assert len(basis) == 24
    for D in basis:
        assert leibniz_failures(A, D) == []


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=25, deadline=None)
def test_ad_m_is_always_a_derivation(a, b, c, d):
    A = make_matrix_algebra(2)
    m = (sc(a), sc(b), sc(c), sc(d))
    ad = A.left_mult_matrix(m) - right_mult_matrix(A, m)
    assert leibniz_failures(A, ad) == []


# -- the generic route, the oracle of `characters` -------------------------
#
# The oracle needs no model tag, so these tests strip it or build the
# algebra untagged; `characters` raises on such an algebra.


def test_characters_of_an_untagged_algebra_raise():
    F = make_function_algebra(2)
    stripped = StarAlgebra(F.labels, F.terms, F.involution, F.unit, model=None)
    with pytest.raises(AlgebraError, match="need a model tag"):
        characters(stripped)


def test_generic_path_confirms_matrix_blocks_empty():
    # strip the model tag so the abelianization route is exercised
    A4 = make_matrix_algebra(4)
    stripped = StarAlgebra(A4.labels, A4.terms, A4.involution, A4.unit, model=None)
    assert generic_characters(stripped) == []


def test_generic_path_agrees_with_function_model():
    F = make_function_algebra(3)
    stripped = StarAlgebra(F.labels, F.terms, F.involution, F.unit, model=None)
    got = {phi.coords for phi in generic_characters(stripped)}
    want = {phi.coords for phi in characters(F)}
    assert got == want


def test_generic_path_on_block_sum_empty():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    stripped = StarAlgebra(A.labels, A.terms, A.involution, A.unit, model=None)
    assert generic_characters(stripped) == []


def test_generic_path_on_scaled_function_basis():
    # same algebra as functions on 2 points, but in a mixed basis, so the
    # eigen-splitting actually has to work
    F = make_function_algebra(2)
    u = (sc(1), sc(1))
    w = (sc(Fraction(1, 2)), sc(Fraction(-1, 2)))
    # basis {u, w}: u*u = u, u*w = w, w*w = u/4
    table = [
        [(sc(1), sc(0)), (sc(0), sc(1))],
        [(sc(0), sc(1)), (sc(Fraction(1, 4)), sc(0))],
    ]
    B = StarAlgebra(["u", "w"], terms_of(table), Matrix.identity(2), (sc(1), sc(0)), model=None)
    assert check_axioms(B) == []
    chars = sorted(generic_characters(B), key=lambda p: str(p.coords))
    assert len(chars) == 2
    values = {tuple(str(c) for c in phi.coords) for phi in chars}
    assert values == {("1", "1/2"), ("1", "-1/2")}


def test_generic_path_raises_on_irrational_values():
    # Q(sqrt 2) as a two-dimensional commutative algebra: t*t = 2
    table = [
        [(sc(1), sc(0)), (sc(0), sc(1))],
        [(sc(0), sc(1)), (sc(2), sc(0))],
    ]
    B = StarAlgebra(["one", "t"], terms_of(table), Matrix.identity(2), (sc(1), sc(0)), model=None)
    with pytest.raises(
        UnsupportedCharacters,
        match=r"not Gaussian rational \(a factor of degree 2 has no root in Q\(i\)\)",
    ):
        generic_characters(B)


def test_generic_path_finds_gaussian_character_values():
    # C[t]/(t^2 + 1): t*t = -1, so the two characters send t to i and -i;
    # a root finder over Q alone would find none
    table = [
        [(sc(1), sc(0)), (sc(0), sc(1))],
        [(sc(0), sc(1)), (sc(-1), sc(0))],
    ]
    B = StarAlgebra(["one", "t"], terms_of(table), Matrix.identity(2), (sc(1), sc(0)), model=None)
    assert check_axioms(B) == []
    got = {phi.coords for phi in generic_characters(B)}
    assert got == {(ONE, Scalar(0, 1)), (ONE, Scalar(0, -1))}


def test_generic_path_finds_a_large_prime_character_value():
    # t*t = c*t: the characters send t to 0 and to c.  Once the root 0 is
    # divided out, t - c is solved directly, without factoring c's norm.
    c = 10**12 + 39  # prime
    table = [
        [(sc(1), sc(0)), (sc(0), sc(1))],
        [(sc(0), sc(1)), (sc(0), sc(c))],
    ]
    B = StarAlgebra(["one", "t"], terms_of(table), Matrix.identity(2), (sc(1), sc(0)), model=None)
    assert check_axioms(B) == []
    got = {phi.coords for phi in generic_characters(B)}
    assert got == {(ONE, ZERO), (ONE, sc(c))}


def test_character_dimension_bound():
    # one past the oracle's bound, and far past it; `characters` has none
    F = make_function_algebra(CHARACTER_DIM_BOUND + 1)
    assert len(characters(F)) == CHARACTER_DIM_BOUND + 1
    A = make_matrix_algebra(9)  # dim 81 > 64
    for B in (F, A):
        stripped = StarAlgebra(B.labels, B.terms, B.involution, B.unit, model=None)
        with pytest.raises(UnsupportedCharacters, match="limited to dimension 64$"):
            generic_characters(stripped)
    # the bound guards the eigen-split only: a function quotient one past
    # it, and F_65 + M_2 over its matrix block, take the parent route and
    # enumerate, while the generic route on the same quotients still raises
    G = make_function_algebra(CHARACTER_DIM_BOUND + 2)
    mixed = direct_sum(make_function_algebra(CHARACTER_DIM_BOUND + 1), make_matrix_algebra(2))
    for Q in (
        point_quotient(G, range(1, CHARACTER_DIM_BOUND + 2)),
        quotient_algebra(mixed, ideal_from_declaration(mixed, {"type": "blocks", "kill": ["2"]}))[0],
    ):
        assert Q.dim == CHARACTER_DIM_BOUND + 1
        assert character_list(characters(Q)) == [
            ("phi_%d" % k, unit_vec(Q.dim, Q.dim - 1 - k)) for k in range(Q.dim)
        ]
        with pytest.raises(UnsupportedCharacters, match="limited to dimension 64$"):
            generic_characters(Q)


# -- characters of a quotient from its parent --------------------------------


def character_list(chars):
    return [(phi.label, phi.coords) for phi in chars]


def point_quotient(A, kept):
    """A over the span of the basis vectors whose index is not in `kept`:
    on a function model, or a quotient of one, the functions on the kept
    points."""
    kept = set(kept)
    ideal = Subspace(A.dim, [unit_vec(A.dim, i) for i in range(A.dim) if i not in kept])
    return quotient_algebra(A, ideal)[0]


def subsets(n):
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]


def block_quotients(blocks):
    """The quotients of the sum of `blocks`, left to right, by the span of
    every subset of its blocks."""
    A = blocks[0]
    for B in blocks[1:]:
        A = direct_sum(A, B)
    starts = [0]
    for B in blocks:
        starts.append(starts[-1] + B.dim)
    return [
        quotient_algebra(
            A,
            Subspace(A.dim, [
                unit_vec(A.dim, i) for k in killed for i in range(starts[k], starts[k + 1])
            ]),
        )[0]
        for killed in subsets(len(blocks))
    ]


def closure_quotients(Q):
    """Q over the ideals generated by its first and by its last basis
    vector."""
    if not Q.dim:
        return []
    return [
        quotient_algebra(Q, two_sided_ideal_closure(Q, [unit_vec(Q.dim, i)]))[0]
        for i in (0, Q.dim - 1)
    ]


def mixed_sums():
    """Sums that mix function blocks, M_n and a Moyal truncation."""
    F, M = make_function_algebra, make_matrix_algebra
    return [
        [F(1), M(2)],
        [M(2), M(1)],
        [make_moyal_truncation(2), F(2)],
        [M(2), F(2), M(1)],
        [F(3), M(2), F(1)],
        [M(1), M(1), M(2)],
    ]


@lru_cache(maxsize=None)
def parent_route_corpus():
    """(quotient, its generic-route characters) for every quotient of F_1
    to F_4 by a coordinate ideal and every quotient of those of F_4 in
    turn; the block charts of M_2+M_2 and Moyal_2+M_3 and two quotients
    of M_2; and every block quotient of the mixed sums, each with two
    ideal-closure quotients of it."""
    out = []
    for n in range(1, 5):
        F = make_function_algebra(n)
        out += [point_quotient(F, kept) for kept in subsets(n)]
    for Q in out[-16:]:
        out += [point_quotient(Q, kept) for kept in subsets(Q.dim)]
    M2 = make_matrix_algebra(2)
    for A in (direct_sum(M2, M2), direct_sum(make_moyal_truncation(2), make_matrix_algebra(3))):
        for block in "12":
            ideal = ideal_from_declaration(A, {"type": "blocks", "kill": [block]})
            out.append(quotient_algebra(A, ideal)[0])
    for basis in ([], [unit_vec(4, i) for i in range(4)]):
        out.append(quotient_algebra(M2, Subspace(4, basis))[0])
    for blocks in mixed_sums():
        for Q in block_quotients(blocks):
            out += [Q] + closure_quotients(Q)
    return tuple((B, character_list(generic_characters(B))) for B in out)


def parent_route_mismatches(route):
    """The corpus quotients on which `route` and the generic route differ
    in labels, values or order, or on which `route` raises AlgebraError
    (a character called on a vector of the wrong length, say)."""
    out = []
    for B, want in parent_route_corpus():
        try:
            got = character_list(route(B))
        except AlgebraError:
            got = None
        if got != want:
            out.append(B)
    return out


def test_parent_route_matches_the_generic_route():
    corpus = parent_route_corpus()
    assert all(B.model[0] == "quotient" for B, _ in corpus)
    # quotients of mixed sums at depths one and two, with and without
    # characters
    depths = {}
    for B, want in corpus:
        depth, root = 1, B.model[1]
        while root.model[0] == "quotient":
            depth, root = depth + 1, root.model[1]
        if root.model[0] == "sum":
            depths.setdefault(depth, set()).add(len(want))
    assert depths == {1: {0, 1, 2, 3, 4}, 2: {0, 1, 2, 3}}
    assert parent_route_mismatches(characters) == []


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_parent_route_matches_the_generic_route_on_random_function_quotients(data):
    n = data.draw(st.integers(1, 8))
    F = make_function_algebra(n)
    points = sorted(data.draw(st.sets(st.integers(1, n))))
    ideal = ideal_from_declaration(F, {"type": "vanishing_on", "points": points})
    Q = quotient_algebra(F, ideal)[0]
    QQ = point_quotient(Q, data.draw(st.sets(st.integers(0, n - 1))))
    for B in (Q, QQ):
        got = character_list(characters(B))
        assert got == character_list(generic_characters(B))
        assert len(got) == B.dim


def test_quotient_of_a_mixed_sum_takes_the_parent_route(monkeypatch):
    # commutative, while its parent M_2+F_2 is neither commutative nor
    # free of characters
    A = direct_sum(make_matrix_algebra(2), make_function_algebra(2))
    Q = quotient_algebra(A, ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]}))[0]
    calls = []
    real = algebras.characters
    monkeypatch.setattr(algebras, "characters", lambda B: calls.append(B) or real(B))
    got = algebras.characters(Q)
    assert calls[0] is Q and calls[1] is A
    assert [B.model[0] for B in calls] == ["quotient", "sum", "matrix", "function"]
    assert character_list(got) == [("phi_0", (ZERO, ONE)), ("phi_1", (ONE, ZERO))]
    assert all(is_character(Q, phi.coords) for phi in got)


def mutated_characters(old, new):
    """`characters` with one fragment of its uncached body
    `_enumerate_characters` replaced, compiled in a copy of the module's
    namespace.  There `characters` is the mutant body without the cache,
    so the recursive calls reach the mutant and no algebra's kept
    characters are read or written."""
    source = inspect.getsource(algebras._enumerate_characters)
    assert source.count(old) == 1
    namespace = dict(vars(algebras))
    exec(compile(source.replace(old, new), algebras.__file__, "exec"), namespace)
    body = namespace["_enumerate_characters"]
    namespace["characters"] = lambda A: tuple(body(A))
    return namespace["characters"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("if not any(phi(v) for v in ideal.basis)", ""),
        ("section.column(j)", "quotient_projection(parent.dim, ideal._rows)[1].column(j)"),
    ],
    ids=["no-vanishing-filter", "pull-back-through-projection"],
)
def test_parent_route_oracle_catches_mutants(old, new):
    assert parent_route_mismatches(mutated_characters(old, new))


# -- supports ---------------------------------------------------------------


def test_support_of_zero_is_empty():
    A = make_function_algebra(4)
    assert [phi for phi in characters(A) if phi(zero_vec(4))] == []


def test_support_of_unit_is_everything():
    A = make_function_algebra(4)
    assert len([phi for phi in characters(A) if phi(A.unit)]) == 4


def test_support_of_overlap_partition_element():
    A = make_function_algebra(4)
    chi1 = (sc(1), sc(1), sc(Fraction(9, 25)), sc(0))
    labels = {phi.label for phi in characters(A) if phi(chi1)}
    assert labels == {"ev_1", "ev_2", "ev_3"}


# -- quotients --------------------------------------------------------------


def test_quotient_by_zero_ideal_is_identity():
    A = make_matrix_algebra(2)
    Q, proj, sect = quotient_algebra(A, Subspace(4, []))
    assert Q.dim == 4
    assert check_axioms(Q) == []
    assert (proj @ sect) == Matrix.identity(4)


def test_quotient_of_block_sum_recovers_block():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    ideal = Subspace(13, [unit_vec(13, 4 + k) for k in range(9)])
    Q, proj, _ = quotient_algebra(A, ideal)
    assert Q.dim == 4
    assert check_axioms(Q) == []
    # the quotient multiplies like M_2
    M2 = make_matrix_algebra(2)
    for i in range(4):
        for j in range(4):
            assert Q.table[i][j] == M2.table[i][j]
    assert characters(Q) == ()


def test_ideal_closure_of_commutators_in_m2_is_everything():
    A = make_matrix_algebra(2)
    e12, e21 = basis_of(A, "E_12"), basis_of(A, "E_21")
    c = vec_sub(A.multiply(e12, e21), A.multiply(e21, e12))
    assert two_sided_ideal_closure(A, [c]).dim == 4


# -- moyal surrogate --------------------------------------------------------


def test_moyal_truncation_multiplies_like_matrix_units():
    A = make_moyal_truncation(3)
    assert A.labels[0] == "f_00"
    # a relabelled M_3: every dispatch on the model tag treats it as one
    assert A.model == ("matrix", 3)
    f01 = basis_of(A, "f_01")
    f12 = basis_of(A, "f_12")
    assert A.multiply(f01, f12) == basis_of(A, "f_02")
    assert vec_is_zero(A.multiply(f01, f01))
    assert characters(A) == ()


def test_is_character_guards():
    A = make_function_algebra(2)
    assert is_character(A, (sc(1), sc(0)))
    assert not is_character(A, (sc(0), sc(0)))
    assert not is_character(A, (sc(2), sc(0)))


def test_non_invariant_dual_block_raises_a_typed_error(monkeypatch):
    # the invariance check must not be an assert, which `python -O` strips
    monkeypatch.setattr(character_oracle, "dense_solve", lambda A, b: None)
    with pytest.raises(AlgebraError, match="dual block not invariant"):
        character_oracle.split_common_eigenvalues(make_function_algebra(2))


def test_runaway_minimal_polynomial_raises_a_typed_error(monkeypatch):
    # the CLI turns AlgebraError into exit 2; a bare AssertionError would
    # give a traceback
    monkeypatch.setattr(character_oracle, "dense_solve", lambda A, b: None)
    with pytest.raises(AlgebraError, match="minimal polynomial search exceeded"):
        character_oracle.minimal_polynomial(Matrix.identity(2))


# -- sparse structure constants against the dense oracle -------------------
#
# The builders write the sparse `terms` directly, and `multiply`, `center`,
# the axiom sweep `check_axioms`, the derivation space `derivations` and the
# character oracle's `is_character` read only `terms`.  The dense builders
# and routes they replaced are kept here as oracles.  Each oracle works on
# its own dense table, never on `A.table`, which is derived from `terms`
# and so would make the comparison circular.


def dense_matrix_table(n):
    """M_n on the elementary-matrix basis: E_mk E_pq = delta_kp E_mq."""
    dim = n * n
    table = [[None] * dim for _ in range(dim)]
    for m in range(n):
        for k in range(n):
            for p in range(n):
                for q in range(n):
                    cell = zero_vec(dim)
                    if k == p:
                        cell = unit_vec(dim, m * n + q)
                    table[m * n + k][p * n + q] = cell
    return table


def dense_function_table(points):
    return [
        [unit_vec(points, i) if i == j else zero_vec(points) for j in range(points)]
        for i in range(points)
    ]


def dense_direct_sum_table(left, right):
    a, b = len(left), len(right)
    table = []
    for i in range(a + b):
        row = []
        for j in range(a + b):
            if i < a and j < a:
                row.append(tuple(left[i][j]) + zero_vec(b))
            elif i >= a and j >= a:
                row.append(zero_vec(a) + tuple(right[i - a][j - a]))
            else:
                row.append(zero_vec(a + b))
        table.append(row)
    return table


def dense_quotient_table(table, ideal):
    """Products of lifted basis vectors, projected back: the same
    deterministic section as `quotient_algebra`."""
    chosen, projection, section = quotient(len(table), ideal)
    q = len(chosen)
    lifted = [section.apply(unit_vec(q, i)) for i in range(q)]
    return [
        [projection.apply(dense_multiply(table, lifted[i], lifted[j])) for j in range(q)]
        for i in range(q)
    ]


def dense_multiply(table, u, v):
    """Walk every (i, j, m) cell of the table and skip the zero ones."""
    out = [ZERO] * len(table)
    for i, x in enumerate(u):
        if not x:
            continue
        row = table[i]
        for j, y in enumerate(v):
            if not y:
                continue
            f = x * y
            for m, c in enumerate(row[j]):
                if c:
                    out[m] = out[m] + f * c
    return tuple(out)


def terms_multiply(A, u, v):
    """`StarAlgebra.multiply` one Scalar operation at a time: walk the
    nonzero `terms`, skip zero coordinates, add each f * c into its
    coordinate."""
    if len(u) != A.dim or len(v) != A.dim:
        raise AlgebraError("element length mismatch")
    out = [ZERO] * A.dim
    for x, row in zip(u, A.terms):
        if not x:
            continue
        for j, cell in row:
            y = v[j]
            if not y:
                continue
            f = x * y
            for m, c in cell:
                out[m] = out[m] + f * c
    return tuple(out)


def dense_center(table):
    """Nullspace of the stacked R(b_i) - L(b_i), built with dense_multiply."""
    n = len(table)
    rows = []
    for i in range(n):
        bi = unit_vec(n, i)
        R = DenseMatrix.from_columns(
            [dense_multiply(table, unit_vec(n, j), bi) for j in range(n)], rows=n
        )
        L = DenseMatrix.from_columns(
            [dense_multiply(table, bi, unit_vec(n, j)) for j in range(n)], rows=n
        )
        rows.extend((R - L).entries)
    return Subspace(n, dense_nullspace(DenseMatrix(rows, cols=n)))


def dense_is_character(table, unit, coords):
    """Pair phi with all dim^2 cells of the table."""
    phi = Character(coords, "?")
    if all(not c for c in coords):
        return False
    for i in range(len(table)):
        for j in range(len(table)):
            if phi(table[i][j]) != coords[i] * coords[j]:
                return False
    return unit is None or phi(unit) == ONE


def check_axioms(A):
    """The full associativity/involution/unit sweep, products by
    `multiply`: the (name, witness) failures, empty when every axiom
    holds on all basis triples and pairs."""
    failures = []
    n = A.dim
    for i in range(n):
        ei = unit_vec(n, i)
        for j in range(n):
            ej = unit_vec(n, j)
            left = A.multiply(ei, ej)
            for k in range(n):
                ek = unit_vec(n, k)
                lhs = A.multiply(left, ek)
                rhs = A.multiply(ei, A.multiply(ej, ek))
                if lhs != rhs:
                    failures.append(("associativity", (A.labels[i], A.labels[j], A.labels[k])))
            inv_prod = A.involute(A.multiply(ei, ej))
            prod_inv = A.multiply(A.involute(ej), A.involute(ei))
            if inv_prod != prod_inv:
                failures.append(("involution antihomomorphism", (A.labels[i], A.labels[j])))
        if A.involute(A.involute(ei)) != ei:
            failures.append(("involution involutive", A.labels[i]))
        if A.unit is not None:
            if A.multiply(A.unit, ei) != ei or A.multiply(ei, A.unit) != ei:
                failures.append(("unit", A.labels[i]))
    return failures


def derivations(A):
    """Basis of all linear maps with D(ab) = D(a)b + a D(b).

    The unknown map is an n x n grid D, with D(b_k) = sum over r of
    D[r][k] b_r; Leibniz on every basis pair gives n^3 linear equations.
    Row (i, j, m) is the m-th coordinate of D(b_i b_j) - D(b_i) b_j -
    b_i D(b_j), built from the nonzero structure constants only: each
    c_ij^k enters row (i, j, m) for every m, each c_rj^m row (i, j, m)
    for every i, and each c_ir^m row (i, j, m) for every j.  The rows
    stay sparse, {column: coefficient}, for `nullspace`.  Returns a list
    of matrices spanning the solution space.
    """
    n = A.dim
    equations = {}

    def add(key, col, c):
        coeffs = equations.setdefault(key, {})
        coeffs[col] = coeffs.get(col, ZERO) + c

    for a, row in enumerate(A.terms):
        for b, cell in row:
            for k, c in cell:
                for t in range(n):
                    add((a, b, t), t * n + k, c)
                    add((t, b, k), a * n + t, -c)
                    add((a, t, k), b * n + t, -c)
    rows = [{col: c for col, c in row.items() if c} for row in equations.values()]
    ker = nullspace(rows, n * n)
    return [
        DenseMatrix([[v[r * n + c] for c in range(n)] for r in range(n)]).to_matrix()
        for v in ker
    ]


def dense_check_axioms(A, table):
    """The full associativity/involution/unit sweep, products from the
    table."""
    failures = []
    n = len(table)
    for i in range(n):
        ei = unit_vec(n, i)
        for j in range(n):
            left = table[i][j]
            ej = unit_vec(n, j)
            for k in range(n):
                lhs = dense_multiply(table, left, unit_vec(n, k))
                rhs = dense_multiply(table, ei, table[j][k])
                if lhs != rhs:
                    failures.append(("associativity", (A.labels[i], A.labels[j], A.labels[k])))
            inv_prod = A.involute(dense_multiply(table, ei, ej))
            prod_inv = dense_multiply(table, A.involute(ej), A.involute(ei))
            if inv_prod != prod_inv:
                failures.append(("involution antihomomorphism", (A.labels[i], A.labels[j])))
        if A.involute(A.involute(ei)) != ei:
            failures.append(("involution involutive", A.labels[i]))
        if A.unit is not None:
            if dense_multiply(table, A.unit, ei) != ei or dense_multiply(table, ei, A.unit) != ei:
                failures.append(("unit", A.labels[i]))
    return failures


def dense_derivations(table):
    """Leibniz on every basis pair, one dense row per (i, j, m)."""
    n = len(table)
    rows = []
    for i in range(n):
        for j in range(n):
            cell = table[i][j]
            for m in range(n):
                coeffs = [ZERO] * (n * n)
                for k in range(n):
                    c = cell[k]
                    if c:
                        coeffs[m * n + k] = coeffs[m * n + k] + c
                for r in range(n):
                    t1 = table[r][j][m]
                    if t1:
                        coeffs[r * n + i] = coeffs[r * n + i] - t1
                    t2 = table[i][r][m]
                    if t2:
                        coeffs[r * n + j] = coeffs[r * n + j] - t2
                if any(coeffs):
                    rows.append(tuple(coeffs))
    if not rows:
        ker = [unit_vec(n * n, s) for s in range(n * n)]
    else:
        ker = dense_nullspace(DenseMatrix(rows, cols=n * n))
    return [
        DenseMatrix([[v[r * n + c] for c in range(n)] for r in range(n)]).to_matrix()
        for v in ker
    ]


def nonzero_cells(table):
    """The table in the form of `terms`: nonzero cells, nonzero entries."""
    return tuple(
        tuple(
            (j, tuple((m, c) for m, c in enumerate(cell) if c))
            for j, cell in enumerate(row)
            if any(cell)
        )
        for row in table
    )


def model_algebras():
    """(algebra, oracle table) pairs."""
    M2t, M3t = dense_matrix_table(2), dense_matrix_table(3)
    block_sum = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    block_t = dense_direct_sum_table(M2t, M3t)
    killed = Subspace(13, [unit_vec(13, 4 + k) for k in range(9)])
    F3 = make_function_algebra(3)
    point = Subspace(3, [unit_vec(3, 1)])
    # functions on 2 points in the basis {u, w} with w*w = u/4 (see
    # test_generic_path_on_scaled_function_basis)
    mixed_t = [[(sc(1), sc(0)), (sc(0), sc(1))], [(sc(0), sc(1)), (sc(Fraction(1, 4)), sc(0))]]
    mixed = StarAlgebra(["u", "w"], terms_of(mixed_t), Matrix.identity(2), (sc(1), sc(0)))
    return [
        (make_matrix_algebra(1), dense_matrix_table(1)),
        (make_matrix_algebra(2), M2t),
        (make_matrix_algebra(3), M3t),
        (make_matrix_algebra(4), dense_matrix_table(4)),
        (make_moyal_truncation(2), M2t),
        (make_function_algebra(1), dense_function_table(1)),
        (F3, dense_function_table(3)),
        (make_function_algebra(5), dense_function_table(5)),
        (block_sum, block_t),
        (
            direct_sum(make_function_algebra(2), make_matrix_algebra(2)),
            dense_direct_sum_table(dense_function_table(2), M2t),
        ),
        (quotient_algebra(block_sum, killed)[0], dense_quotient_table(block_t, killed)),
        (quotient_algebra(F3, point)[0], dense_quotient_table(dense_function_table(3), point)),
        (mixed, mixed_t),
    ]


MODELS = model_algebras()


def covering_algebras():
    """(algebra, oracle table) for every chart and overlap of the block
    and four-point coverings of the shipped scenarios."""
    blocks = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    points = make_function_algebra(4)
    cases = [
        (
            blocks,
            dense_direct_sum_table(dense_matrix_table(2), dense_matrix_table(3)),
            [{"type": "blocks", "kill": ["2"]}, {"type": "blocks", "kill": ["1"]}],
        ),
        (
            points,
            dense_function_table(4),
            [
                {"type": "vanishing_on", "points": [1, 2, 3]},
                {"type": "vanishing_on", "points": [3, 4]},
            ],
        ),
    ]
    out = []
    for A, table, decls in cases:
        cov = Covering(A, [ideal_from_declaration(A, decl) for decl in decls])
        for a in range(cov.size):
            out.append((cov.chart(a), dense_quotient_table(table, cov.ideals[a])))
            for b in range(a, cov.size):
                joint = cov.ideals[a].sum(cov.ideals[b])
                out.append((quotient_algebra(A, joint)[0], dense_quotient_table(table, joint)))
    return out


def builder_algebras():
    """(algebra, oracle table) for every model builder over a range of
    sizes, and the covering charts and overlaps."""
    out = [(make_matrix_algebra(n), dense_matrix_table(n)) for n in range(1, 5)]
    out += [(make_moyal_truncation(N), dense_matrix_table(N)) for N in range(1, 6)]
    out += [(make_function_algebra(p), dense_function_table(p)) for p in range(1, 11)]
    out += [
        (
            direct_sum(make_matrix_algebra(2), make_matrix_algebra(3)),
            dense_direct_sum_table(dense_matrix_table(2), dense_matrix_table(3)),
        ),
        (
            direct_sum(make_function_algebra(3), make_moyal_truncation(2)),
            dense_direct_sum_table(dense_function_table(3), dense_matrix_table(2)),
        ),
    ]
    return out + covering_algebras()


def random_scalar():
    return st.builds(
        lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q)),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
    )


def sparse_scalar():
    return st.one_of(st.just(ZERO), st.just(ZERO), random_scalar())


def vectors(n):
    return st.lists(sparse_scalar(), min_size=n, max_size=n).map(tuple)


@st.composite
def random_algebra(draw):
    """Any bilinear product on Q(i)^n, n <= 4, with the identity as the
    involution and sometimes a unit vector: often sparse, sometimes all
    zero, in general not associative.  Draws (algebra, dense table)."""
    n = draw(st.integers(1, 4))
    cells = draw(st.one_of(
        st.just([ZERO] * n ** 3),
        st.lists(sparse_scalar(), min_size=n ** 3, max_size=n ** 3),
    ))
    table = [
        [tuple(cells[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n)]
        for i in range(n)
    ]
    unit = draw(st.one_of(st.none(), vectors(n)))
    A = StarAlgebra(["b%d" % i for i in range(n)], terms_of(table), Matrix.identity(n), unit)
    return A, table


def test_terms_list_exactly_the_nonzero_cells():
    for A, table in builder_algebras() + MODELS:
        assert A.terms == nonzero_cells(table), A
        assert A.table == tuple(tuple(tuple(cell) for cell in row) for row in table)
    M3 = make_matrix_algebra(3)
    assert sum(len(cell) for row in M3.terms for _, cell in row) == 27


@given(random_algebra(), st.data())
@settings(max_examples=150, deadline=None)
def test_multiply_matches_dense_reference_on_random_tables(case, data):
    A, table = case
    u = data.draw(vectors(A.dim))
    v = data.draw(vectors(A.dim))
    assert A.multiply(u, v) == dense_multiply(table, u, v)


@given(st.sampled_from(MODELS), st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_matches_dense_reference_on_models(case, data):
    A, table = case
    u = data.draw(vectors(A.dim))
    v = data.draw(vectors(A.dim))
    assert A.multiply(u, v) == dense_multiply(table, u, v)


def test_multiply_matches_dense_reference_on_model_basis_pairs():
    for A, table in MODELS:
        for i in range(A.dim):
            for j in range(A.dim):
                ei, ej = unit_vec(A.dim, i), unit_vec(A.dim, j)
                assert A.multiply(ei, ej) == dense_multiply(table, ei, ej) == tuple(table[i][j])


def test_center_matches_dense_reference_on_models():
    for A, table in MODELS:
        assert center(A) == dense_center(table), A


@given(random_algebra())
@settings(max_examples=80, deadline=None)
def test_center_matches_dense_reference_on_random_tables(case):
    A, table = case
    assert center(A) == dense_center(table)


def test_is_character_matches_dense_reference_on_models():
    for A, table in MODELS:
        candidates = [phi.coords for phi in generic_characters(A)]
        candidates += [unit_vec(A.dim, i) for i in range(A.dim)]
        candidates += [zero_vec(A.dim), tuple(ONE for _ in range(A.dim))]
        if A.labels == ("u", "w"):
            candidates += [(sc(1), sc(Fraction(1, 2))), (sc(1), sc(Fraction(-1, 2))), (sc(1), sc(1))]
        for coords in candidates:
            assert is_character(A, coords) == dense_is_character(table, A.unit, coords)


@given(random_algebra(), st.data())
@settings(max_examples=150, deadline=None)
def test_is_character_matches_dense_reference_on_random_tables(case, data):
    A, table = case
    coords = data.draw(vectors(A.dim))
    assert is_character(A, coords) == dense_is_character(table, A.unit, coords)


def test_check_axioms_matches_dense_reference_on_models():
    for A, table in MODELS:
        assert check_axioms(A) == dense_check_axioms(A, table) == [], A


@given(random_algebra())
@settings(max_examples=80, deadline=None)
def test_check_axioms_matches_dense_reference_on_random_tables(case):
    A, table = case
    assert check_axioms(A) == dense_check_axioms(A, table)


def test_derivations_match_dense_reference_on_models():
    for A, table in MODELS:
        assert derivations(A) == dense_derivations(table), A


@given(random_algebra())
@settings(max_examples=60, deadline=None)
def test_derivations_match_dense_reference_on_random_tables(case):
    A, table = case
    assert derivations(A) == dense_derivations(table)


def commutator_witness(A, v):
    """The first basis element whose commutator with v is nonzero, from
    two `multiply` calls per basis element: the route that the one pass
    over the structure constants replaces."""
    for i in range(A.dim):
        e = unit_vec(A.dim, i)
        comm = vec_sub(A.multiply(v, e), A.multiply(e, v))
        if not vec_is_zero(comm):
            return (A.labels[i], comm)
    return None


def witness_probes(A):
    """Basis vectors, the unit, the center's basis, their sums with a basis
    vector, and a dense vector."""
    probes = [unit_vec(A.dim, i) for i in range(A.dim)]
    probes += [zero_vec(A.dim), tuple(Scalar(i + 1, i % 3 - 1) for i in range(A.dim))]
    if A.unit is not None:
        probes.append(A.unit)
    for z in center(A).basis:
        probes += [z, tuple(a + b for a, b in zip(z, unit_vec(A.dim, A.dim - 1)))]
    return probes


def test_noncentral_witness_matches_the_commutator_route_on_models():
    for A, _ in MODELS:
        for v in witness_probes(A):
            assert noncentral_witness(A, v) == commutator_witness(A, v), A
        for v in (zero_vec(A.dim + 1), zero_vec(A.dim - 1)):
            with pytest.raises(AlgebraError):
                commutator_witness(A, v)
            with pytest.raises(AlgebraError):
                noncentral_witness(A, v)
    # the models include noncommutative algebras with witnesses
    M2 = make_matrix_algebra(2)
    assert noncentral_witness(M2, unit_vec(4, 1)) == (
        "E_11", (ZERO, -ONE, ZERO, ZERO)
    )


@given(random_algebra(), st.data())
@settings(max_examples=150, deadline=None)
def test_noncentral_witness_matches_the_commutator_route_on_random_tables(case, data):
    A, _ = case
    v = data.draw(vectors(A.dim))
    assert noncentral_witness(A, v) == commutator_witness(A, v)


# -- sparse centers, characters and their order -------------------------------
#
# `center` builds sparse equations and solves each algebra's center once,
# a character reads only its nonzero values, and the parent route sorts
# characters by integers over a common denominator.  The routes they
# replaced are kept here as the oracles.


def dense_equation_center(A):
    """`center` from the dense n^2 x n equation matrix and its dense
    null space."""
    n = A.dim
    if not n:
        return Subspace(0, [])
    rows = [[ZERO] * n for _ in range(n * n)]
    for k, row in enumerate(A.terms):
        for j, cell in row:
            for m, c in cell:
                zb = rows[j * n + m]
                zb[k] = zb[k] + c
                bz = rows[k * n + m]
                bz[j] = bz[j] - c
    equations = tuple(tuple(row) for row in rows if any(row))
    return Subspace(n, dense_nullspace(DenseMatrix(equations, cols=n)))


def center_algebras():
    """M_1-M_5, F_1-F_6, Moyal_1-3, sums, quotients (among them the
    covering charts and overlaps) and the zero-dimensional algebra."""
    out = [make_matrix_algebra(n) for n in range(1, 6)]
    out += [make_function_algebra(p) for p in range(1, 7)]
    out += [make_moyal_truncation(N) for N in range(1, 4)]
    out += [A for A, _ in MODELS + covering_algebras()]
    M2 = make_matrix_algebra(2)
    out.append(quotient_algebra(M2, Subspace(4, [unit_vec(4, i) for i in range(4)]))[0])
    return out


def test_center_matches_the_dense_equation_route():
    dims = set()
    for A in center_algebras():
        assert center(A) == dense_equation_center(A), A
        dims.add(A.dim)
    assert 0 in dims and 25 in dims


@given(random_algebra())
@settings(max_examples=80, deadline=None)
def test_center_matches_the_dense_equation_route_on_random_tables(case):
    A, _ = case
    assert center(A) == dense_equation_center(A)


def test_center_is_solved_once_per_algebra(monkeypatch):
    solves = []
    real = algebras.nullspace
    monkeypatch.setattr(
        algebras, "nullspace", lambda *args: solves.append(1) or real(*args)
    )
    A = make_matrix_algebra(3)
    first = center(A)
    assert center(A) is first and len(solves) == 1
    fresh = make_matrix_algebra(3)
    assert center(fresh) == first and center(fresh) is not first
    assert len(solves) == 2


def zip_character_value(phi, v):
    """A character's value through `zip` over every coordinate."""
    out = ZERO
    for c, x in zip(phi.coords, v):
        if c and x:
            out = out + c * x
    return out


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
@settings(max_examples=150, deadline=None)
def test_character_matches_the_zip_route(case):
    coords, v = case
    phi = Character(coords, "?")
    assert phi(v) == zip_character_value(phi, v)


def test_character_rejects_a_vector_of_the_wrong_length():
    phi = Character((sc(1), sc(0), sc(2)), "?")
    for v in ((sc(1), sc(1)), (sc(1), sc(1), sc(1), sc(1)), ()):
        with pytest.raises(AlgebraError, match="element length mismatch"):
            phi(v)
    # the zip route truncated and answered a wrong value
    assert zip_character_value(phi, (sc(1), sc(1))) == ONE
    assert phi((sc(1), sc(1), sc(1))) == sc(3)


def gaussian_rows():
    """Rows of equal length over a few small denominators, with negative
    parts, and rows that share equal values written over other
    denominators elsewhere in the row."""
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6]))
    value = st.builds(Scalar, part, part)
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(value, min_size=n, max_size=n).map(tuple), max_size=6
        )
    )


@given(gaussian_rows(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_value_order_matches_the_fraction_key(rows, rng):
    rows = rows + rows[:2]  # equal rows too
    rng.shuffle(rows)
    assert algebras._sorted_by_value(rows) == sorted(
        rows, key=character_oracle.tuple_sort_key
    )


def test_value_order_on_equal_values_over_different_denominators():
    half, third, sixth = sc("1/2"), sc("1/3"), sc("1/6")
    rows = [
        (half, Scalar(0, -1)),
        (Scalar(Fraction(3, 6), Fraction(-1, 3)), third),
        (sc("-1/2"), sixth),
        (half, Scalar(Fraction(-5, 6), 1)),
        (sc(-1), sc(7)),
    ]
    want = sorted(rows, key=character_oracle.tuple_sort_key)
    assert algebras._sorted_by_value(rows) == want == [
        rows[4], rows[2], rows[1], rows[3], rows[0]
    ]
    assert algebras._sorted_by_value([]) == []


# -- the constructor ---------------------------------------------------------


@pytest.mark.parametrize(
    "terms, involution, unit, message",
    [
        ([()], Matrix.identity(2), None, "one row per basis element"),
        ([(), (), ()], Matrix.identity(2), None, "one row per basis element"),
        ([((2, ((0, ONE),)),), ()], Matrix.identity(2), None, "index out of range"),
        ([((-1, ((0, ONE),)),), ()], Matrix.identity(2), None, "index out of range"),
        ([((0, ((2, ONE),)),), ()], Matrix.identity(2), None, "index out of range"),
        ([(), ((1, ((-1, ONE),)),)], Matrix.identity(2), None, "index out of range"),
        ([(), ()], Matrix.identity(3), None, "involution matrix shape"),
        ([(), ()], Matrix.zero(2, 3), None, "involution matrix shape"),
        ([(), ()], Matrix.identity(2), (sc(1), sc(0), sc(0)), "unit vector has wrong length"),
    ],
    ids=[
        "too-few-rows", "too-many-rows", "column-past-end", "negative-column",
        "coordinate-past-end", "negative-coordinate", "involution-3x3",
        "involution-2x3", "unit-length-3",
    ],
)
def test_constructor_rejects_malformed_structure_constants(terms, involution, unit, message):
    with pytest.raises(AlgebraError, match=message):
        StarAlgebra(["a", "b"], terms, involution, unit)


def test_constructor_keeps_only_the_nonzero_cells():
    A = StarAlgebra(
        ["a", "b"],
        [
            ((0, ((0, 1), (1, 0))), (1, ((0, ZERO), (1, 0)))),
            ((0, ()), (1, ((0, 0), (1, Fraction(1, 2))))),
        ],
        Matrix.identity(2),
        None,
    )
    assert A.terms == (((0, ((0, ONE),)),), ((1, ((1, sc("1/2")),)),))


# -- exact roots over Q(i) against the sympy factorization -----------------
#
# The character oracle's `linear_roots` finds roots by the rational root
# theorem over Z[i]; the sympy `factor_list` route it replaced is kept
# here to check it.


def sympy_linear_roots(coeffs):
    """Roots from a factorization over QQ_I; raise UnsupportedCharacters
    on an irreducible factor of degree above 1."""
    import sympy

    t = sympy.Symbol("t")
    expr = sum(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * t ** s
        for s, c in enumerate(coeffs)
    )
    roots = []
    for factor, _multiplicity in sympy.Poly(expr, t, domain="QQ_I").factor_list()[1]:
        if factor.degree() > 1:
            raise UnsupportedCharacters("irreducible factor of degree %d" % factor.degree())
        a, b = factor.all_coeffs()
        re, im = sympy.together(-b / a).as_real_imag()
        roots.append(Scalar(Fraction(str(re)), Fraction(str(im))))
    return roots


def poly_product(*factors):
    """Product of low-to-high coefficient lists."""
    out = [ONE]
    for f in factors:
        prod = [ZERO] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] = prod[i + j] + x * y
        out = prod
    return out


def root_set_or_raise(finder, coeffs):
    try:
        roots = finder(coeffs)
    except UnsupportedCharacters:
        return "raises"
    assert len(roots) == len(set(roots))
    return set(roots)


# t^2 - 2, t^2 - 3, t^2 + t + 1, t^2 + i, t^3 - 2: no root in Q(i)
IRREDUCIBLE = [
    [sc(-2), ZERO, ONE], [sc(-3), ZERO, ONE], [ONE, ONE, ONE],
    [Scalar(0, 1), ZERO, ONE], [sc(-2), ZERO, ZERO, ONE],
]


def gaussian_root():
    return st.one_of(
        st.just(ZERO),
        st.builds(
            lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q)),
            st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6),
        ),
    )


def split_polynomial():
    """A nonzero multiple of a product of Gaussian-rational linear factors
    of multiplicity 1-3, sometimes times a factor with no root in Q(i):
    (coefficients, the set of roots or "raises")."""
    return st.builds(
        lambda roots, irreducible, lead: (
            [lead * c for c in poly_product(
                *[[-r, ONE] for r, mult in roots for _ in range(mult)], *irreducible
            )],
            "raises" if irreducible else {r for r, _ in roots},
        ),
        st.lists(st.tuples(gaussian_root(), st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(st.sampled_from(IRREDUCIBLE), max_size=1),
        random_scalar().filter(bool),
    )


@given(split_polynomial())
@settings(max_examples=150, deadline=None)
def test_linear_roots_find_exactly_the_constructed_roots(case):
    coeffs, want = case
    assert root_set_or_raise(character_oracle.linear_roots, coeffs) == want


@given(split_polynomial())
@settings(max_examples=25, deadline=None)
def test_linear_roots_match_sympy_factorization(case):
    coeffs, _ = case
    want = root_set_or_raise(sympy_linear_roots, coeffs)
    assert root_set_or_raise(character_oracle.linear_roots, coeffs) == want


@pytest.mark.parametrize(
    "factors, want",
    [
        ([[ONE, ZERO, ONE]], {Scalar(0, 1), Scalar(0, -1)}),  # t^2 + 1
        ([[sc("-1/2"), ONE]] * 3 + [[Scalar(0, 1), ONE]], {sc("1/2"), Scalar(0, -1)}),
        ([[ZERO, ONE]] * 3 + [[sc(-2), ONE]], {ZERO, sc(2)}),  # t^3 (t - 2)
        ([[sc(-2), ZERO, ONE], [sc(-3), ZERO, ONE]], "raises"),
    ],
    ids=["t^2+1", "repeated-root", "root-0-with-multiplicity", "(t^2-2)(t^2-3)"],
)
def test_linear_roots_named_cases(factors, want):
    coeffs = poly_product(*factors)
    assert root_set_or_raise(character_oracle.linear_roots, coeffs) == want
    assert root_set_or_raise(sympy_linear_roots, coeffs) == want


def test_rootless_factor_is_named_by_its_degree():
    coeffs = poly_product([sc(-2), ZERO, ONE], [sc(-3), ZERO, ONE], [sc(-1), ONE])
    with pytest.raises(
        UnsupportedCharacters, match=r"a factor of degree 4 has no root in Q\(i\)"
    ):
        character_oracle.linear_roots(coeffs)
