"""Structure-constant algebras: models, axioms, centers, derivations,
characters, supports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent import algebras
from nctangent.algebras import (
    CHARACTER_DIM_BOUND,
    AlgebraError,
    Character,
    StarAlgebra,
    UnsupportedCharacters,
    center,
    characters,
    derivations,
    direct_sum,
    is_central,
    is_character,
    make_function_algebra,
    make_matrix_algebra,
    make_moyal_truncation,
    noncentral_witness,
    quotient_algebra,
    support,
    two_sided_ideal_closure,
)
from nctangent.covering import Covering, ideal_from_declaration
from nctangent.scalars import (
    Matrix,
    ONE,
    QuotientSpace,
    Scalar,
    Subspace,
    ZERO,
    nullspace,
    sc,
    unit_vec,
    vec,
    vec_is_zero,
    zero_vec,
)
from nctangent.tangent import leibniz_failures


def terms_of(table):
    """The sparse rows of a dense table, zeros included: the constructor
    drops them."""
    return [tuple((j, tuple(enumerate(cell))) for j, cell in enumerate(row)) for row in table]


def label_index(A, label):
    return A.labels.index(label)


def basis_of(A, label):
    return unit_vec(A.dim, label_index(A, label))


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
    assert make_matrix_algebra(3).check_axioms() == []
    assert make_matrix_algebra(2).check_axioms() == []


def test_matrix_involution_is_conjugate_transpose():
    A = make_matrix_algebra(2)
    v = vec(sc(1, 1), sc(0, 2), 0, 0)  # (1+i)E_11 + 2i E_12
    w = A.involute(v)
    assert w[label_index(A, "E_11")] == sc(1, -1)
    assert w[label_index(A, "E_21")] == sc(0, -2)


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
    assert A.check_axioms() == []


def test_function_algebra_characters_are_point_evaluations():
    A = make_function_algebra(4)
    chars = characters(A)
    assert len(chars) == 4
    for p, phi in enumerate(chars):
        assert phi(unit_vec(4, p)) == ONE
        assert phi(A.unit) == ONE


def test_characters_separate_commutative_elements():
    A = make_function_algebra(3)
    a = vec(1, 2, 3)
    b = vec(1, 2, 4)
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
    assert A.check_axioms() == []


def test_direct_sum_characters_union():
    A = direct_sum(make_matrix_algebra(1), make_function_algebra(2))
    assert len(characters(A)) == 3
    B = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    assert characters(B) == []


# -- centers ----------------------------------------------------------------


def test_center_of_simple_matrix_algebra():
    A = make_matrix_algebra(3)
    Z = center(A)
    assert Z.dim == 1
    assert Z.contains(A.unit)


def test_center_of_commutative_algebra_is_everything():
    A = make_function_algebra(4)
    assert center(A).dim == 4


def test_center_of_block_sum_is_two_dimensional():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    Z = center(A)
    assert Z.dim == 2
    block1 = vec(1, 0, 0, 1, *([0] * 9))
    block2 = zero_vec(4) + tuple(make_matrix_algebra(3).unit)
    assert Z.contains(block1) and Z.contains(block2)
    assert is_central(A, block1)
    assert not is_central(A, unit_vec(13, 1))


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


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=25, deadline=None)
def test_ad_m_is_always_a_derivation(a, b, c, d):
    A = make_matrix_algebra(2)
    m = vec(a, b, c, d)
    ad = A.left_mult_matrix(m) - A.right_mult_matrix(m)
    assert leibniz_failures(A, ad) == []


# -- characters via the generic path ---------------------------------------


def test_generic_path_confirms_matrix_blocks_empty():
    # strip the model tag so the abelianization route is exercised
    A4 = make_matrix_algebra(4)
    stripped = StarAlgebra(A4.labels, A4.terms, A4.involution, A4.unit, model=None)
    assert characters(stripped) == []


def test_generic_path_agrees_with_function_model():
    F = make_function_algebra(3)
    stripped = StarAlgebra(F.labels, F.terms, F.involution, F.unit, model=None)
    got = {phi.coords for phi in characters(stripped)}
    want = {phi.coords for phi in characters(F)}
    assert got == want


def test_generic_path_on_block_sum_empty():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    stripped = StarAlgebra(A.labels, A.terms, A.involution, A.unit, model=None)
    assert characters(stripped) == []


def test_generic_path_on_scaled_function_basis():
    # same algebra as functions on 2 points, but in a mixed basis, so the
    # eigen-splitting actually has to work
    F = make_function_algebra(2)
    u = vec(1, 1)
    w = vec(Fraction(1, 2), Fraction(-1, 2))
    # basis {u, w}: u*u = u, u*w = w, w*w = u/4
    table = [
        [vec(1, 0), vec(0, 1)],
        [vec(0, 1), vec(Fraction(1, 4), 0)],
    ]
    B = StarAlgebra(["u", "w"], terms_of(table), Matrix.identity(2), vec(1, 0), model=None)
    assert B.check_axioms() == []
    chars = sorted(characters(B), key=lambda p: str(p.coords))
    assert len(chars) == 2
    values = {tuple(str(c) for c in phi.coords) for phi in chars}
    assert values == {("1", "1/2"), ("1", "-1/2")}


def test_generic_path_raises_on_irrational_values():
    # Q(sqrt 2) as a two-dimensional commutative algebra: t*t = 2
    table = [
        [vec(1, 0), vec(0, 1)],
        [vec(0, 1), vec(2, 0)],
    ]
    B = StarAlgebra(["one", "t"], terms_of(table), Matrix.identity(2), vec(1, 0), model=None)
    with pytest.raises(
        UnsupportedCharacters,
        match=r"not Gaussian rational \(a factor of degree 2 has no root in Q\(i\)\)",
    ):
        characters(B)


def test_generic_path_finds_gaussian_character_values():
    # C[t]/(t^2 + 1): t*t = -1, so the two characters send t to i and -i;
    # a root finder over Q alone would find none
    table = [
        [vec(1, 0), vec(0, 1)],
        [vec(0, 1), vec(-1, 0)],
    ]
    B = StarAlgebra(["one", "t"], terms_of(table), Matrix.identity(2), vec(1, 0), model=None)
    assert B.check_axioms() == []
    got = {phi.coords for phi in characters(B)}
    assert got == {(ONE, Scalar(0, 1)), (ONE, Scalar(0, -1))}


def test_generic_path_finds_a_large_prime_character_value():
    # t*t = c*t: the characters send t to 0 and to c.  Once the root 0 is
    # divided out, t - c is solved directly, without factoring c's norm.
    c = 10**12 + 39  # prime
    table = [
        [vec(1, 0), vec(0, 1)],
        [vec(0, 1), vec(0, c)],
    ]
    B = StarAlgebra(["one", "t"], terms_of(table), Matrix.identity(2), vec(1, 0), model=None)
    assert B.check_axioms() == []
    got = {phi.coords for phi in characters(B)}
    assert got == {(ONE, ZERO), (ONE, sc(c))}


def test_character_dimension_bound():
    # one past the bound, and far past it; the model-aware path has no bound
    F = make_function_algebra(CHARACTER_DIM_BOUND + 1)
    assert len(characters(F)) == CHARACTER_DIM_BOUND + 1
    A = make_matrix_algebra(9)  # dim 81 > 64
    for B in (F, A):
        stripped = StarAlgebra(B.labels, B.terms, B.involution, B.unit, model=None)
        with pytest.raises(UnsupportedCharacters, match="limited to dimension 64$"):
            characters(stripped)


# -- supports ---------------------------------------------------------------


def test_support_of_zero_is_empty():
    A = make_function_algebra(4)
    assert support(zero_vec(4), A) == []


def test_support_of_unit_is_everything():
    A = make_function_algebra(4)
    assert len(support(A.unit, A)) == 4


def test_support_of_overlap_partition_element():
    A = make_function_algebra(4)
    chi1 = vec(1, 1, Fraction(9, 25), 0)
    labels = {phi.label for phi in support(chi1, A)}
    assert labels == {"ev_1", "ev_2", "ev_3"}


# -- quotients --------------------------------------------------------------


def test_quotient_by_zero_ideal_is_identity():
    A = make_matrix_algebra(2)
    Q, proj, sect = quotient_algebra(A, Subspace(4, []))
    assert Q.dim == 4
    assert Q.check_axioms() == []
    assert (proj @ sect) == Matrix.identity(4)


def test_quotient_of_block_sum_recovers_block():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    ideal = Subspace(13, [unit_vec(13, 4 + k) for k in range(9)])
    Q, proj, _ = quotient_algebra(A, ideal)
    assert Q.dim == 4
    assert Q.check_axioms() == []
    # the quotient multiplies like M_2
    M2 = make_matrix_algebra(2)
    for i in range(4):
        for j in range(4):
            assert Q.table[i][j] == M2.table[i][j]
    assert characters(Q) == []


def test_ideal_closure_of_commutators_in_m2_is_everything():
    A = make_matrix_algebra(2)
    c = A.commutator(basis_of(A, "E_12"), basis_of(A, "E_21"))
    assert two_sided_ideal_closure(A, [c]).dim == 4


# -- moyal surrogate --------------------------------------------------------


def test_moyal_truncation_multiplies_like_matrix_units():
    A = make_moyal_truncation(3)
    assert A.labels[0] == "f_00"
    f01 = basis_of(A, "f_01")
    f12 = basis_of(A, "f_12")
    assert A.multiply(f01, f12) == basis_of(A, "f_02")
    assert vec_is_zero(A.multiply(f01, f01))
    assert characters(A) == []


def test_is_character_guards():
    A = make_function_algebra(2)
    assert is_character(A, vec(1, 0))
    assert not is_character(A, vec(0, 0))
    assert not is_character(A, vec(2, 0))


def test_non_invariant_dual_block_raises_a_typed_error(monkeypatch):
    # the invariance check must not be an assert, which `python -O` strips
    monkeypatch.setattr(algebras, "solve_linear", lambda A, b: None)
    with pytest.raises(AlgebraError, match="dual block not invariant"):
        algebras._split_common_eigenvalues(make_function_algebra(2))


def test_runaway_minimal_polynomial_raises_a_typed_error(monkeypatch):
    # the CLI turns AlgebraError into exit 2; a bare AssertionError would
    # give a traceback
    monkeypatch.setattr(algebras, "solve_linear", lambda A, b: None)
    with pytest.raises(AlgebraError, match="minimal polynomial search exceeded"):
        algebras._minimal_polynomial(Matrix.identity(2))


# -- sparse structure constants against the dense oracle -------------------
#
# The builders write the sparse `terms` directly, and `multiply`, `center`,
# `is_character`, `check_axioms` and `derivations` read only `terms`.  The
# dense builders and routes they replaced are kept here as oracles.  Each
# oracle works on its own dense table, never on `A.table`, which is
# derived from `terms` and so would make the comparison circular.


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
    Q = QuotientSpace(len(table), ideal)
    lifted = [Q.lift(unit_vec(Q.dim, i)) for i in range(Q.dim)]
    return [
        [Q.project(dense_multiply(table, lifted[i], lifted[j])) for j in range(Q.dim)]
        for i in range(Q.dim)
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


def dense_center(table):
    """Nullspace of the stacked R(b_i) - L(b_i), built with dense_multiply."""
    n = len(table)
    rows = []
    for i in range(n):
        bi = unit_vec(n, i)
        R = Matrix.from_columns([dense_multiply(table, unit_vec(n, j), bi) for j in range(n)], rows=n)
        L = Matrix.from_columns([dense_multiply(table, bi, unit_vec(n, j)) for j in range(n)], rows=n)
        rows.extend((R - L).entries)
    return Subspace(n, nullspace(Matrix(rows, cols=n)))


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
        ker = nullspace(Matrix(rows, cols=n * n))
    return [Matrix([[v[r * n + c] for c in range(n)] for r in range(n)]) for v in ker]


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
    mixed_t = [[vec(1, 0), vec(0, 1)], [vec(0, 1), vec(Fraction(1, 4), 0)]]
    mixed = StarAlgebra(["u", "w"], terms_of(mixed_t), Matrix.identity(2), vec(1, 0))
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
                out.append((cov.overlap_algebra(a, b), dense_quotient_table(table, joint)))
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
        candidates = [phi.coords for phi in characters(A)]
        candidates += [unit_vec(A.dim, i) for i in range(A.dim)]
        candidates += [zero_vec(A.dim), tuple(ONE for _ in range(A.dim))]
        if A.labels == ("u", "w"):
            candidates += [vec(1, Fraction(1, 2)), vec(1, Fraction(-1, 2)), vec(1, 1)]
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
        assert A.check_axioms() == dense_check_axioms(A, table) == [], A


@given(random_algebra())
@settings(max_examples=80, deadline=None)
def test_check_axioms_matches_dense_reference_on_random_tables(case):
    A, table = case
    assert A.check_axioms() == dense_check_axioms(A, table)


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
        comm = A.commutator(v, unit_vec(A.dim, i))
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
        ([(), ()], Matrix.identity(2), vec(1, 0, 0), "unit vector has wrong length"),
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
# `_linear_roots` finds roots by the rational root theorem over Z[i]; the
# sympy `factor_list` route it replaced is kept here only as the oracle.


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
    assert root_set_or_raise(algebras._linear_roots, coeffs) == want


@given(split_polynomial())
@settings(max_examples=25, deadline=None)
def test_linear_roots_match_sympy_factorization(case):
    coeffs, _ = case
    want = root_set_or_raise(sympy_linear_roots, coeffs)
    assert root_set_or_raise(algebras._linear_roots, coeffs) == want


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
    assert root_set_or_raise(algebras._linear_roots, coeffs) == want
    assert root_set_or_raise(sympy_linear_roots, coeffs) == want


def test_rootless_factor_is_named_by_its_degree():
    coeffs = poly_product([sc(-2), ZERO, ONE], [sc(-3), ZERO, ONE], [sc(-1), ONE])
    with pytest.raises(
        UnsupportedCharacters, match=r"a factor of degree 4 has no root in Q\(i\)"
    ):
        algebras._linear_roots(coeffs)
