import inspect
import random
from fractions import Fraction

import pytest

from nctangent.algebras import (
    AlgebraError,
    StarAlgebra,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    quotient_algebra,
)
from nctangent import tangent
from nctangent.covering import Covering, ideal_from_declaration
from nctangent.partition import Partition
from nctangent.scalars import (
    Matrix,
    Scalar,
    Subspace,
    Scalar as sc,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from nctangent.tangent import (
    ActionAssignment,
    GlobalDerivation,
    LocalDerivation,
    NonCentralCoefficient,
    bracket,
    canonical_generator_vectors,
    canonical_inner_model,
    decompose,
    glue,
    leibniz_failures,
    project_global,
    restrict,
    verify_action,
)

from dense_matrix import DenseMatrix
from seeded import right_mult_matrix


def unit_scaled(A, value):
    return vec_scale(Scalar.promote(value), A.unit)


def block_setup(kappa=Fraction(1)):
    """M_2 + M_3 with block covering, block-unit partition, canonical
    chart actions for d = 1."""
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    block1 = ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]})
    block2 = ideal_from_declaration(A, {"type": "blocks", "kill": ["2"]})
    cov = Covering(A, [block2, block1])
    u1 = tuple(
        vec_add(A.basis_vector(0), A.basis_vector(3))
    )
    u2 = tuple(
        vec_add(vec_add(A.basis_vector(4), A.basis_vector(8)), A.basis_vector(12))
    )
    P = Partition.from_zetas(A, [u1, u2])
    assigns = [
        canonical_inner_model(2, 1, kappa, algebra=cov.chart(0)),
        canonical_inner_model(3, 1, kappa, algebra=cov.chart(1)),
    ]
    return A, cov, P, assigns


def test_canonical_model_m2():
    assign = canonical_inner_model(2, 1, Fraction(1, 2))
    assert verify_action(assign) == []
    A = assign.algebra
    # D_0(E_12) = (i/kappa) E_12
    got = assign.operators[0].apply(A.basis_vector(1))
    assert got == vec_scale(sc(0, 2), A.basis_vector(1))


def test_canonical_model_m3_d2():
    assign = canonical_inner_model(3, 2, 1)
    assert verify_action(assign) == []
    D1, D2 = assign.operators[1], assign.operators[2]
    assert (D1 @ D2 - D2 @ D1).is_zero()


def test_canonical_model_needs_room():
    with pytest.raises(ValueError):
        canonical_inner_model(2, 2, 1)


def test_verify_action_detects_scaling():
    assign = canonical_inner_model(2, 1, 1)
    bad = ActionAssignment(
        assign.algebra,
        1,
        1,
        [assign.operators[0].scale(Scalar(2)), assign.operators[1]],
    )
    failures = verify_action(bad)
    assert ("bracket", (0, 1)) in failures
    # scaled commutator action still obeys Leibniz
    assert all(law != "leibniz" for law, _ in failures)


def test_zero_action_is_valid():
    A = make_matrix_algebra(2)
    Z = Matrix.zero(A.dim, A.dim)
    assert verify_action(ActionAssignment(A, 1, 1, [Z, Z])) == []


def test_local_derivation_apply():
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    X = LocalDerivation(assign, [A.unit, zero_vec(A.dim)])
    a = A.basis_vector(1)
    assert X.apply(a) == vec_scale(sc(0, 1), a)
    Y = LocalDerivation(assign, [A.unit, A.unit])
    want = vec_add(
        assign.operators[0].apply(a), assign.operators[1].apply(a)
    )
    assert Y.apply(a) == want
    assert Y.as_matrix().apply(a) == want


def test_non_central_coefficient_rejected():
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    with pytest.raises(NonCentralCoefficient) as err:
        LocalDerivation(assign, [A.basis_vector(0), zero_vec(A.dim)])
    assert err.value.witness is not None
    # the unchecked constructor lets it through for negative controls
    X = LocalDerivation(
        assign, [A.basis_vector(0), zero_vec(A.dim)], check=False
    )
    assert X.coefficients[0] == A.basis_vector(0)


def sum_model_assignment(kappa=Fraction(1)):
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(2))
    base = canonical_generator_vectors(2, 1, kappa)
    gens = [tuple(g) + tuple(g) for g in base]
    return ActionAssignment.from_inner(A, 1, kappa, gens)


def test_blockwise_central_scaling():
    assign = sum_model_assignment()
    A = assign.algebra
    assert verify_action(assign) == []
    z = vec_add(
        vec_scale(Scalar(2), vec_add(A.basis_vector(0), A.basis_vector(3))),
        vec_scale(Scalar(3), vec_add(A.basis_vector(4), A.basis_vector(7))),
    )
    X = LocalDerivation(assign, [z, zero_vec(A.dim)])
    e12_first = A.basis_vector(1)
    e12_second = A.basis_vector(5)
    assert X.apply(e12_first) == vec_scale(sc(0, 2), e12_first)
    assert X.apply(e12_second) == vec_scale(sc(0, 3), e12_second)


def test_bracket_constant_coefficients():
    assign = canonical_inner_model(2, 1, Fraction(2))
    A = assign.algebra
    X = LocalDerivation(assign, [A.unit, zero_vec(A.dim)])
    Y = LocalDerivation(assign, [zero_vec(A.dim), A.unit])
    B = bracket(X, Y)
    # only the structure-constant term survives: (i/kappa) in the
    # spatial slot
    assert B.coefficients[0] == zero_vec(A.dim)
    assert B.coefficients[1] == vec_scale(sc(0, Fraction(1, 2)), A.unit)
    assert bracket(X, X).as_matrix().is_zero()


def test_bracket_matches_operator_commutator():
    rng = random.Random(17)
    assign = sum_model_assignment(Fraction(1, 3))
    A = assign.algebra
    unit1 = vec_add(A.basis_vector(0), A.basis_vector(3))
    unit2 = vec_add(A.basis_vector(4), A.basis_vector(7))

    def random_central():
        out = zero_vec(A.dim)
        for u in (unit1, unit2):
            c = Scalar(
                Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            )
            out = vec_add(out, vec_scale(c, u))
        return out

    for _ in range(6):
        X = LocalDerivation(assign, [random_central(), random_central()])
        Y = LocalDerivation(assign, [random_central(), random_central()])
        B = bracket(X, Y)
        Xm, Ym = X.as_matrix(), Y.as_matrix()
        assert Xm @ Ym - Ym @ Xm == B.as_matrix()
        assert leibniz_failures(A, B.as_matrix()) == []


def test_bracket_noncentral_mismatch():
    # deliberately non-central, non-commuting coefficients break the
    # coefficient formula: the operator commutator is the truth
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    X = LocalDerivation(
        assign, [A.basis_vector(1), zero_vec(A.dim)], check=False
    )
    Y = LocalDerivation(
        assign, [A.basis_vector(2), zero_vec(A.dim)], check=False
    )
    B = bracket(X, Y)
    Xm, Ym = X.as_matrix(), Y.as_matrix()
    assert Xm @ Ym - Ym @ Xm != B.as_matrix()


def test_glue_block_model():
    A, cov, P, assigns = block_setup()
    locs = []
    for alpha, assign in enumerate(assigns):
        Aq = assign.algebra
        scalorz = unit_scaled(Aq, Scalar(2 + alpha))
        locs.append(LocalDerivation(assign, [scalorz, Aq.unit]))
    X = glue(cov, P, locs)
    assert leibniz_failures(A, X.matrix) == []
    for alpha in (0, 1):
        proj = project_global(X, alpha)
        want = locs[alpha].as_matrix()
        lhs = proj @ cov.projection(alpha)
        rhs = want @ cov.projection(alpha)
        assert lhs == rhs
        # on the block model the chart projection recovers the local
        # derivation exactly
        assert proj == want
        assert restrict(X, alpha) == want


def test_glue_decompose_roundtrip():
    A, cov, P, assigns = block_setup()
    coeff_values = [
        (Scalar(2), Scalar(0, 1)),
        (Scalar(Fraction(1, 2)), Scalar(-3)),
    ]
    locs = []
    for assign, (c0, c1) in zip(assigns, coeff_values):
        Aq = assign.algebra
        locs.append(
            LocalDerivation(
                assign, [unit_scaled(Aq, c0), unit_scaled(Aq, c1)]
            )
        )
    X = glue(cov, P, locs)
    for alpha in (0, 1):
        got = decompose(X, alpha)
        assert got == locs[alpha].coefficients


def test_glue_commutes_with_central_scaling():
    """c X is the glue of the chart derivations scaled by pi_alpha(c),
    for c central."""
    A, cov, P, assigns = block_setup()
    locs = [
        LocalDerivation(a, [a.algebra.unit, a.algebra.unit]) for a in assigns
    ]
    X = glue(cov, P, locs)

    def scaled(c, alpha):
        chart = cov.chart(alpha)
        cc = cov.project(alpha, c)
        return [chart.multiply(cc, z) for z in locs[alpha].coefficients]

    c = vec_add(
        vec_scale(Scalar(2), P.elements[0].chi),
        vec_scale(Scalar(3), P.elements[1].chi),
    )
    Y = glue(
        cov,
        P,
        [LocalDerivation(a, scaled(c, alpha)) for alpha, a in enumerate(assigns)],
    )
    assert Y.matrix == A.left_mult_matrix(c) @ X.matrix
    for alpha, factor in ((0, Scalar(2)), (1, Scalar(3))):
        want = locs[alpha].as_matrix().scale(factor)
        assert project_global(Y, alpha) == want
    with pytest.raises(NonCentralCoefficient):
        LocalDerivation(assigns[0], scaled(A.basis_vector(1), 0))


def test_glue_single_trivial_chart():
    from nctangent.scalars import Subspace

    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    cov = Covering(A, [Subspace(A.dim, [])])
    P = Partition.from_zetas(A, [A.unit])
    loc = LocalDerivation(assign, [A.unit, A.unit])
    # the chart is the quotient by zero, whose table equals A's
    chart_assign = ActionAssignment(
        cov.chart(0), 1, 1, assign.operators
    )
    X = glue(cov, P, [LocalDerivation(chart_assign, [cov.chart(0).unit] * 2)])
    assert X.matrix == loc.as_matrix()


def test_glue_rejects_wrong_chart():
    A, cov, P, assigns = block_setup()
    loc0 = LocalDerivation(
        assigns[0], [assigns[0].algebra.unit, assigns[0].algebra.unit]
    )
    with pytest.raises(AlgebraError):
        GlobalDerivation(cov, P, [loc0, loc0])


# -- oracle: Leibniz with the operator applied once per basis pair -----------


def per_pair_leibniz_failures(algebra, operator):
    """The route that applying the operator once per basis vector
    replaces: D(ab), D(a) and D(b) computed afresh for every pair."""
    failures = []
    for i in range(algebra.dim):
        a = algebra.basis_vector(i)
        da = operator.apply(a)
        for j in range(algebra.dim):
            b = algebra.basis_vector(j)
            lhs = operator.apply(algebra.multiply(a, b))
            rhs = vec_add(
                algebra.multiply(da, b), algebra.multiply(a, operator.apply(b))
            )
            if lhs != rhs:
                failures.append((algebra.labels[i], algebra.labels[j]))
    return failures


def leibniz_cases():
    """(algebra, operators) on M_2-M_4, a direct sum, a quotient and a
    function algebra, and functions on two points in the basis {u, w}
    with w w = u/4: derivations, and maps that break Leibniz on some
    pairs only (a derivation plus a multiple of one matrix unit, a
    scaled identity, a dense matrix), and the left and right
    multiplications by an element, which keep D(ab) = D(a) b and
    D(ab) = a D(b) respectively and break the other side only."""
    block_sum = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    killed = Subspace(13, [unit_vec(13, 4 + k) for k in range(9)])
    mixed = StarAlgebra(
        ["u", "w"],
        [((0, ((0, 1),)), (1, ((1, 1),))), ((0, ((1, 1),)), (1, ((0, Fraction(1, 4)),)))],
        Matrix.identity(2),
        (1, 0),
    )
    algebras_ = [
        mixed,
        make_matrix_algebra(2),
        make_matrix_algebra(3),
        make_matrix_algebra(4),
        block_sum,
        quotient_algebra(block_sum, killed)[0],
        make_function_algebra(5),
    ]
    out = []
    for A in algebras_:
        n = A.dim
        g = tuple(Scalar(i % 3 - 1, i % 2) for i in range(n))
        ad = A.left_mult_matrix(g) - right_mult_matrix(A, g)
        unit_cell = DenseMatrix(
            [[sc(0, 2) if (r, c) == (0, n - 1) else Scalar(0) for c in range(n)] for r in range(n)]
        ).to_matrix()
        dense = DenseMatrix(
            [[Scalar(r - c, (r * c) % 3) for c in range(n)] for r in range(n)]
        ).to_matrix()
        left, right = A.left_mult_matrix(g), right_mult_matrix(A, g)
        out.append(
            (A, [ad, ad + unit_cell, Matrix.identity(n).scale(3), dense, left, right])
        )
    # u -> 8w, w -> u keeps Leibniz on (w, w) only through the 1/4 in w w
    out.append((mixed, [DenseMatrix([[0, 1], [8, 0]]).to_matrix()]))
    return out


def test_leibniz_failures_match_the_per_pair_route():
    broken = 0
    for A, operators in leibniz_cases():
        for D in operators:
            want = per_pair_leibniz_failures(A, D)
            assert leibniz_failures(A, D) == want, A
            broken += bool(want) and len(want) < A.dim ** 2
    # some maps break Leibniz on part of the pairs, so order is compared
    assert broken >= 6
    A = make_matrix_algebra(2)
    assert leibniz_failures(A, Matrix.identity(4))[:3] == [
        ("E_11", "E_11"), ("E_11", "E_12"), ("E_12", "E_21")
    ]


def mutated_leibniz_failures(old, new):
    """`leibniz_failures` with one fragment of its source replaced,
    compiled in the module's namespace."""
    source = inspect.getsource(tangent.leibniz_failures)
    assert source.count(old) == 1
    namespace = dict(vars(tangent))
    exec(compile(source.replace(old, new), tangent.__file__, "exec"), namespace)
    return namespace["leibniz_failures"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("for j, y in rows[k]:", "for j, y in ():"),
        ("for k, x in images[i]:", "for k, x in ():"),
        ("c._q, images[m])", "c._q, images[m][1:])"),
    ],
    ids=["no-b_i-D(b_j)", "no-D(b_i)-b_j", "one-image-entry-short"],
)
def test_leibniz_oracle_catches_mutants(old, new):
    mutant = mutated_leibniz_failures(old, new)
    caught = [
        (A, D)
        for A, operators in leibniz_cases()
        for D in operators
        if mutant(A, D) != per_pair_leibniz_failures(A, D)
    ]
    assert caught
