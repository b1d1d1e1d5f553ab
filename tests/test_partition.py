import random
from fractions import Fraction

import pytest

from nctangent.algebras import (
    AlgebraError,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
)
from nctangent.covering import Covering, ideal_from_declaration
from nctangent.partition import (
    IllDefined,
    Partition,
    PartitionElement,
    centrality_check,
    functional,
    functional_module_check,
    functional_product_check,
    overlap_covering,
    product_partition,
    reconstruction_check,
    verify_adapted,
    verify_partition,
    verify_subordinate,
)
from nctangent.scalars import Matrix, Scalar, Subspace, Scalar as sc, zero_vec

from dense_matrix import DenseMatrix
from seeded import multiplication_maps, random_rational_unitary, seeded_partition
from test_scalars import conjugate


def diagonal_partition(n):
    A = make_matrix_algebra(n)
    zetas = []
    for m in range(n):
        z = list(zero_vec(A.dim))
        z[m * n + m] = Scalar(1)
        zetas.append(tuple(z))
    return A, Partition.from_zetas(A, zetas)


def four_point_partition():
    A = make_function_algebra(4)
    z1 = (sc(1), sc(1), sc(Fraction(3, 5)), sc(0))
    z2 = (sc(0), sc(0), sc(Fraction(4, 5)), sc(1))
    return A, Partition.from_zetas(A, [z1, z2])


def four_point_covering(A):
    i1 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [1, 2, 3]})
    i2 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [3, 4]})
    return Covering(A, [i1, i2])


def block_covering():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    block1 = ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]})
    block2 = ideal_from_declaration(A, {"type": "blocks", "kill": ["2"]})
    u1 = tuple(A.basis_vector(0)[k] + A.basis_vector(3)[k] for k in range(A.dim))
    u2 = tuple(
        A.basis_vector(4)[k] + A.basis_vector(8)[k] + A.basis_vector(12)[k]
        for k in range(A.dim)
    )
    P = Partition.from_zetas(A, [u1, u2])
    return A, Covering(A, [block2, block1]), P


def test_diagonal_partition_passes():
    A, P = diagonal_partition(4)
    report = verify_partition(A, P)
    assert all(ok for _, ok, _ in report)
    assert [name for name, _, _ in report] == [
        "membership",
        "local-finiteness",
        "positivity-witness",
        "sum-law",
    ]


def test_unit_partition_passes():
    A = make_matrix_algebra(3)
    P = Partition.from_zetas(A, [A.unit])
    assert all(ok for _, ok, _ in verify_partition(A, P))


def test_four_point_partition_passes():
    A, P = four_point_partition()
    assert all(ok for _, ok, _ in verify_partition(A, P))
    assert P.elements[0].chi == (sc(1), sc(1), sc(Fraction(9, 25)), sc(0))
    assert P.elements[1].chi == (sc(0), sc(0), sc(Fraction(16, 25)), sc(1))


def test_bad_witness_rejected():
    A = make_matrix_algebra(2)
    # E_12 E_12* = E_11, so declaring chi = E_12 is inconsistent
    with pytest.raises(AlgebraError):
        PartitionElement(A, A.basis_vector(1), chi=A.basis_vector(1))
    ok = PartitionElement(A, A.basis_vector(1), chi=A.basis_vector(0))
    assert ok.chi == A.basis_vector(0)


def test_failing_sum_law_reported():
    A = make_matrix_algebra(2)
    P = Partition.from_zetas(A, [A.basis_vector(0)])  # E_11 alone
    report = verify_partition(A, P)
    assert not all(ok for _, ok, _ in report)
    names = {name: ok for name, ok, _ in report}
    assert names["sum-law"] is False
    assert names["positivity-witness"] is True


def test_bullet():
    # the bullet action zeta a zeta*
    A = make_matrix_algebra(2)
    unit_el = PartitionElement(A, A.unit)
    a = A.basis_vector(1)
    assert A.multiply(A.multiply(unit_el.zeta, a), A.involute(unit_el.zeta)) == a
    e11 = PartitionElement(A, A.basis_vector(0))
    # E_11 E_12 E_11 = 0
    assert A.multiply(A.multiply(e11.zeta, a), A.involute(e11.zeta)) == zero_vec(4)
    F = make_function_algebra(3)
    el = PartitionElement(F, (sc(Fraction(3, 5)), sc(1), sc(0)))
    x = (sc(5), sc(7), sc(11))
    assert F.multiply(F.multiply(el.zeta, x), F.involute(el.zeta)) == F.multiply(el.chi, x)


def test_product_with_unit_partition():
    A, P = diagonal_partition(3)
    Q = Partition.from_zetas(A, [A.unit])
    R = product_partition(P, Q)
    assert [el.chi for el in R.elements] == [el.chi for el in P.elements]
    # diagonal times diagonal prunes the cross terms
    S = product_partition(P, P)
    assert [el.chi for el in S.elements] == [el.chi for el in P.elements]
    full = product_partition(P, P, keep_zero=True)
    assert len(full) == 9


def test_product_of_seeded_partitions():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(2))
    rng = random.Random(9)
    P = seeded_partition(A, rng, parts=2)
    Q = seeded_partition(A, rng, parts=3)
    assert all(ok for _, ok, _ in verify_partition(A, P))
    assert all(ok for _, ok, _ in verify_partition(A, Q))
    R = product_partition(P, Q)
    assert all(ok for _, ok, _ in verify_partition(A, R))


def conjugate_transpose(U):
    """U*: the conjugates of U's dense rows, as columns."""
    return DenseMatrix.from_columns(
        [[conjugate(a) for a in row] for row in DenseMatrix.of(U).entries], rows=U.cols
    ).to_matrix()


def test_random_rational_unitary_exact():
    rng = random.Random(4)
    for n in (1, 2, 3):
        U = random_rational_unitary(n, rng)
        assert U @ conjugate_transpose(U) == Matrix.identity(n)


def test_seeded_partition_deterministic():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    P1 = seeded_partition(A, random.Random(12), parts=2)
    P2 = seeded_partition(A, random.Random(12), parts=2)
    assert [el.zeta for el in P1.elements] == [el.zeta for el in P2.elements]
    assert all(ok for _, ok, _ in verify_partition(A, P1))


def test_seeded_partition_function_model():
    A = make_function_algebra(5)
    P = seeded_partition(A, random.Random(2), parts=3)
    assert all(ok for _, ok, _ in verify_partition(A, P))


def test_adapted_block_model_vacuous():
    A, cov, P = block_covering()
    assert all(ok for _, ok, _ in verify_partition(A, P))
    report = verify_adapted(P, cov)
    assert all(ok for _, ok, _, _ in report)
    assert all(ok for _, ok, _, _ in verify_subordinate(P, cov))


def test_adapted_four_point_literal_fails_closure_passes():
    A, P = four_point_partition()
    cov = four_point_covering(A)
    literal = verify_adapted(P, cov, variant="literal")
    assert not all(ok for _, ok, _, _ in literal)
    # the overlap point is the blocker and the leaked mass is 9/25 or 16/25
    _, ok, _, witness = literal[0]
    assert ok is False
    assert witness is not None
    leaked = witness[3]
    assert leaked in (sc(Fraction(9, 25)), sc(Fraction(16, 25)))
    closure = verify_adapted(P, cov, variant="closure")
    assert all(ok for _, ok, _, _ in closure)


def test_adapted_disjoint_indicators_pass_literal():
    A = make_function_algebra(4)
    P = Partition.from_zetas(A, [(sc(1), sc(1), sc(0), sc(0)), (sc(0), sc(0), sc(1), sc(1))])
    i1 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [1, 2]})
    i2 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [3, 4]})
    cov = Covering(A, [i1, i2])
    assert all(ok for _, ok, _, _ in verify_adapted(P, cov, variant="literal"))
    assert all(ok for _, ok, _, _ in verify_adapted(P, cov, variant="closure"))


def test_adapted_needs_matching_sizes():
    A, P = four_point_partition()
    cov = Covering(A, [Subspace(A.dim, [])])
    with pytest.raises(AlgebraError):
        verify_adapted(P, cov)
    # subordination tolerates any covering size
    assert all(ok for _, ok, _, _ in verify_subordinate(P, cov))


def test_functional_block_model():
    A, cov, P = block_covering()
    for alpha in (0, 1):
        F = functional(P, cov, alpha)
        pi = cov.projection(alpha)
        # the composite is exactly left multiplication by the block unit
        L = A.left_mult_matrix(P.elements[alpha].chi)
        assert F @ pi == L
        assert functional_module_check(P, cov, alpha) == []
    assert reconstruction_check(P, cov) is None


def test_functional_four_point_model():
    A, P = four_point_partition()
    cov = four_point_covering(A)
    assert reconstruction_check(P, cov) is None
    assert functional_module_check(P, cov, 0) == []
    assert functional_module_check(P, cov, 1) == []


def test_functional_ill_defined_witness():
    A, P = four_point_partition()
    bad = ideal_from_declaration(A, {"type": "vanishing_on", "points": [2, 3, 4]})
    other = ideal_from_declaration(A, {"type": "vanishing_on", "points": [1, 2]})
    cov = Covering(A, [bad, other])
    # chi_0 is supported at point 1, which the first ideal does not avoid
    with pytest.raises(IllDefined) as err:
        functional(P, cov, 0)
    assert err.value.witness[0] == 0


def test_centrality_block_model():
    A, cov, P = block_covering()
    maps = multiplication_maps(A, "left") + multiplication_maps(A, "right")
    assert centrality_check(P, cov, maps) == []
    # a non-central chi breaks commutation with left multiplications
    M, D = diagonal_partition(3)
    trivial = Covering(M, [Subspace(M.dim, [])] * 3)
    bad = centrality_check(D, trivial, multiplication_maps(M, "left"))
    assert bad != []
    assert centrality_check(D, trivial, multiplication_maps(M, "right")) == []


def test_overlap_covering_and_product_functionals():
    A, cov, P = block_covering()
    cov2, pairs = overlap_covering(cov, cov)
    assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert cov2.chart(0).dim == 4
    assert cov2.chart(1).dim == 0
    assert functional_product_check(P, cov, P, cov) == []


def test_product_functionals_diagonal():
    M, D = diagonal_partition(3)
    trivial = Covering(M, [Subspace(M.dim, [])] * 3)
    assert functional_product_check(D, trivial, D, trivial) == []


def test_product_functionals_unit_second_factor():
    A, cov, P = block_covering()
    Q = Partition.from_zetas(A, [A.unit])
    covQ = Covering(A, [Subspace(A.dim, [])])
    assert functional_product_check(P, cov, Q, covQ) == []
