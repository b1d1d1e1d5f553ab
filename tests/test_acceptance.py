"""Acceptance gate.

Each test is one criterion, checked exactly (rational arithmetic, no
tolerances) and printed as a single pass line on success.  Seeds are
fixed at 0 so reruns are bit-identical.
"""

import random
import time
from fractions import Fraction

import pytest

from nctangent.algebras import (
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    make_moyal_truncation,
)
from nctangent.connection import (
    ConnectionCoefficients,
    coefficient_failures,
    curvature_components,
    curvature_cross_check,
    random_connection,
    verify_connection_axioms,
)
from nctangent.covering import Covering, ideal_from_declaration, verify_covering
from nctangent.forms import (
    FormN,
    glued_basis,
    kappa_basis,
    koszul_d,
    d_locality_check,
    wedge_compat_check,
)
from nctangent.minkowski import (
    PBWElement,
    PoincareGenerator,
    hopf_axiom_check,
    integral_star_oracle,
    module_law_sides,
    random_element,
)
from nctangent.partition import (
    IllDefined,
    Partition,
    functional,
    overlap_covering,
    partition_ok,
    product_partition,
    reconstruction_check,
    seeded_partition,
    subordination_ok,
    verify_adapted,
    verify_partition,
)
from nctangent.scalars import Scalar, sc, vec, vec_add, vec_is_zero, vec_scale, zero_vec
from nctangent.tangent import (
    LocalDerivation,
    bracket,
    canonical_inner_model,
    decompose,
    glue,
    leibniz_failures,
)


def ok(line):
    print("PASS %s" % line)


def block_model():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    block1 = ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]})
    block2 = ideal_from_declaration(A, {"type": "blocks", "kill": ["2"]})
    cov = Covering(A, [block2, block1])
    u1 = vec_add(A.basis_vector(0), A.basis_vector(3))
    u2 = vec_add(
        vec_add(A.basis_vector(4), A.basis_vector(8)), A.basis_vector(12)
    )
    P = Partition.from_zetas(A, [u1, u2])
    assigns = (
        canonical_inner_model(2, 1, Fraction(1), algebra=cov.chart(0)),
        canonical_inner_model(3, 1, Fraction(1), algebra=cov.chart(1)),
    )
    return A, cov, P, assigns


def four_point_model():
    A = make_function_algebra(4)
    P = Partition.from_zetas(
        A, [vec(1, 1, Fraction(3, 5), 0), vec(0, 0, Fraction(4, 5), 1)]
    )
    i1 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [1, 2, 3]})
    i2 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [3, 4]})
    return A, P, Covering(A, [i1, i2])


def unit_scaled(A, c):
    return vec_scale(c, A.unit)


def test_criterion_01_hopf_axioms():
    started = time.monotonic()
    assert hopf_axiom_check(3, Fraction(1), 4) == []
    elapsed = time.monotonic() - started
    assert elapsed < 30
    ok("criterion 01: Hopf axioms exhaustive, d=3 degree<=4 (%.1fs)" % elapsed)


def test_criterion_02_commutators():
    for d in (1, 2, 3):
        for kappa in (Fraction(1), Fraction(2), Fraction(1, 2)):
            p0 = PBWElement.generator(d, kappa, 0)
            for j in range(1, d + 1):
                pj = PBWElement.generator(d, kappa, j)
                comm = p0.star(pj) - pj.star(p0)
                assert comm == pj.scale(Scalar(0, Fraction(1) / kappa))
                for k in range(1, d + 1):
                    pk = PBWElement.generator(d, kappa, k)
                    assert pj.star(pk) == pk.star(pj)
    ok("criterion 02: generator commutators, d<=3, kappa in {1, 2, 1/2}")


def test_criterion_03_oracle_equivalence():
    rng = random.Random(0)
    for _ in range(50):
        f = random_element(rng, 3, Fraction(1), 4)
        g = random_element(rng, 3, Fraction(1), 4)
        assert f.star(g) == integral_star_oracle(f, g)
    ok("criterion 03: PBW product equals integral oracle, 50 seeded pairs")


def test_criterion_04_module_law():
    rng = random.Random(0)
    gens = [PoincareGenerator("P0"), PoincareGenerator("E")]
    for j in (1, 2, 3):
        gens.append(PoincareGenerator("P", j))
        gens.append(PoincareGenerator("M", j))
        gens.append(PoincareGenerator("N", j))
    for _ in range(25):
        f = random_element(rng, 3, Fraction(1), 2)
        g = random_element(rng, 3, Fraction(1), 2)
        for gen in gens:
            lhs, rhs = module_law_sides(gen, f, g)
            assert lhs == rhs, gen
    ok("criterion 04: action-product law, 11 generators x 25 seeded pairs")


def _diagonal_sweep(A, n):
    zetas = [A.basis_vector(m * n + m) for m in range(n)]
    P = Partition.from_zetas(A, zetas)
    assert partition_ok(verify_partition(A, P))
    for k in range(A.dim):
        base = A.basis_vector(k)
        total = zero_vec(A.dim)
        for el in P.elements:
            total = vec_add(total, A.multiply(el.chi, base))
        assert total == base


def test_criterion_05_matrix_and_moyal_partitions():
    _diagonal_sweep(make_matrix_algebra(4), 4)
    _diagonal_sweep(make_moyal_truncation(8), 8)
    ok("criterion 05: diagonal partitions on M_4 and truncated Moyal N=8")


def test_criterion_06_product_partition_adapted():
    A, cov, _, _ = block_model()
    rng = random.Random(0)
    P = seeded_partition(A, rng, parts=2)
    Q = seeded_partition(A, rng, parts=2)
    R = product_partition(P, Q)
    assert partition_ok(verify_partition(A, R))
    # the product is indexed by chart pairs, so adaptedness is judged
    # against the overlap covering; matrix-block quotients admit no
    # characters and the report must come back all-clear
    ocov, pairs = overlap_covering(cov, cov)
    assert len(pairs) == 4
    R_full = product_partition(P, Q, keep_zero=True)
    assert subordination_ok(verify_adapted(R_full, ocov))
    ok("criterion 06: product of seeded partitions, adapted on block overlaps")


def test_criterion_07_covering_laws():
    _, cov, _, _ = block_model()
    assert verify_covering(cov) == []
    A4, _, cov4 = four_point_model()
    assert verify_covering(cov4) == []
    ok("criterion 07: covering laws on block and function models")


def test_criterion_08_gluing():
    A, cov, P, assigns = block_model()
    coeff_values = [
        (Scalar(2), Scalar(0, 1)),
        (Scalar(Fraction(1, 2)), Scalar(-3)),
    ]
    locs = []
    for assign, (c0, c1) in zip(assigns, coeff_values):
        Aq = assign.algebra
        locs.append(
            LocalDerivation(assign, [unit_scaled(Aq, c0), unit_scaled(Aq, c1)])
        )
    X = glue(cov, P, locs)
    assert leibniz_failures(A, X.matrix) == []
    for alpha in (0, 1):
        assert decompose(X, alpha) == locs[alpha].coefficients
    ok("criterion 08: glued derivation Leibniz sweep and exact decomposition")


def _random_form(rng, basis, degree):
    from itertools import combinations

    entries = {}
    for key in combinations(range(basis.rank), degree):
        entries[key] = tuple(
            Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            for _ in range(basis.algebra.dim)
        )
    return FormN(basis, degree, entries)


def test_criterion_09_differential_calculus():
    basis = kappa_basis(canonical_inner_model(3, 2, Fraction(1)))
    rng = random.Random(0)
    for degree in (0, 1):
        for _ in range(10):
            rho = _random_form(rng, basis, degree)
            assert koszul_d(koszul_d(rho)).is_zero()
    A, cov, P, assigns = block_model()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rho = _random_form(rng, gbasis, 1)
    eta = _random_form(rng, gbasis, 1)
    a = _random_form(rng, gbasis, 0)
    for alpha in (0, 1):
        assert wedge_compat_check(rho, eta, cov, P, alpha, locals_[alpha]) == []
        assert wedge_compat_check(a, rho, cov, P, alpha, locals_[alpha]) == []
        assert d_locality_check(rho, cov, alpha, locals_[alpha]) == []
        assert d_locality_check(a, cov, alpha, locals_[alpha]) == []
    ok("criterion 09: d o d = 0 on 20 seeded forms, wedge and d localize")


def test_criterion_10_curvature_cross_check():
    rng = random.Random(0)
    for d in (1, 2):
        assign = canonical_inner_model(d + 1, d, Fraction(1))
        for _ in range(5):
            gamma = random_connection(assign, rng, span=2)
            assert curvature_cross_check(gamma) == []
    assign = canonical_inner_model(2, 1, Fraction(1))
    A = assign.algebra
    R = curvature_components(ConnectionCoefficients.constant(assign, sc(0, 1)))
    for lam in range(2):
        for tau in range(2):
            assert R.entry(0, 1, lam, tau) == tuple(A.unit)
            assert R.entry(1, 0, lam, tau) == vec_scale(sc(-1), A.unit)
            assert vec_is_zero(R.entry(0, 0, lam, tau))
            assert vec_is_zero(R.entry(1, 1, lam, tau))
    ok("criterion 10: curvature operator matches components, frozen tensor")


def test_criterion_11_negative_controls():
    assign = canonical_inner_model(2, 1, Fraction(1))
    A = assign.algebra
    real_gamma = ConnectionCoefficients.constant(assign, Scalar(2), check=False)
    fails = coefficient_failures(real_gamma)
    assert fails and all(kind == "hermiticity" for kind, _ in fails)
    X = LocalDerivation(assign, [A.unit, A.unit])
    Y = LocalDerivation(assign, [A.unit, unit_scaled(A, Scalar(0, 1))])
    axiom_fails = verify_connection_axioms(real_gamma, [(X, Y, A.unit)])
    assert ("hermiticity", 0) in axiom_fails

    U = LocalDerivation(assign, [A.basis_vector(1), zero_vec(A.dim)], check=False)
    V = LocalDerivation(assign, [A.basis_vector(2), zero_vec(A.dim)], check=False)
    Um, Vm = U.as_matrix(), V.as_matrix()
    assert (Um @ Vm - Vm @ Um).entries != bracket(U, V).as_matrix().entries

    Af, P, _ = four_point_model()
    bad = ideal_from_declaration(Af, {"type": "vanishing_on", "points": [2, 3, 4]})
    other = ideal_from_declaration(Af, {"type": "vanishing_on", "points": [1, 2]})
    with pytest.raises(IllDefined):
        functional(P, Covering(Af, [bad, other]), 0)
    ok("criterion 11: real connection, non-central bracket, ill-defined lift")


def test_criterion_12_commutative_recovery():
    A, P, cov = four_point_model()
    assert reconstruction_check(P, cov) is None
    literal = verify_adapted(P, cov, variant="literal")
    assert not subordination_ok(literal)
    blocked = [row for row in literal if row[1] is False]
    assert blocked
    leaked = blocked[0][3][3]
    assert leaked in (sc(Fraction(9, 25)), sc(Fraction(16, 25)))
    assert subordination_ok(verify_adapted(P, cov, variant="closure"))
    ok("criterion 12: four-point reconstruction and overlap discrepancy")
