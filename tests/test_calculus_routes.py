"""The calculus layer works on nonzero data and reads the structure
constants.  Each route it replaced is kept here, as it was, as the
oracle: the dense `koszul_d` (`Matrix.apply`, `vec_add`, `vec_scale`),
inner actions as `left_mult_matrix(g) - right_mult_matrix(g)`, the
derivation-basis structure constants from dense `@` commutators, the
full-walk `noncentral_witness` (no unit shortcut) and the unskipped
`curvature_components`.  They are compared on seeded M_2-M_4, a sum
model, quotient charts and a non-unital algebra, at kappa 1, 2/3, 5/2."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from nctangent import algebras
from nctangent.algebras import (
    StarAlgebra,
    center,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    noncentral_witness,
    quotient_algebra,
)
from nctangent.connection import (
    ConnectionCoefficients,
    curvature_components,
    random_connection,
    structure_scalar,
)
from nctangent.covering import ideal_from_declaration
from nctangent.forms import (
    DerivationBasis,
    FormN,
    MINUS_ONE,
    NotBracketClosed,
    _flatten,
    _increasing_tuples,
    kappa_basis,
    koszul_d,
)
from nctangent.scalars import (
    Matrix,
    Scalar,
    ZERO,
    solve_linear,
    unit_vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from nctangent.tangent import (
    ActionAssignment,
    canonical_generator_vectors,
    canonical_inner_model,
)

from test_algebras import random_algebra, sparse_scalar

KAPPAS = (Fraction(1), Fraction(2, 3), Fraction(5, 2))


# -- the replaced routes ------------------------------------------------------


def dense_koszul_d(rho):
    """`koszul_d` on dense coefficient vectors."""
    basis = rho.basis
    A = basis.algebra
    n = rho.degree
    out = {}
    for key in _increasing_tuples(basis.rank, n + 1):
        total = zero_vec(A.dim)
        for k in range(n + 1):
            rest = key[:k] + key[k + 1:]
            term = basis.operators[key[k]].apply(rho.coefficient(rest))
            if k % 2:
                term = vec_scale(MINUS_ONE, term)
            total = vec_add(total, term)
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                rest = tuple(key[i] for i in range(n + 1) if i != k and i != l)
                inserted = zero_vec(A.dim)
                coeffs = basis.bracket_coefficients(key[k], key[l])
                for lam, c in enumerate(coeffs):
                    if c.is_zero():
                        continue
                    inserted = vec_add(
                        inserted, vec_scale(c, rho.coefficient((lam,) + rest))
                    )
                if (k + l) % 2:
                    inserted = vec_scale(MINUS_ONE, inserted)
                total = vec_add(total, inserted)
        out[key] = total
    return FormN(basis, n + 1, out)


def mult_inner_operator(A, g):
    """ad_g as L(g) - R(g)."""
    return A.left_mult_matrix(g) - A.right_mult_matrix(g)


def matmul_structure(algebra, ops):
    """The structure constants of a derivation basis from dense `@`
    commutators, or the first pair whose commutator leaves the span."""
    span = Matrix.from_columns([_flatten(D) for D in ops], rows=algebra.dim ** 2)
    structure = {}
    for mu in range(len(ops)):
        for nu in range(mu + 1, len(ops)):
            comm = ops[mu] @ ops[nu] - ops[nu] @ ops[mu]
            sol = solve_linear(span, _flatten(comm))
            if sol is None:
                return (mu, nu)
            structure[(mu, nu)] = tuple(sol[0])
    return structure


def walk_noncentral_witness(A, v):
    """`noncentral_witness` from one pass over `terms` for every v."""
    comms = {}
    for k, (x, row) in enumerate(zip(v, A.terms)):
        for j, cell in row:
            y = v[j]
            if x:
                into = comms.setdefault(j, {})
                for m, c in cell:
                    into[m] = into.get(m, ZERO) + x * c
            if y:
                out = comms.setdefault(k, {})
                for m, c in cell:
                    out[m] = out.get(m, ZERO) - y * c
    for i in sorted(comms):
        comm = comms[i]
        if any(comm.values()):
            return (A.labels[i], tuple(comm.get(m, ZERO) for m in range(A.dim)))
    return None


def unskipped_curvature_components(gamma):
    """`curvature_components` over every Gamma entry, zero ones too."""
    assign = gamma.assignment
    A = assign.algebra
    n = assign.d + 1
    grid = []
    for mu in range(n):
        cube = []
        for nu in range(n):
            plane = []
            for lam in range(n):
                row = []
                for tau in range(n):
                    total = vec_sub(
                        assign.operators[mu].apply(gamma.entry(nu, lam, tau)),
                        assign.operators[nu].apply(gamma.entry(mu, lam, tau)),
                    )
                    for sigma in range(n):
                        total = vec_add(
                            total,
                            A.multiply(gamma.entry(nu, lam, sigma), gamma.entry(mu, sigma, tau)),
                        )
                        total = vec_sub(
                            total,
                            A.multiply(gamma.entry(mu, lam, sigma), gamma.entry(nu, sigma, tau)),
                        )
                        c = structure_scalar(assign.kappa, mu, nu, sigma)
                        if not c.is_zero():
                            total = vec_sub(total, vec_scale(c, gamma.entry(sigma, lam, tau)))
                    row.append(total)
                plane.append(row)
            cube.append(plane)
        grid.append(cube)
    return grid


# -- seeded models ------------------------------------------------------------


def block_chart(A, kill):
    return quotient_algebra(A, ideal_from_declaration(A, {"type": "blocks", "kill": [kill]}))[0]


def assignments(kappa):
    """Canonical actions on M_2..M_4 at every d, the blockwise canonical
    action on the sum M_2+M_2 (center of dimension two), and canonical
    actions on two quotient charts: M_2 of F_1+M_2 and M_3 of M_2+M_3."""
    out = [canonical_inner_model(N, d, kappa) for N in (2, 3, 4) for d in range(1, N)]
    M2 = make_matrix_algebra(2)
    A = direct_sum(M2, M2)
    gens = [g + g for g in canonical_generator_vectors(2, 1, kappa)]
    out.append(ActionAssignment.from_inner(A, 1, kappa, gens))
    chart = block_chart(direct_sum(make_function_algebra(1), M2), "1")
    out.append(canonical_inner_model(2, 1, kappa, algebra=chart))
    chart = block_chart(direct_sum(M2, make_matrix_algebra(3)), "1")
    out.append(canonical_inner_model(3, 2, kappa, algebra=chart))
    return out


ASSIGNMENTS = [(kappa, assign) for kappa in KAPPAS for assign in assignments(kappa)]


def non_unital(A):
    return StarAlgebra(A.labels, A.terms, A.involution, None, A.model)


def with_unit(A, unit):
    """A's products with `unit` declared as its unit, which it is not."""
    return StarAlgebra(A.labels, A.terms, A.involution, unit, A.model)


def witness_algebras():
    M2, M3 = make_matrix_algebra(2), make_matrix_algebra(3)
    blocks = direct_sum(make_function_algebra(1), M2)
    out = [M2, M3, make_matrix_algebra(4), direct_sum(M2, M2), blocks]
    out += [block_chart(blocks, "1"), block_chart(direct_sum(M2, M3), "2")]
    out += [non_unital(M2), non_unital(direct_sum(M2, M2))]
    # declared units that are not central: their witnesses are not None
    out += [with_unit(M2, unit_vec(4, 0)), with_unit(M2, unit_vec(4, 1))]
    out.append(with_unit(M3, tuple(Scalar(k % 3, k % 2) for k in range(9))))
    return out


MULTIPLES = (Scalar(1), Scalar(2), Scalar(-1, 3), Scalar(0, 1), Scalar(Fraction(3, 5), -2))


def witness_probes(A, rng):
    """Zero, multiples of the unit, basis vectors, center vectors (which
    in a sum are central but no multiple of the unit), near-multiples
    that differ from c.unit in one coordinate, and dense vectors."""
    probes = [zero_vec(A.dim)]
    probes += [unit_vec(A.dim, i) for i in range(A.dim)]
    probes += list(center(A).basis)
    probes += [
        tuple(Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(A.dim))
        for _ in range(3)
    ]
    if A.unit is not None:
        for c in MULTIPLES:
            multiple = vec_scale(c, A.unit)
            probes.append(multiple)
            for k in (0, A.dim - 1):
                off = list(multiple)
                off[k] = off[k] + Scalar(1)
                probes.append(tuple(off))
    return probes


# -- the routes agree -----------------------------------------------------------


def test_noncentral_witness_matches_the_full_walk():
    rng = random.Random(1701)
    seen = set()
    for A in witness_algebras():
        for v in witness_probes(A, rng):
            got = noncentral_witness(A, v)
            assert got == walk_noncentral_witness(A, v), (A, v)
            seen.add(got is None)
    assert seen == {True, False}


def test_unit_multiples_scale_a_noncentral_unit_witness():
    # the declared unit E_11 of M_2 is not central; c E_11 has the
    # witness of E_11 scaled by c, also for c != 1
    A = with_unit(make_matrix_algebra(2), unit_vec(4, 0))
    for c in MULTIPLES:
        got = noncentral_witness(A, vec_scale(c, A.unit))
        assert got == walk_noncentral_witness(A, vec_scale(c, A.unit))
        assert got[1] == vec_scale(c, walk_noncentral_witness(A, A.unit)[1])
    assert noncentral_witness(A, zero_vec(4)) is None


def test_each_algebra_keeps_its_own_unit_witness():
    M2 = make_matrix_algebra(2)
    first, second = with_unit(M2, unit_vec(4, 0)), with_unit(M2, unit_vec(4, 1))
    for A in (first, second, M2, first, second):
        for c in (Scalar(1), Scalar(3)):
            v = vec_scale(c, A.unit)
            assert noncentral_witness(A, v) == walk_noncentral_witness(A, v)
    assert walk_noncentral_witness(first, first.unit) != walk_noncentral_witness(
        second, second.unit
    )


def test_unit_multiples_walk_the_structure_constants_once(monkeypatch):
    A = with_unit(make_matrix_algebra(3), unit_vec(9, 4))
    calls = []
    real = algebras.commutators

    def spy(algebra, v):
        calls.append(v)
        return real(algebra, v)

    monkeypatch.setattr(algebras, "commutators", spy)
    for c in MULTIPLES + (ZERO,):
        noncentral_witness(A, vec_scale(c, A.unit))
    assert calls == [A.unit]
    noncentral_witness(A, unit_vec(9, 0))
    assert calls == [A.unit, unit_vec(9, 0)]


@given(random_algebra(), sparse_scalar())
@settings(max_examples=150, deadline=None)
def test_noncentral_witness_matches_the_full_walk_on_unit_multiples(case, c):
    A, _ = case
    if A.unit is None:
        v = tuple(c for _ in range(A.dim))
    else:
        v = vec_scale(c, A.unit)
    assert noncentral_witness(A, v) == walk_noncentral_witness(A, v)


def test_inner_actions_match_left_minus_right_multiplication():
    rng = random.Random(1702)
    for kappa, assign in ASSIGNMENTS:
        A = assign.algebra
        for g, D in zip(assign.inner_generators, assign.operators):
            assert D.entries == mult_inner_operator(A, g).entries
    for A in witness_algebras():
        elements = witness_probes(A, rng)
        built = ActionAssignment.from_inner(A, len(elements) - 1, 1, elements)
        for g, D in zip(elements, built.operators):
            assert (D.rows, D.cols) == (A.dim, A.dim)
            assert D.entries == mult_inner_operator(A, g).entries
    with pytest.raises(algebras.AlgebraError, match="length mismatch"):
        ActionAssignment.from_inner(make_matrix_algebra(2), 0, 1, [zero_vec(3)])


def test_structure_constants_match_the_matmul_commutators():
    for kappa, assign in ASSIGNMENTS:
        basis = kappa_basis(assign)
        assert basis.structure == matmul_structure(assign.algebra, assign.operators)
    # a pair whose commutator leaves the span fails on both routes
    A = make_matrix_algebra(2)
    ops = [mult_inner_operator(A, unit_vec(4, 1)), mult_inner_operator(A, unit_vec(4, 2))]
    assert matmul_structure(A, ops) == (0, 1)
    with pytest.raises(NotBracketClosed) as err:
        DerivationBasis(A, ops)
    assert err.value.witness == (0, 1)


def seeded_forms(basis, rng):
    """For every degree up to the rank: the zero form, a form with one
    nonzero entry, a dense form, and forms with central coefficients."""
    A = basis.algebra
    zbasis = center(A).basis
    out = []
    for degree in range(basis.rank + 1):
        keys = list(combinations(range(basis.rank), degree))
        out.append(FormN.zero(basis, degree))
        out.append(FormN(basis, degree, {keys[-1]: unit_vec(A.dim, A.dim - 1)}))
        out.append(FormN(basis, degree, {
            key: tuple(Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(A.dim))
            for key in keys
        }))
        out.append(FormN(basis, degree, {
            key: vec_scale(Scalar(rng.randint(-2, 2), 1), zbasis[rng.randrange(len(zbasis))])
            for key in keys
        }))
    return out


def test_koszul_d_matches_the_dense_route():
    rng = random.Random(1703)
    degrees = set()
    for kappa, assign in ASSIGNMENTS:
        basis = kappa_basis(assign)
        for rho in seeded_forms(basis, rng):
            got = koszul_d(rho)
            want = dense_koszul_d(rho)
            assert got.degree == want.degree
            assert got.entries == want.entries
            degrees.add((rho.degree, got.is_zero()))
    assert {(0, True), (0, False), (1, False), (2, False), (3, False)} <= degrees


def test_curvature_components_match_the_unskipped_route():
    rng = random.Random(1704)
    zero_grids = 0
    for kappa, assign in ASSIGNMENTS:
        A = assign.algebra
        n = assign.d + 1
        grids = [
            ConnectionCoefficients.zero(assign),
            ConnectionCoefficients.constant(assign, Scalar(0, 2)),
            random_connection(assign, rng),
        ]
        # unchecked grids: noncentral entries with zeros in between
        for density in (0.3, 0.8):
            grid = [[[
                tuple(Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(A.dim))
                if rng.random() < density else zero_vec(A.dim)
                for _ in range(n)] for _ in range(n)] for _ in range(n)]
            grids.append(ConnectionCoefficients(assign, grid, check=False))
        for gamma in grids:
            tensor = curvature_components(gamma)
            assert tensor.grid == tuple(
                tuple(tuple(tuple(tuple(e) for e in row) for row in plane) for plane in cube)
                for cube in unskipped_curvature_components(gamma)
            )
            zero_grids += tensor.is_zero()
    assert zero_grids >= len(ASSIGNMENTS)


def test_a_zero_connection_makes_no_products(monkeypatch):
    assign = canonical_inner_model(4, 1, Fraction(2, 3))
    gamma = ConnectionCoefficients.zero(assign)
    calls = []
    real_multiply, real_apply = StarAlgebra.multiply, Matrix.apply

    def multiply(self, u, v):
        calls.append("multiply")
        return real_multiply(self, u, v)

    def apply(self, v):
        calls.append("apply")
        return real_apply(self, v)

    monkeypatch.setattr(StarAlgebra, "multiply", multiply)
    monkeypatch.setattr(Matrix, "apply", apply)
    assert curvature_components(gamma).is_zero()
    assert calls == []
