import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest

from nctangent import forms
from nctangent.algebras import (
    AlgebraError,
    StarAlgebra,
    center,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
)
from nctangent.cli import load_scenario
from nctangent.covering import Covering, ideal_from_declaration
from nctangent.forms import (
    DerivationBasis,
    FormN,
    NotBracketClosed,
    d_locality_check,
    differential_of,
    duality_rank,
    form0,
    form_glob2loc,
    form_loc2glob,
    glued_basis,
    kappa_basis,
    koszul_d,
    restrict_form,
    wedge,
    wedge_compat_check,
)
from nctangent.partition import IllDefined, Partition, functional
from nctangent.scalars import (
    ONE,
    Matrix,
    Scalar,
    sc,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vec,
)
from nctangent.tangent import ActionAssignment, LocalDerivation, canonical_inner_model


def m2_basis(kappa=Fraction(1)):
    assign = canonical_inner_model(2, 1, kappa)
    return assign, kappa_basis(assign)


def m3_basis(kappa=Fraction(1)):
    assign = canonical_inner_model(3, 2, kappa)
    return assign, kappa_basis(assign)


def block_setup(kappa=Fraction(1)):
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    block1 = ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]})
    block2 = ideal_from_declaration(A, {"type": "blocks", "kill": ["2"]})
    cov = Covering(A, [block2, block1])
    u1 = vec_add(A.basis_vector(0), A.basis_vector(3))
    u2 = vec_add(vec_add(A.basis_vector(4), A.basis_vector(8)), A.basis_vector(12))
    P = Partition.from_zetas(A, [u1, u2])
    assigns = [
        canonical_inner_model(2, 1, kappa, algebra=cov.chart(0)),
        canonical_inner_model(3, 1, kappa, algebra=cov.chart(1)),
    ]
    return A, cov, P, assigns


def rand_vec(rng, dim, span=2):
    return tuple(
        Scalar(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))
        for _ in range(dim)
    )


def rand_form(rng, basis, degree):
    from itertools import combinations

    entries = {}
    for key in combinations(range(basis.rank), degree):
        entries[key] = rand_vec(rng, basis.algebra.dim)
    return FormN(basis, degree, entries)


def test_structure_constants_deformed_bracket():
    _, basis = m2_basis(Fraction(1, 2))
    c = basis.bracket_coefficients(0, 1)
    assert c == (sc(0), sc(0, 2))
    assert basis.bracket_coefficients(1, 0) == (sc(0), sc(0, -2))
    assert all(x.is_zero() for x in basis.bracket_coefficients(1, 1))


def test_basis_rejects_non_derivation():
    A = make_matrix_algebra(2)
    with pytest.raises(AlgebraError):
        DerivationBasis(A, [Matrix.identity(A.dim)])


def test_basis_not_bracket_closed():
    A = make_matrix_algebra(2)
    ad = lambda v: A.left_mult_matrix(v) - A.right_mult_matrix(v)
    # ad(E_12) and ad(E_21) commute to ad(E_11 - E_22), outside their span
    with pytest.raises(NotBracketClosed) as err:
        DerivationBasis(A, [ad(A.basis_vector(1)), ad(A.basis_vector(2))])
    assert err.value.witness == (0, 1)


def test_form_antisymmetry_and_lookup():
    _, basis = m3_basis()
    A = basis.algebra
    v = A.basis_vector(3)
    rho = FormN(basis, 2, {(0, 1): v})
    assert rho.coefficient((0, 1)) == v
    assert rho.coefficient((1, 0)) == vec_scale(Scalar(-1), v)
    assert vec_is_zero(rho.coefficient((1, 1)))
    # unsorted construction keys fold the sign in
    eta = FormN(basis, 2, {(2, 0): v})
    assert eta.coefficient((0, 2)) == vec_scale(Scalar(-1), v)
    with pytest.raises(ValueError):
        rho.coefficient((0,))
    with pytest.raises(ValueError):
        FormN(basis, 1, {(5,): v})


def test_wedge_of_zero_forms_is_product():
    _, basis = m2_basis()
    A = basis.algebra
    a = A.basis_vector(1)
    b = A.basis_vector(2)
    prod = wedge(form0(basis, a), form0(basis, b))
    assert prod.degree == 0
    assert prod.coefficient(()) == A.multiply(a, b)


def test_wedge_one_forms_expansion():
    _, basis = m2_basis()
    A = basis.algebra
    rng = random.Random(5)
    rho = rand_form(rng, basis, 1)
    eta = rand_form(rng, basis, 1)
    got = wedge(rho, eta).coefficient((0, 1))
    want = vec_add(
        A.multiply(rho.coefficient((0,)), eta.coefficient((1,))),
        vec_scale(
            Scalar(-1),
            A.multiply(rho.coefficient((1,)), eta.coefficient((0,))),
        ),
    )
    assert got == want


def test_wedge_self_scalar_coefficients_vanishes():
    _, basis = m3_basis()
    A = basis.algebra
    rho = FormN(
        basis,
        1,
        {
            (0,): vec_scale(sc(2), A.unit),
            (1,): vec_scale(sc(0, 1), A.unit),
            (2,): vec_scale(sc(Fraction(-1, 3)), A.unit),
        },
    )
    assert wedge(rho, rho).is_zero()


def test_wedge_associative_on_central_coefficients():
    _, basis = m3_basis()
    A = basis.algebra
    rng = random.Random(11)
    forms = []
    for _ in range(3):
        entries = {
            (mu,): vec_scale(
                Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
                A.unit,
            )
            for mu in range(basis.rank)
        }
        forms.append(FormN(basis, 1, entries))
    rho, eta, theta = forms
    assert wedge(wedge(rho, eta), theta) == wedge(rho, wedge(eta, theta))


def test_wedge_matches_full_permutation_sum():
    # the definition: all (n+m)! orderings, signed and scaled by 1/(n! m!)
    _, basis = m3_basis()
    A = basis.algebra
    rng = random.Random(3)
    for n, m in ((0, 2), (1, 1), (1, 2), (2, 1)):
        rho = rand_form(rng, basis, n)
        eta = rand_form(rng, basis, m)
        norm = Scalar(Fraction(1, factorial(n) * factorial(m)))
        for key in combinations(range(basis.rank), n + m):
            want = zero_vec(A.dim)
            for perm in permutations(key):
                inversions = sum(
                    perm[i] > perm[j]
                    for i in range(n + m)
                    for j in range(i + 1, n + m)
                )
                term = A.multiply(rho.coefficient(perm[:n]), eta.coefficient(perm[n:]))
                want = vec_add(want, vec_scale(sc(-1) if inversions % 2 else sc(1), term))
            assert wedge(rho, eta).coefficient(key) == vec_scale(norm, want)


def test_wedge_rejects_basis_mismatch():
    _, b1 = m2_basis()
    _, b2 = m2_basis()
    with pytest.raises(AlgebraError):
        wedge(form0(b1, b1.algebra.unit), form0(b2, b2.algebra.unit))


def test_differential_of_matrix_unit():
    assign, basis = m2_basis()
    A = basis.algebra
    a = A.basis_vector(0)  # E_11
    da = differential_of(basis, a)
    assert vec_is_zero(da.coefficient((0,)))
    # [E_12, E_11] = -E_12
    assert da.coefficient((1,)) == vec_scale(Scalar(-1), A.basis_vector(1))


def test_differential_kills_unit():
    _, basis = m3_basis()
    assert differential_of(basis, basis.algebra.unit).is_zero()
    assert differential_of(
        basis, vec_scale(sc(Fraction(3, 7)), basis.algebra.unit)
    ).is_zero()


def test_d_squared_zero_seeded():
    _, basis = m3_basis(Fraction(1, 2))
    rng = random.Random(0)
    for _ in range(6):
        a = rand_vec(rng, basis.algebra.dim)
        assert koszul_d(differential_of(basis, a)).is_zero()
    for _ in range(6):
        rho = rand_form(rng, basis, 1)
        assert koszul_d(koszul_d(rho)).is_zero()


def test_d_squared_zero_top_degree():
    _, basis = m2_basis()
    rng = random.Random(3)
    rho = rand_form(rng, basis, 1)
    top = koszul_d(rho)
    assert top.degree == 2
    assert koszul_d(top).is_zero()


def test_glued_basis_block_model():
    A, cov, P, assigns = block_setup(Fraction(1, 2))
    gbasis, locals_ = glued_basis(cov, P, assigns)
    assert gbasis.rank == 2
    assert gbasis.bracket_coefficients(0, 1) == (sc(0), sc(0, 2))
    # chart operators are the blocks of the glued ones
    for alpha in (0, 1):
        for mu in range(2):
            lhs = cov.projection(alpha) @ gbasis.operators[mu]
            rhs = locals_[alpha].operators[mu] @ cov.projection(alpha)
            assert lhs.entries == rhs.entries


def test_glob2loc_extracts_block():
    A, cov, P, assigns = block_setup()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rng = random.Random(7)
    rho = rand_form(rng, gbasis, 1)
    for alpha in (0, 1):
        loc = form_glob2loc(rho, cov, P, alpha, locals_[alpha])
        for mu in range(2):
            want = cov.projection(alpha).apply(rho.coefficient((mu,)))
            assert loc.coefficient((mu,)) == tuple(want)


def test_glob2loc_checks_the_functional_without_building_it(monkeypatch):
    A, cov, P, assigns = block_setup()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rho = rand_form(random.Random(7), gbasis, 1)
    swapped = Partition(A, P.elements[::-1])
    witnesses = []
    for alpha in (0, 1):
        with pytest.raises(IllDefined) as err:
            functional(swapped, cov, alpha)
        witnesses.append(err.value.witness)
    monkeypatch.setattr(forms, "functional", lambda *args: pytest.fail("matrix built"))
    for alpha in (0, 1):
        assert form_glob2loc(rho, cov, P, alpha, locals_[alpha]).degree == 1
        # a chart whose chi does not kill its ideal raises as `functional` does
        with pytest.raises(IllDefined) as err:
            form_glob2loc(rho, cov, swapped, alpha, locals_[alpha])
        assert err.value.witness == witnesses[alpha]


def test_loc2glob_roundtrip_block():
    A, cov, P, assigns = block_setup()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rng = random.Random(9)
    for alpha in (0, 1):
        local = rand_form(rng, locals_[alpha], 1)
        glob = form_loc2glob(local, cov, P, alpha, gbasis)
        back = form_glob2loc(glob, cov, P, alpha, locals_[alpha])
        assert back == local


def test_wedge_compat_on_block_model():
    A, cov, P, assigns = block_setup()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rng = random.Random(13)
    rho = rand_form(rng, gbasis, 1)
    eta = rand_form(rng, gbasis, 1)
    a = rand_form(rng, gbasis, 0)
    b = rand_form(rng, gbasis, 0)
    for alpha in (0, 1):
        assert wedge_compat_check(rho, eta, cov, P, alpha, locals_[alpha]) == []
        assert wedge_compat_check(a, b, cov, P, alpha, locals_[alpha]) == []
        assert wedge_compat_check(a, rho, cov, P, alpha, locals_[alpha]) == []


def test_d_locality_on_block_model():
    A, cov, P, assigns = block_setup(Fraction(2))
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rng = random.Random(17)
    for alpha in (0, 1):
        for _ in range(3):
            zero_form = rand_form(rng, gbasis, 0)
            one_form = rand_form(rng, gbasis, 1)
            assert d_locality_check(zero_form, cov, alpha, locals_[alpha]) == []
            assert d_locality_check(one_form, cov, alpha, locals_[alpha]) == []


def test_restrict_form_matches_projection():
    A, cov, P, assigns = block_setup()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rng = random.Random(19)
    rho = rand_form(rng, gbasis, 1)
    for alpha in (0, 1):
        res = restrict_form(rho, cov, alpha, locals_[alpha])
        for mu in range(2):
            want = cov.projection(alpha).apply(rho.coefficient((mu,)))
            assert res.coefficient((mu,)) == tuple(want)


def contract(rho, coefficients):
    """Value of the one-form rho on the derivation sum_mu z_mu D_mu:
    the sum of z_mu times rho on D_mu."""
    A = rho.basis.algebra
    out = zero_vec(A.dim)
    for mu, z in enumerate(coefficients):
        out = vec_add(out, A.multiply(z, rho.coefficient((mu,))))
    return out


def test_one_form_differential_coefficients():
    assign, basis = m2_basis()
    A = basis.algebra
    a = A.basis_vector(1)
    rho = differential_of(basis, a)
    assert rho.degree == 1
    for mu, D in enumerate(basis.operators):
        assert rho.coefficient((mu,)) == tuple(D.apply(a))
    # (da)(X) = X(a)
    for coeffs in (
        [A.unit, A.unit],
        [vec_scale(sc(2), A.unit), vec_scale(sc(1, 1), A.unit)],
    ):
        X = LocalDerivation(assign, coeffs)
        assert contract(rho, coeffs) == tuple(X.apply(a))


def test_one_form_unit_differential_is_zero():
    _, basis = m2_basis()
    A = basis.algebra
    assert differential_of(basis, A.unit).is_zero()
    assert differential_of(basis, vec_scale(sc(3, -2), A.unit)).is_zero()
    assert not differential_of(basis, A.basis_vector(1)).is_zero()


def test_one_form_module_actions():
    assign, basis = m2_basis()
    A = basis.algebra
    rng = random.Random(23)
    rho = rand_form(rng, basis, 1)
    a = rand_vec(rng, A.dim)
    zcoeffs = [vec_scale(sc(2), A.unit), vec_scale(sc(1, 1), A.unit)]
    left = wedge(form0(basis, a), rho)
    right = wedge(rho, form0(basis, a))
    assert left.degree == right.degree == 1
    assert contract(left, zcoeffs) == A.multiply(a, contract(rho, zcoeffs))
    assert contract(right, zcoeffs) == A.multiply(contract(rho, zcoeffs), a)


def test_omega_glue_and_recover_block():
    A, cov, P, assigns = block_setup()
    gbasis, locals_ = glued_basis(cov, P, assigns)
    rng = random.Random(29)
    chart_forms = [rand_form(rng, locals_[alpha], 1) for alpha in (0, 1)]
    glued = FormN.zero(gbasis, 1)
    for alpha, rho in enumerate(chart_forms):
        glued = glued + form_loc2glob(rho, cov, P, alpha, gbasis)
    for alpha in (0, 1):
        back = restrict_form(glued, cov, alpha, locals_[alpha])
        assert back == chart_forms[alpha]


def test_duality_full_rank_canonical():
    _, basis = m3_basis()
    rank, needed = duality_rank(basis)
    assert (rank, needed) == (27, 27)


def test_duality_full_rank_block_center():
    A, cov, P, assigns = block_setup()
    gbasis, _ = glued_basis(cov, P, assigns)
    rank, needed = duality_rank(gbasis)
    assert needed == 2 * A.dim
    assert rank == needed


# -- oracle: the stacked pairing matrix that the one-block rank replaces -----

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def stacked_duality_rank(basis):
    """Rank of the full pairing matrix: column (mu, k) stacks, for each
    center basis vector z and slot nu, z e_k when nu == mu and zeros
    otherwise."""
    A = basis.algebra
    zbasis = center(A).basis
    cols = []
    for mu in range(basis.rank):
        for k in range(A.dim):
            ek = tuple(ONE if i == k else Scalar(0) for i in range(A.dim))
            col = []
            for z in zbasis:
                for nu in range(basis.rank):
                    if nu == mu:
                        col.extend(A.multiply(z, ek))
                    else:
                        col.extend(zero_vec(A.dim))
            cols.append(tuple(col))
    M = Matrix.from_columns(cols, rows=len(zbasis) * basis.rank * A.dim)
    return M.rank(), basis.rank * A.dim


def centerless_basis():
    """span{E_11, E_12} inside M_2 (a a = a, a b = b, b a = b b = 0),
    whose center is zero, with the inner derivation [b, -]."""
    A = StarAlgebra(
        ["a", "b"],
        [((0, ((0, 1),)), (1, ((1, 1),))), ()],
        Matrix.identity(2),
        None,
    )
    b = A.basis_vector(1)
    return DerivationBasis(A, [A.left_mult_matrix(b) - A.right_mult_matrix(b)])


def duality_bases():
    """Every chart and glued basis of the shipped scenarios, glued block
    bases at two kappas, M_2 and M_3 bases, a commutative algebra and an
    algebra with an empty center basis."""
    out = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scn = load_scenario(str(path))
        if scn.action is not None:
            out.append(kappa_basis(scn.action))
        if scn.actions is not None:
            gbasis, local_bases = scn.glued()
            out += [gbasis, *local_bases]
    for kappa in (Fraction(1), Fraction(2, 3)):
        A, cov, P, assigns = block_setup(kappa)
        gbasis, local_bases = glued_basis(cov, P, assigns)
        out += [gbasis, *local_bases]
    out += [m2_basis()[1], m3_basis(Fraction(1, 2))[1]]
    F = make_function_algebra(3)
    out.append(DerivationBasis(F, [Matrix.zero(3, 3), Matrix.zero(3, 3)]))
    out.append(centerless_basis())
    return out


def test_duality_rank_matches_the_stacked_matrix():
    bases = duality_bases()
    assert len(bases) >= 12
    short = 0
    for basis in bases:
        got = duality_rank(basis)
        assert got == stacked_duality_rank(basis), basis.algebra
        short += got[0] < got[1]
    # the commutative and centerless algebras fall short of full rank
    assert short >= 1
    basis = centerless_basis()
    assert center(basis.algebra).basis == ()
    assert duality_rank(basis) == stacked_duality_rank(basis) == (0, 2)
