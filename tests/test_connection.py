import inspect
import random
from fractions import Fraction

import pytest

from nctangent import connection
from nctangent.algebras import AlgebraError, StarAlgebra, direct_sum, make_matrix_algebra
from nctangent.connection import (
    ConnectionCoefficients,
    InvalidConnection,
    coefficient_failures,
    curvature_components,
    curvature_cross_check,
    curvature_operator,
    nabla,
    random_connection,
    star_derivation,
    structure_scalar,
    verify_connection_axioms,
)
from nctangent.scalars import (
    Matrix,
    Scalar,
    Scalar as sc,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vec,
)
from nctangent.tangent import (
    ActionAssignment,
    LocalDerivation,
    canonical_generator_vectors,
    canonical_inner_model,
    generator_derivation,
)


def sum_model():
    """Blockwise canonical action on M_2 + M_2, center of dimension two."""
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(2))
    gens = []
    for g in canonical_generator_vectors(2, 1, Fraction(1)):
        gens.append(tuple(g) + tuple(g))
    return ActionAssignment.from_inner(A, 1, Fraction(1), gens)


def central_samples(assign, rng, count=4):
    A = assign.algebra
    out = []
    for _ in range(count):
        X = LocalDerivation(
            assign,
            [
                vec_scale(
                    Scalar(
                        Fraction(rng.randint(-2, 2)),
                        Fraction(rng.randint(-2, 2)),
                    ),
                    A.unit,
                )
                for _ in range(assign.d + 1)
            ],
        )
        Y = LocalDerivation(
            assign,
            [
                vec_scale(
                    Scalar(
                        Fraction(rng.randint(-2, 2)),
                        Fraction(rng.randint(-2, 2)),
                    ),
                    A.unit,
                )
                for _ in range(assign.d + 1)
            ],
        )
        z = vec_scale(
            Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))),
            A.unit,
        )
        out.append((X, Y, z))
    return out


def test_constructor_rejects_noncentral_entry():
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    z = zero_vec(A.dim)
    grid = [[[z, z], [z, z]], [[z, z], [A.basis_vector(1), z]]]
    with pytest.raises(InvalidConnection) as err:
        ConnectionCoefficients(assign, grid)
    assert err.value.witness == ("central", (1, 1, 0))


def test_constructor_rejects_real_scalar():
    assign = canonical_inner_model(2, 1, 1)
    with pytest.raises(InvalidConnection) as err:
        ConnectionCoefficients.constant(assign, 2)
    assert err.value.witness[0] == "hermiticity"
    # the unchecked constructor admits it for negative controls
    gamma = ConnectionCoefficients.constant(assign, 2, check=False)
    bad = coefficient_failures(gamma)
    assert ("hermiticity", (0, 0, 0)) in bad
    assert all(kind == "hermiticity" for kind, _ in bad)


def test_nabla_zero_gamma_constant_arguments():
    assign = canonical_inner_model(2, 1, 1)
    gamma = ConnectionCoefficients.zero(assign)
    X = generator_derivation(assign, 0)
    Y = generator_derivation(assign, 1)
    out = nabla(gamma, X, Y)
    assert all(vec_is_zero(c) for c in out.coefficients)


def test_nabla_generator_contraction():
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    gamma = ConnectionCoefficients.constant(assign, sc(0, 1))
    out = nabla(gamma, generator_derivation(assign, 0), generator_derivation(assign, 1))
    for lam in range(2):
        assert out.coefficients[lam] == vec_scale(sc(0, 1), A.unit)


def test_nabla_derivative_term_on_sum_model():
    assign = sum_model()
    A = assign.algebra
    gamma = ConnectionCoefficients.constant(assign, sc(0, 1))
    u1 = vec_add(A.basis_vector(0), A.basis_vector(3))
    u2 = vec_add(A.basis_vector(4), A.basis_vector(7))
    X = LocalDerivation(assign, [A.unit, u1])
    Y = LocalDerivation(assign, [u2, vec_scale(sc(2), u1)])
    out = nabla(gamma, X, Y)
    # reassemble: Gamma contraction plus first argument acting on the
    # second argument's coefficients, computed by hand
    for lam in range(2):
        contraction = zero_vec(A.dim)
        for mu in range(2):
            for nu in range(2):
                prod = A.multiply(X.coefficients[mu], Y.coefficients[nu])
                contraction = vec_add(
                    contraction,
                    A.multiply(prod, gamma.entry(mu, nu, lam)),
                )
        derivative = zero_vec(A.dim)
        for mu in range(2):
            derivative = vec_add(
                derivative,
                A.multiply(
                    X.coefficients[mu],
                    assign.operators[mu].apply(Y.coefficients[lam]),
                ),
            )
        # inner actions kill the center, so the derivative part is zero
        assert vec_is_zero(derivative)
        assert out.coefficients[lam] == contraction


def test_axioms_pass_for_imaginary_gamma():
    assign = canonical_inner_model(2, 1, Fraction(1, 2))
    gamma = ConnectionCoefficients.constant(assign, sc(0, 1))
    rng = random.Random(1)
    assert verify_connection_axioms(gamma, central_samples(assign, rng)) == []


def test_axioms_pass_on_sum_model_center():
    assign = sum_model()
    rng = random.Random(2)
    gamma = random_connection(assign, rng)
    samples = central_samples(assign, rng)
    # add a sample with blockwise distinct central elements
    A = assign.algebra
    u1 = vec_add(A.basis_vector(0), A.basis_vector(3))
    u2 = vec_add(A.basis_vector(4), A.basis_vector(7))
    z = vec_add(vec_scale(sc(2), u1), vec_scale(sc(0, -1), u2))
    X = LocalDerivation(assign, [u1, u2])
    Y = LocalDerivation(assign, [A.unit, vec_scale(sc(3), u2)])
    samples.append((X, Y, z))
    assert verify_connection_axioms(gamma, samples) == []


def test_real_gamma_fails_hermiticity_with_witness():
    assign = canonical_inner_model(2, 1, 1)
    gamma = ConnectionCoefficients.constant(assign, 1, check=False)
    rng = random.Random(3)
    failures = verify_connection_axioms(gamma, central_samples(assign, rng))
    assert failures
    assert all(name == "hermiticity" for name, _ in failures)


def test_structure_scalar_values():
    assert structure_scalar(Fraction(1, 2), 0, 1, 1) == sc(0, 2)
    assert structure_scalar(Fraction(1, 2), 1, 0, 1) == sc(0, -2)
    assert not structure_scalar(1, 1, 2, 1)
    assert not structure_scalar(1, 0, 0, 0)


def test_curvature_zero_gamma():
    assign = canonical_inner_model(3, 2, 1)
    gamma = ConnectionCoefficients.zero(assign)
    tensor = curvature_components(gamma)
    assert all(
        vec_is_zero(e) for cube in tensor.grid for plane in cube for row in plane for e in row
    )
    X = generator_derivation(assign, 0)
    Y = generator_derivation(assign, 1)
    Z = generator_derivation(assign, 2)
    out = curvature_operator(gamma, X, Y, Z)
    assert all(vec_is_zero(c) for c in out.coefficients)


def test_curvature_constant_imaginary_frozen():
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    gamma = ConnectionCoefficients.constant(assign, sc(0, 1))
    R = curvature_components(gamma)
    for lam in range(2):
        for tau in range(2):
            assert R.entry(0, 1, lam, tau) == tuple(A.unit)
            assert R.entry(1, 0, lam, tau) == vec_scale(sc(-1), A.unit)
            assert vec_is_zero(R.entry(0, 0, lam, tau))
            assert vec_is_zero(R.entry(1, 1, lam, tau))


def test_curvature_operator_matches_components():
    for kappa in (Fraction(1), Fraction(1, 2)):
        assign = canonical_inner_model(3, 2, kappa)
        rng = random.Random(5)
        for _ in range(2):
            gamma = random_connection(assign, rng)
            assert curvature_cross_check(gamma) == []


def test_curvature_operator_matches_components_sum_model():
    assign = sum_model()
    rng = random.Random(7)
    gamma = random_connection(assign, rng)
    assert curvature_cross_check(gamma) == []


def test_curvature_operator_antisymmetric_arguments():
    assign = canonical_inner_model(2, 1, 1)
    rng = random.Random(9)
    gamma = random_connection(assign, rng)
    X = generator_derivation(assign, 1)
    Z = generator_derivation(assign, 0)
    out = curvature_operator(gamma, X, X, Z)
    assert all(vec_is_zero(c) for c in out.coefficients)


def test_star_derivation_involution():
    assign = canonical_inner_model(2, 1, 1)
    A = assign.algebra
    X = LocalDerivation(assign, [vec_scale(sc(1, 2), A.unit), A.unit])
    again = star_derivation(star_derivation(X))
    assert again.coefficients == X.coefficients


def test_nabla_rejects_foreign_derivation():
    assign = canonical_inner_model(2, 1, 1)
    other = canonical_inner_model(2, 1, 1)
    gamma = ConnectionCoefficients.zero(assign)
    with pytest.raises(AlgebraError):
        nabla(gamma, generator_derivation(other, 0), generator_derivation(assign, 0))


def per_entry_random_grid(assign, rng, span=3):
    """The seeded grid drawn entry by entry, solving the center for each
    entry: the reference for the draw order of random_connection."""
    from nctangent.algebras import center

    A = assign.algebra
    n = assign.d + 1

    def draw():
        out = zero_vec(A.dim)
        for c in center(A).basis:
            h = vec_add(c, A.involute(c))
            if vec_is_zero(h):
                h = vec_scale(sc(0, 1), c)
            out = vec_add(out, vec_scale(Scalar(0, Fraction(rng.randint(-span, span))), h))
        return out

    return [[[draw() for _ in range(n)] for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize(
    "make_assign",
    [
        lambda: canonical_inner_model(2, 1, Fraction(2, 3)),
        lambda: canonical_inner_model(3, 2, 1),
        sum_model,
    ],
)
def test_random_connection_solves_the_center_once(monkeypatch, make_assign):
    assign = make_assign()
    for seed in range(4):
        want = per_entry_random_grid(assign, random.Random(seed))
        calls = []
        real = connection.center
        monkeypatch.setattr(connection, "center", lambda A: calls.append(A) or real(A))
        gamma = random_connection(assign, random.Random(seed))
        monkeypatch.undo()
        assert len(calls) == 1
        assert [[list(row) for row in plane] for plane in gamma.grid] == want


# -- oracle: the cross-check with five `nabla` calls per basis triple --------


def per_triple_cross_check(gamma):
    """Basis triples where `curvature_operator`, built afresh for every
    triple, disagrees with the component formula: the route that the
    shared covariant derivatives of `curvature_cross_check` replace."""
    assign = gamma.assignment
    n = assign.d + 1
    tensor = curvature_components(gamma)
    basis = [generator_derivation(assign, mu) for mu in range(n)]
    failures = []
    for mu in range(n):
        for nu in range(n):
            for lam in range(n):
                op = curvature_operator(gamma, basis[mu], basis[nu], basis[lam])
                if list(op.coefficients) != [
                    tensor.entry(mu, nu, lam, tau) for tau in range(n)
                ]:
                    failures.append((mu, nu, lam))
    return failures


class OperatorTensor:
    """Component tensor whose entries are the five-`nabla` operator
    curvature, one triple optionally nudged off it."""

    def __init__(self, gamma, nudge=None):
        assign = gamma.assignment
        n = assign.d + 1
        basis = [generator_derivation(assign, mu) for mu in range(n)]
        self.values = {
            (mu, nu, lam): list(
                curvature_operator(gamma, basis[mu], basis[nu], basis[lam]).coefficients
            )
            for mu in range(n)
            for nu in range(n)
            for lam in range(n)
        }
        if nudge is not None:
            A = assign.algebra
            self.values[nudge][0] = vec_add(self.values[nudge][0], A.unit)

    def entry(self, mu, nu, lam, tau):
        return self.values[(mu, nu, lam)][tau]


def curvature_cases():
    """(d, connection) pairs for d = 1 and d = 2: zero, constant and
    seeded connections on the canonical model and the block sum."""
    out = []
    for d, N, kappa in ((1, 2, Fraction(1)), (1, 2, Fraction(2, 3)), (2, 3, Fraction(1, 2))):
        assign = canonical_inner_model(N, d, kappa)
        out += [
            (d, ConnectionCoefficients.zero(assign)),
            (d, ConnectionCoefficients.constant(assign, sc(0, 2))),
            (d, random_connection(assign, random.Random(N))),
        ]
    out.append((1, random_connection(sum_model(), random.Random(11))))
    return out


def test_cross_check_matches_the_five_nabla_operator_on_every_triple(monkeypatch):
    for d, gamma in curvature_cases():
        n = d + 1
        assert curvature_cross_check(gamma) == per_triple_cross_check(gamma) == []
        # against a component tensor made of curvature_operator values, the
        # shared derivatives agree exactly on every triple ...
        monkeypatch.setattr(connection, "curvature_components", OperatorTensor)
        assert curvature_cross_check(gamma) == []
        # ... and a tensor nudged at one triple is caught at that triple only
        for nudge in ((0, n - 1, 0), (n - 1, 0, n - 1), (1, 1, 0)):
            monkeypatch.setattr(
                connection,
                "curvature_components",
                lambda g, nudge=nudge: OperatorTensor(g, nudge),
            )
            assert curvature_cross_check(gamma) == [nudge]
        monkeypatch.undo()


def broken_action(N, d):
    """The canonical action with i times the identity added to D_1, so D_1
    no longer kills the unit.  On an action of derivations the two routes
    agree on the generator triples for any grid, real or non-central
    entries included, so a negative control must break the action too."""
    assign = canonical_inner_model(N, d, 1)
    A = assign.algebra
    ops = list(assign.operators)
    ops[1] = ops[1] + Matrix.identity(A.dim).scale(sc(0, 1))
    return ActionAssignment(A, d, 1, ops)


@pytest.mark.parametrize("d, N", [(1, 2), (2, 3)])
def test_cross_check_negative_controls_match_the_five_nabla_route(d, N):
    assign = broken_action(N, d)
    A = assign.algebra
    n = d + 1
    noncentral = [
        [
            [
                vec_scale(sc(mu + 1, nu - lam), A.basis_vector(1))
                if (mu + nu + lam) % 2
                else A.unit
                for lam in range(n)
            ]
            for nu in range(n)
        ]
        for mu in range(n)
    ]
    grids = [
        ConnectionCoefficients.constant(assign, 2, check=False),
        ConnectionCoefficients(assign, noncentral, check=False),
    ]
    assert coefficient_failures(grids[1])
    for gamma in grids:
        want = per_triple_cross_check(gamma)
        assert want and len(want) < n ** 3
        assert curvature_cross_check(gamma) == want


def per_lam_nabla(gamma, X, Y):
    """`nabla` with the coefficient products built again for every lam and
    zero products kept: the route that hoisting them replaces."""
    assign = gamma.assignment
    A = assign.algebra
    n = assign.d + 1
    out = []
    for lam in range(n):
        total = zero_vec(A.dim)
        for mu in range(n):
            for nu in range(n):
                prod = A.multiply(X.coefficients[mu], Y.coefficients[nu])
                total = vec_add(total, A.multiply(prod, gamma.entry(mu, nu, lam)))
        for mu in range(n):
            total = vec_add(
                total,
                A.multiply(
                    X.coefficients[mu],
                    assign.operators[mu].apply(Y.coefficients[lam]),
                ),
            )
        out.append(total)
    return tuple(out)


def noncentral_grid(assign, zero_every=0):
    """An unchecked grid of unit and non-central entries; with zero_every
    = k, the entries whose index sum is a multiple of k are zero."""
    A = assign.algebra
    n = assign.d + 1

    def entry(mu, nu, lam):
        if zero_every and (mu + nu + lam) % zero_every == 0:
            return zero_vec(A.dim)
        if (mu + nu + lam) % 2:
            return vec_scale(sc(mu + 1, nu - lam), A.basis_vector(1))
        return A.unit

    grid = [[[entry(mu, nu, lam) for lam in range(n)] for nu in range(n)] for mu in range(n)]
    return ConnectionCoefficients(assign, grid, check=False)


def thinned_connection(assign, rng):
    """A seeded connection with the entries of even index sum zeroed; a
    zero entry is central and anti-hermitian, so the grid stays valid."""
    grid = random_connection(assign, rng).grid
    n = assign.d + 1
    z = zero_vec(assign.algebra.dim)
    thinned = [
        [
            [z if (mu + nu + lam) % 2 == 0 else grid[mu][nu][lam] for lam in range(n)]
            for nu in range(n)
        ]
        for mu in range(n)
    ]
    return ConnectionCoefficients(assign, thinned)


def nabla_cases():
    """(d, connection) pairs: the zero, constant and seeded grids of
    `curvature_cases`, thinned seeded grids, and unchecked grids (a
    constant one on the broken action, non-central ones with and without
    zero entries)."""
    out = list(curvature_cases())
    out += [
        (1, thinned_connection(sum_model(), random.Random(5))),
        (2, thinned_connection(canonical_inner_model(3, 2, Fraction(3, 5)), random.Random(6))),
        (1, ConnectionCoefficients.constant(broken_action(2, 1), 2, check=False)),
        (1, noncentral_grid(canonical_inner_model(2, 1, 1))),
        (1, noncentral_grid(sum_model(), zero_every=2)),
        (2, noncentral_grid(broken_action(3, 2), zero_every=3)),
    ]
    assert coefficient_failures(out[-1][1])
    return out


def nabla_samples(d, gamma, rng):
    """Generator pairs, seeded central samples, and non-central
    derivations with zero and nonzero slots."""
    assign = gamma.assignment
    A = assign.algebra
    basis = [generator_derivation(assign, mu) for mu in range(d + 1)]
    samples = [(X, Y) for X in basis for Y in basis]
    samples += [(X, Y) for X, Y, _ in central_samples(assign, rng, count=2)]
    for _ in range(2):
        X, Y = (
            LocalDerivation(
                assign,
                [
                    zero_vec(A.dim)
                    if rng.random() < 0.3
                    else tuple(sc(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(A.dim))
                    for _ in range(d + 1)
                ],
                check=False,
            )
            for _ in range(2)
        )
        samples.append((X, Y))
    return samples


def test_nabla_matches_the_per_lam_route():
    rng = random.Random(13)
    for d, gamma in nabla_cases():
        for X, Y in nabla_samples(d, gamma, rng):
            inner = nabla(gamma, X, Y)
            assert inner.coefficients == per_lam_nabla(gamma, X, Y)
            assert nabla(gamma, Y, inner).coefficients == per_lam_nabla(gamma, Y, inner)


def test_zero_connection_makes_no_products(monkeypatch):
    assign = canonical_inner_model(3, 1, Fraction(1, 2))
    gamma = ConnectionCoefficients.zero(assign)
    basis = [generator_derivation(assign, mu) for mu in range(2)]
    pairs = [(X, Y) for X in basis for Y in basis]
    want = [per_lam_nabla(gamma, X, Y) for X, Y in pairs]
    calls = []
    real, real_mac = StarAlgebra.multiply, StarAlgebra._mac
    monkeypatch.setattr(
        StarAlgebra, "multiply", lambda self, u, v: calls.append(1) or real(self, u, v)
    )
    monkeypatch.setattr(
        StarAlgebra, "_mac", lambda self, *args: calls.append(2) or real_mac(self, *args)
    )
    assert [nabla(gamma, X, Y).coefficients for X, Y in pairs] == want
    # no Gamma entry is nonzero, and the action kills the unit coefficients
    assert calls == []
    per_lam_nabla(gamma, *pairs[0])
    assert calls


def mutated_nabla(old, new):
    """`nabla` with one fragment of its source replaced, compiled in the
    module's namespace."""
    source = inspect.getsource(connection.nabla)
    assert source.count(old) == 1
    namespace = dict(vars(connection))
    exec(compile(source.replace(old, new), connection.__file__, "exec"), namespace)
    return namespace["nabla"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("for mu, nu, g in entries:", "for mu, nu, g in entries[1:]:"),
        ("if not vec_is_zero(image):", "if vec_is_zero(image):"),
        ("prods[(mu, nu)] = None if", "prods[(mu, nu)] = None if True or"),
    ],
    ids=["one-gamma-entry-skipped", "nonzero-images-skipped", "every-product-zero"],
)
def test_nabla_oracle_catches_mutants(old, new):
    mutant = mutated_nabla(old, new)
    rng = random.Random(17)
    caught = [
        (X, Y)
        for d, gamma in nabla_cases()
        for X, Y in nabla_samples(d, gamma, rng)
        if mutant(gamma, X, Y).coefficients != per_lam_nabla(gamma, X, Y)
    ]
    assert caught
