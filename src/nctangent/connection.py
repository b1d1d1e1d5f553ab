"""Linear connection on the central-coefficient derivation module.

Connection coefficients form a grid of central algebra elements indexed
by three generator slots.  Covariant derivatives follow the coefficient
display: a Gamma contraction plus the first argument acting on the
second argument's coefficients.  Curvature is computed two independent
ways, as a commutator of covariant derivatives and through the component
formula, and the module's central check is that both agree on every
basis triple.  The operator side of that check builds each covariant
derivative of the generators once and shares it between triples; the
component side is computed on its own, sharing nothing with it, and
`curvature_operator` is the unshared operator route for one triple.
Both sides read only the nonzero Gamma entries and skip zero images, so
a zero connection makes no products; the unskipped component formula
is the oracle in tests/test_calculus_routes.py.
"""

from fractions import Fraction

from nctangent.algebras import AlgebraError, noncentral_witness
from nctangent.scalars import (
    Immutable,
    MINUS_ONE,
    Scalar,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from nctangent.tangent import LocalDerivation, bracket, generator_derivation


class InvalidConnection(AlgebraError):
    """Coefficient grid breaks centrality or anti-hermiticity."""


class ConnectionCoefficients(Immutable):
    """Gamma grid over an action assignment; entry(mu, nu, lam) is the
    coefficient of the lam-th generator in the derivative of slot nu
    along slot mu.  `_by_lam[lam]` lists the (mu, nu, entry) triples
    with a nonzero entry, in ascending (mu, nu), for `nabla`.
    `_checked` keeps the constructor's `coefficient_failures`, or None
    when it was built unchecked."""

    __slots__ = ("assignment", "grid", "_by_lam", "_checked")

    def __init__(self, assignment, grid, check=True):
        n = assignment.d + 1
        grid = tuple(
            tuple(tuple(tuple(entry) for entry in row) for row in plane)
            for plane in grid
        )
        if len(grid) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in grid
        ):
            raise ValueError("grid must be (d+1) cubed")
        dim = assignment.algebra.dim
        for plane in grid:
            for row in plane:
                for entry in row:
                    if len(entry) != dim:
                        raise ValueError("entry of the wrong dimension")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(
            self,
            "_by_lam",
            tuple(
                tuple(
                    (mu, nu, grid[mu][nu][lam])
                    for mu in range(n)
                    for nu in range(n)
                    if not vec_is_zero(grid[mu][nu][lam])
                )
                for lam in range(n)
            ),
        )
        bad = coefficient_failures(self) if check else None
        object.__setattr__(self, "_checked", bad)
        if bad:
            raise InvalidConnection(
                "coefficient grid fails the %s condition" % bad[0][0],
                witness=bad[0],
            )

    @classmethod
    def zero(cls, assignment):
        n = assignment.d + 1
        z = zero_vec(assignment.algebra.dim)
        return cls(assignment, [[[z] * n] * n] * n)

    @classmethod
    def constant(cls, assignment, value, check=True):
        """Every entry the same scalar multiple of the unit."""
        n = assignment.d + 1
        e = vec_scale(Scalar.promote(value), assignment.algebra.unit)
        return cls(assignment, [[[e] * n] * n] * n, check=check)

    def entry(self, mu, nu, lam):
        return self.grid[mu][nu][lam]

    def failures(self):
        """`coefficient_failures` of this grid, read from the constructor's
        check when it made one."""
        if self._checked is None:
            return coefficient_failures(self)
        return self._checked


def coefficient_failures(gamma):
    """Centrality and anti-hermiticity violations as (kind, index)."""
    A = gamma.assignment.algebra
    n = gamma.assignment.d + 1
    failures = []
    for mu in range(n):
        for nu in range(n):
            for lam in range(n):
                e = gamma.entry(mu, nu, lam)
                if noncentral_witness(A, e) is not None:
                    failures.append(("central", (mu, nu, lam)))
                if not vec_is_zero(vec_add(A.involute(e), e)):
                    failures.append(("hermiticity", (mu, nu, lam)))
    return failures


def nabla(gamma, X, Y):
    """Covariant derivative of Y along X: the Gamma contraction of the
    coefficient products plus X's coefficients times the generator
    actions on Y's coefficients.

    Only the nonzero Gamma entries enter the contraction, each with the
    product X_mu Y_nu built once per (mu, nu) and skipped when zero; a
    zero connection makes no products.  A zero X_mu, Y_lam or image
    D_mu(Y_lam) adds nothing to the action term and is skipped too.
    """
    assign = gamma.assignment
    if X.assignment is not assign or Y.assignment is not assign:
        raise AlgebraError("derivations live over a different assignment")
    A = assign.algebra
    xs = X.coefficients
    ys = Y.coefficients
    acting = [(x, D) for x, D in zip(xs, assign.operators) if not vec_is_zero(x)]
    prods = {}  # (mu, nu) -> X_mu Y_nu, or None when it is zero
    out = []
    for lam, entries in enumerate(gamma._by_lam):
        total = zero_vec(A.dim)
        for mu, nu, g in entries:
            if (mu, nu) not in prods:
                prod = A.multiply(xs[mu], ys[nu])
                prods[(mu, nu)] = None if vec_is_zero(prod) else prod
            prod = prods[(mu, nu)]
            if prod is not None:
                total = vec_add(total, A.multiply(prod, g))
        if not vec_is_zero(ys[lam]):
            for x, D in acting:
                image = D.apply(ys[lam])
                if not vec_is_zero(image):
                    total = vec_add(total, A.multiply(x, image))
        out.append(total)
    # valid inputs give central output; unchecked negative-control grids
    # must still flow through
    return LocalDerivation(assign, out, check=False)


def star_derivation(X):
    """Involution on derivations: negated involutes of the coefficients."""
    A = X.assignment.algebra
    coeffs = [
        vec_scale(MINUS_ONE, A.involute(c)) for c in X.coefficients
    ]
    return LocalDerivation(X.assignment, coeffs, check=False)


def _scale_coeffs(X, z, side):
    A = X.assignment.algebra
    if side == "left":
        coeffs = [A.multiply(z, c) for c in X.coefficients]
    else:
        coeffs = [A.multiply(c, z) for c in X.coefficients]
    return LocalDerivation(X.assignment, coeffs, check=False)


def verify_connection_axioms(gamma, samples):
    """Leibniz and linearity in both module actions plus hermiticity,
    over samples of (X, Y, central element); failures carry the axiom
    name and the sample index."""
    assign = gamma.assignment
    A = assign.algebra
    failures = []
    for idx, (X, Y, z) in enumerate(samples):
        z = tuple(z)
        base = nabla(gamma, X, Y)
        xz = X.apply(z)
        # Leibniz in the second argument, both sides
        left = nabla(gamma, X, _scale_coeffs(Y, z, "left"))
        want = [
            vec_add(A.multiply(z, c), A.multiply(xz, yc))
            for c, yc in zip(base.coefficients, Y.coefficients)
        ]
        if list(left.coefficients) != want:
            failures.append(("leibniz-left", idx))
        right = nabla(gamma, X, _scale_coeffs(Y, z, "right"))
        want = [
            vec_add(A.multiply(c, z), A.multiply(yc, xz))
            for c, yc in zip(base.coefficients, Y.coefficients)
        ]
        if list(right.coefficients) != want:
            failures.append(("leibniz-right", idx))
        # linearity in the first argument, both sides
        scaled = nabla(gamma, _scale_coeffs(X, z, "left"), Y)
        want = [A.multiply(z, c) for c in base.coefficients]
        if list(scaled.coefficients) != want:
            failures.append(("linearity-left", idx))
        scaled = nabla(gamma, _scale_coeffs(X, z, "right"), Y)
        want = [A.multiply(c, z) for c in base.coefficients]
        if list(scaled.coefficients) != want:
            failures.append(("linearity-right", idx))
        # hermiticity
        lhs = star_derivation(base)
        rhs = nabla(gamma, star_derivation(X), star_derivation(Y))
        if lhs.coefficients != rhs.coefficients:
            failures.append(("hermiticity", idx))
    return failures


def structure_scalar(kappa, mu, nu, lam):
    """Structure constant of the deformed translation bracket."""
    inv = Fraction(1) / Fraction(kappa)
    total = Scalar(0)
    if mu == 0 and nu == lam:
        total = total + Scalar(0, inv)
    if nu == 0 and mu == lam:
        total = total - Scalar(0, inv)
    return total


class CurvatureTensor(Immutable):
    """Grid entry(mu, nu, lam, tau): the tau-component of the curvature
    applied to the (mu, nu, lam) basis triple."""

    __slots__ = ("assignment", "grid")

    def __init__(self, assignment, grid):
        n = assignment.d + 1
        grid = tuple(
            tuple(
                tuple(tuple(tuple(e) for e in row) for row in plane)
                for plane in cube
            )
            for cube in grid
        )
        for mu in range(n):
            for nu in range(n):
                for lam in range(n):
                    for tau in range(n):
                        flipped = vec_scale(MINUS_ONE, grid[nu][mu][lam][tau])
                        if grid[mu][nu][lam][tau] != flipped:
                            raise AlgebraError(
                                "curvature grid is not antisymmetric at "
                                "%s" % ((mu, nu, lam, tau),)
                            )
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "grid", grid)

    def entry(self, mu, nu, lam, tau):
        return self.grid[mu][nu][lam][tau]

    def is_zero(self):
        return all(
            vec_is_zero(e)
            for cube in self.grid
            for plane in cube
            for row in plane
            for e in row
        )


def curvature_components(gamma):
    """Component formula: generator derivatives of Gamma, the quadratic
    Gamma contraction, and the structure-constant term, over the nonzero
    Gamma entries only."""
    assign = gamma.assignment
    A = assign.algebra
    n = assign.d + 1
    # (mu, nu, lam) -> the entry, for the nonzero entries only
    G = {(mu, nu, lam): g for lam, by in enumerate(gamma._by_lam) for mu, nu, g in by}
    grid = []
    for mu in range(n):
        cube = []
        for nu in range(n):
            plane = []
            for lam in range(n):
                row = []
                for tau in range(n):
                    total = zero_vec(A.dim)
                    for D, g, add in (
                        (assign.operators[mu], G.get((nu, lam, tau)), vec_add),
                        (assign.operators[nu], G.get((mu, lam, tau)), vec_sub),
                    ):
                        if g is not None:
                            image = D.apply(g)
                            if not vec_is_zero(image):
                                total = add(total, image)
                    for sigma in range(n):
                        for g, h, add in (
                            (G.get((nu, lam, sigma)), G.get((mu, sigma, tau)), vec_add),
                            (G.get((mu, lam, sigma)), G.get((nu, sigma, tau)), vec_sub),
                        ):
                            if g is not None and h is not None:
                                total = add(total, A.multiply(g, h))
                        g = G.get((sigma, lam, tau))
                        if g is not None:
                            c = structure_scalar(assign.kappa, mu, nu, sigma)
                            if c:
                                total = vec_sub(total, vec_scale(c, g))
                    row.append(total)
                plane.append(row)
            cube.append(plane)
        grid.append(cube)
    return CurvatureTensor(assign, grid)


def curvature_operator(gamma, X, Y, Z):
    """Commutator of covariant derivatives minus the derivative along
    the bracket, from five `nabla` calls.  `curvature_cross_check` gets
    the same values with the covariant derivatives shared between basis
    triples; this function is the reference for it."""
    first = nabla(gamma, X, nabla(gamma, Y, Z))
    second = nabla(gamma, Y, nabla(gamma, X, Z))
    third = nabla(gamma, bracket(X, Y), Z)
    return _curvature_from(gamma, first, second, third)


def _curvature_from(gamma, first, second, third):
    """R(X, Y)Z = first - second - third, coefficient by coefficient."""
    coeffs = [
        vec_sub(vec_sub(a, b), c)
        for a, b, c in zip(
            first.coefficients, second.coefficients, third.coefficients
        )
    ]
    return LocalDerivation(gamma.assignment, coeffs, check=False)


def curvature_cross_check(gamma):
    """Basis triples where the operator curvature disagrees with the
    component formula; empty means the two routes coincide.

    The operator side shares its covariant derivatives between triples:
    nabla(e_b, e_c) is built once per generator pair and
    nabla(e_a, nabla(e_b, e_c)) once per triple, so the `second` term of
    (mu, nu, lam) is the `first` term of (nu, mu, lam).  Only the
    derivative along each bracket is built per triple.  The component
    route, `curvature_components`, shares nothing with it.
    """
    assign = gamma.assignment
    n = assign.d + 1
    tensor = curvature_components(gamma)
    basis = [generator_derivation(assign, mu) for mu in range(n)]
    inner = [[nabla(gamma, Y, Z) for Z in basis] for Y in basis]
    outer = [
        [[nabla(gamma, X, YZ) for YZ in row] for row in inner] for X in basis
    ]
    failures = []
    for mu in range(n):
        for nu in range(n):
            XY = bracket(basis[mu], basis[nu])
            for lam in range(n):
                op = _curvature_from(
                    gamma,
                    outer[mu][nu][lam],
                    outer[nu][mu][lam],
                    nabla(gamma, XY, basis[lam]),
                )
                want = [
                    tensor.entry(mu, nu, lam, tau) for tau in range(n)
                ]
                if list(op.coefficients) != want:
                    failures.append((mu, nu, lam))
    return failures


def random_connection(assign, rng, span=3):
    """Seeded valid connection: every entry an independent draw of an
    anti-hermitian central element, an imaginary rational combination of
    hermitized center basis vectors.  The center is solved once."""
    from nctangent.algebras import center

    n = assign.d + 1
    A = assign.algebra
    hermitian = []
    for c in center(A).basis:
        h = vec_add(c, A.involute(c))
        if vec_is_zero(h):
            # anti-hermitian basis vector: i times it is hermitian
            h = vec_scale(Scalar(0, 1), c)
        hermitian.append(h)

    draws = range(-span, span + 1)

    def draw():
        out = zero_vec(A.dim)
        for h in hermitian:
            t = rng.choice(draws)
            out = vec_add(out, vec_scale(Scalar(0, t), h))
        return out

    grid = [[[draw() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return ConnectionCoefficients(assign, grid)
