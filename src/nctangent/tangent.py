"""Derivation actions of the deformed translations on finite algebras,
and the gluing of local derivations into global ones.

An action assignment realizes the d+1 translation generators as linear
operators on a local algebra, each a derivation, with the single
nontrivial bracket [D_0, D_j] = (i/kappa) D_j.  The canonical inner
model on M_N takes m_0 = -(i/kappa) diag(0,1,...,1) and m_j = E_{1,1+j}
and acts by commutators: column j of ad_g is [g, b_j], read from the
structure constants (the oracle, L(g) - R(g), is in the tests).

A local derivation is a central-coefficient combination sum_mu Z^mu D_mu;
`generator_derivation` is D_mu itself, the unit in slot mu.  Its bracket
has the displayed coefficient formula (derivatives of the coefficients
plus a structure-constant term) and must agree with the operator
commutator.  Global derivations are glued through a partition
of unity: X = sum_alpha functional_alpha o X_alpha o pi_alpha, summed
and composed on the operators' nonzero columns, and `decompose` solves
a chart's central coefficients back from sparse equations, one per
matrix cell.
"""

from __future__ import annotations

from fractions import Fraction

from nctangent.algebras import (
    AlgebraError,
    center,
    commutators,
    make_matrix_algebra,
    noncentral_witness,
)
from nctangent.partition import functional
from nctangent.scalars import (
    Immutable,
    MINUS_ONE,
    Matrix,
    Scalar,
    _axpy,
    _cell_equations,
    _scalars,
    solve_linear,
    vec_add,
    vec_scale,
    zero_vec,
)


class NonCentralCoefficient(AlgebraError):
    """A derivation coefficient fails to commute with the algebra."""


class ActionAssignment(Immutable):
    """Operators D_0..D_d on one algebra, expected to be derivations
    with the deformed translation bracket."""

    __slots__ = ("algebra", "d", "kappa", "operators")

    def __init__(self, algebra, d, kappa, operators):
        kappa = Fraction(kappa)
        if kappa <= 0:
            raise ValueError("the deformation parameter must be positive")
        operators = tuple(operators)
        if len(operators) != d + 1:
            raise ValueError("need d+1 operators")
        for D in operators:
            if D.rows != algebra.dim or D.cols != algebra.dim:
                raise ValueError("operator of the wrong shape")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "operators", operators)

    @classmethod
    def from_inner(cls, algebra, d, kappa, generators):
        """Commutator action with the given elements."""
        generators = [tuple(g) for g in generators]
        ops = []
        for g in generators:
            if len(g) != algebra.dim:
                raise AlgebraError("element length mismatch")
            comms = commutators(algebra, g)
            ops.append(Matrix._of(
                [tuple(sorted(comms.get(j, {}).items())) for j in range(algebra.dim)],
                algebra.dim,
            ))
        return cls(algebra, d, kappa, ops)


def canonical_generator_vectors(N, d, kappa):
    """Coordinate vectors of the canonical inner generators in any
    algebra sharing the N x N matrix structure constants."""
    if N < d + 1:
        raise ValueError("need N >= d+1 for the canonical model")
    kappa = Fraction(kappa)
    dim = N * N
    m0 = list(zero_vec(dim))
    for r in range(1, N):
        m0[r * N + r] = Scalar(0, Fraction(-1) / kappa)
    gens = [tuple(m0)]
    for j in range(1, d + 1):
        mj = list(zero_vec(dim))
        mj[j] = Scalar(1)  # E_{1,1+j} sits at flat index 0*N + j
        gens.append(tuple(mj))
    return gens


def canonical_inner_model(N, d, kappa, algebra=None):
    """The reference inner action on the N x N matrix algebra (or on a
    supplied algebra with the same structure constants).  A supplied
    algebra's dimension is compared with N^2 before any generator is
    built, so a huge N is refused without allocating N^2 coordinates."""
    if algebra is not None and algebra.dim != N * N:
        raise ValueError("algebra dimension does not match N")
    gens = canonical_generator_vectors(N, d, kappa)
    if algebra is None:
        algebra = make_matrix_algebra(N)
    return ActionAssignment.from_inner(algebra, d, kappa, gens)


def verify_action(assign):
    """Leibniz on all basis pairs and the translation brackets; returns
    (law, witness) failures."""
    failures = []
    A = assign.algebra
    for mu, D in enumerate(assign.operators):
        for left, right in leibniz_failures(A, D):
            failures.append(("leibniz", (mu, left, right)))
    D0 = assign.operators[0]
    ik = Scalar(0, Fraction(1) / assign.kappa)
    for j in range(1, assign.d + 1):
        Dj = assign.operators[j]
        got = D0 @ Dj - Dj @ D0
        want = Dj.scale(ik)
        if got != want:
            failures.append(("bracket", (0, j)))
        for k in range(j + 1, assign.d + 1):
            Dk = assign.operators[k]
            if not (Dj @ Dk - Dk @ Dj).is_zero():
                failures.append(("bracket", (j, k)))
    return failures


class LocalDerivation(Immutable):
    """Central-coefficient combination of the assigned operators."""

    __slots__ = ("assignment", "coefficients")

    def __init__(self, assignment, coefficients, check=True):
        coefficients = tuple(tuple(c) for c in coefficients)
        if len(coefficients) != assignment.d + 1:
            raise ValueError("need d+1 coefficient elements")
        if check:
            A = assignment.algebra
            for mu, z in enumerate(coefficients):
                w = noncentral_witness(A, z)
                if w is not None:
                    raise NonCentralCoefficient(
                        "coefficient %d is not central" % mu, witness=(mu, w)
                    )
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "coefficients", coefficients)

    def apply(self, a):
        A = self.assignment.algebra
        sums = {}
        for z, D in zip(self.coefficients, self.assignment.operators):
            A._mac(sums, z, D.apply(a))
        return _scalars(sums, A.dim)

    def as_matrix(self):
        A = self.assignment.algebra
        total = Matrix.zero(A.dim, A.dim)
        for z, D in zip(self.coefficients, self.assignment.operators):
            total = total + A.left_mult_matrix(z) @ D
        return total


def generator_derivation(assign, mu):
    """The mu-th basis derivation: unit coefficient in one slot."""
    A = assign.algebra
    coeffs = [
        A.unit if nu == mu else zero_vec(A.dim) for nu in range(assign.d + 1)
    ]
    return LocalDerivation(assign, coeffs)


def bracket(X, Y):
    """Coefficient-formula bracket of two local derivations, each output
    coefficient summed on ints: X_mu D_mu(Y_lam) - Y_mu D_mu(X_lam),
    plus (i/kappa)(X_0 Y_lam - Y_0 X_lam) for lam >= 1, the swing term,
    with i/kappa as the kernel's factor."""
    if X.assignment is not Y.assignment:
        raise AlgebraError("derivations over different assignments")
    assign = X.assignment
    A = assign.algebra
    ik = Scalar(0, Fraction(1) / assign.kappa)
    xs, ys = X.coefficients, Y.coefficients
    out = []
    for lam in range(assign.d + 1):
        sums = {}
        for x, y, D in zip(xs, ys, assign.operators):
            A._mac(sums, x, D.apply(ys[lam]))
            A._mac(sums, y, D.apply(xs[lam]), MINUS_ONE)
        if lam >= 1:
            A._mac(sums, xs[0], ys[lam], ik)
            A._mac(sums, ys[0], xs[lam], -ik)
        out.append(_scalars(sums, A.dim))
    # derivations preserve centrality, so checked inputs give checked
    # outputs; unchecked (negative-control) inputs must still flow
    return LocalDerivation(assign, out, check=False)


def leibniz_failures(algebra, operator):
    """Basis pairs where a linear map breaks the product rule.

    The map is applied to each basis vector once.  For each pair (i, j)
    the three sides D(b_i b_j), D(b_i) b_j and b_i D(b_j) are summed
    into one dict of coordinates, read off the nonzero entries of the
    images and the rows of `terms`: D(b_i b_j) combines the images with
    the constants of b_i . b_j, D(b_i) b_j sums x times b_k . b_j over
    the nonzero coordinates x of D(b_i), and b_i D(b_j) sums y times
    b_i . b_k over the pairs (j, y) with y the k-th coordinate of D(b_j).
    The sums run on ints in the accumulator of `scalars`; a pair fails
    when some sum has a nonzero real or imaginary part.
    """
    n = algebra.dim
    images = [
        tuple((r, y) for r, y in enumerate(operator.apply(algebra.basis_vector(m))) if y)
        for m in range(n)
    ]
    # rows[k] lists (j, y) for the nonzero k-th coordinates y of D(b_j)
    rows = [[] for _ in range(n)]
    for j, image in enumerate(images):
        for k, y in image:
            rows[k].append((j, y))
    failures = []
    for i, terms in enumerate(algebra.terms):
        sums = [{} for _ in range(n)]
        for j, cell in terms:
            for m, c in cell:
                _axpy(sums[j], c._a, c._b, c._q, images[m])
        for k, cell in terms:
            for j, y in rows[k]:
                _axpy(sums[j], -y._a, -y._b, y._q, cell)
        for k, x in images[i]:
            for j, cell in algebra.terms[k]:
                _axpy(sums[j], -x._a, -x._b, x._q, cell)
        for j, total in enumerate(sums):
            if total and any(a or b for a, b, _ in total.values()):
                failures.append((algebra.labels[i], algebra.labels[j]))
    return failures


class GlobalDerivation(Immutable):
    """Partition-glued combination of per-chart local derivations."""

    __slots__ = ("covering", "partition", "locals", "matrix")

    def __init__(self, covering, partition, local_list):
        local_list = tuple(local_list)
        if len(local_list) != covering.size:
            raise AlgebraError("need one local derivation per chart")
        for alpha, X in enumerate(local_list):
            if X.assignment.algebra is not covering.chart(alpha):
                raise AlgebraError(
                    "local derivation %d lives on the wrong chart" % alpha
                )
        n = covering.algebra.dim
        total = Matrix.zero(n, n)
        for alpha, X in enumerate(local_list):
            F = functional(partition, covering, alpha)
            total = total + F @ X.as_matrix() @ covering.projection(alpha)
        object.__setattr__(self, "covering", covering)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "locals", local_list)
        object.__setattr__(self, "matrix", total)


def glue(covering, partition, local_list):
    return GlobalDerivation(covering, partition, local_list)


def project_global(X, alpha):
    """Chart-level matrix of a global derivation: project after routing
    through the chart functional."""
    cov = X.covering
    F = functional(X.partition, cov, alpha)
    return cov.projection(alpha) @ X.matrix @ F


def restrict(X, alpha):
    """Section-based restriction of a global derivation to a chart."""
    cov = X.covering
    return cov.projection(alpha) @ X.matrix @ cov.section(alpha)


def decompose(X, alpha):
    """Recover central coefficients of the chart-projected derivation.

    Solves sum_mu L(Z^mu) D_mu = projected matrix over the chart's
    center, one sparse equation per matrix cell that some L(z) D_mu or
    the projected matrix reaches; raises when no exact solution exists.
    """
    assign = X.locals[alpha].assignment
    A = assign.algebra
    target = project_global(X, alpha)
    zbasis = center(A).basis
    if not zbasis:
        if target.is_zero():
            return tuple(zero_vec(A.dim) for _ in range(assign.d + 1))
        raise AlgebraError("chart has trivial center but nonzero projection")
    products = [
        A.left_mult_matrix(z) @ assign.operators[mu]
        for mu in range(assign.d + 1)
        for z in zbasis
    ]
    # the target's entries are the right-hand sides, at column len(products)
    cells = _cell_equations(products + [target])
    particular = solve_linear(list(cells.values()), len(products))
    if particular is None:
        raise AlgebraError("projected derivation is not center-decomposable")
    out = []
    pos = 0
    for mu in range(assign.d + 1):
        coeff = zero_vec(A.dim)
        for z in zbasis:
            coeff = vec_add(coeff, vec_scale(particular[pos], z))
            pos += 1
        out.append(coeff)
    return tuple(out)
