"""Derivation actions of the deformed translations on finite algebras,
and the gluing of local derivations into global ones.

An action assignment realizes the d+1 translation generators as linear
operators on a local algebra, each a derivation, with the single
nontrivial bracket [D_0, D_j] = (i/kappa) D_j.  The canonical inner
model on M_N takes m_0 = -(i/kappa) diag(0,1,...,1) and m_j = E_{1,1+j}
and acts by commutators: column j of ad_g is [g, b_j], read from the
structure constants (the oracle, L(g) - R(g), is in the tests).

A local derivation is a central-coefficient combination sum_mu Z^mu D_mu;
its bracket has the displayed coefficient formula (derivatives of the
coefficients plus a structure-constant term) and must agree with the
operator commutator.  Global derivations are glued through a partition
of unity: X = sum_alpha functional_alpha o X_alpha o pi_alpha.
"""

from __future__ import annotations

from fractions import Fraction

from nctangent.algebras import AlgebraError, center, commutators, noncentral_witness
from nctangent.partition import functional
from nctangent.scalars import (
    Immutable,
    Matrix,
    Scalar,
    ZERO,
    solve_linear,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)


class NonCentralCoefficient(AlgebraError):
    """A derivation coefficient fails to commute with the algebra."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ActionAssignment(Immutable):
    """Operators D_0..D_d on one algebra, expected to be derivations
    with the deformed translation bracket."""

    __slots__ = ("algebra", "d", "kappa", "operators", "inner_generators")

    def __init__(self, algebra, d, kappa, operators, inner_generators=None):
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
        object.__setattr__(
            self,
            "inner_generators",
            None if inner_generators is None else tuple(inner_generators),
        )

    @classmethod
    def from_inner(cls, algebra, d, kappa, generators):
        """Commutator action with the given elements."""
        generators = [tuple(g) for g in generators]
        ops = []
        for g in generators:
            if len(g) != algebra.dim:
                raise AlgebraError("element length mismatch")
            rows = [[ZERO] * algebra.dim for _ in range(algebra.dim)]
            for j, comm in commutators(algebra, g).items():
                for m, x in comm.items():
                    rows[m][j] = x
            ops.append(Matrix._of(tuple(map(tuple, rows)), algebra.dim))
        return cls(algebra, d, kappa, ops, inner_generators=generators)


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
    supplied algebra with the same structure constants)."""
    from nctangent.algebras import make_matrix_algebra

    gens = canonical_generator_vectors(N, d, kappa)
    if algebra is None:
        algebra = make_matrix_algebra(N)
    elif algebra.dim != N * N:
        raise ValueError("algebra dimension does not match N")
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
        if got.entries != want.entries:
            failures.append(("bracket", (0, j)))
        for k in range(j + 1, assign.d + 1):
            Dk = assign.operators[k]
            if (Dj @ Dk - Dk @ Dj).entries != Matrix.zero(A.dim, A.dim).entries:
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
        out = zero_vec(A.dim)
        for z, D in zip(self.coefficients, self.assignment.operators):
            out = vec_add(out, A.multiply(z, D.apply(a)))
        return out

    def as_matrix(self):
        A = self.assignment.algebra
        total = Matrix.zero(A.dim, A.dim)
        for z, D in zip(self.coefficients, self.assignment.operators):
            total = total + A.left_mult_matrix(z) @ D
        return total


def bracket(X, Y):
    """Coefficient-formula bracket of two local derivations."""
    if X.assignment is not Y.assignment:
        raise AlgebraError("derivations over different assignments")
    assign = X.assignment
    A = assign.algebra
    ik = Scalar(0, Fraction(1) / assign.kappa)
    out = []
    for lam in range(assign.d + 1):
        acc = zero_vec(A.dim)
        zy = Y.coefficients[lam]
        zx = X.coefficients[lam]
        for mu in range(assign.d + 1):
            acc = vec_add(
                acc,
                A.multiply(
                    X.coefficients[mu], assign.operators[mu].apply(zy)
                ),
            )
            acc = vec_sub(
                acc,
                A.multiply(
                    Y.coefficients[mu], assign.operators[mu].apply(zx)
                ),
            )
        if lam >= 1:
            swing = vec_sub(
                A.multiply(X.coefficients[0], Y.coefficients[lam]),
                A.multiply(Y.coefficients[0], X.coefficients[lam]),
            )
            acc = vec_add(acc, vec_scale(ik, swing))
        out.append(acc)
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
    A pair fails when some coordinate of the sum is nonzero.
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
            total = sums[j]
            for m, c in cell:
                for r, y in images[m]:
                    total[r] = total.get(r, ZERO) + c * y
        for k, cell in terms:
            for j, y in rows[k]:
                total = sums[j]
                for m, c in cell:
                    total[m] = total.get(m, ZERO) - y * c
        for k, x in images[i]:
            for j, cell in algebra.terms[k]:
                total = sums[j]
                for m, c in cell:
                    total[m] = total.get(m, ZERO) - x * c
        for j, total in enumerate(sums):
            if any(total.values()):
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

    def apply(self, a):
        return self.matrix.apply(a)


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
    center, coordinate by coordinate; raises when no exact solution
    exists.
    """
    assign = X.locals[alpha].assignment
    A = assign.algebra
    target = project_global(X, alpha)
    zbasis = center(A).basis
    columns = []
    for mu in range(assign.d + 1):
        for z in zbasis:
            M = A.left_mult_matrix(z) @ assign.operators[mu]
            columns.append([M.entries[r][c] for r in range(A.dim) for c in range(A.dim)])
    rhs = [target.entries[r][c] for r in range(A.dim) for c in range(A.dim)]
    if not columns:
        if all(not v for v in rhs):
            return tuple(zero_vec(A.dim) for _ in range(assign.d + 1))
        raise AlgebraError("chart has trivial center but nonzero projection")
    system = Matrix.from_columns(columns, rows=A.dim * A.dim)
    solved = solve_linear(system, tuple(rhs))
    if solved is None:
        raise AlgebraError("projected derivation is not center-decomposable")
    particular, _ = solved
    out = []
    pos = 0
    for mu in range(assign.d + 1):
        coeff = zero_vec(A.dim)
        for z in zbasis:
            coeff = vec_add(coeff, vec_scale(particular[pos], z))
            pos += 1
        out.append(coeff)
    return tuple(out)
