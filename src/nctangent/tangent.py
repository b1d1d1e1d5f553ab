"""Derivation actions of the deformed translations on finite algebras,
and the gluing of local derivations into global ones.

An action assignment realizes the d+1 translation generators as linear
operators on a local algebra, each a derivation, with the single
nontrivial bracket [D_0, D_j] = (i/kappa) D_j.  The canonical inner
model on M_N takes m_0 = -(i/kappa) diag(0,1,...,1) and m_j = E_{1,1+j}
and acts by commutators.

A local derivation is a central-coefficient combination sum_mu Z^mu D_mu;
its bracket has the displayed coefficient formula (derivatives of the
coefficients plus a structure-constant term) and must agree with the
operator commutator.  Global derivations are glued through a partition
of unity: X = sum_alpha functional_alpha o X_alpha o pi_alpha.

The smash product pairs algebra elements with polynomial symmetry
labels; multiplication routes one tensor leg of the label's coproduct
through the action.  Degree overflow is a hard error, never silent
truncation.
"""

from __future__ import annotations

from fractions import Fraction

from nctangent.algebras import AlgebraError, center, noncentral_witness
from nctangent.minkowski import PBWElement, _i_over, _star_monomials
from nctangent.partition import functional
from nctangent.scalars import (
    Immutable,
    Matrix,
    Scalar,
    solve_linear,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)


class NonCentralCoefficient(AlgebraError):
    """A derivation coefficient fails to commute with the algebra."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegreeOverflow(AlgebraError):
    """A smash product left the declared polynomial degree bound."""


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
        ops = [
            algebra.left_mult_matrix(g) - algebra.right_mult_matrix(g)
            for g in generators
        ]
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

    The map is applied to each basis vector once; its value on a basis
    product is the combination of those images with the product's
    structure constants.
    """
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    images = [operator.apply(b) for b in basis]
    failures = []
    for i, a in enumerate(basis):
        products = dict(algebra.terms[i])
        for j, b in enumerate(basis):
            lhs = zero_vec(algebra.dim)
            for m, c in products.get(j, ()):
                lhs = vec_add(lhs, vec_scale(c, images[m]))
            rhs = vec_add(
                algebra.multiply(images[i], b), algebra.multiply(a, images[j])
            )
            if lhs != rhs:
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


def zmodule_action(c, X, side="left"):
    """Scale a global derivation by a central element of the base
    algebra, chartwise through the projections."""
    cov = X.covering
    w = noncentral_witness(cov.algebra, c)
    if w is not None:
        raise NonCentralCoefficient("scalar is not central", witness=w)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    new_locals = []
    for alpha, loc in enumerate(X.locals):
        A = cov.chart(alpha)
        cc = cov.project(alpha, c)
        coeffs = []
        for z in loc.coefficients:
            if side == "left":
                coeffs.append(A.multiply(cc, z))
            else:
                coeffs.append(A.multiply(z, cc))
        new_locals.append(LocalDerivation(loc.assignment, coeffs))
    return GlobalDerivation(cov, X.partition, new_locals)


# ---------------------------------------------------------------------------
# smash product


class SmashElement(Immutable):
    """Finite combination of (basis element # polynomial label) pairs."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        clean = {}
        for (i, key), coeff in terms.items():
            coeff = Scalar.promote(coeff)
            if not coeff:
                continue
            beta, n = key
            beta = tuple(beta)
            if sum(beta) + n > context.bound:
                raise DegreeOverflow(
                    "monomial of degree %d exceeds bound %d"
                    % (sum(beta) + n, context.bound)
                )
            k = (i, (beta, n))
            clean[k] = clean.get(k, Scalar(0)) + coeff
        clean = {k: c for k, c in clean.items() if c}
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    def __add__(self, other):
        if other.context is not self.context:
            raise AlgebraError("smash elements from different contexts")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Scalar(0)) + c
        return SmashElement(self.context, terms)

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, c):
        c = Scalar.promote(c)
        return SmashElement(
            self.context, {k: c * v for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, SmashElement):
            return NotImplemented
        return self.context is other.context and self.terms == other.terms

    def is_zero(self):
        return not self.terms


class SmashAlgebra(Immutable):
    """Smash product of a local algebra with the polynomial symmetry
    labels, truncated at a hard degree bound."""

    __slots__ = ("assignment", "bound", "_ik")

    def __init__(self, assignment, bound):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "_ik", _i_over(assignment.kappa))

    def zero(self):
        return SmashElement(self, {})

    def embed_algebra(self, vector):
        unit_key = ((0,) * self.assignment.d, 0)
        return SmashElement(
            self,
            {(i, unit_key): c for i, c in enumerate(vector)},
        )

    def embed_label(self, f):
        """1 # f for a polynomial label f."""
        A = self.assignment.algebra
        if A.unit is None:
            raise AlgebraError("embedding labels needs a unital algebra")
        if f.d != self.assignment.d or f.kappa != self.assignment.kappa:
            raise AlgebraError("label parameters do not match the context")
        terms = {}
        for key, c in f.terms.items():
            for i, u in enumerate(A.unit):
                if u:
                    terms[(i, key)] = terms.get((i, key), Scalar(0)) + u * c
        return SmashElement(self, terms)

    def _act_monomial(self, key, vector):
        """Action of a normal-ordered label on an algebra element;
        rightmost factors act first."""
        beta, n = key
        out = tuple(vector)
        for _ in range(n):
            out = self.assignment.operators[0].apply(out)
        for j in range(len(beta) - 1, -1, -1):
            for _ in range(beta[j]):
                out = self.assignment.operators[j + 1].apply(out)
        return out

    def multiply(self, x, y):
        """(a # p)(b # q) = sum a (p_(1) acting on b) # (p_(2) star q)."""
        if x.context is not self or y.context is not self:
            raise AlgebraError("operands from a different context")
        from nctangent.minkowski import coproduct

        A = self.assignment.algebra
        d, kappa = self.assignment.d, self.assignment.kappa
        out = {}
        for (i, pkey), c1 in x.terms.items():
            delta = coproduct(PBWElement.monomial(d, kappa, pkey[0], pkey[1]))
            for (j, qkey), c2 in y.terms.items():
                b = A.basis_vector(j)
                base = c1 * c2
                for (k1, k2), c3 in delta.terms.items():
                    acted = self._act_monomial(k1, b)
                    av = A.multiply(A.basis_vector(i), acted)
                    tail = _star_monomials(k2, qkey, self._ik)
                    for lkey, c4 in tail.items():
                        if sum(lkey[0]) + lkey[1] > self.bound:
                            raise DegreeOverflow(
                                "product degree %d exceeds bound %d"
                                % (sum(lkey[0]) + lkey[1], self.bound)
                            )
                        f = base * c3 * c4
                        for r, entry in enumerate(av):
                            if entry:
                                k = (r, lkey)
                                out[k] = out.get(k, Scalar(0)) + f * entry
        return SmashElement(self, out)
