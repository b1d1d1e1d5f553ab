"""Coverings of a finite star-algebra by two-sided *-ideals.

A covering is a finite family of *-ideals whose intersection is zero.
Each ideal yields a local quotient algebra with a canonical projection
and a fixed linear section; each pair yields an overlap quotient by the
sum ideal, whose projection is kept and whose algebra is built on
demand.  The chart-to-overlap maps are built as projection-after-
section.  The covering laws, the commuting overlap diagram among them,
are checked by `verify_covering`.
"""

from __future__ import annotations

from nctangent.algebras import (
    AlgebraError,
    quotient_algebra,
    two_sided_ideal_closure,
)
from nctangent.scalars import Immutable, Matrix, QuotientSpace, Subspace


class NotAnIdeal(AlgebraError):
    """A declared subspace escapes under multiplication or involution."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IntersectionNonzero(AlgebraError):
    """The ideals share a nonzero common vector."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def verify_ideal(algebra, subspace):
    """Raise NotAnIdeal unless the subspace is a two-sided *-ideal."""
    if subspace.ambient_dim != algebra.dim:
        raise NotAnIdeal("subspace lives in the wrong dimension")
    for v in subspace.basis:
        for i in range(algebra.dim):
            e = algebra.basis_vector(i)
            left = algebra.multiply(e, v)
            if not subspace.contains(left):
                raise NotAnIdeal(
                    "not closed under left multiplication by %s"
                    % algebra.labels[i],
                    witness=("left", algebra.labels[i], left),
                )
            right = algebra.multiply(v, e)
            if not subspace.contains(right):
                raise NotAnIdeal(
                    "not closed under right multiplication by %s"
                    % algebra.labels[i],
                    witness=("right", algebra.labels[i], right),
                )
        star = algebra.involute(v)
        if not subspace.contains(star):
            raise NotAnIdeal(
                "not closed under the involution", witness=("star", None, star)
            )


def ideal_from_declaration(algebra, decl):
    """Build an ideal from a scenario-file declaration.

    Supported forms:
      {"type": "blocks", "kill": ["2"]}          direct-sum label prefixes
      {"type": "vanishing_on", "points": [1, 2]} function models
      {"type": "span", "vectors": [...]}         explicit coordinate vectors
      {"type": "generators", "vectors": [...]}   closure of the vectors

    The first three return the plain span; `Covering` verifies that it
    is a *-ideal.  Each block prefix must name at least one label.
    """
    kind = decl.get("type")
    if kind == "blocks":
        kill = {str(k) for k in decl["kill"]}
        prefixes = [lab.split(":", 1)[0] for lab in algebra.labels]
        unmatched = kill.difference(prefixes)
        if unmatched:
            raise AlgebraError("no basis labels match block prefixes %s" % sorted(unmatched))
        idx = [i for i, prefix in enumerate(prefixes) if prefix in kill]
        return Subspace(algebra.dim, [algebra.basis_vector(i) for i in idx])
    if kind == "vanishing_on":
        model = algebra.model
        if not (isinstance(model, tuple) and model and model[0] == "function"):
            raise AlgebraError("vanishing_on needs a function-model algebra")
        points = {int(p) for p in decl["points"]}
        count = model[1]
        bad = points - set(range(1, count + 1))
        if bad:
            raise AlgebraError("points out of range: %s" % sorted(bad))
        idx = [p - 1 for p in range(1, count + 1) if p not in points]
        return Subspace(algebra.dim, [algebra.basis_vector(i) for i in idx])
    if kind == "span":
        return Subspace(algebra.dim, list(decl["vectors"]))
    if kind == "generators":
        return two_sided_ideal_closure(algebra, list(decl["vectors"]))
    raise AlgebraError("unknown ideal declaration type %r" % (kind,))


class Covering(Immutable):
    """Verified *-ideals meeting in zero, their chart quotients and the
    projection onto each overlap.  Overlap algebras are built on demand;
    the covering laws are checked by `verify_covering`."""

    __slots__ = ("algebra", "ideals", "_charts", "_overlaps")

    def __init__(self, algebra, ideals):
        ideals = tuple(ideals)
        if not ideals:
            raise AlgebraError("a covering needs at least one ideal")
        for sub in ideals:
            verify_ideal(algebra, sub)
        meet = ideals[0]
        for sub in ideals[1:]:
            meet = meet.intersect(sub)
        if not meet.is_zero():
            raise IntersectionNonzero(
                "the ideals intersect nontrivially", witness=meet.basis[0]
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "ideals", ideals)
        charts = tuple(
            quotient_algebra(algebra, sub, labels_prefix="a%d_" % k)
            for k, sub in enumerate(ideals)
        )
        object.__setattr__(self, "_charts", charts)
        # a sum of two-sided *-ideals is one: no need to verify it; an
        # ideal's sum with itself is the ideal, so (a, a) is chart a's
        r = len(ideals)
        overlaps = {
            (a, b): charts[a][1] if a == b
            else QuotientSpace(algebra.dim, ideals[a].sum(ideals[b])).projection
            for a in range(r)
            for b in range(a, r)
        }
        object.__setattr__(self, "_overlaps", overlaps)

    @property
    def size(self):
        return len(self.ideals)

    def _check_index(self, alpha):
        if not 0 <= alpha < len(self.ideals):
            raise IndexError("chart index %r out of range" % (alpha,))

    def chart(self, alpha):
        self._check_index(alpha)
        return self._charts[alpha][0]

    def projection(self, alpha):
        self._check_index(alpha)
        return self._charts[alpha][1]

    def section(self, alpha):
        self._check_index(alpha)
        return self._charts[alpha][2]

    def project(self, alpha, vector):
        return self.projection(alpha).apply(vector)

    def lift(self, alpha, local_vector):
        return self.section(alpha).apply(local_vector)

    def _overlap_key(self, alpha, beta):
        self._check_index(alpha)
        self._check_index(beta)
        return (min(alpha, beta), max(alpha, beta))

    def overlap_algebra(self, alpha, beta):
        """The quotient by the sum of the two ideals, built on each call."""
        a, b = self._overlap_key(alpha, beta)
        joint = self.ideals[a].sum(self.ideals[b])
        return quotient_algebra(self.algebra, joint, labels_prefix="a%d%d_" % (a, b))[0]

    def overlap_projection(self, alpha, beta):
        return self._overlaps[self._overlap_key(alpha, beta)]

    def chart_to_overlap(self, alpha, beta):
        """Matrix of the restriction map from chart alpha to the
        (alpha, beta) overlap."""
        return self.overlap_projection(alpha, beta) @ self.section(alpha)


def verify_covering(cov):
    """Check every covering law; list (law, witness) failures.

    Laws: each projection is a unital *-homomorphism onto its chart, the
    stacked projections are jointly injective, and for every pair both
    chart-to-overlap composites equal the joint projection.
    """
    failures = []
    A = cov.algebra
    basis = [A.basis_vector(i) for i in range(A.dim)]
    # the base algebra's side of each law is the same for every chart
    involutes = [A.involute(ei) for ei in basis]
    products = [[A.multiply(ei, ej) for ej in basis] for ei in basis]
    for alpha in range(cov.size):
        chart = cov.chart(alpha)
        pi = cov.projection(alpha)
        images = [pi.apply(ei) for ei in basis]
        for i in range(A.dim):
            if chart.involute(images[i]) != pi.apply(involutes[i]):
                failures.append(("star-compatibility", (alpha, A.labels[i])))
            for j in range(A.dim):
                lhs = pi.apply(products[i][j])
                rhs = chart.multiply(images[i], images[j])
                if lhs != rhs:
                    failures.append(
                        ("homomorphism", (alpha, A.labels[i], A.labels[j]))
                    )
        if A.unit is not None and chart.unit is not None:
            if pi.apply(A.unit) != chart.unit:
                failures.append(("unit", alpha))
        sigma = cov.section(alpha)
        if (pi @ sigma).entries != Matrix.identity(chart.dim).entries:
            failures.append(("section", alpha))
    rows = []
    for alpha in range(cov.size):
        rows.extend(cov.projection(alpha).entries)
    stacked = Matrix(rows, cols=A.dim)
    if stacked.rank() != A.dim:
        failures.append(("joint-injectivity", stacked.rank()))
    for alpha in range(cov.size):
        for beta in range(cov.size):
            joint = cov.overlap_projection(alpha, beta)
            via = cov.chart_to_overlap(alpha, beta) @ cov.projection(alpha)
            if via.entries != joint.entries:
                failures.append(("overlap-diagram", (alpha, beta)))
    return failures
