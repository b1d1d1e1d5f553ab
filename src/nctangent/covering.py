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
from nctangent.scalars import (
    ZERO,
    Immutable,
    Matrix,
    QuotientSpace,
    Subspace,
    zero_vec,
)


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


def _products_with_basis(n, v, cells):
    """The sum of v_j * cell_j over the `(j, cell)` entries of `cells`,
    as a vector of length n: e_i . v when `cells` is row i of `terms`,
    v . e_i when it is column i.  None when no cell meets a nonzero
    coordinate of v, so that the product is zero."""
    out = None
    for j, cell in cells:
        x = v[j]
        if x:
            if out is None:
                out = [ZERO] * n
            for m, c in cell:
                out[m] = out[m] + x * c
    return None if out is None else tuple(out)


def verify_ideal(algebra, subspace):
    """Raise NotAnIdeal unless the subspace is a two-sided *-ideal.

    For each basis vector v of the subspace and each i, e_i . v and then
    v . e_i are read from the structure constants (row i of `terms` and
    its column i); a zero product is in the subspace without a test.
    """
    if subspace.ambient_dim != algebra.dim:
        raise NotAnIdeal("subspace lives in the wrong dimension")
    n = algebra.dim
    columns = [[] for _ in range(n)]
    for j, row in enumerate(algebra.terms):
        for i, cell in row:
            columns[i].append((j, cell))
    for v in subspace.basis:
        for i, label in enumerate(algebra.labels):
            for side, cells in (("left", algebra.terms[i]), ("right", columns[i])):
                product = _products_with_basis(n, v, cells)
                if product is not None and not subspace.contains(product):
                    raise NotAnIdeal(
                        "not closed under %s multiplication by %s" % (side, label),
                        witness=(side, label, product),
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
        (alpha, beta) overlap: the overlap projection applied to each
        column of the section, which for the deterministic section is
        the projection's column at a complement index."""
        P = self.overlap_projection(alpha, beta)
        S = self.section(alpha)
        return Matrix.from_columns(
            [P.apply(S.column(k)) for k in range(S.cols)], rows=P.rows
        )


def verify_covering(cov):
    """Check every covering law; list (law, witness) failures.

    Laws: each projection is a unital *-homomorphism onto its chart, the
    stacked projections are jointly injective, and for every pair both
    chart-to-overlap composites equal the joint projection.

    The base algebra's side of each law is read once for all charts:
    the involute of e_i is column i of the involution, and e_i e_j comes
    from the structure constants, absent when the product is zero.  The
    image of e_i is column i of the projection, and the chart multiplies
    two images only when both are nonzero.
    """
    failures = []
    A = cov.algebra
    n = A.dim
    involutes = [A.involution.column(i) for i in range(n)]
    products = [A.basis_products(i) for i in range(n)]
    for alpha in range(cov.size):
        chart = cov.chart(alpha)
        pi = cov.projection(alpha)
        zero = zero_vec(chart.dim)
        images = [pi.column(i) for i in range(n)]
        nonzero = [any(image) for image in images]
        for i in range(n):
            if chart.involute(images[i]) != pi.apply(involutes[i]):
                failures.append(("star-compatibility", (alpha, A.labels[i])))
            for j in range(n):
                product = products[i].get(j)
                lhs = zero if product is None else pi.apply(product)
                if nonzero[i] and nonzero[j]:
                    rhs = chart.multiply(images[i], images[j])
                else:
                    rhs = zero
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
    stacked = Matrix._of(tuple(rows), A.dim)
    if stacked.rank() != A.dim:
        failures.append(("joint-injectivity", stacked.rank()))
    for alpha in range(cov.size):
        for beta in range(cov.size):
            joint = cov.overlap_projection(alpha, beta)
            via = cov.chart_to_overlap(alpha, beta) @ cov.projection(alpha)
            if via.entries != joint.entries:
                failures.append(("overlap-diagram", (alpha, beta)))
    return failures
