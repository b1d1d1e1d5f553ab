"""Coverings of a finite star-algebra by two-sided *-ideals.

A covering is a finite family of *-ideals whose intersection is zero.
Each ideal yields a local quotient algebra with a canonical projection
and a fixed linear section; each pair yields an overlap quotient by the
sum ideal, whose projection is kept and whose algebra is built on
demand.  The chart-to-overlap maps are built as projection-after-
section.  The covering laws, the commuting overlap diagram among them,
are checked by `verify_covering`.

Both checks read the structure constants, not products of basis
vectors: `verify_ideal` multiplies a vector of the ideal only by the
basis elements that a nonzero constant links to its support, and
`verify_covering` skips each homomorphism pair whose two sides are zero
by construction.  The dense routes are the oracles in the tests.
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


class IntersectionNonzero(AlgebraError):
    """The ideals share a nonzero common vector."""


def _products_with_basis(n, v, cells):
    """The sum of v_j * cell_j over the `(j, cell)` entries of `cells`,
    as a vector of length n: e_i . v when `cells` is row i of `terms`,
    v . e_i when it is column i."""
    out = [ZERO] * n
    for j, cell in cells:
        x = v[j]
        if x:
            for m, c in cell:
                out[m] = out[m] + x * c
    return tuple(out)


def verify_ideal(algebra, subspace):
    """Raise NotAnIdeal unless the subspace is a two-sided *-ideal.

    For each basis vector v of the subspace, e_i . v and v . e_i are read
    from the structure constants (row i of `terms` and its column i),
    and only for the indices i that some nonzero constant links to a
    nonzero coordinate of v: every other product is zero, and zero is in
    the subspace.  The indices run in ascending order, the left product
    before the right one, then the involute of v.
    """
    if subspace.ambient_dim != algebra.dim:
        raise NotAnIdeal("subspace lives in the wrong dimension")
    n = algebra.dim
    columns = [[] for _ in range(n)]
    for j, row in enumerate(algebra.terms):
        for i, cell in row:
            columns[i].append((j, cell))
    for v in subspace.basis:
        support = [j for j, x in enumerate(v) if x]
        # e_i . v needs some e_i e_j != 0 and v . e_i some e_j e_i != 0,
        # for a j in the support of v
        left = {i for j in support for i, _ in columns[j]}
        right = {i for j in support for i, _ in algebra.terms[j]}
        for i in sorted(left | right):
            label = algebra.labels[i]
            for side, cells, reached in (
                ("left", algebra.terms[i], left), ("right", columns[i], right)
            ):
                if i not in reached:
                    continue
                product = _products_with_basis(n, v, cells)
                if not subspace.contains(product):
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
    two images only when both are nonzero.  A pair (i, j) whose sides
    are both zero by construction, with no product e_i e_j and a zero
    image, is not compared: for a zero image of e_i only the j of its
    nonzero products are visited, and its involute is zero.  For alpha =
    beta the chart-to-overlap map is pi_alpha sigma_alpha, the product
    the section law has just formed, and it is reused.
    """
    failures = []
    A = cov.algebra
    n = A.dim
    involutes = [A.involution.column(i) for i in range(n)]
    products = [A.basis_products(i) for i in range(n)]
    round_trips = []
    for alpha in range(cov.size):
        chart = cov.chart(alpha)
        pi = cov.projection(alpha)
        zero = zero_vec(chart.dim)
        images = [pi.column(i) for i in range(n)]
        nonzero = [any(image) for image in images]
        for i in range(n):
            image_star = chart.involute(images[i]) if nonzero[i] else zero
            if image_star != pi.apply(involutes[i]):
                failures.append(("star-compatibility", (alpha, A.labels[i])))
            row = products[i]
            for j in range(n) if nonzero[i] else sorted(row):
                product = row.get(j)
                if product is not None:
                    lhs = pi.apply(product)
                elif nonzero[j]:
                    lhs = zero
                else:
                    continue
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
        round_trips.append(pi @ cov.section(alpha))
        if round_trips[alpha].entries != Matrix.identity(chart.dim).entries:
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
            if alpha == beta:
                to_overlap = round_trips[alpha]
            else:
                to_overlap = cov.chart_to_overlap(alpha, beta)
            via = to_overlap @ cov.projection(alpha)
            if via.entries != joint.entries:
                failures.append(("overlap-diagram", (alpha, beta)))
    return failures
