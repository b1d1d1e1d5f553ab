"""Coverings of a finite star-algebra by two-sided *-ideals.

A covering is a finite family of *-ideals whose intersection is zero.
Each ideal yields a local quotient algebra with a canonical projection
and a fixed linear section; each pair yields the projection onto its
overlap, the quotient by the sum ideal.  Every projection comes from one elimination of the ideals'
sparse rows, a pair's from both ideals' rows at once.  The
chart-to-overlap maps are built as projection-after-section.  The
covering laws, the commuting overlap diagram among them, are checked by
`verify_covering`.

Both checks read the structure constants, not products of basis
vectors: `verify_ideal` sums the products of each sparse row of the
ideal on ints, only with the basis elements that a nonzero constant
links to its support, and tests them against the ideal's rows as sums;
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
    ONE,
    Immutable,
    Matrix,
    Subspace,
    _axpy,
    _scalars,
    eliminate,
    quotient_projection,
    zero_vec,
)


class NotAnIdeal(AlgebraError):
    """A declared subspace escapes under multiplication or involution."""


class IntersectionNonzero(AlgebraError):
    """The ideals share a nonzero common vector."""


def _products_with_basis(v, cells):
    """The running sums, as `_axpy` keeps them, of v_j * cell_j over the
    `(j, cell)` entries of `cells`, for the sparse row v: e_i . v when
    `cells` is row i of `terms`, v . e_i when it is column i."""
    sums = {}
    for j, cell in cells:
        x = v.get(j)
        if x is not None:
            _axpy(sums, x._a, x._b, x._q, cell)
    return sums


def verify_ideal(algebra, subspace):
    """Raise NotAnIdeal unless the subspace is a two-sided *-ideal.

    For each sparse basis row v of the subspace, e_i . v and v . e_i are
    summed on ints from the structure constants (row i of `terms` and
    its column i), and only for the indices i that some nonzero constant
    links to a nonzero coordinate of v: every other product is zero, and
    zero is in the subspace.  The involute of v sums its conjugated
    coordinates over the involution's columns.  Each sum is tested
    against the subspace's rows as it stands; a failing product is
    written out as a coordinate tuple for the witness.  The indices run
    in ascending order, the left product before the right one, then the
    involute of v.
    """
    if subspace.ambient_dim != algebra.dim:
        raise NotAnIdeal("subspace lives in the wrong dimension")
    n = algebra.dim
    columns = [[] for _ in range(n)]
    for j, row in enumerate(algebra.terms):
        for i, cell in row:
            columns[i].append((j, cell))
    involution = algebra.involution.nonzero_columns()
    for v, dense in zip(subspace._rows, subspace.basis):
        # e_i . v needs some e_i e_j != 0 and v . e_i some e_j e_i != 0,
        # for a j in the support of v
        left = {i for j in v for i, _ in columns[j]}
        right = {i for j in v for i, _ in algebra.terms[j]}
        for i in sorted(left | right):
            for side, cells, reached in (
                ("left", algebra.terms[i], left), ("right", columns[i], right)
            ):
                if i in reached and not subspace._holds(_products_with_basis(v, cells)):
                    label = algebra.labels[i]
                    product = _scalars(_products_with_basis(v, cells), n)
                    raise NotAnIdeal(
                        "not closed under %s multiplication by %s" % (side, label),
                        witness=(side, label, product),
                    )
        star = {}
        for j, x in v.items():
            _axpy(star, x._a, -x._b, x._q, involution[j])
        if not subspace._holds(star):
            raise NotAnIdeal(
                "not closed under the involution",
                witness=("star", None, algebra.involute(dense)),
            )


def ideal_from_declaration(algebra, decl):
    """Build an ideal from a scenario-file declaration.

    Supported forms:
      {"type": "blocks", "kill": ["2"]}          direct-sum label prefixes
      {"type": "vanishing_on", "points": [1, 2]} function models
      {"type": "span", "vectors": [...]}         explicit coordinate vectors
      {"type": "generators", "vectors": [...]}   closure of the vectors

    The first three return the plain span; `Covering` verifies that it
    is a *-ideal.  A block prefix matches the labels that equal it or
    start with it and a colon, so it names a block at any nesting depth:
    a sum of three terms labels them `1:1:...`, `1:2:...` and `2:...`,
    `"1:1"` names the first and `"1"` the first two.  Each block prefix
    must name at least one label.
    """
    kind = decl.get("type")
    if kind == "blocks":
        kill = {str(k) for k in decl["kill"]}
        matched = [
            {k for k in kill if lab == k or lab.startswith(k + ":")}
            for lab in algebra.labels
        ]
        unmatched = kill.difference(*matched)
        if unmatched:
            raise AlgebraError("no basis labels match block prefixes %s" % sorted(unmatched))
        idx = [i for i, m in enumerate(matched) if m]
        return _coordinate_subspace(algebra.dim, idx)
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
        return _coordinate_subspace(algebra.dim, idx)
    if kind == "span":
        return Subspace(algebra.dim, list(decl["vectors"]))
    if kind == "generators":
        return two_sided_ideal_closure(algebra, list(decl["vectors"]))
    raise AlgebraError("unknown ideal declaration type %r" % (kind,))


def _coordinate_subspace(n, indices):
    """The span of the unit vectors e_i for these ascending indices,
    whose rows are already in reduced echelon form."""
    return Subspace._of(n, [{i: ONE} for i in indices], indices)


class Covering(Immutable):
    """Verified *-ideals meeting in zero, their chart quotients and the
    projection onto each overlap; the covering laws are checked by
    `verify_covering`."""

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
        # a sum of two-sided *-ideals is one: no need to verify it; its
        # projection comes from one elimination of both ideals' rows, and
        # an ideal's sum with itself is the ideal, so (a, a) is chart a's
        r = len(ideals)
        overlaps = {
            (a, b): charts[a][1] if a == b
            else quotient_projection(algebra.dim, ideals[a]._rows + ideals[b]._rows)[1]
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

    def _overlap_key(self, alpha, beta):
        self._check_index(alpha)
        self._check_index(beta)
        return (min(alpha, beta), max(alpha, beta))

    def overlap_projection(self, alpha, beta):
        return self._overlaps[self._overlap_key(alpha, beta)]

    def chart_to_overlap(self, alpha, beta):
        """Matrix of the restriction map from chart alpha to the
        (alpha, beta) overlap: the overlap projection after the section,
        whose column k, for the deterministic section, is the
        projection's column at a complement index."""
        return self.overlap_projection(alpha, beta) @ self.section(alpha)


def verify_covering(cov):
    """Check every covering law; list (law, witness) failures.

    Laws: each projection is a unital *-homomorphism onto its chart, the
    stacked projections are jointly injective, and for every pair both
    chart-to-overlap composites equal the joint projection.

    The base algebra's side of each law is read once for all charts:
    the involute of e_i is column i of the involution, and e_i e_j comes
    from the structure constants, absent when the product is zero.  The
    image of e_i is column i of the projection, read from its nonzero
    columns, and the chart multiplies two images only when both are
    nonzero.  A pair (i, j) whose sides are both zero by construction,
    with no product e_i e_j and a zero image, is not compared: for a
    zero image of e_i only the j of its nonzero products are visited,
    and its involute is zero.  For alpha = beta the chart-to-overlap map
    is pi_alpha sigma_alpha, the product the section law has just
    formed, and it is reused.  The rank of the stacked projections is
    read from one elimination of their columns as sparse rows.
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
        nonzero = [bool(column) for column in pi.nonzero_columns()]
        images = [pi.column(i) if nonzero[i] else zero for i in range(n)]
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
        if round_trips[alpha] != Matrix.identity(chart.dim):
            failures.append(("section", alpha))
    # column j of the stacked projections, its chart rows one after another
    stacked = [{} for _ in range(n)]
    width = 0
    for alpha in range(cov.size):
        pi = cov.projection(alpha)
        for row, column in zip(stacked, pi.nonzero_columns()):
            row.update((width + i, a) for i, a in column)
        width += pi.rows
    rank = len(eliminate(stacked, width)[1])
    if rank != A.dim:
        failures.append(("joint-injectivity", rank))
    for alpha in range(cov.size):
        for beta in range(cov.size):
            joint = cov.overlap_projection(alpha, beta)
            if alpha == beta:
                to_overlap = round_trips[alpha]
            else:
                to_overlap = cov.chart_to_overlap(alpha, beta)
            via = to_overlap @ cov.projection(alpha)
            if via != joint:
                failures.append(("overlap-diagram", (alpha, beta)))
    return failures
