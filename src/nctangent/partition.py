"""Quantum partitions of unity over a finite star-algebra.

A partition element carries a positivity witness: chi = zeta zeta*
exactly.  A partition is a finite family whose chi's sum to a left
(optionally right) multiplicative identity on every basis element.
The bullet action chi . a = zeta a zeta* conjugates by the witness;
products of partitions bullet one family through the other.

Subordination to a covering is checked in two inequivalent readings.
The literal one asks every other chart's characters to kill the
projected element; the closure one asks the element's support in the
base algebra to avoid each character that survives on the chart's
ideal.  Both are reported; on commutative models with genuinely
overlapping charts the literal reading fails at overlap characters
while the closure reading passes, and callers are expected to surface
that discrepancy, not paper over it.

The functional form of a partition element is a linear map from a local
quotient back into the algebra, defined only when chi kills the chart
ideal; summing the functionals against the projections reconstructs the
identity map.
"""

from __future__ import annotations

from nctangent.algebras import (
    AlgebraError,
    characters,
)
from nctangent.scalars import (
    Immutable,
    Matrix,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vec,
)


class IllDefined(AlgebraError):
    """The functional formula does not descend to the quotient."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PartitionElement(Immutable):
    """chi with its witness zeta; chi = zeta zeta* is enforced."""

    __slots__ = ("algebra", "chi", "zeta")

    def __init__(self, algebra, zeta, chi=None):
        zeta = tuple(zeta)
        derived = algebra.multiply(zeta, algebra.involute(zeta))
        if chi is None:
            chi = derived
        else:
            chi = tuple(chi)
            if chi != derived:
                raise AlgebraError(
                    "chi does not equal zeta zeta*: difference %s"
                    % algebra.element_str(vec_sub(chi, derived))
                )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "zeta", zeta)

    def bullet(self, a):
        """zeta a zeta*; linear in a, sends the unit to chi."""
        A = self.algebra
        return A.multiply(A.multiply(self.zeta, a), A.involute(self.zeta))


class Partition(Immutable):
    """Finite family of partition elements over one algebra."""

    __slots__ = ("algebra", "elements")

    def __init__(self, algebra, elements):
        elements = tuple(elements)
        for el in elements:
            if el.algebra is not algebra:
                raise AlgebraError("partition element over a different algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_zetas(cls, algebra, zetas):
        return cls(algebra, [PartitionElement(algebra, z) for z in zetas])

    def __len__(self):
        return len(self.elements)

    def chi_sum(self):
        total = zero_vec(self.algebra.dim)
        for el in self.elements:
            total = vec_add(total, el.chi)
        return total


def verify_partition(algebra, partition, side="left"):
    """Report (condition, ok, witness) for the four defining conditions.

    The sum condition multiplies on the chosen side against every basis
    element, which suffices by linearity.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    report = []
    ok = all(len(el.chi) == algebra.dim for el in partition.elements)
    report.append(("membership", ok, None))
    # a finite index set is locally finite outright
    report.append(("local-finiteness", True, None))
    wit = None
    for k, el in enumerate(partition.elements):
        derived = algebra.multiply(el.zeta, algebra.involute(el.zeta))
        if el.chi != derived:
            wit = k
            break
    report.append(("positivity-witness", wit is None, wit))
    total = partition.chi_sum()
    wit = None
    for i in range(algebra.dim):
        e = algebra.basis_vector(i)
        if side == "left":
            got = algebra.multiply(total, e)
        else:
            got = algebra.multiply(e, total)
        if got != e:
            wit = (algebra.labels[i], algebra.element_str(vec_sub(got, e)))
            break
    report.append(("sum-law", wit is None, wit))
    return report


def product_partition(P, Q, keep_zero=False):
    """Bullet each element of P through each chi of Q.

    The combined witness is zeta_P zeta_Q; entries with vanishing chi
    are pruned unless keep_zero is set.
    """
    if P.algebra is not Q.algebra:
        raise AlgebraError("partitions over different algebras")
    A = P.algebra
    out = []
    for p in P.elements:
        for q in Q.elements:
            z = A.multiply(p.zeta, q.zeta)
            el = PartitionElement(A, z)
            if keep_zero or not vec_is_zero(el.chi):
                out.append(el)
    return Partition(A, out)


def _chart_characters(cov):
    return [characters(cov.chart(a)) for a in range(cov.size)]


def verify_subordinate(P, cov, variant="literal"):
    """Per-element report: (element_index, ok, chosen_chart, witness).

    literal: some chart alpha0 exists such that every character of every
    other chart kills the projected chi.
    closure: some chart alpha0 exists such that every base-algebra
    character surviving on chi also kills the chart's ideal.
    """
    return _subordination_report(P, cov, variant, adapted=False)


def verify_adapted(P, cov, variant="literal"):
    """Like verify_subordinate but the chart index must match the
    element index."""
    if len(P) != cov.size:
        raise AlgebraError("adaptedness needs matching index sets")
    return _subordination_report(P, cov, variant, adapted=True)


def _subordination_report(P, cov, variant, adapted):
    if variant not in ("literal", "closure"):
        raise ValueError("variant must be 'literal' or 'closure'")
    if variant == "literal":
        chars = _chart_characters(cov)
    else:
        base_chars = characters(cov.algebra)
    report = []
    for b, el in enumerate(P.elements):
        candidates = [b] if adapted else list(range(cov.size))
        chosen = None
        first_witness = None
        for alpha0 in candidates:
            violation = None
            if variant == "literal":
                for alpha in range(cov.size):
                    if alpha == alpha0:
                        continue
                    projected = cov.project(alpha, el.chi)
                    for phi in chars[alpha]:
                        value = phi(projected)
                        if value:
                            violation = (alpha0, alpha, phi.label, value)
                            break
                    if violation:
                        break
            else:
                ideal = cov.ideals[alpha0]
                for phi in base_chars:
                    if not phi(el.chi):
                        continue
                    for v in ideal.basis:
                        if phi(v):
                            violation = (alpha0, alpha0, phi.label, phi(el.chi))
                            break
                    if violation:
                        break
            if violation is None:
                chosen = alpha0
                break
            if first_witness is None:
                first_witness = violation
        report.append((b, chosen is not None, chosen, first_witness))
    return report


def verify_functional_defined(P, cov, alpha):
    """Raise IllDefined unless chi_alpha kills the chart ideal, the
    condition under which the functional of chart alpha is well
    defined."""
    A = cov.algebra
    chi = P.elements[alpha].chi
    for x in cov.ideals[alpha].basis:
        if not vec_is_zero(A.multiply(chi, x)):
            raise IllDefined(
                "chi does not kill the chart ideal", witness=(alpha, x)
            )


def functional(P, cov, alpha):
    """Matrix of the map chart_alpha -> A induced by left multiplication
    with chi_alpha; raises IllDefined when chi_alpha does not kill the
    chart ideal.  Column k is chi_alpha times column k of the section,
    the lift of the chart's basis element k."""
    verify_functional_defined(P, cov, alpha)
    A = cov.algebra
    chi = P.elements[alpha].chi
    sigma = cov.section(alpha)
    return Matrix.from_columns(
        [A.multiply(chi, sigma.column(k)) for k in range(sigma.cols)], rows=A.dim
    )


def functional_module_check(P, cov, alpha):
    """Right-module property of the functional on all basis pairs."""
    A = cov.algebra
    F = functional(P, cov, alpha)
    pi = cov.projection(alpha)
    failures = []
    for i in range(A.dim):
        a = A.basis_vector(i)
        fa = F.apply(pi.apply(a))
        for j in range(A.dim):
            b = A.basis_vector(j)
            lhs = A.multiply(fa, b)
            rhs = F.apply(pi.apply(A.multiply(a, b)))
            if lhs != rhs:
                failures.append((alpha, A.labels[i], A.labels[j]))
    return failures


def reconstruction_check(P, cov):
    """Sum of functional-after-projection composites against identity.

    Returns None when the reconstruction is exact, else a basis witness.
    """
    if len(P) != cov.size:
        raise AlgebraError("reconstruction needs matching index sets")
    A = cov.algebra
    total = Matrix.zero(A.dim, A.dim)
    for alpha in range(cov.size):
        total = total + functional(P, cov, alpha) @ cov.projection(alpha)
    if total.entries == Matrix.identity(A.dim).entries:
        return None
    for i in range(A.dim):
        e = A.basis_vector(i)
        got = total.apply(e)
        if got != e:
            return (A.labels[i], A.element_str(vec_sub(got, e)))
    return ("identity", "mismatch")


def centrality_check(P, cov, maps):
    """Whether each functional-after-projection composite commutes with
    every supplied linear map; list of (alpha, map_index) failures.

    Right multiplications always commute (the module property); left
    multiplications commute exactly when chi_alpha is central.
    """
    failures = []
    for alpha in range(cov.size):
        G = functional(P, cov, alpha) @ cov.projection(alpha)
        for k, f in enumerate(maps):
            if (f @ G).entries != (G @ f).entries:
                failures.append((alpha, k))
    return failures


def overlap_covering(cov_P, cov_Q):
    """Covering by the pairwise ideal sums, with its (alpha, beta) index
    order."""
    from nctangent.covering import Covering

    if cov_P.algebra is not cov_Q.algebra:
        raise AlgebraError("coverings of different algebras")
    pairs = []
    ideals = []
    for a in range(cov_P.size):
        for b in range(cov_Q.size):
            pairs.append((a, b))
            ideals.append(cov_P.ideals[a].sum(cov_Q.ideals[b]))
    return Covering(cov_P.algebra, ideals), pairs


def functional_product_check(P, cov_P, Q, cov_Q):
    """Compare the product partition's functionals on the overlap
    covering with the composites of the factors' functionals.

    Returns (alpha, beta) pairs where the two linear maps differ.
    """
    R = product_partition(P, Q, keep_zero=True)
    cov_R, pairs = overlap_covering(cov_P, cov_Q)
    failures = []
    for k, (a, b) in enumerate(pairs):
        lhs = functional(R, cov_R, k) @ cov_R.projection(k)
        Fa = functional(P, cov_P, a) @ cov_P.projection(a)
        Fb = functional(Q, cov_Q, b) @ cov_Q.projection(b)
        if lhs.entries != (Fb @ Fa).entries:
            failures.append((a, b))
    return failures
