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

from fractions import Fraction

from nctangent.algebras import (
    AlgebraError,
    characters,
)
from nctangent.scalars import (
    Immutable,
    Matrix,
    Scalar,
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


def partition_ok(report):
    return all(ok for _, ok, _ in report)


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


_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def random_rational_unitary(n, rng):
    """Exactly unitary matrix over the Gaussian rationals: a seeded
    product of Pythagorean rotations and fourth-root phases."""
    U = Matrix.identity(n)
    phases = [Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1)]
    for _ in range(2 * n):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            a, b, c = _PYTHAGOREAN[rng.randrange(len(_PYTHAGOREAN))]
            ca, sa = Scalar(Fraction(a, c)), Scalar(Fraction(b, c))
            rows = [
                [Scalar(1) if r == s else Scalar(0) for s in range(n)]
                for r in range(n)
            ]
            rows[i][i], rows[i][j] = ca, sa
            rows[j][i], rows[j][j] = -sa, ca
            U = U @ Matrix(rows)
        else:
            i = rng.randrange(n)
            p = phases[rng.randrange(4)]
            rows = [
                [
                    (p if r == i else Scalar(1)) if r == s else Scalar(0)
                    for s in range(n)
                ]
                for r in range(n)
            ]
            U = U @ Matrix(rows)
    return U


def _block_sizes(model):
    """Flattened (kind, size) blocks of a supported model tag."""
    if isinstance(model, tuple):
        if model[0] in ("matrix", "moyal"):
            return [("matrix", model[1])]
        if model[0] == "function":
            return [("point", 1)] * model[1]
        if model[0] == "sum":
            return _block_sizes(model[1].model) + _block_sizes(model[2].model)
    raise AlgebraError("no seeded partition recipe for model %r" % (model,))


def seeded_partition(A, rng, parts=2):
    """Deterministic pseudo-random partition of unity with exact
    witnesses.

    Per matrix block the diagonal units are grouped into `parts` classes
    and conjugated between two seeded rational unitaries; per point of a
    function model a Pythagorean split of 1 is drawn.  Summing
    zeta zeta* telescopes to the unit exactly.
    """
    blocks = _block_sizes(A.model)
    zetas = [[] for _ in range(parts)]
    for kind, n in blocks:
        if kind == "matrix":
            grouping = [rng.randrange(parts) for _ in range(n)]
            U = random_rational_unitary(n, rng)
            W = random_rational_unitary(n, rng)
            for alpha in range(parts):
                proj = Matrix(
                    [
                        [
                            Scalar(1)
                            if (r == s and grouping[r] == alpha)
                            else Scalar(0)
                            for s in range(n)
                        ]
                        for r in range(n)
                    ]
                )
                mat = U @ proj @ W
                for r in range(n):
                    zetas[alpha].extend(mat.entries[r])
        else:
            a, b, c = _PYTHAGOREAN[rng.randrange(len(_PYTHAGOREAN))]
            owner = rng.randrange(parts)
            other = rng.randrange(parts)
            for alpha in range(parts):
                if owner == other:
                    val = Scalar(1) if alpha == owner else Scalar(0)
                elif alpha == owner:
                    val = Scalar(Fraction(a, c))
                elif alpha == other:
                    val = Scalar(0, Fraction(b, c))
                else:
                    val = Scalar(0)
                zetas[alpha].append(val)
    return Partition.from_zetas(A, [tuple(z) for z in zetas])


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


def subordination_ok(report):
    return all(ok for _, ok, _, _ in report)


def functional(P, cov, alpha):
    """Matrix of the map chart_alpha -> A induced by left multiplication
    with chi_alpha; raises IllDefined when chi_alpha does not kill the
    chart ideal."""
    A = cov.algebra
    el = P.elements[alpha]
    for x in cov.ideals[alpha].basis:
        if not vec_is_zero(A.multiply(el.chi, x)):
            raise IllDefined(
                "chi does not kill the chart ideal", witness=(alpha, x)
            )
    return A.left_mult_matrix(el.chi) @ cov.section(alpha)


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


def multiplication_maps(A, side="left"):
    """The family of one-sided multiplication operators by basis
    elements."""
    if side == "left":
        return [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    if side == "right":
        return [A.right_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    raise ValueError("side must be 'left' or 'right'")


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
