"""Differential forms over a finite derivation basis.

A form of degree n is an antisymmetric assignment of algebra elements to
n-tuples of basis derivations.  Storing the coefficient tensor (rather
than an abstract multilinear map) keeps evaluation and equality exact:
the basis has finite rank, so a form is determined by its values on
strictly increasing index tuples.  Degrees above the rank carry no such
tuples and are identically zero.  A one-form is a degree-1 `FormN`;
chart forms glue into a global one through `form_loc2glob`.

The differential follows the Koszul pattern: an alternating sum of
derivation actions plus an alternating sum over bracket insertions.  It
is only defined when the basis closes under commutator with scalar
structure constants, which the basis constructor verifies once.  Both
work on nonzero data only; their dense routes are the oracles in
tests/test_calculus_routes.py.
"""

from itertools import combinations

from nctangent.algebras import AlgebraError, center
from nctangent.partition import functional, verify_functional_defined
from nctangent.scalars import (
    Immutable,
    Matrix,
    Scalar,
    ZERO,
    rref,
    solve_linear,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from nctangent.tangent import LocalDerivation, glue, leibniz_failures

MINUS_ONE = Scalar(-1)


class NotBracketClosed(AlgebraError):
    """Commutator of two basis operators left the basis span."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _operator_matrix(member):
    if isinstance(member, Matrix):
        return member
    if hasattr(member, "as_matrix"):
        return member.as_matrix()
    return member.matrix


def _flatten(M):
    flat = []
    for row in M.entries:
        flat.extend(row)
    return tuple(flat)


class DerivationBasis(Immutable):
    """Bracket-closed family of derivation operators on one algebra.

    Structure constants are solved for at construction; failure to solve
    is reported with the offending index pair; column c of a commutator
    DE - ED is D(E e_c) - E(D e_c), from sparse `apply`.  Every operator
    is also checked against the Leibniz rule.
    """

    __slots__ = ("algebra", "operators", "structure")

    def __init__(self, algebra, members):
        ops = tuple(_operator_matrix(m) for m in members)
        if not ops:
            raise ValueError("a basis needs at least one operator")
        for D in ops:
            if D.rows != algebra.dim or D.cols != algebra.dim:
                raise ValueError("operator of the wrong shape")
        for mu, D in enumerate(ops):
            bad = leibniz_failures(algebra, D)
            if bad:
                raise AlgebraError(
                    "operator %d breaks Leibniz at %s" % (mu, bad[0])
                )
        span = Matrix.from_columns(
            [_flatten(D) for D in ops], rows=algebra.dim * algebra.dim
        )
        structure = {}
        for mu in range(len(ops)):
            for nu in range(mu + 1, len(ops)):
                D, E = ops[mu], ops[nu]
                comm = Matrix.from_columns(
                    [
                        vec_sub(D.apply(E.column(c)), E.apply(D.column(c)))
                        for c in range(algebra.dim)
                    ],
                    rows=algebra.dim,
                )
                sol = solve_linear(span, _flatten(comm))
                if sol is None:
                    raise NotBracketClosed(
                        "commutator of operators %d and %d is outside the "
                        "basis span" % (mu, nu),
                        witness=(mu, nu),
                    )
                structure[(mu, nu)] = tuple(sol[0])
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "structure", structure)

    @property
    def rank(self):
        return len(self.operators)

    def bracket_coefficients(self, mu, nu):
        """Scalars c with [D_mu, D_nu] = sum_lam c_lam D_lam."""
        if mu == nu:
            return tuple(Scalar(0) for _ in self.operators)
        if mu < nu:
            return self.structure[(mu, nu)]
        return tuple(-c for c in self.structure[(nu, mu)])


def kappa_basis(assignment):
    """The assigned generator operators as a derivation basis."""
    return DerivationBasis(assignment.algebra, assignment.operators)


def glued_basis(cov, P, assignments):
    """Chart generator bases together with their partition-glued global
    counterpart.  One action assignment per chart, all with the same d;
    slot mu of the global basis glues the chart derivations with unit
    coefficient in slot mu."""
    if len(assignments) != cov.size:
        raise AlgebraError("need one action assignment per chart")
    d = assignments[0].d
    for assign in assignments:
        if assign.d != d:
            raise AlgebraError("chart actions disagree on d")
    local_bases = tuple(kappa_basis(a) for a in assignments)
    gens = []
    for mu in range(d + 1):
        locs = []
        for assign in assignments:
            chart = assign.algebra
            coeffs = [
                chart.unit if nu == mu else zero_vec(chart.dim)
                for nu in range(d + 1)
            ]
            locs.append(LocalDerivation(assign, coeffs))
        gens.append(glue(cov, P, locs))
    return DerivationBasis(cov.algebra, gens), local_bases


def _sort_key(key):
    """Sorted tuple and permutation sign; None for a repeated index."""
    if len(set(key)) != len(key):
        return None, 0
    order = sorted(range(len(key)), key=lambda i: key[i])
    sign = 1
    seen = [False] * len(key)
    for start in range(len(key)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(key[i] for i in order), sign


def _increasing_tuples(rank, length):
    return list(combinations(range(rank), length))


class FormN(Immutable):
    """Antisymmetric algebra-valued tensor over a derivation basis."""

    __slots__ = ("basis", "degree", "entries")

    def __init__(self, basis, degree, entries):
        if degree < 0:
            raise ValueError("negative degree")
        norm = {}
        for key, value in entries.items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError("index tuple of the wrong length")
            for i in key:
                if not 0 <= i < basis.rank:
                    raise ValueError("basis index out of range")
            skey, sign = _sort_key(key)
            if skey is None:
                continue
            value = tuple(value)
            if len(value) != basis.algebra.dim:
                raise ValueError("coefficient of the wrong dimension")
            if sign < 0:
                value = vec_scale(MINUS_ONE, value)
            if skey in norm:
                norm[skey] = vec_add(norm[skey], value)
            else:
                norm[skey] = value
        for key in list(norm):
            if vec_is_zero(norm[key]):
                del norm[key]
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "entries", norm)

    @classmethod
    def zero(cls, basis, degree):
        return cls(basis, degree, {})

    def coefficient(self, key):
        """Value on the tuple of basis derivations named by key."""
        key = tuple(key)
        if len(key) != self.degree:
            raise ValueError("index tuple of the wrong length")
        skey, sign = _sort_key(key)
        if skey is None:
            return zero_vec(self.basis.algebra.dim)
        value = self.entries.get(skey)
        if value is None:
            return zero_vec(self.basis.algebra.dim)
        if sign < 0:
            return vec_scale(MINUS_ONE, value)
        return value

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if self.basis is not other.basis or self.degree != other.degree:
            raise AlgebraError("cannot add forms of different type")
        merged = dict(self.entries)
        for key, value in other.entries.items():
            merged[key] = vec_add(merged[key], value) if key in merged else value
        return FormN(self.basis, self.degree, merged)

    def __sub__(self, other):
        return self + other.scale(MINUS_ONE)

    def scale(self, c):
        c = Scalar.promote(c)
        return FormN(
            self.basis,
            self.degree,
            {k: vec_scale(c, v) for k, v in self.entries.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, FormN)
            and self.basis is other.basis
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((id(self.basis), self.degree, tuple(sorted(self.entries))))


def form0(basis, a):
    """Degree-zero form holding the algebra element a."""
    return FormN(basis, 0, {(): tuple(a)})


def wedge(rho, eta):
    """Antisymmetrized product with the 1/(n! m!) normalization.

    Of the (n+m)! orderings of an index tuple, the n! m! that reorder
    within each side give equal terms, so the sum runs over the
    (n, m)-shuffles: the increasing n-subsets going to rho, each with the
    sign of putting the two sides back in order."""
    if rho.basis is not eta.basis:
        raise AlgebraError("forms live over different bases")
    basis = rho.basis
    A = basis.algebra
    n, m = rho.degree, eta.degree
    out = {}
    for key in _increasing_tuples(basis.rank, n + m):
        total = zero_vec(A.dim)
        for left in combinations(key, n):
            right = tuple(k for k in key if k not in left)
            value = A.multiply(rho.coefficient(left), eta.coefficient(right))
            if _sort_key(left + right)[1] < 0:
                value = vec_scale(MINUS_ONE, value)
            total = vec_add(total, value)
        out[key] = total
    return FormN(basis, n + m, out)


def koszul_d(rho):
    """Degree-raising differential: alternating derivation actions plus
    alternating bracket insertions, resolved through the structure
    constants of the basis.  Each output key sums into one coordinate
    list from the stored entries of rho, the operators' nonzero columns
    and the nonzero structure constants; a sign picks add or subtract."""
    basis = rho.basis
    n = rho.degree
    entries = rho.entries
    columns = [D.nonzero_columns() for D in basis.operators]
    out = {}
    for key in _increasing_tuples(basis.rank, n + 1):
        total = [ZERO] * basis.algebra.dim
        for k in range(n + 1):
            value = entries.get(key[:k] + key[k + 1:], ())
            for x, column in zip(value, columns[key[k]]):
                if x:
                    for i, a in column:
                        total[i] = total[i] - a * x if k % 2 else total[i] + a * x
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                rest = key[:k] + key[k + 1:l] + key[l + 1:]
                coeffs = basis.bracket_coefficients(key[k], key[l])
                for lam, c in enumerate(coeffs):
                    if not c:
                        continue
                    skey, sign = _sort_key((lam,) + rest)  # None: repeated index
                    minus = (sign < 0) != ((k + l) % 2 == 1)
                    for i, x in enumerate(entries.get(skey, ())):
                        if x:
                            total[i] = total[i] - c * x if minus else total[i] + c * x
        out[key] = tuple(total)
    return FormN(basis, n + 1, out)


def differential_of(basis, a):
    """d applied to the element a, viewed as a zero-form."""
    return koszul_d(form0(basis, a))


def form_glob2loc(rho, cov, P, alpha, local_basis):
    """Chart-level image of a global form: the chart projection applied
    to every coefficient.  The partition functional must be well defined
    on the chart, matching the hypothesis under which the localization
    is multilinear."""
    verify_functional_defined(P, cov, alpha)
    return restrict_form(rho, cov, alpha, local_basis)


def form_loc2glob(rho_alpha, cov, P, alpha, global_basis):
    """Global form induced by a chart form: the partition functional of
    the chart applied to every coefficient."""
    F = functional(P, cov, alpha)
    entries = {key: F.apply(v) for key, v in rho_alpha.entries.items()}
    return FormN(global_basis, rho_alpha.degree, entries)


def restrict_form(rho, cov, alpha, local_basis):
    # with coefficient storage the section route collapses to the chart
    # projection on coefficients
    proj = cov.projection(alpha)
    entries = {key: proj.apply(v) for key, v in rho.entries.items()}
    return FormN(local_basis, rho.degree, entries)


def wedge_compat_check(rho, eta, cov, P, alpha, local_basis):
    """Index tuples where localizing the wedge differs from wedging the
    localizations; empty means compatible."""
    left = wedge(
        form_glob2loc(rho, cov, P, alpha, local_basis),
        form_glob2loc(eta, cov, P, alpha, local_basis),
    )
    right = form_glob2loc(wedge(rho, eta), cov, P, alpha, local_basis)
    failures = []
    for key in _increasing_tuples(local_basis.rank, rho.degree + eta.degree):
        if left.coefficient(key) != right.coefficient(key):
            failures.append(key)
    return failures


def d_locality_check(rho, cov, alpha, local_basis):
    """Index tuples where restricting then differentiating differs from
    differentiating then restricting; empty means d is local here."""
    left = koszul_d(restrict_form(rho, cov, alpha, local_basis))
    right = restrict_form(koszul_d(rho), cov, alpha, local_basis)
    failures = []
    for key in _increasing_tuples(local_basis.rank, rho.degree + 1):
        if left.coefficient(key) != right.coefficient(key):
            failures.append(key)
    return failures


def duality_rank(basis):
    """Rank of the evaluation pairing between the central-coefficient
    derivation module and the dual coefficient module, with the full
    rank it needs for nondegeneracy.

    Column (mu, k) of the pairing matrix holds z e_k for each center
    basis vector z in the rows of slot mu and zeros elsewhere, so the
    matrix is `basis.rank` copies of one block down the diagonal, and
    its rank is `basis.rank` times the rank of the block whose row k is
    the concatenation of the z e_k.
    """
    A = basis.algebra
    zbasis = center(A).basis
    block = [
        tuple(c for z in zbasis for c in A.multiply(z, A.basis_vector(k)))
        for k in range(A.dim)
    ]
    return basis.rank * len(rref(block)[1]), basis.rank * A.dim
