"""Differential forms over a finite derivation basis.

A form of degree n is an antisymmetric assignment of algebra elements to
n-tuples of basis derivations.  Storing the coefficient tensor (rather
than an abstract multilinear map) keeps evaluation and equality exact:
the basis has finite rank, so a form is determined by its values on
strictly increasing index tuples.  Degrees above the rank carry no such
tuples and are identically zero.  A one-form is a degree-1 `FormN`;
`form_glob2loc` localizes a global form to a chart.

The differential follows the Koszul pattern: an alternating sum of
derivation actions plus an alternating sum over bracket insertions.  It
is only defined when the basis, given as operator matrices, closes under
commutator with scalar structure constants, which its constructor
verifies once, solving sparse equations over the operators' nonzero
entries.  Both work on nonzero data only, and the differential sums on
ints in the accumulator of `scalars`; their dense routes, and the
differential one Scalar operation at a time, are the oracles in
tests/test_calculus_routes.py.
"""

from itertools import combinations

from nctangent.algebras import AlgebraError, center
from nctangent.partition import verify_functional_defined
from nctangent.scalars import (
    Immutable,
    MINUS_ONE,
    Scalar,
    _axpy,
    _cell_equations,
    _scalars,
    rref,
    solve_linear,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from nctangent.tangent import generator_derivation, glue, leibniz_failures


class NotBracketClosed(AlgebraError):
    """Commutator of two basis operators left the basis span."""


class DerivationBasis(Immutable):
    """Bracket-closed family of derivation operator matrices on one algebra.

    Structure constants are solved for at construction; failure to solve
    is reported with the offending index pair; column c of a commutator
    DE - ED is D(E e_c) - E(D e_c), from sparse `apply`.  Each pair
    solves one sparse equation per matrix cell, {mu: entry of D_mu} from
    the operators' nonzero columns with the commutator's entry as the
    right-hand side; a cell that only the commutator reaches is an
    equation too, and makes the system inconsistent.  Every operator is
    also checked against the Leibniz rule.
    """

    __slots__ = ("algebra", "operators", "structure")

    def __init__(self, algebra, operators):
        ops = tuple(operators)
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
        k = len(ops)
        cells = _cell_equations(ops)
        structure = {}
        for mu in range(k):
            for nu in range(mu + 1, k):
                D, E = ops[mu], ops[nu]
                # eliminate takes its rows over: each pair solves copies
                rows = {cell: dict(row) for cell, row in cells.items()}
                for c in range(algebra.dim):
                    comm = vec_sub(D.apply(E.column(c)), E.apply(D.column(c)))
                    for r, a in enumerate(comm):
                        if a:
                            rows.setdefault((r, c), {})[k] = a
                sol = solve_linear(list(rows.values()), k)
                if sol is None:
                    raise NotBracketClosed(
                        "commutator of operators %d and %d is outside the "
                        "basis span" % (mu, nu),
                        witness=(mu, nu),
                    )
                structure[(mu, nu)] = sol
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
    gens = [
        glue(cov, P, [generator_derivation(a, mu) for a in assignments]).matrix
        for mu in range(d + 1)
    ]
    return DerivationBasis(cov.algebra, gens), local_bases


def _sort_key(key):
    """Sorted tuple and permutation sign, the parity of the number of
    out-of-order pairs; None for a repeated index.  The cycle walk is
    the oracle in tests/test_forms.py."""
    if len(set(key)) != len(key):
        return None, 0
    inversions = sum(a > b for i, a in enumerate(key) for b in key[i + 1:])
    return tuple(sorted(key)), -1 if inversions % 2 else 1


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
    def _of(cls, basis, degree, entries):
        """The form with these entries, keyed by increasing tuples, all
        values nonzero; no normalization and no check."""
        form = object.__new__(cls)
        object.__setattr__(form, "basis", basis)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "entries", entries)
        return form

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

    def __eq__(self, other):
        return (
            isinstance(other, FormN)
            and self.basis is other.basis
            and self.degree == other.degree
            and self.entries == other.entries
        )


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
    and the nonzero structure constants; a sign negates the factor.  The
    keys are increasing and the zero values are dropped, so the result
    is built by `FormN._of`."""
    basis = rho.basis
    n = rho.degree
    entries = rho.entries
    columns = [D.nonzero_columns() for D in basis.operators]
    out = {}
    for key in _increasing_tuples(basis.rank, n + 1):
        sums = {}
        for k in range(n + 1):
            s = -1 if k % 2 else 1
            value = entries.get(key[:k] + key[k + 1:], ())
            for x, column in zip(value, columns[key[k]]):
                if x._a or x._b:
                    _axpy(sums, s * x._a, s * x._b, x._q, column)
        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                rest = key[:k] + key[k + 1:l] + key[l + 1:]
                coeffs = basis.bracket_coefficients(key[k], key[l])
                for lam, c in enumerate(coeffs):
                    if not c:
                        continue
                    skey, sign = _sort_key((lam,) + rest)  # None: repeated index
                    s = -1 if (sign < 0) != ((k + l) % 2 == 1) else 1
                    value = entries.get(skey, ())
                    pairs = [(i, x) for i, x in enumerate(value) if x._a or x._b]
                    _axpy(sums, s * c._a, s * c._b, c._q, pairs)
        if any(a or b for a, b, _ in sums.values()):
            out[key] = _scalars(sums, basis.algebra.dim)
    return FormN._of(basis, n + 1, out)


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
    return _differing_keys(left, right)


def d_locality_check(rho, cov, alpha, local_basis):
    """Index tuples where restricting then differentiating differs from
    differentiating then restricting; empty means d is local here."""
    left = koszul_d(restrict_form(rho, cov, alpha, local_basis))
    right = restrict_form(koszul_d(rho), cov, alpha, local_basis)
    return _differing_keys(left, right)


def _differing_keys(left, right):
    """Increasing index tuples where two forms of one basis and degree differ."""
    return [
        key
        for key in _increasing_tuples(left.basis.rank, left.degree)
        if left.coefficient(key) != right.coefficient(key)
    ]


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
