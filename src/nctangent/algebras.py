"""Finite-dimensional associative *-algebras given by structure constants.

An algebra is a coordinate space Q(i)^n with sparse structure constants
(the nonzero products of basis elements), an involution, and an optional
unit.  `multiply` sums x_i y_j c over the nonzero constants on ints, in
the accumulator of `scalars`; the same walk one Scalar operation at a
time is the oracle in tests/test_algebras.py.  Model constructors write
those constants directly for matrix algebras, pointwise-function
algebras, a truncated oscillator-basis surrogate for a deformed plane,
direct sums and quotients.  On top of that sit centers, commutators
and characters; a multiple of the unit takes its noncentral witness
from the unit's.  The center is solved from sparse equation rows by
`nullspace`, once per algebra, and kept on it (the dense equation
matrices are the test oracles).  The axiom sweep and the derivation
space are test oracles in tests/test_algebras.py.

Characters are read from the model tag that every constructor sets.  The
matrix, Moyal, function and sum models have closed descriptions.  A
quotient A/I takes its characters from A, at any depth and for any
parent: they are the characters of A that vanish on I, pulled back
through the section, and sorted by value as integers over the values'
common denominator.  A character reads only its nonzero values and
rejects a vector of the wrong length.  An algebra without a model tag
has no character route and raises.  `AlgebraError`, the library's error,
and its subclasses in the other modules carry an optional witness.
"""

from __future__ import annotations

from math import lcm

from nctangent.scalars import (
    Immutable,
    Matrix,
    ONE,
    Scalar,
    Subspace,
    ZERO,
    _axpy,
    _pairs,
    _reduced,
    _scalars,
    nullspace,
    quotient_projection,
    unit_vec,
    zero_vec,
)


class AlgebraError(ValueError):
    """A library error; `witness`, None by default, names what broke."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StarAlgebra(Immutable):
    """Associative *-algebra on Q(i)^n with explicit structure constants.

    `terms` holds the structure constants sparsely: `terms[i]` has one
    `(j, ((m, c), ...))` entry per nonzero product basis_i . basis_j, with
    ascending j, listing its nonzero coefficients c at coordinates m.
    Zero products cost nothing (M_n has n^3 nonzero cells of n^6).  The
    involution acts antilinearly: conjugate the coordinates, then apply
    `involution` as a matrix.  `unit` is a coordinate vector or None for
    a non-unital algebra.  `_unit_witness`, `_center` and `_characters`
    are set on first use.
    """

    __slots__ = ("dim", "labels", "terms", "involution", "unit", "model",
                 "_unit_witness", "_center", "_characters")

    def __init__(self, labels, terms, involution, unit, model=None):
        dim = len(labels)
        if len(terms) != dim:
            raise AlgebraError("structure constants need one row per basis element")
        rows = []
        for row in terms:
            entries = []
            for j, cell in row:
                cell = tuple((m, Scalar.promote(c)) for m, c in cell)
                if not 0 <= j < dim or any(not 0 <= m < dim for m, _ in cell):
                    raise AlgebraError("structure constant index out of range")
                cell = tuple((m, c) for m, c in cell if c)
                if cell:
                    entries.append((j, cell))
            rows.append(tuple(entries))
        if involution.rows != dim or involution.cols != dim:
            raise AlgebraError("involution matrix shape mismatch")
        if unit is not None:
            unit = tuple(Scalar.promote(c) for c in unit)
            if len(unit) != dim:
                raise AlgebraError("unit vector has wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "terms", tuple(rows))
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "model", model)

    @property
    def table(self):
        """The dense form of `terms`, rebuilt on each access:
        `table[i][j]` is the coordinate vector of basis_i . basis_j.  No
        code in this package reads it; the benchmark's density probe and
        the tests do."""
        zero = zero_vec(self.dim)
        return tuple(
            tuple(products.get(j, zero) for j in range(self.dim))
            for products in map(self.basis_products, range(self.dim))
        )

    def basis_products(self, i):
        """{j: coordinate vector of basis_i . basis_j} for the nonzero
        products, read from `terms[i]`."""
        out = {}
        for j, cell in self.terms[i]:
            product = [ZERO] * self.dim
            for m, c in cell:
                product[m] = product[m] + c
            out[j] = tuple(product)
        return out

    # -- arithmetic on coordinate vectors ---------------------------------

    def multiply(self, u, v):
        return _scalars(self._mac({}, u, v), self.dim)

    def _mac(self, sums, u, v, c=None):
        """The multiply-accumulate kernel: add c.(u v) into `sums`, a dict
        of running [a, b, q] sums as `_axpy` keeps them, and return it.
        The factor c is a Scalar, 1 when None; it is folded into each
        nonzero coordinate of u once."""
        if len(u) != self.dim or len(v) != self.dim:
            raise AlgebraError("element length mismatch")
        for x, row in zip(u, self.terms):
            xa, xb, xq = x._a, x._b, x._q
            if xa or xb:
                if c is not None:
                    ca, cb = c._a, c._b
                    xa, xb, xq = xa * ca - xb * cb, xa * cb + xb * ca, xq * c._q
                for j, cell in row:
                    y = v[j]
                    ya, yb = y._a, y._b
                    if ya or yb:
                        a, b = xa * ya - xb * yb, xa * yb + xb * ya
                        _axpy(sums, a, b, xq * y._q, cell)
        return sums

    def involute(self, v):
        """Each nonzero (a, b, q) enters the involution's columns as (a, -b, q)."""
        if len(v) != self.dim:
            raise ValueError("vector length mismatch")
        sums = {}
        for x, column in zip(v, self.involution.nonzero_columns()):
            if x._a or x._b:
                _axpy(sums, x._a, -x._b, x._q, column)
        return _scalars(sums, self.dim)

    def left_mult_matrix(self, a):
        """The matrix of b -> a b: column j sums x times basis_k . basis_j
        over the nonzero coordinates x = a_k, from row k of `terms`."""
        if len(a) != self.dim:
            raise AlgebraError("element length mismatch")
        columns = [{} for _ in range(self.dim)]
        for x, row in zip(a, self.terms):
            if x._a or x._b:
                for j, cell in row:
                    _axpy(columns[j], x._a, x._b, x._q, cell)
        return Matrix._of(list(map(_pairs, columns)), self.dim)

    def basis_vector(self, i):
        return unit_vec(self.dim, i)

    def element_str(self, v):
        parts = []
        for c, lab in zip(v, self.labels):
            if c:
                parts.append("(%s)%s" % (c, lab))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# model constructors


def make_matrix_algebra(n, label="E", index_base=1):
    """Algebra of n x n matrices on the elementary-matrix basis.

    Basis element (m, k) is the matrix with a single 1 in row m, column k;
    products follow the delta rule and the involution is the conjugate
    transpose.
    """
    if n < 1:
        raise AlgebraError("matrix algebra needs n >= 1")
    dim = n * n

    def idx(m, k):
        return m * n + k

    labels = [
        "%s_%d%d" % (label, m + index_base, k + index_base)
        for m in range(n)
        for k in range(n)
    ]
    # E_mk E_kq = E_mq, and E_mk E_pq = 0 for p != k
    terms = [
        tuple((idx(k, q), ((idx(m, q), ONE),)) for q in range(n))
        for m in range(n)
        for k in range(n)
    ]
    # the conjugate transpose sends E_mk to E_km
    invol = Matrix._of([((idx(k, m), ONE),) for m in range(n) for k in range(n)], dim)
    unit = tuple(
        ONE if (m == k) else ZERO for m in range(n) for k in range(n)
    )
    return StarAlgebra(labels, terms, invol, unit, model=("matrix", n))


def make_moyal_truncation(N):
    """Truncated oscillator-basis model of the deformed plane.

    The infinite oscillator basis multiplies like matrix units, so its
    rank-N truncation is the matrix algebra with basis relabeled f_mn,
    indices starting at 0.  The deformation parameter only normalizes
    the (out-of-scope) integral and does not enter the arithmetic.
    """
    return make_matrix_algebra(N, label="f", index_base=0)


def make_function_algebra(point_count):
    """Commutative algebra of functions on a finite point set.

    Basis = indicator functions of the points; product is pointwise,
    involution is pointwise conjugation, characters are the point
    evaluations.
    """
    if point_count < 1:
        raise AlgebraError("function algebra needs at least one point")
    dim = point_count
    labels = ["delta_%d" % (p + 1) for p in range(dim)]
    terms = [((i, ((i, ONE),)),) for i in range(dim)]
    invol = Matrix.identity(dim)
    unit = tuple(ONE for _ in range(dim))
    return StarAlgebra(labels, terms, invol, unit, model=("function", point_count))


def direct_sum(A, B):
    """Componentwise product and involution on the concatenated basis."""
    dim = A.dim + B.dim
    labels = ["1:%s" % l for l in A.labels] + ["2:%s" % l for l in B.labels]
    shift = A.dim
    terms = list(A.terms) + [
        tuple((j + shift, tuple((m + shift, c) for m, c in cell)) for j, cell in row)
        for row in B.terms
    ]
    right = B.involution.nonzero_columns()
    shifted = tuple(tuple((i + shift, c) for i, c in column) for column in right)
    invol = Matrix._of(A.involution.nonzero_columns() + shifted, dim)
    unit = None if A.unit is None or B.unit is None else A.unit + B.unit
    return StarAlgebra(labels, terms, invol, unit, model=("sum", A, B))


def quotient_algebra(A, ideal_subspace, labels_prefix="q"):
    """Quotient of A by a two-sided *-closed ideal, via the deterministic
    section.  Returns (algebra, projection matrix, section matrix).

    Structure constants are transported through the section; the result
    is independent of the section because the subspace is an ideal.
    `quotient_projection` of the ideal's rows gives the projection and
    the complement indices c_i, and the section lifts quotient basis
    element i to the parent basis element c_i, so the product of two
    lifts is one of the parent's nonzero basis products or zero, and the
    involute of a lift is a column of the parent's involution.  Each is
    projected by summing its nonzero coordinates on ints over the
    projection's nonzero columns; the constructor drops the sums that
    cancel.  The model tag ("quotient", A, ideal, section) keeps what
    `characters` needs to pull the parent's characters back.
    """
    n = A.dim
    if ideal_subspace.ambient_dim != n:
        raise ValueError("subspace lives in a different ambient space")
    kept, projection = quotient_projection(n, ideal_subspace._rows)
    qdim = n - ideal_subspace.dim
    if len(kept) != qdim:
        raise ValueError(
            "complement has %d vectors, the quotient needs %d" % (len(kept), qdim)
        )
    section = Matrix._of([((c, ONE),) for c in kept], n)
    labels = ["%s%d" % (labels_prefix, i) for i in range(qdim)]
    position = {c: i for i, c in enumerate(kept)}
    columns = projection.nonzero_columns()

    def project(cell):
        sums = {}
        for m, x in cell:
            _axpy(sums, x._a, x._b, x._q, columns[m])
        return sums

    terms = []
    for c in kept:
        row = []
        for j, cell in A.terms[c]:
            if j in position:
                sums = project(cell)
                image = tuple((i, _reduced(*sums[i])) for i in sorted(sums))
                row.append((position[j], image))
        terms.append(tuple(row))
    # project o invol o lift is antilinear; on the lift of a basis
    # element, which is real, it is the projected involution column
    involution = A.involution.nonzero_columns()
    invol = Matrix._of([_pairs(project(involution[c])) for c in kept], qdim)
    unit = projection.apply(A.unit) if A.unit is not None else None
    alg = StarAlgebra(
        labels, terms, invol, unit, model=("quotient", A, ideal_subspace, section)
    )
    return alg, projection, section


# ---------------------------------------------------------------------------
# centers and commutators


def center(A):
    """Exact solution space of [z, b_i] = 0 for every basis element,
    solved once per algebra and kept in its `_center` slot.

    Equation (i, m) is the m-th coordinate of z b_i - b_i z, that is
    sum over k of z_k (c_ki^m - c_ik^m), where basis_k . basis_j = sum
    over m of c_kj^m basis_m; each nonzero c_kj^m from `terms` enters two
    equations.  They are built as sparse rows ({k: coefficient}) and
    solved by `nullspace`: an equation that no constant reaches is
    never made (144 of the 256 of M_4), and the elimination drops the 4
    more that cancel to zero.
    """
    try:
        return A._center
    except AttributeError:
        pass
    n = A.dim
    rows = {}
    for k, row in enumerate(A.terms):
        for j, cell in row:
            for m, c in cell:
                zb = rows.setdefault(j * n + m, {})
                zb[k] = zb.get(k, ZERO) + c
                bz = rows.setdefault(k * n + m, {})
                bz[j] = bz.get(j, ZERO) - c
    equations = [{k: c for k, c in row.items() if c} for row in rows.values()]
    space = Subspace(n, nullspace(equations, n))
    object.__setattr__(A, "_center", space)
    return space


def commutators(A, v):
    """{i: {m: coordinate}} holding the nonzero coordinates of [v, b_i]
    for every basis element b_i that some nonzero product reaches, from
    one pass over `terms` summed on ints: a nonzero basis_k . basis_j
    adds v_k times it to [v, b_j] and subtracts v_j times it from
    [v, b_k].  A commutator that sums to zero is an empty dict."""
    comms = {}
    for k, (x, row) in enumerate(zip(v, A.terms)):
        for j, cell in row:
            y = v[j]
            if x._a or x._b:
                _axpy(comms.setdefault(j, {}), x._a, x._b, x._q, cell)
            if y._a or y._b:
                _axpy(comms.setdefault(k, {}), -y._a, -y._b, y._q, cell)
    return {
        i: {m: _reduced(a, b, q) for m, (a, b, q) in sums.items() if a or b}
        for i, sums in comms.items()
    }


def noncentral_witness(A, v):
    """None when v is central, else (basis label, commutator value) for
    the first basis element b_i with [v, b_i] != 0.

    An exact multiple c.unit answers with the unit's own witness scaled
    by c, which is exact by linearity whether or not the unit is central;
    that witness is kept in the algebra's `_unit_witness` slot from its
    first use on.  Any other v reads `commutators` and writes the first
    nonzero one in ascending i out as a full coordinate tuple.
    """
    if len(v) != A.dim:
        raise AlgebraError("element length mismatch")
    c = None if A.unit is None else _unit_multiple(A.unit, v)
    if c is None:
        return _first_commutator(A, v)
    try:
        witness = A._unit_witness
    except AttributeError:
        witness = _first_commutator(A, A.unit)
        object.__setattr__(A, "_unit_witness", witness)
    if witness is None or not c:
        return None
    return (witness[0], tuple(c * x for x in witness[1]))


def _unit_multiple(unit, v):
    """The c with v = c.unit exactly, or None when there is none."""
    k = next((k for k, u in enumerate(unit) if u), None)
    c = None if k is None else v[k] / unit[k]
    if c is not None and all(x == c * u for x, u in zip(v, unit)):
        return c
    return None


def _first_commutator(A, v):
    comms = commutators(A, v)
    for i in sorted(comms):
        comm = comms[i]
        if comm:
            return (A.labels[i], tuple(comm.get(m, ZERO) for m in range(A.dim)))
    return None


# ---------------------------------------------------------------------------
# characters


class Character(Immutable):
    """A nonzero multiplicative linear functional, held by its values on
    the basis.  `_nonzero` keeps the `(index, value)` pairs of the
    nonzero values, which are all that a call reads; a vector whose
    length is not the algebra's raises AlgebraError."""

    __slots__ = ("coords", "label", "_nonzero")

    def __init__(self, coords, label):
        coords = tuple(Scalar.promote(c) for c in coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "label", label)
        object.__setattr__(
            self, "_nonzero", tuple((k, c) for k, c in enumerate(coords) if c)
        )

    def __call__(self, v):
        if len(v) != len(self.coords):
            raise AlgebraError("element length mismatch")
        out = ZERO
        for k, c in self._nonzero:
            x = v[k]
            if x:
                out = out + c * x
        return out


def characters(A):
    """Complete character list as a tuple, read from the model tag,
    enumerated once per algebra and kept in its `_characters` slot.

    M_n and Moyal truncations with n >= 2 have none, M_1 has one, a
    function model has its point evaluations, and a sum lists those of
    its left block and then those of its right one.  A quotient B = A/I
    takes its characters from its parent: a character of B is a
    character of A that vanishes on I (Calow-Matthes), so the route keeps
    those of `characters(A)` and pulls each back through the section,
    phi_B(b) = phi_A(section b).  They are sorted by their values on B's
    basis, (re, im) coordinate by coordinate, and labelled phi_0,
    phi_1, ....  Every route enumerates at any
    dimension.  An algebra without a model tag has no route and raises
    AlgebraError; `verify` never builds one.
    """
    try:
        return A._characters
    except AttributeError:
        pass
    chars = tuple(_enumerate_characters(A))
    object.__setattr__(A, "_characters", chars)
    return chars


def _enumerate_characters(A):
    """The characters of A by its model tag, as `characters` describes
    them; a parent's come from `characters`."""
    model = A.model[0] if A.model else None
    if model == "matrix":
        n = A.model[1]
        if n >= 2:
            return []
        return [Character((ONE,), "ev")]
    if model == "function":
        return [
            Character(unit_vec(A.dim, p), "ev_%d" % (p + 1)) for p in range(A.dim)
        ]
    if model == "sum":
        _, left, right = A.model
        out = []
        for phi in characters(left):
            out.append(
                Character(tuple(phi.coords) + zero_vec(right.dim), "1:%s" % phi.label)
            )
        for phi in characters(right):
            out.append(
                Character(zero_vec(left.dim) + tuple(phi.coords), "2:%s" % phi.label)
            )
        return out
    if model == "quotient":
        _, parent, ideal, section = A.model
        lifts = [section.column(j) for j in range(A.dim)]
        values = [
            tuple(map(phi, lifts))
            for phi in characters(parent)
            if not any(phi(v) for v in ideal.basis)
        ]
        return [
            Character(coords, "phi_%d" % k)
            for k, coords in enumerate(_sorted_by_value(values))
        ]
    raise AlgebraError("characters need a model tag; this algebra has none")


def _sorted_by_value(rows):
    """The coordinate tuples in ascending (re, im) order, coordinate by
    coordinate.  Every coordinate is put over the rows' common
    denominator L and compared as the integer pair L.(re, im); L > 0, so
    the order is that of the parts themselves."""
    L = lcm(*(c.denominator for row in rows for c in row))
    return sorted(rows, key=lambda row: tuple(c.parts_over(L) for c in row))


def two_sided_ideal_closure(A, vectors):
    """Smallest subspace containing `vectors`, closed under products with
    every basis element on both sides and under the involution."""
    S = Subspace(A.dim, vectors)
    while True:
        extra = list(S.basis)
        for v in S.basis:
            extra.append(A.involute(v))
            for i in range(A.dim):
                e = unit_vec(A.dim, i)
                extra.append(A.multiply(e, v))
                extra.append(A.multiply(v, e))
        S2 = Subspace(A.dim, extra)
        if S2.dim == S.dim:
            return S2
        S = S2
