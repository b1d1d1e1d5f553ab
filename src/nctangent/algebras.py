"""Finite-dimensional associative *-algebras given by structure constants.

An algebra is a coordinate space Q(i)^n with sparse structure constants
(the nonzero products of basis elements), an involution, and an optional
unit.  Model constructors write those constants directly for matrix
algebras, pointwise-function algebras, a truncated oscillator-basis
surrogate for a deformed plane, direct sums and quotients.  On top of
that sit centers, derivation spaces, commutators and characters; a
multiple of the unit takes its noncentral witness from the unit's.

Characters are read from the model tag that every constructor sets.  The
matrix, Moyal, function and sum models have closed descriptions.  A
quotient A/I takes its characters from A, at any depth and for any
parent: they are the characters of A that vanish on I, pulled back
through the section.  An algebra without a model tag has no character
route and raises.
"""

from __future__ import annotations

from nctangent.scalars import (
    Immutable,
    Matrix,
    ONE,
    QuotientSpace,
    Scalar,
    Subspace,
    ZERO,
    nullspace,
    unit_vec,
    vec_add,
    vec_conj,
    zero_vec,
)


class AlgebraError(ValueError):
    pass


class StarAlgebra(Immutable):
    """Associative *-algebra on Q(i)^n with explicit structure constants.

    `terms` holds the structure constants sparsely: `terms[i]` has one
    `(j, ((m, c), ...))` entry per nonzero product basis_i . basis_j, with
    ascending j, listing its nonzero coefficients c at coordinates m.
    Zero products cost nothing (M_n has n^3 nonzero cells of n^6).  The
    involution acts antilinearly: conjugate the coordinates, then apply
    `involution` as a matrix.  `unit` is a coordinate vector or None for
    a non-unital algebra.  `_unit_witness` is set on first use.
    """

    __slots__ = ("dim", "labels", "terms", "involution", "unit", "model",
                 "_unit_witness")

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

    def __repr__(self):
        return "StarAlgebra(dim %d, model %r)" % (self.dim, self.model)

    # -- arithmetic on coordinate vectors ---------------------------------

    def multiply(self, u, v):
        if len(u) != self.dim or len(v) != self.dim:
            raise AlgebraError("element length mismatch")
        out = list(zero_vec(self.dim))
        for x, row in zip(u, self.terms):
            if not x:
                continue
            for j, cell in row:
                y = v[j]
                if not y:
                    continue
                f = x * y
                for m, c in cell:
                    out[m] = out[m] + f * c
        return tuple(out)

    def involute(self, v):
        return self.involution.apply(vec_conj(v))

    def commutator(self, u, v):
        return tuple(
            a - b
            for a, b in zip(self.multiply(u, v), self.multiply(v, u))
        )

    def left_mult_matrix(self, a):
        return Matrix.from_columns(
            [self.multiply(a, unit_vec(self.dim, j)) for j in range(self.dim)],
            rows=self.dim,
        )

    def right_mult_matrix(self, a):
        return Matrix.from_columns(
            [self.multiply(unit_vec(self.dim, j), a) for j in range(self.dim)],
            rows=self.dim,
        )

    def basis_vector(self, i):
        return unit_vec(self.dim, i)

    def element_str(self, v):
        parts = []
        for c, lab in zip(v, self.labels):
            if c:
                parts.append("(%s)%s" % (c, lab))
        return " + ".join(parts) if parts else "0"

    # -- axiom sweeps -----------------------------------------------------

    def check_axioms(self):
        """Full associativity/involution/unit sweep.

        Returns a list of (name, witness) failures; empty means every
        axiom holds on all basis triples and pairs.
        """
        failures = []
        n = self.dim
        for i in range(n):
            ei = unit_vec(n, i)
            for j in range(n):
                ej = unit_vec(n, j)
                left = self.multiply(ei, ej)
                for k in range(n):
                    ek = unit_vec(n, k)
                    lhs = self.multiply(left, ek)
                    rhs = self.multiply(ei, self.multiply(ej, ek))
                    if lhs != rhs:
                        failures.append(
                            ("associativity", (self.labels[i], self.labels[j], self.labels[k]))
                        )
                inv_prod = self.involute(self.multiply(ei, ej))
                prod_inv = self.multiply(self.involute(ej), self.involute(ei))
                if inv_prod != prod_inv:
                    failures.append(
                        ("involution antihomomorphism", (self.labels[i], self.labels[j]))
                    )
            if self.involute(self.involute(ei)) != ei:
                failures.append(("involution involutive", self.labels[i]))
            if self.unit is not None:
                if self.multiply(self.unit, ei) != ei or self.multiply(ei, self.unit) != ei:
                    failures.append(("unit", self.labels[i]))
        return failures


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
    # the conjugate transpose sends E_mk to E_km: row (k, m) has its one
    # at column (m, k)
    rows = []
    for k in range(n):
        for m in range(n):
            row = [ZERO] * dim
            row[idx(m, k)] = ONE
            rows.append(tuple(row))
    invol = Matrix._of(tuple(rows), dim)
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
    A = make_matrix_algebra(N, label="f", index_base=0)
    return StarAlgebra(A.labels, A.terms, A.involution, A.unit, model=("moyal", N))


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

    def embed_a(v):
        return tuple(v) + zero_vec(B.dim)

    def embed_b(v):
        return zero_vec(A.dim) + tuple(v)

    shift = A.dim
    terms = list(A.terms) + [
        tuple((j + shift, tuple((m + shift, c) for m, c in cell)) for j, cell in row)
        for row in B.terms
    ]
    invol_cols = [embed_a(A.involution.column(j)) for j in range(A.dim)] + [
        embed_b(B.involution.column(j)) for j in range(B.dim)
    ]
    invol = Matrix.from_columns(invol_cols, rows=dim)
    if A.unit is not None and B.unit is not None:
        unit = vec_add(embed_a(A.unit), embed_b(B.unit))
    else:
        unit = None
    return StarAlgebra(labels, terms, invol, unit, model=("sum", A, B))


def quotient_algebra(A, ideal_subspace, labels_prefix="q"):
    """Quotient of A by a two-sided *-closed ideal, via the deterministic
    section.  Returns (algebra, projection matrix, section matrix).

    Structure constants are transported through the section; the result
    is independent of the section because the subspace is an ideal.  The
    section lifts quotient basis element i to the parent basis element
    c_i (the complement indices), so the product of two lifts is one of
    the parent's nonzero basis products or zero, and the involute of a
    lift is a column of the parent's involution.  The model tag
    ("quotient", A, ideal, section) keeps what `characters` needs to
    pull the parent's characters back.
    """
    Q = QuotientSpace(A.dim, ideal_subspace)
    qdim = Q.dim
    labels = ["%s%d" % (labels_prefix, i) for i in range(qdim)]
    kept = Q.complement_indices
    position = {c: i for i, c in enumerate(kept)}
    # the constructor drops zero coordinates and products
    terms = [
        tuple(
            (position[j], tuple(enumerate(Q.project(product))))
            for j, product in A.basis_products(c).items()
            if j in position
        )
        for c in kept
    ]
    # project o invol o lift is antilinear; on the lift of a basis
    # element, which is real, it is the projected involution column
    invol = Matrix.from_columns(
        [Q.project(A.involution.column(c)) for c in kept], rows=qdim
    )
    unit = Q.project(A.unit) if A.unit is not None else None
    alg = StarAlgebra(
        labels, terms, invol, unit, model=("quotient", A, ideal_subspace, Q.section)
    )
    return alg, Q.projection, Q.section


# ---------------------------------------------------------------------------
# centers and derivations


def center(A):
    """Exact solution space of [z, b_i] = 0 for every basis element.

    Equation row (i, m) is the m-th coordinate of z b_i - b_i z, that is
    sum over k of z_k (c_ki^m - c_ik^m), where basis_k . basis_j = sum
    over m of c_kj^m basis_m; each nonzero c_kj^m from `terms` enters two
    rows.  The rows that stay zero are dropped before `nullspace` (148 of
    the 256 rows of M_4), which leaves the kernel as it was.
    """
    n = A.dim
    if not n:
        return Subspace(0, [])
    rows = [[ZERO] * n for _ in range(n * n)]
    for k, row in enumerate(A.terms):
        for j, cell in row:
            for m, c in cell:
                zb = rows[j * n + m]
                zb[k] = zb[k] + c
                bz = rows[k * n + m]
                bz[j] = bz[j] - c
    equations = tuple(tuple(row) for row in rows if any(row))
    return Subspace(n, nullspace(Matrix._of(equations, n)))


def commutators(A, v):
    """{i: {m: coordinate}} holding [v, b_i] for every basis element b_i
    that some nonzero product reaches, from one pass over `terms`: a
    nonzero basis_k . basis_j adds v_k times it to [v, b_j] and subtracts
    v_j times it from [v, b_k].  A column may sum to zero."""
    comms = {}
    for k, (x, row) in enumerate(zip(v, A.terms)):
        for j, cell in row:
            y = v[j]
            if x:
                into = comms.setdefault(j, {})
                for m, c in cell:
                    into[m] = into.get(m, ZERO) + x * c
            if y:
                out = comms.setdefault(k, {})
                for m, c in cell:
                    out[m] = out.get(m, ZERO) - y * c
    return comms


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
        if any(comm.values()):
            return (A.labels[i], tuple(comm.get(m, ZERO) for m in range(A.dim)))
    return None


def derivations(A):
    """Basis of all linear maps with D(ab) = D(a)b + a D(b).

    The unknown map is an n x n grid D, with D(b_k) = sum over r of
    D[r][k] b_r; Leibniz on every basis pair gives n^3 linear equations.
    Row (i, j, m) is the m-th coordinate of D(b_i b_j) - D(b_i) b_j -
    b_i D(b_j), built from the nonzero structure constants only: each
    c_ij^k enters row (i, j, m) for every m, each c_rj^m row (i, j, m)
    for every i, and each c_ir^m row (i, j, m) for every j.  Returns a
    list of matrices spanning the solution space.
    """
    n = A.dim
    equations = {}

    def add(key, col, c):
        coeffs = equations.setdefault(key, {})
        coeffs[col] = coeffs.get(col, ZERO) + c

    for a, row in enumerate(A.terms):
        for b, cell in row:
            for k, c in cell:
                for t in range(n):
                    add((a, b, t), t * n + k, c)
                    add((t, b, k), a * n + t, -c)
                    add((a, t, k), b * n + t, -c)
    rows = [
        tuple(equations[key].get(col, ZERO) for col in range(n * n))
        for key in sorted(equations)
        if any(equations[key].values())
    ]
    ker = nullspace(Matrix(rows, cols=n * n))
    return [Matrix([[v[r * n + c] for c in range(n)] for r in range(n)]) for v in ker]


# ---------------------------------------------------------------------------
# characters


class Character(Immutable):
    """A nonzero multiplicative linear functional, held by its values on
    the basis."""

    __slots__ = ("coords", "label")

    def __init__(self, coords, label):
        object.__setattr__(self, "coords", tuple(Scalar.promote(c) for c in coords))
        object.__setattr__(self, "label", label)

    def __call__(self, v):
        out = ZERO
        for c, x in zip(self.coords, v):
            if c and x:
                out = out + c * x
        return out

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "Character(%s)" % self.label


def characters(A):
    """Complete character list, read from the model tag.

    M_n and Moyal truncations with n >= 2 have none, M_1 has one, a
    function model has its point evaluations, and a sum lists those of
    its left block and then those of its right one.  A quotient B = A/I
    takes its characters from its parent: a character of B is a
    character of A that vanishes on I (Calow-Matthes), so the route keeps
    those of `characters(A)` and pulls each back through the section,
    phi_B(b) = phi_A(section b).  They are sorted by their values on B's
    basis and labelled phi_0, phi_1, ....  Every route enumerates at any
    dimension.  An algebra without a model tag has no route and raises
    AlgebraError; `verify` never builds one.
    """
    model = A.model[0] if A.model else None
    if model in ("matrix", "moyal"):
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
        values = sorted(
            (
                tuple(phi(section.column(j)) for j in range(A.dim))
                for phi in characters(parent)
                if not any(phi(v) for v in ideal.basis)
            ),
            key=_tuple_sort_key,
        )
        return [Character(coords, "phi_%d" % k) for k, coords in enumerate(values)]
    raise AlgebraError("characters need a model tag; this algebra has none")


def _tuple_sort_key(values):
    return tuple((c.re, c.im) for c in values)


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
