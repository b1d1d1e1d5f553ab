"""Finite-dimensional associative *-algebras given by structure constants.

An algebra is a coordinate space Q(i)^n with sparse structure constants
(the nonzero products of basis elements), an involution, and an optional
unit.  Model constructors write those constants directly for matrix
algebras, pointwise-function algebras, a truncated oscillator-basis
surrogate for a deformed plane, direct sums and quotients.  On top of
that sit centers, derivation spaces and characters.

Characters are enumerated model-aware where a closed description exists.
A quotient A/I whose parent A is commutative by construction, or has no
characters by construction, takes them from A: its characters are those
of A that vanish on I, pulled back through the section.  Any other
algebra takes a generic path that abelianizes it (characters kill every
commutator) and splits the dual of the quotient into common eigenspaces
of the multiplication operators.  Eigenvalues are extracted exactly from
minimal polynomials by the rational root theorem over the Gaussian
integers; an algebra whose characters would need values outside Q(i)
raises rather than returning a partial list.
"""

from __future__ import annotations

from math import isqrt, lcm

from nctangent.scalars import (
    I,
    Immutable,
    Matrix,
    ONE,
    QuotientSpace,
    Scalar,
    Subspace,
    ZERO,
    nullspace,
    solve_linear,
    unit_vec,
    vec_add,
    vec_conj,
    vec_is_zero,
    vec_scale,
    zero_vec,
)

CHARACTER_DIM_BOUND = 64


class AlgebraError(ValueError):
    pass


class UnsupportedCharacters(AlgebraError):
    """Raised when the complete character list cannot be produced exactly."""


class StarAlgebra(Immutable):
    """Associative *-algebra on Q(i)^n with explicit structure constants.

    `terms` holds the structure constants sparsely: `terms[i]` has one
    `(j, ((m, c), ...))` entry per nonzero product basis_i . basis_j, with
    ascending j, listing its nonzero coefficients c at coordinates m.
    Zero products cost nothing (M_n has n^3 nonzero cells of n^6).  The
    involution acts antilinearly: conjugate the coordinates, then apply
    `involution` as a matrix.  `unit` is a coordinate vector or None for
    a non-unital algebra.
    """

    __slots__ = ("dim", "labels", "terms", "involution", "unit", "model")

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
        out = []
        for row in self.terms:
            cells = [[ZERO] * self.dim for _ in range(self.dim)]
            for j, cell in row:
                for m, c in cell:
                    cells[j][m] = cells[j][m] + c
            out.append(tuple(map(tuple, cells)))
        return tuple(out)

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
    model tag ("quotient", A, ideal, section) keeps what `characters`
    needs to pull the parent's characters back.
    """
    Q = QuotientSpace(A.dim, ideal_subspace)
    qdim = Q.dim
    labels = ["%s%d" % (labels_prefix, i) for i in range(qdim)]
    lifted = [Q.lift(unit_vec(qdim, i)) for i in range(qdim)]
    # the constructor drops the zero coordinates and zero products
    terms = [
        tuple(
            (j, tuple(enumerate(Q.project(A.multiply(lifted[i], lifted[j])))))
            for j in range(qdim)
        )
        for i in range(qdim)
    ]
    invol_cols = []
    for i in range(qdim):
        w = A.involute(lifted[i])
        invol_cols.append(Q.project(w))
    # the coordinate involution must see through the conjugation done on
    # quotient coordinates: project o invol o lift is antilinear, so its
    # matrix part is (project o invol o lift) composed with conjugation
    invol = Matrix.from_columns(invol_cols, rows=qdim)
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


def noncentral_witness(A, v):
    """None when v is central, else (basis label, commutator value) for
    the first basis element b_i with [v, b_i] != 0.

    All the commutators come from one pass over `terms`: a nonzero
    basis_k . basis_j adds v_k times it to [v, b_j] and subtracts v_j
    times it from [v, b_k].  Each commutator is a dict of the
    coordinates it reaches; the witness is the first nonzero one in
    ascending i, written out as a full coordinate tuple.
    """
    if len(v) != A.dim:
        raise AlgebraError("element length mismatch")
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


def is_character(A, coords):
    phi = Character(coords, "?")
    if all(not c for c in coords):
        return False
    values = phi.coords
    for x, row in zip(values, A.terms):
        # phi(b_i b_j) - phi(b_i) phi(b_j) for every j; zero cells add nothing
        defect = [-(x * y) for y in values]
        for j, cell in row:
            for m, c in cell:
                defect[j] = defect[j] + values[m] * c
        if any(defect):
            return False
    if A.unit is not None and phi(A.unit) != ONE:
        return False
    return True


def characters(A):
    """Complete character list.

    Model-aware where possible (matrix, Moyal, function and sum models).
    A quotient B = A/I takes the parent route when A is commutative by
    construction (a function model, or a quotient of one at any depth)
    or has no characters by construction (M_n or Moyal with n >= 2, or a
    sum of such).  A character of B is a character of A that vanishes on
    I, so the route keeps those of `characters(A)` and pulls each back
    through the section, phi_B(b) = phi_A(section b).  It lists them as
    the generic path would: a commutative B is its own commutative
    quotient, so the generic values are B's own coordinates, sorted and
    labelled phi_0, phi_1, ...; a character-free A gives [].

    Every other algebra takes the generic path, which proves emptiness
    through the abelianization, or enumerates exactly: the values come
    from the common eigenvalues of the multiplication operators of the
    commutative quotient, found as roots over Q(i) of their minimal
    polynomials by `_linear_roots`.  Raises UnsupportedCharacters when a
    character value would lie outside Q(i), or when the generic path
    meets a dimension above CHARACTER_DIM_BOUND.  The bound guards the
    cost of the eigen-split only: the model-aware and parent routes
    enumerate at any dimension.
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
        if _commutative_model(parent) or _characterless_model(parent):
            values = sorted(
                (
                    tuple(phi(section.column(j)) for j in range(A.dim))
                    for phi in characters(parent)
                    if not any(phi(v) for v in ideal.basis)
                ),
                key=_tuple_sort_key,
            )
            return [Character(coords, "phi_%d" % k) for k, coords in enumerate(values)]
    return _generic_characters(A)


def _commutative_model(A):
    """A function model, or a quotient of one at any depth."""
    model = A.model[0] if A.model else None
    if model == "quotient":
        return _commutative_model(A.model[1])
    return model == "function"


def _characterless_model(A):
    """M_n or Moyal with n >= 2, or a sum of such: no characters."""
    model = A.model[0] if A.model else None
    if model in ("matrix", "moyal"):
        return A.model[1] >= 2
    if model == "sum":
        return _characterless_model(A.model[1]) and _characterless_model(A.model[2])
    return False


def _generic_characters(A):
    if A.dim > CHARACTER_DIM_BOUND:
        raise UnsupportedCharacters(
            "generic character enumeration limited to dimension %d" % CHARACTER_DIM_BOUND
        )
    if A.dim == 0:
        return []
    # characters kill every commutator, hence the two-sided ideal they
    # generate; quotient by it and work in the commutative remainder
    comms = []
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            c = A.commutator(unit_vec(A.dim, i), unit_vec(A.dim, j))
            if not vec_is_zero(c):
                comms.append(c)
    C = two_sided_ideal_closure(A, comms)
    if C.dim == A.dim:
        return []
    B, proj, _sect = quotient_algebra(A, C)
    tuples = _split_common_eigenvalues(B)
    out = []
    seen = set()
    for k, values in enumerate(sorted(tuples, key=_tuple_sort_key)):
        if not is_character(B, values):
            continue
        # pull back along the projection: phi(a) = phi_B(proj a)
        coords = tuple(
            Character(values, "?")(proj.column(j)) for j in range(A.dim)
        )
        if coords in seen:
            continue
        seen.add(coords)
        out.append(Character(coords, "phi_%d" % len(out)))
    return out


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


def _split_common_eigenvalues(B):
    """Common eigenvalue tuples of the transposed multiplication
    operators of a commutative algebra, over Q(i).

    Splits the dual space into exact common eigenspaces one operator at a
    time, with eigenvalues from `_linear_roots` on each restricted
    operator's minimal polynomial.  A minimal polynomial that does not
    split into linear factors over Q(i) means some character value lies
    outside Q(i); that raises UnsupportedCharacters.
    """
    n = B.dim
    blocks = [([unit_vec(n, r) for r in range(n)], ())]
    for i in range(n):
        L = B.left_mult_matrix(unit_vec(n, i))
        T = L.transpose()
        new_blocks = []
        for basis, values in blocks:
            Bcols = Matrix.from_columns([tuple(b) for b in basis], rows=n)
            restricted_cols = []
            for b in basis:
                image = T.apply(b)
                sol = solve_linear(Bcols, image)
                if sol is None:
                    raise AlgebraError("dual block not invariant")
                restricted_cols.append(sol[0])
            M = Matrix.from_columns(restricted_cols, rows=len(basis))
            for root, sub in _eigensplit(M, basis):
                new_blocks.append((sub, values + (root,)))
        blocks = new_blocks
    return [values for _basis, values in blocks]


def _eigensplit(M, basis):
    """Split `basis` into exact eigenspaces of the operator M given in
    that basis.  Yields (eigenvalue, sub-basis) pairs."""
    k = M.rows
    roots = _linear_roots(_minimal_polynomial(M))
    out = []
    for r in roots:
        shifted = M - Matrix.identity(k).scale(r)
        ker = nullspace(shifted)
        if not ker:
            continue
        sub = []
        for coeffs in ker:
            w = zero_vec(len(basis[0]))
            for c, b in zip(coeffs, basis):
                if c:
                    w = vec_add(w, vec_scale(c, b))
            sub.append(w)
        out.append((r, sub))
    return out


def _minimal_polynomial(M):
    """Monic minimal polynomial of M as a low-to-high coefficient list."""
    k = M.rows
    if k == 0:
        return [ONE]
    power = Matrix.identity(k)
    flats = []
    while True:
        flats.append(tuple(a for row in power.entries for a in row))
        cols = Matrix.from_columns(flats[:-1], rows=k * k) if len(flats) > 1 else None
        if cols is not None:
            sol = solve_linear(cols, flats[-1])
            if sol is not None:
                coeffs = list(sol[0]) + [Scalar(-1)]
                # normalize to monic with +1 leading coefficient
                return [(-c) for c in coeffs[:-1]] + [ONE]
        power = power @ M
        if len(flats) > k + 1:
            raise AlgebraError("minimal polynomial search exceeded dimension")


def _linear_roots(coeffs):
    """The distinct roots in Q(i) of the polynomial with low-to-high
    coefficients `coeffs` (the last one nonzero), in no set order.

    Raises UnsupportedCharacters unless the polynomial splits into linear
    factors over Q(i).  Exact and complete: each root comes from
    `_next_root` (the rational root theorem over Z[i]) and is divided out
    for as long as it divides.  The root 0 and a linear remainder cost no
    factoring, so t^k (a t + b) is solved at any coefficient size.  A
    remainder of degree 2 or more has the norms of its end coefficients
    factored by trial division, which runs up to the square root of what
    is left of a norm once its small primes are removed: an end
    coefficient that is a prime near 10^12 (norm near 10^24) does not
    finish in practice.
    """
    p = list(coeffs)
    roots = []
    while len(p) > 1:
        root = _next_root(p)
        if root is None:
            raise UnsupportedCharacters(
                "character values are not Gaussian rational (a factor of "
                "degree %d has no root in Q(i))" % (len(p) - 1)
            )
        roots.append(root)
        quotient, rest = _divide_linear(p, root)
        while not rest:
            p = quotient
            quotient, rest = _divide_linear(p, root)
    return roots


def _next_root(p):
    """A root in Q(i) of p (degree at least 1), or None when it has none.

    A zero constant term is the root 0 and a linear p has the root
    -p[0]/p[1].  Otherwise, Z[i] being a unique factorization domain, once
    p is scaled to Gaussian integers P a root u/w in lowest terms has u
    dividing P[0] and w dividing P[-1]; each such u/w is tested with
    Horner's rule.
    """
    if not p[0]:
        return ZERO
    if len(p) == 2:
        return -p[0] / p[1]
    scale = lcm(*(c.denominator for c in p))
    for w in _gaussian_divisors(p[-1] * scale):
        for d in _gaussian_divisors(p[0] * scale):
            for u in (d, d * I, -d, -d * I):
                r = u / w
                if not _divide_linear(p, r)[1]:
                    return r
    return None


def _divide_linear(p, r):
    """Synthetic division of p (low-to-high) by t - r: the quotient and
    the remainder p(r), by Horner's rule."""
    acc = p[-1]
    quotient = [acc]
    for c in reversed(p[:-1]):
        acc = c + acc * r
        quotient.append(acc)
    rest = quotient.pop()
    quotient.reverse()
    return quotient, rest


def _gaussian_divisors(z):
    """The divisors of the nonzero Gaussian integer z, one per class of
    associates, smallest norm first."""
    divisors = [ONE]
    for prime in _prime_factors(_norm(z)):
        if prime == 2:
            gaussian_primes = [Scalar(1, 1)]
        elif prime % 4 == 3:
            gaussian_primes = [Scalar(prime)]
        else:
            # prime = x^2 + y^2 splits as (x + yi)(x - yi), not associates
            x = next(
                x for x in range(1, isqrt(prime) + 1)
                if isqrt(prime - x * x) ** 2 == prime - x * x
            )
            y = isqrt(prime - x * x)
            gaussian_primes = [Scalar(x, y), Scalar(x, -y)]
        for pi in gaussian_primes:
            powers = [ONE]
            quotient = z / pi
            while quotient.denominator == 1:
                z = quotient
                powers.append(powers[-1] * pi)
                quotient = z / pi
            divisors = [d * e for d in divisors for e in powers]
    return sorted(divisors, key=lambda d: (_norm(d), d.re, d.im))


def _norm(z):
    """|z|^2 of the Gaussian integer z, as an int."""
    return (z * z.conjugate()).re.numerator


def _prime_factors(n):
    """The distinct primes dividing the positive integer n, by trial
    division."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        primes.append(n)
    return primes
