"""Finite-dimensional associative *-algebras given by structure constants.

An algebra is a coordinate space Q(i)^n with a product table, an
involution, and an optional unit.  Model constructors cover square-matrix
algebras, commutative pointwise-function algebras, a truncated
oscillator-basis surrogate for a deformed plane, and direct sums.  On top
of that sit centers, derivation spaces, characters and supports.

Characters are enumerated model-aware where a closed description exists;
otherwise a generic path abelianizes the algebra (characters kill every
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


class StarAlgebra:
    """Associative *-algebra on Q(i)^n with explicit structure constants.

    `table[i][j]` is the coordinate vector of (basis_i . basis_j).  The
    involution acts antilinearly: conjugate the coordinates, then apply
    `involution` as a matrix.  `unit` is a coordinate vector or None for
    a non-unital algebra.

    `terms` is the sparse form of `table`, built once here: `terms[i]`
    holds one `(j, ((m, c), ...))` entry per nonzero cell `table[i][j]`,
    listing only its nonzero coefficients c at coordinates m.  `multiply`,
    `center` and `is_character` read the structure constants through it,
    so zero cells cost nothing (M_n has n^3 nonzero cells of n^6).
    """

    __slots__ = ("dim", "labels", "table", "terms", "involution", "unit", "model")

    def __init__(self, labels, table, involution, unit, model=None):
        dim = len(labels)
        table = tuple(
            tuple(tuple(Scalar.promote(c) for c in cell) for cell in row)
            for row in table
        )
        if len(table) != dim or any(len(row) != dim for row in table):
            raise AlgebraError("structure table shape does not match basis size")
        for row in table:
            for cell in row:
                if len(cell) != dim:
                    raise AlgebraError("structure table entry has wrong length")
        if involution.rows != dim or involution.cols != dim:
            raise AlgebraError("involution matrix shape mismatch")
        if unit is not None:
            unit = tuple(Scalar.promote(c) for c in unit)
            if len(unit) != dim:
                raise AlgebraError("unit vector has wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", tuple(labels))
        terms = []
        for row in table:
            entries = []
            for j, cell in enumerate(row):
                nonzero = tuple((m, c) for m, c in enumerate(cell) if c)
                if nonzero:
                    entries.append((j, nonzero))
            terms.append(tuple(entries))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "model", model)

    def __setattr__(self, *a):
        raise AttributeError("StarAlgebra is immutable")

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
                left = self.table[i][j]
                ej = unit_vec(n, j)
                for k in range(n):
                    lhs = self.multiply(left, unit_vec(n, k))
                    rhs = self.multiply(ei, self.table[j][k])
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
    table = [[None] * dim for _ in range(dim)]
    for m in range(n):
        for k in range(n):
            for p in range(n):
                for q in range(n):
                    cell = zero_vec(dim)
                    if k == p:
                        cell = unit_vec(dim, idx(m, q))
                    table[idx(m, k)][idx(p, q)] = cell
    invol = Matrix.from_columns(
        [unit_vec(dim, idx(k, m)) for m in range(n) for k in range(n)],
        rows=dim,
    )
    unit = tuple(
        ONE if (m == k) else ZERO for m in range(n) for k in range(n)
    )
    return StarAlgebra(labels, table, invol, unit, model=("matrix", n))


def make_moyal_truncation(N):
    """Truncated oscillator-basis model of the deformed plane.

    The infinite oscillator basis multiplies like matrix units, so its
    rank-N truncation is the matrix algebra with basis relabeled f_mn,
    indices starting at 0.  The deformation parameter only normalizes
    the (out-of-scope) integral and does not enter the arithmetic.
    """
    A = make_matrix_algebra(N, label="f", index_base=0)
    return StarAlgebra(A.labels, A.table, A.involution, A.unit, model=("moyal", N))


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
    table = [
        [unit_vec(dim, i) if i == j else zero_vec(dim) for j in range(dim)]
        for i in range(dim)
    ]
    invol = Matrix.identity(dim)
    unit = tuple(ONE for _ in range(dim))
    return StarAlgebra(labels, table, invol, unit, model=("function", point_count))


def direct_sum(A, B):
    """Componentwise product and involution on the concatenated basis."""
    dim = A.dim + B.dim
    labels = ["1:%s" % l for l in A.labels] + ["2:%s" % l for l in B.labels]

    def embed_a(v):
        return tuple(v) + zero_vec(B.dim)

    def embed_b(v):
        return zero_vec(A.dim) + tuple(v)

    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < A.dim and j < A.dim:
                row.append(embed_a(A.table[i][j]))
            elif i >= A.dim and j >= A.dim:
                row.append(embed_b(B.table[i - A.dim][j - A.dim]))
            else:
                row.append(zero_vec(dim))
        table.append(row)
    invol_cols = [embed_a(A.involution.column(j)) for j in range(A.dim)] + [
        embed_b(B.involution.column(j)) for j in range(B.dim)
    ]
    invol = Matrix.from_columns(invol_cols, rows=dim)
    if A.unit is not None and B.unit is not None:
        unit = vec_add(embed_a(A.unit), embed_b(B.unit))
    else:
        unit = None
    return StarAlgebra(labels, table, invol, unit, model=("sum", A, B))


def quotient_algebra(A, ideal_subspace, labels_prefix="q"):
    """Quotient of A by a two-sided *-closed ideal, via the deterministic
    section.  Returns (algebra, projection matrix, section matrix).

    Structure constants are transported through the section; the result
    is independent of the section because the subspace is an ideal.
    """
    Q = QuotientSpace(A.dim, ideal_subspace)
    qdim = Q.dim
    labels = ["%s%d" % (labels_prefix, i) for i in range(qdim)]
    lifted = [Q.lift(unit_vec(qdim, i)) for i in range(qdim)]
    table = [
        [Q.project(A.multiply(lifted[i], lifted[j])) for j in range(qdim)]
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
    alg = StarAlgebra(labels, table, invol, unit, model=("quotient", A))
    return alg, Q.projection, Q.section


# ---------------------------------------------------------------------------
# centers and derivations


def center(A):
    """Exact solution space of [z, b_i] = 0 for every basis element.

    Equation row (i, m) is the m-th coordinate of z b_i - b_i z, that is
    sum over k of z_k (table[k][i][m] - table[i][k][m]); each nonzero
    structure constant table[k][j][m] = c enters two rows.
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
    return Subspace(n, nullspace(Matrix(rows, cols=n)))


def is_central(A, v):
    return noncentral_witness(A, v) is None


def noncentral_witness(A, v):
    """None when v is central, else (basis label, commutator value)."""
    for i in range(A.dim):
        comm = A.commutator(v, unit_vec(A.dim, i))
        if not vec_is_zero(comm):
            return (A.labels[i], comm)
    return None


def derivations(A):
    """Basis of all linear maps with D(ab) = D(a)b + a D(b).

    The unknown map is an n x n grid; Leibniz on every basis pair gives
    n^3 linear equations.  Returns a list of matrices spanning the
    solution space.
    """
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            cell = A.table[i][j]
            for m in range(n):
                coeffs = [ZERO] * (n * n)
                for k in range(n):
                    c = cell[k]
                    if c:
                        coeffs[m * n + k] = coeffs[m * n + k] + c
                for r in range(n):
                    t1 = A.table[r][j][m]
                    if t1:
                        coeffs[r * n + i] = coeffs[r * n + i] - t1
                    t2 = A.table[i][r][m]
                    if t2:
                        coeffs[r * n + j] = coeffs[r * n + j] - t2
                if any(coeffs):
                    rows.append(tuple(coeffs))
    if not rows:
        ker = [unit_vec(n * n, s) for s in range(n * n)]
    else:
        ker = nullspace(Matrix(rows, cols=n * n))
    out = []
    for v in ker:
        out.append(Matrix([[v[r * n + c] for c in range(n)] for r in range(n)]))
    return out


# ---------------------------------------------------------------------------
# characters


class Character:
    """A nonzero multiplicative linear functional, held by its values on
    the basis."""

    __slots__ = ("coords", "label")

    def __init__(self, coords, label):
        object.__setattr__(self, "coords", tuple(Scalar.promote(c) for c in coords))
        object.__setattr__(self, "label", label)

    def __setattr__(self, *a):
        raise AttributeError("Character is immutable")

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


def characters(A, bound=CHARACTER_DIM_BOUND):
    """Complete character list.

    Model-aware where possible (matrix, Moyal, function and sum models).
    Otherwise the generic path proves emptiness through the
    abelianization, or enumerates exactly: the values come from the
    common eigenvalues of the multiplication operators of the commutative
    quotient, found as roots over Q(i) of their minimal polynomials by
    `_linear_roots`.  Raises UnsupportedCharacters when a character value
    would lie outside Q(i) or the dimension exceeds `bound`.
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
        for phi in characters(left, bound):
            out.append(
                Character(tuple(phi.coords) + zero_vec(right.dim), "1:%s" % phi.label)
            )
        for phi in characters(right, bound):
            out.append(
                Character(zero_vec(left.dim) + tuple(phi.coords), "2:%s" % phi.label)
            )
        return out
    return _generic_characters(A, bound)


def _generic_characters(A, bound):
    if A.dim > bound:
        raise UnsupportedCharacters(
            "generic character enumeration limited to dimension %d" % bound
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


def support(a, A, bound=CHARACTER_DIM_BOUND):
    """Characters that do not vanish on `a`."""
    return [phi for phi in characters(A, bound) if phi(a)]
