"""The generic character route, kept as the oracle of `characters`.

`nctangent.algebras.characters` reads the characters of every algebra a
scenario builds from its model tag, and a quotient takes them from its
parent.  The route here assumes no tag.  It abelianizes the algebra
(characters kill every commutator), then splits the dual of the
commutative quotient into exact common eigenspaces of the multiplication
operators.  Eigenvalues are extracted exactly from minimal polynomials
by the rational root theorem over the Gaussian integers.  An algebra
whose characters would need values outside Q(i) raises
UnsupportedCharacters rather than returning a partial list, and so does
one above CHARACTER_DIM_BOUND, which guards the cost of the eigen-split.
Its solves and null spaces are the dense oracles of tests/test_scalars.py,
so it shares no elimination with `nctangent`.
"""

from math import isqrt, lcm

from nctangent.algebras import (
    AlgebraError,
    Character,
    quotient_algebra,
    two_sided_ideal_closure,
)
from nctangent.scalars import (
    I,
    Matrix,
    ONE,
    Scalar,
    ZERO,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)

from dense_matrix import DenseMatrix
from test_scalars import conjugate, dense_nullspace, dense_solve

CHARACTER_DIM_BOUND = 64


class UnsupportedCharacters(AlgebraError):
    """Raised when the complete character list cannot be produced exactly."""


def tuple_sort_key(values):
    """The order of character values: (re, im) coordinate by coordinate,
    as `Fraction` pairs."""
    return tuple((c.re, c.im) for c in values)


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


def generic_characters(A):
    """Complete character list of any algebra, tagged or not: empty when
    the abelianization is zero, otherwise the common eigenvalues of the
    multiplication operators of the commutative quotient, pulled back,
    sorted and labelled phi_0, phi_1, ....  Raises UnsupportedCharacters
    when a character value would lie outside Q(i), or above dimension
    CHARACTER_DIM_BOUND."""
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
            ei, ej = unit_vec(A.dim, i), unit_vec(A.dim, j)
            c = vec_sub(A.multiply(ei, ej), A.multiply(ej, ei))
            if not vec_is_zero(c):
                comms.append(c)
    C = two_sided_ideal_closure(A, comms)
    if C.dim == A.dim:
        return []
    B, proj, _sect = quotient_algebra(A, C)
    tuples = split_common_eigenvalues(B)
    out = []
    seen = set()
    for k, values in enumerate(sorted(tuples, key=tuple_sort_key)):
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


def split_common_eigenvalues(B):
    """Common eigenvalue tuples of the transposed multiplication
    operators of a commutative algebra, over Q(i).

    Splits the dual space into exact common eigenspaces one operator at a
    time, with eigenvalues from `linear_roots` on each restricted
    operator's minimal polynomial.  A minimal polynomial that does not
    split into linear factors over Q(i) means some character value lies
    outside Q(i); that raises UnsupportedCharacters.
    """
    n = B.dim
    blocks = [([unit_vec(n, r) for r in range(n)], ())]
    for i in range(n):
        L = B.left_mult_matrix(unit_vec(n, i))
        T = transpose(L)
        new_blocks = []
        for basis, values in blocks:
            Bcols = DenseMatrix.from_columns([tuple(b) for b in basis], rows=n)
            restricted_cols = []
            for b in basis:
                image = T.apply(b)
                sol = dense_solve(Bcols, image)
                if sol is None:
                    raise AlgebraError("dual block not invariant")
                restricted_cols.append(sol[0])
            M = DenseMatrix.from_columns(restricted_cols, rows=len(basis)).to_matrix()
            for root, sub in _eigensplit(M, basis):
                new_blocks.append((sub, values + (root,)))
        blocks = new_blocks
    return [values for _basis, values in blocks]


def transpose(M):
    """The transpose of M: its dense rows as columns."""
    return DenseMatrix.from_columns(DenseMatrix.of(M).entries, rows=M.cols).to_matrix()


def _eigensplit(M, basis):
    """Split `basis` into exact eigenspaces of the operator M given in
    that basis.  Yields (eigenvalue, sub-basis) pairs."""
    k = M.rows
    roots = linear_roots(minimal_polynomial(M))
    out = []
    for r in roots:
        shifted = M - Matrix.identity(k).scale(r)
        ker = dense_nullspace(DenseMatrix.of(shifted))
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


def minimal_polynomial(M):
    """Monic minimal polynomial of M as a low-to-high coefficient list."""
    k = M.rows
    if k == 0:
        return [ONE]
    power = Matrix.identity(k)
    flats = []
    while True:
        flats.append(tuple(a for row in DenseMatrix.of(power).entries for a in row))
        if len(flats) > 1:
            cols = DenseMatrix.from_columns(flats[:-1], rows=k * k)
            sol = dense_solve(cols, flats[-1])
            if sol is not None:
                coeffs = list(sol[0]) + [Scalar(-1)]
                # normalize to monic with +1 leading coefficient
                return [(-c) for c in coeffs[:-1]] + [ONE]
        power = power @ M
        if len(flats) > k + 1:
            raise AlgebraError("minimal polynomial search exceeded dimension")


def linear_roots(coeffs):
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
    return (z * conjugate(z)).re.numerator


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
