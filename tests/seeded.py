"""Seeded generators of exact test data: pseudo-random unitaries and
partitions of unity, one-sided multiplication maps and deformed
Minkowski elements.  The same seed always gives the same object."""

from fractions import Fraction

from nctangent.cli import _block_sizes
from nctangent.minkowski import PBWElement
from nctangent.partition import Partition
from nctangent.scalars import Matrix, Scalar

from dense_matrix import DenseMatrix


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
            U = U @ DenseMatrix(rows).to_matrix()
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
            U = U @ DenseMatrix(rows).to_matrix()
    return U


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
                proj = DenseMatrix(
                    [
                        [
                            Scalar(1)
                            if (r == s and grouping[r] == alpha)
                            else Scalar(0)
                            for s in range(n)
                        ]
                        for r in range(n)
                    ]
                ).to_matrix()
                for row in DenseMatrix.of(U @ proj @ W).entries:
                    zetas[alpha].extend(row)
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


def right_mult_matrix(A, a):
    """Matrix of right multiplication by a on A: column j is e_j a."""
    return DenseMatrix.from_columns(
        [A.multiply(A.basis_vector(j), a) for j in range(A.dim)], rows=A.dim
    ).to_matrix()


def multiplication_maps(A, side="left"):
    """The family of one-sided multiplication operators by basis
    elements."""
    if side == "left":
        return [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    if side == "right":
        return [right_mult_matrix(A, A.basis_vector(i)) for i in range(A.dim)]
    raise ValueError("side must be 'left' or 'right'")


def random_element(rng, d, kappa, max_degree, max_terms=3):
    """Deterministic pseudo-random element for seeded property sweeps."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, max_degree)
        beta = [0] * d
        n = 0
        for _ in range(total):
            slot = rng.randrange(d + 1)
            if slot == d:
                n += 1
            else:
                beta[slot] += 1
        num = rng.randint(-4, 4)
        den = rng.randint(1, 3)
        imn = rng.randint(-4, 4)
        terms[(tuple(beta), n)] = Scalar(Fraction(num, den), Fraction(imn, den))
    return PBWElement(d, kappa, terms)
