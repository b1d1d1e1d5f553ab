"""`Subspace` keeps the sparse rows of its elimination, and the covering
layer reads them.  Each dense route they replaced is kept here, as it
was, as the oracle:

* the dense `Subspace`: its basis from a dense elimination, `sum` by
  stacking bases, `intersect` through the null space of the stacked
  generator matrix with `vec_add` loops, `contains` by reducing along
  each basis row, and the quotient's projection from the dense echelon
  form with reversed columns;
* `verify_ideal` on dense products of the linked basis elements, tested
  by the dense `contains`;
* `quotient_algebra` by the quotient projection applied to the parent's
  dense basis products;
* `reconstruction_check` by a chain of dense `Matrix` sums;
* `characters` enumerated again on every call, as a list.

They are compared on seeded random subspaces (mixed denominators,
complex entries, rank-deficient and empty inputs) and on every shipped
and test covering."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent import algebras
from nctangent.algebras import (
    AlgebraError,
    Character,
    StarAlgebra,
    _sorted_by_value,
    characters,
    make_function_algebra,
    quotient_algebra,
)
from nctangent.covering import Covering, NotAnIdeal, verify_ideal
from nctangent.partition import (
    IllDefined,
    Partition,
    functional,
    reconstruction_check,
    verify_adapted,
)
from nctangent.scalars import (
    ZERO,
    Matrix,
    Scalar,
    Subspace,
    quotient_projection,
    unit_vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)

from dense_matrix import DenseMatrix
from seeded import seeded_partition
from test_covering import shipped_and_test_coverings
from test_covering_routes import (
    COVERINGS,
    chart_ideals,
    function_covering,
    raised,
    seeded_partitions,
)
from test_kernels import sparse_mixed_scalar
from test_scalars import dense_rref, holds, oracle_contains, quotient

ALL_COVERINGS = COVERINGS + shipped_and_test_coverings()


# -- the replaced routes ------------------------------------------------------


def dense_basis(n, vectors):
    """The reduced echelon basis of the vectors by the dense elimination."""
    vectors = [tuple(Scalar.promote(e) for e in v) for v in vectors]
    reduced, pivots = dense_rref(vectors)
    return tuple(reduced[: len(pivots)])


def dense_kernel(columns, n):
    """A basis of the kernel of the matrix with these columns of length
    n, read from its dense echelon form."""
    rows = list(zip(*columns)) if n else []
    reduced, pivots = dense_rref(rows)
    out = []
    for f in (c for c in range(len(columns)) if c not in pivots):
        v = [ZERO] * len(columns)
        v[f] = Scalar(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        out.append(tuple(v))
    return out


def dense_intersect(n, U, V):
    """U and V meet in the u-parts of the kernel of [U | V]."""
    if not U or not V:
        return ()
    vectors = []
    for kv in dense_kernel(list(U) + list(V), n):
        w = zero_vec(n)
        for x, u in zip(kv[: len(U)], U):
            if x:
                w = vec_add(w, vec_scale(x, u))
        if any(w):
            vectors.append(w)
    return dense_basis(n, vectors)


def dense_quotient(n, basis):
    """(complement indices, projection entries) from the dense echelon
    form of the basis with its columns reversed."""
    reduced, rpivots = dense_rref([row[::-1] for row in basis])
    pivots = [n - 1 - p for p in rpivots]
    chosen = [c for c in range(n) if c not in pivots]
    rows = [[ZERO] * n for _ in chosen]
    for i, c in enumerate(chosen):
        rows[i][c] = Scalar(1)
    for row, r in zip(reduced, pivots):
        for i, c in enumerate(chosen):
            if row[n - 1 - c]:
                rows[i][r] = -row[n - 1 - c]
    return tuple(chosen), tuple(map(tuple, rows))


class DenseBasis:
    """The dense reading of a subspace: its basis tuple only."""

    def __init__(self, n, basis):
        self.ambient_dim, self.basis = n, basis

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return oracle_contains(self, v)


def linked_verify_ideal(algebra, subspace):
    """`verify_ideal` on dense products of the linked basis elements,
    tested by reducing along the dense basis rows."""
    if subspace.ambient_dim != algebra.dim:
        raise NotAnIdeal("subspace lives in the wrong dimension")
    dense = DenseBasis(algebra.dim, subspace.basis)
    n = algebra.dim
    columns = [[] for _ in range(n)]
    for j, row in enumerate(algebra.terms):
        for i, cell in row:
            columns[i].append((j, cell))
    for v in subspace.basis:
        support = [j for j, x in enumerate(v) if x]
        left = {i for j in support for i, _ in columns[j]}
        right = {i for j in support for i, _ in algebra.terms[j]}
        for i in sorted(left | right):
            label = algebra.labels[i]
            for side, cells, reached in (
                ("left", algebra.terms[i], left), ("right", columns[i], right)
            ):
                if i not in reached:
                    continue
                product = [ZERO] * n
                for j, cell in cells:
                    if v[j]:
                        for m, c in cell:
                            product[m] = product[m] + v[j] * c
                product = tuple(product)
                if not dense.contains(product):
                    raise NotAnIdeal(
                        "not closed under %s multiplication by %s" % (side, label),
                        witness=(side, label, product),
                    )
        star = algebra.involute(v)
        if not dense.contains(star):
            raise NotAnIdeal(
                "not closed under the involution", witness=("star", None, star)
            )


def projected_quotient_algebra(A, ideal_subspace, labels_prefix="q"):
    """`quotient_algebra` by projecting the parent's dense basis products
    and involution columns."""
    kept, projection, section = quotient(A.dim, ideal_subspace)
    qdim = len(kept)
    labels = ["%s%d" % (labels_prefix, i) for i in range(qdim)]
    position = {c: i for i, c in enumerate(kept)}
    terms = [
        tuple(
            (position[j], tuple(enumerate(projection.apply(product))))
            for j, product in A.basis_products(c).items()
            if j in position
        )
        for c in kept
    ]
    invol = DenseMatrix.from_columns(
        [projection.apply(A.involution.column(c)) for c in kept], rows=qdim
    ).to_matrix()
    unit = projection.apply(A.unit) if A.unit is not None else None
    alg = StarAlgebra(
        labels, terms, invol, unit, model=("quotient", A, ideal_subspace, section)
    )
    return alg, projection, section


def matrix_sum_reconstruction_check(P, cov):
    """`reconstruction_check` by adding the dense composites one by one."""
    if len(P) != cov.size:
        raise AlgebraError("reconstruction needs matching index sets")
    A = cov.algebra
    total = Matrix.zero(A.dim, A.dim)
    for alpha in range(cov.size):
        total = total + functional(P, cov, alpha) @ cov.projection(alpha)
    if DenseMatrix.of(total) == DenseMatrix.identity(A.dim):
        return None
    for i in range(A.dim):
        e = A.basis_vector(i)
        got = total.apply(e)
        if got != e:
            return (A.labels[i], A.element_str(vec_sub(got, e)))
    return ("identity", "mismatch")


def listed_characters(A):
    """`characters` enumerated again on every call, parents included."""
    model = A.model[0] if A.model else None
    if model == "matrix":
        return [] if A.model[1] >= 2 else [Character((Scalar(1),), "ev")]
    if model == "function":
        return [
            Character(unit_vec(A.dim, p), "ev_%d" % (p + 1)) for p in range(A.dim)
        ]
    if model == "sum":
        _, left, right = A.model
        out = [
            Character(tuple(phi.coords) + zero_vec(right.dim), "1:%s" % phi.label)
            for phi in listed_characters(left)
        ]
        out += [
            Character(zero_vec(left.dim) + tuple(phi.coords), "2:%s" % phi.label)
            for phi in listed_characters(right)
        ]
        return out
    if model == "quotient":
        _, parent, ideal, section = A.model
        values = [
            tuple(phi(section.column(j)) for j in range(A.dim))
            for phi in listed_characters(parent)
            if not any(phi(v) for v in ideal.basis)
        ]
        return [
            Character(coords, "phi_%d" % k)
            for k, coords in enumerate(_sorted_by_value(values))
        ]
    raise AlgebraError("characters need a model tag; this algebra has none")


# -- random subspaces ---------------------------------------------------------


@st.composite
def subspace_pairs(draw):
    """Two subspaces of Q(i)^n, n <= 6, with mixed-denominator complex
    entries.  The generators may be none, repeat, or include a
    combination of the others, and the second shares a seeded part of the
    first's generators, so the pair often meets in more than zero."""
    n = draw(st.integers(0, 6))
    vector = st.lists(sparse_mixed_scalar(), min_size=n, max_size=n).map(tuple)
    first = draw(st.lists(vector, max_size=n + 1))
    second = draw(st.lists(vector, max_size=n))
    if first and draw(st.booleans()):
        c = draw(sparse_mixed_scalar())
        first.append(vec_add(first[0], vec_scale(c, first[-1])))
    if first and draw(st.booleans()):
        second += draw(st.lists(st.sampled_from(first), max_size=2))
    return n, first, second


def assert_rows_match_the_basis(S):
    """`_rows` and `_pivots` are the sparse form of the reduced basis."""
    assert len(S._rows) == len(S._pivots) == len(S.basis)
    for row, p, dense in zip(S._rows, S._pivots, S.basis):
        assert row == {c: a for c, a in enumerate(dense) if a}
        assert min(row) == p and row[p] == 1
    assert list(S._pivots) == sorted(set(S._pivots))


@given(subspace_pairs(), st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_subspace_matches_the_dense_route(case, data):
    n, first, second = case
    U, V = Subspace(n, first), Subspace(n, second)
    assert U.basis == dense_basis(n, first)
    assert V.basis == dense_basis(n, second)
    rows = [[dict(row) for row in S._rows] for S in (U, V)]
    total, meet = U.sum(V), U.intersect(V)
    assert total.basis == dense_basis(n, U.basis + V.basis)
    assert meet.basis == dense_intersect(n, U.basis, V.basis)
    assert meet == V.intersect(U)
    for S in (U, V, total, meet):
        assert_rows_match_the_basis(S)
        got = quotient_projection(n, S._rows)
        assert (tuple(got[0]), DenseMatrix.of(got[1]).entries) == dense_quotient(n, S.basis)
    # the projection of the sum from both row lists at once
    chosen, projection = quotient_projection(n, U._rows + V._rows)
    assert (tuple(chosen), DenseMatrix.of(projection).entries) == dense_quotient(n, total.basis)
    # membership: members of each space, nudged ones and free probes
    coeffs = data.draw(st.lists(sparse_mixed_scalar(), min_size=2, max_size=2))
    probes = [zero_vec(n)] + list(first) + list(second)
    for w in meet.basis + total.basis:
        probes.append(vec_add(vec_scale(coeffs[0], w), vec_scale(coeffs[1], probes[-1])))
    probes += [vec_add(p, unit_vec(n, k)) for k, p in enumerate(probes[:n])]
    probes.append(tuple(data.draw(sparse_mixed_scalar()) for _ in range(n)))
    for S in (U, V, total, meet):
        for v in probes:
            assert holds(S, v) == oracle_contains(S, v)
    # no operation changes the rows it reads
    assert [[dict(row) for row in S._rows] for S in (U, V)] == rows


def test_the_random_subspaces_reach_every_shape():
    # rank-deficient generators, empty spaces, and intersections of every
    # size up to the whole space, over denominators and complex entries
    rng = random.Random(2401)
    shapes = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        first = [tuple(Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7))),
                              rng.randint(-1, 1)) for _ in range(n))
                 for _ in range(rng.randint(0, n + 1))]
        second = first[: rng.randint(0, len(first))] + [
            tuple(Scalar(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(0, 2))
        ]
        U, V = Subspace(n, first), Subspace(n, second)
        meet = U.intersect(V)
        assert meet.basis == dense_intersect(n, U.basis, V.basis)
        assert U.sum(V).basis == dense_basis(n, U.basis + V.basis)
        shapes.add((U.dim < len(first), meet.dim))
    assert {(True, 0), (False, 0), (False, 1), (True, 2)} <= shapes


def test_intersect_reads_the_rows_of_one_elimination(monkeypatch):
    from nctangent import scalars

    calls = []
    real = scalars.eliminate
    monkeypatch.setattr(
        scalars, "eliminate", lambda rows, ncols: calls.append(ncols) or real(rows, ncols)
    )
    U = Subspace(3, [(1, 1, 0), (0, 0, 1)])
    V = Subspace(3, [(1, 1, 0), (1, 0, 0)])
    empty = Subspace(3, [])
    want = Subspace(3, [(1, 1, 0)])
    calls.clear()
    meet = U.intersect(V)
    assert calls == [6]
    assert meet == want
    calls.clear()
    assert U.intersect(empty).is_zero() and empty.intersect(U).is_zero()
    assert U.sum(V).dim == 3
    assert calls == [3]


# -- the covering layer -------------------------------------------------------


def every_ideal():
    """(algebra, subspace) for each chart ideal and each sum of two, of
    every shipped and test covering."""
    return [(cov.algebra, sub) for cov in ALL_COVERINGS for sub, _ in chart_ideals(cov)]


def test_verify_ideal_matches_the_linked_dense_route():
    for A, sub in every_ideal():
        assert verify_ideal(A, sub) is None
        assert linked_verify_ideal(A, sub) is None
    rng = random.Random(2402)
    sides = []
    for cov in ALL_COVERINGS:
        A = cov.algebra
        for _ in range(6):
            vectors = []
            for _ in range(rng.randint(1, 2)):
                v = [0] * A.dim
                for k in rng.sample(range(A.dim), min(A.dim, rng.randint(1, 3))):
                    v[k] = Scalar(Fraction(rng.randint(-2, 2), rng.choice((1, 3))),
                                  rng.randint(-1, 1))
                vectors.append(v)
            sub = Subspace(A.dim, vectors)
            got = raised(verify_ideal, A, sub)
            assert got == raised(linked_verify_ideal, A, sub)
            sides.append(None if got is None else got[1][0])
    assert {"left", "right", None} <= set(sides)


def square_zero_extension():
    """span(1, x, y) with every product of x and y zero and the
    coordinatewise involution: every subspace of span(x, y) is a
    two-sided ideal, and it is *-closed exactly when it is spanned by
    real vectors."""
    one = Scalar(1)
    terms = [
        ((0, ((0, one),)), (1, ((1, one),)), (2, ((2, one),))),
        ((0, ((1, one),)),),
        ((0, ((2, one),)),),
    ]
    return StarAlgebra(["1", "x", "y"], terms, Matrix.identity(3), (1, 0, 0))


def test_verify_ideal_conjugates_the_involute():
    A = square_zero_extension()
    i = Scalar(0, 1)
    # the involute of x + i y is x - i y, outside its span
    sub = Subspace(3, [(0, 1, i)])
    got = raised(verify_ideal, A, sub)
    assert got == raised(linked_verify_ideal, A, sub)
    want = ("star", None, (ZERO, Scalar(1), -i))
    assert got == ("not closed under the involution", want)
    for vectors in ([(0, 1, i), (0, 1, -i)], [(0, 2, Scalar(Fraction(1, 3)))]):
        assert verify_ideal(A, Subspace(3, vectors)) is None


def nilpotent_extension():
    """span(1, x, y, w, z) with x x = z and every other product of x, y,
    w and z zero, and the coordinatewise involution.  span(y + w + z) is
    a *-ideal whose quotient keeps 1, x, y and w and projects the
    product x x = z onto -y - w: a projection column with two entries."""
    one = Scalar(1)
    terms = [tuple((j, ((j, one),)) for j in range(5))]
    terms += [((0, ((k, one),)),) + (((1, ((4, one),)),) if k == 1 else ())
              for k in range(1, 5)]
    return StarAlgebra(["1", "x", "y", "w", "z"], terms, Matrix.identity(5),
                       (1, 0, 0, 0, 0))


def test_quotient_algebra_matches_the_projected_products():
    A = nilpotent_extension()
    third = Scalar(Fraction(1, 3))
    extra = [Subspace(5, [(0, 0, 1, 1, 1)]),
             Subspace(5, [(0, 0, 1, 0, third), (0, 0, 0, 2, -third)])]
    for sub in extra:
        assert verify_ideal(A, sub) is None
    assert len(quotient_projection(5, extra[0]._rows)[1].nonzero_columns()[4]) == 2
    cases = [(cov.algebra, sub, prefix)
             for cov in ALL_COVERINGS for sub, prefix in chart_ideals(cov)]
    cases += [(A, sub, "n") for sub in extra]
    for algebra, sub, prefix in cases:
        got = quotient_algebra(algebra, sub, labels_prefix=prefix)
        want = projected_quotient_algebra(algebra, sub, labels_prefix=prefix)
        assert got[0].labels == want[0].labels
        assert got[0].terms == want[0].terms
        assert got[0].involution == want[0].involution
        assert got[0].unit == want[0].unit
        assert got[0].model == want[0].model
        assert got[1:] == want[1:]
    assert len(cases) > 40


def unbalanced_partitions(cov):
    """Partitions whose functionals are defined wherever those of the
    lifted chart units are, and whose composites then do not sum to the
    identity: the lifted chart units scaled by 1/2 and by 1 + i."""
    A = cov.algebra
    lifts = [cov.section(alpha).apply(cov.chart(alpha).unit) for alpha in range(cov.size)]
    return [
        Partition.from_zetas(A, [vec_scale(c, z) for z in lifts])
        for c in (Scalar(Fraction(1, 2)), Scalar(1, 1))
    ]


def outcome(route, P, cov):
    try:
        return route(P, cov)
    except IllDefined as err:
        return str(err), err.witness


def test_reconstruction_check_matches_the_matrix_sums():
    rng = random.Random(2403)
    results = []
    for cov in ALL_COVERINGS:
        partitions = seeded_partitions(cov, rng) + unbalanced_partitions(cov)
        if cov.algebra.model is not None and cov.algebra.model[0] == "function":
            partitions.append(seeded_partition(cov.algebra, rng, parts=cov.size))
        for P in partitions:
            got = outcome(reconstruction_check, P, cov)
            assert got == outcome(matrix_sum_reconstruction_check, P, cov)
            results.append(got)
    assert None in results
    assert any(r is not None and r[0] != "chi does not kill the chart ideal"
               for r in results)
    assert any(r is not None and r[0] == "chi does not kill the chart ideal"
               for r in results)


def test_reconstruction_reads_every_entry_of_each_column():
    # on the one chart A/0, chi = (1 + x/2)^2 = 1 + x + z/4 composes to
    # left multiplication by chi: ones on the diagonal, x and z/4 below it
    A = nilpotent_extension()
    cov = Covering(A, [Subspace(5, [])])
    half = Scalar(Fraction(1, 2))
    P = Partition.from_zetas(A, [(Scalar(1), half, ZERO, ZERO, ZERO)])
    got = reconstruction_check(P, cov)
    assert got == matrix_sum_reconstruction_check(P, cov)
    assert got == ("1", A.element_str((ZERO, Scalar(1), ZERO, ZERO, Scalar(Fraction(1, 4)))))
    # a column that sums to zero has no diagonal entry at all
    F = make_function_algebra(2)
    cov = Covering(F, [Subspace(2, [])])
    P = Partition.from_zetas(F, [(ZERO, Scalar(1))])
    got = reconstruction_check(P, cov)
    assert got == matrix_sum_reconstruction_check(P, cov) == ("delta_1", "(-1)delta_1")


def every_algebra():
    """The base, chart and overlap algebras of every covering whose base
    has a model tag."""
    out = []
    for cov in ALL_COVERINGS:
        if cov.algebra.model is None:
            continue
        out.append(cov.algebra)
        out += [cov.chart(a) for a in range(cov.size)]
        out += [quotient_algebra(cov.algebra, cov.ideals[a].sum(cov.ideals[b]))[0]
                for a in range(cov.size) for b in range(a + 1, cov.size)]
    return out


def test_characters_match_the_listing_route_and_are_kept():
    counts = set()
    for B in every_algebra():
        got = characters(B)
        assert isinstance(got, tuple)
        want = listed_characters(B)
        assert [(phi.label, phi.coords) for phi in got] == [
            (phi.label, phi.coords) for phi in want
        ]
        assert characters(B) is got
        counts.add(len(got))
    assert 0 in counts and max(counts) >= 5


def test_adaptedness_enumerates_each_algebra_once(monkeypatch):
    # a fresh covering, so no algebra has kept its characters yet
    cov = function_covering(random.Random(2404), 10, 3)
    P = Partition.from_zetas(
        cov.algebra, [cov.section(a).apply(cov.chart(a).unit) for a in range(cov.size)]
    )
    enumerated = []
    real = algebras._enumerate_characters
    monkeypatch.setattr(
        algebras, "_enumerate_characters", lambda A: enumerated.append(A) or real(A)
    )
    for _ in range(2):
        for variant in ("literal", "closure"):
            verify_adapted(P, cov, variant=variant)
    # each chart once and the parent once, however many charts read it
    assert len(enumerated) == len({id(A) for A in enumerated}) == cov.size + 1
    assert enumerated[1] is cov.algebra
