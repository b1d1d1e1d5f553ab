"""The covering layer reads the structure constants and the section's
coordinates.  Each route it replaced is kept here, as it was, as the
oracle: dense `verify_ideal` (every index on both sides), `quotient_algebra`
through `multiply` of the lifts, the dense-product `verify_covering`
(every pair compared), the functional as `left_mult_matrix(chi) @
section`, and the chart-to-overlap map as `overlap_projection @ section`.
They are compared on seeded coverings: function models with shared
points, `M_2+M_2` blocks, `generators` ideals, and quotients of
quotients.  Spies check that `verify_ideal` multiplies only by linked
basis elements, and that a report builds each chart functional and
solves each algebra's center once."""

import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from nctangent import algebras, cli, covering, forms, partition, tangent
from nctangent.algebras import (
    StarAlgebra,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    quotient_algebra,
)
from nctangent.covering import (
    Covering,
    NotAnIdeal,
    ideal_from_declaration,
    verify_covering,
    verify_ideal,
)
from nctangent.partition import IllDefined, Partition, functional
from nctangent.scalars import (
    Matrix,
    QuotientSpace,
    Subspace,
    sc,
    unit_vec,
    vec_is_zero,
)

from seeded import seeded_partition
from test_covering import SkewedCovering, mixed_basis_covering

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- the replaced routes ------------------------------------------------------


def dense_verify_ideal(algebra, subspace):
    """`verify_ideal` through `multiply` on basis vectors."""
    if subspace.ambient_dim != algebra.dim:
        raise NotAnIdeal("subspace lives in the wrong dimension")
    for v in subspace.basis:
        for i in range(algebra.dim):
            e = algebra.basis_vector(i)
            left = algebra.multiply(e, v)
            if not subspace.contains(left):
                raise NotAnIdeal(
                    "not closed under left multiplication by %s"
                    % algebra.labels[i],
                    witness=("left", algebra.labels[i], left),
                )
            right = algebra.multiply(v, e)
            if not subspace.contains(right):
                raise NotAnIdeal(
                    "not closed under right multiplication by %s"
                    % algebra.labels[i],
                    witness=("right", algebra.labels[i], right),
                )
        star = algebra.involute(v)
        if not subspace.contains(star):
            raise NotAnIdeal(
                "not closed under the involution", witness=("star", None, star)
            )


def lifted_quotient_algebra(A, ideal_subspace, labels_prefix="q"):
    """`quotient_algebra` through `multiply` and `involute` of the lifts."""
    Q = QuotientSpace(A.dim, ideal_subspace)
    qdim = Q.dim
    labels = ["%s%d" % (labels_prefix, i) for i in range(qdim)]
    lifted = [Q.lift(unit_vec(qdim, i)) for i in range(qdim)]
    terms = [
        tuple(
            (j, tuple(enumerate(Q.project(A.multiply(lifted[i], lifted[j])))))
            for j in range(qdim)
        )
        for i in range(qdim)
    ]
    invol_cols = [Q.project(A.involute(lifted[i])) for i in range(qdim)]
    invol = Matrix.from_columns(invol_cols, rows=qdim)
    unit = Q.project(A.unit) if A.unit is not None else None
    alg = StarAlgebra(
        labels, terms, invol, unit, model=("quotient", A, ideal_subspace, Q.section)
    )
    return alg, Q.projection, Q.section


def matmul_chart_to_overlap(cov, alpha, beta):
    return cov.overlap_projection(alpha, beta) @ cov.section(alpha)


def dense_verify_covering(cov):
    """`verify_covering` with every product of basis vectors made by
    `multiply` and the chart-to-overlap map by a matrix product."""
    failures = []
    A = cov.algebra
    basis = [A.basis_vector(i) for i in range(A.dim)]
    involutes = [A.involute(ei) for ei in basis]
    products = [[A.multiply(ei, ej) for ej in basis] for ei in basis]
    for alpha in range(cov.size):
        chart = cov.chart(alpha)
        pi = cov.projection(alpha)
        images = [pi.apply(ei) for ei in basis]
        for i in range(A.dim):
            if chart.involute(images[i]) != pi.apply(involutes[i]):
                failures.append(("star-compatibility", (alpha, A.labels[i])))
            for j in range(A.dim):
                lhs = pi.apply(products[i][j])
                rhs = chart.multiply(images[i], images[j])
                if lhs != rhs:
                    failures.append(
                        ("homomorphism", (alpha, A.labels[i], A.labels[j]))
                    )
        if A.unit is not None and chart.unit is not None:
            if pi.apply(A.unit) != chart.unit:
                failures.append(("unit", alpha))
        sigma = cov.section(alpha)
        if (pi @ sigma).entries != Matrix.identity(chart.dim).entries:
            failures.append(("section", alpha))
    rows = []
    for alpha in range(cov.size):
        rows.extend(cov.projection(alpha).entries)
    stacked = Matrix(rows, cols=A.dim)
    if stacked.rank() != A.dim:
        failures.append(("joint-injectivity", stacked.rank()))
    for alpha in range(cov.size):
        for beta in range(cov.size):
            joint = cov.overlap_projection(alpha, beta)
            via = matmul_chart_to_overlap(cov, alpha, beta) @ cov.projection(alpha)
            if via.entries != joint.entries:
                failures.append(("overlap-diagram", (alpha, beta)))
    return failures


def matmul_functional(P, cov, alpha):
    """`functional` as left multiplication by chi, after the section."""
    A = cov.algebra
    el = P.elements[alpha]
    for x in cov.ideals[alpha].basis:
        if not vec_is_zero(A.multiply(el.chi, x)):
            raise IllDefined(
                "chi does not kill the chart ideal", witness=(alpha, x)
            )
    return A.left_mult_matrix(el.chi) @ cov.section(alpha)


# -- seeded coverings ---------------------------------------------------------


def function_covering(rng, points, charts):
    """Functions on `points` points, each chart keeping a seeded set of
    points; every point is kept by some chart and at least one point by
    two charts."""
    A = make_function_algebra(points)
    while True:
        kept = [
            {p for p in range(1, points + 1) if rng.random() < 0.55}
            for _ in range(charts)
        ]
        counts = [sum(p in k for k in kept) for p in range(1, points + 1)]
        if all(kept) and min(counts) >= 1 and max(counts) >= 2:
            break
    return Covering(
        A,
        [
            ideal_from_declaration(A, {"type": "vanishing_on", "points": sorted(k)})
            for k in kept
        ],
    )


def block_covering(A):
    return Covering(
        A, [ideal_from_declaration(A, {"type": "blocks", "kill": [k]}) for k in "12"]
    )


def generators_covering():
    """F_3 + M_2, covered by the closures of delta_1 + E_12 (delta_1 and
    all of M_2) and of delta_2 + delta_3 (delta_2 and delta_3)."""
    A = direct_sum(make_function_algebra(3), make_matrix_algebra(2))
    first = [1, 0, 0, 0, 1, 0, 0]
    second = [0, 1, 1, 0, 0, 0, 0]
    return Covering(
        A,
        [
            ideal_from_declaration(A, {"type": "generators", "vectors": [v]})
            for v in (first, second)
        ],
    )


def quotient_of_function_quotient():
    """A five-point chart of functions on six points, covered by two
    ideals with two shared points."""
    F = make_function_algebra(6)
    chart = ideal_from_declaration(F, {"type": "vanishing_on", "points": [1, 2, 3, 4, 5]})
    B = quotient_algebra(F, chart)[0]
    return Covering(
        B, [Subspace(5, [unit_vec(5, 0)]), Subspace(5, [unit_vec(5, 3), unit_vec(5, 4)])]
    )


def quotient_of_block_quotient():
    """The M_2+M_2 chart of M_2+M_2+M_2, covered by its two blocks."""
    M2 = make_matrix_algebra(2)
    A = direct_sum(direct_sum(M2, M2), M2)
    B = quotient_algebra(A, ideal_from_declaration(A, {"type": "blocks", "kill": ["2"]}))[0]
    assert B.dim == 8
    return Covering(
        B,
        [Subspace(8, [unit_vec(8, k) for k in range(4)]),
         Subspace(8, [unit_vec(8, k) for k in range(4, 8)])],
    )


def seeded_coverings():
    rng = random.Random(1501)
    out = [
        cli.load_scenario(str(path)).covering for path in sorted(SCENARIOS.glob("*.json"))
    ]
    out = [cov for cov in out if cov is not None]
    out += [function_covering(rng, points, charts) for points, charts in
            ((5, 2), (6, 2), (7, 3), (10, 3), (10, 4))]
    M2 = make_matrix_algebra(2)
    out.append(block_covering(direct_sum(M2, M2)))
    out.append(generators_covering())
    out.append(quotient_of_function_quotient())
    out.append(quotient_of_block_quotient())
    out.append(mixed_basis_covering())
    return out


COVERINGS = seeded_coverings()


def chart_ideals(cov):
    """Every chart ideal and every sum of two, with a label prefix."""
    out = [(sub, "a%d_" % k) for k, sub in enumerate(cov.ideals)]
    for a in range(cov.size):
        for b in range(a + 1, cov.size):
            out.append((cov.ideals[a].sum(cov.ideals[b]), "a%d%d_" % (a, b)))
    return out


# -- the routes agree -----------------------------------------------------------


def test_quotient_algebra_matches_the_lifted_products():
    dims = set()
    for cov in COVERINGS:
        for sub, prefix in chart_ideals(cov):
            got = quotient_algebra(cov.algebra, sub, labels_prefix=prefix)
            want = lifted_quotient_algebra(cov.algebra, sub, labels_prefix=prefix)
            assert got[0].labels == want[0].labels
            assert got[0].terms == want[0].terms
            assert got[0].involution == want[0].involution
            assert got[0].unit == want[0].unit
            assert got[0].model == want[0].model
            assert got[1:] == want[1:]
            dims.add(got[0].dim)
    assert 0 in dims and max(dims) >= 8


def test_verify_ideal_matches_the_dense_route_on_ideals():
    for cov in COVERINGS:
        for sub, _ in chart_ideals(cov):
            assert verify_ideal(cov.algebra, sub) is None
            assert dense_verify_ideal(cov.algebra, sub) is None


def swapped_points():
    """Functions on two points with the involution that swaps them: the
    span of delta_1 is a two-sided ideal that is not *-closed."""
    F = make_function_algebra(2)
    swap = Matrix([[0, 1], [1, 0]])
    return StarAlgebra(F.labels, F.terms, swap, F.unit)


def raised(route, algebra, subspace):
    try:
        route(algebra, subspace)
    except NotAnIdeal as err:
        return str(err), err.witness
    return None


def test_verify_ideal_matches_the_dense_route_on_seeded_subspaces():
    rng = random.Random(1502)
    algebras = [cov.algebra for cov in COVERINGS] + [
        make_matrix_algebra(2), make_matrix_algebra(3), swapped_points()
    ]
    sides = []
    for A in algebras:
        for _ in range(12):
            vectors = []
            for _ in range(rng.randint(1, 2)):
                v = [0] * A.dim
                for k in rng.sample(range(A.dim), min(A.dim, rng.randint(1, 3))):
                    v[k] = sc(rng.randint(-2, 2), rng.randint(-1, 1))
                vectors.append(v)
            sub = Subspace(A.dim, vectors)
            got = raised(verify_ideal, A, sub)
            assert got == raised(dense_verify_ideal, A, sub)
            sides.append(None if got is None else got[1][0])
        sub = Subspace(A.dim, [unit_vec(A.dim, 0)])
        assert raised(verify_ideal, A, sub) == raised(dense_verify_ideal, A, sub)
    assert {"left", "right", "star", None} <= set(sides)


def test_left_ideal_fails_on_the_right_side():
    # the first column of M_2, span(E_11, E_21), is a left ideal only
    A = make_matrix_algebra(2)
    sub = Subspace(4, [unit_vec(4, 0), unit_vec(4, 2)])
    with pytest.raises(NotAnIdeal) as err:
        verify_ideal(A, sub)
    assert err.value.witness[0] == "right"
    assert (str(err.value), err.value.witness) == raised(dense_verify_ideal, A, sub)


def test_right_ideal_fails_on_the_left_side():
    # the first row of M_2, span(E_11, E_12), is a right ideal only
    A = make_matrix_algebra(2)
    sub = Subspace(4, [unit_vec(4, 0), unit_vec(4, 1)])
    with pytest.raises(NotAnIdeal) as err:
        verify_ideal(A, sub)
    assert err.value.witness[0] == "left"
    assert (str(err.value), err.value.witness) == raised(dense_verify_ideal, A, sub)


def test_chart_to_overlap_matches_the_matrix_product():
    empty = 0
    for cov in COVERINGS:
        for alpha in range(cov.size):
            for beta in range(cov.size):
                got = cov.chart_to_overlap(alpha, beta)
                want = matmul_chart_to_overlap(cov, alpha, beta)
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert got.entries == want.entries
                empty += got.rows == 0
    assert empty > 0


def dropped_constant(algebra):
    """The algebra with the first structure constant of its first
    nonzero product left out."""
    terms = [list(row) for row in algebra.terms]
    for row in terms:
        if row:
            j, cell = row[0]
            row[0] = (j, cell[1:])
            break
    return StarAlgebra(algebra.labels, terms, algebra.involution, algebra.unit, algebra.model)


class DroppedConstantCovering:
    """A covering whose chart `broken` lost one structure constant."""

    def __init__(self, cov, broken):
        self.cov = cov
        self.broken = broken

    def __getattr__(self, name):
        return getattr(self.cov, name)

    def chart(self, alpha):
        B = self.cov.chart(alpha)
        return dropped_constant(B) if alpha == self.broken else B


def test_verify_covering_matches_the_dense_route():
    kinds = set()
    for cov in COVERINGS:
        assert verify_covering(cov) == dense_verify_covering(cov) == []
        for alpha in range(cov.size):
            for bad in (SkewedCovering(cov, alpha), DroppedConstantCovering(cov, alpha)):
                want = dense_verify_covering(bad)
                assert verify_covering(bad) == want
                kinds.update(kind for kind, _ in want)
    assert kinds == {
        "star-compatibility", "homomorphism", "unit", "section", "overlap-diagram"
    }


def test_dropped_structure_constant_fails_the_homomorphism_law(monkeypatch):
    real = covering.quotient_algebra

    def chart_without_a_constant(algebra, ideal, labels_prefix):
        alg, proj, sect = real(algebra, ideal, labels_prefix=labels_prefix)
        return dropped_constant(alg), proj, sect

    monkeypatch.setattr(covering, "quotient_algebra", chart_without_a_constant)
    path = str(SCENARIOS / "block_model.json")
    want = [w for law, w in dense_verify_covering(cli.load_scenario(path).covering)
            if law == "homomorphism"]
    assert want
    result = CliRunner().invoke(cli.main, ["covering-check", "--scenario", path])
    assert result.exit_code == 1
    report = {c["id"]: c for c in json.loads(result.stdout)["checks"]}
    assert report["covering:homomorphism"]["status"] == "fail"
    assert report["covering:homomorphism"]["witness"] == cli._jsonable(want[0])


def seeded_partitions(cov, rng):
    """A partition built from the lifted chart units, whose functionals
    are defined when each lift is an idempotent killing its ideal, and a
    seeded partition of unity when the algebra is built from blocks."""
    A = cov.algebra
    lifts = [
        cov.lift(alpha, cov.chart(alpha).unit) for alpha in range(cov.size)
    ]
    out = [Partition.from_zetas(A, lifts)]
    if A.model is not None and A.model[0] in ("function", "sum"):
        out.append(seeded_partition(A, rng, parts=cov.size))
    return out


def functional_or_raised(route, P, cov, alpha):
    try:
        F = route(P, cov, alpha)
    except IllDefined as err:
        return str(err), err.witness
    return F.rows, F.cols, F.entries


def test_functional_matches_left_multiplication_after_the_section():
    rng = random.Random(1503)
    outcomes = set()
    for cov in COVERINGS:
        for P in seeded_partitions(cov, rng):
            for alpha in range(cov.size):
                got = functional_or_raised(functional, P, cov, alpha)
                assert got == functional_or_raised(matmul_functional, P, cov, alpha)
                outcomes.add(len(got))
    assert outcomes == {2, 3}


# -- no dense route is left ---------------------------------------------------


def test_covering_makes_no_product_with_a_base_basis_vector(monkeypatch):
    cov = next(c for c in COVERINGS if c.algebra.model == ("function", 10))
    A = cov.algebra
    basis = {A.basis_vector(i) for i in range(A.dim)}
    calls = []
    real = StarAlgebra.multiply

    def spy(self, u, v):
        if self is A and (tuple(u) in basis or tuple(v) in basis):
            calls.append((u, v))
        return real(self, u, v)

    monkeypatch.setattr(StarAlgebra, "multiply", spy)
    rebuilt = Covering(A, cov.ideals)
    assert verify_covering(rebuilt) == []
    assert calls == []


def test_verify_covering_reuses_the_section_product(monkeypatch):
    # chart_to_overlap(alpha, alpha) is the section law's pi @ sigma, and
    # the involute of a zero image is zero: neither is formed again
    pairs, involuted = [], []
    real_overlap = Covering.chart_to_overlap
    real_involute = StarAlgebra.involute

    def overlap_spy(self, alpha, beta):
        pairs.append((alpha, beta))
        return real_overlap(self, alpha, beta)

    def involute_spy(self, v):
        involuted.append(any(v))
        return real_involute(self, v)

    monkeypatch.setattr(Covering, "chart_to_overlap", overlap_spy)
    monkeypatch.setattr(StarAlgebra, "involute", involute_spy)
    zero_images = 0
    for cov in COVERINGS:
        mark = len(pairs)
        assert verify_covering(cov) == []
        r = range(cov.size)
        assert pairs[mark:] == [(a, b) for a in r for b in r if a != b]
        zero_images += sum(
            not any(cov.projection(a).column(i)) for a in r for i in range(cov.algebra.dim)
        )
    assert zero_images > 0
    assert involuted and all(involuted)


def test_verify_ideal_multiplies_only_by_linked_basis_elements(monkeypatch):
    calls = []
    real = covering._products_with_basis
    monkeypatch.setattr(
        covering, "_products_with_basis",
        lambda n, v, cells: calls.append(v) or real(n, v, cells),
    )
    F = make_function_algebra(10)
    ideal = ideal_from_declaration(F, {"type": "vanishing_on", "points": [1, 2, 3]})
    verify_ideal(F, ideal)
    # delta_k . v and v . delta_k only for the point k of each delta_k
    assert len(calls) == 2 * ideal.dim == 14
    calls.clear()
    M2 = make_matrix_algebra(2)
    A = direct_sum(M2, M2)
    ideal = ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]})
    verify_ideal(A, ideal)
    # E_ki E_ij and E_ij E_jk for k = 1, 2
    assert len(calls) == 4 * ideal.dim == 16


def spy_functional_builds(monkeypatch):
    """The (partition, covering, chart) of every functional built."""
    builds = []
    real = partition.verify_functional_defined

    def spy(P, cov, alpha):
        builds.append((id(P), id(cov), alpha))
        return real(P, cov, alpha)

    monkeypatch.setattr(partition, "verify_functional_defined", spy)
    return builds


def test_functional_is_built_once_per_partition_covering_and_chart(monkeypatch):
    builds = spy_functional_builds(monkeypatch)
    cov = block_covering(direct_sum(make_matrix_algebra(2), make_matrix_algebra(2)))
    zetas = [cov.lift(a, cov.chart(a).unit) for a in range(cov.size)]
    P = Partition.from_zetas(cov.algebra, zetas)
    first = [functional(P, cov, a) for a in range(cov.size)]
    assert [functional(P, cov, a) for a in range(cov.size)] == first
    assert all(F is G for F, G in zip(first, (functional(P, cov, a) for a in (0, 1))))
    assert len(builds) == 2
    # a fresh partition or covering builds its own
    fresh_P = Partition.from_zetas(cov.algebra, zetas)
    fresh_cov = Covering(cov.algebra, cov.ideals)
    assert functional(fresh_P, cov, 0) == first[0]
    assert functional(P, fresh_cov, 0) == first[0]
    assert len(builds) == 4
    # an ill-defined functional is checked, and raises, on every call
    swapped = Partition.from_zetas(cov.algebra, zetas[::-1])
    for _ in range(2):
        with pytest.raises(IllDefined):
            functional(swapped, cov, 0)
    assert len(builds) == 6


def test_a_report_builds_each_functional_and_center_once(monkeypatch):
    builds = spy_functional_builds(monkeypatch)
    asked, solves = [], []
    real_center = algebras.center
    real_solve = algebras.sparse_nullspace

    def center_spy(A):
        asked.append(A)
        return real_center(A)

    for module in (algebras, tangent, forms):
        monkeypatch.setattr(module, "center", center_spy)
    monkeypatch.setattr(
        algebras, "sparse_nullspace", lambda *args: solves.append(1) or real_solve(*args)
    )
    path = str(SCENARIOS / "block_model.json")
    result = CliRunner().invoke(cli.main, ["all", "--scenario", path, "--seed", "0"])
    assert result.exit_code == 0, result.output
    # glue, decompose and reconstruction read the two chart functionals
    assert sorted(alpha for _, _, alpha in builds) == [0, 1]
    assert len(set(builds)) == len(builds)
    distinct = {id(A) for A in asked}
    assert len(solves) == len(distinct) and len(asked) > len(distinct)
