import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from nctangent import cli, covering
from nctangent.algebras import (
    AlgebraError,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    quotient_algebra,
)
from nctangent.covering import (
    Covering,
    IntersectionNonzero,
    NotAnIdeal,
    ideal_from_declaration,
    overlap_maps,
    verify_covering,
    verify_ideal,
)
from nctangent.scalars import Matrix, Subspace, sc, vec_is_zero

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def block_model():
    A = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    block1 = ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]})
    block2 = ideal_from_declaration(A, {"type": "blocks", "kill": ["2"]})
    return A, block1, block2


def test_block_ideals():
    A, block1, block2 = block_model()
    assert block1.dim == 4
    assert block2.dim == 9
    verify_ideal(A, block1)
    verify_ideal(A, block2)


def test_not_an_ideal_witness():
    A = make_matrix_algebra(2)
    # the span of E_12 alone is not an ideal
    sub = Subspace(4, [A.basis_vector(1)])
    with pytest.raises(NotAnIdeal) as err:
        verify_ideal(A, sub)
    assert err.value.witness is not None
    # a span declaration is the plain span; the covering verifies it
    declared = ideal_from_declaration(A, {"type": "span", "vectors": [A.basis_vector(1)]})
    assert declared == sub
    with pytest.raises(NotAnIdeal):
        Covering(A, [declared])


def test_ideal_from_generators_closure():
    A = make_matrix_algebra(2)
    # any nonzero generator closes up to all of M_2 (simple algebra)
    sub = ideal_from_declaration(A, {"type": "generators", "vectors": [A.basis_vector(1)]})
    assert sub.dim == 4


def test_block_covering():
    A, block1, block2 = block_model()
    # killing block 2 leaves the M_2 chart
    cov = Covering(A, [block2, block1])
    assert cov.size == 2
    assert cov.chart(0).dim == 4
    assert cov.chart(1).dim == 9
    assert cov.overlap_algebra(0, 1).dim == 0
    assert verify_covering(cov) == []


def test_block_chart_is_matrix_algebra():
    A, block1, block2 = block_model()
    cov = Covering(A, [block2, block1])
    M2 = make_matrix_algebra(2)
    chart = cov.chart(0)
    # the chart reproduces the 2x2 matrix product table exactly
    assert chart.table == M2.table
    assert chart.involution.entries == M2.involution.entries


def test_intersection_nonzero():
    A, block1, block2 = block_model()
    with pytest.raises(IntersectionNonzero) as err:
        Covering(A, [block1, block1])
    assert not vec_is_zero(err.value.witness)


def test_function_covering_overlap():
    A = make_function_algebra(4)
    i1 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [1, 2, 3]})
    i2 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [3, 4]})
    assert i1.dim == 1 and i2.dim == 2
    cov = Covering(A, [i1, i2])
    assert cov.chart(0).dim == 3
    assert cov.chart(1).dim == 2
    # the overlap is the single common point
    alg, joint, via1, via2 = overlap_maps(cov, 0, 1)
    assert alg.dim == 1
    assert (via1 @ cov.projection(0)).entries == joint.entries
    assert (via2 @ cov.projection(1)).entries == joint.entries
    assert verify_covering(cov) == []


def test_projection_section_roundtrip():
    A = make_function_algebra(4)
    i1 = ideal_from_declaration(A, {"type": "vanishing_on", "points": [1, 2, 3]})
    cov = Covering(A, [i1, Subspace(4, [])])
    for x in range(cov.chart(0).dim):
        e = cov.chart(0).basis_vector(x)
        assert cov.project(0, cov.lift(0, e)) == e
    # trivial ideal gives a full-size chart
    assert cov.chart(1).dim == 4
    assert cov.overlap_algebra(0, 0).dim == cov.chart(0).dim


def test_single_zero_ideal_is_identity_covering():
    A = make_matrix_algebra(2)
    cov = Covering(A, [Subspace(A.dim, [])])
    assert cov.chart(0).dim == A.dim
    assert verify_covering(cov) == []
    u = A.basis_vector(2)
    assert cov.lift(0, cov.project(0, u)) == u


def test_index_errors():
    A = make_matrix_algebra(2)
    cov = Covering(A, [Subspace(A.dim, [])])
    with pytest.raises(IndexError):
        cov.chart(1)
    with pytest.raises(IndexError):
        cov.overlap_algebra(0, 3)


def test_declaration_errors():
    A = make_matrix_algebra(2)
    with pytest.raises(Exception):
        ideal_from_declaration(A, {"type": "vanishing_on", "points": [1]})
    with pytest.raises(Exception):
        ideal_from_declaration(A, {"type": "nope"})
    F = make_function_algebra(3)
    with pytest.raises(Exception):
        ideal_from_declaration(F, {"type": "vanishing_on", "points": [9]})


def test_broken_overlap_diagram_is_reported_by_verify_covering(monkeypatch):
    # the constructor builds the charts and leaves the laws to
    # `verify_covering`, whose checks are not asserts that `python -O` strips
    real = covering.quotient_algebra

    def doubled_section(algebra, ideal, labels_prefix):
        alg, proj, sect = real(algebra, ideal, labels_prefix=labels_prefix)
        return alg, proj, sect.scale(2)

    A, block1, block2 = block_model()
    monkeypatch.setattr(covering, "quotient_algebra", doubled_section)
    failures = verify_covering(Covering(A, [block1, block2]))
    assert failures[0] == ("section", 0)
    # the blocks do not overlap, so only a chart's overlap with itself breaks
    overlap = [w for law, w in failures if law == "overlap-diagram"]
    assert overlap == [(0, 0), (1, 1)]
    result = CliRunner().invoke(
        cli.main, ["covering-check", "--scenario", str(SCENARIOS / "block_model.json")]
    )
    assert result.exit_code == 1
    assert "Traceback" not in result.output + result.stderr
    report = {c["id"]: c for c in json.loads(result.stdout)["checks"]}
    assert report["covering:section"]["status"] == "fail"
    assert report["covering:section"]["witness"] == 0
    assert report["covering:overlap-diagram"]["status"] == "fail"
    assert report["covering:overlap-diagram"]["witness"] == [0, 0]
    assert report["covering:homomorphism"]["status"] == "pass"


def shipped_and_test_coverings():
    """The coverings of the shipped scenarios and of the tests above."""
    out = [
        cli.load_scenario(str(path)).covering for path in sorted(SCENARIOS.glob("*.json"))
    ]
    out = [cov for cov in out if cov is not None]
    A, block1, block2 = block_model()
    out.append(Covering(A, [block2, block1]))
    F = make_function_algebra(4)
    i1 = ideal_from_declaration(F, {"type": "vanishing_on", "points": [1, 2, 3]})
    i2 = ideal_from_declaration(F, {"type": "vanishing_on", "points": [3, 4]})
    out += [Covering(F, [i1, i2]), Covering(F, [i1, Subspace(4, [])])]
    M2 = make_matrix_algebra(2)
    out.append(Covering(M2, [Subspace(M2.dim, [])]))
    return out


def test_every_overlap_ideal_is_a_star_ideal():
    # Covering does not re-verify the sums of its ideals: a sum of two-sided
    # *-ideals is one
    coverings = shipped_and_test_coverings()
    assert len(coverings) == 6
    for cov in coverings:
        for a in range(cov.size):
            for b in range(a, cov.size):
                verify_ideal(cov.algebra, cov.ideals[a].sum(cov.ideals[b]))


def test_covering_verifies_each_declared_ideal_once(monkeypatch):
    for cov in shipped_and_test_coverings():
        calls = []
        real = covering.verify_ideal
        monkeypatch.setattr(
            covering, "verify_ideal", lambda A, sub: calls.append(sub) or real(A, sub)
        )
        Covering(cov.algebra, cov.ideals)
        monkeypatch.undo()
        assert calls == list(cov.ideals)


def test_covering_builds_one_quotient_algebra_per_chart(monkeypatch):
    # the overlaps keep only their projection; no report reads their algebras
    for cov in shipped_and_test_coverings():
        calls = []
        real = covering.quotient_algebra

        def spy(algebra, ideal, labels_prefix):
            calls.append((ideal, labels_prefix))
            return real(algebra, ideal, labels_prefix=labels_prefix)

        monkeypatch.setattr(covering, "quotient_algebra", spy)
        Covering(cov.algebra, cov.ideals)
        monkeypatch.undo()
        assert calls == [(sub, "a%d_" % k) for k, sub in enumerate(cov.ideals)]


def test_overlap_algebra_matches_the_eager_quotient():
    # `overlap_algebra` builds on call what the constructor used to build
    # for every overlap: the quotient by the sum of the two ideals
    for cov in shipped_and_test_coverings():
        for alpha in range(cov.size):
            for beta in range(cov.size):
                a, b = min(alpha, beta), max(alpha, beta)
                joint = cov.ideals[a].sum(cov.ideals[b])
                want, proj, _ = quotient_algebra(
                    cov.algebra, joint, labels_prefix="a%d%d_" % (a, b)
                )
                got = cov.overlap_algebra(alpha, beta)
                assert got.labels == want.labels
                assert got.terms == want.terms
                assert got.involution == want.involution
                assert got.unit == want.unit
                assert got.model == want.model
                assert cov.overlap_projection(alpha, beta) == proj


def test_load_scenario_verifies_each_declared_ideal_once(monkeypatch):
    calls = []
    real = covering.verify_ideal
    monkeypatch.setattr(
        covering, "verify_ideal", lambda A, sub: calls.append(sub) or real(A, sub)
    )
    loaded = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        declared = json.loads(path.read_text()).get("covering", {}).get("ideals", [])
        calls.clear()
        cov = cli.load_scenario(str(path)).covering
        assert len(calls) == len(declared), path.name
        if cov is not None:
            assert calls == list(cov.ideals)
            loaded += 1
    assert loaded == 2


def test_block_prefix_matching_no_label_is_rejected():
    A, _, _ = block_model()
    for kill, named in ((["2", "9"], "['9']"), (["9"], "['9']"), (["1", "x", "2"], "['x']")):
        with pytest.raises(AlgebraError) as err:
            ideal_from_declaration(A, {"type": "blocks", "kill": kill})
        assert str(err.value) == "no basis labels match block prefixes " + named
    # no prefix at all names no block and gives the zero ideal
    assert ideal_from_declaration(A, {"type": "blocks", "kill": []}).is_zero()


def chartwise_verify_covering(cov):
    """`verify_covering` with the base algebra's products and involutes
    computed again for every chart: the route that computing them once
    replaces, and the reference for the order of the failure list."""
    failures = []
    A = cov.algebra
    basis = [A.basis_vector(i) for i in range(A.dim)]
    for alpha in range(cov.size):
        chart = cov.chart(alpha)
        pi = cov.projection(alpha)
        images = [pi.apply(ei) for ei in basis]
        for i, ei in enumerate(basis):
            if chart.involute(images[i]) != pi.apply(A.involute(ei)):
                failures.append(("star-compatibility", (alpha, A.labels[i])))
            for j, ej in enumerate(basis):
                if pi.apply(A.multiply(ei, ej)) != chart.multiply(images[i], images[j]):
                    failures.append(("homomorphism", (alpha, A.labels[i], A.labels[j])))
        if A.unit is not None and chart.unit is not None:
            if pi.apply(A.unit) != chart.unit:
                failures.append(("unit", alpha))
        if (pi @ cov.section(alpha)).entries != Matrix.identity(chart.dim).entries:
            failures.append(("section", alpha))
    rows = []
    for alpha in range(cov.size):
        rows.extend(cov.projection(alpha).entries)
    stacked = Matrix(rows, cols=A.dim)
    if stacked.rank() != A.dim:
        failures.append(("joint-injectivity", stacked.rank()))
    for alpha in range(cov.size):
        for beta in range(cov.size):
            via = cov.chart_to_overlap(alpha, beta) @ cov.projection(alpha)
            if via.entries != cov.overlap_projection(alpha, beta).entries:
                failures.append(("overlap-diagram", (alpha, beta)))
    return failures


class SkewedCovering:
    """A covering whose projection onto one chart is multiplied by i: it
    breaks star-compatibility, the homomorphism law, the unit, the
    section and the overlap diagram of that chart."""

    def __init__(self, cov, skewed):
        self.cov = cov
        self.skewed = skewed

    def __getattr__(self, name):
        return getattr(self.cov, name)

    def projection(self, alpha):
        pi = self.cov.projection(alpha)
        return pi.scale(sc(0, 1)) if alpha == self.skewed else pi


def test_verify_covering_matches_the_chartwise_route():
    coverings = shipped_and_test_coverings()
    for cov in coverings:
        assert verify_covering(cov) == chartwise_verify_covering(cov) == []
    kinds = set()
    for cov in coverings:
        for skewed in range(cov.size):
            bad = SkewedCovering(cov, skewed)
            want = chartwise_verify_covering(bad)
            assert verify_covering(bad) == want
            kinds.update(kind for kind, _ in want)
    assert kinds == {
        "star-compatibility", "homomorphism", "unit", "section", "overlap-diagram"
    }
