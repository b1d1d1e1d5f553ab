import contextlib
import gc
import inspect
import io
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent import cli, connection, forms, minkowski
from nctangent.algebras import (
    center,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    quotient_algebra,
)
from nctangent.cli import main
from nctangent.connection import SPAN, ConnectionCoefficients, draw_ints, random_connection
from nctangent.covering import ideal_from_declaration
from nctangent.forms import FormN
from nctangent.scalars import ZERO, Scalar, vec_add, vec_is_zero, vec_scale, zero_vec
from nctangent.tangent import (
    ActionAssignment,
    LocalDerivation,
    canonical_generator_vectors,
    canonical_inner_model,
)

from cli_runner import invoke
from test_minkowski import unordered_rows

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
# every command of `verify`: one per check family, and `all`
COMMANDS = sorted([family.command for family in cli.FAMILIES] + ["all"])


def run(*args):
    return invoke(args)


def report_of(result):
    return json.loads(result.stdout)


def statuses(result):
    return {c["id"]: c["status"] for c in report_of(result)["checks"]}


def test_hopf_check_passes():
    result = run("hopf-check", "--scenario", str(SCENARIOS / "hopf_d3.json"))
    assert result.exit_code == 0
    got = statuses(result)
    assert got == {
        "hopf:antipode": "pass",
        "hopf:coassociativity": "pass",
        "hopf:commutators": "pass",
        "hopf:counit": "pass",
    }


def test_hopf_check_reports_an_antipode_without_reordering(monkeypatch):
    monkeypatch.setattr(minkowski, "_reversed_rows", unordered_rows)
    result = run("hopf-check", "--scenario", str(SCENARIOS / "hopf_d3.json"))
    assert result.exit_code == 1
    checks = {c["id"]: c for c in report_of(result)["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "hopf:antipode": "fail",
        "hopf:coassociativity": "pass",
        "hopf:commutators": "pass",
        "hopf:counit": "pass",
    }
    # p3 p0 is the first swept monomial whose reversed word p0 p3 needs
    # reordering: slot 1 sums to -(i/kappa) p3 instead of 0
    assert checks["hopf:antipode"]["witness"] == ["antipode slot 1", "((0, 0, 1), 1)"]


def test_hopf_commutators_build_each_generator_once(monkeypatch):
    made = []
    real = minkowski.PBWElement.generator.__func__

    def spy(cls, d, kappa, mu):
        made.append(mu)
        return real(cls, d, kappa, mu)

    monkeypatch.setattr(minkowski.PBWElement, "generator", classmethod(spy))
    result = run("hopf-check", "--scenario", str(SCENARIOS / "hopf_d3.json"))
    assert statuses(result)["hopf:commutators"] == "pass"
    assert sorted(made) == [0, 1, 2, 3]


def test_hopf_commutators_witness_a_central_time_generator(monkeypatch):
    # with i/kappa read as 0 the algebra is commutative: its Hopf laws
    # hold, and the first time-space bracket is the witness
    monkeypatch.setattr(minkowski, "_i_over", lambda kappa: ZERO)
    result = run("hopf-check", "--scenario", str(SCENARIOS / "hopf_d3.json"))
    assert result.exit_code == 1
    checks = {c["id"]: c for c in report_of(result)["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "hopf:antipode": "pass",
        "hopf:coassociativity": "pass",
        "hopf:commutators": "fail",
        "hopf:counit": "pass",
    }
    assert checks["hopf:commutators"]["witness"] == ["time-space", 1]


def test_partition_check_matrix_diagonal():
    result = run(
        "partition-check", "--scenario", str(SCENARIOS / "matrix_partition.json")
    )
    assert result.exit_code == 0
    got = statuses(result)
    assert set(got) == {
        "partition:membership",
        "partition:local-finiteness",
        "partition:positivity-witness",
        "partition:sum-law",
    }
    assert all(v == "pass" for v in got.values())


def test_partition_check_moyal_surrogate():
    result = run(
        "partition-check", "--scenario", str(SCENARIOS / "moyal_truncated.json")
    )
    assert result.exit_code == 0
    assert all(v == "pass" for v in statuses(result).values())


def test_partition_reconstruction_with_covering():
    result = run(
        "partition-check", "--scenario", str(SCENARIOS / "function_4pt.json")
    )
    assert result.exit_code == 0
    assert statuses(result)["partition:reconstruction"] == "pass"


def test_covering_check_block_model():
    result = run(
        "covering-check", "--scenario", str(SCENARIOS / "block_model.json")
    )
    assert result.exit_code == 0
    got = statuses(result)
    assert len(got) == 6
    assert all(v == "pass" for v in got.values())


def test_adapted_check_reports_discrepancy():
    result = run(
        "adapted-check", "--scenario", str(SCENARIOS / "function_4pt.json")
    )
    assert result.exit_code == 1
    got = statuses(result)
    assert got["adapted:closure"] == "pass"
    assert got["adapted:literal"] == "fail"
    witness = next(
        c["witness"]
        for c in report_of(result)["checks"]
        if c["id"] == "adapted:literal"
    )
    assert "9/25" in json.dumps(witness)


def test_each_family_sweep_is_charged_to_a_record(monkeypatch):
    """A family's sweep runs inside the thunk of the record that reads it
    first, so its time is in that record's `millis`: the Hopf, covering
    and partition sweeps in their family's first record, and each adapted
    variant in its own record."""
    current = [None]
    charged = {}
    real_run = cli.Recorder.run

    def run_spy(self, check_id, thunk):
        current[0] = check_id
        try:
            real_run(self, check_id, thunk)
        finally:
            current[0] = None

    def checker_spy(name, real):
        def spy(*args, **kwargs):
            charged.setdefault(name, []).append(current[0])
            return real(*args, **kwargs)

        return spy

    monkeypatch.setattr(cli.Recorder, "run", run_spy)
    for name in ("hopf_axiom_check", "verify_covering", "verify_partition", "verify_adapted"):
        monkeypatch.setattr(cli, name, checker_spy(name, getattr(cli, name)))
    result = run("all", "--scenario", str(SCENARIOS / "function_4pt.json"))
    assert result.exit_code == 1  # adapted:literal fails by design
    assert charged == {
        "hopf_axiom_check": ["hopf:antipode"],
        "verify_covering": ["covering:homomorphism"],
        "verify_partition": ["partition:membership"],
        "verify_adapted": ["adapted:closure", "adapted:literal"],
    }


def test_glue_derivations_block_model():
    result = run(
        "glue-derivations", "--scenario", str(SCENARIOS / "block_model.json")
    )
    assert result.exit_code == 0
    assert statuses(result) == {"glue:leibniz": "pass", "glue:roundtrip": "pass"}


def test_forms_check_block_model():
    result = run("forms-check", "--scenario", str(SCENARIOS / "block_model.json"))
    assert result.exit_code == 0
    got = statuses(result)
    assert set(got) == {
        "forms:dd-zero",
        "forms:duality",
        "forms:wedge-compat",
        "forms:d-locality",
    }
    assert all(v == "pass" for v in got.values())


def test_forms_check_single_chart():
    result = run("forms-check", "--scenario", str(SCENARIOS / "m3_model.json"))
    assert result.exit_code == 0
    assert set(statuses(result)) == {"forms:dd-zero", "forms:duality"}


def _koszul_spy(monkeypatch, replacement):
    """Route every `koszul_d` call through `replacement(real, rho)`;
    return {record id: the degrees of the forms d was applied to}."""
    real = forms.koszul_d
    degrees = []

    def spy(rho):
        degrees.append(rho.degree)
        return replacement(real, rho)

    monkeypatch.setattr(forms, "koszul_d", spy)
    monkeypatch.setattr(cli, "koszul_d", spy)
    per_record = {}
    real_run = cli.Recorder.run

    def run_spy(self, check_id, thunk):
        start = len(degrees)
        real_run(self, check_id, thunk)
        per_record[check_id] = degrees[start:]

    monkeypatch.setattr(cli.Recorder, "run", run_spy)
    return per_record


def test_dd_zero_skips_the_one_form_half_below_rank_3(monkeypatch):
    # d = 1: rank 2, so a 2-form has no 3-tuples of slots and d d rho = 0
    per_record = _koszul_spy(monkeypatch, lambda real, rho: real(rho))
    path = str(SCENARIOS / "curvature_d1.json")
    assert cli.load_scenario(path).action.d == 1
    result = run("forms-check", "--scenario", path)
    assert result.exit_code == 0
    # the zero-form half alone: d of a, then d of d a, ten times
    assert per_record["forms:dd-zero"] == [0, 1] * 10


def test_dd_zero_checks_the_one_form_half_at_rank_3(monkeypatch):
    # d applied to a 2-form leaves a nonzero 3-form, so d d vanishes on
    # zero-forms and not on one-forms
    def broken(real, rho):
        if rho.degree == 2:
            return FormN(rho.basis, 3, {(0, 1, 2): rho.basis.algebra.unit})
        return real(rho)

    per_record = _koszul_spy(monkeypatch, broken)
    result = run("forms-check", "--scenario", str(SCENARIOS / "m3_model.json"))
    assert result.exit_code == 1
    checks = {c["id"]: c for c in report_of(result)["checks"]}
    assert checks["forms:dd-zero"]["status"] == "fail"
    assert checks["forms:dd-zero"]["witness"] == ["one-form"]
    assert per_record["forms:dd-zero"] == [0, 1] * 10 + [1, 2]


def test_curvature_constant_imaginary():
    result = run("curvature", "--scenario", str(SCENARIOS / "curvature_d1.json"))
    assert result.exit_code == 0
    assert all(v == "pass" for v in statuses(result).values())


def test_curvature_seeded():
    result = run(
        "curvature", "--scenario", str(SCENARIOS / "m3_model.json"), "--seed", "3"
    )
    assert result.exit_code == 0
    assert report_of(result)["seed"] == 3
    assert all(v == "pass" for v in statuses(result).values())


def test_curvature_real_gamma_fails(tmp_path):
    scenario = {
        "kappa": "1",
        "d": 1,
        "algebra": {"model": "matrix", "n": 2},
        "action": {"type": "canonical", "N": 2},
        "connection": {"type": "constant", "value": "2"},
    }
    path = tmp_path / "real_gamma.json"
    path.write_text(json.dumps(scenario))
    result = run("curvature", "--scenario", str(path))
    assert result.exit_code == 1
    got = statuses(result)
    assert got["curvature:coefficients"] == "fail"
    assert got["curvature:axioms"] == "fail"


@pytest.mark.parametrize(
    "name", ["m3_model.json", "curvature_kappa.json", "curvature_d1.json", "zero"]
)
def test_each_connection_grid_is_checked_once_per_report(monkeypatch, tmp_path, name):
    # seeded and zero grids are checked by their constructor, and
    # curvature:coefficients reads that result instead of checking again
    if name == "zero":
        scenario = json.loads((SCENARIOS / "curvature_d1.json").read_text())
        scenario["connection"] = {"type": "zero"}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(scenario))
    else:
        path = SCENARIOS / name
    real_check = connection.coefficient_failures
    real_init = connection.ConnectionCoefficients.__init__
    built, checked = [], []

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def check(gamma):
        checked.append(gamma)
        return real_check(gamma)

    monkeypatch.setattr(connection.ConnectionCoefficients, "__init__", init)
    # patched wherever the name is bound, so a caller that imported it
    # by name is counted too
    for module in (connection, cli):
        if hasattr(module, "coefficient_failures"):
            monkeypatch.setattr(module, "coefficient_failures", check)
    for seed in ("0", "7"):
        mark = len(built), len(checked)
        result = run("all", "--scenario", str(path), "--seed", seed)
        assert result.exit_code == 0
        assert statuses(result)["curvature:coefficients"] == "pass"
        grids = built[mark[0]:]
        assert len(grids) == 1
        assert [id(g) for g in checked[mark[1]:]] == [id(g) for g in grids]


def test_all_command_block_model():
    result = run("all", "--scenario", str(SCENARIOS / "block_model.json"))
    assert result.exit_code == 0
    ids = [c["id"] for c in report_of(result)["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == 23


def test_report_deterministic():
    args = (
        "forms-check",
        "--scenario",
        str(SCENARIOS / "block_model.json"),
        "--seed",
        "5",
    )
    first = report_of(run(*args))
    second = report_of(run(*args))
    strip = lambda rep: [
        {k: v for k, v in c.items() if k != "millis"} for c in rep["checks"]
    ]
    assert strip(first) == strip(second)
    assert first["seed"] == 5


def test_out_writes_report(tmp_path):
    out = tmp_path / "report.json"
    result = run(
        "partition-check",
        "--scenario",
        str(SCENARIOS / "matrix_partition.json"),
        "--out",
        str(out),
    )
    assert result.exit_code == 0
    assert json.loads(out.read_text()) == report_of(result)


def test_zero_kappa_rejected(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"kappa": "0", "d": 1}')
    result = run("hopf-check", "--scenario", str(path))
    assert result.exit_code == 2
    assert "kappa must be positive" in result.stderr


def test_undersized_canonical_action_rejected(tmp_path):
    scenario = {
        "kappa": "1",
        "d": 2,
        "algebra": {"model": "matrix", "n": 2},
        "action": {"type": "canonical", "N": 2},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(scenario))
    result = run("forms-check", "--scenario", str(path))
    assert result.exit_code == 2
    assert "N >= d+1" in result.stderr


def test_missing_section_named_in_diagnostic():
    result = run(
        "partition-check", "--scenario", str(SCENARIOS / "hopf_d3.json")
    )
    assert result.exit_code == 2
    assert "algebra" in result.stderr


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    result = run("all", "--scenario", str(path))
    assert result.exit_code == 2
    assert "not valid JSON" in result.stderr


def write_scenario(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in SCENARIOS.glob("*.json"))
)
def test_all_matches_golden_report(name):
    # tests/golden holds `verify all --seed 0` on each shipped scenario,
    # with the timing field stripped
    path = str(SCENARIOS / ("%s.json" % name))
    want = json.loads((GOLDEN / ("%s.json" % name)).read_text())
    seen = set()
    for command in ["all"] + [family.command for family in cli.FAMILIES]:
        result = run(command, "--scenario", path)
        if command != "all" and result.exit_code == 2:
            continue
        got = report_of(result)
        for check in got["checks"]:
            del check["millis"]
        if command == "all":
            assert got == want
        else:
            # a family command reports exactly the golden records with
            # its ids, and together they report all of them
            ids = [c["id"] for c in got["checks"]]
            assert got == dict(want, checks=[c for c in want["checks"] if c["id"] in ids])
            seen.update(ids)
        failed = any(c["status"] != "pass" for c in got["checks"])
        assert result.exit_code == (1 if failed else 0), command
    assert seen == {c["id"] for c in want["checks"]}


def run_python(*args, flags=()):
    """`python [flags] args...` from the repository root, with `src` on
    the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *flags, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_module(*args, flags=()):
    """`python [flags] -m nctangent.cli args...` from the repository root."""
    return run_python("-m", "nctangent.cli", *args, flags=flags)


def test_module_entry_point_runs_checks():
    proc = run_module("all", "--scenario", "scenarios/matrix_partition.json")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert "partition:sum-law" in {c["id"] for c in checks}


def test_max_degree_zero_is_honoured(monkeypatch):
    degrees = []
    real = cli.hopf_axiom_check

    def spy(d, kappa, degree):
        degrees.append(degree)
        return real(d, kappa, degree)

    monkeypatch.setattr(cli, "hopf_axiom_check", spy)
    result = run(
        "hopf-check", "--scenario", str(SCENARIOS / "hopf_d3.json"),
        "--max-degree", "0",
    )
    assert result.exit_code == 0
    assert degrees == [0]


def test_negative_max_degree_rejected():
    result = run(
        "hopf-check", "--scenario", str(SCENARIOS / "hopf_d3.json"),
        "--max-degree", "-1",
    )
    assert result.exit_code == 2
    assert "--max-degree must be at least 0" in result.stderr


@pytest.mark.parametrize("bound", ["x", -1, 2.5])
def test_bad_scenario_max_degree_rejected(tmp_path, bound):
    path = write_scenario(tmp_path, {"d": 1, "max_degree": bound})
    result = run("hopf-check", "--scenario", path)
    assert result.exit_code == 2
    assert "max_degree must be" in result.stderr


@pytest.mark.parametrize("d", ["x", 1.5, True, [1]])
def test_bad_scenario_d_rejected(tmp_path, d):
    # 1.5 and true must not be read as d = 1
    path = write_scenario(tmp_path, {"d": d})
    result = run("hopf-check", "--scenario", path)
    assert result.exit_code == 2
    assert "d must be an integer" in result.stderr


@pytest.mark.parametrize(
    "scenario",
    [
        {"algebra": {"model": "matrix", "n": 2.5}},
        {"algebra": {"model": "matrix", "n": True}},
        {"algebra": {"model": "moyal", "N": 2.5}},
        {"algebra": {"model": "function", "points": 3.9}},
        {
            "algebra": {"model": "matrix", "n": 2},
            "action": {"type": "canonical", "N": 2.5},
        },
    ],
    ids=["matrix-n-2.5", "matrix-n-true", "moyal-N-2.5", "points-3.9", "action-N-2.5"],
)
def test_bad_scenario_size_rejected(tmp_path, scenario):
    # 2.5 and true must not be read as 2 and 1
    result = run("all", "--scenario", write_scenario(tmp_path, scenario))
    assert result.exit_code == 2
    assert "expected an integer, got" in result.stderr


def test_library_error_inside_a_family_exits_2(tmp_path):
    # the zetas are block-diagonal in both blocks at once, so chi does
    # not kill either chart ideal and reconstruction cannot be set up
    path = write_scenario(
        tmp_path,
        {
            "d": 1,
            "algebra": {
                "model": "sum",
                "terms": [{"model": "matrix", "n": 2}, {"model": "matrix", "n": 2}],
            },
            "covering": {
                "ideals": [
                    {"type": "blocks", "kill": ["2"]},
                    {"type": "blocks", "kill": ["1"]},
                ]
            },
            "partition": {
                "zetas": [
                    ["1", "0", "0", "0", "1", "0", "0", "0"],
                    ["0", "0", "0", "1", "0", "0", "0", "1"],
                ]
            },
        },
    )
    for command in ("all", "partition-check"):
        result = run(command, "--scenario", path)
        assert result.exit_code == 2
        assert "partition-check cannot run on this scenario" in result.stderr
        assert "chi does not kill the chart ideal" in result.stderr


def block_scenario(**changes):
    """block_model.json with some sections replaced (None drops one)."""
    scenario = json.loads((SCENARIOS / "block_model.json").read_text())
    for key, value in changes.items():
        if value is None:
            del scenario[key]
        else:
            scenario[key] = value
    return scenario


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"algebra": {"model": "matrix"}}, "algebra section is missing field 'n'"),
        ({"algebra": {"model": "moyal"}}, "algebra section is missing field 'N'"),
        (
            {"algebra": {"model": "sum", "terms": [{"model": "function"}, {"model": "matrix", "n": 2}]}},
            "algebra section is missing field 'points'",
        ),
        (
            {"algebra": {"model": "matrix", "n": 2}, "action": {"type": "canonical"}},
            "action section is missing field 'N'",
        ),
        (
            {"algebra": {"model": "matrix", "n": 2}, "action": {"type": "inner"}},
            "action section is missing field 'generators'",
        ),
        (
            block_scenario(actions=[{"type": "canonical", "N": 2}, {"type": "canonical"}]),
            "chart 1 action is missing field 'N'",
        ),
    ],
    ids=["matrix-n", "moyal-N", "sum-term-points", "canonical-N", "inner-generators", "chart-N"],
)
def test_missing_field_is_named(tmp_path, scenario, message):
    path = write_scenario(tmp_path, scenario)
    result = run("all", "--scenario", path)
    assert result.exit_code == 2
    assert message in result.stderr
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("command", ["all", "forms-check", "glue-derivations"])
def test_actions_without_partition_rejected(tmp_path, command):
    path = write_scenario(tmp_path, block_scenario(partition=None))
    result = run(command, "--scenario", path)
    assert result.exit_code == 2
    assert "actions section needs a partition section" in result.stderr


# -- the table of scenario sections ------------------------------------------

SECTION_NAMES = [name for name, _, _ in cli.SECTIONS]
M_2 = {"model": "matrix", "n": 2}


def test_every_family_need_names_a_section():
    for family in cli.FAMILIES:
        for need in family.needs:
            for name in need.split("|"):
                assert name in SECTION_NAMES, (family.command, name)


def test_scenario_slots_are_the_scenario_scalars_and_the_sections():
    want = ["kappa", "d", "max_degree", "_glued"] + SECTION_NAMES
    assert sorted(cli.Scenario.__slots__) == sorted(want)


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"covering": {"ideals": []}}, "covering section needs an algebra section"),
        ({"partition": {"type": "diagonal"}}, "partition section needs an algebra section"),
        ({"action": {"type": "canonical", "N": 2}}, "action section needs an algebra section"),
        ({"algebra": M_2, "actions": []}, "actions section needs a covering section"),
        (
            {"algebra": M_2, "partition": {"type": "diagonal"}, "actions": []},
            "actions section needs a covering section",
        ),
        (block_scenario(partition=None), "actions section needs a partition section"),
        ({"algebra": M_2, "connection": {"type": "zero"}}, "connection section needs an action section"),
    ],
    ids=[
        "covering", "partition", "action", "actions-no-covering-no-partition",
        "actions-no-covering", "actions-no-partition", "connection",
    ],
)
def test_a_section_without_a_section_it_needs_is_refused(tmp_path, scenario, message):
    with pytest.raises(cli.ScenarioError) as err:
        cli.load_scenario(write_scenario(tmp_path, scenario))
    assert str(err.value) == message


def test_a_null_connection_is_absent_and_a_null_algebra_is_refused(tmp_path):
    scn = cli.load_scenario(write_scenario(tmp_path, {"connection": None}))
    assert [getattr(scn, name) for name in SECTION_NAMES] == [None] * len(SECTION_NAMES)
    with pytest.raises(cli.ScenarioError) as err:
        cli.load_scenario(write_scenario(tmp_path, {"algebra": None}))
    assert str(err.value) == "algebra section needs a 'model' field"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"covering": {"ideals": 5}}, "covering section needs an 'ideals' list"),
        ({"covering": {"ideals": ["blocks"]}}, "each covering ideal must be an object"),
        ({"covering": {"ideals": [{"type": "blocks"}]}}, "needs a 'kill' list"),
        (
            {"covering": {"ideals": [{"type": "span", "vectors": 3}]}},
            "span ideal needs a 'vectors' list",
        ),
        ({"partition": {"zetas": 7}}, "partition 'zetas' must be a list"),
        ({"actions": {"type": "canonical", "N": 2}}, "actions section must be a list"),
    ],
)
def test_malformed_section_exits_2_without_traceback(tmp_path, changes, message):
    path = write_scenario(tmp_path, block_scenario(**changes))
    proc = run_module("all", "--scenario", path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert message in proc.stderr


def test_non_ideal_span_exits_2_with_the_not_an_ideal_message(tmp_path):
    # span{E_12} in M_2 is not closed under left multiplication by E_21
    scenario = {
        "algebra": {"model": "matrix", "n": 2},
        "covering": {"ideals": [{"type": "span", "vectors": [["0", "1", "0", "0"]]}]},
    }
    result = run("covering-check", "--scenario", write_scenario(tmp_path, scenario))
    assert result.exit_code == 2
    assert "bad covering section: not closed under left multiplication by" in result.stderr


@pytest.mark.parametrize("points", [None, "12", ["x"], [1.5, 3], [True]])
def test_malformed_vanishing_on_points_rejected(tmp_path, points):
    ideal = {"type": "vanishing_on"}
    if points is not None:
        ideal["points"] = points
    path = write_scenario(
        tmp_path,
        {"algebra": {"model": "function", "points": 3}, "covering": {"ideals": [ideal]}},
    )
    result = run("covering-check", "--scenario", path)
    assert result.exit_code == 2
    assert "'points' list of integers" in result.stderr


@pytest.mark.parametrize(
    "grid",
    [3, [[[0, 0], [0, 0]]], [[0, 0], [0, 0]], [[[0, 0], [0]], [[0, 0], [0, 0]]]],
)
def test_malformed_connection_grid_rejected(tmp_path, grid):
    # d = 1, so the grid must be 2 x 2 x 2
    path = write_scenario(
        tmp_path,
        {
            "d": 1,
            "algebra": {"model": "matrix", "n": 2},
            "action": {"type": "canonical", "N": 2},
            "connection": {"grid": grid},
        },
    )
    result = run("curvature", "--scenario", path)
    assert result.exit_code == 2
    assert "connection grid must be (d+1) cubed" in result.stderr


@pytest.mark.parametrize(
    "connection, message",
    [
        ({"type": "bogus"}, "connection section needs type 'zero'/'constant'/'seeded' or a grid"),
        ({"type": "constant", "value": "x"}, "bad scalar literal in connection value"),
    ],
    ids=["bogus-type", "bad-value"],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_validates_the_connection(tmp_path, command, connection, message):
    # the loader builds the connection, so a command that never reads it
    # still rejects it, with the message the curvature family gives
    scenario = {
        "d": 1,
        "algebra": {"model": "matrix", "n": 2},
        "action": {"type": "canonical", "N": 2},
        "connection": connection,
    }
    result = run(command, "--scenario", write_scenario(tmp_path, scenario))
    assert result.exit_code == 2
    assert message in result.stderr
    assert isinstance(result.exception, SystemExit), result.exception


def test_a_constant_connection_reads_an_exponent_literal(tmp_path):
    reports = []
    for value in ("1e-2i", "1/100i"):
        scenario = {
            "d": 1,
            "algebra": {"model": "matrix", "n": 2},
            "action": {"type": "canonical", "N": 2},
            "connection": {"type": "constant", "value": value},
        }
        result = run("curvature", "--scenario", write_scenario(tmp_path, scenario))
        assert result.exit_code != 2, result.stderr
        report = report_of(result)
        for check in report["checks"]:
            del check["millis"]
        reports.append((result.exit_code, report))
    assert reports[0] == reports[1]


# The seeded draws as they read before `draw_ints`, one
# `rng.choice(range(-span, span + 1))` call per int: the oracle of the
# draw kernel, which never calls `choice`.


def choice_random_element(rng, dim):
    draws = range(-2, 3)
    return tuple(Scalar(rng.choice(draws), rng.choice(draws)) for _ in range(dim))


def choice_chart_samples(assign, rng, count):
    A = assign.algebra
    draws = range(-3, 4)
    out = []
    for _ in range(count):
        coeffs = [
            vec_scale(Scalar(rng.choice(draws), rng.choice(draws)), A.unit)
            for _ in range(assign.d + 1)
        ]
        out.append(LocalDerivation(assign, coeffs))
    return out


def choice_random_connection(assign, rng):
    A = assign.algebra
    n = assign.d + 1
    hermitian = []
    for c in center(A).basis:
        h = vec_add(c, A.involute(c))
        if vec_is_zero(h):
            h = vec_scale(Scalar(0, 1), c)
        hermitian.append(h)
    draws = range(-SPAN, SPAN + 1)

    def draw():
        out = zero_vec(A.dim)
        for h in hermitian:
            out = vec_add(out, vec_scale(Scalar(0, rng.choice(draws)), h))
        return out

    return ConnectionCoefficients(
        assign, [[[draw() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    )


class CountingRandom(random.Random):
    """A `random.Random` that counts its `getrandbits` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_seeded_draws_match_the_choice_route():
    M2 = make_matrix_algebra(2)
    assigns = [
        canonical_inner_model(2, 1, 1),
        ActionAssignment.from_inner(
            direct_sum(M2, M2), 1, 1, [g + g for g in canonical_generator_vectors(2, 1, 1)]
        ),
    ]
    # (kernel route, choice route, the number of ints it draws)
    draws = [
        (
            lambda rng, span=span: draw_ints(rng, span, 12),
            lambda rng, span=span: [rng.choice(range(-span, span + 1)) for _ in range(12)],
            12,
        )
        for span in (2, 3)
    ]
    draws.append(
        (lambda rng: cli._random_element(rng, 9), lambda rng: choice_random_element(rng, 9), 18)
    )
    draws += [
        (
            lambda rng, a=a: [s.coefficients for s in cli._chart_samples(a, rng, 3)],
            lambda rng, a=a: [s.coefficients for s in choice_chart_samples(a, rng, 3)],
            6 * (a.d + 1),
        )
        for a in assigns
    ]
    draws += [
        (
            lambda rng, a=a: random_connection(a, rng).grid,
            lambda rng, a=a: choice_random_connection(a, rng).grid,
            (a.d + 1) ** 3 * len(center(a.algebra).basis),
        )
        for a in assigns
    ]
    for kernel, oracle, count in draws:
        rejected = 0
        for seed in range(50):
            rng, reference = CountingRandom(seed), random.Random(seed)
            assert kernel(rng) == oracle(reference)
            assert [rng.random() for _ in range(3)] == [reference.random() for _ in range(3)]
            rejected += rng.calls - count
        # some seed takes the rejection loop
        assert rejected > 0


def test_optimized_python_matches_golden_reports():
    # `python -O` strips assert statements; no check may depend on them
    for path in sorted(SCENARIOS.glob("*.json")):
        proc = run_module("all", "--scenario", str(path), flags=("-O",))
        got = json.loads(proc.stdout)
        for check in got["checks"]:
            del check["millis"]
        assert got == json.loads((GOLDEN / path.name).read_text()), path.name
        failed = any(c["status"] != "pass" for c in got["checks"])
        assert proc.returncode == (1 if failed else 0), proc.stderr


# scenarios cheap enough to run `all --max-degree 1` many times
LIGHT_SCENARIOS = [
    "block_model", "curvature_kappa", "hopf_d3", "matrix_partition", "moyal_truncated",
]
WRONG_VALUES = [None, True, "x", "", -1, 2.5, [], [[]], {}, {"type": 1}]


def key_paths(node, prefix=()):
    """Every key path into a JSON document, outermost first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


@st.composite
def mutated_scenario(draw):
    """A light shipped scenario with one key path replaced by a value of
    the wrong type."""
    name = draw(st.sampled_from(LIGHT_SCENARIOS))
    scenario = json.loads((SCENARIOS / ("%s.json" % name)).read_text())
    path = draw(st.sampled_from(list(key_paths(scenario))))
    value = draw(st.sampled_from(WRONG_VALUES))
    node = scenario
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return scenario


@given(mutated_scenario())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_scenario_keeps_the_exit_code_contract(tmp_path_factory, scenario):
    path = write_scenario(tmp_path_factory.mktemp("mutant"), scenario)
    result = run("all", "--scenario", path, "--max-degree", "1")
    assert result.exit_code in (0, 1, 2), result.stderr
    # an exception that escapes the CLI would be a traceback in a shell
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        scenario, result.exception,
    )
    assert "Traceback" not in result.stdout + result.stderr


def test_partition_size_must_match_covering_size(tmp_path):
    scenario = json.loads((SCENARIOS / "function_4pt.json").read_text())
    zetas = scenario["partition"]["zetas"]
    for wrong, count in ((zetas[:1], 1), (zetas + zetas[1:], 3)):
        scenario["partition"]["zetas"] = wrong
        result = run("covering-check", "--scenario", write_scenario(tmp_path, scenario))
        assert result.exit_code == 2
        assert "partition has %d elements but the covering has 2 charts" % count in (
            result.stderr
        )


def test_block_partition_of_a_quotient_names_what_is_missing():
    # scenarios build only matrix, moyal, function and sum models, so this
    # message is reached only from the library
    A = make_function_algebra(3)
    Q, _, _ = quotient_algebra(
        A, ideal_from_declaration(A, {"type": "vanishing_on", "points": [1]})
    )
    with pytest.raises(cli.ScenarioError) as err:
        cli._block_zetas(Q)
    assert str(err.value) == (
        "block partition: model 'quotient' is not built from matrix or function blocks"
    )


# same-type mutations: each keeps the JSON type of what it replaces but
# breaks its meaning (an index out of range, a wrong length or count)
MEANING_MUTATIONS = [
    ("function_4pt", ("covering", "ideals", 0, "points", 0), 0),
    ("function_4pt", ("covering", "ideals", 0, "points", 0), -1),
    ("function_4pt", ("covering", "ideals", 0, "points", 0), 99),
    ("function_4pt", ("partition", "zetas", 0), ["1", "1", "3/5"]),
    ("function_4pt", ("partition", "zetas"), [["1", "1", "1", "1"]]),
    ("function_4pt", ("partition", "zetas"), [["1", "0", "0", "0"]] * 3),
    ("function_4pt", ("algebra", "points"), 0),
    ("function_4pt", ("algebra", "points"), -2),
    ("function_4pt", ("d",), 0),
    ("function_4pt", ("kappa",), "0"),
    ("function_4pt", ("covering", "ideals"), []),
    ("block_model", ("covering", "ideals"), []),
    ("block_model", ("covering", "ideals", 0, "kill"), ["9"]),
    ("block_model", ("covering", "ideals", 0, "kill"), ["2", "9"]),
    ("block_model", ("covering", "ideals", 0, "kill"), []),
    ("block_model", ("actions",), [{"type": "canonical", "N": 2}]),
    ("block_model", ("actions", 0, "N"), 0),
    ("block_model", ("actions", 0, "N"), 5),
    ("block_model", ("algebra", "terms", 0, "n"), 0),
    ("block_model", ("algebra", "terms"), [{"model": "matrix", "n": 2}]),
]


@pytest.mark.parametrize(
    "name, path, value",
    MEANING_MUTATIONS,
    ids=["%s:%s=%s" % (n, "/".join(map(str, p)), json.dumps(v)) for n, p, v in MEANING_MUTATIONS],
)
def test_meaning_mutation_exits_2_without_traceback(tmp_path, name, path, value):
    scenario = json.loads((SCENARIOS / ("%s.json" % name)).read_text())
    node = scenario
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    result = run("all", "--scenario", write_scenario(tmp_path, scenario))
    assert result.exit_code == 2, result.stderr
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.stdout + result.stderr


def test_verify_all_leaves_sympy_unimported():
    # sympy is a test-only dependency: the verify path must not load it
    code = (
        "import json, sys\n"
        "sys.path.insert(0, 'tests')\n"
        "from cli_runner import invoke\n"
        "codes = [invoke(['all', '--scenario', path]).exit_code for path in sys.argv[1:]]\n"
        "print(json.dumps([codes, 'sympy' in sys.modules]))\n"
    )
    proc = run_python("-c", code, "scenarios/function_4pt.json", "scenarios/block_model.json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[1, 0], False]


def test_verify_all_leaves_click_unimported():
    # the package has no runtime dependency: the entry point is argparse
    code = (
        "import sys\n"
        "from nctangent.cli import main\n"
        "main(['all', '--scenario', sys.argv[1]])\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'click')))\n"
    )
    proc = run_python("-c", code, "scenarios/matrix_partition.json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["checks"]
    assert proc.stderr == "[]"


def test_help_lists_every_command_and_each_command_its_docstring_and_options():
    result = run("--help")
    assert (result.exit_code, result.stderr) == (0, "")
    assert "Exact verification of the deformed tangent-space machinery." in result.stdout
    listed = [line.split()[0] for line in result.stdout.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert sorted(listed) == COMMANDS and len(COMMANDS) == 8
    docs = {family.command: family.runner.__doc__ for family in cli.FAMILIES}
    docs["all"] = "Run every check family the scenario supports."
    for command in COMMANDS:
        result = run(command, "--help")
        assert (result.exit_code, result.stderr) == (0, ""), command
        assert "usage: verify %s " % command in result.stdout
        assert inspect.cleandoc(docs[command]) in result.stdout
        for option in ("--scenario PATH", "--seed INTEGER", "--max-degree INTEGER", "--out PATH"):
            assert option in result.stdout, (command, option)
        # the help says what a command checks, not how its runner draws
        for word in ("draws", "stream"):
            assert word not in result.stdout, (command, word)
        assert "Path to the scenario JSON file." in result.stdout
        assert "Also write the report here." in result.stdout
        assert "[default: 0]" in result.stdout


@pytest.mark.parametrize(
    "args, usage, error",
    [
        (["all"], "verify all", "the following arguments are required: --scenario"),
        (["all", "--scenario", "scenarios/hopf_d3.json", "--seed", "x"], "verify all",
         "argument --seed: invalid int value: 'x'"),
        (["fly", "--scenario", "scenarios/hopf_d3.json"], "verify",
         "argument COMMAND: invalid choice: 'fly'"),
        (["hopf-check", "--scenario", "scenarios/hopf_d3.json", "--max-degree", "-1"],
         "verify hopf-check", "--max-degree must be at least 0, got -1"),
    ],
    ids=["missing-scenario", "seed-not-an-integer", "unknown-command", "negative-max-degree"],
)
def test_usage_error_exits_2_with_an_error_line(args, usage, error):
    proc = run_module(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[:3] == ["Usage: %s [OPTIONS]" % usage, "Try '%s --help' for help." % usage, ""]
    assert len(lines) == 4 and lines[3].startswith("Error: " + error)


def test_a_scenario_error_prints_the_usage_error_of_click():
    # the text `verify` printed when its entry point was a click group,
    # which `tools/compare_reports.py` compares byte for byte
    result = run("all", "--scenario", "missing.json")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (
        "Usage: verify all [OPTIONS]\n"
        "Try 'verify all --help' for help.\n"
        "\n"
        "Error: cannot read scenario: [Errno 2] No such file or directory: 'missing.json'\n"
    )


def test_main_main_keeps_the_in_process_signature():
    # perfbench calls `cli.main.main(args, standalone_mode=False)`
    def call(name):
        args = ["all", "--scenario", str(SCENARIOS / name), "--seed", "0", "--max-degree", "1"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main.main(args, standalone_mode=False)
        return json.loads(out.getvalue())

    assert call("matrix_partition.json")["checks"]
    with pytest.raises(SystemExit) as failed:
        call("function_4pt.json")
    assert failed.value.code == 1
    with pytest.raises(cli.ScenarioError, match="cannot read scenario"):
        call("missing.json")


def test_an_in_process_report_keeps_no_reference_to_its_stream():
    # click.echo cached every stream it wrote to, so a caller redirecting
    # stdout per report kept each StringIO and its report alive
    out = io.StringIO()
    stream = weakref.ref(out)
    args = ["hopf-check", "--scenario", str(SCENARIOS / "curvature_d1.json")]
    with contextlib.redirect_stdout(out):
        main(args + ["--max-degree", "1"], standalone_mode=False)
    assert json.loads(out.getvalue())["checks"]
    del out
    gc.collect()
    assert stream() is None


THREE_TERMS = {"model": "sum", "terms": [
    {"model": "function", "points": 1},
    {"model": "matrix", "n": 2},
    {"model": "function", "points": 1},
]}


def test_nested_block_prefixes_cover_a_three_term_sum(tmp_path):
    # F_1 + M_2 + F_1 is built as (F_1 + M_2) + F_1 and labelled 1:1:...,
    # 1:2:... and 2:..., so "1:1" names the first F_1 at depth two and
    # "2" the last one.  The charts M_2 + F_1 and F_1 + M_2 overlap in
    # M_2, and chi_0 = (0, 9/25, 1), chi_1 = (1, 16/25, 0) sum to the unit.
    # Each chi kills its own chart's ideal, and the other chart's only
    # character, the evaluation on the F_1 that chart keeps, kills it
    # too: every law holds
    scenario = {
        "kappa": "1", "d": 1, "algebra": THREE_TERMS,
        "covering": {"ideals": [{"type": "blocks", "kill": ["1:1"]},
                                {"type": "blocks", "kill": ["2"]}]},
        "partition": {"zetas": [["0", "3/5", "0", "0", "3/5", "1"],
                                ["1", "4/5", "0", "0", "4/5", "0"]]},
    }
    path = tmp_path / "three_terms.json"
    path.write_text(json.dumps(scenario))
    cov = cli.load_scenario(str(path)).covering
    assert [sub.basis for sub in cov.ideals] == [
        (tuple(int(k == 0) for k in range(6)),), (tuple(int(k == 5) for k in range(6)),)
    ]
    assert [cov.chart(a).dim for a in (0, 1)] == [5, 5]
    assert cov.overlap_projection(0, 1).rows == 4
    result = run("all", "--scenario", str(path), "--seed", "0")
    assert result.exit_code == 0, result.stderr
    got = statuses(result)
    assert {"covering:overlap-diagram", "partition:reconstruction", "adapted:literal",
            "adapted:closure"} <= set(got)
    assert set(got.values()) == {"pass"}
    # "1" still names the first two terms, and an unmatched prefix exits 2
    A = cov.algebra
    assert ideal_from_declaration(A, {"type": "blocks", "kill": ["1"]}).dim == 5
    scenario["covering"]["ideals"][0]["kill"] = ["1:3"]
    path.write_text(json.dumps(scenario))
    result = run("all", "--scenario", str(path), "--seed", "0")
    assert result.exit_code == 2
    assert "no basis labels match block prefixes ['1:3']" in result.stderr


def _limit_child():
    """Run in the child before exec: cap its address space at 1 GiB and
    its CPU time at 60 s, so that a regression fails this test with a
    MemoryError or a kill instead of exhausting the machine."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def _run_limited(tmp_path, scenario):
    """`verify all` on `scenario` in a child process under `_limit_child`;
    returns the child's exit code and its `Error` lines, after checking
    that it printed no traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "nctangent.cli", "all", "--scenario",
         write_scenario(tmp_path, scenario)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_child,
    )
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("Error")]
    return proc.returncode, errors


def test_a_huge_canonical_N_exits_2_before_allocating(tmp_path):
    # a chart of dimension 4 with N = 10^6 is refused by comparing N^2
    # with the chart's dimension before the N^2-long generators are built
    scenario = block_scenario()
    scenario["actions"][0]["N"] = 10**6
    code, errors = _run_limited(tmp_path, scenario)
    assert code == 2, errors
    assert errors == ["Error: bad chart 0 action: algebra dimension does not match N"]


def test_a_huge_d_exits_2_before_the_sweep(tmp_path):
    # d = 2000 at degree 4 would sweep C(2004, 4) monomials; it is refused
    # at load, above `MAX_D`
    scenario = json.loads((SCENARIOS / "hopf_d3.json").read_text())
    scenario["d"] = 2000
    code, errors = _run_limited(tmp_path, scenario)
    assert code == 2, errors
    assert errors == ["Error: d must be at most %d, got 2000" % cli.MAX_D]
    # the bound itself loads; one above it does not
    scenario["d"] = cli.MAX_D
    assert cli.load_scenario(write_scenario(tmp_path, scenario)).d == cli.MAX_D
    scenario["d"] = cli.MAX_D + 1
    with pytest.raises(cli.ScenarioError, match="d must be at most"):
        cli.load_scenario(write_scenario(tmp_path, scenario))
