"""`tools/compare_reports.py` blanks the timing of two reports before it
compares them; the byte-identity check of every speed-up rests on
`_strip_timing` blanking `millis` values and nothing else.  Beside the
case counts it prints the `src/` line count of both trees, which must
not change its exit status."""

import importlib.util
import json
from pathlib import Path

from nctangent import algebras, cli

from cli_runner import invoke

ROOT = Path(__file__).resolve().parent.parent


def compare_reports():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "tools" / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STRIP = compare_reports()._strip_timing


def test_strip_timing_blanks_only_millis_values():
    report = {
        "checks": [
            {"id": "covering:unit", "status": "pass", "millis": 12},
            {"id": "covering:joint-injectivity", "status": "fail", "millis": 0,
             "witness": [7, "millis", {"rank": 3, "millis_total": 5}]},
        ],
        "seed": 1234,
    }
    text = json.dumps(report, indent=1)
    stripped = STRIP(text)
    assert stripped == text.replace('"millis": 12', '"millis": _').replace(
        '"millis": 0', '"millis": _'
    )
    assert stripped.count('"millis": _') == 2
    for kept in ('"seed": 1234', '[\n', '7', '"millis"', '"rank": 3', '"millis_total": 5'):
        assert kept in stripped


def test_strip_timing_makes_two_runs_of_a_report_equal():
    path = str(ROOT / "scenarios" / "function_4pt.json")
    runs = [
        invoke(["all", "--scenario", path, "--seed", "0"]).stdout
        for _ in range(2)
    ]
    stripped = [STRIP(text) for text in runs]
    assert stripped[0] == stripped[1]
    report = json.loads(runs[0])
    assert stripped[0].count('"millis": _') == len(report["checks"]) > 0
    # everything but the timings survives, witnesses included
    assert any("witness" in check for check in report["checks"])
    for check in report["checks"]:
        check["millis"] = -1
    assert json.loads(stripped[0].replace('"millis": _', '"millis": -1')) == report


def test_src_lines_counts_the_python_lines_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "c.py").write_text("counted = 'apart'\n")
    assert compare_reports()._py_lines(tmp_path, "src") == 4
    assert compare_reports()._py_lines(tmp_path, "tests") == 1


def fake_tree(root, name, lines, test_lines):
    tree = root / name
    for folder, count in (("src", lines), ("tests", test_lines)):
        (tree / folder).mkdir(parents=True)
        (tree / folder / "m.py").write_text("pass\n" * count)
    return tree


def test_report_prints_src_lines_beside_the_cases_and_keeps_the_exit_status(
    tmp_path, capsys
):
    tool = compare_reports()
    trees = {"parent": fake_tree(tmp_path, "p", 7, 3), "change": fake_tree(tmp_path, "c", 5, 6)}
    case = {"report": "{}", "exit": 0, "stderr": ""}
    same = {(label, mode): {"all x 0": case} for label in trees for mode in ("plain", "-O")}
    assert tool._report(same, trees) == 0
    assert capsys.readouterr().out.splitlines() == [
        "plain: 1 cases, 0 differ",
        "-O: 1 cases, 0 differ",
        "src/ lines: parent 7, change 5 (-2)",
        "tests/ lines: parent 3, change 6 (+3)",
    ]
    differ = dict(same)
    differ[("change", "-O")] = {"all x 0": dict(case, exit=1)}
    assert tool._report(differ, trees) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "plain: 1 cases, 0 differ"
    assert out[1] == "DIFF [-O] all x 0"
    assert out[-3:] == [
        "-O: 1 cases, 1 differ",
        "src/ lines: parent 7, change 5 (-2)",
        "tests/ lines: parent 3, change 6 (+3)",
    ]


def test_cases_cover_every_command_and_the_sweep_above_the_workload_degrees(
    monkeypatch,
):
    tool = compare_reports()
    shipped = sorted((ROOT / "scenarios").glob("*.json"))
    cases = {"shipped": [(p.name, str(p)) for p in shipped], "generated": [("g", "g.json")]}
    got = dict(tool._cases(tool._commands(cli), cases))
    per_scenario = len(tool._commands(cli)) * len(tool.SEEDS) + 1
    assert len(got) == len(shipped) * per_scenario + len(tool.SEEDS)
    for p in shipped:
        args = got["hopf-check --max-degree 5 %s 0" % p.name]
        assert args == ["hopf-check", "--scenario", str(p), "--seed", "0", "--max-degree", "5"]
        assert got["all %s 3" % p.name] == ["all", "--scenario", str(p), "--seed", "3"]
    assert got["all g 0"] == ["all", "--scenario", "g.json", "--seed", "0"]
    # the degree-5 case runs, and sweeps at degree 5
    swept = []
    real = cli.hopf_axiom_check
    monkeypatch.setattr(cli, "hopf_axiom_check", lambda *args: swept.append(args) or real(*args))
    result = invoke(got["hopf-check --max-degree 5 hopf_d3.json 0"])
    assert result.exit_code == 0
    assert [(d, degree) for d, _, degree in swept] == [(3, 5)]


def test_cases_cover_the_sum_model_with_a_two_dimensional_center(tmp_path):
    tool = compare_reports()
    generated = tool._sum_model(tmp_path)
    assert [name for name, _ in generated] == ["sum-model/seeded", "sum-model/constant"]
    cases = {"shipped": [], "generated": generated}
    got = dict(tool._cases(tool._commands(cli), cases))
    assert len(got) == len(generated) * len(tool.SEEDS) == 8
    for name, path in generated:
        scenario = json.loads(Path(path).read_text())
        assert scenario["kappa"] == "2/3"
        assert scenario["connection"] == {"type": name.split("/")[1]}
        assert scenario["algebra"]["terms"] == [{"model": "matrix", "n": 2}] * 2
        for seed in tool.SEEDS:
            args = got["all %s %d" % (name, seed)]
            assert args == ["all", "--scenario", path, "--seed", str(seed)]
        scn = cli.load_scenario(path)
        # the block units span the center: entries need not be unit multiples
        assert len(algebras.center(scn.action.algebra).basis) == 2
        result = invoke(got["all %s 0" % name])
        assert result.exit_code == 0, result.stderr
        statuses = {c["id"]: c["status"] for c in json.loads(result.stdout)["checks"]}
        assert statuses["curvature:cross-check"] == statuses["curvature:axioms"] == "pass"


def test_cases_cover_span_and_generators_ideals_and_covering_errors(tmp_path):
    tool = compare_reports()
    generated = tool._written(tmp_path, "covering", tool.COVERINGS)
    assert [name for name, _ in generated] == [
        "covering/span-and-vanishing", "covering/generators",
        "covering/non-ideal-span", "covering/intersecting",
    ]
    cases = {"shipped": [], "generated": generated}
    got = dict(tool._cases(tool._commands(cli), cases))
    assert len(got) == len(generated) * len(tool.SEEDS) == 16
    results = {name: invoke(got["all %s 0" % name])
               for name, _ in generated}
    assert [r.exit_code for r in results.values()] == [0, 0, 2, 2]
    for name, path in generated:
        ideals = json.loads(Path(path).read_text())["covering"]["ideals"]
        assert {"span", "generators"} & {decl["type"] for decl in ideals}
    for name in ("covering/span-and-vanishing", "covering/generators"):
        statuses = {c["id"]: c["status"] for c in json.loads(results[name].stdout)["checks"]}
        assert statuses["partition:reconstruction"] == "pass"
        assert statuses["covering:overlap-diagram"] == "pass"
    # the generators' closure of 2 E_12 + i/3 E_21 is all of M_2
    assert cli.load_scenario(generated[1][1]).covering.ideals[0].dim == 4
    assert "right multiplication by 1:E_12" in results["covering/non-ideal-span"].stderr
    assert "the ideals intersect nontrivially" in results["covering/intersecting"].stderr


def test_cases_cover_a_basis_that_is_not_bracket_closed_and_overlapping_charts(
    tmp_path, monkeypatch
):
    tool = compare_reports()
    generated = tool._written(tmp_path, "failure", tool.FAILURE_PATHS)
    assert [name for name, _ in generated] == [
        "failure/not-bracket-closed", "failure/overlapping-charts",
    ]
    cases = {"shipped": [], "generated": generated}
    got = dict(tool._cases(tool._commands(cli), cases))
    assert len(got) == len(generated) * len(tool.SEEDS) == 8
    closed = invoke(got["all failure/not-bracket-closed 0"])
    assert closed.exit_code == 2
    assert "NotBracketClosed" in closed.stderr
    # the charts overlap in the M_2; `decompose` runs on chart 0, whose
    # coefficients it does not recover
    charts = []
    real = cli.decompose
    monkeypatch.setattr(cli, "decompose", lambda X, a: charts.append(a) or real(X, a))
    overlap = invoke(got["all failure/overlapping-charts 0"])
    assert overlap.exit_code == 1
    cov = cli.load_scenario(generated[1][1]).covering
    assert cov.overlap_projection(0, 1).rows == 4
    assert charts == [0]
    failed = {c["id"]: c.get("witness") for c in json.loads(overlap.stdout)["checks"]
              if c["status"] == "fail"}
    assert failed == {"glue:roundtrip": ["chart", 0]}


def test_cases_cover_sweeps_at_composite_kappa_above_the_workload_degrees(
    tmp_path, monkeypatch
):
    tool = compare_reports()
    sweeps = tool._written(tmp_path, "hopf", tool.HOPF_SWEEPS)
    cases = {"shipped": [], "generated": [], "sweeps": sweeps}
    got = dict(tool._cases(tool._commands(cli), cases))
    assert len(got) == len(sweeps) == 8
    swept = []
    real = cli.hopf_axiom_check
    monkeypatch.setattr(cli, "hopf_axiom_check", lambda *args: swept.append(args) or real(*args))
    for name, path in sweeps:
        args = got["hopf-check %s 0" % name]
        assert args == ["hopf-check", "--scenario", path, "--seed", "0"]
        result = invoke(args)
        assert result.exit_code == 0, result.stderr
        statuses = {c["id"]: c["status"] for c in json.loads(result.stdout)["checks"]}
        assert set(statuses.values()) == {"pass"} and "hopf:antipode" in statuses
    want = [(kappa, d, degree) for kappa in ("6/35", "35/6", "1/30")
            for d, degree in ((2, 5), (3, 4))] + [("6/35", 1, 8), ("35/6", 1, 8)]
    assert sorted((str(kappa), d, degree) for d, kappa, degree in swept) == sorted(want)


def test_cases_cover_each_section_decision_of_the_loader(tmp_path):
    tool = compare_reports()
    generated = tool._written(tmp_path, "loader", tool.LOADER_ERRORS)
    cases = {"shipped": [], "generated": generated}
    got = dict(tool._cases(tool._commands(cli), cases))
    assert len(got) == len(generated) * len(tool.SEEDS) == 44
    errors = {}
    for name, _ in generated:
        result = invoke(got["all %s 0" % name])
        assert "Traceback" not in result.stderr
        errors[name.split("/")[1]] = (result.exit_code, result.stderr.splitlines()[-1:])
    assert errors == {
        "covering-without-algebra": (2, ["Error: covering section needs an algebra section"]),
        "partition-without-algebra": (2, ["Error: partition section needs an algebra section"]),
        "action-without-algebra": (2, ["Error: action section needs an algebra section"]),
        "actions-without-covering": (2, ["Error: actions section needs a covering section"]),
        "actions-without-partition": (2, ["Error: actions section needs a partition section"]),
        "connection-without-action": (2, ["Error: connection section needs an action section"]),
        "null-connection-without-action": (0, []),
        "null-algebra": (2, ["Error: algebra section needs a 'model' field"]),
        "partition-size-not-chart-count": (
            2, ["Error: partition has 3 elements but the covering has 2 charts"]
        ),
        "actions-not-a-list": (2, ["Error: actions section must be a list"]),
        "one-action-for-two-charts": (2, ["Error: need one action per chart"]),
    }
    # every prerequisite of every section is left out by some case
    prerequisites = {"%s-without-%s" % (name, need)
                     for name, needs, _ in cli.SECTIONS for need in needs}
    assert prerequisites <= errors.keys()
