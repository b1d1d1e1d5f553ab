"""`tools/compare_reports.py` blanks the timing of two reports before it
compares them; the byte-identity check of every speed-up rests on
`_strip_timing` blanking `millis` values and nothing else."""

import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from nctangent import cli

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
        CliRunner().invoke(cli.main, ["all", "--scenario", path, "--seed", "0"]).stdout
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
