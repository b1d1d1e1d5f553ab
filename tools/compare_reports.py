"""Compare the reports of two checkouts of `verify`, timing apart.

    python tools/compare_reports.py PARENT_DIR [--perfbench-seeds S [S ...]]

PARENT_DIR is another checkout of this repository, usually the parent
commit.  Both trees run the same cases on the same scenario files, plain
and under `python -O`:

* every command of `verify` (`all` and each check family) on every
  shipped scenario in `scenarios/` at `--seed` 0-3;
* `hopf-check --max-degree 5` at `--seed` 0 on every shipped scenario,
  which sweeps above the degrees of the scenarios and the workloads;
* `hopf-check` at `--seed` 0 on the sweeps of `HOPF_SWEEPS`: kappa =
  6/35, 35/6 and 1/30 at (d, degree) = (2, 5) and (3, 4), and kappa =
  6/35 and 35/6 at (d, degree) = (1, 8).  Their crossing, antipode and
  coproduct tables are put over lcms of several prime powers, above the
  kappa classes of the workloads; at degree 8 the antipode of p1 p0^7
  has coefficients over 6^7 and 35^7;
* `all` at `--seed` 0-3 on the scenarios that `perfbench/scenarios.py`
  generates for each workload and each given perfbench seed;
* `all` at `--seed` 0-3 on the block sum M_2 + M_2 with the canonical
  inner generators on both blocks at kappa = 2/3, with a `seeded` and
  with a `constant` connection (`SUM_MODEL`).  Its center is
  two-dimensional, so its connections have central entries that are not
  multiples of the unit, which no shipped or workload curvature
  scenario has;
* `all` at `--seed` 0-3 on `BLOCK_SUM`, M_3 + M_3 at kappa = 2/3 with
  `blocks` charts, a `blocks` partition and the canonical action on each
  chart, which glues and decomposes at kappa != 1 on blocks above the
  M_2 + M_2 of the perfbench workloads;
* `all` at `--seed` 0-3 on the coverings of `COVERINGS`: `span` and
  `generators` ideals with vectors that are not unit vectors, on a
  function model and on M_2 + F_1, one of them loaded beside a
  `vanishing_on` ideal, and a non-ideal span and two intersecting
  ideals, which exit 2 with the reason on stderr;
* `all` at `--seed` 0-3 on the scenarios of `FAILURE_PATHS`, which reach
  two failures that no other case reaches: a derivation basis whose
  bracket leaves its span (exit 2), and charts that overlap in a
  noncommutative block, where `decompose` runs on the overlap and
  `glue:roundtrip` fails (exit 1).

A case is its stdout with the `millis` values blanked, its exit code
and its stderr.  Every case that differs between the trees is printed,
and the tool exits 1 if there is one, else 0.  Beside the case counts
it prints the line count of each tree's `src/`, the other half of the
simplicity gate; the count does not change the exit status.  Each tree and mode runs
its cases in one interpreter, through the click entry point in
standalone mode, as `verify` runs from the shell.  Nothing under
`perfbench/` is changed: the generated scenarios go to a temporary
directory.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3)

# m_0 = -(i/kappa) diag(0, 1) and m_1 = E_12 on each block, kappa = 2/3
SUM_MODEL = {
    "kappa": "2/3",
    "d": 1,
    "algebra": {"model": "sum", "terms": [{"model": "matrix", "n": 2}] * 2},
    "action": {"type": "inner", "generators": [
        ["0", "0", "0", "-3/2i"] * 2,
        ["0", "1", "0", "0"] * 2,
    ]},
}
SUM_MODEL_CONNECTIONS = ("seeded", "constant")

# each chart kills one block of M_3 + M_3
BLOCK_SUM = {
    "kappa": "2/3",
    "d": 1,
    "algebra": {"model": "sum", "terms": [{"model": "matrix", "n": 3}] * 2},
    "covering": {"ideals": [{"type": "blocks", "kill": ["2"]},
                            {"type": "blocks", "kill": ["1"]}]},
    "partition": {"type": "blocks"},
    "actions": [{"type": "canonical", "N": 3}] * 2,
}

# composite kappa: the sweep's common denominators are products of
# several prime powers; at d = 1 and degree 8 the antipode of p1 p0^7
# has coefficients over 6^7 and 35^7
HOPF_SWEEPS = {
    "%s-d%d-degree%d" % (kappa.replace("/", "_"), d, degree): {
        "kappa": kappa, "d": d, "max_degree": degree,
    }
    for kappa, d, degree in [
        (kappa, d, degree) for kappa in ("6/35", "35/6", "1/30")
        for d, degree in ((2, 5), (3, 4))
    ] + [("6/35", 1, 8), ("35/6", 1, 8)]
}

# coverings declared by `span` and `generators` ideals with vectors that
# are not unit vectors, which no shipped or workload scenario declares;
# the last two are rejected by `Covering` (exit 2)
F_3 = {"model": "function", "points": 3}
M_2_F_1 = {"model": "sum", "terms": [{"model": "matrix", "n": 2},
                                      {"model": "function", "points": 1}]}
COVERINGS = {
    "span-and-vanishing": {
        "kappa": "1", "d": 1, "algebra": F_3,
        "covering": {"ideals": [
            {"type": "span", "vectors": [["1", "1", "0"], ["1", "-1", "0"]]},
            {"type": "vanishing_on", "points": [1, 2]},
        ]},
        "partition": {"zetas": [["0", "0", "1"], ["3/5+4/5i", "-i", "0"]]},
    },
    "generators": {
        "kappa": "1", "d": 1, "algebra": M_2_F_1,
        "covering": {"ideals": [
            {"type": "generators", "vectors": [["0", "2", "1/3i", "0", "0"]]},
            {"type": "blocks", "kill": ["2"]},
        ]},
        "partition": {"zetas": [["0", "0", "0", "0", "1"],
                                ["3/5+4/5i", "0", "0", "-i", "0"]]},
    },
    # E_11 E_12 = E_12 leaves the span of E_11: right multiplication
    "non-ideal-span": {
        "kappa": "1", "d": 1, "algebra": M_2_F_1,
        "covering": {"ideals": [
            {"type": "span", "vectors": [["1", "0", "0", "0", "0"]]},
            {"type": "blocks", "kill": ["2"]},
        ]},
    },
    # span(delta_2, delta_3) and span(delta_1, delta_3) share delta_3
    "intersecting": {
        "kappa": "1", "d": 1, "algebra": F_3,
        "covering": {"ideals": [
            {"type": "span", "vectors": [["0", "1", "1"], ["0", "1", "-1"]]},
            {"type": "vanishing_on", "points": [2]},
        ]},
    },
}


# ad E_12 and ad E_21 on M_2 are not bracket-closed: their commutator,
# ad (E_11 - E_22), leaves their span.  F_1 + M_2 + F_1 is covered by
# its charts F_1 + M_2 and M_2 + F_1, which overlap in the M_2, with an
# inner action on each chart
F_1 = {"model": "function", "points": 1}
FAILURE_PATHS = {
    "not-bracket-closed": {
        "kappa": "1", "d": 1, "algebra": {"model": "matrix", "n": 2},
        "action": {"type": "inner", "generators": [["0", "1", "0", "0"],
                                                   ["0", "0", "1", "0"]]},
    },
    "overlapping-charts": {
        "kappa": "1", "d": 1,
        "algebra": {"model": "sum", "terms": [F_1, {"model": "matrix", "n": 2}, F_1]},
        "covering": {"ideals": [{"type": "blocks", "kill": ["2"]},
                                {"type": "blocks", "kill": ["1:1"]}]},
        "partition": {"zetas": [["1", "3/5", "0", "0", "3/5", "0"],
                                ["0", "4/5", "0", "0", "4/5", "1"]]},
        "actions": [
            {"type": "inner", "generators": [["0", "0", "0", "0", "-i"],
                                             ["0", "0", "1", "0", "0"]]},
            {"type": "inner", "generators": [["0", "0", "0", "-i", "0"],
                                             ["0", "1", "0", "0", "0"]]},
        ],
    },
}


def _cases(commands, cases):
    """(name, arguments) of every case, for `verify` with these commands
    and the scenario paths in `cases`."""
    out = []
    for name, path in cases["shipped"]:
        for command in sorted(commands):
            for seed in SEEDS:
                out.append(("%s %s %d" % (command, name, seed),
                            [command, "--scenario", path, "--seed", str(seed)]))
        out.append(("hopf-check --max-degree 5 %s 0" % name,
                    ["hopf-check", "--scenario", path, "--seed", "0", "--max-degree", "5"]))
    for name, path in cases["generated"]:
        for seed in SEEDS:
            out.append(("all %s %d" % (name, seed),
                        ["all", "--scenario", path, "--seed", str(seed)]))
    for name, path in cases.get("sweeps", []):
        out.append(("hopf-check %s 0" % name,
                    ["hopf-check", "--scenario", path, "--seed", "0"]))
    return out


def _worker(src, cases_path, out_path):
    """Run every case with the package under `src`; write the results."""
    sys.path.insert(0, src)
    from nctangent import cli

    cases = json.loads(Path(cases_path).read_text())
    results = {name: _run(cli, args) for name, args in _cases(cli.main.commands, cases)}
    Path(out_path).write_text(json.dumps(results))


def _run(cli, args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args, prog_name="verify")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback from `verify` is a result too
        code = "raised %s: %s" % (type(exc).__name__, exc)
    return {"report": _strip_timing(out.getvalue()), "exit": code, "stderr": err.getvalue()}


def _strip_timing(text):
    """The stdout bytes with every `millis` value blanked."""
    return re.sub(r'"millis": \d+', '"millis": _', text)


def _src_lines(tree):
    """Lines in the Python files under the tree's `src/`, as `wc -l`
    counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def _report(runs, trees):
    """Print each differing case, the case counts and the `src/` line
    counts; return the exit status, 1 when some case differs."""
    differences = 0
    for mode in ("plain", "-O"):
        parent, change = runs[("parent", mode)], runs[("change", mode)]
        keys = sorted(set(parent) | set(change))
        differ = [key for key in keys if parent.get(key) != change.get(key)]
        differences += len(differ)
        for key in differ:
            print("DIFF [%s] %s" % (mode, key))
            for part in ("exit", "stderr", "report"):
                old = (parent.get(key) or {}).get(part)
                new = (change.get(key) or {}).get(part)
                if old != new:
                    print("  %s: parent %r" % (part, old))
                    print("  %s: change %r" % (part, new))
        print("%s: %d cases, %d differ" % (mode, len(keys), len(differ)))
    lines = {label: _src_lines(tree) for label, tree in trees.items()}
    print("src/ lines: parent %d, change %d (%+d)"
          % (lines["parent"], lines["change"], lines["change"] - lines["parent"]))
    return 1 if differences else 0


def _generated(seeds, directory):
    """(name, path) of every perfbench scenario of these seeds."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenarios", ROOT / "perfbench" / "scenarios.py"
    )
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    out = []
    for workload in scenarios.WORKLOADS:
        for seed in seeds:
            target = Path(directory) / ("%s-%d" % (workload, seed))
            target.mkdir()
            for case in scenarios.write_cases(scenarios.generate(workload, seed), target):
                out.append(("%s/%d/%s" % (workload, seed, case.name), str(case.path)))
    return out


def _sum_model(directory):
    """(name, path) of the `SUM_MODEL` scenario with each connection of
    `SUM_MODEL_CONNECTIONS`, written to `directory`."""
    out = []
    for kind in SUM_MODEL_CONNECTIONS:
        path = Path(directory) / ("sum-model-%s.json" % kind)
        path.write_text(json.dumps(dict(SUM_MODEL, connection={"type": kind})))
        out.append(("sum-model/%s" % kind, str(path)))
    return out


def _written(directory, prefix, table):
    """(name, path) of each scenario of `table`, written to `directory`
    and named after `prefix`."""
    out = []
    for name, scenario in table.items():
        path = Path(directory) / ("%s-%s.json" % (prefix, name))
        path.write_text(json.dumps(scenario))
        out.append(("%s/%s" % (prefix, name), str(path)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the other checkout")
    parser.add_argument("--perfbench-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for tree in trees.values():
        if not (tree / "src" / "nctangent" / "cli.py").is_file():
            parser.error("%s is not a checkout with src/nctangent" % tree)
    with tempfile.TemporaryDirectory() as tmp:
        shipped = [(p.name, str(p)) for p in sorted((ROOT / "scenarios").glob("*.json"))]
        generated = _generated(args.perfbench_seeds, tmp)
        generated += _sum_model(tmp) + _written(tmp, "block-sum", {"m3+m3": BLOCK_SUM})
        generated += _written(tmp, "covering", COVERINGS)
        generated += _written(tmp, "failure", FAILURE_PATHS)
        sweeps = _written(tmp, "hopf", HOPF_SWEEPS)
        cases = {"shipped": shipped, "generated": generated, "sweeps": sweeps}
        cases_path = Path(tmp) / "cases.json"
        cases_path.write_text(json.dumps(cases))
        runs = {}
        for mode in ("plain", "-O"):
            procs = {}
            for label, tree in trees.items():
                out_path = Path(tmp) / ("%s%s.json" % (label, mode))
                command = [sys.executable] + (["-O"] if mode == "-O" else [])
                command += [__file__, "--worker", str(tree / "src"), str(cases_path),
                            str(out_path)]
                procs[label] = (subprocess.Popen(command), out_path)
            for label, (proc, out_path) in procs.items():
                if proc.wait() != 0:
                    print("%s %s: the worker exited %d" % (label, mode, proc.returncode))
                    return 1
                runs[(label, mode)] = json.loads(out_path.read_text())
    return _report(runs, trees)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5])
    else:
        sys.exit(main())
