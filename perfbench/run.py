"""End-to-end benchmark of `verify all`, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hopf-sweep --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's scenario files from the seed,
runs `verify all` on each of them in-process through the click entry
point, one report after another (a closed loop with one client), and
checks every report against what the generator expects.  The program
itself sees only the scenario files and `--seed`.  Before timing, a
child process checks the shipped scenarios (`shipped.py`) while this
process warms up on one untimed pass of the workload, so the peak
memory is the workload's own.

`--trace 0` measures the end-to-end metrics; `--trace 1` measures the
per-layer metrics instead (see `tracing.py`).  Times are reference
seconds, corrected for the machine's drifting speed (see `clock.py`).
Human-readable lines come
first; the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  Details, and with
`--trace 1` every recorded span, go to `perfbench/out/`.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios
import tracing
from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_RUNS = 7

# Report fields that hold timings and may differ between passes.
TIMING_KEYS = ("millis", "phases")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from nctangent.cli import main; main(sys.argv[2:])"
)


def strip_timings(value):
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def import_cli():
    """The `nctangent.cli` module of this checkout's `src/`, or None."""
    if not (ROOT / "src" / "nctangent" / "cli.py").is_file():
        print("perfbench: no nctangent sources under %s" % (ROOT / "src"), file=sys.stderr)
        return None
    sys.path.insert(0, str(ROOT / "src"))
    from nctangent import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("perfbench: imported nctangent from %s" % cli.__file__, file=sys.stderr)
        return None
    return cli


class Verifier:
    """Runs `verify all` in-process and checks each report.  `clock` is
    set when timing starts."""

    def __init__(self, cli_main, seed):
        self.cli_main = cli_main
        self.seed = seed
        self.clock = None
        self.references = {}  # case name -> first report, timings stripped
        self.attempted = 0
        self.failures = []  # (case name, reason)

    def call(self, path):
        """(exit code, stdout, exception or None) of one report."""
        out = io.StringIO()
        code, error = 0, None
        try:
            with contextlib.redirect_stdout(out):
                self.cli_main.main(
                    ["all", "--scenario", str(path), "--seed", str(self.seed)],
                    standalone_mode=False,
                )
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a report that raises is a failed operation
            error = exc
        return code, out.getvalue(), error

    def problem(self, name, expected, exit_code, code, text, error):
        """Why this report is wrong, or None."""
        if error is not None:
            return "raised %s: %s" % (type(error).__name__, error)
        if code != exit_code:
            return "exit code %d, expected %d" % (code, exit_code)
        try:
            report = json.loads(text)
            got = {check["id"]: check["status"] for check in report["checks"]}
        except (ValueError, KeyError, TypeError) as err:
            return "unreadable report: %s" % err
        if got != expected:
            wrong = sorted(
                "%s=%s (expected %s)" % (k, got.get(k), expected.get(k))
                for k in set(got) | set(expected)
                if got.get(k) != expected.get(k)
            )
            return "unexpected checks: " + ", ".join(wrong)
        stripped = strip_timings(report)
        if self.references.setdefault(name, stripped) != stripped:
            return "report differs from an earlier pass of the same scenario"
        return None

    def check(self, case, outcome):
        """Count one report of a generated case and record its problem."""
        self.attempted += 1
        reason = self.problem(case.name, case.expected, case.exit_code, *outcome)
        if reason:
            self.failures.append((case.name, reason))

    def run(self, case, tracer=None):
        """Time one report of a generated case and check it; returns
        the clock's id of the call."""

        def report():
            root = tracer.begin_report(case.name) if tracer else None
            outcome = self.call(case.path)
            if tracer:
                tracer.end_report(root, outcome[2] is not None)
            return outcome

        call_id, outcome = self.clock.time(report)
        self.check(case, outcome)
        return call_id


def warm_up(verifier, cases, seed):
    """One untimed, checked pass over the cases, while a child process
    checks the shipped scenarios.  Returns the child's problems."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "shipped.py"), str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        for case in cases:
            verifier.check(case, verifier.call(case.path))
    finally:
        try:
            out, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
    try:
        if child.returncode == 0:
            return [tuple(p) for p in json.loads(out.decode().splitlines()[-1])]
    except (ValueError, IndexError):
        pass
    return [("shipped.py", "exit code %d: %s" % (child.returncode, err.decode()[-300:]))]


def measure_setup(verifier, case):
    """Median time of a fresh interpreter that imports the CLI and runs
    one report on the smallest scenario; lazy imports included.
    Returns wall seconds; the caller converts them with the speed of the
    whole run, because the probes of this process next to one child
    process say little about the speed the child ran at."""
    command = [
        sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
        "all", "--scenario", str(case.path), "--seed", str(verifier.seed),
    ]
    calls = []
    for _ in range(SETUP_RUNS):
        call_id, proc = verifier.clock.time(
            subprocess.run, command, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120, check=False,
        )
        calls.append(call_id)
        verifier.attempted += 1
        if proc.returncode != case.exit_code:
            verifier.failures.append((
                case.name + " (set-up run)",
                "exit code %d, expected %d: %s"
                % (proc.returncode, case.exit_code, proc.stderr.decode()[-300:]),
            ))
    return statistics.median(verifier.clock.wall(c) for c in calls)


def tail(times):
    """The highest percentile with at least ten reports beyond it:
    (value, percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(by_case):
    """(reports per second, p50, tail, tail percentile) of report times
    grouped by case."""
    times = [t for case_times in by_case.values() for t in case_times]
    # one pass over the workload, each scenario at its median, so the rate
    # does not depend on where in a pass the time ran out
    pass_s = sum(statistics.median(case_times) for case_times in by_case.values())
    tail_s, tail_pct = tail(times)
    return len(by_case) / pass_s, statistics.median(times), tail_s, tail_pct


def run_end_to_end(verifier, cases, seconds):
    setup_wall = measure_setup(verifier, cases[0])
    calls = {case.name: [] for case in cases}
    reports = 0
    start = time.perf_counter()
    # cycle through the cases until time is up, but give each one a report
    while reports < len(cases) or time.perf_counter() - start < seconds:
        case = cases[reports % len(cases)]
        calls[case.name].append(verifier.run(case))
        reports += 1
    elapsed = time.perf_counter() - start
    clock = verifier.clock
    wall = {name: [clock.wall(c) for c in ids] for name, ids in calls.items()}
    ref = {name: [clock.reference(c) for c in ids] for name, ids in calls.items()}
    rate, p50, tail_s, tail_pct = summarize(ref)
    metrics = {
        "reports_per_s": (rate, "1/s"),
        "report_s.p50": (p50, "s"),
        "report_s.tail": (tail_s, "s"),
        "setup_s": (setup_wall * clock.speed(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall_rate, wall_p50, wall_tail, _ = summarize(wall)
    notes = {
        "reports": reports,
        "elapsed_s": elapsed,
        "tail_percentile": tail_pct,
        "machine_speed": clock.speed(),
        "wall": {
            "reports_per_s": wall_rate,
            "report_s.p50": wall_p50,
            "report_s.tail": wall_tail,
            "setup_s": setup_wall,
        },
        "setup_runs": SETUP_RUNS,
        "report_s": ref,
        "report_wall_s": wall,
    }
    lines = [
        "%d scenarios, %d reports in %.2f s" % (len(cases), reports, elapsed),
        "times are reference seconds (see clock.py); the machine ran at %.2f of the"
        " reference speed; wall: p50 %.4f s, tail %.4f s, set-up %.4f s"
        % (notes["machine_speed"], wall_p50, wall_tail, setup_wall),
        "report_s.tail is p%.1f: %d of %d reports lie beyond it"
        % (tail_pct, min(10, reports - 1), reports),
        "setup_s is the median of %d fresh interpreters" % SETUP_RUNS,
    ]
    return metrics, notes, lines


def per_report(value, reports):
    return value / reports if reports else 0.0


def run_traced(verifier, cases, seconds, scalar_class, spans_path):
    """Alternate untraced and traced passes until `seconds` have gone
    by, then one Scalar counting pass and the operand replay.  Times are
    in reference seconds: span times are scaled by the traced reports'
    reference-to-wall ratio."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.extend(verifier.run(case) for case in cases)
        tracer.install()
        try:
            traced.extend(verifier.run(case, tracer) for case in cases)
        finally:
            tracer.close()
    counter = tracing.ScalarCounter(scalar_class, verifier.seed).install()
    try:
        for case in cases:
            verifier.run(case)
    finally:
        counter.close()
    clock = verifier.clock
    replay, op_ns = clock.time(counter.replay_ns)
    op_ns *= clock.reference(replay) / clock.wall(replay)
    plain_s = sum(clock.reference(c) for c in plain)
    traced_s = sum(clock.reference(c) for c in traced)
    traced_wall = sum(clock.wall(c) for c in traced)

    self_ns, calls, report_ns = tracer.summary()
    reports = len(tracer.report_names)
    scale = traced_s / traced_wall / 1e9  # reference seconds per nanosecond

    def busy(name):
        return per_report(self_ns.get(name, 0), reports) * scale

    def count(name):
        return per_report(calls.get(name, 0), reports)

    metrics = {
        "scalars.field_ops": (per_report(counter.total(), len(cases)), "count"),
        "scalars.field_op_ns": (op_ns, "ns"),
        "scalars.rref.density": (
            tracer.rref_nonzero / tracer.rref_entries if tracer.rref_entries else 0.0,
            "ratio",
        ),
        "minkowski.coproduct.distinct_ratio": (
            per_report(tracer.coproduct_distinct, calls.get("minkowski.coproduct", 0)),
            "ratio",
        ),
        "algebras.multiply.table_density": (
            per_report(tracer.table_density_sum, calls.get("algebras.multiply", 0)),
            "ratio",
        ),
        "algebras.center.distinct_ratio": (
            per_report(tracer.center_distinct, calls.get("algebras.center", 0)),
            "ratio",
        ),
        "algebras.characters.generic_ratio": (
            per_report(tracer.characters_generic, calls.get("algebras.characters", 0)),
            "ratio",
        ),
    }
    for name in tracer.names:
        if name == tracing.ROOT_SPAN:
            metrics["cli.other.busy_s"] = (busy(name), "s")
            continue
        metrics[name + ".busy_s"] = (busy(name), "s")
        metrics[name + ".calls"] = (count(name), "count")
    layer_ns = dict.fromkeys(tracing.LAYERS, 0)
    for name, ns in self_ns.items():
        layer = name.split(".", 1)[0]
        if layer in layer_ns:
            layer_ns[layer] += ns
    for layer in tracing.LAYERS:
        metrics[layer + ".busy_s"] = (per_report(layer_ns[layer], reports) * scale, "s")
        metrics[layer + ".share"] = (per_report(layer_ns[layer], report_ns), "ratio")
        metrics[layer + ".errors"] = (per_report(tracer.errors[layer], reports), "count")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")

    tracer.write(spans_path)
    accounted = sum(self_ns.values())
    notes = {
        "traced_reports": reports,
        "spans": len(tracer.start),
        "traced_report_s": report_ns / 1e9,
        "untraced_report_s": plain_s,
        "counted_reports": len(cases),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    lines = [
        "%d traced reports, %d spans; tracing overhead %+.1f%% of %.2f reference s untraced"
        % (reports, len(tracer.start), 100 * metrics["trace.overhead"][0], plain_s),
        "layer self times + cli.other + trace.probe = %.4f s of %.4f s traced wall time"
        % (accounted / 1e9, report_ns / 1e9),
    ] + [
        "  %-10s %5.1f%%" % (layer, 100 * metrics[layer + ".share"][0])
        for layer in tracing.LAYERS
    ] + [
        "  %-10s %5.1f%%" % ("probes", 100 * per_report(self_ns[tracing.PROBE_SPAN], report_ns)),
        "spans written to %s" % notes["spans_file"],
    ]
    return metrics, notes, lines


def select(computed, wanted):
    """The metrics BENCHMARK.json lists, in its order and units."""
    selected = {}
    for spec in wanted:
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError("%s is measured in %s, not %s" % (spec["name"], unit, spec["unit"]))
        selected[spec["name"]] = {"value": value, "unit": unit}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_cli()
    if cli is None:
        return 2
    from nctangent.scalars import Scalar

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = wanted["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = OUT / ("scenarios-%s-%d" % (stem, os.getpid()))
    workdir.mkdir()
    try:
        cases = scenarios.write_cases(scenarios.generate(args.workload, args.seed), workdir)
        verifier = Verifier(cli.main, args.seed)
        shipped = warm_up(verifier, cases, args.seed)
        verifier.clock = ReferenceClock()
        if args.trace:
            metrics, notes, lines = run_traced(
                verifier, cases, args.seconds, Scalar, OUT / ("spans-%s.json.gz" % stem)
            )
        else:
            metrics, notes, lines = run_end_to_end(verifier, cases, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(verifier.failures)
    attempted = verifier.attempted
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print("  " + line)
    selected = select(metrics, wanted)
    for name, metric in selected.items():
        print("  %-42s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-42s %14.6g ratio (%d of %d reports)" % (
        "failed_ratio", failed / attempted, failed, attempted))
    for name, reason in verifier.failures[:20]:
        print("  FAILED %s: %s" % (name, reason))
    for name, reason in shipped:
        print("  SHIPPED SCENARIO WRONG %s: %s" % (name, reason))

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "failures": verifier.failures,
        "shipped_problems": shipped,
    }
    (OUT / ("result-%s.json" % stem)).write_text(json.dumps(details, indent=1) + "\n")
    result = {
        "correct": not failed and not shipped,
        "attempted": attempted,
        "failed": failed,
        "metrics": selected,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
