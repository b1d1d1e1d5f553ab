"""Check of the shipped scenarios: `verify all` once on each, which must
give its known statuses.  `run.py` runs it in a child process, because
the shipped scenarios are heavier than any workload's and would set the
benchmark's peak memory.

    python3 perfbench/shipped.py <seed>

Prints one JSON list of [scenario, problem] pairs; exits 2 when the
program's sources are missing.
"""

import json
import sys

import run
import scenarios

# Checks of the shipped scenarios that fail by design.
SHIPPED = {
    "block_model.json": (),
    "curvature_d1.json": (),
    "function_4pt.json": ("adapted:literal",),
    "hopf_d3.json": (),
    "m3_model.json": (),
    "matrix_partition.json": (),
    "moyal_truncated.json": (),
}


def check_shipped(verifier):
    """Run every shipped scenario once; the list of problems."""
    problems = []
    for name, failing in SHIPPED.items():
        path = run.ROOT / "scenarios" / name
        try:
            scn = json.loads(path.read_text())
        except (OSError, ValueError) as err:
            problems.append((name, "cannot read: %s" % err))
            continue
        expected = scenarios.expected_checks(scn)
        expected.update({check: "fail" for check in failing})
        code, text, error = verifier.call(path)
        reason = verifier.problem(
            "shipped/" + name, expected, 1 if failing else 0, code, text, error
        )
        if reason:
            problems.append((name, reason))
    return problems


def main():
    cli = run.import_cli()
    if cli is None:
        return 2
    print(json.dumps(check_shipped(run.Verifier(cli.main, int(sys.argv[1])))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
