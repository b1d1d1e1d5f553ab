"""Seeded scenario generator for the `verify all` benchmark.

Every workload is a fixed list of size slots.  Each slot appears
`VARIANTS` times per pass, each time with another deformation parameter
kappa and other seeded details, so the cost mix of a pass is the same
for every seed while the inputs differ.  The last, most expensive slot
appears twice as often: the tail report (ten reports beyond it) then
falls inside that slot even when a slow machine fits only two passes
into a run.  Repeating slots keeps the median and the tail inside one
slot rather than on the edge between two, which makes them steady.

With every scenario the generator records what `verify all` must
report: the check ids, the status of each, and the exit code.  These are
derived from how the scenario was built, never by running the program.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

# Every shipped scenario uses kappa = 1; denominators drive the cost of
# Fraction arithmetic, so the workloads mix several.  Variant v of a slot
# draws kappa from class v, whose values have similar heights, so the
# seed changes kappa without changing the cost mix.
KAPPA_CLASSES = (
    ("1", "2", "3"),
    ("1/2", "1/3", "1/5"),
    ("2/3", "3/2", "3/4", "4/3"),
    ("3/5", "5/3", "2/5", "5/2"),
)
VARIANTS = len(KAPPA_CLASSES)

# Slots are listed cheapest first; the first one holds the workload's
# smallest scenario, used for set-up time.  Three slots of four and a
# last slot of eight put the median report inside the third slot and
# the tail report inside the last.
HOPF_SLOTS = (  # (d, max_degree)
    (1, 4),
    (2, 3),
    (3, 3),
    (1, 5),
)
CALCULUS_SLOTS = (  # (n, d, connection type); the action is canonical, N = n
    (2, 1, "constant"),
    (2, 1, "seeded"),
    (3, 1, "zero"),
    (4, 1, "zero"),
)
LOCALITY_SLOTS = (
    # ("function", points, charts, charts each shared point lies in)
    # ("blocks", sizes of the two matrix blocks)
    ("function", 6, 2, ()),
    ("function", 5, 2, (2,)),
    ("blocks", (2, 2)),
    ("function", 10, 3, (3, 2)),
)
WORKLOADS = {
    "hopf-sweep": HOPF_SLOTS,
    "calculus": CALCULUS_SLOTS,
    "locality": LOCALITY_SLOTS,
}

HOPF_CHECKS = ("antipode", "coassociativity", "commutators", "counit")
PARTITION_CHECKS = ("local-finiteness", "membership", "positivity-witness", "sum-law")
COVERING_CHECKS = (
    "homomorphism",
    "joint-injectivity",
    "overlap-diagram",
    "section",
    "star-compatibility",
    "unit",
)

# Pythagorean splits of 1 into two and three squares.
_PAIRS = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
_TRIPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9))
_PHASES = (1, -1, "i", "-i")


class Case:
    """One generated scenario with the report `verify all` must give."""

    def __init__(self, name, scenario, expected, exit_code):
        self.name = name
        self.scenario = scenario
        self.expected = expected  # {check id: status}
        self.exit_code = exit_code
        self.path = None


def expected_checks(scn):
    """Check ids `verify all` runs on a scenario of this shape, all
    marked "pass"; callers mark the checks that fail by construction."""
    ids = ["hopf:" + name for name in HOPF_CHECKS]
    if "partition" in scn and "algebra" in scn:
        ids += ["partition:" + name for name in PARTITION_CHECKS]
        if "covering" in scn:
            ids.append("partition:reconstruction")
    if "covering" in scn:
        ids += ["covering:" + name for name in COVERING_CHECKS]
        if "partition" in scn:
            ids += ["adapted:closure", "adapted:literal"]
    if "actions" in scn and "partition" in scn:
        ids += ["glue:leibniz", "glue:roundtrip"]
    if "actions" in scn or "action" in scn:
        ids += ["forms:dd-zero", "forms:duality"]
        if "actions" in scn:
            ids += ["forms:d-locality", "forms:wedge-compat"]
    if "connection" in scn:
        ids += ["curvature:axioms", "curvature:coefficients", "curvature:cross-check"]
    return {check: "pass" for check in ids}


def _phase_literal(value, phase):
    """Scalar literal for value * phase, phase one of 1, -1, i, -i."""
    if phase == 1:
        return str(value)
    if phase == -1:
        return str(-value)
    return "%si" % (value if phase == "i" else -value)


def _hopf_case(rng, slot, variant):
    d, degree = slot
    return {"d": d, "max_degree": degree}, None


def _calculus_case(rng, slot, variant):
    n, d, kind = slot
    connection = {"type": kind}
    if kind == "constant":
        # a nonzero imaginary multiple of the unit is central and
        # anti-hermitian, so the coefficient check passes
        value = Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 4)))
        connection["value"] = _phase_literal(value, rng.choice(("i", "-i")))
    scn = {
        "d": d,
        "max_degree": 1 + variant % 2,
        "algebra": {"model": "matrix", "n": n},
        "action": {"type": "canonical", "N": n},
        "connection": connection,
    }
    return scn, None


def _block_case(rng, slot, variant):
    sizes = slot[1]
    scn = {
        "d": 1,  # a block of size 2 bounds d by the canonical model's N >= d + 1
        "max_degree": 1 + variant % 2,
        "algebra": {"model": "sum", "terms": [{"model": "matrix", "n": n} for n in sizes]},
        # each chart keeps one block; top-level label prefixes "1" and "2"
        # name the blocks
        "covering": {
            "ideals": [{"type": "blocks", "kill": ["2"]}, {"type": "blocks", "kill": ["1"]}]
        },
        "partition": {"type": "blocks"},
        "actions": [{"type": "canonical", "N": n} for n in sizes],
    }
    return scn, None


def _chart_points(rng, points, charts, shared):
    """Point sets (1-based) of the charts.  They split the points as
    evenly as possible, then each entry of `shared` names how many charts
    one further point lies in, so the overlap structure, and with it the
    cost, is the same for every seed."""
    order = list(range(1, points + 1))
    rng.shuffle(order)
    sets = [set(order[k::charts]) for k in range(charts)]
    for p, count in zip(rng.sample(order, len(shared)), shared):
        home = next(k for k in range(charts) if p in sets[k])
        others = [k for k in range(charts) if k != home]
        for k in rng.sample(others, count - 1):
            sets[k].add(p)
    return [sorted(s) for s in sets]


def _function_case(rng, slot, variant):
    _, points, charts, shared = slot
    sets = _chart_points(rng, points, charts, shared)
    zetas = [["0"] * points for _ in range(charts)]
    for p in range(1, points + 1):
        owners = [k for k in range(charts) if p in sets[k]]
        rng.shuffle(owners)
        if len(owners) > 1 and rng.random() < 0.25:
            owners = owners[:1]  # all mass on one of the overlapping charts
        if len(owners) == 1:
            parts = (Fraction(1),)
        elif len(owners) == 2:
            a, b, c = rng.choice(_PAIRS)
            parts = (Fraction(a, c), Fraction(b, c))
        else:
            a, b, c, s = rng.choice(_TRIPLES)
            parts = (Fraction(a, s), Fraction(b, s), Fraction(c, s))
        for k, value in zip(owners, parts):
            zetas[k][p - 1] = _phase_literal(value, rng.choice(_PHASES))
    scn = {
        "d": 1 + variant // 2,
        "max_degree": 1 + variant % 2,
        "algebra": {"model": "function", "points": points},
        "covering": {"ideals": [{"type": "vanishing_on", "points": s} for s in sets]},
        "partition": {"zetas": zetas},
    }
    # Literal adaptedness asks every other chart's characters (its point
    # evaluations) to kill chi_b = |zeta_b|^2, so it fails exactly when
    # some zeta puts mass on a point that another chart also contains.
    leak = any(
        zetas[b][p - 1] != "0" and any(p in sets[a] for a in range(charts) if a != b)
        for b in range(charts)
        for p in sets[b]
    )
    return scn, ("adapted:literal" if leak else None)


def _locality_case(rng, slot, variant):
    build = _block_case if slot[0] == "blocks" else _function_case
    return build(rng, slot, variant)


_BUILDERS = {
    "hopf-sweep": _hopf_case,
    "calculus": _calculus_case,
    "locality": _locality_case,
}


def _slot_label(slot):
    return "-".join(
        ("x".join(map(str, part)) or "none") if isinstance(part, tuple) else str(part)
        for part in slot
    )


def generate(workload, seed):
    """The workload's cases for this seed, in the order a pass runs
    them.  The first case is the smallest scenario."""
    rng = random.Random("%s/%d" % (workload, seed))
    cases = []
    slots = WORKLOADS[workload]
    for slot in slots:
        copies = 2 if slot is slots[-1] else 1
        for variant in range(VARIANTS * copies):
            scn, failing = _BUILDERS[workload](rng, slot, variant % VARIANTS)
            scn = {"kappa": rng.choice(KAPPA_CLASSES[variant % VARIANTS]), **scn}
            expected = expected_checks(scn)
            if failing:
                expected[failing] = "fail"
            name = "%s-%s-%d" % (workload, _slot_label(slot), variant)
            exit_code = 1 if "fail" in expected.values() else 0
            cases.append(Case(name, scn, expected, exit_code))
    smallest = cases[0]
    rest = cases[1:]
    rng.shuffle(rest)
    return [smallest] + rest


def write_cases(cases, directory):
    directory = Path(directory)
    for case in cases:
        case.path = directory / (case.name + ".json")
        case.path.write_text(json.dumps(case.scenario, indent=1) + "\n")
    return cases
