"""Scenario-driven verification commands.

A scenario is a JSON object of optional sections.  The `SECTIONS` table
is the one list of them, in build order, with the sections each one
needs and the builder that turns its JSON value into the object the
checks read.  Every command loads and fully validates the scenario, runs
check families from the `FAMILIES` table (one family, or for `all` every
family whose sections are present), prints a JSON report with one record
per check, and exits 0 when everything passed, 1 when some check failed,
and 2 on usage or scenario errors, including a library error raised
while a family runs.
"""

import argparse
import json
import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from nctangent.algebras import (
    AlgebraError,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    make_moyal_truncation,
)
from nctangent.connection import (
    ConnectionCoefficients,
    curvature_cross_check,
    draw_ints,
    random_connection,
    verify_connection_axioms,
)
from nctangent.covering import Covering, ideal_from_declaration, verify_covering
from nctangent.forms import (
    FormN,
    d_locality_check,
    differential_of,
    duality_rank,
    glued_basis,
    kappa_basis,
    koszul_d,
    wedge_compat_check,
)
from nctangent.minkowski import PBWElement, hopf_axiom_check
from nctangent.partition import (
    Partition,
    reconstruction_check,
    verify_adapted,
    verify_partition,
)
from nctangent.scalars import Scalar, vec_add, vec_scale, zero_vec
from nctangent.tangent import (
    ActionAssignment,
    LocalDerivation,
    canonical_inner_model,
    decompose,
    glue,
    leibniz_failures,
)

REPORT_VERSION = "1"
DEFAULT_MAX_DEGREE = 3
# the largest spatial dimension a scenario may declare: the Hopf sweep
# has C(d + max_degree, d) monomials, and the shipped and benchmark
# scenarios use d <= 3
MAX_D = 16


class ScenarioError(Exception):
    """Scenario file is missing, malformed, or fails validation."""


def _parse_scalar(value, where):
    try:
        return Scalar.parse(str(value))
    except (ValueError, ZeroDivisionError) as err:
        raise ScenarioError("bad scalar literal in %s: %s" % (where, err))


def _parse_vec(items, dim, where):
    if not isinstance(items, (list, tuple)) or len(items) != dim:
        raise ScenarioError(
            "%s must be a list of %d scalar literals" % (where, dim)
        )
    return tuple(_parse_scalar(x, where) for x in items)


def _parse_ideal_decl(A, decl):
    """Check the shape of one ideal declaration.  Vector-valued
    declarations carry scalar literals that need parsing."""
    if not isinstance(decl, dict):
        raise ScenarioError("each covering ideal must be an object, got %r" % (decl,))
    kind = decl.get("type")
    if kind in ("span", "generators"):
        vectors = decl.get("vectors", [])
        if not isinstance(vectors, list):
            raise ScenarioError("%s ideal needs a 'vectors' list" % kind)
        out = dict(decl)
        out["vectors"] = [
            _parse_vec(v, A.dim, "covering ideal vector") for v in vectors
        ]
        return out
    if kind == "blocks" and not isinstance(decl.get("kill"), list):
        raise ScenarioError("blocks ideal needs a 'kill' list of block prefixes")
    if kind == "vanishing_on":
        points = decl.get("points")
        try:
            if isinstance(points, list):
                return dict(decl, points=[_integer(p) for p in points])
        except ValueError:
            pass
        raise ScenarioError("vanishing_on ideal needs a 'points' list of integers")
    return decl


def _build_algebra(scn, spec):
    """The algebra section, or one term of a sum model."""
    if not isinstance(spec, dict) or "model" not in spec:
        raise ScenarioError("algebra section needs a 'model' field")
    model = spec["model"]
    try:
        if model == "matrix":
            return make_matrix_algebra(_integer(spec["n"]))
        if model == "moyal":
            return make_moyal_truncation(_integer(spec["N"]))
        if model == "function":
            return make_function_algebra(_integer(spec["points"]))
        if model == "sum":
            terms = spec.get("terms", [])
            if len(terms) < 2:
                raise ScenarioError("sum model needs at least two terms")
            out = _build_algebra(scn, terms[0])
            for term in terms[1:]:
                out = direct_sum(out, _build_algebra(scn, term))
            return out
    except KeyError as err:
        raise ScenarioError("algebra section is missing field %r" % err.args[0])
    except (TypeError, ValueError) as err:
        raise ScenarioError("bad algebra section: %s" % err)
    raise ScenarioError("unknown algebra model %r" % model)


def _diagonal_zetas(A):
    model = A.model
    if model and model[0] == "matrix":
        n = model[1]
        return [A.basis_vector(m * n + m) for m in range(n)]
    if model and model[0] == "function":
        return [A.basis_vector(k) for k in range(A.dim)]
    raise ScenarioError("diagonal partition needs a matrix-like model")


def _block_sizes(model):
    """Flattened (kind, size) blocks of a supported model tag."""
    if isinstance(model, tuple):
        if model[0] == "matrix":
            return [("matrix", model[1])]
        if model[0] == "function":
            return [("point", 1)] * model[1]
        if model[0] == "sum":
            return _block_sizes(model[1].model) + _block_sizes(model[2].model)
    kind = model[0] if isinstance(model, tuple) else model
    raise AlgebraError("model %r is not built from matrix or function blocks" % (kind,))


def _block_zetas(A):
    try:
        blocks = _block_sizes(A.model)
    except AlgebraError as err:
        raise ScenarioError("block partition: %s" % err)
    zetas = []
    offset = 0
    for kind, size in blocks:
        z = zero_vec(A.dim)
        if kind == "matrix":
            for m in range(size):
                z = vec_add(z, A.basis_vector(offset + m * size + m))
            offset += size * size
        else:
            z = A.basis_vector(offset)
            offset += 1
        zetas.append(z)
    return zetas


def _build_covering(scn, spec):
    A = scn.algebra
    if not isinstance(spec, dict) or not isinstance(spec.get("ideals"), list):
        raise ScenarioError("covering section needs an 'ideals' list")
    try:
        ideals = [
            ideal_from_declaration(A, _parse_ideal_decl(A, decl))
            for decl in spec["ideals"]
        ]
        return Covering(A, ideals)
    except AlgebraError as err:
        raise ScenarioError("bad covering section: %s" % err)


def _build_partition(scn, spec):
    A = scn.algebra
    try:
        if isinstance(spec, dict) and "zetas" in spec:
            if not isinstance(spec["zetas"], list):
                raise ScenarioError("partition 'zetas' must be a list of vectors")
            zetas = [
                _parse_vec(z, A.dim, "partition zeta %d" % k)
                for k, z in enumerate(spec["zetas"])
            ]
        elif isinstance(spec, dict) and spec.get("type") == "diagonal":
            zetas = _diagonal_zetas(A)
        elif isinstance(spec, dict) and spec.get("type") == "blocks":
            zetas = _block_zetas(A)
        else:
            raise ScenarioError(
                "partition section needs 'zetas' or type 'diagonal'/'blocks'"
            )
        partition = Partition.from_zetas(A, zetas)
    except AlgebraError as err:
        raise ScenarioError("bad partition section: %s" % err)
    if scn.covering is not None and len(partition) != scn.covering.size:
        # reconstruction and adaptedness pair element k with chart k
        raise ScenarioError(
            "partition has %d elements but the covering has %d charts"
            % (len(partition), scn.covering.size)
        )
    return partition


def _action(scn, algebra, spec, where):
    """The action `spec` declares on `algebra`, called `where` in errors."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ScenarioError("%s needs a 'type' field" % where)
    try:
        if spec["type"] == "canonical":
            return canonical_inner_model(
                _integer(spec["N"]), scn.d, scn.kappa, algebra=algebra
            )
        if spec["type"] == "inner":
            gens = [
                _parse_vec(g, algebra.dim, where)
                for g in spec["generators"]
            ]
            return ActionAssignment.from_inner(algebra, scn.d, scn.kappa, gens)
    except KeyError as err:
        raise ScenarioError("%s is missing field %r" % (where, err.args[0]))
    except (TypeError, ValueError) as err:
        raise ScenarioError("bad %s: %s" % (where, err))
    raise ScenarioError("unknown action type %r in %s" % (spec["type"], where))


def _build_action(scn, spec):
    return _action(scn, scn.algebra, spec, "action section")


def _build_actions(scn, spec):
    if not isinstance(spec, list):
        raise ScenarioError("actions section must be a list")
    if len(spec) != scn.covering.size:
        raise ScenarioError("need one action per chart")
    return [
        _action(scn, scn.covering.chart(alpha), chart_spec, "chart %d action" % alpha)
        for alpha, chart_spec in enumerate(spec)
    ]


def _connection_entry(value, A, where):
    if isinstance(value, (list, tuple)):
        return _parse_vec(value, A.dim, where)
    return vec_scale(_parse_scalar(value, where), A.unit)


def _is_cube(grid, n):
    """Whether grid is a list of n lists of n lists of n entries."""
    return (
        isinstance(grid, list)
        and len(grid) == n
        and all(
            isinstance(plane, list)
            and len(plane) == n
            and all(isinstance(row, list) and len(row) == n for row in plane)
            for plane in grid
        )
    )


def _build_connection(scn, spec):
    """The connection as a function of the curvature family's random
    source; only a seeded connection draws from it."""
    assign = scn.action
    A = assign.algebra
    n = assign.d + 1
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "seeded":
        return lambda rng: random_connection(assign, rng)
    if kind == "zero":
        gamma = ConnectionCoefficients.zero(assign)
    elif kind == "constant":
        value = _parse_scalar(spec.get("value", "i"), "connection value")
        gamma = ConnectionCoefficients.constant(assign, value, check=False)
    elif isinstance(spec, dict) and "grid" in spec:
        grid = spec["grid"]
        if not _is_cube(grid, n):
            raise ScenarioError("connection grid must be (d+1) cubed")
        built = []
        for mu, plane in enumerate(grid):
            rows = []
            for nu, row in enumerate(plane):
                rows.append(
                    [
                        _connection_entry(
                            entry, A, "connection grid (%d,%d,%d)" % (mu, nu, lam)
                        )
                        for lam, entry in enumerate(row)
                    ]
                )
            built.append(rows)
        gamma = ConnectionCoefficients(assign, built, check=False)
    else:
        raise ScenarioError(
            "connection section needs type 'zero'/'constant'/'seeded' or a grid"
        )
    return lambda rng: gamma


def _integer(value):
    """A JSON integer or integer string as an int; ValueError for anything
    else, so 2.5 or true is never read as a whole number."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("expected an integer, got %r" % (value,))
    return int(value)


def _degree_bound(value, where):
    """A Hopf sweep bound: a nonnegative integer (or integer string)."""
    try:
        bound = _integer(value)
    except ValueError:
        raise ScenarioError("%s must be an integer, got %r" % (where, value))
    if bound < 0:
        raise ScenarioError("%s must be at least 0, got %d" % (where, bound))
    return bound


# The scenario sections in build order: the name of each, the sections it
# needs, and its builder, called as build(scn, spec) on the section's
# JSON value once every section it needs is built.
SECTIONS = (
    ("algebra", (), _build_algebra),
    ("covering", ("algebra",), _build_covering),
    ("partition", ("algebra",), _build_partition),
    ("action", ("algebra",), _build_action),
    ("actions", ("covering", "partition"), _build_actions),  # glued forms need the partition
    ("connection", ("action",), _build_connection),
)


class Scenario:
    """A loaded scenario; attributes are named after its sections."""

    __slots__ = ("kappa", "d", "max_degree", "_glued") + tuple(s[0] for s in SECTIONS)

    def glued(self):
        """The glued basis and the chart bases, built once per report."""
        if self._glued is None:
            self._glued = glued_basis(self.covering, self.partition, self.actions)
        return self._glued


def load_scenario(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        raise ScenarioError("cannot read scenario: %s" % err)
    except json.JSONDecodeError as err:
        raise ScenarioError("scenario is not valid JSON: %s" % err)
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    scn = Scenario()
    try:
        scn.kappa = Fraction(str(data.get("kappa", "1")))
    except (ValueError, ZeroDivisionError) as err:
        raise ScenarioError("bad kappa: %s" % err)
    if scn.kappa <= 0:
        raise ScenarioError("kappa must be positive")
    try:
        scn.d = _integer(data.get("d", 1))
    except ValueError:
        raise ScenarioError("d must be an integer")
    if scn.d < 1:
        raise ScenarioError("d must be at least 1")
    if scn.d > MAX_D:
        raise ScenarioError("d must be at most %d, got %d" % (MAX_D, scn.d))
    scn.max_degree = DEFAULT_MAX_DEGREE
    if data.get("max_degree") is not None:
        scn.max_degree = _degree_bound(data["max_degree"], "max_degree")
    scn._glued = None
    for name, needs, build in SECTIONS:
        setattr(scn, name, None)
        # a null connection is absent; any other null section is refused
        # by its builder
        if name not in data or data[name] is None and build is _build_connection:
            continue
        missing = [need for need in needs if getattr(scn, need) is None]
        if missing:
            article = "an" if missing[0][0] in "aeiou" else "a"
            raise ScenarioError("%s section needs %s %s section" % (name, article, missing[0]))
        setattr(scn, name, build(scn, data[name]))
    return scn


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return str(obj)


class Recorder:
    def __init__(self):
        self.records = []

    def run(self, check_id, thunk):
        """thunk returns None when the check passes, else a witness,
        which may be falsy: the covering laws name chart 0 as 0."""
        start = time.monotonic()
        witness = thunk()
        millis = int((time.monotonic() - start) * 1000)
        record = {
            "id": check_id,
            "status": "pass" if witness is None else "fail",
            "millis": millis,
        }
        if witness is not None:
            record["witness"] = _jsonable(witness)
        self.records.append(record)


def _first(items):
    return items[0] if items else None


def _once(sweep):
    """`sweep()`, called on the first read and kept: a family's sweep runs
    inside the thunk of the record that reads it first, which is charged
    with it."""
    kept = []

    def result():
        if not kept:
            kept.append(sweep())
        return kept[0]

    return result


def _check_hopf(scn, rec, seed):
    """Coalgebra axioms and defining commutators of the deformed space."""
    sweep = _once(lambda: hopf_axiom_check(scn.d, scn.kappa, scn.max_degree))

    def family_witness(family):
        hits = []
        for name, key in sweep():
            bucket = "antipode" if name.startswith("antipode") else name
            if bucket == family:
                hits.append((name, str(key)))
        return _first(hits)

    for family in ("antipode", "coassociativity", "counit"):
        rec.run("hopf:%s" % family, lambda f=family: family_witness(f))

    def commutators():
        kappa = scn.kappa
        p = [PBWElement.generator(scn.d, kappa, mu) for mu in range(scn.d + 1)]
        for j in range(1, scn.d + 1):
            comm = p[0].star(p[j]) - p[j].star(p[0])
            want = p[j].scale(Scalar(0, Fraction(1) / kappa))
            if comm != want:
                return ("time-space", j)
            for k in range(j + 1, scn.d + 1):
                if not (p[j].star(p[k]) - p[k].star(p[j])).is_zero():
                    return ("space-space", j, k)
        return None

    rec.run("hopf:commutators", commutators)


_PARTITION_CONDITIONS = ("membership", "local-finiteness", "positivity-witness", "sum-law")


def _check_partition(scn, rec, seed):
    """Partition-of-unity conditions, plus reconstruction when a covering
    is present."""
    report = _once(lambda: verify_partition(scn.algebra, scn.partition))

    def condition(name):
        ok, witness = next((ok, w) for n, ok, w in report() if n == name)
        return None if ok else witness

    for name in _PARTITION_CONDITIONS:
        rec.run("partition:%s" % name, lambda n=name: condition(n))
    if scn.covering is not None:
        rec.run(
            "partition:reconstruction",
            lambda: reconstruction_check(scn.partition, scn.covering),
        )


_COVERING_LAWS = (
    "homomorphism",
    "joint-injectivity",
    "overlap-diagram",
    "section",
    "star-compatibility",
    "unit",
)


def _check_covering(scn, rec, seed):
    """Covering laws: projections, sections, overlaps, injectivity."""
    failures = _once(lambda: verify_covering(scn.covering))
    for law in _COVERING_LAWS:
        rec.run(
            "covering:%s" % law,
            lambda law=law: _first([w for name, w in failures() if name == law]),
        )


def _check_adapted(scn, rec, seed):
    """Character subordination of the partition to the covering, in both
    the literal and closure variants."""
    def first_failure(variant):
        rows = verify_adapted(scn.partition, scn.covering, variant=variant)
        return _first([row for row in rows if not row[1]])

    for variant in ("closure", "literal"):
        rec.run("adapted:%s" % variant, lambda v=variant: first_failure(v))


def _chart_samples(assign, rng, count):
    """Seeded derivations on one chart: each coefficient (a + b i) 1, with
    a and then b drawn in -3..3 by `draw_ints`."""
    A = assign.algebra
    n = assign.d + 1
    ints = iter(draw_ints(rng, 3, 2 * n * count))
    out = []
    for _ in range(count):
        coeffs = [vec_scale(Scalar(next(ints), next(ints)), A.unit) for _ in range(n)]
        out.append(LocalDerivation(assign, coeffs))
    return out


def _check_glue(scn, rec, seed):
    """Glue chart derivations and verify Leibniz plus coefficient
    recovery."""
    cov, P = scn.covering, scn.partition
    rng = random.Random(seed)
    gbasis, _ = scn.glued()

    def leibniz():
        for mu, op in enumerate(gbasis.operators):
            bad = leibniz_failures(scn.algebra, op)
            if bad:
                return (mu, bad[0])
        return None

    rec.run("glue:leibniz", leibniz)

    def roundtrip():
        for _ in range(3):
            locals_ = [
                _chart_samples(assign, rng, 1)[0] for assign in scn.actions
            ]
            X = glue(cov, P, locals_)
            for alpha, local in enumerate(locals_):
                if decompose(X, alpha) != local.coefficients:
                    return ("chart", alpha)
        return None

    rec.run("glue:roundtrip", roundtrip)


# a + b i at [a + 2][b + 2], for a and b in -2..2
_ELEMENT_SCALARS = tuple(tuple(Scalar(a, b) for b in range(-2, 3)) for a in range(-2, 3))


def _random_element(rng, dim):
    """Coordinates a + b i, with a and then b drawn in -2..2 by `draw_ints`."""
    ints = draw_ints(rng, 2, 2 * dim)
    return tuple(_ELEMENT_SCALARS[a + 2][b + 2] for a, b in zip(ints[::2], ints[1::2]))


def _random_form(rng, basis, degree):
    entries = {}
    for key in combinations(range(basis.rank), degree):
        entries[key] = _random_element(rng, basis.algebra.dim)
    return FormN(basis, degree, entries)


def _check_forms(scn, rec, seed):
    """Differential calculus: nilpotent differential, wedge
    compatibility, locality, duality rank."""
    rng = random.Random(seed)
    if scn.actions is not None:
        gbasis, locals_ = scn.glued()
    else:
        gbasis, locals_ = kappa_basis(scn.action), None

    def dd_zero():
        for _ in range(10):
            a = _random_element(rng, gbasis.algebra.dim)
            if not koszul_d(differential_of(gbasis, a)).is_zero():
                return ("zero-form",)
        # Below rank 3 (d = 1) the one-form half is skipped: a 2-form has
        # no 3-tuples of slots, so d d rho is always the zero form.  Its
        # draws are kept, because the later records read the rest of the
        # stream.
        for _ in range(10):
            rho = _random_form(rng, gbasis, 1)
            if gbasis.rank >= 3 and not koszul_d(koszul_d(rho)).is_zero():
                return ("one-form",)
        return None

    rec.run("forms:dd-zero", dd_zero)

    def duality():
        got, needed = duality_rank(gbasis)
        return None if got == needed else (got, needed)

    rec.run("forms:duality", duality)

    if scn.actions is None:
        return

    def wedge_compat():
        rho = _random_form(rng, gbasis, 1)
        eta = _random_form(rng, gbasis, 1)
        a = _random_form(rng, gbasis, 0)
        for alpha in range(scn.covering.size):
            local = locals_[alpha]
            for left, right in ((rho, eta), (a, rho)):
                bad = wedge_compat_check(
                    left, right, scn.covering, scn.partition, alpha, local
                )
                if bad:
                    return (alpha, bad[0])
        return None

    rec.run("forms:wedge-compat", wedge_compat)

    def locality():
        for alpha in range(scn.covering.size):
            local = locals_[alpha]
            for degree in (0, 1):
                rho = _random_form(rng, gbasis, degree)
                bad = d_locality_check(rho, scn.covering, alpha, local)
                if bad:
                    return (alpha, degree, bad[0])
        return None

    rec.run("forms:d-locality", locality)


def _check_curvature(scn, rec, seed):
    """Connection validity, axioms, and the two-route curvature
    comparison."""
    rng = random.Random(seed)
    gamma = scn.connection(rng)
    rec.run(
        "curvature:coefficients",
        lambda: _first(gamma.failures()),
    )
    samples = [
        (X, Y, vec_scale(Scalar(1, 1), scn.action.algebra.unit))
        for X, Y in zip(
            _chart_samples(scn.action, rng, 3),
            _chart_samples(scn.action, rng, 3),
        )
    ]
    rec.run(
        "curvature:axioms",
        lambda: _first(verify_connection_axioms(gamma, samples)),
    )
    rec.run(
        "curvature:cross-check",
        lambda: _first(curvature_cross_check(gamma)),
    )


# A check family: the command that runs it alone, the scenario sections
# it needs ("a|b" when either will do) and the runner that records its
# checks.  The runner's docstring is the command's help.
Family = namedtuple("Family", "command needs runner")

# In the order `all` runs them.
FAMILIES = (
    Family("hopf-check", (), _check_hopf),
    Family("partition-check", ("algebra", "partition"), _check_partition),
    Family("covering-check", ("covering",), _check_covering),
    Family("adapted-check", ("covering", "partition"), _check_adapted),
    Family("glue-derivations", ("covering", "partition", "actions"), _check_glue),
    Family("forms-check", ("action|actions",), _check_forms),
    Family("curvature", ("action", "connection"), _check_curvature),
)


def _missing(family, scn):
    """The first section the family needs that the scenario lacks, or None."""
    for need in family.needs:
        names = need.split("|")
        if all(getattr(scn, name) is None for name in names):
            return " or ".join(repr(name) for name in names)
    return None


def _records(families, scn, seed, strict):
    """Run the families on one scenario; their records, sorted by id.  A family
    whose sections are missing is skipped, or is a scenario error when `strict`."""
    rec = Recorder()
    for family in families:
        missing = _missing(family, scn)
        if missing is not None:
            if strict:
                raise ScenarioError(
                    "scenario lacks the %s section required by %s"
                    % (missing, family.command)
                )
            continue
        try:
            family.runner(scn, rec, seed)
        except AlgebraError as err:
            raise ScenarioError(
                "%s cannot run on this scenario: %s: %s"
                % (family.command, type(err).__name__, err)
            )
    return sorted(rec.records, key=lambda r: r["id"])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 with the usage error `verify` printed as a click group."""
        usage = "Usage: {0} [OPTIONS]\nTry '{0} --help' for help.\n\nError: {1}\n"
        self.exit(2, usage.format(self.prog, message))


def main(args=None, standalone_mode=True):
    """Exact verification of the deformed tangent-space machinery."""
    opts = PARSER.parse_args(args)
    try:
        scn = load_scenario(opts.scenario)
        if opts.max_degree is not None:
            scn.max_degree = _degree_bound(opts.max_degree, "--max-degree")
        records = _records(opts.families, scn, opts.seed, opts.strict)
    except ScenarioError as err:
        if not standalone_mode:
            raise
        opts.parser.error(str(err))
    report = {"version": REPORT_VERSION, "seed": opts.seed, "checks": records}
    text = json.dumps(report, indent=2)
    # print holds no reference to sys.stdout: a redirecting caller keeps no report alive
    print(text)
    if opts.out:
        with open(opts.out, "w") as handle:
            handle.write(text + "\n")
    if any(r["status"] != "pass" for r in records):
        raise SystemExit(1)


# shim for perfbench's `main.main(args, standalone_mode=False)` until ROADMAP item 6 drops it
main.main = main


def _build_parser():
    """`verify`: one command per family, its runner's docstring as its help, and `all`."""
    parser = _Parser(prog="verify", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    runs = [(family.command, (family,), True, family.runner.__doc__) for family in FAMILIES]
    runs.append(("all", FAMILIES, False, "Run every check family the scenario supports."))
    for name, families, strict, doc in runs:
        sub = commands.add_parser(
            name, help=doc.split("\n\n")[0], description=doc.replace("\n    ", "\n"),
            formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False,
        )
        sub.add_argument("--scenario", required=True, metavar="PATH",
                         help="Path to the scenario JSON file.")
        sub.add_argument("--seed", default=0, type=int, metavar="INTEGER", help="[default: 0]")
        sub.add_argument("--max-degree", type=int, metavar="INTEGER")
        sub.add_argument("--out", metavar="PATH", help="Also write the report here.")
        sub.set_defaults(families=families, strict=strict, parser=sub)
    return parser


PARSER = _build_parser()


if __name__ == "__main__":
    main()
