"""The package surface: `verify all` on the shipped scenarios enters
every function, method, property and classmethod defined in
`src/nctangent/`, and every class there through any of its code.  Only
the names of `EXEMPT` are spared.  Every other name that no report
enters is on `UNREACHED` with the reason it stays, and every such
dunder, which Python calls implicitly, on `UNREACHED_DUNDERS`; neither
list names an entered or unknown name.  A name that no report, oracle
or pending record needs, and a dunder that no test needs either, does
not belong in the package.  Every entry point that the benchmark's
tracer wraps must exist, so that removing one breaks a test and not
only the traced benchmark run."""

import contextlib
import functools
import importlib
import importlib.util
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import nctangent
from nctangent import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# Code that runs at import or is made by `collections.namedtuple`, never
# by a report: the construction of the argparse parser and the
# namedtuple machinery of `cli.Family`.
EXEMPT = {
    "cli._build_parser",
    "cli.Family",
    "cli.Family._make",
    "cli.Family._replace",
    "cli.Family._asdict",
    "cli.Family.__new__",
    "cli.Family.__repr__",
    "cli.Family.__getnewargs__",
}

POINCARE = "pending record: the module law of the action (ROADMAP item 1(c))"
PARTITION_LAWS = "pending record: the partition-of-unity laws (ROADMAP item 3)"
SWEEP_KERNEL = "linear extension of the sweep's row kernel; a benchmark tracing probe"
COUNIT = "the counit as a linear map; the sweep reads the counit of a monomial from its key"

# Names that no shipped report enters, each with why it stays.
UNREACHED = {
    # pending records (ROADMAP items 1-3)
    "minkowski.PoincareGenerator": POINCARE,
    "minkowski.act_poincare": POINCARE,
    "minkowski._partial": POINCARE,
    "minkowski._mult": POINCARE,
    "minkowski._shift": POINCARE,
    "minkowski._require_d3": POINCARE,
    "minkowski.epsilon3": POINCARE,
    "minkowski.PBWElement.zero": POINCARE,
    "minkowski.pairing": POINCARE,
    "minkowski.module_law_sides": POINCARE,
    "minkowski.integral_star_oracle": (
        "pending record: the star product against its oracle (ROADMAP item 1(b))"
    ),
    "tangent.verify_action": (
        "pending record: the brackets of an action (ROADMAP item 1(a)), whose oracle it is"
    ),
    "scalars.Matrix.scale": "the bracket side of `verify_action` (ROADMAP item 1(a))",
    "scalars.Matrix.is_zero": (
        "the commuting brackets of `verify_action` (ROADMAP item 1(a)); `decompose` "
        "reads it only on a chart with a zero center, which no shipped scenario has"
    ),
    "tangent.restrict": "pending record: the section route of gluing (ROADMAP item 2(b))",
    "partition.product_partition": PARTITION_LAWS,
    "partition.verify_subordinate": PARTITION_LAWS,
    "partition.functional_module_check": PARTITION_LAWS,
    "partition.centrality_check": PARTITION_LAWS,
    "partition.overlap_covering": PARTITION_LAWS,
    "partition.functional_product_check": PARTITION_LAWS,
    "scalars.Subspace.sum": PARTITION_LAWS + ", through `overlap_covering`",
    # test oracles
    "connection.curvature_operator": (
        "test oracle of the component curvature; a benchmark tracing probe"
    ),
    "minkowski.TensorElement.multiply": (
        "test oracle of the coproduct's multiplicativity; a benchmark tracing probe"
    ),
    "minkowski.coproduct": SWEEP_KERNEL,
    "minkowski.antipode": SWEEP_KERNEL,
    "minkowski.counit": COUNIT,
    "minkowski.PBWElement.constant_term": COUNIT,
    # benchmark probe
    "algebras.StarAlgebra.table": "benchmark probe: perfbench's table density (ROADMAP item 6)",
    # scenario inputs that no shipped scenario uses
    "algebras.two_sided_ideal_closure": "scenario input: `generators` ideals",
    "cli._is_cube": "scenario input: connections given as a grid",
    "cli._connection_entry": "scenario input: connections given as a grid",
    "algebras.AlgebraError": (
        "scenario input: the library's error, raised only on input that exits 2"
    ),
    "cli._Parser": "bad input only: the parser of `verify`, entered only by its usage error",
    "cli._Parser.error": "bad input only: a usage error, which exits 2",
    # failure witnesses only
    "algebras.StarAlgebra.element_str": "failure witnesses only: a nonzero element as text",
    "scalars._imag_str": "failure witnesses only: an imaginary part as text",
    # test-facing
    "minkowski.TensorElement._key": (
        "a test-facing constructor: the key check of `TensorElement`; no report builds one"
    ),
    "minkowski.TensorElement": (
        "test oracle and test-facing constructor: no report builds a coproduct, and "
        "`coproduct` builds its values through the inherited `_fill`"
    ),
    # a guard that no report trips
    "scalars.Immutable": (
        "the base of the value classes; its one method makes assignment after "
        "construction raise, and no report assigns"
    ),
}

GUARD = "the assignment guard: no report assigns, and tests/test_scalars.py trips it"

# Dunders that no shipped report enters, each with the oracle, pending
# record or test that needs it.
UNREACHED_DUNDERS = {
    "algebras.AlgebraError.__init__": (
        "scenario input: the library's error with its witness, raised only on input that exits 2"
    ),
    "minkowski.PoincareGenerator.__init__": POINCARE,
    "minkowski.PoincareGenerator.__repr__": (
        POINCARE + ": the generator named in its error messages"
    ),
    "scalars.Immutable.__setattr__": GUARD,
    "scalars.Scalar.__setattr__": GUARD,
    "scalars.Scalar.__hash__": "tests: Scalars as set and dict keys, hashed like equal ints",
    "scalars.Scalar.__repr__": "tests: the text of tuples of Scalars and of failed assertions",
    "scalars.Scalar.__rsub__": "tests: an int or Fraction minus a Scalar",
    "scalars.Scalar.__rtruediv__": "tests: an int or Fraction over a Scalar",
    "scalars.Matrix.__hash__": "tests: the hash of a matrix agrees with its equality",
    "scalars.Matrix.__neg__": "tests: negation against the dense oracle's",
    "scalars.Matrix.__sub__": (
        "tests: commutators and differences of operators; `verify_action` (ROADMAP item 1(a))"
    ),
    "scalars.Subspace.__eq__": "tests: subspaces compared whole, as centers and intersections",
    "forms.FormN.__add__": "tests: a global form summed from the glued chart forms",
    "forms.FormN.__eq__": "tests: forms compared whole",
    "minkowski.PBWElement.__neg__": "tests: the antipode of a generator is its negative",
}


@functools.lru_cache(maxsize=None)
def _entered_code():
    """Ids of the code objects entered by `verify all` on every shipped
    scenario.  Code objects compare equal across modules when their name,
    first line and body agree, so they are told apart by identity."""
    entered = set()

    def profiler(frame, event, arg):
        if event == "call":
            entered.add(id(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        for path in sorted(SCENARIOS.glob("*.json")):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main(
                        ["all", "--scenario", str(path), "--seed", "0"],
                        standalone_mode=False,
                    )
                except SystemExit:
                    pass
    finally:
        sys.setprofile(previous)
    return entered


def _code_of(member):
    """Ids of the code objects of a function, static or class method or
    property; empty for anything else."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return {id(f.__code__) for f in (member.fget, member.fset, member.fdel) if f}
    if inspect.isfunction(member):
        return {id(member.__code__)}
    return set()


def _defined():
    """{qualified name: ids of its code objects} for every function,
    method, property and class defined in `src/nctangent/`.  A class has
    the code of all its members, and one without code is left out."""
    out = {}
    for info in pkgutil.iter_modules(nctangent.__path__):
        module = importlib.import_module("nctangent." + info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            qualified = "%s.%s" % (info.name, name)
            if inspect.isfunction(value):
                out[qualified] = _code_of(value)
            elif inspect.isclass(value):
                members = {}
                for attr, member in vars(value).items():
                    code = _code_of(member)
                    if code:
                        members["%s.%s" % (qualified, attr)] = code
                if members:
                    out.update(members)
                    out[qualified] = set().union(*members.values())
    return out


def _dunder(qualified):
    name = qualified.rsplit(".", 1)[1]
    return name.startswith("__") and name.endswith("__")


def _unreached(dunders):
    """The names that no report enters, apart from `EXEMPT`: the dunders,
    or every other name."""
    entered = _entered_code()
    defined = _defined()
    assert EXEMPT <= defined.keys()
    return {
        name
        for name, code in defined.items()
        if not code & entered and _dunder(name) == dunders and name not in EXEMPT
    }


def test_verify_reaches_the_public_surface():
    assert all(reason.strip() for reason in UNREACHED.values())
    unreached = _unreached(dunders=False)
    # both ways: an unentered name missing from UNREACHED, and a stale entry
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == []


def test_verify_reaches_every_dunder():
    assert all(reason.strip() for reason in UNREACHED_DUNDERS.values())
    unreached = _unreached(dunders=True)
    assert sorted(unreached - UNREACHED_DUNDERS.keys()) == []
    assert sorted(UNREACHED_DUNDERS.keys() - unreached) == []


def _tracing():
    """perfbench/tracing.py, loaded without writing a bytecode cache
    beside it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def _bindings():
    """Every name bound in a `nctangent` module namespace, and in the
    namespace of each class defined there, with its value."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "nctangent" and not name.startswith("nctangent."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_every_traced_entry_point_resolves_and_is_restored():
    tracing = _tracing()
    for span, module_name, dotted in tracing.ENTRY_POINTS:
        owner = importlib.import_module("nctangent." + module_name)
        for part in dotted.split("."):
            assert hasattr(owner, part), (span, module_name, dotted)
            owner = getattr(owner, part)
        assert callable(owner), (span, dotted)
    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        wrapped = _bindings()
        changed = {key for key, value in before.items() if wrapped[key] is not value}
        # each entry point is replaced where it is defined
        for _, module_name, dotted in tracing.ENTRY_POINTS:
            assert ("nctangent." + module_name,) + tuple(dotted.split(".")) in changed
    finally:
        tracer.close()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
