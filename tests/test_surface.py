"""The public surface: `verify all` on the shipped scenarios enters every
name in `nctangent.__all__`, apart from a short allowlist of names kept
for a stated reason.  A name that no report, oracle or pending record
needs does not belong in the package.  Every entry point that the
benchmark's tracer wraps must exist, so that removing one breaks a test
and not only the traced benchmark run."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import nctangent
from nctangent import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# Public names that no shipped report enters, each with why it stays.
UNREACHED = {
    "PoincareGenerator": "pending record: the module law of the action (ROADMAP item 1)",
    "act_poincare": "pending record: the module law of the action (ROADMAP item 1)",
    "module_law_sides": "pending record: the module law of the action (ROADMAP item 1)",
    "integral_star_oracle": "pending record: star product against its oracle (ROADMAP item 1)",
    "derivations": "pending law (ROADMAP item 4); checked against the dense oracle in tests",
    "product_partition": "pending law: products of partitions (ROADMAP item 4)",
    "curvature_operator": "oracle of the component curvature; a benchmark tracing probe",
}


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
                    cli.main.main(
                        ["all", "--scenario", str(path), "--seed", "0"],
                        standalone_mode=False,
                    )
                except SystemExit:
                    pass
    finally:
        sys.setprofile(previous)
    return entered


def _code_of(obj):
    """Ids of the code objects of a function, or of every method of a
    class."""
    if not inspect.isclass(obj):
        return {id(obj.__code__)}
    out = set()
    for member in vars(obj).values():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if isinstance(member, property):
            out.update(id(f.__code__) for f in (member.fget, member.fset) if f)
        elif inspect.isfunction(member):
            out.add(id(member.__code__))
    return out


def test_verify_reaches_the_public_surface():
    entered = _entered_code()
    unreached = {
        name
        for name in nctangent.__all__
        if not _code_of(getattr(nctangent, name)) & entered
    }
    assert unreached == set(UNREACHED)


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
