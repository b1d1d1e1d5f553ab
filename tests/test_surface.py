"""The public surface: `verify all` on the shipped scenarios enters every
name in `nctangent.__all__`, apart from a short allowlist of names kept
for a stated reason.  A name that no report, oracle or pending record
needs does not belong in the package."""

import contextlib
import inspect
import io
import sys
from pathlib import Path

import nctangent
from nctangent import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Public names that no shipped report enters, each with why it stays.
UNREACHED = {
    "PoincareGenerator": "pending record: the module law of the action (ROADMAP item 1)",
    "act_poincare": "pending record: the module law of the action (ROADMAP item 1)",
    "module_law_sides": "pending record: the module law of the action (ROADMAP item 1)",
    "integral_star_oracle": "pending record: star product against its oracle (ROADMAP item 1)",
    "derivations": "pending law (ROADMAP item 4); dense oracle of the derivation tests",
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
