"""Span tracing and Scalar counting for the benchmark's traced run.

The program is not edited: `Tracer` replaces each layer's public entry
points in every `nctangent` module namespace that holds them (the `cli`
module, for one, binds `hopf_axiom_check` by name) and puts the
originals back when it is closed.  Every call records a span with its
name, start, end, parent span and report id.  Spans stay in memory, in
flat arrays, until the run ends.

A few entry points also record counts where the work happens (matrix
density, distinct inputs, which character path ran).  Those probes run
outside the span they describe and are themselves recorded as
`trace.probe` spans, so their cost is charged to no layer.

`ScalarCounter` is used in a separate pass: wrapping the `Scalar`
operators would distort every time, so the timed and traced passes run
without it.
"""

import functools
import gzip
import json
import random
import sys
import time
from array import array

LAYERS = (
    "scalars",
    "minkowski",
    "algebras",
    "covering",
    "partition",
    "tangent",
    "forms",
    "connection",
    "cli",
)

# (span name, module, attribute) of every wrapped entry point.  Two
# entry points may share a span name when one metric covers both.
ENTRY_POINTS = (
    ("scalars.rref", "scalars", "rref"),
    ("scalars.solve_linear", "scalars", "solve_linear"),
    ("scalars.nullspace", "scalars", "nullspace"),
    ("scalars.matmul", "scalars", "Matrix.__matmul__"),
    ("minkowski.hopf_axiom_check", "minkowski", "hopf_axiom_check"),
    ("minkowski.coproduct", "minkowski", "coproduct"),
    ("minkowski.star", "minkowski", "PBWElement.star"),
    ("minkowski.antipode", "minkowski", "antipode"),
    ("minkowski.tensor_multiply", "minkowski", "TensorElement.multiply"),
    ("algebras.multiply", "algebras", "StarAlgebra.multiply"),
    ("algebras.construct", "algebras", "StarAlgebra.__init__"),
    ("algebras.quotient_algebra", "algebras", "quotient_algebra"),
    ("algebras.center", "algebras", "center"),
    ("algebras.characters", "algebras", "characters"),
    ("covering.construct", "covering", "Covering.__init__"),
    ("covering.verify_covering", "covering", "verify_covering"),
    ("partition.construct", "partition", "Partition.from_zetas"),
    ("partition.verify_partition", "partition", "verify_partition"),
    ("partition.verify_adapted", "partition", "verify_adapted"),
    ("partition.reconstruction_check", "partition", "reconstruction_check"),
    ("tangent.canonical_inner_model", "tangent", "canonical_inner_model"),
    ("tangent.leibniz_failures", "tangent", "leibniz_failures"),
    ("tangent.glue", "tangent", "glue"),
    ("tangent.decompose", "tangent", "decompose"),
    ("forms.basis", "forms", "kappa_basis"),
    ("forms.basis", "forms", "glued_basis"),
    ("forms.koszul_d", "forms", "koszul_d"),
    ("forms.duality_rank", "forms", "duality_rank"),
    ("forms.locality_checks", "forms", "wedge_compat_check"),
    ("forms.locality_checks", "forms", "d_locality_check"),
    ("connection.random_connection", "connection", "random_connection"),
    ("connection.coefficient_failures", "connection", "coefficient_failures"),
    ("connection.axioms", "connection", "verify_connection_axioms"),
    ("connection.curvature_operator", "connection", "curvature_operator"),
    ("connection.curvature_components", "connection", "curvature_components"),
    ("connection.curvature_cross_check", "connection", "curvature_cross_check"),
    ("cli.load_scenario", "cli", "load_scenario"),
)

ROOT_SPAN = "cli.report"  # one whole `verify all` call; its self time is cli.other
PROBE_SPAN = "trace.probe"

# Character enumeration has a closed form for these model tags; any
# other algebra (quotients, in practice) takes the generic path.
MODEL_AWARE = ("matrix", "moyal", "function", "sum")

# Operand pairs sampled per Scalar operator, and the operand replay: the
# median of REPLAY_REPEATS timed repeats, all operators together taking
# at least REPLAY_NS.
SAMPLE_SIZE = 2000
REPLAY_REPEATS = 5
REPLAY_NS = 200_000_000


def _lookup(owner, dotted):
    """(object holding the last attribute, attribute name, raw value)."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


def _nonzero_share(rows):
    total = nonzero = 0
    for row in rows:
        total += len(row)
        nonzero += sum(1 for a in row if a)
    return nonzero, total


class Tracer:
    """Records spans around the entry points of every layer."""

    def __init__(self):
        self.names = [ROOT_SPAN, PROBE_SPAN]
        self._index = {name: k for k, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.report = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors = dict.fromkeys(LAYERS, 0)
        self.report_names = []
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original value)
        # probe counts, over all traced reports
        self.rref_nonzero = 0
        self.rref_entries = 0
        self.table_density_sum = 0.0
        self.coproduct_distinct = 0
        self.center_distinct = 0
        self.characters_generic = 0
        # per report; holding the algebras keeps their ids unique
        self._densities = {}  # id(algebra) -> (algebra, table density)
        self._seen_centers = {}  # id(algebra) -> algebra
        self._seen_monomials = set()

    # -- spans ------------------------------------------------------------

    def _open(self, name_id):
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.report.append(len(self.report_names) - 1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter_ns()
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def begin_report(self, label):
        self.report_names.append(label)
        self._densities.clear()
        self._seen_centers.clear()
        self._seen_monomials.clear()
        return self._open(0)

    def end_report(self, sid, failed):
        self._close(sid)
        if failed:
            self.errors["cli"] += 1

    def _probe(self, func, args):
        sid = self._open(1)
        try:
            func(*args)
        finally:
            self._close(sid)

    def _wrap(self, name, func, probe):
        tracer = self
        name_id = self._index.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if probe is not None:
                tracer._probe(probe, args)
            sid = tracer._open(name_id)
            try:
                return func(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(sid)

        return wrapper

    # -- probes -----------------------------------------------------------

    def _probe_rref(self, rows):
        nonzero, total = _nonzero_share(rows)
        self.rref_nonzero += nonzero
        self.rref_entries += total

    def _probe_multiply(self, algebra, *_):
        key = id(algebra)
        if key not in self._densities:
            nonzero = sum(1 for row in algebra.table for cell in row for c in cell if c)
            self._densities[key] = (algebra, nonzero / max(algebra.dim, 1) ** 3)
        self.table_density_sum += self._densities[key][1]

    def _probe_coproduct(self, f):
        key = (f.d, f.kappa, tuple(sorted(f.terms.items(), key=lambda kv: kv[0])))
        if key not in self._seen_monomials:
            self._seen_monomials.add(key)
            self.coproduct_distinct += 1

    def _probe_center(self, algebra):
        if id(algebra) not in self._seen_centers:
            self._seen_centers[id(algebra)] = algebra
            self.center_distinct += 1

    def _probe_characters(self, algebra, *_):
        if not (algebra.model and algebra.model[0] in MODEL_AWARE):
            self.characters_generic += 1

    # -- installing -------------------------------------------------------

    def install(self):
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "nctangent" or name.startswith("nctangent.")
        }
        probes = {
            "scalars.rref": self._probe_rref,
            "algebras.multiply": self._probe_multiply,
            "minkowski.coproduct": self._probe_coproduct,
            "algebras.center": self._probe_center,
            "algebras.characters": self._probe_characters,
        }
        for name, module_name, dotted in ENTRY_POINTS:
            owner, attr, raw = _lookup(modules["nctangent." + module_name], dotted)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, None))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw, probes.get(name))
            if owner.__class__ is type:
                self._patch(owner, attr, raw, wrapped)
                continue
            # a module-level function: rebind it wherever it was imported
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, raw, wrapped)
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def close(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._densities.clear()
        self._seen_centers.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self):
        """Self time and calls per span name, from the span tree."""
        count = len(self.start)
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0] * count
        for sid in range(count):
            parent = self.parent[sid]
            if parent >= 0:
                children[parent] += duration[sid]
        self_ns = dict.fromkeys(self.names, 0)
        calls = dict.fromkeys(self.names, 0)
        report_ns = 0
        for sid in range(count):
            name = self.names[self.name[sid]]
            self_ns[name] += duration[sid] - children[sid]
            calls[name] += 1
            if self.parent[sid] < 0:
                report_ns += duration[sid]
        return self_ns, calls, report_ns

    def write(self, path):
        """Every span, columnar, gzip-compressed JSON."""
        data = {
            "names": self.names,
            "reports": self.report_names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "report": self.report.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(data, handle, separators=(",", ":"))


class ScalarCounter:
    """Counts Scalar add, sub and mul and keeps a uniform sample of the
    operand pairs of each (reservoir sampling, Algorithm R)."""

    OPERATORS = {"add": ("__add__", "__radd__"), "sub": ("__sub__",), "mul": ("__mul__", "__rmul__")}

    def __init__(self, scalar_class, seed):
        self.cls = scalar_class
        self.rng = random.Random(seed)
        self.counts = dict.fromkeys(self.OPERATORS, 0)
        self.samples = {kind: [] for kind in self.OPERATORS}
        self.originals = {}

    def install(self):
        for kind, names in self.OPERATORS.items():
            func = self.cls.__dict__[names[0]]
            self.originals[kind] = func
            wrapped = self._wrap(kind, func)
            for name in names:
                setattr(self.cls, name, wrapped)
        return self

    def _wrap(self, kind, func):
        counts, sample, rng = self.counts, self.samples[kind], self.rng

        def counted(a, b):
            counts[kind] += 1
            if len(sample) < SAMPLE_SIZE:
                sample.append((a, b))
            else:
                slot = rng.randrange(counts[kind])
                if slot < SAMPLE_SIZE:
                    sample[slot] = (a, b)
            return func(a, b)

        return counted

    def close(self):
        for kind, names in self.OPERATORS.items():
            for name in names:
                setattr(self.cls, name, self.originals[kind])

    def total(self):
        return sum(self.counts.values())

    def replay_ns(self):
        """Mean nanoseconds per operation, replaying the sampled operands
        through the original operators and weighting each operator by
        its share of the counted calls."""
        weighted = 0.0
        target_ns = REPLAY_NS // (REPLAY_REPEATS * len(self.samples))
        for kind, pairs in self.samples.items():
            if not pairs:
                continue
            op = self.originals[kind]
            loops = 1
            while True:  # enough loops that one repeat takes target_ns
                t0 = time.perf_counter_ns()
                for _ in range(loops):
                    for a, b in pairs:
                        op(a, b)
                if time.perf_counter_ns() - t0 >= target_ns:
                    break
                loops *= 2
            times = []
            for _ in range(REPLAY_REPEATS):
                t0 = time.perf_counter_ns()
                for _ in range(loops):
                    for a, b in pairs:
                        op(a, b)
                times.append((time.perf_counter_ns() - t0) / (loops * len(pairs)))
            times.sort()
            weighted += times[len(times) // 2] * self.counts[kind]
        return weighted / max(self.total(), 1)
