"""Span tracing of ctxprob layers from outside the package.

The package is never edited.  :class:`Tracer` wraps the public functions of
each module by rebinding the names in every ``ctxprob`` module that holds
them (for example ``ctxprob.sampling.substream`` and
``ctxprob.report.estimate_lambda``), so calls between modules go through the
wrapper.  Each call records one span (name, start, end, parent, op id) in
flat in-memory arrays; spans are written out only when the run ends.

When an op ends, its spans are folded into per-layer totals (calls, busy and
self time).  The spans themselves are kept for the first ops only, up to
``SPAN_KEEP`` spans, which bounds memory and the size of the span file while
the totals still cover every op.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, attribute, layer name).  ``check_row_stochastic`` and
# ``check_double_stochastic`` share one layer name because they share one body
# and are due to be merged; a stable name keeps traces comparable across that.
FUNCTION_LAYERS = (
    ("_rng", "substream", "rng.substream"),
    ("sampling", "simulate_counts", "sampling.simulate_counts"),
    ("sampling", "estimate_statistics", "sampling.estimate_statistics"),
    ("sampling", "estimate_lambda", "sampling.estimate_lambda"),
    ("calculus", "lambda_from_statistics", "calculus.lambda_from_statistics"),
    ("calculus", "classify_theory", "calculus.classify_theory"),
    ("calculus", "check_row_stochastic", "calculus.check_balance"),
    ("calculus", "check_double_stochastic", "calculus.check_balance"),
    ("calculus", "phase_parametrization", "calculus.phase_parametrization"),
    ("models", "exact_statistics", "models.exact_statistics"),
    ("models", "random_model", "models.random_model"),
    ("amplitudes", "lift_to_amplitudes", "amplitudes.lift_to_amplitudes"),
    ("report", "analyze_exact", "report.analyze_exact"),
    ("report", "analyze_estimated", "report.analyze_estimated"),
    ("report", "report_to_dict", "report.report_to_dict"),
    ("io", "canonical_dumps", "io.canonical_dumps"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
)

# The ``require_*`` helpers count as one layer, seen only from these modules;
# calls among the helpers themselves stay inside that layer's spans.
VALIDATION_LAYER = "validation"
VALIDATION_CALLERS = ("calculus", "models", "sampling", "io")

LOADS_LAYER = "io.ExperimentFile.loads"

SPAN_KEEP = 200_000


class Tracer:
    """Records spans in flat arrays; ``install`` / ``uninstall`` toggle it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.bytes_read = 0
        # Per layer name: [calls, busy seconds, self seconds], over every op.
        self.totals: dict[str, list] = {}
        # Spans whose self time exceeds their parent's duration; must stay 0.
        self.violations = 0
        self._op_first = 0
        self._stack: list[int] = []
        self._bindings: list[tuple[dict, str, object, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def prepare(self) -> None:
        """Build the rebinding table from the imported ctxprob modules."""
        modules = {
            name.split(".", 1)[1] if "." in name else "": module
            for name, module in sys.modules.items()
            if name == "ctxprob" or name.startswith("ctxprob.")
        }
        for module_name, attr, layer in FUNCTION_LAYERS:
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(layer, original)
            for module in modules.values():
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._bindings.append((namespace, key, original, wrapper))
        validation = modules["_validation"]
        helpers = {
            value: self.wrap(VALIDATION_LAYER, value)
            for key, value in vars(validation).items()
            if key.startswith("require_") and callable(value)
        }
        for caller in VALIDATION_CALLERS:
            namespace = vars(modules[caller])
            for key, value in list(namespace.items()):
                if callable(value) and value in helpers:
                    self._bindings.append((namespace, key, value, helpers[value]))
        self._bind_loads(modules["io"].ExperimentFile)

    def _bind_loads(self, cls) -> None:
        original = cls.__dict__["loads"]
        func = original.__func__
        tracer = self

        def counted(klass, text):
            tracer.bytes_read += len(text.encode("utf-8"))
            return func(klass, text)

        wrapper = classmethod(self.wrap(LOADS_LAYER, counted))
        self._bindings.append((_ClassDict(cls), "loads", original, wrapper))

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_first = len(self.start)
        for namespace, key, _, wrapper in self._bindings:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        """Restore the original bindings and fold the op's spans into the totals."""
        for namespace, key, original, _ in self._bindings:
            namespace[key] = original
        self.op_id = -1
        first = self._op_first
        start, end = self.start[first:], self.end[first:]
        parent = [p - first if p >= first else -1 for p in self.parent[first:]]
        own = self_times(start, end, parent)
        self.violations += self_time_violations(start, end, parent, own)
        for i, nid in enumerate(self.name[first:]):
            entry = self.totals.setdefault(self.names[nid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end[i] - start[i]
            entry[2] += own[i]
        if len(self.start) > SPAN_KEEP:
            for column in (self.name, self.start, self.end, self.parent, self.op):
                del column[first:]

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n"
                )


class _ClassDict:
    """Item assignment onto a class, so classes rebind like module dicts."""

    def __init__(self, cls) -> None:
        self._cls = cls

    def __setitem__(self, key, value) -> None:
        setattr(self._cls, key, value)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping or escaping children never count twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    result = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        result.append((hi - lo) - covered)
    return result


def self_time_violations(start, end, parent, own: list[float]) -> int:
    """Spans whose self time (``own``) exceeds their parent's duration; must be 0."""
    return sum(
        1 for i, p in enumerate(parent) if p >= 0 and own[i] > end[p] - start[p]
    )
