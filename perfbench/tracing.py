"""Per-layer tracing of padyn from outside the package.

`Tracer.install` wraps the public functions of each padyn module and
rebinds every name that refers to them, in every loaded padyn module:
`from padyn.residues import class_of` in `sl2` and `star as borel_star`
in `acceptance` are separate bindings, and each must point at the
wrapper or its calls go unseen.  Methods are patched on their class.

Spans are aggregated in memory per (parent, name) — the hot inner
functions run hundreds of thousands of times — and read out once at the
end.  A span's self time is its duration minus the time of the spans it
encloses.  `lru_cache` hit ratios come from the original cache objects.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix, padyn module, attribute ("Class.method" for methods).
# Metric names must start with a letter, so `_graph` reports as `graph`.
TARGETS = (
    ("padic.int_valuation", "padic", "int_valuation"),
    ("padic.fraction_valuation", "padic", "fraction_valuation"),
    ("padic.unit_residue", "padic", "unit_residue"),
    ("padic.matmul", "padic", "PadicMatrix2.__matmul__"),
    ("padic.inverse", "padic", "PadicMatrix2.inverse"),
    ("residues.class_of", "residues", "class_of"),
    ("residues.is_nth_power", "residues", "is_nth_power"),
    ("residues.build_group", "residues", "build_group"),
    ("types1.realize", "types1", "realize"),
    ("types1.classify", "types1", "classify"),
    ("borel.star", "borel", "star"),
    ("borel.mul", "borel", "BorelElem.mul"),
    ("borel.witness", "borel", "witness"),
    ("borel.build_flow_group", "borel", "build_flow_group"),
    ("sl2.act", "sl2", "act"),
    ("sl2.iwasawa", "sl2", "iwasawa"),
    ("sl2.lift", "sl2", "KLevelElem.lift"),
    ("sl2.reduce", "sl2", "KLevelElem.reduce"),
    ("sl2.borel_past_integral", "sl2", "borel_past_integral"),
    ("sl2.star", "sl2", "star"),
    ("sl2.k_level_group", "sl2", "k_level_group"),
    ("sl2.ellis_group", "sl2", "ellis_group"),
    ("proj.act_proj", "proj", "act_proj"),
    ("proj.snap_type", "proj", "snap_type"),
    ("proj.classify_value", "proj", "classify_value"),
    ("proj.fiber_star", "proj", "fiber_star"),
    ("proj.triangular_star", "proj", "triangular_star"),
    ("proj.collapse_check", "proj", "collapse_check"),
    ("flows.minimal_subflows", "flows", "minimal_subflows"),
    ("flows.act_add", "flows", "act_add"),
    ("flows.act_mul", "flows", "act_mul"),
    ("graph.scc", "_graph", "strongly_connected_components"),
    ("graph.terminal", "_graph", "terminal_components"),
)

# The checks some workload runs; each gets an `acceptance.<check>.s` span.
ACCEPTANCE_CHECKS = (
    "residue-oracle",
    "type-roundtrip",
    "affine-flows",
    "borel-flow-group",
    "iwasawa-rewrite",
    "main-flow",
    "ellis-tower",
    "projective-collapse",
    "projective-minimality",
)

# Per-layer metric -> (unit, better, the end-to-end metrics on the
# workloads it should move).  Written down before any optimisation.
_PADIC = "wall_s on proj-flow and battery"
_RESIDUES = "wall_s on proj-flow and battery, and setup_s"
_TYPES1 = "wall_s on borel-check and battery"
_BOREL = "wall_s on borel-check"
_SL2 = "wall_s and peak_rss_mb on sl2-flow"
_PROJ = "wall_s on proj-flow"
_FLOWS = "wall_s on battery"
_GRAPH = "wall_s on sl2-flow"
_CHECK = "wall_s on the workload running the check"


def _calls_self(prefix: str, moves: str) -> list[tuple]:
    return [
        (f"{prefix}.calls", "count", "lower", moves),
        (f"{prefix}.self_s", "s", "lower", moves),
    ]


LAYER_METRICS = (
    *_calls_self("padic.int_valuation", _PADIC),
    ("padic.int_valuation.max_bits", "bit", "lower", _PADIC),
    ("padic.fraction_valuation.calls", "count", "lower", _PADIC),
    *_calls_self("padic.unit_residue", _PADIC),
    *_calls_self("padic.matmul", _PADIC),
    ("padic.inverse.calls", "count", "lower", _PADIC),
    *_calls_self("residues.class_of", _RESIDUES),
    *_calls_self("residues.is_nth_power", _RESIDUES),
    ("residues.build_group.self_s", "s", "lower", _RESIDUES),
    ("residues.build_group.hit_ratio", "ratio", "higher", _RESIDUES),
    *_calls_self("types1.realize", _TYPES1),
    ("types1.realize.max_bits", "bit", "lower", _TYPES1),
    *_calls_self("types1.classify", _TYPES1),
    *_calls_self("borel.star", _BOREL),
    *_calls_self("borel.mul", _BOREL),
    ("borel.witness.calls", "count", "lower", _BOREL),
    ("borel.build_flow_group.self_s", "s", "lower", _BOREL),
    ("borel.build_flow_group.hit_ratio", "ratio", "higher", _BOREL),
    *_calls_self("sl2.act", _SL2),
    *_calls_self("sl2.iwasawa", _SL2),
    *_calls_self("sl2.lift", _SL2),
    *_calls_self("sl2.reduce", _SL2),
    *_calls_self("sl2.borel_past_integral", _SL2),
    *_calls_self("sl2.star", _SL2),
    ("sl2.k_level_group.self_s", "s", "lower", _SL2),
    ("sl2.ellis_group.self_s", "s", "lower", _SL2),
    *_calls_self("proj.act_proj", _PROJ),
    *_calls_self("proj.snap_type", _PROJ),
    *_calls_self("proj.classify_value", _PROJ),
    *_calls_self("proj.fiber_star", _PROJ),
    ("proj.triangular_star.calls", "count", "lower", _PROJ),
    ("proj.collapse_check.self_s", "s", "lower", _PROJ),
    *_calls_self("flows.minimal_subflows", _FLOWS),
    ("flows.act_add.calls", "count", "lower", _FLOWS),
    ("flows.act_mul.calls", "count", "lower", _FLOWS),
    ("graph.scc.self_s", "s", "lower", _GRAPH),
    ("graph.terminal.self_s", "s", "lower", _GRAPH),
    ("graph.nodes", "count", "lower", _GRAPH),
    ("graph.edges", "count", "lower", _GRAPH),
    *((f"acceptance.{check}.s", "s", "lower", _CHECK) for check in ACCEPTANCE_CHECKS),
    ("trace.overhead_s", "s", "lower", "nothing: the cost of tracing itself"),
)


def _int_bits(args, result) -> int:
    return abs(args[0]).bit_length()


def _fraction_bits(args, result) -> int:
    return max(result.numerator.bit_length(), result.denominator.bit_length())


_MAX_BITS = {"padic.int_valuation": _int_bits, "types1.realize": _fraction_bits}


class Tracer:
    def __init__(self) -> None:
        self._stack = [["", 0.0]]  # [name, time spent in child spans]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.max_bits = dict.fromkeys(_MAX_BITS, 0)
        self.nodes = 0
        self.edges = 0
        self.missing: list[str] = []
        self._caches: dict[str, tuple] = {}

    def _record(self, name: str, fn, observe=None):
        stack, spans, max_bits, clock = self._stack, self.spans, self.max_bits, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                row = spans.get((parent[0], name))
                if row is None:
                    row = spans[(parent[0], name)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if observe is not None:
                bits = observe(args, result)
                if bits > max_bits[name]:
                    max_bits[name] = bits
            return result

        return functools.update_wrapper(traced, fn)

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside a span of the given name."""
        return self._record(name, fn)(*args)

    def _count_graph(self, fn):
        """Count the nodes and edges handed to an SCC call."""

        def counted(nodes, successors, *args, **kwargs):
            nodes = list(nodes)
            self.nodes += len(nodes)
            seen = set()

            def successors_counted(node):
                out = list(successors(node))
                if node not in seen:
                    seen.add(node)
                    self.edges += len(out)
                return out

            return fn(nodes, successors_counted, *args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def install(self) -> None:
        """Wrap every target and rebind each reference to it in padyn."""
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "padyn"]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(f"padyn.{module_name}")
            class_name, _, key = attr.rpartition(".")
            owner = getattr(module, class_name, None) if class_name else module
            raw = vars(owner).get(key) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            if hasattr(original, "cache_info"):
                self._caches[name] = (original, original.cache_info())
            target = self._count_graph(original) if name == "graph.scc" else original
            traced = self._record(name, target, _MAX_BITS.get(name))
            if class_name:
                setattr(owner, key, classmethod(traced) if is_classmethod else traced)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, from the spans."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        for (_, name), (count, span_total, span_self) in self.spans.items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + span_self
            total[name] = total.get(name, 0.0) + span_total
        out: dict[str, float] = {}
        for metric, _, _, _ in LAYER_METRICS:
            prefix, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(prefix, 0)
            elif field == "self_s":
                out[metric] = self_s.get(prefix, 0.0)
            elif field == "max_bits":
                out[metric] = self.max_bits[prefix]
            elif field == "hit_ratio":
                original, before = self._caches.get(prefix, (None, None))
                if original is None:
                    out[metric] = 0.0
                    continue
                after = original.cache_info()
                hits, misses = after.hits - before.hits, after.misses - before.misses
                out[metric] = hits / (hits + misses) if hits + misses else 0.0
            elif metric == "graph.nodes":
                out[metric] = self.nodes
            elif metric == "graph.edges":
                out[metric] = self.edges
            elif prefix.startswith("acceptance."):
                out[metric] = total.get(prefix, 0.0)
        return out

    def span_rows(self) -> list[list]:
        """The aggregated spans: [parent, name, calls, total_s, self_s]."""
        return [[parent, name, *row] for (parent, name), row in sorted(self.spans.items())]
