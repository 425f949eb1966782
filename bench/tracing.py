"""Spans around the calls into each module of the package.

A span is ``[name, start, end, parent, tag]``: ``parent`` is the index of the
enclosing span or -1, ``tag`` an optional label (the argv of a CLI command).
``Tracer.install`` rebinds every module-level reference to the functions in
``LAYERS`` to a wrapper that records one span per call, so calls made by the
CLI and by one module into another are both seen; ``restore`` undoes it.
Spans stay in memory; when the run ends they are reduced to metrics and
written out summarised per name and parent.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time

# The public calls recorded as spans, by layer (the module that defines them).
LAYERS = {
    "search": ("enumerate_loops", "classify_up_to_iso", "propagate"),
    "tables": ("build_magma", "parse_tables", "serialize_table", "find_counterexample",
               "find_isomorphism"),
    "constructions": ("construct", "jordan_tower"),
    "structure": ("normal_closure",),
    "powers": ("power_profile", "element_order", "is_power_associative", "powers_gap_loop"),
}
PACKAGE = "jordanloops"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a traced no-op call minus a plain one."""
    def noop():
        return None

    elapsed = []
    for fn in (noop, Tracer().wrap("noop", noop)):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(0.0, (elapsed[1] - elapsed[0]) / calls)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Unit of each per-layer metric, in the order they are reported.
UNITS = {
    "search.enumerate_s": "s",
    "search.nodes_per_s": "1/s",
    "search.nodes": "count",
    "search.failures": "count",
    "search.useful_ratio": "ratio",
    "search.propagate_us": "us",
    "search.propagate_fill_ratio": "ratio",
    "search.classify_s": "s",
    "search.classify_ms_per_model": "ms",
    "search.classes": "count",
    "tables.materialise_s": "s",
    "tables.serialize_s": "s",
    "tables.parse_s": "s",
    "tables.verify_s": "s",
    "tables.iso_ms": "ms",
    "tables.iso_ms_p90": "ms",
    "constructions.construct_s": "s",
    "structure.simple_s": "s",
    "structure.closure_ms": "ms",
    "structure.closure_ms_p90": "ms",
    "structure.closures": "count",
    "powers.powers_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _durations(spans):
    """Each span's duration and the part of it that its children cover."""
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    return dur, covered


def summarise(spans) -> list:
    """Calls, total and self seconds per span name and parent name, the form
    in which a run writes its spans out."""
    dur, covered = _durations(spans)
    table: dict = {}
    for i, s in enumerate(spans):
        row = table.setdefault((s[0], spans[s[3]][0] if s[3] >= 0 else None), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - covered[i]
    return [{"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": st}
            for (name, parent), (c, t, st) in sorted(table.items(), key=lambda kv: -kv[1][1])]


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures of one pass over a workload, from its spans and
    from ``counts`` (nodes, failures, models, classes) read off the search
    output.

    ``_s`` values sum span durations; ``search.enumerate_s`` and
    ``cli.self_s`` are self times (duration minus what child spans cover).
    Per-call figures are taken only where the CLI makes the call directly,
    so calls nested inside another layer's work are not mixed in.
    The two propagation figures come from separate probes and are filled in
    by the caller.
    """
    dur, covered = _durations(spans)

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    def durations(name, parent=None):
        return [dur[i] for i, s in enumerate(spans)
                if s[0] == name and (parent is None or parent_name(i) == parent)]

    def self_time(pred):
        return sum(dur[i] - covered[i] for i, s in enumerate(spans) if pred(s[0]))

    enumerate_s = self_time(lambda n: n == "search.enumerate_loops")
    classify_s = sum(durations("search.classify_up_to_iso"))
    nodes, failures = counts["nodes"], counts["failures"]
    iso = durations("tables.find_isomorphism", "cli.iso")
    closures = durations("structure.normal_closure", "cli.simple")
    powers = [dur[i] for i, s in enumerate(spans)
              if s[0].startswith("powers.") and not parent_name(i).startswith("powers.")]
    return {
        "search.enumerate_s": enumerate_s,
        "search.nodes_per_s": nodes / enumerate_s if enumerate_s else 0.0,
        "search.nodes": nodes,
        "search.failures": failures,
        "search.useful_ratio": (nodes - 1) / (nodes - 1 + failures) if nodes > 1 else 0.0,
        "search.classify_s": classify_s,
        "search.classify_ms_per_model": classify_s * 1e3 / counts["models"] if classify_s else 0.0,
        "search.classes": counts["classes"],
        "tables.materialise_s": sum(durations("tables.build_magma", "search.enumerate_loops")),
        "tables.serialize_s": sum(durations("tables.serialize_table")),
        "tables.parse_s": sum(durations("tables.parse_tables")),
        "tables.verify_s": sum(durations("tables.find_counterexample", "cli.verify")),
        "tables.iso_ms": _quantile(iso, 50) * 1e3,
        "tables.iso_ms_p90": _quantile(iso, 90) * 1e3,
        "constructions.construct_s": sum(durations("constructions.construct")),
        "structure.simple_s": sum(closures),
        "structure.closure_ms": _quantile(closures, 50) * 1e3,
        "structure.closure_ms_p90": _quantile(closures, 90) * 1e3,
        "structure.closures": len(closures),
        "powers.powers_s": sum(powers),
        "cli.self_s": self_time(lambda n: n.startswith("cli.")),
    }


def propagate_us(spans) -> float:
    """Median duration of the probe calls to ``propagate``, in microseconds."""
    calls = [s[2] - s[1] for s in spans if s[0] == "search.propagate"]
    return statistics.median(calls) * 1e6 if calls else 0.0
