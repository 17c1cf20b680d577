"""In-memory spans around photon_gate's layer entry points.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces
module attributes with timing wrappers, at the names each caller
resolves at call time (``cli`` imported ``ingest_arrays`` by name, so
``photon_gate.cli.ingest_arrays`` is wrapped, while ``simulate`` reaches
the kernels through ``photon_gate._kernels``).  ``uninstall`` puts the
originals back, so traced and untraced rounds can alternate in one
process.  Wrap points whose module or attribute no longer exists are
skipped, which keeps the benchmark running while the package shrinks.

A span is ``(name, start_ns, end_ns, parent, op, thread)``; parent is the
index of the enclosing span on the same thread, or -1.  Traced ops run
on one thread.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the span name's first part is the layer
WRAP_POINTS = [
    ("photon_gate.cli", "main", "cli.main"),
    ("photon_gate.cli", "simulate_pulses", "simulate.simulate_pulses"),
    ("photon_gate.simulate", "_block_clicks", "simulate.block"),
    ("photon_gate._kernels", "fixed_clicks", "kernels.fixed_clicks"),
    ("photon_gate._kernels", "poisson_clicks", "kernels.poisson_clicks"),
    ("photon_gate.cli", "read_sim_config", "timetags.read_sim_config"),
    ("photon_gate.cli", "write_counts_block", "timetags.write_counts_block"),
    ("photon_gate.cli", "is_counts_block", "timetags.is_counts_block"),
    ("photon_gate.cli", "read_counts_block", "timetags.read_counts_block"),
    ("photon_gate.cli", "read_timetags_csv", "timetags.read_timetags_csv"),
    ("photon_gate.cli", "read_timetags_binary", "timetags.read_timetags_binary"),
    ("photon_gate.cli", "ingest_arrays", "timetags.ingest_arrays"),
    ("photon_gate.cli", "classify", "criterion.classify"),
    ("photon_gate.cli", "classify_counts", "criterion.classify_counts"),
    ("photon_gate.cli", "corrected_critical_values", "criterion.corrected_critical_values"),
    ("photon_gate.criterion", "classify", "criterion.classify"),
    ("photon_gate.criterion", "classify_counts", "criterion.classify_counts"),
    ("photon_gate.criterion", "corrected_critical_values", "criterion.corrected_critical_values"),
    ("photon_gate.criterion", "sbr_threshold", "criterion.sbr_threshold"),
    ("photon_gate.criterion", "sbr_from_stats", "analytic.sbr_from_stats"),
    ("photon_gate.criterion", "stats_from_counts", "model.stats_from_counts"),
    ("photon_gate.cli", "stats_from_counts", "model.stats_from_counts"),
    ("photon_gate.cli", "g2_zero_estimate", "analytic.g2_zero_estimate"),
    ("photon_gate.cli", "deviation_report", "deviations.deviation_report"),
]

GATES = ("no-clicks", "mean-above-1", "sbr-not-applicable", "setup-sbr-below-threshold", "decided")


def gate_of(mean_n: float, verdict) -> str:
    """Which gate of the criterion settled a verdict, read from numbers
    rather than from the reason text."""
    if mean_n <= 0.0:
        return "no-clicks"
    if mean_n > 1.0:
        return "mean-above-1"
    if verdict.measured_sbr is None:
        return "sbr-not-applicable"
    if verdict.setup_sbr < verdict.sbr0:
        return "setup-sbr-below-threshold"
    return "decided"


def _tags_in(args, kwargs, result):
    return {"tags": int(len(result[0]))}


def _binary_read(args, kwargs, result):
    return {"tags": int(len(result[0])), "bytes": os.path.getsize(args[0])}


def _fold(args, kwargs, result):
    kept = result.n_10 + result.n_01 + 2 * result.n_11
    return {"tags": int(len(args[0])), "kept": int(kept)}


def _gate(args, kwargs, result):
    return {"gate": gate_of(args[0].mean_n, result)}


# extra facts recorded with a span, computed from its call and result
_ATTRS = {
    "timetags.read_timetags_csv": _tags_in,
    "timetags.read_timetags_binary": _binary_read,
    "timetags.ingest_arrays": _fold,
    "criterion.classify": _gate,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.op = -1
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, attrs, local, attr_fn = self.spans, self.attrs, self._local, _ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, threading.get_ident())
            if attr_fn is not None:
                attrs[index] = attr_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, op, tid) in enumerate(self.spans):
                row = {"i": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op, "thread": tid}
                row.update(self.attrs.get(i, {}))
                fh.write(json.dumps(row) + "\n")


class SpanSummary:
    """Per-name totals over the spans of a chosen set of ops."""

    def __init__(self, tracer: Tracer, ops: set[int]) -> None:
        spans = tracer.spans
        child_ns = defaultdict(int)
        for name, start, end, parent, op, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)
        self.attr_sums = defaultdict(lambda: defaultdict(int))
        self.gates = defaultdict(int)
        for i, (name, start, end, parent, op, _) in enumerate(spans):
            if op not in ops:
                continue
            own = end - start - child_ns[i]
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            self.layer_self_ns[name.split(".", 1)[0]] += own
            for key, value in tracer.attrs.get(i, {}).items():
                if key == "gate":
                    self.gates[value] += 1
                else:
                    self.attr_sums[name][key] += value

    def mean_us(self, name: str) -> float | None:
        n = self.calls.get(name, 0)
        return self.total_ns[name] / n / 1e3 if n else None
