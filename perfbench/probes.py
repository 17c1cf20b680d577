"""The traced run's layer probes and its per-layer metrics.

Probes are measurements the benchmark makes itself, outside the
workload's closed loop: the two click kernels on one pre-drawn
65 536-pulse block, ``simulate_pulses`` serial against parallel, and one
traced round of each other workload at toy size.  A per-layer metric is
taken from the workload's own traced ops when they reach that layer and
from the toy rounds otherwise, so every metric has a measured value on
every workload.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

import photon_gate
import workloads
from tracing import GATES, SpanSummary

BLOCK = 1 << 16
KERNEL_REPEATS = 21
PROBE_ROUND = -2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _kernel_op(seed: int) -> workloads.Op | None:
    """Time both kernels on one pre-drawn block, as ``simulate`` draws
    it, and check their clicks against the click rule written out."""
    try:
        kernels = importlib.import_module("photon_gate._kernels")
    except ImportError:
        return None
    rng = np.random.default_rng(seed)
    p = photon_gate.DetectionParams(eta=workloads.ETA, delta=workloads.DELTA,
                                    gamma=workloads.GAMMA)
    bg_a = rng.poisson(p.gamma * p.eta1 / 2.0, BLOCK)
    bg_b = rng.poisson(p.gamma * p.eta2 / 2.0, BLOCK)
    routes, detects = rng.random((BLOCK, 3)), rng.random((BLOCK, 3))
    photons = rng.poisson(0.5, BLOCK)
    routes_p, detects_p = rng.random(int(photons.sum())), rng.random(int(photons.sum()))
    fixed_args = (routes, detects, bg_a, bg_b, p.eta1, p.eta2)
    poisson_args = (photons, routes_p, detects_p, bg_a, bg_b, p.eta1, p.eta2)

    def timed(fn, args):
        times, out = [], None
        for _ in range(KERNEL_REPEATS):
            out = (np.empty(BLOCK, np.bool_), np.empty(BLOCK, np.bool_))
            start = time.perf_counter()
            fn(*args, *out)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3, out

    def run():
        return timed(kernels.fixed_clicks, fixed_args), timed(kernels.poisson_clicks, poisson_args)

    def check(result):
        (_, fixed), (_, poisson) = result
        to_a = routes < 0.5
        want_a = (to_a & (detects < p.eta1)).any(axis=1) | (bg_a > 0)
        want_b = (~to_a & (detects < p.eta2)).any(axis=1) | (bg_b > 0)
        workloads.check(np.array_equal(fixed[0], want_a) and np.array_equal(fixed[1], want_b),
                        "fixed_clicks differs from the click rule")
        pulse = np.repeat(np.arange(BLOCK), photons)
        to_a = routes_p < 0.5
        want_a, want_b = bg_a > 0, bg_b > 0
        want_a[pulse[to_a & (detects_p < p.eta1)]] = True
        want_b[pulse[~to_a & (detects_p < p.eta2)]] = True
        workloads.check(np.array_equal(poisson[0], want_a) and np.array_equal(poisson[1], want_b),
                        "poisson_clicks differs from the click rule")

    return workloads.Op("probe-kernels", BLOCK, run, check)


def _speedup_op(kind: str, source, pulses: int, seed: int) -> workloads.Op:
    params = photon_gate.DetectionParams(eta=workloads.ETA, delta=workloads.DELTA,
                                         gamma=workloads.GAMMA, cycles=pulses)
    config = photon_gate.SimConfig(source=source, params=params, seed=seed)

    def run():
        out = []
        for workers in (1, nproc()):
            start = time.perf_counter()
            counts = photon_gate.simulate_pulses(config, workers=workers)
            out.append((time.perf_counter() - start, counts))
        return out

    def check(result):
        (_, serial), (_, parallel) = result
        workloads.check(serial == parallel, f"{kind}: workers={nproc()} changed the counts")

    return workloads.Op(f"probe-speedup-{kind}", pulses, run, check)


SPEEDUP_SOURCES = (("ideal", photon_gate.IdealEmitters(s=3)),
                   ("background", photon_gate.EmitterWithBackground()),
                   ("coherent", photon_gate.Coherent(mu=0.5)))


def run(loop, manifest: dict, seed: int, tracer, probe_dirs: list[Path]) -> dict:
    out = {}
    op = _kernel_op(seed)
    if op is not None:
        result = loop.run_op(op, PROBE_ROUND)
        if result is not None:
            (fixed_ms, _), (poisson_ms, _) = result
            # bytes the fixed kernel reads and writes per pulse: routes and
            # detects (3 float64 each), two background counts, two clicks
            per_pulse = 3 * 8 * 2 + 8 * 2 + 1 * 2
            out.update({"kernels.fixed_ms": fixed_ms, "kernels.poisson_ms": poisson_ms,
                        "kernels.ns_per_pulse": fixed_ms * 1e6 / BLOCK,
                        "kernels.bytes_per_pulse": per_pulse})
    # full size only where simulate is the workload; elsewhere a toy-size stand-in
    size = manifest["size"] if manifest["workload"] == "simulate" else "toy"
    pulses = workloads.SIZES[size]["speedup_pulses"]
    for kind, source in SPEEDUP_SOURCES:
        result = loop.run_op(_speedup_op(kind, source, pulses, seed), PROBE_ROUND)
        if result is not None:
            (serial_s, _), (parallel_s, _) = result
            out[f"simulate.parallel_speedup.{kind}"] = serial_s / parallel_s
    for probe_dir in probe_dirs:
        probe_manifest = json.loads((probe_dir / "manifest.json").read_text())
        workload = workloads.WORKLOADS[probe_manifest["workload"]](probe_manifest, probe_dir)
        with loop.tracing(tracer):
            for op in [workload.first_op(), *workload.round(0)]:
                loop.run_op(op, PROBE_ROUND, traced=True)
    return out


def _median_round_s(records, traced: bool) -> float | None:
    rounds = {}
    for _, r, _, seconds, _, was_traced in records:
        if r >= 0 and was_traced == traced:
            rounds[r] = rounds.get(r, 0.0) + seconds
    return statistics.median(rounds.values()) if rounds else None


LAYER_UNITS = {
    "kernels.fixed_ms": "ms", "kernels.poisson_ms": "ms", "kernels.ns_per_pulse": "ns",
    "kernels.bytes_per_pulse": "B_computed",
    "simulate.blocks": "count", "simulate.self_ms": "ms",
    **{f"simulate.parallel_speedup.{kind}": "ratio" for kind, _ in SPEEDUP_SOURCES},
    "timetags.read_csv_ms": "ms", "timetags.csv_mtags_per_s": "Mtags/s",
    "timetags.read_bin_ms": "ms", "timetags.read_bin_mtags_per_s": "Mtags/s",
    "timetags.bin_bytes": "B",
    "timetags.ingest_ms": "ms", "timetags.fold_mtags_per_s": "Mtags/s",
    "timetags.kept_ratio": "ratio",
    "timetags.read_counts_block_us": "us", "timetags.read_sim_config_us": "us",
    "timetags.write_counts_block_us": "us",
    "cli.self_us": "us",
    "criterion.classify_counts_us": "us", "criterion.classify_us": "us",
    "criterion.sbr_threshold_us": "us", "criterion.sbr_threshold_calls": "count",
    "criterion.corrected_critical_values_us": "us",
    **{f"criterion.gate.{gate}": "count" for gate in GATES},
    "analytic.sbr_from_stats_us": "us", "analytic.g2_zero_estimate_us": "us",
    "model.stats_from_counts_us": "us", "deviations.deviation_report_us": "us",
    "trace.overhead_ratio": "ratio",
    "bench.gen_s": "s",
}


def layer_metrics(tracer, records, probe_values: dict) -> dict:
    own = SpanSummary(tracer, {rec[0] for rec in records if rec[1] >= 0 and rec[5]})
    toy = SpanSummary(tracer, {rec[0] for rec in records if rec[1] == PROBE_ROUND and rec[5]})

    def pick(name):
        return own if own.calls.get(name) else toy

    m = dict(probe_values)
    s = pick("simulate.simulate_pulses")
    if s.calls.get("simulate.simulate_pulses"):
        calls = s.calls["simulate.simulate_pulses"]
        m["simulate.blocks"] = s.calls.get("simulate.block", 0) / calls
        m["simulate.self_ms"] = s.layer_self_ns["simulate"] / calls / 1e6

    def rate(name, key):  # items per microsecond = millions per second
        t = pick(name)
        return t.attr_sums[name][key] / (t.total_ns[name] / 1e3) if t.calls.get(name) else None

    for metric, name, scale in (
            ("timetags.read_csv_ms", "timetags.read_timetags_csv", 1e-3),
            ("timetags.read_bin_ms", "timetags.read_timetags_binary", 1e-3),
            ("timetags.ingest_ms", "timetags.ingest_arrays", 1e-3),
            ("timetags.read_counts_block_us", "timetags.read_counts_block", 1.0),
            ("timetags.read_sim_config_us", "timetags.read_sim_config", 1.0),
            ("timetags.write_counts_block_us", "timetags.write_counts_block", 1.0),
            ("criterion.classify_counts_us", "criterion.classify_counts", 1.0),
            ("criterion.classify_us", "criterion.classify", 1.0),
            ("criterion.sbr_threshold_us", "criterion.sbr_threshold", 1.0),
            ("criterion.corrected_critical_values_us", "criterion.corrected_critical_values", 1.0),
            ("analytic.sbr_from_stats_us", "analytic.sbr_from_stats", 1.0),
            ("analytic.g2_zero_estimate_us", "analytic.g2_zero_estimate", 1.0),
            ("model.stats_from_counts_us", "model.stats_from_counts", 1.0),
            ("deviations.deviation_report_us", "deviations.deviation_report", 1.0)):
        us = pick(name).mean_us(name)
        m[metric] = None if us is None else us * scale
    m["timetags.csv_mtags_per_s"] = rate("timetags.read_timetags_csv", "tags")
    m["timetags.read_bin_mtags_per_s"] = rate("timetags.read_timetags_binary", "tags")
    m["timetags.fold_mtags_per_s"] = rate("timetags.ingest_arrays", "tags")
    t = pick("timetags.read_timetags_binary")
    if t.calls.get("timetags.read_timetags_binary"):
        m["timetags.bin_bytes"] = (t.attr_sums["timetags.read_timetags_binary"]["bytes"]
                                   / t.calls["timetags.read_timetags_binary"])
    t = pick("timetags.ingest_arrays")
    if t.calls.get("timetags.ingest_arrays"):
        sums = t.attr_sums["timetags.ingest_arrays"]
        m["timetags.kept_ratio"] = sums["kept"] / sums["tags"]
    t = pick("cli.main")
    if t.calls.get("cli.main"):
        m["cli.self_us"] = t.layer_self_ns["cli"] / t.calls["cli.main"] / 1e3
    t = pick("criterion.sbr_threshold")
    m["criterion.sbr_threshold_calls"] = t.calls.get("criterion.sbr_threshold", 0)
    t = pick("criterion.classify")
    for gate in GATES:
        m[f"criterion.gate.{gate}"] = t.gates.get(gate, 0)
    traced, untraced = _median_round_s(records, True), _median_round_s(records, False)
    if traced and untraced:
        m["trace.overhead_ratio"] = traced / untraced
    return m
