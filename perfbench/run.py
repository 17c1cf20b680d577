"""photon-gate benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload simulate|ingest|verdicts|all \
        --seed N --seconds S --trace 0|1 [--size full|toy]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Inputs are generated from the seed into
``.perfbench_work/`` and removed afterwards; the result of each workload
(metrics, environment stamp, sample counts) stays there as
``result-<workload>.json``, and a traced run leaves its spans as
``spans-<workload>.jsonl``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when untraced and the per-layer metrics when traced (for
``--workload all``, one such object per workload).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("simulate", "ingest", "verdicts")
SETUP_SAMPLES = 6  # set-up runs in fresh processes, half before the main run, half after
RUN_LIMIT_S = 170  # a run, set-ups included, ends within this or fails
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "primary_per_ref_s": "1/ref_s",
    "secondary_per_ref_s": "1/ref_s", "op_ref_ms": "ref_ms",
}
# what each generic end-to-end metric means on each workload
ALIASES = {
    "simulate": {"primary_per_ref_s": ("sim_fixed_mpulses_per_s", 1e-6, "Mpulses/ref_s"),
                 "secondary_per_ref_s": ("sim_poisson_mpulses_per_s", 1e-6, "Mpulses/ref_s"),
                 "op_ref_ms": ("simulate_background_ms", 1.0, "ref_ms")},
    "ingest": {"primary_per_ref_s": ("ingest_csv_mtags_per_s", 1e-6, "Mtags/ref_s"),
               "secondary_per_ref_s": ("ingest_bin_mtags_per_s", 1e-6, "Mtags/ref_s"),
               "op_ref_ms": ("classify_csv_ms", 1.0, "ref_ms")},
    "verdicts": {"primary_per_ref_s": ("verdicts_per_s", 1.0, "1/ref_s"),
                 "secondary_per_ref_s": ("sweep_rows_per_s", 1.0, "1/ref_s"),
                 "op_ref_ms": ("classify_p50_ms", 1.0, "ref_ms")},
}

def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it, by nearest rank; the maximum when no rung
    has ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def end_to_end(workload_cls, result: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Metrics from an untraced worker's op records, and the sample
    counts, speed factors and wall-clock figures behind them.

    The machine's speed drifts by up to 2x in spells from under a second
    to minutes, so each op's time is divided by the time of the reference
    loop run beside it (see calibration.py; the mean of the runs just
    before and just after the op) and multiplied by that loop's nominal
    time: the op's time in reference seconds, as if the machine ran at
    the loop's nominal speed.  An op kind's time is the median over the
    run, round 0 left out as warm-up.  Set-up times are scaled the same
    way, by the import reference timed just before and just after each."""
    import calibration

    wall: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    refs, cal_of_op = workload_cls.references, result["calibration_of_op"]
    for op_id, r, kind, seconds, n, _ in result["records"]:
        if r >= 1:
            wall.setdefault(kind, []).append(seconds)
            samples, i = result["calibration"][refs[kind]], cal_of_op[str(op_id)]
            beside = statistics.fmean(samples[i:i + 2])
            scaled.setdefault(kind, []).append(
                seconds / beside * calibration.NOMINAL_S[refs[kind]])
            items[kind] = n
    median = {k: statistics.median(t) for k, t in scaled.items()}
    setup_nominal = calibration.NOMINAL_S["imports"]
    metrics = {"setup_s": statistics.median(
                   s["setup_s"] / statistics.fmean(s["setup_calibration"]) * setup_nominal
                   for s in setups),
               "peak_rss_mb": result["peak_rss_mb"]}
    info = {"setup_samples": len(setups),
            "setup_wall_s": statistics.median(s["setup_s"] for s in setups)}
    for ref, samples in result["calibration"].items():
        info[f"speed_factor.{ref}"] = statistics.median(samples) / calibration.NOMINAL_S[ref]
        info[f"calibration_samples.{ref}"] = len(samples)
    for group in ("primary", "secondary"):
        kinds = [k for k in getattr(workload_cls, group) if k in scaled]
        n = sum(items[k] for k in kinds)
        metrics[f"{group}_per_ref_s"] = n / sum(median[k] for k in kinds) if kinds else 0.0
        info[f"{group}_samples"] = min((len(wall[k]) for k in kinds), default=0)
        if kinds:
            info[f"{group}_wall_per_s"] = n / sum(statistics.median(wall[k]) for k in kinds)
    metrics["op_ref_ms"] = median.get(workload_cls.latency, 0.0) * 1e3
    latency = [t * 1e3 for t in wall.get(workload_cls.latency, [])]
    info["latency_samples"] = len(latency)
    if latency:
        info["latency_wall_p50_ms"] = statistics.median(latency)
        info["latency_wall_tail_percentile"], info["latency_wall_tail_ms"] = tail(latency)
    return metrics, info


def environment(seed: int, manifest: dict) -> dict:
    import numpy
    try:
        from photon_gate import _kernels
        backend = _kernels.backend()
    except ImportError:
        backend = "absent"
    try:  # read only: the CPU quota of this container, if cgroup v2 exposes one
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "absent"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernel_backend": backend, "nproc": len(os.sched_getaffinity(0)),
            "cgroup_cpu_max": cpu_max, "seed": seed, "size": manifest["size"],
            "inputs": manifest["sizes"]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # whether the kernel grants numpy's huge-page requests varies from run
    # to run; it moved peak RSS by 15 MiB between runs of the same inputs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def worker(name: str, inputs: Path, seed: int, seconds: int, extra: list[str],
           deadline: float) -> dict:
    (inputs / "result.json").unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                    "--dir", str(inputs), "--seconds", str(seconds), "--seed", str(seed),
                    *extra], env=worker_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads((inputs / "result.json").read_text())


def setup(name: str, inputs: Path, seed: int, deadline: float) -> dict:
    """One set-up in a fresh process, with the import reference timed in
    fresh processes just before and just after it."""
    import calibration

    before = calibration.measure_imports(worker_env())
    result = worker(name, inputs, seed, 0, ["--setup-only"], deadline)
    result["setup_calibration"] = [before, calibration.measure_imports(worker_env())]
    return result


def run_workload(name: str, seed: int, seconds: int, traced: bool, size: str) -> dict:
    import workloads

    inputs = WORK / f"{name}-{seed}-{os.getpid()}"
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        start = time.perf_counter()
        manifest = workloads.generate(name, seed, size, inputs)
        gen_s = time.perf_counter() - start
        if traced:
            extra = ["--trace"]
            for other in NAMES:
                if other != name:
                    probe_dir = inputs / f"probe-{other}"
                    workloads.generate(other, seed, "toy", probe_dir)
                    extra += ["--probe-dir", str(probe_dir)]
            runs = [worker(name, inputs, seed, seconds, extra, deadline)]
        else:
            # set-ups before and after the loop, so their median spans the run
            before = [setup(name, inputs, seed, deadline) for _ in range(SETUP_SAMPLES // 2)]
            runs = [worker(name, inputs, seed, seconds, [], deadline), *before]
            runs += [setup(name, inputs, seed, deadline)
                     for _ in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result = runs[0]
    summary = {"workload": name, "traced": traced, "seconds": seconds,
               "env": environment(seed, manifest),
               "errors": [e for r in runs for e in r["errors"]],
               "ops_attempted": sum(r["attempted"] for r in runs),
               "ops_failed": sum(r["failed"] for r in runs)}
    if traced:
        import probes
        values = dict(result["layers"], **{"bench.gen_s": gen_s})
        summary["absent"] = [k for k in probes.LAYER_UNITS if values.get(k) is None]
        summary["metrics"] = {k: {"value": float(values.get(k) or 0.0), "unit": unit}
                              for k, unit in probes.LAYER_UNITS.items()}
    else:
        metrics, summary["info"] = end_to_end(workloads.WORKLOADS[name], result, runs[1:])
        summary["metrics"] = {k: {"value": float(metrics[k]), "unit": unit}
                              for k, unit in END_TO_END.items()}
        summary["aliases"] = {alias: {"value": metrics[k] * scale, "unit": unit, "metric": k}
                              for k, (alias, scale, unit) in ALIASES[name].items()}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{name}.json").write_text(json.dumps(summary, indent=1))
    return summary


def show(summary: dict) -> None:
    print(f"perfbench {summary['workload']}: {summary['ops_attempted']} ops attempted, "
          f"{summary['ops_failed']} failed, "
          f"{'traced (per-layer metrics)' if summary['traced'] else 'untraced (end-to-end)'}")
    aliases = {a["metric"]: (name, a) for name, a in summary.get("aliases", {}).items()}
    for key, metric in summary["metrics"].items():
        line = f"  {key:40s} {metric['value']:<14.6g} {metric['unit']}"
        if key in aliases:
            alias, a = aliases[key]
            line += f"    = {alias} {a['value']:.6g} {a['unit']}"
        print(line)
    if "info" in summary:
        print(f"  info {json.dumps(summary['info'])}")
    if summary.get("absent"):
        print(f"  absent (reported as 0): {', '.join(summary['absent'])}")
    for error in summary["errors"]:
        print(f"  failed op: {error}", file=sys.stderr)
    print(f"  env {json.dumps(summary['env'])}")


def contract_line(summary: dict) -> dict:
    return {"correct": summary["ops_failed"] == 0, "attempted": summary["ops_attempted"],
            "failed": summary["ops_failed"], "metrics": summary["metrics"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="input sizes; toy is for the benchmark's self-test")
    args = p.parse_args()
    if not (SRC / "photon_gate" / "__init__.py").is_file():
        print(f"error: no photon_gate package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = NAMES if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        show(summary)
        lines[name] = contract_line(summary)
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
