"""Reference loops that measure how fast the machine is while a run goes.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2x, in spells from under a second to several minutes; a spell can
cover a whole run.  So the worker times, between its ops, a fixed
reference loop shaped like the op's own work, and the end-to-end
metrics scale each op's time by the reference's nominal time over its
time beside the op: the op's time in reference seconds.  The loops live
here, not in ``src``, and take fixed inputs, so a change to photon_gate
moves the op times and never the reference.

blocks  Philox draws and element-wise tallies over 65 536-pulse blocks,
        as one ``simulate`` block does.
parse   line splitting, dict lookups and int parsing in the interpreter,
        as the CSV reader does; also stands for the interpreter-bound
        ``verdicts`` ops.
fold    the binary time-tag read and fold: a fresh copy of the records,
        a structured-array view, channel checks, per-channel floor
        division, masks, ``unique`` and ``intersect1d`` over 500 000 fixed
        records, mostly in gate.
imports a fresh interpreter importing numpy and the standard modules
        photon_gate is built on, for set-up times.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_BLOCK = 1 << 16

# seconds each loop took on an unloaded 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4): a speed factor of 1 means the machine ran at that speed
NOMINAL_S = {"blocks": 0.05, "parse": 0.053, "fold": 0.064, "imports": 0.06}


def _blocks() -> int:
    total = 0
    for index in range(8):
        rng = np.random.Generator(np.random.Philox(key=12345).jumped(index))
        bg_a, bg_b = rng.poisson(0.01, _BLOCK), rng.poisson(0.01, _BLOCK)
        routes, detects = rng.random((_BLOCK, 2)), rng.random((_BLOCK, 2))
        to_a = routes < 0.5
        fired = np.where(to_a, detects < 0.1, detects < 0.09)
        click_a = (fired & to_a).any(axis=1) | (bg_a > 0)
        click_b = (fired & ~to_a).any(axis=1) | (bg_b > 0)
        total += int(np.count_nonzero(click_a & click_b))
    return total


_LINES = [f"{'AB'[i % 3 % 2]},{i * 7919 + i % 13}\n" for i in range(150_000)]
_CODE = {"A": 0, "B": 1}


def _parse() -> int:
    channels: list[int] = []
    stamps: list[int] = []
    for raw in _LINES:
        parts = raw.strip().split(",")
        channels.append(_CODE[parts[0].strip()])
        stamps.append(int(parts[1]))
    return int(np.asarray(stamps, dtype=np.int64)[-1]) + len(channels)


def _records(n: int) -> bytes:
    rng = np.random.default_rng(2024)
    records = np.empty(n, dtype=[("channel", "u1"), ("timestamp", "<u8")])
    records["channel"] = rng.choice(np.frombuffer(b"AB", dtype=np.uint8), n)
    # mostly in gate, as in the benchmark's tag files, so ``unique`` does the most work
    records["timestamp"] = np.sort(rng.integers(0, 2 * n, n) * 500 + rng.integers(0, 125, n))
    return records.tobytes()


_RECORDS = _records(500_000)


def _fold() -> int:
    data = bytes(memoryview(_RECORDS))  # a fresh buffer each time, as a file read gives
    records = np.frombuffer(data, dtype=[("channel", "u1"), ("timestamp", "<u8")])
    codes = records["channel"]
    if not np.all(np.isin(codes, (ord("A"), ord("B")))):
        raise AssertionError("reference records are fixed")
    channels = (codes == ord("B")).astype(np.uint8)
    stamps = records["timestamp"].astype(np.int64)
    kept = []
    for code in (0, 1):
        t = stamps[channels == code]
        sorted_ok = not np.any(np.diff(t) < 0)
        pulse = np.floor_divide(t, 500)
        position = t - pulse * 500
        kept.append(np.unique(pulse[(position < 100) & (pulse < 2 * t.size) & sorted_ok]))
    return int(np.intersect1d(*kept, assume_unique=True).size)


LOOPS = {"blocks": _blocks, "parse": _parse, "fold": _fold}

# most of ``import photon_gate.cli`` is these modules, numpy above all
_IMPORTS = "numpy, argparse, concurrent.futures, dataclasses, logging, pathlib"
_IMPORT_CODE = ("import time; start = time.perf_counter(); "
                f"import {_IMPORTS}; print(time.perf_counter() - start)")


def measure_imports(env: dict[str, str]) -> float:
    """Seconds a fresh interpreter takes to import the modules photon_gate
    is built on: the reference for set-up times, which are mostly
    imports.  Timed inside that interpreter, as set-up is."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CODE], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def measure(name: str) -> float:
    """Seconds one run of the named loop takes now."""
    start = time.perf_counter()
    LOOPS[name]()
    return time.perf_counter() - start


if __name__ == "__main__":
    timers = {loop: (lambda loop=loop: measure(loop)) for loop in LOOPS}
    timers["imports"] = lambda: measure_imports({})
    for name, timer in timers.items():
        samples = sorted(timer() for _ in range(21))
        print(f"{name:8s} median {samples[10]:.4f} s  min {samples[0]:.4f} s")
