"""Toy-size self-test of the benchmark.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
from run import end_to_end, tail  # noqa: E402


def run_benchmark(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric_without_failures(trace):
    out = run_benchmark(HERE.parent, trace)
    assert out.returncode == 0, out.stderr
    lines = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(lines) == {w["name"] for w in BENCHMARK["workloads"]}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    for name, line in lines.items():
        assert (line["correct"], line["failed"]) == (True, 0), (name, out.stderr)
        assert line["attempted"] > 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared, name
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values()), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = run_benchmark(tmp_path, 0)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_tail_is_highest_ladder_rung_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert tail(samples) == (99.0, 990.0)
    assert tail(samples[:100]) == (90.0, 90.0)
    assert tail(samples[:12]) == (100.0, 12.0)


def test_op_and_setup_times_are_scaled_by_the_reference_timed_beside_them():
    class Workload:
        primary, secondary, latency = ("a",), ("b",), "a"
        references = {"a": "parse", "b": "parse"}

    parse, imports = calibration.NOMINAL_S["parse"], calibration.NOMINAL_S["imports"]
    result = {"records": [[0, 0, "a", 9.0, 10, False],  # round 0 is warm-up
                          [1, 1, "a", 1.0, 10, False], [2, 1, "b", 4.0, 10, False]],
              "calibration": {"parse": [2 * parse, 2 * parse, 6 * parse]},
              "calibration_of_op": {"1": 0, "2": 1}, "peak_rss_mb": 30.0}
    setups = [{"setup_s": 0.3, "setup_calibration": [2 * imports, 4 * imports]}]
    metrics, _ = end_to_end(Workload, result, setups)
    assert metrics["primary_per_ref_s"] == pytest.approx(10 / (1.0 / 2))
    assert metrics["op_ref_ms"] == pytest.approx(1e3 * 1.0 / 2)
    assert metrics["secondary_per_ref_s"] == pytest.approx(10 / (4.0 / 4))
    assert metrics["setup_s"] == pytest.approx(0.3 / 3)
