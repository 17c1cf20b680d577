"""The committed perf trajectory: each BENCH_<pr>.json at the repository
root merges the result files of one untraced benchmark run, as README's
Benchmark section writes it, and from BENCH_38.json on names the
measured src/ tree by its sha256."""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_is_committed():
    assert len(END_TO_END) == 5 and BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_holds_every_workload(path):
    bench = json.loads(path.read_text())
    assert bench["pr"] == int(path.stem.split("_", 1)[1])
    assert isinstance(bench["commit"], str) and bench["commit"]
    if bench["pr"] >= 38:  # the measured src/ tree, stamped since BENCH_38.json
        assert re.fullmatch("[0-9a-f]{64}", bench["src_sha256"])
    for workload in ("simulate", "ingest", "verdicts"):
        result = bench[workload]
        assert result["workload"] == workload and result["traced"] is False
        for name in END_TO_END:
            value = result["metrics"][name]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0
