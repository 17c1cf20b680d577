"""One workload process: set up, run the closed loop, check every op.

    python3 perfbench/worker.py --workload NAME --dir INPUTS --seconds S --seed N
                                [--trace] [--setup-only] [--probe-dir DIR ...]

Started by ``run.py`` with ``src`` on PYTHONPATH; writes ``result.json``
into INPUTS.  Set-up is the import of photon_gate plus the first op,
timed from inside this process.  Untraced, the loop runs rounds of ops
for S seconds, with the reference loops of ``calibration`` timed
between ops from round 1 on.  Traced, rounds alternate between untraced and traced,
then the layer probes of ``probes`` run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SPAN_LIMIT = 100_000  # later rounds run untraced: enough spans, and a bounded spans file
CAL_EVERY_S = 0.25  # a reference loop runs before an op when its last run is older than this


def peak_rss_mb() -> float:
    """This process's peak resident set.  VmHWM, unlike ru_maxrss, starts
    afresh at exec, so the parent's size at fork time does not leak in."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Runs ops one after another, times ``run``, checks outside the
    timed region, and counts attempts and failures."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [op id, round, kind, seconds, items, traced]
        self.references: dict[str, str] = {}  # op kind -> reference loop timed beside it
        self.calibration: dict[str, list[float]] = {}  # reference loop -> seconds per run
        self.cal_of_op: dict[int, int] = {}  # op id -> index of the reference run before it
        self._calibrated_at: dict[str, float] = {}
        self.measure = None  # calibration.measure, once references are set
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def run_op(self, op, round_index: int, traced: bool = False):
        """The op's output, or None when it raised or failed its check."""
        op_id = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op_id
        reference = self.references.get(op.kind)
        if reference is not None:
            if time.perf_counter() - self._calibrated_at.get(reference, -CAL_EVERY_S) >= CAL_EVERY_S:
                self.calibration.setdefault(reference, []).append(self.measure(reference))
                self._calibrated_at[reference] = time.perf_counter()
            self.cal_of_op[op_id] = len(self.calibration[reference]) - 1
        start = time.perf_counter()
        try:
            result = op.run()
            seconds = time.perf_counter() - start
            op.check(result)
        except Exception:  # an op that raises or fails its check is a failed op
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.kind}: {traceback.format_exc(limit=4)}")
            return None
        self.records.append([op_id, round_index, op.kind, seconds, op.items, traced])
        return result

    @contextlib.contextmanager
    def tracing(self, tracer):
        """Ops run inside are traced, with their op id on each span."""
        self.tracer = tracer
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracer = None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe-dir", action="append", default=[], type=Path)
    args = p.parse_args()

    start = time.perf_counter()
    import photon_gate.cli  # noqa: F401  (timed: the import a user pays)
    import_s = time.perf_counter() - start

    import workloads
    manifest = json.loads((args.dir / "manifest.json").read_text())
    workload = workloads.WORKLOADS[args.workload](manifest, args.dir)
    loop = Loop()
    loop.run_op(workload.first_op(), -1)
    first = loop.records[0][3] if loop.records else 0.0
    result = {"setup_s": import_s + first, "import_s": import_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        r = 0
        # at least two rounds, so a traced run has one of each kind
        while r < 2 or time.perf_counter() < deadline:
            if r == 1 and tracer is None:
                # round 0 is warm-up; from round 1 reference loops run beside the
                # ops, imported only now so their inputs stay out of the peak RSS
                import calibration
                loop.references, loop.measure = workload.references, calibration.measure
            traced = tracer is not None and r % 2 == 1 and len(tracer.spans) < SPAN_LIMIT
            with loop.tracing(tracer) if traced else contextlib.nullcontext():
                for op in workload.round(r):
                    loop.run_op(op, r, traced)
            if r == 0:  # peak over set-up and one round: later rounds only add fragmentation
                result["peak_rss_mb"] = peak_rss_mb()
            r += 1
        if tracer is not None:
            import probes
            values = probes.run(loop, manifest, args.seed, tracer, args.probe_dir)
            tracer.write(args.dir.parent / f"spans-{args.workload}.jsonl")
            result["layers"] = probes.layer_metrics(tracer, loop.records, values)

    result.update(records=loop.records, attempted=loop.attempted, failed=loop.failed,
                  errors=loop.errors, calibration=loop.calibration, calibration_of_op=loop.cal_of_op)
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
