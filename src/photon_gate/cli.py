"""Command-line front end.

Subcommands
-----------
simulate   run a configured pulse-train simulation, write the tallies
           (plus config echo) to a counts block, print a run report
classify   run the single-emitter test on a counts block or a
           time-tag file (CSV or binary)
sweep      tabulate the SBR threshold or the critical-value curves to
           CSV

Exit codes: 0 single (or command succeeded), 1 not single,
3 indeterminate, 2 configuration/file errors.  The environment variable
PHOTON_GATE_LOG (error | info | debug) sets log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .analytic import g2_zero_estimate
from .criterion import classify, classify_counts, corrected_critical_values, sbr_threshold
from .deviations import systematic_deviation
from .model import (
    ClickCounts,
    Decision,
    DetectionParams,
    FormatError,
    RangeError,
    Verdict,
    stats_from_counts,
)
from .simulate import simulate_pulses
from .timetags import (
    GateConfig,
    fold_timetags,
    is_counts_block,
    iter_timetags_binary,
    iter_timetags_csv,
    read_counts_block,
    read_sim_config,
    write_counts_block,
)

log = logging.getLogger(__name__)

# largest eta of the critical sweep: its mean click number must stay <= 1
_ETA_MAX = 2.0 - math.sqrt(2.0)

_EXIT_BY_DECISION = {
    Decision.SINGLE: 0,
    Decision.NOT_SINGLE: 1,
    Decision.INDETERMINATE: 3,
}
# FormatError, GateError and RangeError are ValueErrors
_USER_ERRORS = (OSError, ValueError)


def _fmt(x: float | None) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, float) and math.isnan(x):
        return "n/a"
    return f"{x:.6g}"


def format_report(counts: ClickCounts, verdict: Verdict, duration_s: float) -> str:
    """The run report both simulate and classify print."""
    c, v, s = counts, verdict, stats_from_counts(counts)
    try:
        g2 = _fmt(g2_zero_estimate(c))
    except ZeroDivisionError:
        g2 = "n/a"
    d1, d2 = systematic_deviation(v.params)
    lines = [
        f"pulses             {c.n_all}",
        f"pattern counts     n00={c.n_00} n10={c.n_10} n01={c.n_01} n11={c.n_11}",
        f"p0 / p1 / p2       {_fmt(s.p0)} / {_fmt(s.p1)} / {_fmt(s.p2)}",
        f"mean clicks        {_fmt(s.mean_n)}",
        f"mandel q           {_fmt(s.q)}",
        f"g2(0) estimate     {g2}",
        f"measured SBR       {_fmt(v.measured_sbr)}",
        f"setup SBR          {_fmt(v.setup_sbr)}",
        f"SBR threshold      {_fmt(v.sbr0)}",
        f"critical p1 / p2   {_fmt(v.p1_critical)} / {_fmt(v.p2_critical)}",
        f"systematic d1/d2   {_fmt(d1)} / {_fmt(d2)}",
        f"margin (p1)        {_fmt(v.margin_p1)}",
        f"decision           {v.decision.value}",
    ]
    if v.reason:
        lines.append(f"reason             {v.reason}")
    lines.append(f"duration           {duration_s:.3f} s")
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = read_sim_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.cycles is not None:
        config = replace(config, params=replace(config.params, cycles=args.cycles))
    # one thread: on two vCPUs a pool gained little on SFC64 draws, and
    # how much depended on what else ran on the machine
    log.info("simulating %s pulses", config.params.cycles)
    start = time.perf_counter()
    counts = simulate_pulses(config)
    duration = time.perf_counter() - start
    write_counts_block(args.output, counts, config)
    verdict = classify(stats_from_counts(counts), config.params)
    print(format_report(counts, verdict, duration))
    log.info("counts written to %s", args.output)
    return 0


def _classify_timetags(args: argparse.Namespace) -> tuple[ClickCounts, Verdict]:
    gate = GateConfig(
        pulse_period_ns=args.pulse_period_ns,
        gate_offset_ns=args.gate_offset_ns,
        gate_width_ns=args.gate_width_ns,
    )
    chunks = (iter_timetags_csv if args.format == "csv" else iter_timetags_binary)(args.input)
    counts = fold_timetags(chunks, gate, args.cycles)
    if counts.n_all == 0:
        raise FormatError(f"{args.input}: no records and no --cycles; pulse count unknown")
    verdict = classify_counts(
        counts,
        eta=args.eta,
        delta=args.delta if args.delta is not None else 0.0,
        gamma=args.gamma,
        cycles=args.cycles,
    )
    return counts, verdict


def _classify_counts_block(args: argparse.Namespace) -> tuple[ClickCounts, Verdict]:
    counts, config = read_counts_block(args.input)
    echoed = config.params
    params = DetectionParams(
        eta=args.eta if args.eta is not None else echoed.eta,
        delta=args.delta if args.delta is not None else echoed.delta,
        gamma=args.gamma if args.gamma is not None else echoed.gamma,
        cycles=args.cycles if args.cycles is not None else echoed.cycles,
    )
    return counts, classify(stats_from_counts(counts), params)


def _cmd_classify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    classify_input = _classify_counts_block if is_counts_block(args.input) else _classify_timetags
    counts, verdict = classify_input(args)
    print(format_report(counts, verdict, time.perf_counter() - start))
    return _EXIT_BY_DECISION[verdict.decision]


def _linspace(args: argparse.Namespace) -> np.ndarray:
    if args.points < 0:
        raise RangeError(f"--points must be >= 0, got {args.points}")
    if args.points == 0:
        return np.empty(0)
    if not args.start <= args.stop:
        raise RangeError(f"--start {args.start} exceeds --stop {args.stop}")
    return np.linspace(args.start, args.stop, args.points)


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _linspace(args)
    if args.curve == "sbr0":
        if grid.size and args.start <= 0.0:
            raise RangeError(f"--start must be > 0 (a mean click number), got {args.start}")
        if grid.size and args.stop > 1.0:
            raise RangeError(f"--stop {args.stop} exceeds 1, the largest mean click number")
        header = "mean_n,sbr0"
        rows = [f"{float(x)!r},{sbr_threshold(float(x))!r}" for x in grid]
    else:
        if grid.size and args.start < 0.0:
            raise RangeError(f"--start must be >= 0 (a detection efficiency), got {args.start}")
        if grid.size and args.stop > _ETA_MAX:
            raise RangeError(f"--stop {args.stop} exceeds 2 - sqrt(2) = {_ETA_MAX:.6g}, "
                             "where the mean click number 2 eta - eta^2/2 reaches 1")
        header = "eta,mean_n,p1_bound,p2_bound,p1_critical,p2_critical"
        rows = []
        for eta in grid:
            eta = float(eta)
            mean_n = 2.0 * eta - 0.5 * eta * eta
            params = DetectionParams(
                eta=eta, delta=args.delta, gamma=args.gamma, cycles=args.cycles
            )
            crit = corrected_critical_values(mean_n, params)
            rows.append(
                f"{eta!r},{mean_n!r},{crit.p1_bound!r},{crit.p2_bound!r},"
                f"{crit.p1_corrected!r},{crit.p2_corrected!r}"
            )
    with open(args.output, "w", encoding="ascii") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
    log.info("%d rows written to %s", len(rows), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photon-gate",
        description="Photon click statistics and the single-emitter test "
        "for pulsed two-detector measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a pulse-train Monte Carlo simulation")
    sim.add_argument("--config", required=True, help="key = value simulation config")
    sim.add_argument("--output", required=True, help="counts block destination")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--cycles", type=int, help="override the pulse count")
    sim.set_defaults(func=_cmd_simulate)

    cla = sub.add_parser("classify", help="single-emitter test on recorded data")
    cla.add_argument("--input", required=True, help="counts block or time-tag file")
    cla.add_argument("--format", choices=("csv", "binary"), default="csv",
                     help="time-tag file layout (counts blocks are auto-detected)")
    cla.add_argument("--pulse-period-ns", type=float, default=500.0)
    cla.add_argument("--gate-offset-ns", type=float, default=0.0)
    cla.add_argument("--gate-width-ns", type=float, default=100.0)
    cla.add_argument("--eta", type=float, help="detection efficiency calibration")
    cla.add_argument("--delta", type=float, help="channel imbalance")
    cla.add_argument("--gamma", type=float, help="background photons per pulse")
    cla.add_argument("--cycles", type=int, help="number of pulses observed")
    cla.set_defaults(func=_cmd_classify)

    swp = sub.add_parser("sweep", help="tabulate threshold or critical-value curves")
    swp.add_argument("curve", choices=("sbr0", "critical"))
    swp.add_argument("--start", type=float, required=True)
    swp.add_argument("--stop", type=float, required=True)
    swp.add_argument("--points", type=int, required=True)
    swp.add_argument("--output", required=True, help="CSV destination")
    swp.add_argument("--delta", type=float, default=0.0)
    swp.add_argument("--gamma", type=float, default=0.0)
    swp.add_argument("--cycles", type=int, default=1_000_000)
    swp.set_defaults(func=_cmd_sweep)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("PHOTON_GATE_LOG", "error").strip().lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        ),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
