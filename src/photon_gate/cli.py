"""Command-line front end.

Subcommands
-----------
simulate   run a configured pulse-train simulation, write the tallies
           (plus config echo) to a counts block, print a run report
classify   run the single-emitter test on a counts block or a
           time-tag file (CSV or binary)
sweep      tabulate the SBR threshold or the critical-value curves to
           CSV

``main(argv)`` is the in-process entry point: it returns the exit code
for every outcome, usage errors included, and the console script passes
it to ``sys.exit``.  Exit codes: 0 single (or command succeeded, or
--help), 1 not single, 3 indeterminate, 2 usage, configuration or file
errors.  The parser is built on the first call and reused by every later
one; parsing leaves it unchanged.  A call led by a command name is parsed
by that command's own parser alone, which then takes about an eighth of
a counts-block classify; any other call, or one with arguments that
parser leaves over, goes through the full parser, which words its usage
errors.

Only the commands that work on arrays import numpy, each as it runs:
simulate, a time-tag classify and sweep.  Importing this module, a
counts-block classify, --help and a usage error load none, as the key =
value files, the closed forms and the criterion work on plain floats.
On a 2-vCPU VM a counts-block classify run as a process,
``python -m photon_gate.cli classify --input run.counts``, takes a
median of 64 ms and peaks at 15.7 MiB RSS (15 runs); importing numpy
would add about 140 ms and 14 MiB.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace

from .analytic import g2_zero_estimate
from .criterion import (_ETA_MAX, _boundary_mean, _bounds, _critical_values, _sbr_threshold,
                        classify, classify_counts)
from .kvfile import _read_if_counts_block, read_sim_config, write_counts_block
from .model import (
    ClickCounts,
    Decision,
    DetectionParams,
    FormatError,
    PhotonStats,
    RangeError,
    SimConfig,
    Verdict,
    _checked_int,
    stats_from_counts,
)

_EXIT_BY_DECISION = {
    Decision.SINGLE: 0,
    Decision.NOT_SINGLE: 1,
    Decision.INDETERMINATE: 3,
}
# FormatError and RangeError are ValueErrors
_USER_ERRORS = (OSError, ValueError)


def _fmt(x: float | None) -> str:
    """x to 6 significant digits; n/a when it is undefined or was not computed."""
    if x is None or math.isnan(x):
        return "n/a"
    return f"{x:.6g}"


def format_report(counts: ClickCounts, stats: PhotonStats, verdict: Verdict,
                  duration_s: float) -> str:
    """The run report both simulate and classify print, of the tallies and
    the stats_from_counts of them that the verdict was reached on."""
    c, s, v = counts, stats, verdict
    k = v.critical  # None when the decision stopped before computing it
    critical = f"{_fmt(k.p1_corrected)} / {_fmt(k.p2_corrected)}" if k else "n/a / n/a"
    systematic = f"{_fmt(k.delta_p1)} / {_fmt(k.delta_p2)}" if k else "n/a / n/a"
    lines = [
        f"pulses             {c.n_all}",
        f"pattern counts     n00={c.n_00} n10={c.n_10} n01={c.n_01} n11={c.n_11}",
        f"p0 / p1 / p2       {_fmt(s.p0)} / {_fmt(s.p1)} / {_fmt(s.p2)}",
        f"mean clicks        {_fmt(s.mean_n)}",
        f"mandel q           {_fmt(s.q)}",
        f"g2(0) estimate     {_fmt(g2_zero_estimate(c))}",
        f"measured SBR       {_fmt(v.measured_sbr)}",
        f"setup SBR          {_fmt(v.setup_sbr)}",
        f"SBR threshold      {_fmt(v.sbr0)}",
        f"critical p1 / p2   {critical}",
        f"systematic d1/d2   {systematic}",
        f"margin (p1)        {_fmt(v.margin_p1)}",
        f"decision           {v.decision.value}",
    ]
    if v.reason:
        lines.append(f"reason             {v.reason}")
    lines.append(f"duration           {duration_s:.3f} s")
    return "\n".join(lines)


def simulate_pulses(config: SimConfig) -> ClickCounts:
    """simulate.simulate_pulses(config); the simulator, and numpy with it,
    is imported on the first call, so no other command loads them."""
    from .simulate import simulate_pulses
    return simulate_pulses(config)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = read_sim_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.cycles is not None:
        config = replace(config, params=replace(config.params, cycles=args.cycles))
    # one thread: on two vCPUs two workers ran 1e7 pulses of the benchmark's
    # IdealEmitters(3), EmitterWithBackground and Coherent(0.5) at 0.86-0.90x
    # the speed of one (ROADMAP item 18)
    start = time.perf_counter()
    counts = simulate_pulses(config)
    duration = time.perf_counter() - start
    write_counts_block(args.output, counts, config)
    stats = stats_from_counts(counts)
    print(format_report(counts, stats, classify(stats, config.params), duration))
    return 0


# the flags only a time-tag file reads, parsed as None so that a counts block
# refuses one given, and the value each takes when not given
_TIMETAG_DEFAULTS = {"format": "csv", "pulse_period_ns": 500.0, "gate_offset_ns": 0.0,
                     "gate_width_ns": 100.0}


def _classify_timetags(args: argparse.Namespace) -> tuple[ClickCounts, PhotonStats, Verdict]:
    from .timetags import GateConfig, fold_timetags, iter_timetags_binary, iter_timetags_csv
    for name, default in _TIMETAG_DEFAULTS.items():
        if getattr(args, name) is None:  # set, so main names a gate field as its flag
            setattr(args, name, default)
    gate = GateConfig(args.pulse_period_ns, args.gate_offset_ns, args.gate_width_ns)
    chunks = (iter_timetags_csv if args.format == "csv" else iter_timetags_binary)(args.input)
    try:
        counts = fold_timetags(chunks, gate, args.cycles)
    except FormatError as exc:
        if exc.record is None:  # a reader's error names the file itself
            raise
        raise FormatError(f"{args.input}: {exc}", exc.record) from None
    if counts.n_all == 0:
        raise FormatError(f"{args.input}: no records and no --cycles; pulse count unknown")
    verdict = classify_counts(counts, **_calibration_flags(args))
    return counts, stats_from_counts(counts), verdict


def _classify_counts_block(args: argparse.Namespace, counts: ClickCounts,
                           config: SimConfig) -> tuple[ClickCounts, PhotonStats, Verdict]:
    for name in _TIMETAG_DEFAULTS:
        if getattr(args, name) is not None:
            raise RangeError("is a time-tag flag; a counts block does not read it", name)
    # the sampling term is over the pulses the block tallies
    if args.cycles not in (None, counts.n_all):
        raise RangeError(f"must equal the block's pulse count {counts.n_all}, "
                         f"got {args.cycles}", "cycles")
    stats = stats_from_counts(counts)
    flags = _calibration_flags(args)
    return counts, stats, classify(stats, replace(config.params, cycles=counts.n_all, **flags))


def _calibration_flags(args: argparse.Namespace) -> dict[str, float]:
    """The calibration flags given, by DetectionParams field; the rest keep the
    echoed or default calibration, and the pulse count is the tallies' n_all."""
    return {name: getattr(args, name) for name in ("eta", "delta", "gamma")
            if getattr(args, name) is not None}


def _cmd_classify(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    block = _read_if_counts_block(args.input)
    counts, stats, verdict = (_classify_counts_block(args, *block) if block
                              else _classify_timetags(args))
    print(format_report(counts, stats, verdict, time.perf_counter() - start))
    return _EXIT_BY_DECISION[verdict.decision]


def _ns(text: str):
    """A gate flag in ns: a ratio n/d as an exact Fraction, other text as a float."""
    try:
        if "/" not in text:
            return float(text)
        from fractions import Fraction  # only a ratio pays for the import
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
        raise argparse.ArgumentTypeError(f"invalid float or ratio value: {text!r}") from None


def _linspace(args: argparse.Namespace, np):
    """The sweep's grid, an array of the numpy module np."""
    if args.points < 0:
        raise RangeError(f"--points must be >= 0, got {args.points}")
    if args.points == 0:
        return np.empty(0)
    if not args.start <= args.stop:
        raise RangeError(f"--start {args.start} exceeds --stop {args.stop}")
    return np.linspace(args.start, args.stop, args.points)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np
    grid = _linspace(args, np)
    if args.curve == "sbr0":
        if grid.size and args.start <= 0.0:
            raise RangeError(f"--start must be > 0 (a mean click number), got {args.start}")
        if grid.size and args.stop > 1.0:
            raise RangeError(f"--stop {args.stop} exceeds 1, the largest mean click number")
        header = "mean_n,sbr0"
        columns = (grid, _sbr_threshold(grid, np))
    else:
        if grid.size and args.start < 0.0:
            raise RangeError(f"--start must be >= 0 (a detection efficiency), got {args.start}")
        if grid.size and args.stop > _ETA_MAX:
            raise RangeError(f"--stop {args.stop} exceeds {_ETA_MAX:.6g}, the largest boundary "
                             "efficiency (its mean click number reaches 1)")
        # (1 + delta) eta grows with eta, so the calibration at --stop holds for every row
        if grid.size:
            try:
                DetectionParams(eta=args.stop, delta=args.delta, gamma=args.gamma,
                                cycles=args.cycles)
            except RangeError as exc:
                if exc.field:  # main names it as the flag
                    raise
                raise RangeError(f"--delta {args.delta} at --stop {args.stop}: {exc}") from None
        header = "eta,mean_n,p1_bound,p2_bound,p1_critical,p2_critical"
        mean_n = _boundary_mean(grid)
        crit = _critical_values(_bounds(mean_n, np), grid, args.delta, args.gamma,
                                args.cycles, np)
        columns = (grid, mean_n, crit.p1_bound, crit.p2_bound,
                   crit.p1_corrected, crit.p2_corrected)
    # repr, not a numpy format: the shortest text that reads back as the same float
    rows = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    with open(args.output, "w", encoding="ascii") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
    return 0


@functools.cache  # its 6 parsers and 25 add_argument calls cost about 5 counts-block classifies
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The photon-gate parser, and each command's own parser by name."""
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
    cla.add_argument("--format", choices=("csv", "binary"),
                     help="time-tag file layout, csv by default; a counts block refuses it")
    cla.add_argument("--pulse-period-ns", type=_ns,
                     help="float or ratio n/d, 500 by default; -5/2 as --pulse-period-ns=-5/2")
    cla.add_argument("--gate-offset-ns", type=_ns,
                     help="float or ratio n/d, 0 by default; -5/2 as --gate-offset-ns=-5/2")
    cla.add_argument("--gate-width-ns", type=_ns,
                     help="float or ratio n/d, 100 by default; -5/2 as --gate-width-ns=-5/2")
    cla.add_argument("--eta", type=float, help="detection efficiency calibration")
    cla.add_argument("--delta", type=float, help="channel imbalance")
    cla.add_argument("--gamma", type=float, help="background photons per pulse")
    cla.add_argument("--cycles", type=int, help="number of pulses observed")
    cla.set_defaults(func=_cmd_classify)

    swp = sub.add_parser("sweep", help="tabulate threshold or critical-value curves")
    curves = swp.add_subparsers(dest="curve", required=True)
    sbr = curves.add_parser("sbr0", help="SBR threshold against the mean click number")
    crit = curves.add_parser("critical", help="critical values against the boundary efficiency")
    for curve in (sbr, crit):
        curve.add_argument("--start", type=float, required=True)
        curve.add_argument("--stop", type=float, required=True)
        curve.add_argument("--points", type=int, required=True)
        curve.add_argument("--output", required=True, help="CSV destination")
    crit.add_argument("--delta", type=float, default=0.0)  # SBR0 reads the mean alone
    crit.add_argument("--gamma", type=float, default=0.0)
    crit.add_argument("--cycles", type=int, default=1_000_000)
    swp.set_defaults(func=_cmd_sweep)
    return parser, {"simulate": sim, "classify": cla, "sweep": swp}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    try:
        # a call led by a command goes to that command's parser, as the full
        # parser would hand it on; any other call, or arguments left over, goes
        # to the full parser, which words the usage error
        command = commands.get(argv[0]) if argv else None
        args, rest = command.parse_known_args(argv[1:]) if command else (None, argv)
        if args is None or rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0), message printed
        return exc.code
    try:
        # checked here, or a time-tag classify names fold_timetags' n_pulses
        if getattr(args, "cycles", None) is not None:  # pulse indices are int64
            _checked_int("cycles", args.cycles, "a positive integer", 1, 2**63)
        return args.func(args)
    except _USER_ERRORS as exc:
        # a RangeError starts with its field; one the user gave is named as the flag
        field, message = getattr(exc, "field", None), str(exc)
        if field and getattr(args, field, None) is not None:
            message = f"--{field.replace('_', '-')}{message[len(field):]}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
