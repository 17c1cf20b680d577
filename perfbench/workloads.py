"""The three workloads: seeded inputs, the ops that drive photon_gate,
and the checks on every op's output.

``generate`` runs in the parent process and writes a workload's inputs
plus a manifest of expected results into a directory.  The worker
process builds a workload from that directory and runs its ops in a
closed loop: one client, the next op starts when the previous returns.
Every op goes through a public entry point, ``photon_gate.cli.main`` with
stdout captured or an exported library function, resolved at call time
so that the tracer's wrappers see it.

Why these three workloads
-------------------------
simulate  CLI ``simulate`` at 1e6 pulses, one op per source per round:
          IdealEmitters(3), EmitterWithBackground, Coherent(0.5).  Time
          goes to ``simulate`` and ``_kernels``; the fixed-photon and
          Poisson kernels are one layer used two ways.
ingest    CLI ``classify`` on a 2.5e5-tag CSV file, then on a 1e6-tag
          binary file, about half the tags outside the gate.  Time goes
          to ``timetags``: CSV parsing, the binary read and the fold.
verdicts  CLI ``classify`` on counts blocks, ``classify_counts`` over a
          batch that reaches every gate, and both CLI sweeps.  No pulses
          are simulated and no tags folded: ``criterion``, ``analytic``,
          ``model`` and the ``cli`` front end do the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import photon_gate
import photon_gate.cli
import photon_gate.criterion
from tracing import gate_of

ETA, DELTA, GAMMA = 0.1, 0.3, 0.2
PERIOD_NS, GATE_OFFSET_NS, GATE_WIDTH_NS = 500, 0, 100
SBR0_MAX = 1.0 + math.sqrt(2.0)

# ops of 50-300 ms: enough of them in a run for steady medians, each short
# enough to pair with the reference loop timed beside it (calibration.py)
SIZES = {
    "full": {"sim_pulses": 1_000_000, "csv_pulses": 600_000, "bin_pulses": 2_400_000,
             "csv_tags": 250_000, "bin_tags": 1_000_000,
             "batch": 240, "blocks": 12, "cli_per_round": 8, "sweep_points": 1000,
             "speedup_pulses": 10_000_000},
    "toy": {"sim_pulses": 100_000, "csv_pulses": 4_000, "bin_pulses": 8_000,
            "csv_tags": 1_700, "bin_tags": 3_300,
            "batch": 40, "blocks": 6, "cli_per_round": 2, "sweep_points": 20,
            "speedup_pulses": 131_072},
}

SIM_SOURCES = [  # (op kind, config lines)
    ("ideal", "source.kind = ideal_emitters\nsource.s = 3"),
    ("background", "source.kind = emitter_with_background"),
    ("coherent", "source.kind = coherent\nsource.mu = 0.5"),
]
INGEST_SOURCE = photon_gate.Coherent(mu=2.0)


class CheckFailed(Exception):
    """An op's output is wrong."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = photon_gate.cli.main(argv)
    return rc, out.getvalue()


def report_fields(text: str) -> dict[str, str]:
    """The ``label   value`` lines of a CLI run report."""
    fields = {}
    for line in text.splitlines():
        label, _, value = line.partition("  ")
        fields[label.strip()] = value.strip()
    return fields


def reported_counts(text: str) -> tuple[int, ...]:
    fields = report_fields(text)
    patterns = dict(part.split("=") for part in fields["pattern counts"].split())
    return (int(fields["pulses"]), *(int(patterns[k]) for k in ("n00", "n10", "n01", "n11")))


def counts_tuple(c) -> tuple[int, ...]:
    return (c.n_all, c.n_00, c.n_10, c.n_01, c.n_11)


class Op(NamedTuple):
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    kind: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], None]


def _within_5_sigma(counts: tuple[int, ...], expected) -> None:
    n_all, n00, n10, n01, n11 = counts
    for name, observed, p in (("p0", n00, expected.p0), ("p1", n10 + n01, expected.p1),
                              ("p2", n11, expected.p2)):
        sigma = math.sqrt(p * (1.0 - p) / n_all)
        check(abs(observed / n_all - p) <= 5.0 * sigma,
              f"{name}={observed / n_all!r} more than 5 sigma from closed form {p!r}")


# ---------------------------------------------------------------- simulate --


def _generate_simulate(rng, sizes, out: Path) -> dict:
    configs = []
    for kind, lines in SIM_SOURCES:
        path = out / f"{kind}.cfg"
        path.write_text(f"{lines}\nparams.eta = {ETA}\nparams.delta = {DELTA}\n"
                        f"params.gamma = {GAMMA}\nparams.cycles = {sizes['sim_pulses']}\n"
                        "seed = 0\n", encoding="ascii")
        configs.append({"kind": kind, "config": str(path)})
    return {"configs": configs, "seeds": [int(s) for s in rng.integers(0, 2**63, 64)],
            "sizes": {"pulses": sizes["sim_pulses"]}}


class Simulate:
    primary, secondary, latency = ("ideal", "background"), ("coherent",), "background"
    references = {"ideal": "blocks", "background": "blocks", "coherent": "blocks"}

    def __init__(self, manifest: dict, out: Path) -> None:
        self.m, self.out = manifest, out
        self.pulses = manifest["sizes"]["pulses"]
        self.blocks: dict[tuple[str, int], bytes] = {}
        self.expected = {}
        for entry in manifest["configs"]:
            config = photon_gate.read_sim_config(entry["config"])
            self.expected[entry["kind"]] = photon_gate.expected_stats(config.source, config.params)

    def round(self, r: int) -> list[Op]:
        # each seed runs twice in a row, so every other op repeats a seed
        seed = self.m["seeds"][(r // 2) % len(self.m["seeds"])]
        return [self._op(entry, seed) for entry in self.m["configs"]]

    def first_op(self) -> Op:
        entry = next(e for e in self.m["configs"] if e["kind"] == self.latency)
        return self._op(entry, self.m["seeds"][0])

    def _op(self, entry: dict, seed: int) -> Op:
        kind = entry["kind"]
        output = self.out / f"{kind}.counts"
        argv = ["simulate", "--config", entry["config"], "--output", str(output),
                "--seed", str(seed)]

        def check_fn(result):
            rc, text = result
            check(rc == 0, f"simulate exited {rc}")
            data = output.read_bytes()
            block = dict(line.split(" = ", 1) for line in data.decode("ascii").splitlines()[1:])
            counts = tuple(int(block[k]) for k in ("n_all", "n_00", "n_10", "n_01", "n_11"))
            check(counts[0] == self.pulses, f"n_all {counts[0]} != {self.pulses}")
            check(reported_counts(text) == counts, "report and counts block disagree")
            _within_5_sigma(counts, self.expected[kind])
            previous = self.blocks.setdefault((kind, seed), data)
            check(previous == data, f"seed {seed} gave a different {kind} counts block")

        return Op(kind, self.pulses, lambda: run_cli(argv), check_fn)


# ------------------------------------------------------------------ ingest --


def _tag_file(rng, n_pulses: int, n_tags: int, seed: int):
    """Clicks from the simulator placed at gate centres, topped up with
    seeded tags outside the gate to n_tags in all (the pulse counts make
    that about as many as the clicks); sorted by time, so each channel is
    sorted too.  Returns (channels, timestamps, expected counts)."""
    params = photon_gate.DetectionParams(eta=ETA, delta=DELTA, gamma=GAMMA, cycles=n_pulses)
    config = photon_gate.SimConfig(source=INGEST_SOURCE, params=params, seed=seed)
    click_a, click_b = photon_gate.simulate_click_arrays(config)
    gate = photon_gate.GateConfig(PERIOD_NS, GATE_OFFSET_NS, GATE_WIDTH_NS)
    channels, stamps = photon_gate.records_from_click_arrays(click_a, click_b, gate)
    n_out = n_tags - channels.size
    pulse = rng.integers(0, n_pulses, n_out)
    position = rng.integers(GATE_OFFSET_NS + GATE_WIDTH_NS, PERIOD_NS, n_out)
    channels = np.concatenate([channels, rng.integers(0, 2, n_out).astype(np.uint8)])
    stamps = np.concatenate([stamps, pulse * PERIOD_NS + position])
    order = np.argsort(stamps, kind="stable")
    expected = counts_tuple(photon_gate.counts_from_click_arrays(click_a, click_b))
    return channels[order], stamps[order], expected


def _generate_ingest(rng, sizes, out: Path) -> dict:
    files = {}
    seeds = rng.integers(0, 2**63, 2)
    ch, ts, expected = _tag_file(rng, sizes["csv_pulses"], sizes["csv_tags"], int(seeds[0]))
    photon_gate.write_timetags_csv(out / "tags.csv", ch, ts)
    photon_gate.write_timetags_binary(out / "same_tags.bin", ch, ts)
    files["csv"] = {"path": str(out / "tags.csv"), "format": "csv", "tags": int(ch.size),
                    "pulses": sizes["csv_pulses"], "expected": expected}
    files["same"] = {"path": str(out / "same_tags.bin"), "format": "binary",
                     "tags": int(ch.size), "pulses": sizes["csv_pulses"], "expected": expected}
    ch, ts, expected = _tag_file(rng, sizes["bin_pulses"], sizes["bin_tags"], int(seeds[1]))
    photon_gate.write_timetags_binary(out / "tags.bin", ch, ts)
    files["bin"] = {"path": str(out / "tags.bin"), "format": "binary", "tags": int(ch.size),
                    "pulses": sizes["bin_pulses"], "expected": expected}
    for entry in files.values():
        entry["bytes"] = Path(entry["path"]).stat().st_size
    return {"files": files, "sizes": {
        "csv_tags": files["csv"]["tags"], "csv_bytes": files["csv"]["bytes"],
        "bin_tags": files["bin"]["tags"], "bin_bytes": files["bin"]["bytes"],
        "csv_pulses": sizes["csv_pulses"], "bin_pulses": sizes["bin_pulses"]}}


class Ingest:
    primary, secondary, latency = ("csv",), ("bin",), "csv"
    references = {"csv": "parse", "bin": "fold"}

    def __init__(self, manifest: dict, out: Path) -> None:
        self.files = manifest["files"]

    def round(self, r: int) -> list[Op]:
        return [self._op("csv"), self._op("bin")]

    def first_op(self) -> Op:
        # the binary copy of the CSV tags must give the CSV's counts
        return self._op("same")

    def _op(self, key: str) -> Op:
        entry = self.files[key]
        argv = ["classify", "--input", entry["path"], "--format", entry["format"],
                "--pulse-period-ns", str(PERIOD_NS), "--gate-offset-ns", str(GATE_OFFSET_NS),
                "--gate-width-ns", str(GATE_WIDTH_NS), "--cycles", str(entry["pulses"])]

        def check_fn(result):
            rc, text = result
            check(rc in (0, 1, 3), f"classify exited {rc}")
            counts = reported_counts(text)
            check(counts == tuple(entry["expected"]),
                  f"{key}: counts {counts} != generating clicks {tuple(entry['expected'])}")

        return Op(key, entry["tags"], lambda: run_cli(argv), check_fn)


# ---------------------------------------------------------------- verdicts --


def _clear_class(stats, eta: float, delta: float, gamma: float, cycles: int) -> str | None:
    """The decision the closed-form statistics of a calibrated source
    call for, when every gate and the margin are beyond 5 sigma of
    sampling noise; otherwise None.  Critical values follow the paper's
    formulas, written out here independently of ``criterion``."""
    m, p1, p2 = stats.mean_n, stats.p1, stats.p2
    sigma_m = math.sqrt(max(p1 + 4.0 * p2 - m * m, 0.0) / cycles)
    sigma_1 = math.sqrt(p1 * (1.0 - p1) / cycles)
    if m * cycles < 50 or m + 6.0 * sigma_m >= 1.0:
        return None
    if p1 - (2.0 * math.sqrt(p2) - 3.0 * p2) <= 5.0 * sigma_1 + 5.0 / math.sqrt(cycles):
        return None
    b = -2.0 * math.expm1(-eta * gamma / 2.0)
    if b > 0.0 and eta / b < 1.25 * SBR0_MAX:
        return None
    eta_star = m / (1.0 + math.sqrt(1.0 - m / 2.0))
    p1_bound = m - eta_star**2
    x = delta * eta * gamma / 2.0
    d1 = -((2.0 - eta) * 2.0 * math.sinh(x / 2.0) ** 2 + delta * eta * math.sinh(x)) \
        * math.exp(-eta * gamma / 2.0)
    margin = p1 - (p1_bound - d1 + p1_bound * (1.0 - p1_bound) / cycles)
    if abs(margin) <= 5.0 * (sigma_1 + sigma_m):
        return None
    return "single" if margin > 0.0 else "not-single"


def _verdict_case(rng, kind: str) -> dict:
    """One seeded measurement of a kind of light: counts sampled from its
    closed-form stats, its calibration, and its closed-form class."""
    cycles = int(10 ** rng.uniform(4, 7))
    delta = float(rng.uniform(0.0, 0.3))
    if kind == "bunched":  # outside the signal+background model; no source
        p2 = rng.uniform(0.02, 0.2)
        p1 = rng.uniform(0.2, 0.8) * (2.0 * math.sqrt(p2) - 3.0 * p2)
        stats = photon_gate.PhotonStats(p0=1.0 - p1 - p2, p1=p1, p2=p2)
        source, eta, gamma, expect = None, None, None, None
    else:
        if kind == "single":
            eta, gamma = 10 ** rng.uniform(-4, math.log10(0.6)), rng.uniform(0.0, 0.05)
            source = photon_gate.EmitterWithBackground()
        elif kind == "multi":
            eta, gamma = 10 ** rng.uniform(-3, math.log10(0.25)), 0.0
            source = photon_gate.IdealEmitters(s=int(rng.integers(2, 5)))
        elif kind == "coherent":
            eta, gamma = 0.1, rng.uniform(0.0, 0.05)
            source = photon_gate.Coherent(mu=10 ** rng.uniform(-2, 1))
        elif kind == "bright":  # mean clicks between about 1.05 and 1.2
            eta, gamma = 0.1, rng.uniform(0.0, 0.05)
            source = photon_gate.Coherent(mu=rng.uniform(15.0, 18.0))
        elif kind == "background":  # setup SBR far below threshold
            eta, gamma = rng.uniform(0.05, 0.3), rng.uniform(1.0, 10.0)
            source = photon_gate.EmitterWithBackground()
        else:  # dark: about one click expected, often none at all
            eta, gamma, cycles = 10 ** rng.uniform(-5, -4), 0.0, 10_000
            source = photon_gate.EmitterWithBackground()
        eta, gamma = float(eta), float(gamma)
        params = photon_gate.DetectionParams(eta=eta, delta=delta, gamma=gamma, cycles=cycles)
        stats = photon_gate.expected_stats(source, params)
        expect = _clear_class(stats, eta, delta, gamma, cycles)
    probs = np.clip([stats.p0, stats.p1, stats.p2], 0.0, None)
    n0, n1, n2 = (int(v) for v in rng.multinomial(cycles, probs / probs.sum()))
    n10 = int(rng.binomial(n1, (1.0 + delta) / 2.0))
    return {"kind": kind, "source": source, "counts": [cycles, n0, n10, n1 - n10, n2],
            "eta": eta, "delta": delta, "gamma": gamma, "cycles": cycles, "expect": expect}


_CASE_KINDS = ("single", "multi", "coherent", "background", "bright", "dark", "bunched")
_CASE_WEIGHTS = (0.3, 0.25, 0.15, 0.1, 0.05, 0.05, 0.1)


def _generate_verdicts(rng, sizes, out: Path) -> dict:
    batch = [_verdict_case(rng, str(kind))
             for kind in rng.choice(_CASE_KINDS, size=sizes["batch"], p=_CASE_WEIGHTS)]
    # every gate at least once, whatever the draw
    batch[: len(_CASE_KINDS)] = [_verdict_case(rng, kind) for kind in _CASE_KINDS]
    for case in batch:
        if case.pop("source") is None or rng.random() < 0.25:
            # uncalibrated: classify_counts assumes eta and back-solves gamma
            case.update(eta=None, gamma=None, cycles=None, expect=None)
    blocks = []
    for i in range(sizes["blocks"]):
        kind = _CASE_KINDS[i % 4]
        case = _verdict_case(rng, kind)
        for _ in range(100):  # single and multi blocks are redrawn until their class is clear
            if case["expect"] or kind not in ("single", "multi"):
                break
            case = _verdict_case(rng, kind)
        params = photon_gate.DetectionParams(eta=case["eta"], delta=case["delta"],
                                             gamma=case["gamma"], cycles=case["cycles"])
        config = photon_gate.SimConfig(source=case["source"], params=params,
                                       seed=int(rng.integers(2**63)))
        path = out / f"block{i}.counts"
        photon_gate.write_counts_block(path, photon_gate.ClickCounts(*case["counts"]), config)
        blocks.append({"path": str(path), "expect": case["expect"]})
    sweeps = {
        "sbr0": ["--start", repr(rng.uniform(1e-4, 0.05)), "--stop", repr(rng.uniform(0.95, 1.0))],
        "critical": ["--start", repr(rng.uniform(1e-3, 0.05)), "--stop", repr(rng.uniform(0.5, 0.58)),
                     "--delta", repr(rng.uniform(0.0, 0.3)), "--gamma", repr(rng.uniform(0.0, 0.5)),
                     "--cycles", str(int(10 ** rng.uniform(4, 7)))],
    }
    return {"batch": batch, "blocks": blocks, "sweeps": sweeps, "points": sizes["sweep_points"],
            "cli_per_round": sizes["cli_per_round"],
            "sizes": {"batch": len(batch), "blocks": len(blocks),
                      "sweep_points": sizes["sweep_points"]}}


_EXIT = {"single": 0, "not-single": 1, "indeterminate": 3}


def _check_verdict(decision: str, margin: float, expect: str | None, gate: str | None) -> None:
    if gate is not None:
        check((gate == "decided") == (decision != "indeterminate"),
              f"gate {gate} but decision {decision}")
    check((decision == "single") == (decision != "indeterminate" and margin > 0.0),
          f"decision {decision} with margin {margin!r}")
    if expect is not None:
        check(decision == expect, f"decision {decision}, closed form says {expect}")


class Verdicts:
    primary, secondary, latency = ("batch",), ("sweep-sbr0", "sweep-critical"), "classify"
    references = {"batch": "parse", "sweep-sbr0": "parse", "sweep-critical": "parse",
                  "classify": "parse"}

    def __init__(self, manifest: dict, out: Path) -> None:
        self.m, self.out = manifest, out
        self.batch = [(photon_gate.ClickCounts(*c["counts"]),
                       {"eta": c["eta"], "delta": c["delta"], "gamma": c["gamma"],
                        "cycles": c["cycles"]}, c["expect"]) for c in manifest["batch"]]
        self.next_block = 0

    def round(self, r: int) -> list[Op]:
        ops = []
        for _ in range(self.m["cli_per_round"]):
            ops.append(self._classify(self.m["blocks"][self.next_block]))
            self.next_block = (self.next_block + 1) % len(self.m["blocks"])
        ops.append(Op("batch", len(self.batch), self._run_batch, self._check_batch))
        ops += [self._sweep(curve) for curve in ("sbr0", "critical")]
        return ops

    def first_op(self) -> Op:
        return self._classify(self.m["blocks"][0])

    def _classify(self, block: dict) -> Op:
        argv = ["classify", "--input", block["path"]]

        def check_fn(result):
            rc, text = result
            fields = report_fields(text)
            decision = fields["decision"]
            check(rc == _EXIT.get(decision), f"classify exited {rc} for {decision}")
            margin = fields["margin (p1)"]
            _check_verdict(decision, math.nan if margin == "n/a" else float(margin),
                           block["expect"], None)

        return Op("classify", 1, lambda: run_cli(argv), check_fn)

    def _run_batch(self):
        classify_counts = photon_gate.criterion.classify_counts
        return [classify_counts(counts, **kw) for counts, kw, _ in self.batch]

    def _check_batch(self, verdicts) -> None:
        for (counts, _, expect), v in zip(self.batch, verdicts):
            mean_n = (counts.n_10 + counts.n_01 + 2 * counts.n_11) / counts.n_all
            _check_verdict(v.decision.value, v.margin_p1, expect, gate_of(mean_n, v))

    def _sweep(self, curve: str) -> Op:
        output = self.out / f"sweep_{curve}.csv"
        points = self.m["points"]
        argv = ["sweep", curve, *self.m["sweeps"][curve], "--points", str(points),
                "--output", str(output)]

        def check_fn(result):
            rc, _ = result
            check(rc == 0, f"sweep {curve} exited {rc}")
            rows = np.loadtxt(output, delimiter=",", skiprows=1, ndmin=2)
            check(rows.shape[0] == points, f"sweep {curve}: {rows.shape[0]} rows")
            if curve == "sbr0":
                sbr0 = rows[:, 1]
                check(bool(np.all((sbr0 >= 1.63) & (sbr0 <= SBR0_MAX))), "sbr0 out of range")
                check(bool(np.all(np.diff(sbr0) <= 0.0)), "sbr0 not decreasing")
            else:
                mean_n, p1_bound, p2_bound = rows[:, 1], rows[:, 2], rows[:, 3]
                check(bool(np.all(np.abs(p1_bound + 2.0 * p2_bound - mean_n) <= 1e-12)),
                      "p1_bound + 2 p2_bound != mean_n")

        return Op(f"sweep-{curve}", points, lambda: run_cli(argv), check_fn)


WORKLOADS = {"simulate": Simulate, "ingest": Ingest, "verdicts": Verdicts}
_GENERATORS = {"simulate": _generate_simulate, "ingest": _generate_ingest,
               "verdicts": _generate_verdicts}


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    manifest = _GENERATORS[workload](rng, SIZES[size], out)
    manifest["size"], manifest["workload"] = size, workload
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="ascii")
    return manifest
