"""Command-line interface, exercised through main(argv): in process, and each
command once more in a fresh interpreter."""

import argparse
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from photon_gate import (
    ClickCounts,
    Coherent,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    RangeError,
    SimConfig,
    classify,
    classify_counts,
    corrected_critical_values,
    counts_from_click_arrays,
    fold_timetags,
    read_counts_block,
    read_sim_config,
    records_from_click_arrays,
    sbr_threshold,
    simulate_click_arrays,
    simulate_pulses,
    stats_from_counts,
    systematic_deviation,
    write_counts_block,
    write_timetags_binary,
    write_timetags_csv,
)
from photon_gate import cli
from photon_gate.cli import _fmt, main
from photon_gate.criterion import _bounds
from photon_gate.timetags import GateConfig

EXIT_BY_DECISION = {
    Decision.SINGLE: 0,
    Decision.NOT_SINGLE: 1,
    Decision.INDETERMINATE: 3,
}

SIM_CFG_TEXT = (
    "seed = 20260825\n"
    "source.kind = emitter_with_background\n"
    "params.eta = 0.1\n"
    "params.delta = 0.3\n"
    "params.gamma = 0.2\n"
    "params.cycles = 150000\n"
)


# whole counts-block reports, byte for byte but the measured duration line:
# name -> (tallies, source, calibration, exit code, report)
_README = (299613, 285696, 6951, 6951, 15)
PINNED_REPORTS = {
    "single": (_README, EmitterWithBackground(), dict(eta=0.1, gamma=0.2), 0, """\
pulses             299613
pattern counts     n00=285696 n10=6951 n01=6951 n11=15
p0 / p1 / p2       0.95355 / 0.0463999 / 5.00646e-05
mean clicks        0.0465
mandel q           -0.0443467
g2(0) estimate     0.0926158
measured SBR       21.5017
setup SBR          5.02504
SBR threshold      2.38259
critical p1 / p2   0.0459532 / 0.000273469
systematic d1/d2   0 / 0
margin (p1)        0.000446664
decision           single
"""),
    "not-single": ((100000, 90400, 4700, 4700, 200), IdealEmitters(2),
                   dict(eta=0.1, delta=0.3, gamma=0.2), 1, """\
pulses             100000
pattern counts     n00=90400 n10=4700 n01=4700 n11=200
p0 / p1 / p2       0.904 / 0.094 / 0.002
mean clicks        0.098
mandel q           -0.0571837
g2(0) estimate     0.832986
measured SBR       2.209
setup SBR          5.02504
SBR threshold      2.34722
critical p1 / p2   0.0956367 / 0.00113326
systematic d1/d2   -9.75696e-05 / 9.75696e-05
margin (p1)        -0.00163674
decision           not-single
"""),
    "no-clicks": ((1000, 1000, 0, 0, 0), EmitterWithBackground(), dict(eta=0.1, gamma=0.2), 3, """\
pulses             1000
pattern counts     n00=1000 n10=0 n01=0 n11=0
p0 / p1 / p2       1 / 0 / 0
mean clicks        0
mandel q           0
g2(0) estimate     n/a
measured SBR       n/a
setup SBR          n/a
SBR threshold      n/a
critical p1 / p2   n/a / n/a
systematic d1/d2   n/a / n/a
margin (p1)        n/a
decision           indeterminate
reason             no clicks observed; statistics carry no information
"""),
    "mean-above-1": ((1000, 100, 50, 50, 800), IdealEmitters(3), dict(eta=0.9), 3, """\
pulses             1000
pattern counts     n00=100 n10=50 n01=50 n11=800
p0 / p1 / p2       0.1 / 0.1 / 0.8
mean clicks        1.7
mandel q           -0.758824
g2(0) estimate     1.10727
measured SBR       n/a
setup SBR          n/a
SBR threshold      n/a
critical p1 / p2   n/a / n/a
systematic d1/d2   n/a / n/a
margin (p1)        n/a
decision           indeterminate
reason             mean click number 1.7000000000000002 exceeds 1; outside the test's domain
"""),
    "sbr-undefined": ((1000, 700, 0, 0, 300), Coherent(0.5), dict(eta=0.1), 3, """\
pulses             1000
pattern counts     n00=700 n10=0 n01=0 n11=300
p0 / p1 / p2       0.7 / 0 / 0.3
mean clicks        0.6
mandel q           0.4
g2(0) estimate     3.33333
measured SBR       n/a
setup SBR          inf
SBR threshold      1.97757
critical p1 / p2   0.49353 / 0.0533094
systematic d1/d2   0 / 0
margin (p1)        -0.49353
decision           indeterminate
reason             two-click rate too high for the signal+background model; measured SBR undefined
"""),
    "setup-sbr-below": (_README, EmitterWithBackground(), dict(eta=0.1, gamma=5.0), 3, """\
pulses             299613
pattern counts     n00=285696 n10=6951 n01=6951 n11=15
p0 / p1 / p2       0.95355 / 0.0463999 / 5.00646e-05
mean clicks        0.0465
mandel q           -0.0443467
g2(0) estimate     0.0926158
measured SBR       21.5017
setup SBR          0.226041
SBR threshold      2.38259
critical p1 / p2   0.0459532 / 0.000273469
systematic d1/d2   0 / 0
margin (p1)        0.000446664
decision           indeterminate
reason             setup SBR 0.226 below threshold 2.383; background too strong for a verdict
"""),
    "eta-0": (_README, EmitterWithBackground(), dict(eta=0.0, gamma=0.1), 3, """\
pulses             299613
pattern counts     n00=285696 n10=6951 n01=6951 n11=15
p0 / p1 / p2       0.95355 / 0.0463999 / 5.00646e-05
mean clicks        0.0465
mandel q           -0.0443467
g2(0) estimate     0.0926158
measured SBR       21.5017
setup SBR          10
SBR threshold      2.38259
critical p1 / p2   0.0459532 / 0.000273469
systematic d1/d2   0 / 0
margin (p1)        0.000446664
decision           indeterminate
reason             calibration eta = 0 detects no photon, yet clicks were observed
"""),
}


def assert_report_shows(out, counts, verdict):
    """Every criterion number in a printed report is the verdict's own."""
    fields = {line[:19].strip(): line[19:] for line in out.splitlines()}
    k = verdict.critical
    if k is None:  # an early gate: no critical values were computed
        assert fields["critical p1 / p2"] == "n/a / n/a"
        assert fields["systematic d1/d2"] == "n/a / n/a"
    else:
        assert fields["critical p1 / p2"] == f"{_fmt(k.p1_corrected)} / {_fmt(k.p2_corrected)}"
        assert fields["systematic d1/d2"] == f"{_fmt(k.delta_p1)} / {_fmt(k.delta_p2)}"
    assert fields["SBR threshold"] == _fmt(verdict.sbr0)
    assert fields["setup SBR"] == _fmt(verdict.setup_sbr)
    assert fields["measured SBR"] == _fmt(verdict.measured_sbr)
    assert fields["margin (p1)"] == _fmt(verdict.margin_p1)
    assert fields["decision"] == verdict.decision.value
    if k is not None:  # decided or SBR-gated
        d1, d2 = systematic_deviation(verdict.params)
        assert (k.delta_p1, k.delta_p2) == (d1, d2)
        _, p1_bound, _ = _bounds(stats_from_counts(counts).mean_n)
        assert k.p1_corrected == (
            p1_bound - d1 + p1_bound * (1.0 - p1_bound) / verdict.params.cycles
        )


@pytest.fixture
def sim_cfg(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(SIM_CFG_TEXT)
    return path


class TestSimulate:
    def test_writes_matching_counts_block(self, tmp_path, sim_cfg, capsys):
        out = tmp_path / "run.counts"
        # eta = 0 detects nothing: no clicks, and a report with no critical values
        dark = tmp_path / "dark.cfg"
        dark.write_text(SIM_CFG_TEXT.replace("params.eta = 0.1", "params.eta = 0"))
        for cfg in (sim_cfg, dark):
            assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
            report = capsys.readouterr().out
            counts, config = read_counts_block(out)
            assert counts == simulate_pulses(config)
            assert config.seed == 20260825
            assert f"pulses             {counts.n_all}" in report
            assert_report_shows(
                report, counts, classify(stats_from_counts(counts), config.params)
            )
        assert counts.n_00 == counts.n_all and "\nsystematic d1/d2   n/a / n/a\n" in report

    def test_reruns_are_byte_identical(self, tmp_path, sim_cfg):
        a, b = tmp_path / "a.counts", tmp_path / "b.counts"
        assert main(["simulate", "--config", str(sim_cfg), "--output", str(a)]) == 0
        assert main(["simulate", "--config", str(sim_cfg), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, sim_cfg):
        a, b = tmp_path / "a.counts", tmp_path / "b.counts"
        main(["simulate", "--config", str(sim_cfg), "--output", str(a)])
        main(["simulate", "--config", str(sim_cfg), "--output", str(b),
              "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()
        _, config = read_counts_block(b)
        assert config.seed == 99

    def test_cycles_override(self, tmp_path, sim_cfg):
        out = tmp_path / "run.counts"
        main(["simulate", "--config", str(sim_cfg), "--output", str(out),
              "--cycles", "2000"])
        counts, config = read_counts_block(out)
        assert counts.n_all == 2000 and config.params.cycles == 2000

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CFG_TEXT + "seed = 1\n")  # duplicate key
        rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and ":7:" in err

    def test_out_of_range_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        text = SIM_CFG_TEXT.replace("params.eta = 0.1", "params.eta = 1.5")
        # a form feed ends no line, so params.eta stays line 3
        for text in (text, text.replace("background\n", "background\f\n")):
            cfg.write_text(text)
            rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: {cfg}:3: params.eta must be in [0, 1], got 1.5\n")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope"),
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestClassifyCountsBlock:
    def test_exit_matches_library_verdict(self, tmp_path, sim_cfg, capsys):
        out = tmp_path / "run.counts"
        main(["simulate", "--config", str(sim_cfg), "--output", str(out)])
        capsys.readouterr()
        counts, config = read_counts_block(out)
        verdict = classify(stats_from_counts(counts), config.params)
        rc = main(["classify", "--input", str(out)])
        assert rc == EXIT_BY_DECISION[verdict.decision]
        assert_report_shows(capsys.readouterr().out, counts, verdict)

    @pytest.mark.parametrize("field,value", [
        ("eta", 0.12), ("delta", 0.1), ("gamma", 1.5), ("cycles", 100_000),
    ], ids=("eta", "delta", "gamma", "cycles"))
    def test_flag_overrides_echoed_params(self, tmp_path, sim_cfg, capsys, field, value):
        out = tmp_path / "run.counts"
        main(["simulate", "--config", str(sim_cfg), "--output", str(out)])
        capsys.readouterr()
        counts, config = read_counts_block(out)
        echoed = config.params
        override = DetectionParams(**{
            "eta": echoed.eta, "delta": echoed.delta, "gamma": echoed.gamma,
            "cycles": echoed.cycles, field: value,
        })
        verdict = classify(stats_from_counts(counts), override)
        rc = main(["classify", "--input", str(out), f"--{field}", str(value)])
        if field == "cycles":  # a block is classified over its own pulses only
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: --cycles must equal the block's pulse count 150000, got 100000\n")
            return
        assert rc == EXIT_BY_DECISION[verdict.decision]
        assert_report_shows(capsys.readouterr().out, counts, verdict)

    def test_block_is_classified_over_its_own_pulses(self, tmp_path, sim_cfg, capsys):
        # the echoed config says 150000 pulses, the tallies 1000
        block = tmp_path / "run.counts"
        counts = ClickCounts(1000, 950, 25, 24, 1)
        config = read_sim_config(sim_cfg)
        p = config.params
        # a config of numpy scalars is written, and classified, as plain numbers
        numpy_typed = SimConfig(source=config.source, seed=np.int64(config.seed), params=(
            DetectionParams(eta=np.float64(p.eta), delta=np.float32(p.delta),
                            gamma=np.float64(p.gamma), cycles=np.int64(p.cycles))))
        for written in (config, numpy_typed):
            write_counts_block(block, counts, written)
            params = read_counts_block(block)[1].params
            verdict = classify(stats_from_counts(counts), replace(params, cycles=1000))
            for flags in ([], ["--cycles", "1000"]):
                assert main(["classify", "--input", str(block), *flags]) == (
                    EXIT_BY_DECISION[verdict.decision])
                assert_report_shows(capsys.readouterr().out, counts, verdict)

    def test_non_ascii_line_is_numbered(self, tmp_path, sim_cfg, capsys):
        # a non-ASCII byte after the magic line must not route the block to
        # the CSV reader, whose header error would name line 1
        out = tmp_path / "bad.counts"
        main(["simulate", "--config", str(sim_cfg), "--output", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        lines[1] += " # \u00e9"
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["classify", "--input", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}:2: line is not ASCII\n"

    def test_reports_measured_duration(self, tmp_path, sim_cfg, capsys, monkeypatch):
        out = tmp_path / "run.counts"
        main(["simulate", "--config", str(sim_cfg), "--output", str(out)])
        capsys.readouterr()
        clock = iter([10.0, 12.5])
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        main(["classify", "--input", str(out)])
        assert "duration           2.500 s\n" in capsys.readouterr().out

    def test_heavy_background_is_indeterminate(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "seed = 3\nsource.kind = coherent\nsource.mu = 0.3\n"
            "params.eta = 0.5\ncycles = 100000\n"
        )
        out = tmp_path / "run.counts"
        main(["simulate", "--config", str(cfg), "--output", str(out)])
        capsys.readouterr()
        rc = main(["classify", "--input", str(out), "--gamma", "5.0"])
        assert rc == 3
        assert "threshold" in capsys.readouterr().out

    @staticmethod
    def readme_block(tmp_path, **params):
        """The README tallies in a counts block echoing params."""
        counts = ClickCounts(n_all=299613, n_00=285696, n_10=6951, n_01=6951, n_11=15)
        config = SimConfig(source=EmitterWithBackground(),
                           params=DetectionParams(cycles=counts.n_all, **params), seed=1)
        path = tmp_path / "run.counts"
        write_counts_block(path, counts, config)
        return path

    def test_balanced_report_prints_unsigned_zero(self, tmp_path, capsys):
        path = self.readme_block(tmp_path, eta=0.1, gamma=0.2)
        main(["classify", "--input", str(path)])
        assert "\nsystematic d1/d2   0 / 0\n" in capsys.readouterr().out

    def test_no_signal_calibration_exits_3(self, tmp_path, capsys):
        path = self.readme_block(tmp_path, eta=0.1, gamma=0.2)
        assert main(["classify", "--input", str(path), "--eta", "0", "--gamma", "0.1"]) == 3
        out = capsys.readouterr().out
        assert "decision           indeterminate\n" in out and "eta = 0" in out

    def test_mean_above_one_report(self, tmp_path, capsys):
        counts = ClickCounts(n_all=1000, n_00=100, n_10=50, n_01=50, n_11=800)
        config = SimConfig(source=IdealEmitters(3),
                           params=DetectionParams(eta=0.9, cycles=1000), seed=1)
        path = tmp_path / "run.counts"
        write_counts_block(path, counts, config)
        verdict = classify(stats_from_counts(counts), config.params)
        assert verdict.critical is None
        assert "exceeds 1" in verdict.reason
        assert main(["classify", "--input", str(path)]) == 3
        assert_report_shows(capsys.readouterr().out, counts, verdict)

    @pytest.mark.parametrize("name", PINNED_REPORTS)
    def test_report_bytes_are_pinned(self, tmp_path, capsys, name):
        tallies, source, calibration, rc, report = PINNED_REPORTS[name]
        counts = ClickCounts(*tallies)
        params = DetectionParams(cycles=counts.n_all, **calibration)
        path = tmp_path / "run.counts"
        write_counts_block(path, counts, SimConfig(source=source, params=params, seed=1))
        assert main(["classify", "--input", str(path)]) == rc
        out, err = capsys.readouterr()
        assert err == ""
        assert re.fullmatch(r"(?s)(.*\n)duration           \d+\.\d{3} s\n", out)[1] == report


class TestClassifyTimetags:
    @pytest.fixture
    def tag_arrays(self):
        config = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=0.4, cycles=50_000),
            seed=17,
        )
        click_a, click_b = simulate_click_arrays(config)
        gate = GateConfig(500, 0, 100)
        return records_from_click_arrays(click_a, click_b, gate)

    def test_csv_and_binary_agree(self, tmp_path, tag_arrays, capsys):
        def without_duration(out):
            # the duration line is a measured time, not a result
            return [line for line in out.splitlines() if not line.startswith("duration")]

        def classify_both(channels, timestamps, *flags):
            write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
            write_timetags_binary(tmp_path / "t.bin", channels, timestamps)
            rc_csv = main(["classify", "--input", str(tmp_path / "t.csv"), *flags])
            out_csv = capsys.readouterr().out
            rc_bin = main(["classify", "--input", str(tmp_path / "t.bin"), "--format", "binary",
                           *flags])
            out_bin = capsys.readouterr().out
            assert without_duration(out_csv) == without_duration(out_bin)
            assert rc_csv == rc_bin != 2  # 0, 1 or 3 is a verdict
            return rc_csv, out_csv

        # a lone emitter with ample counts
        assert classify_both(*tag_arrays, "--cycles", "50000")[0] == 0
        rng = np.random.default_rng(5)
        # 60 000 tags of up to 12 digits fill over two 256 KiB CSV reads, one in-gate tag
        # per about 170 000 pulses: the fold tallies by sort
        sparse = (rng.integers(0, 2, 60_000).astype(np.uint8),
                  np.sort(rng.integers(0, 10**12, 60_000)))
        classify_both(*sparse)
        assert (tmp_path / "t.csv").stat().st_size > 2 * 256 * 1024

        def per_tag_counts(channels, timestamps):
            # each tag's pulse and gate, as sets: the fold's counts without --cycles
            a, b = ({t // 500 for c, t in zip(channels.tolist(), timestamps.tolist())
                     if c == code and t % 500 < 100} for code in (0, 1))
            n_all, n_11 = int(timestamps.max()) // 500 + 1, len(a & b)
            return (f"pattern counts     n00={n_all - len(a | b)} n10={len(a) - n_11} "
                    f"n01={len(b) - n_11} n11={n_11}\n")

        # 200 000 tags on 100 000 pulses, half in the 100 ns gate and often several of one
        # channel in one gate: the fold tallies by table
        timestamps = np.sort(rng.integers(0, 100_000, 200_000) * 500
                             + rng.integers(0, 200, 200_000))
        channels = rng.integers(0, 2, timestamps.size).astype(np.uint8)
        assert per_tag_counts(channels, timestamps) in classify_both(channels, timestamps)[1]
        # 70 000 A tags, then 70 000 B tags on pulses that overlap A's: each channel
        # spans more than one read of either file, and B's first reads go back in time
        a, b = (np.sort(rng.integers(low, low + 100_000, 70_000) * 500
                        + rng.integers(0, 200, 70_000)) for low in (0, 30_000))
        channels = np.repeat(np.array([0, 1], np.uint8), 70_000)
        timestamps = np.concatenate([a, b])
        assert per_tag_counts(channels, timestamps) in classify_both(channels, timestamps)[1]
        # A 10 ns into each of 1000 pulses, inside the gate; every B tag 200 ns in, outside it
        start = np.arange(1000) * 500
        out = classify_both(np.repeat(np.array([0, 1], np.uint8), 1000),
                            np.concatenate([start + 10, start + 200]), "--cycles", "1000")[1]
        assert "pattern counts     n00=0 n10=1000 n01=0 n11=0\n" in out

    def test_report_shows_back_solved_calibration(self, tmp_path, capsys):
        # no --gamma: the decision uses a gamma back-solved from the
        # measured SBR, and the systematic shift it implies is nonzero
        config = SimConfig(
            source=EmitterWithBackground(),
            params=DetectionParams(eta=0.1, gamma=0.5, cycles=200_000),
            seed=23,
        )
        click_a, click_b = simulate_click_arrays(config)
        channels, timestamps = records_from_click_arrays(
            click_a, click_b, GateConfig(500, 0, 100)
        )
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        rc = main(["classify", "--input", str(tmp_path / "t.csv"),
                   "--delta", "0.3", "--cycles", "200000"])
        counts = counts_from_click_arrays(click_a, click_b)
        verdict = classify_counts(counts, delta=0.3, cycles=200_000)
        assert rc == EXIT_BY_DECISION[verdict.decision]
        assert verdict.params.gamma > 0.0
        assert systematic_deviation(verdict.params)[0] < 0.0
        assert_report_shows(capsys.readouterr().out, counts, verdict)

    def test_calibration_flags_reach_classify_counts(self, tmp_path, tag_arrays, capsys):
        channels, timestamps = tag_arrays
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        rc = main(["classify", "--input", str(tmp_path / "t.csv"),
                   "--eta", "0.35", "--gamma", "0.05"])
        # no --cycles: the pulse count comes from the last tag, as the fold gives it
        counts = fold_timetags([(channels, timestamps)], GateConfig(500, 0, 100))
        verdict = classify_counts(counts, eta=0.35, gamma=0.05)
        assert (verdict.params.eta, verdict.params.gamma) == (0.35, 0.05)
        assert rc == EXIT_BY_DECISION[verdict.decision]
        out = capsys.readouterr().out
        assert f"pulses             {counts.n_all}\n" in out
        assert_report_shows(out, counts, verdict)

    def test_pulse_count_inferred_from_last_tag(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("channel,timestamp_ns\nA,10\nB,520\n")
        expected = classify_counts(ClickCounts(2, 0, 1, 1, 0))
        rc = main(["classify", "--input", str(path)])
        assert rc == EXIT_BY_DECISION[expected.decision]
        assert "pulses             2" in capsys.readouterr().out

    def test_empty_stream_needs_cycles(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("channel,timestamp_ns\n")
        assert main(["classify", "--input", str(path)]) == 2
        assert "--cycles" in capsys.readouterr().err

    def test_gate_flags_respected(self, tmp_path, tag_arrays, capsys):
        channels, timestamps = tag_arrays
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        # clicks sit at the gate center (50 ns); a 10 ns gate misses them
        rc = main(["classify", "--input", str(tmp_path / "t.csv"),
                   "--gate-width-ns", "10", "--cycles", "50000"])
        assert rc == 3  # nothing detected -> indeterminate
        counts = ClickCounts(50_000, 50_000, 0, 0, 0)
        verdict = classify_counts(counts, cycles=50_000)
        assert verdict.critical is None
        assert_report_shows(capsys.readouterr().out, counts, verdict)

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("channel,timestamp_ns\nA,ten\n")
        assert main(["classify", "--input", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_oversized_timestamp_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("channel,timestamp_ns\nA,10\nB,99999999999999999999\n")
        assert main(["classify", "--input", str(path)]) == 2
        assert ":3: timestamp must be < 2**63" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_unsorted_record_names_the_file(self, tmp_path, capsys, fmt):
        path = tmp_path / f"u.{fmt}"
        if fmt == "csv":
            path.write_text("channel,timestamp_ns\nA,20\nA,10\n")
        else:  # the writers refuse unsorted records
            path.write_bytes(np.uint64(2).tobytes() + b"A" + np.uint64(20).tobytes()
                             + b"A" + np.uint64(10).tobytes())
        assert main(["classify", "--input", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: record 1: channel A timestamps are not sorted (10 after 20)\n")

    @pytest.mark.parametrize("fmt,body,message", [
        ("csv", b"channel,timestamp_ns\nA,10\nA,ten\n",
         ":3: timestamp must be an integer, got 'ten'"),
        ("binary", np.uint64(2).tobytes() + b"A" + np.uint64(10).tobytes()
         + b"C" + np.uint64(20).tobytes(), ": record 1: channel byte 0x43 not A/B"),
    ], ids=("csv", "binary"))
    def test_reader_error_names_the_file_once(self, tmp_path, capsys, fmt, body, message):
        path = tmp_path / f"t.{fmt}"
        path.write_bytes(body)
        assert main(["classify", "--input", str(path), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_epoch_scale_tags_fold_exactly(self, tmp_path, capsys):
        # Unix-epoch timestamps: float64 would round the A tag (last ns of
        # pulse k - 1) up to 500 k, one pulse too many and inside a gate
        k = 1_760_000_000_000_000_000 // 500
        path = tmp_path / "t.csv"
        path.write_text(f"channel,timestamp_ns\nB,{500 * k - 450}\nA,{500 * k - 1}\n")
        expected = classify_counts(ClickCounts(k, k - 1, 0, 1, 0))
        rc = main(["classify", "--input", str(path)])
        assert rc == EXIT_BY_DECISION[expected.decision]
        out = capsys.readouterr().out
        assert f"pulses             {k}\n" in out
        assert f"n00={k - 1} n10=0 n01=1 n11=0" in out

    def test_fractional_period_folds_epoch_tags(self, tmp_path, capsys):
        # 12.5 ns pulses from k = 1.408e17: A 3 ns into pulse k, B 0.5 ns into k + 1
        k = 1_760_000_000_000_000_000 * 2 // 25
        path = tmp_path / "t.csv"
        path.write_text(f"channel,timestamp_ns\nA,{25 * k // 2 + 3}\nB,{25 * k // 2 + 13}\n")
        expected = classify_counts(ClickCounts(k + 2, k, 1, 1, 0))
        rc = main(["classify", "--input", str(path), "--pulse-period-ns", "12.5",
                   "--gate-width-ns", "5"])
        assert rc == EXIT_BY_DECISION[expected.decision]
        out = capsys.readouterr().out
        assert f"pulses             {k + 2}\n" in out
        assert f"pattern counts     n00={k} n10=1 n01=1 n11=0\n" in out

    def test_ratio_period_folds_as_its_fraction(self, tmp_path, capsys):
        # a 76 MHz period, 250/19 ns, is no float; its pulses start off the ns grid
        rng = np.random.default_rng(19)
        channels = rng.integers(0, 2, 400).astype(np.uint8)
        timestamps = np.sort(rng.integers(0, 5_000, 400))
        path = tmp_path / "t.csv"
        write_timetags_csv(path, channels, timestamps)
        chunks = [(channels, timestamps)]
        counts = fold_timetags(chunks, GateConfig(Fraction(250, 19), 0, 5), 400)
        rc = main(["classify", "--input", str(path), "--pulse-period-ns", "250/19",
                   "--gate-width-ns", "5", "--cycles", "400"])
        assert rc == EXIT_BY_DECISION[classify_counts(counts).decision]
        out = capsys.readouterr().out
        assert (f"pattern counts     n00={counts.n_00} n10={counts.n_10} "
                f"n01={counts.n_01} n11={counts.n_11}\n") in out

    @pytest.mark.parametrize("value", ["1/0", "x/2", "1.5/2", "x"])
    def test_bad_ratio_is_a_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "t.csv"
        path.write_text("channel,timestamp_ns\nA,10\n")
        assert main(["classify", "--input", str(path), "--pulse-period-ns", value]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --pulse-period-ns: invalid float or ratio value: {value!r}\n")

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["classify", "--input", str(tmp_path / "nope.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_binary_ingest_memory_does_not_grow_with_the_file(self, tmp_path, capsys):
        # tracemalloc sees numpy's buffers; a whole-file reader holds the file
        # plus its decoded arrays (6.4 and 12.5 MiB for these two files)
        peaks = []
        for n in (200_000, 400_000):
            rng = np.random.default_rng(n)
            path = tmp_path / f"{n}.bin"
            timestamps = np.sort(rng.integers(0, 500 * n, n))
            write_timetags_binary(path, rng.integers(0, 2, n).astype(np.uint8), timestamps)
            n_all = int(timestamps[-1]) // 500 + 1  # the pulse count without --cycles
            del timestamps
            tracemalloc.start()
            try:
                rc = main(["classify", "--input", str(path), "--format", "binary"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc != 2, capsys.readouterr().err
            assert f"pulses             {n_all}\n" in capsys.readouterr().out
        # a 65536-record chunk is 0.6 MB of records; doubling the file
        # (1.8 MB more) must not move the peak
        assert peaks[1] < 5 * 2**20, peaks
        assert peaks[1] - peaks[0] < 2**19, peaks


class TestSweep:
    def test_sbr0_matches_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # the tiny means are where eta*^2 / 2 would go subnormal (an underflow warning
        # is an error here)
        for start, stop, points in [("0.01", "1.0", 1000), ("1e-300", "1e-160", 5)]:
            rc = main(["sweep", "sbr0", "--start", start, "--stop", stop,
                       "--points", str(points), "--output", str(out)])
            assert rc == 0
            lines = out.read_text().splitlines()
            assert lines[0] == "mean_n,sbr0"
            assert len(lines) == points + 1
            for line in lines[1:]:
                mean_n, sbr0 = (float(v) for v in line.split(","))
                assert sbr0 == sbr_threshold(mean_n)

    @pytest.mark.parametrize("delta,gamma", [("0.3", "0.2"), ("0.3", "0")],
                             ids=("imbalance-and-background", "no-background"))
    def test_critical_rows_match_library(self, tmp_path, delta, gamma):
        # the corrected columns take numpy's sinh and exp, which may round
        # differently from the math module's in the last bit
        out = tmp_path / "crit.csv"
        rc = main(["sweep", "critical", "--start", "0.001", "--stop", "0.58", "--points", "1000",
                   "--delta", delta, "--gamma", gamma, "--cycles", "299613", "--output", str(out)])
        assert rc == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == np.linspace(0.001, 0.58, 1000).tolist()
        for eta, mean_n, p1_bound, p2_bound, p1_critical, p2_critical in rows:
            params = DetectionParams(eta=eta, delta=float(delta), gamma=float(gamma), cycles=299613)
            crit = corrected_critical_values(mean_n, params)
            assert mean_n == 2.0 * eta - 0.5 * eta * eta
            assert (p1_bound, p2_bound) == (crit.p1_bound, crit.p2_bound)
            assert abs(p1_critical - crit.p1_corrected) <= 2 * math.ulp(crit.p1_corrected)
            assert abs(p2_critical - crit.p2_corrected) <= 2 * math.ulp(crit.p2_corrected)

    @pytest.mark.parametrize("flags,message", [
        (["--delta", "0.9"],
         "--delta 0.9 at --stop 0.55: channel efficiency (1 + delta) * eta = 1.045 exceeds 1"),
        (["--delta", "1.5"], "--delta must be in [0, 1), got 1.5"),
        (["--gamma", "-1"], "--gamma must be finite and >= 0, got -1.0"),
    ], ids=("channel-efficiency", "delta", "gamma"))
    def test_critical_flags_are_checked_before_any_row(self, tmp_path, capsys, flags, message):
        out = tmp_path / "c.csv"
        argv = ["sweep", "critical", "--start", "0.01", "--stop", "0.55", *flags,
                "--output", str(out)]
        assert main([*argv, "--points", "5"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # an empty grid has no row to check, as in the sbr0 sweep
        assert main([*argv, "--points", "0"]) == 0
        assert out.read_text() == "eta,mean_n,p1_bound,p2_bound,p1_critical,p2_critical\n"

    @pytest.mark.parametrize("argv,text", [
        (["sbr0", "--start", "0.001", "--stop", "1", "--points", "5"],
         "mean_n,sbr0\n"
         "0.001,2.4135367177946776\n"
         "0.25075,2.2398688663664994\n"
         "0.5005,2.0551094379413413\n"
         "0.75025,1.855110939458784\n"
         "1.0,1.6322418823119005\n"),
        # no background: the deviations are 0 whatever numpy's sinh and exp round to
        (["critical", "--start", "0.001", "--stop", "0.58", "--points", "4",
          "--delta", "0.3", "--gamma", "0", "--cycles", "299613"],
         "eta,mean_n,p1_bound,p2_bound,p1_critical,p2_critical\n"
         "0.001,0.0019995,0.0019985,5e-07,0.0019985066569407793,4.999983311813907e-07\n"
         "0.19399999999999998,0.36918199999999995,0.33154599999999995,0.018817999999999994,"
         "0.3315467396983771,0.018817938374226493\n"
         "0.38699999999999996,0.6991154999999999,0.5493465,0.07488449999999998,"
         "0.549347326282314,0.07488426877901938\n"
         "0.58,0.9917999999999999,0.6554,0.1682,0.6554007538085463,0.16819953303508192\n"),
    ], ids=("sbr0", "critical"))
    def test_curves_are_pinned(self, tmp_path, argv, text):
        out = tmp_path / "curve.csv"
        assert main(["sweep", *argv, "--output", str(out)]) == 0
        assert out.read_bytes() == text.encode("ascii")

    def test_sbr0_empty_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "sbr0", "--start", "0.1", "--stop", "0.2",
                   "--points", "0", "--output", str(out)])
        assert rc == 0
        assert out.read_text() == "mean_n,sbr0\n"

    def test_critical_curve_ordering(self, tmp_path):
        out = tmp_path / "crit.csv"
        rc = main(["sweep", "critical", "--start", "0.01", "--stop", "0.5",
                   "--points", "20", "--delta", "0.3", "--gamma", "0.2",
                   "--cycles", "299613", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,mean_n,p1_bound,p2_bound,p1_critical,p2_critical"
        for line in lines[1:]:
            eta, mean_n, p1b, p2b, p1c, p2c = (float(v) for v in line.split(","))
            assert mean_n == 2 * eta - 0.5 * eta * eta
            assert p1c > p1b  # corrections push the one-click critical up
            assert p2c < p2b  # and the coincidence critical down

    def test_critical_stop_beyond_unit_mean_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "critical", "--start", "0.01", "--stop", "1.0",
                   "--points", "5", "--output", str(tmp_path / "c.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --stop 1.0 exceeds 0.585786, the largest boundary efficiency "
            "(its mean click number reaches 1)\n")

    @pytest.mark.parametrize(
        "start,stop,message",
        [
            ("0", "0.5", "--start must be > 0 (a mean click number), got 0.0"),
            ("0.5", "1.5", "--stop 1.5 exceeds 1, the largest mean click number"),
        ],
    )
    def test_sbr0_bounds_name_the_flag(self, tmp_path, capsys, start, stop, message):
        rc = main(["sweep", "sbr0", "--start", start, "--stop", stop,
                   "--points", "5", "--output", str(tmp_path / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "mean_n" not in err

    @pytest.mark.parametrize("flag,value", [("--delta", "0.3"), ("--gamma", "0.2"),
                                            ("--cycles", "10")])
    def test_sbr0_refuses_the_calibration_flags(self, tmp_path, capsys, flag, value):
        # the threshold depends on the mean click number alone
        out = tmp_path / "s.csv"
        rc = main(["sweep", "sbr0", "--start", "0.1", "--stop", "1", "--points", "3",
                   flag, value, "--output", str(out)])
        assert rc == 2
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_name_comes_first(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--start", "0.1", "sbr0", "--stop", "1", "--points", "3",
                   "--output", str(out)])
        assert rc == 2
        assert "error: argument curve: invalid choice: '0.1'" in capsys.readouterr().err
        assert not out.exists()

    def test_critical_negative_start_names_the_flag(self, tmp_path, capsys):
        rc = main(["sweep", "critical", "--start", "-0.1", "--stop", "0.3",
                   "--points", "3", "--output", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--start must be >= 0 (a detection efficiency), got -0.1" in err
        assert "eta" not in err.replace("detection efficiency", "")
        assert not (tmp_path / "c.csv").exists()

    def test_reversed_range_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "sbr0", "--start", "0.9", "--stop", "0.1",
                   "--points", "3", "--output", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

    def test_negative_points_exits_2(self, tmp_path):
        rc = main(["sweep", "sbr0", "--start", "0.1", "--stop", "0.9",
                   "--points", "-1", "--output", str(tmp_path / "s.csv")])
        assert rc == 2


@pytest.mark.parametrize("command", ["classify-timetags", "simulate", "classify-counts",
                                     "sweep-critical"])
def test_bad_cycles_names_the_flag(tmp_path, sim_cfg, capsys, command):
    tags, block, out = tmp_path / "ok.csv", tmp_path / "run.counts", tmp_path / "o"
    tags.write_text("channel,timestamp_ns\nA,10\n")
    write_counts_block(block, ClickCounts(1000, 950, 25, 24, 1), read_sim_config(sim_cfg))
    argv = {
        "classify-timetags": ["classify", "--input", str(tags)],
        "simulate": ["simulate", "--config", str(sim_cfg), "--output", str(out)],
        "classify-counts": ["classify", "--input", str(block)],
        "sweep-critical": ["sweep", "critical", "--start", "0.01", "--stop", "0.5",
                           "--points", "5", "--output", str(out)],
    }[command]
    assert main([*argv, "--cycles", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --cycles must be a positive integer, got 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify-timetags", "simulate", "sweep-critical"])
def test_huge_cycles_exit_2_with_one_short_line(tmp_path, sim_cfg, capsys, command):
    tags, out = tmp_path / "ok.csv", tmp_path / "o"
    tags.write_text("channel,timestamp_ns\nA,10\n")
    argv = {
        "classify-timetags": ["classify", "--input", str(tags)],
        "simulate": ["simulate", "--config", str(sim_cfg), "--output", str(out)],
        "sweep-critical": ["sweep", "critical", "--start", "0.01", "--stop", "0.5",
                           "--points", "5", "--output", str(out)],
    }[command]
    # pulse indices are int64: 2**63 and up would overflow a float or an index
    assert main([*argv, "--cycles", str(10**400)]) == 2
    assert capsys.readouterr() == ("", "error: --cycles must be below 2**63, got 1e+400\n")
    assert main([*argv, "--cycles", str(2**63)]) == 2
    assert capsys.readouterr().err == f"error: --cycles must be below 2**63, got {2**63}\n"
    assert not out.exists()


@pytest.mark.parametrize("cycles", [0, 2**63, 10**400], ids=("zero", "2-63", "10-400"))
def test_one_pulse_count_rule(tmp_path, capsys, cycles):
    # the calibration, the fold and the flag refuse a pulse count in the same words
    ch, ts = np.array([0], dtype=np.uint8), np.array([10])
    refusals = []
    for name, refuse in [("cycles", lambda: DetectionParams(eta=0.1, cycles=cycles)),
                         ("n_pulses", lambda: fold_timetags([(ch, ts)], GateConfig(500, 0, 100),
                                                            cycles))]:
        with pytest.raises(RangeError) as exc:
            refuse()
        assert exc.value.field == name and str(exc.value).startswith(f"{name} must be ")
        refusals.append(str(exc.value)[len(name):])
    tags = tmp_path / "ok.csv"
    tags.write_text("channel,timestamp_ns\nA,10\n")
    assert main(["classify", "--input", str(tags), "--cycles", str(cycles)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --cycles must be ")
    refusals.append(err[len("error: --cycles"):-1])
    assert refusals[0] == refusals[1] == refusals[2]


@pytest.mark.parametrize("flags", [[], ["--cycles", "5"]], ids=("plain", "cycles"))
def test_huge_block_tally_exits_2_with_one_short_line(tmp_path, sim_cfg, capsys, flags):
    block = tmp_path / "run.counts"
    write_counts_block(block, ClickCounts(1000, 950, 25, 24, 1), read_sim_config(sim_cfg))
    text = block.read_text().replace("n_all = 1000", f"n_all = {10**400}")
    block.write_text(text.replace("n_00 = 950", f"n_00 = {10**400 - 50}"))
    assert main(["classify", "--input", str(block), *flags]) == 2
    assert capsys.readouterr() == (
        "", f"error: {block}:2: n_all must be below 2**63, got 1e+400\n")
@pytest.mark.parametrize("command,flags,message", [
    ("classify-counts", ["--eta", "2"], "--eta must be in [0, 1], got 2.0"),
    ("classify-timetags", ["--eta", "2"], "--eta must be in [0, 1], got 2.0"),
    ("classify-counts", ["--gamma", "-1"], "--gamma must be finite and >= 0, got -1.0"),
    ("classify-timetags", ["--gamma", "-1"], "--gamma must be finite and >= 0, got -1.0"),
    ("classify-counts", ["--delta", "1"], "--delta must be in [0, 1), got 1.0"),
    ("simulate", ["--seed", "-1"], "--seed must be an unsigned 64-bit integer, got -1"),
    # no one flag is at fault, so none is named
    ("classify-counts", ["--eta", "1"],
     "channel efficiency (1 + delta) * eta = 1.3 exceeds 1"),
    ("classify-timetags", ["--pulse-period-ns", "0"], "--pulse-period-ns must be positive, got 0.0"),
    ("classify-timetags", ["--gate-offset-ns", "-1"], "--gate-offset-ns must be >= 0, got -1.0"),
    ("classify-timetags", ["--gate-width-ns", "-1"], "--gate-width-ns must be positive, got -1.0"),
    # a ratio is echoed as typed, reduced
    ("classify-timetags", ["--gate-width-ns=-10/4"], "--gate-width-ns must be positive, got -5/2"),
    ("classify-timetags", ["--pulse-period-ns", "1/3"],
     "--pulse-period-ns must be in [1, 2**63 / 9) ns, got 1/3"),
])
def test_bad_value_names_the_flag(tmp_path, sim_cfg, capsys, command, flags, message):
    tags, block, out = tmp_path / "ok.csv", tmp_path / "run.counts", tmp_path / "o"
    tags.write_text("channel,timestamp_ns\nA,10\n")
    write_counts_block(block, ClickCounts(1000, 950, 25, 24, 1), read_sim_config(sim_cfg))
    argv = {
        "classify-timetags": ["classify", "--input", str(tags)],
        "classify-counts": ["classify", "--input", str(block)],
        "simulate": ["simulate", "--config", str(sim_cfg), "--output", str(out)],
    }[command]
    assert main([*argv, *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--format", "csv"), ("--format", "binary"),
    ("--pulse-period-ns", "500"), ("--pulse-period-ns", "0"),
    ("--gate-offset-ns", "0"), ("--gate-offset-ns", "-1"),
    ("--gate-width-ns", "100"), ("--gate-width-ns", "-1"),
])
def test_counts_block_refuses_time_tag_flags(tmp_path, sim_cfg, capsys, flag, value):
    # a block holds its tallies, so a gate or layout flag would be ignored
    block = tmp_path / "run.counts"
    write_counts_block(block, ClickCounts(1000, 950, 25, 24, 1), read_sim_config(sim_cfg))
    assert main(["classify", "--input", str(block), f"{flag}={value}"]) == 2
    assert capsys.readouterr() == (
        "", f"error: {flag} is a time-tag flag; a counts block does not read it\n")


class TestRepeatedCalls:
    """main(argv) called again and again in one process, as a batch driver
    or the benchmark calls it."""

    @pytest.mark.parametrize("argv,message", [
        (["classify"], "the following arguments are required: --input"),
        (["sweep", "sbr0", "--start", "x", "--stop", "1", "--points", "2", "--output", "s.csv"],
         "argument --start: invalid float value: 'x'"),
        (["fold"], "argument command: invalid choice: 'fold'"),
        ([], "the following arguments are required: command"),
    ], ids=("missing-input", "bad-float", "unknown-command", "no-command"))
    def test_usage_error_returns_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: photon-gate")
        assert f"error: {message}" in captured.err

    def test_help_returns_0(self, capsys):
        assert main(["classify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: photon-gate classify")

    def test_mixed_sequence_matches_each_call_alone(self, tmp_path, sim_cfg, capsys, monkeypatch):
        config = SimConfig(source=IdealEmitters(1), params=DetectionParams(eta=0.4, cycles=20_000),
                           seed=5)
        channels, timestamps = records_from_click_arrays(
            *simulate_click_arrays(config), GateConfig(500, 0, 100))
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        write_timetags_binary(tmp_path / "t.bin", channels, timestamps)
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(SIM_CFG_TEXT + "seed = 1\n")  # duplicate key
        block, sbr0, crit = (str(tmp_path / name) for name in ("run.counts", "s.csv", "c.csv"))
        calls = [
            ["simulate", "--config", str(sim_cfg), "--output", block, "--cycles", "20000"],
            ["classify", "--input", block],
            ["classify", "--input", str(tmp_path / "t.csv"), "--cycles", "20000"],
            ["classify", "--input", str(tmp_path / "t.bin"), "--format", "binary"],
            ["sweep", "sbr0", "--start", "0.01", "--stop", "1", "--points", "7", "--output", sbr0],
            ["sweep", "critical", "--start", "0.01", "--stop", "0.5", "--points", "7",
             "--output", crit],
            ["classify", "--input", block, "--eta", "high"],
            ["simulate", "--config", str(bad_cfg), "--output", block],
            ["classify", "--input", block, "--gamma", "1.5"],
        ]
        written = (block, sbr0, crit)

        def run(argv):
            rc = main(argv)
            out, err = capsys.readouterr()
            # the duration line is a measured time, not a result
            out = [line for line in out.splitlines() if not line.startswith("duration")]
            files = [Path(f).read_bytes() if Path(f).exists() else None for f in written]
            return rc, out, err, files

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()  # a fresh parser, as in a one-shot process
            alone.append(run(argv))
        assert [r[0] for r in alone] == [0, 0, 0, 0, 0, 0, 2, 2, 3]

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        for f in written:
            Path(f).unlink()
        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv, want in zip(calls, alone):
            assert run(argv) == want, argv
        assert built.count("photon-gate") <= 1, built


class TestDispatch:
    """main parses a call led by a command with that command's own parser;
    every call gives what the full parser alone would give."""

    CASES = {
        "simulate": ["simulate", "--config", "{cfg}", "--output", "{out}", "--cycles", "2000"],
        "classify-block": ["classify", "--input", "{block}", "--eta", "0.1"],
        "classify-tags": ["classify", "--input", "{tags}", "--gate-width-ns=50", "--cycles", "4"],
        "sweep": ["sweep", "sbr0", "--start", "0.1", "--stop", "1", "--points", "3",
                  "--output", "{out}"],
        "help": ["--help"],
        "h": ["-h"],
        "h-then-command": ["-h", "classify"],
        "simulate-h": ["simulate", "-h"],
        "classify-h": ["classify", "-h"],
        "sweep-help": ["sweep", "--help"],
        "sweep-critical-help": ["sweep", "critical", "--help"],
        "sbr0-calibration-flag": ["sweep", "sbr0", "--start", "0.1", "--stop", "1",
                                  "--points", "3", "--output", "{out}", "--gamma", "0.2"],
        "flag-before-curve": ["sweep", "--start", "0.1", "sbr0", "--stop", "1", "--points", "3",
                              "--output", "{out}"],
        "missing-input": ["classify"],
        "missing-stop": ["sweep", "sbr0", "--start", "0.1"],
        "bad-eta": ["classify", "--input", "{block}", "--eta", "high"],
        "bad-choice": ["classify", "--input", "{tags}", "--format", "xml"],
        "negative-ratio": ["classify", "--input", "{tags}", "--gate-width-ns", "-5/2"],
        "abbreviated": ["classify", "--inp", "{block}"],
        "unrecognized-flag": ["classify", "--input", "{block}", "--bogus"],
        "extra-argument": ["classify", "--input", "{block}", "extra"],
        "double-dash": ["classify", "--", "--input", "{block}"],
        "bad-value-in-file": ["classify", "--input", "{block}", "--cycles", "5"],
        "unknown-command": ["fold"],
        "unknown-flag": ["--bogus"],
        "empty": [],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_full_parser(self, tmp_path, sim_cfg, capsys, monkeypatch, case):
        block, tags, out = tmp_path / "run.counts", tmp_path / "t.csv", tmp_path / "out"
        write_counts_block(block, ClickCounts(1000, 950, 25, 24, 1), read_sim_config(sim_cfg))
        tags.write_text("channel,timestamp_ns\nA,10\nB,520\nA,1030\nB,1040\n")
        argv = [arg.format(cfg=sim_cfg, out=out, block=block, tags=tags)
                for arg in self.CASES[case]]

        def run():
            rc = main(list(argv))
            stdout, stderr = capsys.readouterr()
            # the duration line is a measured time, not a result
            stdout = [line for line in stdout.splitlines() if not line.startswith("duration")]
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return rc, stdout, stderr, written

        dispatched = run()
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))  # no command parser
        assert run() == dispatched


SRC = Path(cli.__file__).resolve().parents[1]

# main(argv) in a fresh interpreter, which then reports whether numpy and
# logging are loaded
_FRESH_MAIN = """\
import sys
from photon_gate.cli import main
rc = main(sys.argv[1:])
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}, "
                 f"logging loaded: {'logging' in sys.modules}")
sys.exit(rc)
"""


def run_fresh(code: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """python -c code argv, in a new process with the package's src on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=120)


class TestFreshProcess:
    """Each command in an interpreter of its own.  In-process tests share
    sys.modules, so a command that lacks an import of its own still passes
    there once another test has imported what it needs."""

    # name -> (argv, whether numpy stays unloaded, exit code: 0, a verdict's 1 or 3, or 2)
    CASES = {
        "classify-block": (["classify", "--input", "{block}"], True, 0),
        "classify-block-flags": (["classify", "--input", "{block}", "--eta", "0.2"], True, 0),
        "classify-block-error": (["classify", "--input", "{block}", "--cycles", "5"], True, 2),
        "help": (["--help"], True, 0),
        "classify-help": (["classify", "--help"], True, 0),
        "usage-error": (["classify"], True, 2),
        "bad-flag-value": (["classify", "--input", "{block}", "--eta", "high"], True, 2),
        "simulate": (["simulate", "--config", "{cfg}", "--output", "{out}", "--cycles", "2000"],
                     False, 0),
        "classify-csv": (["classify", "--input", "{csv}", "--cycles", "4"], False, 3),
        "classify-binary": (["classify", "--input", "{bin}", "--format", "binary"], False, 3),
        "classify-csv-malformed": (["classify", "--input", "{bad_csv}"], False, 2),
        "sweep-sbr0": (["sweep", "sbr0", "--start", "0.1", "--stop", "1", "--points", "3",
                        "--output", "{out}"], False, 0),
        "sweep-critical": (["sweep", "critical", "--start", "0.01", "--stop", "0.5",
                            "--points", "3", "--delta", "0.3", "--gamma", "0.2",
                            "--output", "{out}"], False, 0),
        "sweep-critical-refused": (["sweep", "critical", "--start", "0.01", "--stop", "0.55",
                                    "--points", "3", "--delta", "0.9", "--output", "{out}"],
                                   False, 2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_call_in_process(self, tmp_path, sim_cfg, capsys, case):
        block, out = tmp_path / "run.counts", tmp_path / "out"
        write_counts_block(block, ClickCounts(*_README), read_sim_config(sim_cfg))
        channels, timestamps = np.array([0, 1, 1, 0, 1]), np.array([10, 20, 520, 1030, 1040])
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        write_timetags_binary(tmp_path / "t.bin", channels, timestamps)
        (tmp_path / "bad.csv").write_text("channel,timestamp_ns\nA,ten\n")
        template, numpy_free, exit_code = self.CASES[case]
        argv = [arg.format(cfg=sim_cfg, out=out, block=block, csv=tmp_path / "t.csv",
                           bin=tmp_path / "t.bin", bad_csv=tmp_path / "bad.csv")
                for arg in template]

        def result(rc, stdout, stderr):
            # the duration line is a measured time, not a result
            stdout = [line for line in stdout.splitlines() if not line.startswith("duration")]
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return rc, stdout, stderr, written

        in_process = result(main(list(argv)), *capsys.readouterr())
        done = run_fresh(_FRESH_MAIN, *argv, cwd=tmp_path)
        stderr, _, loaded = done.stderr.rpartition("numpy loaded: ")
        assert result(done.returncode, done.stdout, stderr) == in_process
        assert done.returncode == exit_code, stderr
        # refusals included: the numpy-free commands never load it, the others run without
        # it imported beforehand; the numpy-free ones load no logging either
        numpy_loaded, logging_loaded = loaded.split(", logging loaded: ")
        assert numpy_loaded == ("False" if numpy_free else "True")
        if numpy_free:
            assert logging_loaded == "False"


class TestDroppedRecordsWarn:
    """In-gate records beyond --cycles are dropped with one WARNING of
    photon_gate.timetags.  Nothing configures logging, so its last resort
    prints the line to stderr; in process, pytest's logging plugin takes the
    record instead, so the stderr line is checked in a fresh interpreter."""

    # name -> (tags, --cycles, exit code, report lines, stderr line)
    CASES = {
        "some": ("A,10\nB,520\nA,1030\n", "1", 0,
                 ["pattern counts     n00=0 n10=1 n01=0 n11=0"],
                 "2 in-gate records beyond the pulse window [0, 1) dropped\n"),
        "all": ("A,1010\nB,1520\n", "2", 3,
                ["pattern counts     n00=2 n10=0 n01=0 n11=0",
                 "reason             no clicks observed; statistics carry no information"],
                "2 in-gate records beyond the pulse window [0, 2) dropped\n"),
    }

    def argv(self, tmp_path, case):
        tags, cycles, *_ = self.CASES[case]
        (tmp_path / "t.csv").write_text(f"channel,timestamp_ns\n{tags}")
        return ["classify", "--input", str(tmp_path / "t.csv"), "--cycles", cycles]

    @pytest.mark.parametrize("case", CASES)
    def test_fresh_process_prints_the_report_and_the_line(self, tmp_path, capsys, case):
        _, _, exit_code, shown, line = self.CASES[case]

        def report(out):  # the duration line is a measured time, not a result
            return [row for row in out.splitlines() if not row.startswith("duration")]

        argv = self.argv(tmp_path, case)
        assert main(argv) == exit_code
        in_process = report(capsys.readouterr().out)
        assert set(shown) <= set(in_process)
        done = run_fresh(_FRESH_MAIN, *argv, cwd=tmp_path)
        assert (done.returncode, done.stderr.rpartition("numpy loaded: ")[0]) == (exit_code, line)
        assert report(done.stdout) == in_process

    def test_in_process_one_warning_is_logged(self, tmp_path, caplog):
        assert main(self.argv(tmp_path, "some")) == 0
        assert [(r.name, r.levelname, r.getMessage() + "\n") for r in caplog.records] == [
            ("photon_gate.timetags", "WARNING", self.CASES["some"][-1])]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_the_old_log_variable_prints_nothing(tmp_path, sim_cfg, monkeypatch, command):
    # the CLI reads no PHOTON_GATE_LOG: at debug a fresh run still writes no stderr line
    monkeypatch.setenv("PHOTON_GATE_LOG", "debug")
    argv = {
        "simulate": ["simulate", "--config", str(sim_cfg), "--output",
                     str(tmp_path / "run.counts"), "--cycles", "2000"],
        "sweep": ["sweep", "sbr0", "--start", "0.5", "--stop", "0.5", "--points", "1",
                  "--output", str(tmp_path / "s.csv")],
    }[command]
    done = run_fresh(_FRESH_MAIN, *argv, cwd=tmp_path)
    assert (done.returncode, done.stderr.rpartition("numpy loaded: ")[0]) == (0, "")
