"""Acceptance suite: the end-to-end guarantees this package makes, one
test per criterion, each with pinned reference values and tolerances.
Every test records a PASS/FAIL line in the terminal summary."""

import math
import time
from contextlib import contextmanager

import numpy as np

import conftest
from photon_gate import (
    ClickCounts,
    Coherent,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    PhotonStats,
    SimConfig,
    boundary_eta,
    classify,
    classify_counts,
    corrected_critical_values,
    expected_stats,
    read_counts_block,
    relative_deviations,
    sbr_threshold,
    simulate_click_arrays,
    simulate_pulses,
    stats_from_counts,
    systematic_deviation,
    write_counts_block,
)
from photon_gate.cli import main

from _oracles import hbt_transform, poisson_source


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE FAIL [{number}] {description}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE PASS [{number}] {description}")


def binomial_pulls(counts, reference):
    """Per-outcome |estimate - truth| in units of the binomial sigma;
    outcomes with zero variance must match exactly."""
    estimate = stats_from_counts(counts)
    out = []
    for name in ("p0", "p1", "p2"):
        p = getattr(reference, name)
        sigma = math.sqrt(p * (1.0 - p) / counts.n_all)
        diff = abs(getattr(estimate, name) - p)
        out.append(diff / sigma if sigma > 0.0 else diff)
    return out


SAMPLE1 = ClickCounts(n_all=299613, n_00=285696, n_10=6951, n_01=6951, n_11=15)
CYCLES_REF = 299613


def gamma_from_sbr(eta, sbr):
    """Background level whose detected rate realizes the given
    signal-to-background ratio at signal level eta."""
    b = eta / sbr
    return -2.0 * math.log1p(-b / 2.0) / eta


def test_criterion_1_reference_sample_pipeline():
    with criterion(1, "reference sample 1 classifies Single with the frozen "
                      "statistics in under 1 s"):
        start = time.perf_counter()
        stats = stats_from_counts(SAMPLE1)
        verdict = classify_counts(SAMPLE1)
        elapsed = time.perf_counter() - start
        assert abs(stats.p1 - 0.0464) <= 5e-5
        assert abs(stats.p2 - 5e-5) <= 1e-6
        assert abs(stats.mean_n - 0.0465) <= 5e-5
        assert abs(stats.q - (-0.04435)) <= 1e-4
        assert abs(verdict.measured_sbr - 21.5) <= 0.5
        assert verdict.decision is Decision.SINGLE
        assert elapsed < 1.0


def test_criterion_2_reference_samples_2_and_3():
    rows = [
        # mean, p1, frozen corrected critical, background spec, decision
        (0.0372, 0.0370, 0.03685, ("sbr", 7.0), Decision.SINGLE),
        (0.0521, 0.0508, 0.05150, ("gamma", 0.2), Decision.NOT_SINGLE),
    ]
    with criterion(2, "reference samples 2-3: corrected one-click criticals "
                      "within 1.5e-4, decisions Single / NotSingle"):
        for mean, p1, critical_ref, background, expected in rows:
            p2 = (mean - p1) / 2.0
            stats = PhotonStats(p0=1.0 - p1 - p2, p1=p1, p2=p2)
            eta = boundary_eta(mean)
            kind, value = background
            gamma = gamma_from_sbr(eta, value) if kind == "sbr" else value
            params = DetectionParams(eta=eta, delta=0.3, gamma=gamma,
                                     cycles=CYCLES_REF)
            verdict = classify(stats, params)
            assert abs(verdict.p1_critical - critical_ref) <= 1.5e-4
            assert verdict.decision is expected


def test_criterion_3_coherent_reference():
    with criterion(3, "coherent reference: analytic P(1) = 0.0991 and a "
                      "1e6-pulse simulation agree within 4 sigma in under 5 s"):
        start = time.perf_counter()
        mu = -2.0 * math.log1p(-0.0523)  # detected mean 0.1046 at unit efficiency
        analytic = hbt_transform(poisson_source(mu))
        assert abs(analytic.mean_n - 0.1046) <= 5e-5
        assert abs(analytic.p1 - 0.0991) <= 5e-5
        params = DetectionParams(eta=1.0, cycles=1_000_000)
        counts = simulate_pulses(
            SimConfig(source=Coherent(mu), params=params, seed=20_260_825)
        )
        assert max(binomial_pulls(counts, analytic)) < 4.0
        assert time.perf_counter() - start < 5.0


def test_criterion_4_sbr_threshold_endpoints():
    with criterion(4, "SBR threshold runs from 2.4142 down to 1.63, "
                      "monotone on a 100-point grid"):
        assert abs(sbr_threshold(1e-9) - 2.4142) <= 0.005
        assert abs(sbr_threshold(1.0) - 1.63) <= 0.02
        grid = [sbr_threshold(float(m)) for m in np.linspace(0.01, 1.0, 100)]
        assert all(a > b for a, b in zip(grid, grid[1:]))


def test_criterion_5_deviation_identities():
    with criterion(5, "systematic deviations cancel exactly and relative "
                      "deviations keep their signs on a 1000-point grid; "
                      "balanced channels collapse to zero"):
        checked = 0
        for eta in np.linspace(0.02, 0.52, 10):
            for delta in np.linspace(0.0, 0.9, 10):
                for gamma in np.linspace(0.05, 2.0, 10):
                    params = DetectionParams(
                        eta=float(eta), delta=float(delta), gamma=float(gamma)
                    )
                    d1, d2 = systematic_deviation(params)
                    assert abs(d1 + d2) <= 1e-12
                    r1, r2 = relative_deviations(params)
                    assert r1 <= 0.0 <= r2
                    checked += 1
        assert checked == 1000
        for eta in (0.05, 0.3, 0.52):
            for gamma in (0.0, 0.2, 1.5):
                balanced = DetectionParams(eta=eta, delta=0.0, gamma=gamma)
                assert systematic_deviation(balanced) == (0.0, 0.0)


def test_criterion_6_simulation_matches_closed_forms():
    sources = [
        IdealEmitters(1),
        IdealEmitters(2),
        IdealEmitters(5),
        EmitterWithBackground(),
        Coherent(0.5),
    ]
    with criterion(6, "1e6-pulse simulations match the closed forms within "
                      "4 sigma over 30 source/efficiency/imbalance combos "
                      "in under 60 s"):
        start = time.perf_counter()
        worst = 0.0
        combos = 0
        for source in sources:
            gamma = 0.0 if isinstance(source, IdealEmitters) else 0.3
            for eta in (0.02, 0.1, 0.5):
                for delta in (0.0, 0.3):
                    params = DetectionParams(
                        eta=eta, delta=delta, gamma=gamma, cycles=1_000_000
                    )
                    counts = simulate_pulses(
                        SimConfig(source=source, params=params,
                                  seed=20_260_825 + combos)
                    )
                    reference = expected_stats(source, params)
                    worst = max(worst, max(binomial_pulls(counts, reference)))
                    combos += 1
        elapsed = time.perf_counter() - start
        assert combos == 30
        assert worst < 4.0
        assert elapsed < 60.0


def test_criterion_7_exact_sub_poissonian_fixtures():
    with criterion(7, "a lone emitter gives Q = -eta exactly and never "
                      "coincides in simulation; coherent light gives "
                      "Q = -mean/2 exactly"):
        for eta in (0.05, 0.3, 0.77, 1.0):
            stats = expected_stats(IdealEmitters(1), DetectionParams(eta=eta))
            assert abs(stats.q + eta) <= 1e-12
        for cycles in (1, 1000, 70_000, 200_001):
            counts = simulate_pulses(SimConfig(
                source=IdealEmitters(1),
                params=DetectionParams(eta=0.9, cycles=cycles),
                seed=31,
            ))
            assert counts.n_11 == 0
        for mu in (0.05, 0.1046, 0.8):
            for eta in (0.2, 1.0):
                stats = expected_stats(Coherent(mu), DetectionParams(eta=eta))
                assert abs(stats.q + stats.mean_n / 2.0) <= 1e-12


def test_criterion_8_deterministic_runs(tmp_path):
    config_text = (
        "seed = 424242\n"
        "source.kind = emitter_with_background\n"
        "params.eta = 0.1\n"
        "params.delta = 0.3\n"
        "params.gamma = 0.2\n"
        "params.cycles = 200000\n"
    )
    with criterion(8, "repeated simulation runs with one seed are "
                      "byte-identical, serial and parallel"):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(config_text)
        first, second = tmp_path / "a.counts", tmp_path / "b.counts"
        assert main(["simulate", "--config", str(cfg), "--output", str(first)]) == 0
        assert main(["simulate", "--config", str(cfg), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        # the CLI runs blocks on every core; its block must equal the
        # one written from a serial run of the echoed config
        counts, config = read_counts_block(first)
        serial = tmp_path / "serial.counts"
        write_counts_block(serial, simulate_pulses(config, workers=1), config)
        assert serial.read_bytes() == first.read_bytes()
        for workers in (2, 4, 7):
            assert simulate_pulses(config, workers=workers) == counts
        a1, b1 = simulate_click_arrays(config)
        a4, b4 = simulate_click_arrays(config, workers=4)
        assert np.array_equal(a1, a4) and np.array_equal(b1, b4)
        parallel = tmp_path / "c.counts"
        write_counts_block(parallel, simulate_pulses(config, workers=4), config)
        assert parallel.read_bytes() == first.read_bytes()


def test_criterion_9_critical_curve_shape():
    with criterion(9, "corrections shift the one-click critical up and the "
                      "coincidence critical down, the coincidence curve "
                      "growing faster in relative terms"):
        p1_bound, p1_corrected, p2_bound, p2_corrected = [], [], [], []
        for eta in np.linspace(0.01, 0.5, 50):
            eta = float(eta)
            mean_n = 2.0 * eta - 0.5 * eta * eta
            params = DetectionParams(eta=eta, delta=0.3, gamma=0.2,
                                     cycles=CYCLES_REF)
            crit = corrected_critical_values(mean_n, params)
            p1_bound.append(crit.p1_bound)
            p1_corrected.append(crit.p1_corrected)
            p2_bound.append(crit.p2_bound)
            p2_corrected.append(crit.p2_corrected)
        assert all(c > b for c, b in zip(p1_corrected, p1_bound))
        assert all(c < b for c, b in zip(p2_corrected, p2_bound))
        growth_p1 = (p1_corrected[-1] - p1_corrected[0]) / p1_corrected[0]
        growth_p2 = (p2_corrected[-1] - p2_corrected[0]) / p2_corrected[0]
        assert growth_p2 > growth_p1
