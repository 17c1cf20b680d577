"""Monte Carlo simulator: determinism, the exact click rule, and
agreement with the closed forms."""

import math

import numpy as np
import pytest

from photon_gate import (
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    RangeError,
    SimConfig,
    counts_from_click_arrays,
    expected_stats,
    simulate_click_arrays,
    simulate_pulses,
    stats_from_counts,
)
from photon_gate.simulate import _block_clicks


def pulls(counts, source, params):
    est = stats_from_counts(counts)
    ref = expected_stats(source, params)
    out = []
    for name in ("p0", "p1", "p2"):
        p = getattr(ref, name)
        sigma = math.sqrt(p * (1.0 - p) / counts.n_all)
        diff = abs(getattr(est, name) - p)
        out.append(diff / sigma if sigma > 0.0 else diff)
    return out


class TestDeterminism:
    CFG = SimConfig(
        source=EmitterWithBackground(),
        params=DetectionParams(eta=0.1, delta=0.3, gamma=0.2, cycles=150_000),
        seed=123,
        block_size=1 << 14,
    )

    def test_repeatable(self):
        assert simulate_pulses(self.CFG) == simulate_pulses(self.CFG)

    def test_workers_do_not_change_results(self):
        sequential = simulate_pulses(self.CFG)
        assert simulate_pulses(self.CFG, workers=4) == sequential
        assert simulate_pulses(self.CFG, workers=7) == sequential

    def test_seed_changes_results(self):
        other = SimConfig(
            source=self.CFG.source, params=self.CFG.params, seed=124,
            block_size=self.CFG.block_size,
        )
        assert simulate_pulses(other) != simulate_pulses(self.CFG)

    def test_click_arrays_match_tallies(self):
        a, b = simulate_click_arrays(self.CFG)
        assert counts_from_click_arrays(a, b) == simulate_pulses(self.CFG)
        a4, b4 = simulate_click_arrays(self.CFG, workers=4)
        assert np.array_equal(a, a4) and np.array_equal(b, b4)

    def test_partial_final_block(self):
        cfg = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=0.5, cycles=100_001),
            seed=9,
            block_size=1 << 16,
        )
        counts = simulate_pulses(cfg)
        assert counts.n_all == 100_001


class TestClickRule:
    """Exact consequences of the one-uniform-per-photon rule."""

    def test_perfect_single_emitter_always_clicks_once(self):
        cfg = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=1.0, cycles=50_000),
            seed=5,
            block_size=1 << 12,
        )
        counts = simulate_pulses(cfg)
        assert counts.n_00 == 0 and counts.n_11 == 0
        assert counts.n_10 + counts.n_01 == counts.n_all

    @pytest.mark.parametrize(
        "source,params",
        [
            (IdealEmitters(3), DetectionParams(eta=0.0, cycles=50_000)),
            (EmitterWithBackground(), DetectionParams(eta=0.0, gamma=0.5, cycles=50_000)),
            (Coherent(0.0), DetectionParams(eta=0.5, delta=0.3, gamma=0.0, cycles=50_000)),
        ],
        ids=("eta-0", "eta-0-background", "coherent-0-gamma-0"),
    )
    def test_no_light_never_clicks(self, source, params):
        counts = simulate_pulses(SimConfig(source=source, params=params, seed=6))
        assert counts.n_00 == counts.n_all

    @staticmethod
    def _written_out(rng, size, source, params):
        """The click rule pulse by pulse over the block's own draws:
        background uniforms (row A, row B; none for a background-free
        source), then a coherent source's photon numbers, then one
        uniform per photon."""
        eta1, eta2 = params.eta1, params.eta2
        gamma = 0.0 if isinstance(source, IdealEmitters) else params.gamma
        bg = rng.random((2, size)) if gamma > 0.0 else np.ones((2, size))
        if isinstance(source, Coherent):
            photons = rng.poisson(source.mu, size)
            per_pulse = np.split(rng.random(int(photons.sum())), np.cumsum(photons)[:-1])
        else:
            s = source.s if isinstance(source, IdealEmitters) else 1
            per_pulse = rng.random((s, size)).T
        click_a, click_b = np.zeros(size, bool), np.zeros(size, bool)
        for i in range(size):
            click_a[i] = bg[0, i] < 1.0 - math.exp(-gamma * eta1 / 2.0)
            click_b[i] = bg[1, i] < 1.0 - math.exp(-gamma * eta2 / 2.0)
            for u in per_pulse[i]:
                click_a[i] |= u < eta1 / 2.0
                click_b[i] |= u >= 1.0 - eta2 / 2.0
        return click_a, click_b

    @pytest.mark.parametrize(
        "source",
        [IdealEmitters(3), EmitterWithBackground(), Coherent(0.7)],
        ids=("fixed-3", "fixed-background", "coherent"),
    )
    def test_block_matches_written_out_rule(self, source):
        params = DetectionParams(eta=0.6, delta=0.25, gamma=0.4, cycles=2_500)
        cfg = SimConfig(source=source, params=params, seed=31, block_size=1_000)
        for k, size in ((0, 1_000), (2, 500)):
            rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(k))
            want_a, want_b = self._written_out(rng, size, source, params)
            got_a, got_b = _block_clicks(cfg, k, size)
            assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
            assert want_a.any() and want_b.any() and (want_a & want_b).any()


class TestAgainstClosedForms:
    M = 200_000

    @pytest.mark.parametrize(
        "source,params",
        [
            (IdealEmitters(2), DetectionParams(eta=0.3, delta=0.0, cycles=M)),
            (IdealEmitters(5), DetectionParams(eta=0.1, delta=0.3, cycles=M)),
            (EmitterWithBackground(), DetectionParams(eta=0.1, delta=0.3, gamma=0.5, cycles=M)),
            (Coherent(0.8), DetectionParams(eta=0.4, delta=0.2, gamma=0.1, cycles=M)),
        ],
        ids=("two-emitters", "five-unbalanced", "emitter-bg", "coherent"),
    )
    def test_within_four_sigma(self, source, params):
        counts = simulate_pulses(SimConfig(source=source, params=params, seed=777))
        assert max(pulls(counts, source, params)) < 4.0

    def test_single_emitter_never_coincides(self):
        cfg = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=0.9, cycles=100_000),
            seed=11,
        )
        counts = simulate_pulses(cfg)
        assert counts.n_11 == 0
        st = stats_from_counts(counts)
        assert st.q == -st.mean_n  # exact, not approximate

    def test_coherent_reference_run(self):
        mu = 0.10743456501197571
        params = DetectionParams(eta=1.0, cycles=250_000)
        counts = simulate_pulses(SimConfig(source=Coherent(mu), params=params, seed=2))
        assert max(pulls(counts, Coherent(mu), params)) < 4.0


class TestConfigValidation:
    def test_seed_range(self):
        with pytest.raises(RangeError):
            SimConfig(source=IdealEmitters(1), params=DetectionParams(eta=0.5), seed=-1)
        with pytest.raises(RangeError):
            SimConfig(source=IdealEmitters(1), params=DetectionParams(eta=0.5), seed=1 << 64)

    def test_block_size(self):
        with pytest.raises(RangeError):
            SimConfig(
                source=IdealEmitters(1), params=DetectionParams(eta=0.5),
                seed=1, block_size=0,
            )
