"""Imbalance deviations: closed form vs the two independent routes
(direct unbalanced statistics and brute-force enumeration)."""

import math

import numpy as np
import pytest

from photon_gate import (
    DetectionParams,
    EmitterWithBackground,
    expected_stats,
    relative_deviations,
    systematic_deviation,
)

from _oracles import joint_enumerate, single_with_background_stats

GRID = [
    DetectionParams(eta=eta, delta=delta, gamma=gamma)
    for eta in (0.01, 0.1, 0.3, 0.6)
    for delta in (0.0, 0.1, 0.3, 0.6)
    for gamma in (0.0, 0.1, 0.5, 1.0)
]


class TestUnbalancedStats:
    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0])
    def test_balanced_limit(self, eta, gamma):
        p = DetectionParams(eta=eta, delta=0.0, gamma=gamma)
        ub, bal = expected_stats(EmitterWithBackground(), p), single_with_background_stats(p)
        assert ub.p0 == pytest.approx(bal.p0, abs=1e-14)
        assert ub.p1 == pytest.approx(bal.p1, abs=1e-14)
        assert ub.p2 == pytest.approx(bal.p2, abs=1e-14)

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.8])
    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_against_enumeration(self, delta, gamma):
        p = DetectionParams(eta=0.15, delta=delta, gamma=gamma)
        ref = joint_enumerate(1, p.eta1, p.eta2, gamma=gamma)
        ub = expected_stats(EmitterWithBackground(), p)
        assert ub.p0 == pytest.approx(ref[0], abs=1e-12)
        assert ub.p1 == pytest.approx(ref[1], abs=1e-12)
        assert ub.p2 == pytest.approx(ref[2], abs=1e-12)


class TestSystematicDeviation:
    def test_frozen_values(self):
        d1, d2 = systematic_deviation(DetectionParams(eta=0.1, delta=0.3, gamma=0.2))
        assert d1 == pytest.approx(-9.756955112146468e-05, abs=1e-15)
        assert d2 == -d1
        d1, _ = systematic_deviation(
            DetectionParams(eta=0.023386734841638276, delta=0.3, gamma=0.2)
        )
        assert d1 == pytest.approx(-5.39630917204779e-06, abs=1e-16)
        d1, _ = systematic_deviation(DetectionParams(eta=0.5, delta=0.9, gamma=0.8))
        assert d1 == pytest.approx(-0.08662481669360045, abs=1e-12)

    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"{p.eta}-{p.delta}-{p.gamma}")
    def test_reconstruction_identity(self, params):
        # delta_p = balanced - unbalanced, computed by the honest difference
        d1, d2 = systematic_deviation(params)
        bal = single_with_background_stats(params)
        ub = expected_stats(EmitterWithBackground(), params)
        assert d1 == pytest.approx(bal.p1 - ub.p1, abs=1e-12)
        assert d2 == pytest.approx(bal.p2 - ub.p2, abs=1e-12)
        assert bal.p0 == pytest.approx(ub.p0, abs=1e-15)  # imbalance keeps P(0)

    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"{p.eta}-{p.delta}-{p.gamma}")
    def test_signs_and_cancellation(self, params):
        d1, d2 = systematic_deviation(params)
        assert d1 <= 0.0 <= d2
        assert d1 + d2 == 0.0

    def test_collapses_without_imbalance_or_background(self):
        for params in (DetectionParams(eta=0.3, delta=0.0, gamma=0.7),
                       DetectionParams(eta=0.3, delta=0.4, gamma=0.0),
                       DetectionParams(eta=0.0, delta=0.4, gamma=0.7)):
            d1, d2 = systematic_deviation(params)
            assert (d1, d2) == (0.0, 0.0)
            # -0.0 == 0.0, so only the sign shows it; a report would print "-0"
            assert math.copysign(1.0, d1) == math.copysign(1.0, d2) == 1.0

    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("delta", [0.1, 0.4, 0.9])
    @pytest.mark.parametrize("gamma", [0.2, 0.9])
    def test_literal_exponential_bracket(self, eta, delta, gamma):
        # same quantity written without the sinh rearrangement
        p = DetectionParams(eta=eta, delta=delta, gamma=gamma)
        x = delta * eta * gamma / 2.0
        bracket = (
            2.0
            - eta
            - (1.0 - p.eta1 / 2.0) * math.exp(-x)
            - (1.0 - p.eta2 / 2.0) * math.exp(x)
        )
        d1, _ = systematic_deviation(p)
        assert d1 == pytest.approx(bracket * math.exp(-eta * gamma / 2.0), abs=1e-15)


class TestRelativeDeviations:
    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("delta", [0.1, 0.3])
    @pytest.mark.parametrize("gamma", [0.1, 0.8])
    def test_signs(self, eta, delta, gamma):
        r1, r2 = relative_deviations(DetectionParams(eta=eta, delta=delta, gamma=gamma))
        assert r1 <= 0.0 <= r2

    def test_definitional_ratio(self):
        p = DetectionParams(eta=0.1, delta=0.3, gamma=0.2)
        r1, r2 = relative_deviations(p)
        d1, d2 = systematic_deviation(p)
        bal = single_with_background_stats(p)
        assert r1 == pytest.approx(d1 / bal.p1, abs=1e-15)
        assert r2 == pytest.approx(d2 / bal.p2, abs=1e-15)

    def test_tiny_background_against_oracle(self):
        # balanced P(2) is about 5e-17 here; r2 keeps its precision only
        # if the closed form does
        p = DetectionParams(eta=0.01, delta=0.3, gamma=1e-12)
        r1, r2 = relative_deviations(p)
        d1, d2 = systematic_deviation(p)
        bal = single_with_background_stats(p)
        assert r1 == pytest.approx(d1 / bal.p1, rel=1e-12)
        assert r2 == pytest.approx(d2 / bal.p2, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("gamma", [0.1, 0.8])
    def test_r1_closed_denominator(self, eta, gamma):
        # P(1) of the balanced form factors as
        # e^(-eta gamma/2) * (2 - eta - 2 (1-eta) e^(-eta gamma/2)),
        # so the shared exponential cancels in r1
        delta = 0.3
        p = DetectionParams(eta=eta, delta=delta, gamma=gamma)
        x = delta * eta * gamma / 2.0
        sh = math.sinh(x / 2.0)
        bracket = -((2.0 - eta) * 2.0 * sh * sh + delta * eta * math.sinh(x))
        denom = 2.0 - eta - 2.0 * (1.0 - eta) * math.exp(-eta * gamma / 2.0)
        r1, _ = relative_deviations(p)
        assert r1 == pytest.approx(bracket / denom, rel=1e-10)

    def test_r2_small_parameter_plateau(self):
        # r2 -> delta^2 as eta, gamma -> 0
        for delta in (0.1, 0.3, 0.6):
            _, r2 = relative_deviations(
                DetectionParams(eta=1e-3, delta=delta, gamma=1e-3)
            )
            assert r2 == pytest.approx(delta**2, rel=0.01)

    def test_r2_nearly_flat_in_eta_and_gamma(self):
        vals = [
            relative_deviations(DetectionParams(eta=eta, delta=0.3, gamma=gamma))[1]
            for eta in np.linspace(0.02, 0.75, 25)
            for gamma in np.linspace(0.02, 0.98, 25)
        ]
        spread = max(vals) - min(vals)
        assert spread < 0.1 * abs(np.mean(vals))

    def test_r1_magnitude_grows_with_imbalance(self):
        vals = [
            relative_deviations(DetectionParams(eta=0.1, delta=d, gamma=0.2))[0]
            for d in (0.1, 0.3, 0.6, 0.9)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # more negative

    def test_undefined_without_background(self):
        with pytest.raises(ZeroDivisionError):
            relative_deviations(DetectionParams(eta=0.1, delta=0.3, gamma=0.0))

