import math
import re

import pytest

from photon_gate import (
    ClickCounts,
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    PhotonStats,
    RangeError,
    stats_from_counts,
)
from photon_gate.model import photon_plan


class TestDetectionParams:
    def test_channel_efficiencies(self):
        p = DetectionParams(eta=0.1, delta=0.3)
        assert p.eta1 == pytest.approx(0.13, abs=1e-15)
        assert p.eta2 == pytest.approx(0.07, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(eta=-0.01), "eta"),
            (dict(eta=1.01), "eta"),
            (dict(eta=0.5, delta=-0.1), "delta"),
            (dict(eta=0.5, delta=1.0), "delta"),
            (dict(eta=0.5, gamma=-1.0), "gamma"),
            (dict(eta=0.5, gamma=math.inf), "gamma"),
            (dict(eta=0.5, cycles=0), "cycles"),
            (dict(eta=0.9, delta=0.3), "(1 + delta) * eta"),
        ],
    )
    def test_rejects_out_of_range(self, kwargs, field):
        with pytest.raises(RangeError, match=re.escape(field)):
            DetectionParams(**kwargs)

    @pytest.mark.parametrize("eta", [0.01, 0.1, 0.37, 0.5])
    @pytest.mark.parametrize("delta", [0.0, 0.17, 0.3, 0.9])
    def test_round_trip_channel_efficiencies(self, eta, delta):
        p = DetectionParams(eta=eta, delta=delta)
        q = DetectionParams.from_channel_efficiencies(p.eta1, p.eta2)
        assert q.eta == pytest.approx(eta, abs=1e-12)
        assert q.delta == pytest.approx(delta, abs=1e-12)
        assert q.eta1 == pytest.approx(p.eta1, abs=1e-12)
        assert q.eta2 == pytest.approx(p.eta2, abs=1e-12)

    def test_from_channel_efficiencies_degenerate_and_order(self):
        assert DetectionParams.from_channel_efficiencies(0.0, 0.0).eta == 0.0
        with pytest.raises(RangeError):
            DetectionParams.from_channel_efficiencies(0.1, 0.2)  # must relabel


class TestPhotonStats:
    def test_derived_quantities(self):
        s = PhotonStats(p0=0.81, p1=0.185, p2=0.005)
        assert s.mean_n == pytest.approx(0.195, abs=1e-15)
        assert s.q == pytest.approx(2 * 0.005 / 0.195 - 0.195, abs=1e-15)

    def test_zero_mean_defines_q_zero(self):
        assert PhotonStats(p0=1.0, p1=0.0, p2=0.0).q == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(RangeError, match="equal 1"):
            PhotonStats(p0=0.5, p1=0.5, p2=0.1)

    def test_rejects_negative_probability(self):
        with pytest.raises(RangeError, match="p2"):
            PhotonStats(p0=0.9, p1=0.2, p2=-0.1)

    def test_tiny_negative_rounding_is_clamped(self):
        s = PhotonStats(p0=1.0, p1=1e-15, p2=-1e-15)
        assert s.p2 == 0.0

    @pytest.mark.parametrize("p1,p2", [(0.1, 0.0), (0.5, 0.25), (0.0, 0.5), (0.2, 0.05)])
    def test_q_never_below_minus_mean(self, p1, p2):
        s = PhotonStats(p0=1.0 - p1 - p2, p1=p1, p2=p2)
        assert s.q >= -s.mean_n - 1e-15


class TestClickCounts:
    def test_sum_must_match(self):
        with pytest.raises(RangeError, match="n_all"):
            ClickCounts(n_all=10, n_00=5, n_10=2, n_01=2, n_11=2)

    def test_rejects_negative(self):
        with pytest.raises(RangeError, match="n_11"):
            ClickCounts(n_all=3, n_00=2, n_10=1, n_01=1, n_11=-1)

    def test_stats_from_counts_exact_ratios(self):
        c = ClickCounts(n_all=8, n_00=4, n_10=2, n_01=1, n_11=1)
        s = stats_from_counts(c)
        assert (s.p0, s.p1, s.p2) == (0.5, 0.375, 0.125)
        assert s.mean_n == 0.625

    def test_stats_from_counts_rejects_empty(self):
        with pytest.raises(RangeError):
            stats_from_counts(ClickCounts(n_all=0, n_00=0, n_10=0, n_01=0, n_11=0))


class TestSourceModels:
    def test_ideal_emitters_validation(self):
        assert IdealEmitters(s=3).s == 3
        with pytest.raises(RangeError):
            IdealEmitters(s=0)

    def test_coherent_validation(self):
        assert Coherent(mu=0.0).mu == 0.0
        with pytest.raises(RangeError):
            Coherent(mu=-0.5)
        with pytest.raises(RangeError):
            Coherent(mu=math.nan)

    def test_photon_plan(self):
        params = DetectionParams(eta=0.3, gamma=0.25)
        assert photon_plan(IdealEmitters(s=4), params) == (4, 0.0)
        assert photon_plan(EmitterWithBackground(), params) == (1, 0.25)
        assert photon_plan(Coherent(mu=0.5), params) == (0, 0.75)
        with pytest.raises(TypeError, match="unknown source model"):
            photon_plan("laser", params)
