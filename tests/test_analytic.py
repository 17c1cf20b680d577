"""The closed forms against brute-force enumeration and hand-computed
fixtures.  Every frozen number below was produced by an independent
oracle (route enumeration or direct pmf arithmetic), not by the code
under test."""

import math

import numpy as np
import pytest

from photon_gate import (
    ClickCounts,
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    PhotonStats,
    RangeError,
    expected_stats,
    g2_zero_estimate,
    sbr_from_stats,
)

from _oracles import (
    SourceDistribution,
    binomial_source,
    convolve_bernoulli_poisson,
    double_molecule_stats,
    hbt_enumerate,
    hbt_transform,
    inclusion_exclusion_decimal,
    joint_enumerate,
    poisson_joint_enumerate,
    poisson_source,
    single_with_background_stats,
    stats_from_sb,
)

ETAS = [0.02, 0.1, 0.3, 0.5, 0.9, 1.0]


def ideal_stats(s, eta, delta=0.0):
    return expected_stats(IdealEmitters(s), DetectionParams(eta=eta, delta=delta))


def assert_stats_close(stats: PhotonStats, expected, tol=1e-12):
    assert stats.p0 == pytest.approx(expected[0], abs=tol)
    assert stats.p1 == pytest.approx(expected[1], abs=tol)
    assert stats.p2 == pytest.approx(expected[2], abs=tol)


class TestSources:
    def test_binomial_hand_values(self):
        src = binomial_source(2, 0.1)
        assert np.allclose(src.probs, [0.81, 0.18, 0.01], atol=1e-15)
        assert src.tail_mass == 0.0

    def test_binomial_single(self):
        src = binomial_source(1, 0.37)
        assert np.allclose(src.probs, [0.63, 0.37], atol=1e-15)

    @pytest.mark.parametrize("s,eta", [(1, 0.1), (5, 0.3), (20, 0.9)])
    def test_binomial_normalized(self, s, eta):
        assert binomial_source(s, eta).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_binomial_domain(self):
        with pytest.raises(RangeError):
            binomial_source(0, 0.1)
        with pytest.raises(RangeError):
            binomial_source(2, 1.5)

    @pytest.mark.parametrize("mu", [0.0, 0.1046, 1.0, 4.0])
    def test_poisson_matches_pmf(self, mu):
        src = poisson_source(mu)
        assert src.tail_mass < 1e-12
        for n in range(min(6, src.probs.size)):
            assert src.probs[n] == pytest.approx(
                math.exp(-mu) * mu**n / math.factorial(n), rel=1e-12
            )

    def test_poisson_reference_single_photon_weight(self):
        # pmf at n=1 for the coherent reference mean
        src = poisson_source(0.10743456501197571)
        assert src.probs[1] == pytest.approx(0.09649077420305466, abs=1e-12)

    def test_source_distribution_validation(self):
        with pytest.raises(RangeError):
            SourceDistribution(probs=np.array([0.5, 0.4]))  # sums to 0.9
        with pytest.raises(RangeError):
            SourceDistribution(probs=np.array([1.2, -0.2]))


class TestHbtTransform:
    def test_fixed_points(self):
        assert_stats_close(hbt_transform(SourceDistribution(np.array([0.0, 1.0]))), (0, 1, 0))
        assert_stats_close(
            hbt_transform(SourceDistribution(np.array([0.0, 0.0, 1.0]))), (0, 0.5, 0.5)
        )

    @pytest.mark.parametrize("s", [1, 2, 3, 6])
    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
    def test_against_route_enumeration(self, s, eta):
        src = binomial_source(s, eta)
        assert_stats_close(hbt_transform(src), hbt_enumerate(src.probs))

    def test_truncated_poisson_against_enumeration(self):
        probs = poisson_source(0.8, n_max=11).probs
        probs = probs / probs.sum()
        assert_stats_close(
            hbt_transform(SourceDistribution(probs)), hbt_enumerate(probs)
        )

    @pytest.mark.parametrize("s", range(1, 21))
    def test_composition_law(self, s):
        # direct inclusion-exclusion == transform of the binomial source
        for eta in (0.05, 0.3, 0.77):
            via_transform = hbt_transform(binomial_source(s, eta))
            direct = ideal_stats(s, eta)
            assert_stats_close(direct, (via_transform.p0, via_transform.p1, via_transform.p2))


class TestClosedForms:
    def test_double_molecule_hand_expansion(self):
        assert_stats_close(double_molecule_stats(0.1), (0.81, 0.185, 0.005), tol=1e-15)

    @pytest.mark.parametrize("eta", ETAS)
    def test_double_molecule_is_two_emitters(self, eta):
        two = ideal_stats(2, eta)
        assert_stats_close(double_molecule_stats(eta), (two.p0, two.p1, two.p2), tol=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 4])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.8])
    def test_multi_emitter_unbalanced_against_enumeration(self, s, delta):
        eta = 0.22
        p = DetectionParams(eta=eta, delta=delta)
        assert_stats_close(
            ideal_stats(s, eta, delta), joint_enumerate(s, p.eta1, p.eta2)
        )

    def test_single_with_background_frozen_example(self):
        st = single_with_background_stats(DetectionParams(eta=0.05, gamma=0.2))
        # enumeration oracle values
        assert_stats_close(
            st, (0.9405473420617096, 0.05917965030231122, 0.0002730076359791395)
        )
        assert st.mean_n == pytest.approx(0.059726, abs=1e-6)

    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0])
    def test_single_with_background_against_convolution_route(self, eta, gamma):
        # Bernoulli(eta) photon + Poisson(eta*gamma) detected background,
        # then the transform — fully independent of the closed form
        probs = convolve_bernoulli_poisson(eta, eta * gamma, n_max=12)
        st = single_with_background_stats(DetectionParams(eta=eta, gamma=gamma))
        assert_stats_close(st, hbt_enumerate(probs), tol=1e-11)

    def test_single_with_background_no_background_limit(self):
        st = single_with_background_stats(DetectionParams(eta=0.37, gamma=0.0))
        assert_stats_close(st, (0.63, 0.37, 0.0), tol=1e-15)

    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.2, 1.0])
    def test_signal_background_correspondence(self, eta, gamma):
        # same physics in (S, B) coordinates: S = eta, B = 2 (1 - e^(-eta gamma / 2))
        b = -2.0 * math.expm1(-eta * gamma / 2.0)
        via_sb = stats_from_sb(eta, b)
        direct = single_with_background_stats(DetectionParams(eta=eta, gamma=gamma))
        assert_stats_close(via_sb, (direct.p0, direct.p1, direct.p2))

    def test_signal_background_rounded_example(self):
        # B rounded to 4 significant digits still lands within 1e-7
        direct = single_with_background_stats(DetectionParams(eta=0.05, gamma=0.2))
        rounded = stats_from_sb(0.05, 0.009975)
        assert_stats_close(rounded, (direct.p0, direct.p1, direct.p2), tol=1e-7)

    def test_stats_from_sb_domain(self):
        with pytest.raises(RangeError):
            stats_from_sb(-0.1, 0.5)
        with pytest.raises(RangeError):
            stats_from_sb(0.5, 2.1)


class TestExpectedStats:
    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_ideal_emitters_ignore_background(self, s):
        params = DetectionParams(eta=0.1, delta=0.3, gamma=0.7)
        st = expected_stats(IdealEmitters(s), params)
        ref = ideal_stats(s, 0.1, 0.3)
        assert_stats_close(st, (ref.p0, ref.p1, ref.p2), tol=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_emitter_with_background_against_enumeration(self, delta):
        params = DetectionParams(eta=0.1, delta=delta, gamma=0.4)
        st = expected_stats(EmitterWithBackground(), params)
        assert_stats_close(st, joint_enumerate(1, params.eta1, params.eta2, gamma=0.4))

    def test_coherent_balanced_equals_thinned_poisson_transform(self):
        params = DetectionParams(eta=0.3, gamma=0.1)
        st = expected_stats(Coherent(0.5), params)
        ref = hbt_transform(poisson_source((0.5 + 0.1) * 0.3))
        assert_stats_close(st, (ref.p0, ref.p1, ref.p2), tol=1e-11)

    def test_coherent_unbalanced_against_enumeration(self):
        params = DetectionParams(eta=0.4, delta=0.3)
        st = expected_stats(Coherent(0.3), params)
        assert_stats_close(
            st, poisson_joint_enumerate(0.3, params.eta1, params.eta2, n_max=9), tol=1e-9
        )

    @pytest.mark.parametrize("mu", [0.01, 0.10743456501197571, 0.5, 2.0])
    def test_coherent_fixed_point(self, mu):
        # detected-mean relation and the exact p2 = (mean/2)^2 signature
        st = expected_stats(Coherent(mu), DetectionParams(eta=1.0))
        mean = -2.0 * math.expm1(-mu / 2.0)
        assert st.mean_n == pytest.approx(mean, abs=1e-12)
        assert st.p2 == pytest.approx((mean / 2.0) ** 2, abs=1e-12)
        assert st.q == pytest.approx(-mean / 2.0, abs=1e-12)


PRECISION_GRID = [
    DetectionParams(eta=eta, delta=delta, gamma=gamma)
    for eta in (1e-5, 1e-4, 0.01, 0.1, 0.5, 1.0)
    for delta in (0.0, 0.3)
    for gamma in (0.0, 1e-14, 1e-12, 1e-9, 1e-6, 0.1, 5.0)
    if (1.0 + delta) * eta <= 1.0
]


class TestRelativePrecision:
    @pytest.mark.parametrize(
        "params", PRECISION_GRID, ids=lambda p: f"{p.eta}-{p.delta}-{p.gamma}"
    )
    def test_emitter_with_background(self, params):
        # every probability to 1e-12 of itself, however small: the plain
        # inclusion-exclusion P(2) returned 1.1e-16 for a true 5.0e-17 at
        # eta 0.01, gamma 1e-12
        st = expected_stats(EmitterWithBackground(), params)
        refs = [inclusion_exclusion_decimal(1, params.gamma, params.eta1, params.eta2)]
        if params.delta == 0.0:
            bal = single_with_background_stats(params)
            refs.append((bal.p0, bal.p1, bal.p2))
        for ref in refs:
            for got, want in zip((st.p0, st.p1, st.p2), ref):
                assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    @pytest.mark.parametrize("eta", [1e-5, 0.3, 1.0])
    def test_fixed_photons_at_unit_and_tiny_efficiency(self, s, eta):
        # s = 0 is the Coherent plan; eta = 1 must not reach log1p(-1)
        params = DetectionParams(eta=eta, gamma=0.2)
        st = expected_stats(IdealEmitters(s) if s else Coherent(0.0), params)
        lam = 0.0 if s else 0.2
        ref = inclusion_exclusion_decimal(s, lam, params.eta1, params.eta2)
        assert_stats_close(st, ref, tol=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("eta", [1e-8, 1e-6, 1e-5, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("s", [2, 3, 5, 8])
    def test_emitters_to_relative_precision(self, s, eta, delta):
        # at small eta, fAB = fA + fB - f_any cancels: it puts P(2) of
        # IdealEmitters(2) at eta 1e-6 6.1e-10 relative off
        params = DetectionParams(eta=eta, delta=delta)
        st = expected_stats(IdealEmitters(s), params)
        ref = inclusion_exclusion_decimal(s, 0.0, params.eta1, params.eta2)
        for got, want in zip((st.p0, st.p1, st.p2), ref):
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)


class TestScalars:
    def test_mandel_q_reference(self):
        # Q from the published one/two-click rates
        st = PhotonStats(p0=1 - 0.0464 - 5e-5, p1=0.0464, p2=5e-5)
        assert st.q == pytest.approx(-0.04435, abs=1e-4)

    @pytest.mark.parametrize("eta", ETAS)
    def test_single_emitter_q_is_minus_eta(self, eta):
        assert ideal_stats(1, eta).q == pytest.approx(-eta, abs=1e-12)

    def test_sbr_reference_value(self):
        st = PhotonStats(p0=1 - 0.0464 - 5e-5, p1=0.0464, p2=5e-5)
        assert sbr_from_stats(st) == pytest.approx(21.5296, abs=1e-4)

    def test_sbr_infinite_when_no_coincidences(self):
        assert sbr_from_stats(PhotonStats(p0=0.9, p1=0.1, p2=0.0)) == math.inf

    def test_sbr_precondition(self):
        assert sbr_from_stats(PhotonStats(p0=0.89, p1=0.1, p2=0.01)) is None
        # exactly at the boundary is allowed
        p2 = 0.01
        p1 = 2 * math.sqrt(p2) - 3 * p2
        assert sbr_from_stats(PhotonStats(p0=1 - p1 - p2, p1=p1, p2=p2)) is not None

    def test_g2_hand_value(self):
        c = ClickCounts(n_all=100, n_00=79, n_10=10, n_01=10, n_11=1)
        assert g2_zero_estimate(c) == pytest.approx((1 / 100) / (0.11 * 0.11), abs=1e-12)

    def test_g2_reference_counts(self):
        c = ClickCounts(n_all=299613, n_00=285696, n_10=6951, n_01=6951, n_11=15)
        assert g2_zero_estimate(c) == pytest.approx(0.09261577644387173, abs=1e-12)

    def test_g2_undefined_without_singles(self):
        # None where g2(0) is undefined: no clicks, one dark channel, no pulses
        assert g2_zero_estimate(ClickCounts(n_all=5, n_00=5, n_10=0, n_01=0, n_11=0)) is None
        assert g2_zero_estimate(ClickCounts(n_all=5, n_00=3, n_10=2, n_01=0, n_11=0)) is None
        assert g2_zero_estimate(ClickCounts(n_all=0, n_00=0, n_10=0, n_01=0, n_11=0)) is None
