"""Boundary system, SBR threshold, corrected critical values and the
classify decision logic."""

import math

import numpy as np
import pytest

from photon_gate import (
    ClickCounts,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    PhotonStats,
    RangeError,
    SimConfig,
    boundary_eta,
    classify,
    classify_counts,
    corrected_critical_values,
    expected_stats,
    sbr_threshold,
    setup_sbr,
    simulate_pulses,
    stats_from_counts,
    uncorrected_bounds,
)

from _oracles import (
    double_molecule_stats,
    sbr_threshold_bisection,
    single_with_background_stats,
    stats_from_sb,
)

MEANS = [0.001, 0.0465, 0.1, 0.3, 0.555, 0.9, 1.0]

SAMPLE1_COUNTS = ClickCounts(
    n_all=299613, n_00=285696, n_10=6951, n_01=6951, n_11=15
)


def ideal_stats(s, eta):
    return expected_stats(IdealEmitters(s), DetectionParams(eta=eta))


def stats_from_probs(p1, p2):
    return PhotonStats(p0=1.0 - p1 - p2, p1=p1, p2=p2)


class TestBoundary:
    def test_frozen_values(self):
        assert boundary_eta(0.0465) == pytest.approx(0.023386734841638276, abs=1e-12)
        assert boundary_eta(0.0372) == pytest.approx(0.018687303831119138, abs=1e-12)
        assert boundary_eta(0.0521) == pytest.approx(0.026221896970178665, abs=1e-12)
        assert boundary_eta(1.0) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)
        assert boundary_eta(0.0) == 0.0

    @pytest.mark.parametrize("mean", MEANS)
    def test_inverts_two_emitter_mean(self, mean):
        eta = boundary_eta(mean)
        assert 2.0 * eta - 0.5 * eta * eta == pytest.approx(mean, abs=1e-15)

    def test_domain(self):
        with pytest.raises(RangeError):
            boundary_eta(-0.1)
        with pytest.raises(RangeError):
            boundary_eta(1.0001)

    @pytest.mark.parametrize("mean", MEANS)
    def test_bounds_complementarity_exact(self, mean):
        p1b, p2b = uncorrected_bounds(mean)
        assert p1b + 2.0 * p2b == pytest.approx(mean, abs=1e-15)

    def test_bounds_frozen_values(self):
        p1b, p2b = uncorrected_bounds(0.0465)
        assert p1b == pytest.approx(0.0459530606334469, abs=1e-12)
        assert p2b == pytest.approx(0.0002734696832765488, abs=1e-12)

    @pytest.mark.parametrize(
        "s,eta",
        [(2, 0.05), (3, 0.05), (5, 0.05), (10, 0.05),
         (2, 0.2), (3, 0.2), (5, 0.2), (2, 0.4), (3, 0.4)],
    )
    def test_multi_emitter_systems_respect_bounds(self, s, eta):
        st = ideal_stats(s, eta)
        assert st.mean_n <= 1.0  # combos chosen inside the criterion domain
        p1b, p2b = uncorrected_bounds(st.mean_n)
        assert st.p1 <= p1b + 1e-12
        assert st.p2 >= p2b - 1e-12

    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.4, 0.585])
    def test_single_emitter_exceeds_bound(self, eta):
        st = ideal_stats(1, eta)
        p1b, _ = uncorrected_bounds(st.mean_n)
        assert st.p1 > p1b


class TestSbrThreshold:
    def test_endpoints(self):
        assert sbr_threshold(1e-9) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-6)
        assert sbr_threshold(1.0) == pytest.approx(1.6322418823119, abs=1e-9)

    def test_frozen_mid_values(self):
        assert sbr_threshold(0.555) == pytest.approx(2.0129562236059035, abs=1e-9)
        assert sbr_threshold(0.0521) == pytest.approx(2.378766193272525, abs=1e-9)

    @pytest.mark.parametrize("mean", MEANS)
    def test_against_closed_form_root(self, mean):
        # the textbook root b = mean - sqrt(mean^2 - 4 p2_bound), which
        # sbr_threshold rewrites without cancellation
        _, p2b = uncorrected_bounds(mean)
        b = mean - math.sqrt(mean * mean - 4.0 * p2b)
        s = (mean - b) / (1.0 - b / 2.0)
        assert sbr_threshold(mean) == pytest.approx(s / b, rel=1e-10)

    def test_against_bisection_oracle(self):
        for mean in np.logspace(-12.0, 0.0, 241):
            mean = float(mean)
            assert sbr_threshold(mean) == pytest.approx(
                sbr_threshold_bisection(mean), rel=1e-12, abs=0.0
            ), mean

    @pytest.mark.parametrize("mean", MEANS)
    def test_sb_model_meets_boundary_at_threshold(self, mean):
        # a single emitter over background at exactly SBR0 has the
        # two-emitter boundary's mean and two-click probability
        ratio = sbr_threshold(mean)
        b = (ratio + 1.0 - math.sqrt((ratio + 1.0) ** 2 - 2.0 * ratio * mean)) / ratio
        st = stats_from_sb(ratio * b, b)
        _, p2b = uncorrected_bounds(mean)
        assert st.mean_n == pytest.approx(mean, rel=1e-12)
        assert st.p2 == pytest.approx(p2b, rel=1e-9)

    def test_monotone_decreasing(self):
        grid = [0.01 + i * (1.0 - 0.01) / 99 for i in range(100)]
        vals = [sbr_threshold(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(RangeError):
            sbr_threshold(0.0)
        with pytest.raises(RangeError):
            sbr_threshold(1.2)


class TestSetupSbr:
    def test_no_background_is_infinite(self):
        assert setup_sbr(DetectionParams(eta=0.5, gamma=0.0)) == math.inf

    def test_frozen_value(self):
        assert setup_sbr(DetectionParams(eta=0.1, gamma=0.2)) == pytest.approx(
            5.025041666597222, abs=1e-12
        )

    def test_matches_sb_parametrization(self):
        # classification gate and stats_from_sb use the same (S, B) map
        eta, gamma = 0.3, 0.8
        b = -2.0 * math.expm1(-eta * gamma / 2.0)
        assert setup_sbr(DetectionParams(eta=eta, gamma=gamma)) == pytest.approx(
            eta / b, abs=1e-12
        )


class TestCorrectedCriticalValues:
    def test_no_corrections_collapse_to_bounds(self):
        params = DetectionParams(eta=0.1, delta=0.0, gamma=0.0, cycles=10**15)
        crit = corrected_critical_values(0.1, params)
        assert crit.p1_corrected == pytest.approx(crit.p1_bound, abs=1e-12)
        assert crit.p2_corrected == pytest.approx(crit.p2_bound, abs=1e-12)
        assert crit.delta_p1 == 0.0 and crit.delta_p2 == 0.0

    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.3])
    @pytest.mark.parametrize("gamma", [0.1, 0.5])
    def test_correction_directions(self, eta, gamma):
        params = DetectionParams(eta=eta, delta=0.3, gamma=gamma, cycles=299613)
        mean = 2.0 * eta - 0.5 * eta * eta
        crit = corrected_critical_values(mean, params)
        assert crit.p1_corrected > crit.p1_bound
        assert crit.p2_corrected < crit.p2_bound
        assert crit.delta_p1 < 0.0 < crit.delta_p2
        assert crit.delta_p1 + crit.delta_p2 == 0.0

    def test_statistical_terms(self):
        params = DetectionParams(eta=0.1, delta=0.0, gamma=0.0, cycles=400)
        crit = corrected_critical_values(0.1, params)
        assert crit.stat_p1 == pytest.approx(crit.p1_bound * (1 - crit.p1_bound) / 400, rel=1e-12)
        assert crit.sigma_p1 == pytest.approx(math.sqrt(crit.stat_p1), rel=1e-12)
        assert crit.p1_corrected == pytest.approx(crit.p1_bound + crit.stat_p1, abs=1e-15)
        assert crit.p2_corrected == pytest.approx(crit.p2_bound - crit.stat_p2, abs=1e-15)


class TestClassify:
    def test_two_emitters_at_boundary_are_rejected(self):
        st = double_molecule_stats(0.3)  # mean 0.555, exactly on the boundary
        params = DetectionParams(eta=boundary_eta(st.mean_n), cycles=10**12)
        v = classify(st, params)
        assert v.decision is Decision.NOT_SINGLE
        assert v.margin_p1 < 0.0
        assert v.measured_sbr is not None

    @pytest.mark.parametrize("mean", [0.05, 0.2, 0.5, 0.9])
    def test_clean_single_over_background_is_accepted(self, mean):
        # construct signal+background with SBR 2.45 (above every threshold)
        ratio = 2.45
        b = (ratio + 1.0 - math.sqrt((ratio + 1.0) ** 2 - 2.0 * ratio * mean)) / ratio
        s = ratio * b
        st = stats_from_sb(s, b)
        assert st.mean_n == pytest.approx(mean, abs=1e-12)
        gamma = -2.0 * math.log1p(-b / 2.0) / s
        params = DetectionParams(eta=s, gamma=gamma, cycles=10**12)
        v = classify(st, params)
        assert v.decision is Decision.SINGLE
        assert v.margin_p1 > 0.0
        assert v.setup_sbr == pytest.approx(ratio, rel=1e-9)

    def test_low_setup_sbr_is_indeterminate(self):
        eta = 0.1
        gamma = -2.0 * math.log1p(-eta / 2.0) / eta  # setup SBR exactly 1.0
        params = DetectionParams(eta=eta, gamma=gamma, cycles=10**6)
        st = single_with_background_stats(params)
        v = classify(st, params)
        assert v.decision is Decision.INDETERMINATE
        assert v.setup_sbr == pytest.approx(1.0, abs=1e-12)
        assert v.setup_sbr < v.sbr0
        assert "threshold" in v.reason

    def test_out_of_domain_mean(self):
        high = PhotonStats(p0=0.0, p1=0.4, p2=0.6)  # mean 1.6
        v = classify(high, DetectionParams(eta=0.5))
        assert v.decision is Decision.INDETERMINATE
        assert math.isnan(v.sbr0)

        empty = PhotonStats(p0=1.0, p1=0.0, p2=0.0)
        v = classify(empty, DetectionParams(eta=0.5))
        assert v.decision is Decision.INDETERMINATE

    def test_estimator_breakdown_is_indeterminate(self):
        st = stats_from_probs(0.1, 0.01)  # fails the SBR precondition
        v = classify(st, DetectionParams(eta=0.06, cycles=10**6))
        assert v.decision is Decision.INDETERMINATE
        assert v.measured_sbr is None


class TestClassifyCounts:
    def test_reference_single_molecule(self):
        v = classify_counts(SAMPLE1_COUNTS, delta=0.3)
        assert v.decision is Decision.SINGLE
        assert v.measured_sbr == pytest.approx(21.5017, abs=1e-3)
        assert v.p1_critical == pytest.approx(0.0459544, abs=2e-6)
        assert v.margin_p1 == pytest.approx(4.455e-4, abs=1e-6)
        # uncalibrated mode gates on the measured SBR itself
        assert v.setup_sbr == pytest.approx(v.measured_sbr, rel=1e-9)

    def test_uncalibrated_low_sbr_self_gates(self):
        # two-emitter-like tallies: measured SBR below threshold
        n_all = 299613
        n11 = round(0.00065 * n_all)
        n1 = round(0.0508 * n_all)
        counts = ClickCounts(
            n_all=n_all,
            n_00=n_all - n1 - n11,
            n_10=n1 // 2,
            n_01=n1 - n1 // 2,
            n_11=n11,
        )
        uncal = classify_counts(counts, delta=0.3)
        assert uncal.decision is Decision.INDETERMINATE
        # the calibrated run reaches a verdict
        cal = classify_counts(counts, delta=0.3, gamma=0.2)
        assert cal.decision is Decision.NOT_SINGLE
        assert cal.setup_sbr > cal.sbr0

    def test_explicit_eta_overrides_boundary_default(self):
        v1 = classify_counts(SAMPLE1_COUNTS, delta=0.3)
        v2 = classify_counts(SAMPLE1_COUNTS, delta=0.3, eta=0.5)
        assert v1.p1_critical != v2.p1_critical

    def test_infinite_measured_sbr(self):
        counts = ClickCounts(n_all=1000, n_00=900, n_10=50, n_01=50, n_11=0)
        v = classify_counts(counts)
        assert v.measured_sbr == math.inf
        assert v.setup_sbr == math.inf
        assert v.decision is Decision.SINGLE


class TestOperatingCharacteristic:
    """How often classify, given the true calibration, calls a simulated
    system SINGLE over seeds 0-99 at 3e5 pulses each."""

    M = 300_000

    @staticmethod
    def singles(source, params):
        return sum(
            classify(stats_from_counts(simulate_pulses(SimConfig(source, params, seed))),
                     params).decision is Decision.SINGLE
            for seed in range(100)
        )

    def test_balanced_boundary_is_a_coin_flip(self):
        # two ideal emitters exactly on the boundary: the point-estimate
        # rule adds only the sampling variance, so it errs about half the time
        params = DetectionParams(eta=boundary_eta(0.2), delta=0.0, gamma=0.0, cycles=self.M)
        assert 30 <= self.singles(IdealEmitters(2), params) <= 70

    def test_emitter_well_above_sbr0_is_single(self):
        params = DetectionParams(eta=0.2, gamma=0.01, cycles=self.M)
        assert self.singles(EmitterWithBackground(), params) >= 98
