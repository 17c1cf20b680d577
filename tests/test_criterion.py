"""Boundary system, SBR threshold, corrected critical values and the
classify decision logic."""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from photon_gate import (
    ClickCounts,
    Coherent,
    CriticalValues,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    PhotonStats,
    RangeError,
    SimConfig,
    Verdict,
    boundary_eta,
    classify,
    classify_counts,
    corrected_critical_values,
    expected_stats,
    sbr_threshold,
    setup_sbr,
    simulate_pulses,
    stats_from_counts,
    systematic_deviation,
)
from photon_gate import criterion
from photon_gate.criterion import _bounds

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
        _, p1b, p2b = _bounds(mean)
        assert p1b + 2.0 * p2b == pytest.approx(mean, abs=1e-15)

    def test_bounds_frozen_values(self):
        _, p1b, p2b = _bounds(0.0465)
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
        _, p1b, p2b = _bounds(st.mean_n)
        assert st.p1 <= p1b + 1e-12
        assert st.p2 >= p2b - 1e-12

    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.4, 0.585])
    def test_single_emitter_exceeds_bound(self, eta):
        st = ideal_stats(1, eta)
        _, p1b, _ = _bounds(st.mean_n)
        assert st.p1 > p1b


class TestSbrThreshold:
    def test_endpoints(self):
        limit = 1.0 + math.sqrt(2.0)
        assert sbr_threshold(1e-9) == pytest.approx(limit, abs=1e-6)
        # eta*^2 / 2 goes subnormal below about 1e-154; the threshold must not drift
        for mean in (1e-160, 1e-200, 1e-300, 5e-324):
            assert abs(sbr_threshold(mean) - limit) <= 4 * math.ulp(limit), mean
        assert sbr_threshold(1.0) == pytest.approx(1.6322418823119, abs=1e-9)

    def test_frozen_mid_values(self):
        assert sbr_threshold(0.555) == pytest.approx(2.0129562236059035, abs=1e-9)
        assert sbr_threshold(0.0521) == pytest.approx(2.378766193272525, abs=1e-9)

    @pytest.mark.parametrize("mean", MEANS)
    def test_against_closed_form_root(self, mean):
        # the textbook root b = mean - sqrt(mean^2 - 4 p2_bound), which
        # sbr_threshold rewrites without cancellation
        _, _, p2b = _bounds(mean)
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
        _, _, p2b = _bounds(mean)
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

    def test_no_signal_takes_the_limit(self):
        # eta -> 0 gives 1/gamma; eta = 0 is that limit, not an infinite ratio
        assert setup_sbr(DetectionParams(eta=0.0, gamma=1.0)) == 1.0
        assert setup_sbr(DetectionParams(eta=1e-300, gamma=1.0)) == 1.0
        assert setup_sbr(DetectionParams(eta=0.0, gamma=4.0)) == 0.25

    def test_no_signal_calibration_is_indeterminate(self):
        # the README tallies: eta = 0 with background leaves SBR 1, below threshold
        v = classify_counts(SAMPLE1_COUNTS, eta=0.0, gamma=1.0)
        assert v.decision is Decision.INDETERMINATE
        assert v.setup_sbr == 1.0 < v.sbr0

    def test_no_signal_calibration_with_clicks_never_decides(self):
        # weak background leaves setup SBR 10, above threshold, yet eta = 0
        # cannot give the clicks that were counted
        v = classify_counts(SAMPLE1_COUNTS, eta=0.0, gamma=0.1)
        assert v.setup_sbr == pytest.approx(10.0) and v.setup_sbr > v.sbr0
        assert v.decision is Decision.INDETERMINATE
        assert "eta = 0" in v.reason
        assert v.critical is not None

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
        one_pulse = corrected_critical_values(0.1, DetectionParams(eta=0.1, cycles=1))
        for mean, cycles in [(0.1, 400), (0.1, 1600), (0.0, 400)]:
            params = DetectionParams(eta=0.1, delta=0.0, gamma=0.0, cycles=cycles)
            crit = corrected_critical_values(mean, params)
            assert crit.stat_p1 == pytest.approx(
                crit.p1_bound * (1 - crit.p1_bound) / cycles, rel=1e-12)
            assert crit.sigma_p1 == pytest.approx(math.sqrt(crit.stat_p1), rel=1e-12)
            assert crit.p1_corrected == pytest.approx(crit.p1_bound + crit.stat_p1, abs=1e-15)
            assert crit.p2_corrected == pytest.approx(crit.p2_bound - crit.stat_p2, abs=1e-15)
            if mean:  # the variance falls as 1/M
                assert crit.stat_p1 == pytest.approx(one_pulse.stat_p1 / cycles, rel=1e-12)
                assert crit.stat_p2 == pytest.approx(one_pulse.stat_p2 / cycles, rel=1e-12)
            else:  # no clicks, no spread
                assert (crit.stat_p1, crit.sigma_p1, crit.stat_p2, crit.sigma_p2) == (0.0,) * 4


# (mean_n, boundary_eta, p1_bound, p2_bound, sbr_threshold, p1_corrected,
# p2_corrected), the corrected values at SCALAR_PARAMS
SCALAR_PARAMS = DetectionParams(eta=0.1, delta=0.3, gamma=0.2, cycles=299613)
SCALAR_VALUES = [
    (1e-06, 5.000000625000156e-07, 9.999997499999374e-07, 1.2500003125000976e-13,
     2.4142128855963314, 9.856955420909935e-05, -9.756955099646508e-05),
    (0.001, 0.0005000625156298845, 0.0009997499374804618, 1.2503125976904423e-07,
     2.4135367177946776, 0.0010973228220702259, -9.744452027900479e-05),
    (0.0465, 0.023386734841638276, 0.0459530606334469, 0.0002734696832765488,
     2.382594513958302, 0.04605077651125263, 0.00017589921966164223),
    (0.2, 0.10263340389897241, 0.1894663844041104, 0.005266807797944802,
     2.2759571767290554, 0.18956446651267625, 0.005169220760704465),
    (0.5, 0.2679491924311227, 0.42820323027550916, 0.03589838486224541,
     2.055492776832292, 0.42830161703157116, 0.03580069979647396),
    (0.8, 0.45080666151703325, 0.596773353931867, 0.10161332303406649,
     1.8128848440267673, 0.5968717266354484, 0.10151544879638065),
    (1.0, 0.585786437626905, 0.6568542494923801, 0.1715728752538099,
     1.6322418823119005, 0.6569525713364409, 0.17147483130530336),
]


@pytest.mark.parametrize("row", SCALAR_VALUES, ids=lambda row: repr(row[0]))
def test_scalar_closed_forms_return_floats(row):
    """The closed forms also take numpy arrays; a float in gives a float
    out, within 1 ulp of the value frozen above."""
    mean, *frozen = row
    crit = corrected_critical_values(mean, SCALAR_PARAMS)
    got = [boundary_eta(mean), crit.p1_bound, crit.p2_bound, sbr_threshold(mean),
           crit.p1_corrected, crit.p2_corrected]
    assert all(type(v) is float for v in [*got, *vars(crit).values()])
    for value, want in zip(got, frozen):
        assert abs(value - want) <= math.ulp(want)


def test_a_verdict_on_floats_never_looks_for_numpy(monkeypatch):
    """The closed forms take math unless numpy is passed: with numpy made
    unimportable, every public entry point still returns floats."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # an import of numpy would raise
    verdicts = [classify_counts(SAMPLE1_COUNTS),
                classify_counts(SAMPLE1_COUNTS, eta=0.1, delta=0.3, gamma=0.2)]
    values = [sbr_threshold(0.2), *systematic_deviation(SCALAR_PARAMS),
              *vars(corrected_critical_values(0.2, SCALAR_PARAMS)).values()]
    for v in verdicts:
        assert v.decision is not Decision.INDETERMINATE
        values += [v.sbr0, v.measured_sbr, v.setup_sbr, v.margin_p1, *vars(v.critical).values()]
    assert all(type(x) is float for x in values)


def test_boundary_mean_is_inverted_by_the_bounds():
    """_boundary_mean is the map _bounds inverts: back to eta within 1 ulp
    up to _ETA_MAX, where the mean reaches 1 up to its last bit."""
    eta = np.linspace(0.0, criterion._ETA_MAX, 200_001)
    back = _bounds(criterion._boundary_mean(eta), np)[0]
    assert np.all(np.abs(back - eta) <= np.spacing(eta))
    for e in eta[::1000].tolist():  # the float path, as a verdict runs it
        assert abs(_bounds(criterion._boundary_mean(e))[0] - e) <= math.ulp(e)
    assert 1.0 - 2.0**-52 <= criterion._boundary_mean(criterion._ETA_MAX) <= 1.0


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

    def test_blinking_single_emitter_reads_not_single(self):
        # the scope stated in the criterion docstring and the README: one
        # emitter on in 20 % of pulses, background alone in the rest
        params = DetectionParams(eta=0.2, gamma=0.1, cycles=10**6)
        on = expected_stats(EmitterWithBackground(), params)
        off = expected_stats(Coherent(0.0), params)
        mixture = PhotonStats(*(0.2 * a + 0.8 * b for a, b in zip(
            (on.p0, on.p1, on.p2), (off.p0, off.p1, off.p2))))
        v = classify(mixture, params)
        assert v.decision is Decision.NOT_SINGLE
        assert v.margin_p1 == pytest.approx(-8.8e-5, abs=5e-7)
        always_on = classify(on, params)
        assert always_on.decision is Decision.SINGLE
        assert always_on.margin_p1 == pytest.approx(8.4e-3, abs=5e-5)

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

    def test_tiny_mean_is_classified(self):
        v = classify(PhotonStats(p0=1.0 - 1e-300, p1=1e-300, p2=0.0),
                     DetectionParams(eta=0.1, gamma=0.2, cycles=1000))
        assert isinstance(v, Verdict)
        assert abs(v.sbr0 - (1.0 + math.sqrt(2.0))) <= 4 * math.ulp(v.sbr0)

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
        assert v.critical.p1_corrected == pytest.approx(0.0459544, abs=2e-6)
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
        assert v1.critical.p1_corrected != v2.critical.p1_corrected

    def test_infinite_measured_sbr(self):
        counts = ClickCounts(n_all=1000, n_00=900, n_10=50, n_01=50, n_11=0)
        v = classify_counts(counts)
        assert v.measured_sbr == math.inf
        assert v.setup_sbr == math.inf
        assert v.decision is Decision.SINGLE


def verdict_grid():
    """(counts, calibration) pairs that reach every gate of the criterion:
    tallies at each gate's edge, then seeded ones around the two-emitter
    boundary p2 = mean^2 / 8 (random.Random draws the same on every
    Python version)."""
    grid = [
        (ClickCounts(5000, 5000, 0, 0, 0), dict(eta=0.1, delta=0.1, gamma=0.2)),
        (ClickCounts(1000, 0, 100, 100, 800), dict(eta=0.5, delta=0.0, gamma=0.0)),
        (ClickCounts(10**6, 890000, 50000, 50000, 10000), dict(eta=0.06, delta=0.0, gamma=0.0)),
        (SAMPLE1_COUNTS, dict(eta=0.1, delta=0.3, gamma=5.0)),
        (SAMPLE1_COUNTS, dict(eta=0.0, delta=0.3, gamma=0.1)),
        (SAMPLE1_COUNTS, dict(eta=0.0234, delta=0.3, gamma=0.01, cycles=10**6)),
        (ClickCounts(1000, 900, 50, 50, 0), dict(eta=0.1, delta=0.0, gamma=0.0)),
    ]
    rng = random.Random(20)
    for _ in range(16):
        n_all = rng.randrange(10**3, 10**7)
        mean = rng.uniform(0.001, 0.99)
        n11 = round(n_all * rng.uniform(0.3, 2.5) * mean * mean / 8.0)
        n1 = min(round(n_all * mean) - 2 * n11, n_all - n11)
        n10 = rng.randint(0, max(n1, 0))
        counts = ClickCounts(n_all, n_all - n1 - n11, n10, n1 - n10, n11)
        calibration = dict(eta=rng.choice([0.0, rng.uniform(0.0, 0.6)]),
                           delta=rng.uniform(0.0, 0.3), gamma=rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        if rng.random() < 0.5:
            calibration["cycles"] = rng.randrange(1, 10**7)
        grid.append((counts, calibration))
    return grid


def verdict_fields(v):
    """Every field of a Verdict, flat, by name; critical's are None when not computed."""
    critical = dict.fromkeys(CriticalValues.__dataclass_fields__)
    if v.critical is not None:
        critical = vars(v.critical)
    return {"decision": v.decision.value, **vars(v.params), "reason": v.reason, **critical,
            "sbr0": v.sbr0, "measured_sbr": v.measured_sbr, "setup_sbr": v.setup_sbr,
            "margin_p1": v.margin_p1}


PINNED_VERDICTS = Path(__file__).with_name("pinned_verdicts.json")


class TestOneCore:
    """classify and classify_counts share one core; its verdicts are
    pinned to the last bit (on x86-64 Linux, whose libm rounds exp,
    sinh, expm1 and log1p as the pins do)."""

    @staticmethod
    def gate(v):
        gates = {"no clicks": "no-clicks", "mean click": "mean-above-1",
                 "two-click": "sbr-not-applicable", "setup SBR": "setup-sbr-below-threshold",
                 "calibration eta": "eta-zero"}
        if v.reason is None:
            return v.decision.value
        return next(g for prefix, g in gates.items() if v.reason.startswith(prefix))

    def test_grid_verdicts_are_pinned(self):
        pinned = [json.loads(line) for line in PINNED_VERDICTS.read_text().splitlines()]
        grid = verdict_grid()
        assert len(pinned) == 2 * len(grid)
        reached = set()
        for i, (counts, calibration) in enumerate(grid):
            for want, kw in zip(pinned[2 * i: 2 * i + 2],
                                (calibration, {"delta": calibration["delta"]})):
                v = classify_counts(counts, **kw)
                reached.add(self.gate(v))
                assert want.pop("counts") == list(vars(counts).values())
                assert want.pop("kwargs") == kw
                got = verdict_fields(v)
                assert got.keys() == want.keys()
                for name, value in want.items():
                    # NaN marks a field not computed, in both
                    assert got[name] == value or got[name] != got[name] and value != value, \
                        (i, kw, name, got[name], value)
        assert reached == {"no-clicks", "mean-above-1", "sbr-not-applicable",
                           "setup-sbr-below-threshold", "eta-zero", "single", "not-single"}

    def test_counts_match_classify_of_their_stats(self):
        for counts, calibration in verdict_grid():
            for kw in (calibration, {"delta": calibration["delta"]}):
                v = classify_counts(counts, **kw)
                assert v == classify(stats_from_counts(counts), v.params), (counts, kw)

    def test_no_pulses_is_refused(self):
        with pytest.raises(RangeError, match="^n_all must be positive to form probabilities$") as exc:
            classify_counts(ClickCounts(0, 0, 0, 0, 0), eta=0.1, gamma=0.0)
        assert exc.value.field is None


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
