"""Single-emitter recognition from one set of click statistics.

The test exploits that a saturable two-detector stage bounds what a
pair (or larger group) of identical emitters can produce.  For a fixed
mean click number mean_n, the *least* distinguishable such system is
two emitters, each detected with the boundary efficiency

    eta* = 2 - sqrt(4 - 2 mean_n)        (so that 2 eta* - eta*^2/2 = mean_n)

Two or more identical emitters behind balanced arms with this mean satisfy

    P(1) <= p1_bound = mean_n - eta*^2
    P(2) >= p2_bound = eta*^2 / 2

so measuring P(1) *above* p1_bound rules such a system out.  The two
bounds are complementary: p1_bound + 2 p2_bound = mean_n.

That is the scope of the certificate.  Systems outside it can clear the
bound: IdealEmitters(2) at delta 0.3 and mean 0.2, classified with its
true calibration, is SINGLE by a margin of +9.0e-4, and at mean 0.2 a
balanced pair whose second emitter is at most half as bright as the
first clears it by more than 3 sigma_p1 at 1e6 pulses.  A SINGLE verdict
means "no identical partner behind balanced arms", not "no partner";
unbalanced arms and unequal pairs are open work.  Nor does NOT_SINGLE
exclude one blinking emitter: pulses that see background alone pool
below the bound, so EmitterWithBackground at eta 0.2 and gamma 0.1, on
in 20 % of pulses, reads NOT_SINGLE at 1e6 pulses by a margin of
-8.8e-5, though it reads SINGLE by +8.4e-3 when always on.

Background blurs the test.  A single emitter over background with
signal-to-background ratio below a threshold SBR0(mean_n) lands on the
wrong side of the boundary no matter what, so such a measurement is
declared indeterminate rather than "not single".  In closed form,
SBR0 = ((mean_n - b)/(1 - b/2))/b at the detected background
b = 4 p2_bound / (mean_n + sqrt(mean_n^2 - 4 p2_bound)), where the
signal+background two-click probability (b/2)(mean_n - b/2) reaches
p2_bound.  SBR0 runs from 1 + sqrt(2) (mean_n -> 0) down to about 1.63
(mean_n = 1).

Channel imbalance and finite sampling shift the critical values:

    P1_critical = p1_bound - delta_p1 + var_p1
    P2_critical = p2_bound - delta_p2 - var_p2

Real arms are never balanced: the channel efficiencies are
eta1 = (1 + delta) eta and eta2 = (1 - delta) eta, and imbalance moves
probability from the one-click to the two-click pattern.  For one
emitter over Poissonian background (exact unbalanced statistics in
``analytic.expected_stats``) the systematic deviations
delta_p = P_balanced - P_unbalanced have the closed form
(x = delta * eta * gamma / 2)

    delta_p1 = -[ (2 - eta) * 2 sinh^2(x/2) + delta eta sinh(x) ] e^(-eta gamma / 2)
    delta_p2 = -delta_p1          (the two deviations cancel exactly)

so delta_p1 <= 0 and the one-click threshold moves up.  Sampling over M
pulses adds the variance p(1-p)/M of an estimated probability; one
standard deviation is also reported for error bars.

The closed forms take math, or numpy from ``photon-gate sweep``, as
their last argument xp, so a curve runs through the text a verdict runs
and this module imports no numpy.  Only this module states the boundary,
as _bounds at a mean and _boundary_mean at an efficiency, and each
verdict or curve evaluates every closed form once, from the _bounds; only
SBR0 forms eta* afresh, in units of 2**k (mean_n = m 2**k), so that eta*^2
never goes subnormal and SBR0 keeps its limit 1 + sqrt(2) down to the
least positive mean.
classify and classify_counts share one core, which classify_counts feeds
from the tallies directly: p1 and p2 (no PhotonStats), the bounds (whose
eta* is the default eta) and the measured SBR (whence the default gamma).
"""

from __future__ import annotations

import math
from dataclasses import replace

# called by this name, so a wrapper set on criterion.sbr_from_stats sees each classify call
from .analytic import _measured_sbr, expected_stats, sbr_from_stats
from .model import (
    ClickCounts,
    CriticalValues,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    PhotonStats,
    RangeError,
    Verdict,
)


def _checked_mean(mean_n: float) -> float:
    if not 0.0 <= mean_n <= 1.0:
        raise RangeError(f"mean_n must be in [0, 1], got {mean_n!r}")
    return mean_n


def boundary_eta(mean_n: float) -> float:
    """Efficiency eta* at which two ideal emitters produce the given
    mean click number; computed as mean_n / (1 + sqrt(1 - mean_n/2)),
    which is exact and avoids cancellation for small means."""
    return _bounds(_checked_mean(mean_n))[0]


_ETA_MAX = 2.0 - math.sqrt(2.0)  # the largest eta*, where _boundary_mean reaches 1


def _boundary_mean(eta):
    """Mean click number 2 eta - eta^2/2 of two ideal emitters, each
    detected with efficiency eta; _bounds inverts it."""
    return 2.0 * eta - 0.5 * eta * eta


def _bounds(mean_n, xp=math):
    """(eta*, p1_bound, p2_bound) at a float or, with xp numpy, an array
    of means in [0, 1], unchecked."""
    eta = mean_n / (1.0 + xp.sqrt(1.0 - mean_n / 2.0))
    eta_sq = eta * eta  # not eta ** 2: libm's pow and numpy's square differ in the last bit
    return eta, mean_n - eta_sq, 0.5 * eta_sq


def sbr_threshold(mean_n: float) -> float:
    """Signal-to-background ratio below which a true single emitter is
    indistinguishable from the two-emitter boundary at this mean.

    The signal+background two-click probability (b/2)(mean_n - b/2)
    reaches p2_bound at the detected background
    b = 4 p2_bound / (mean_n + sqrt(mean_n^2 - 4 p2_bound)), the smaller
    root written without cancellation; SBR0 = ((mean_n - b)/(1 - b/2))/b.
    """
    if not 0.0 < mean_n <= 1.0:
        raise RangeError(f"mean_n must be in (0, 1], got {mean_n!r}")
    return _sbr_threshold(mean_n)


def _sbr_threshold(mean_n, xp=math):
    """sbr_threshold at a float or an array of means in (0, 1], unchecked.

    With mean_n = m 2**k and m in [1/2, 1), eta*, p2_bound and b scale as
    2**k, 2**2k and 2**k, so each is formed at m, where none underflows.
    Above about 1e-154, where p2_bound is normal anyway, a scaling by 2**k
    is exact, so the result is the float the unscaled formula gives."""
    m, k = xp.frexp(mean_n)
    eta = m / (1.0 + xp.sqrt(1.0 - mean_n / 2.0))
    p2 = 0.5 * (eta * eta)
    b = 4.0 * p2 / (m + xp.sqrt(m * m - 4.0 * p2))
    return ((m - b) / (1.0 - xp.ldexp(b, k) / 2.0)) / b


def setup_sbr(params: DetectionParams) -> float:
    """Signal-to-background ratio implied by the calibration: signal
    eta against detected background b = 2 (1 - e^(-x)), x = eta gamma / 2.
    Computed as 1 / (gamma g(x)) with g(x) = (1 - e^(-x)) / x and
    g(0) = 1, so it takes its limit 1/gamma at eta = 0 rather than
    0/0.  Infinite when there is no background, gamma = 0."""
    if params.gamma == 0.0:
        return math.inf
    x = params.eta * params.gamma / 2.0
    g = -math.expm1(-x) / x if x else 1.0
    return 1.0 / (params.gamma * g)


def systematic_deviation(params: DetectionParams) -> tuple[float, float]:
    """(delta_p1, delta_p2): balanced minus unbalanced one- and
    two-click probabilities.  Both vanish when delta, gamma or eta is
    zero; delta_p1 <= 0 <= delta_p2 and they sum to zero exactly."""
    return _deviation(params.eta, params.delta, params.gamma)


def _deviation(eta, delta: float, gamma: float, xp=math):
    """systematic_deviation at eta, a float or an array."""
    x = delta * eta * gamma / 2.0
    sh = xp.sinh(x / 2.0)
    bracket = (2.0 - eta) * 2.0 * sh * sh + delta * eta * xp.sinh(x)
    d2 = bracket * xp.exp(-eta * gamma / 2.0)
    return 0.0 - d2, d2  # not -d2, which is -0.0 when d2 is 0


def relative_deviations(params: DetectionParams) -> tuple[float, float]:
    """(r1, r2) = systematic deviations relative to the balanced
    probabilities they perturb.  r1 <= 0 <= r2; r2 is nearly flat in
    eta and gamma and scales with delta^2.  Raises ZeroDivisionError
    when the balanced probability vanishes (e.g. gamma = 0 makes the
    two-click probability of a single emitter exactly zero)."""
    balanced = expected_stats(EmitterWithBackground(), replace(params, delta=0.0))
    d1, d2 = systematic_deviation(params)
    if balanced.p1 == 0.0 or balanced.p2 == 0.0:
        raise ZeroDivisionError(
            "balanced reference probability is zero "
            f"(p1={balanced.p1!r}, p2={balanced.p2!r}); relative deviation undefined"
        )
    return d1 / balanced.p1, d2 / balanced.p2


def _fluctuation(p, cycles: int, xp=math):
    """(variance p (1 - p) / cycles, one standard deviation) of a
    probability p estimated over cycles pulses; p a float or an array,
    unchecked."""
    var = p * (1.0 - p) / cycles
    return var, xp.sqrt(var)


def corrected_critical_values(mean_n: float, params: DetectionParams) -> CriticalValues:
    """Critical values at mean_n, corrected for the calibration's
    channel imbalance and for sampling over params.cycles pulses."""
    return _critical_values(_bounds(_checked_mean(mean_n)), params.eta, params.delta,
                            params.gamma, params.cycles)


def _critical_values(bounds, eta, delta: float, gamma: float, cycles: int,
                     xp=math) -> CriticalValues:
    """corrected_critical_values from the _bounds at the mean, unchecked;
    with arrays of bounds and of eta, each field is an array over them."""
    _, p1_bound, p2_bound = bounds
    d1, d2 = _deviation(eta, delta, gamma, xp)
    var1, sig1 = _fluctuation(p1_bound, cycles, xp)
    var2, sig2 = _fluctuation(p2_bound, cycles, xp)
    return CriticalValues(p1_bound, p2_bound, p1_bound - d1 + var1, p2_bound - d2 - var2,
                          d1, d2, var1, var2, sig1, sig2)  # in field order


def _verdict(p1: float, p2: float, measured: float | None, bounds,
             params: DetectionParams) -> Verdict:
    """The verdict of classify from p1, p2, the measured SBR and the _bounds
    at the mean p1 + 2 p2 (None outside (0, 1]), each computed once."""
    mean_n = p1 + 2.0 * p2
    if mean_n <= 0.0:
        return Verdict(Decision.INDETERMINATE, params,
                       "no clicks observed; statistics carry no information")
    if mean_n > 1.0:
        return Verdict(Decision.INDETERMINATE, params,
                       f"mean click number {mean_n!r} exceeds 1; outside the test's domain")
    crit = _critical_values(bounds, params.eta, params.delta, params.gamma, params.cycles)
    sbr0 = _sbr_threshold(mean_n)
    setup = setup_sbr(params)
    margin = p1 - crit.p1_corrected
    decision = Decision.INDETERMINATE
    if measured is None:
        reason = ("two-click rate too high for the signal+background model; "
                  "measured SBR undefined")
    elif setup < sbr0:
        reason = (f"setup SBR {setup:.3f} below threshold {sbr0:.3f}; "
                  "background too strong for a verdict")
    elif params.eta == 0.0:
        reason = "calibration eta = 0 detects no photon, yet clicks were observed"
    else:
        decision = Decision.SINGLE if margin > 0.0 else Decision.NOT_SINGLE
        reason = None
    return Verdict(decision, params, reason, critical=crit, sbr0=sbr0,
                   measured_sbr=measured, setup_sbr=setup, margin_p1=margin)


def classify(stats: PhotonStats, params: DetectionParams) -> Verdict:
    """Decide single / not-single / indeterminate for one measurement.

    The gates, in order, each leave it indeterminate: no clicks; a mean
    click number above 1; a two-click rate the signal+background model
    cannot give (measured SBR undefined); a *setup* signal-to-background
    ratio, from the calibration params, below sbr_threshold(mean_n); a
    calibration of eta = 0, which detects no photon.  Past them, p1
    above its corrected critical value is single, else not single.  The
    data-driven estimate (measured_sbr) is reported alongside but does
    not gate a calibrated measurement.
    """
    mean_n = stats.mean_n
    bounds = _bounds(mean_n) if 0.0 < mean_n <= 1.0 else None
    return _verdict(stats.p1, stats.p2, sbr_from_stats(stats), bounds, params)


def classify_counts(
    counts: ClickCounts,
    *,
    eta: float | None = None,
    delta: float = 0.0,
    gamma: float | None = None,
    cycles: int | None = None,
) -> Verdict:
    """Classify raw tallies, filling in calibration defaults.

    Without an explicit eta the boundary efficiency at the measured
    mean is assumed.  Without an explicit gamma the background level is
    back-solved from the measured SBR, which makes the applicability
    gate act on the data-driven SBR itself — the conservative,
    uncalibrated reading.  Pass the real calibration to override.  The
    verdict is classify(stats_from_counts(counts), verdict.params).
    """
    if counts.n_all == 0:
        raise RangeError("n_all must be positive to form probabilities")
    m = float(counts.n_all)  # as stats_from_counts divides
    p1, p2 = (counts.n_10 + counts.n_01) / m, counts.n_11 / m
    mean_n = p1 + 2.0 * p2
    bounds = _bounds(mean_n) if 0.0 < mean_n <= 1.0 else None
    measured = _measured_sbr(p1, p2)
    if eta is None:
        eta = bounds[0] if bounds else 0.0
    if gamma is None:
        gamma = 0.0
        if bounds and eta > 0.0 and measured is not None and math.isfinite(measured):
            # invert b = 2 (1 - e^(-eta gamma / 2)) at b = eta / SBR,
            # capped away from the b = 2 pole for pathological inputs
            b = min(eta / measured, 1.99)
            gamma = -2.0 * math.log1p(-b / 2.0) / eta
    params = DetectionParams(eta=eta, delta=delta, gamma=gamma,
                             cycles=cycles if cycles is not None else counts.n_all)
    return _verdict(p1, p2, measured, bounds, params)
