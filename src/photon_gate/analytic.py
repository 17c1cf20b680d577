"""Closed-form click statistics behind a saturable 50/50 two-detector stage.

Detection model
---------------
Each excitation pulse delivers n photons to a 50/50 beamsplitter; every
photon independently goes to channel A or B.  Each channel's detector
fires at most once per pulse (it saturates), so the observable per pulse
is one of four patterns: no click, A only, B only, both.  For an
incoming number distribution P_in(n) with ideal detectors this gives

    P(0) = P_in(0)
    P(1) = sum_{n>=1} P_in(n) * 2^(1-n)
    P(2) = sum_{n>=2} P_in(n) * (1 - 2^(1-n))

Finite detection efficiency is folded into the source distribution
(binomial thinning), so the same transform covers lossy detection.

Derived numbers
---------------
    mean_n = P(1) + 2 P(2)           mean clicks per pulse
    Q      = 2 P(2)/mean_n - mean_n  Mandel parameter of the click number

Q < 0 is sub-"binomial" statistics; an ideal single emitter detected
with efficiency eta gives exactly Q = -eta, while coherent pulses give
Q = -mean_n/2 (only because the second detector saturates).

The module gives one closed form for every standard source (s ideal
emitters, one emitter over Poissonian background, coherent pulses).
model.photon_plan reduces each source to s photons every pulse carries
plus Poissonian light of mean lam.  A fixed photon reaches channel i
with probability eta_i/2, so the s photons click it with
f_i = 1 - (1 - eta_i/2)^s; Poissonian light thinned by routing and
detection clicks channel i with p_i = 1 - exp(-lam eta_i/2).  Then

    P(0) = (1 - eta)^s exp(-lam eta)
    P(2) = pA pB + pA (1 - pB) fB + (1 - pA) pB fA + (1 - pA)(1 - pB) fAB
    P(1) = 1 - P(0) - P(2)

with fAB = fA fB - ((1 - eta + xA xB)^s - (1 - eta)^s), xi = eta_i/2,
the chance that the fixed photons click both channels (0 for s <= 1).
P(2) is a sum of nonnegative terms, so it keeps its relative precision
when eta is tiny, where the plain inclusion-exclusion 1 - P(no A) -
P(no B) + P(0) (or fAB = fA + fB - f_any) cancels to rounding noise.
The number-distribution transform above lives in the tests
(tests/_oracles.py) as a second route to the same numbers, together
with brute-force enumeration.
"""

from __future__ import annotations

import math

from .model import (
    ClickCounts,
    DetectionParams,
    PhotonStats,
    SourceModel,
    photon_plan,
)


def _reach(x: float, s: int) -> float:
    """1 - (1 - x)^s, the chance that at least one of s photons takes a
    branch of probability x, without cancellation at small x."""
    if x == 1.0:
        return 1.0 if s else 0.0
    return -math.expm1(s * math.log1p(-x))


def expected_stats(source: SourceModel, params: DetectionParams) -> PhotonStats:
    """Closed-form click statistics for a source model under the given
    detection calibration — the analytic reference the Monte Carlo
    simulator is checked against.  One formula covers every source,
    through its photon_plan (see the module docstring)."""
    s, lam = photon_plan(source, params)
    x_a, x_b, eta = params.eta1 / 2.0, params.eta2 / 2.0, params.eta
    # Poissonian light clicks channel i (p_i) or leaves it dark (q_i);
    # the fixed photons reach channel i (f_i), either (f_any) or both (f_ab)
    p_a, p_b = -math.expm1(-lam * x_a), -math.expm1(-lam * x_b)
    q_a, q_b = math.exp(-lam * x_a), math.exp(-lam * x_b)
    f_a, f_b, f_any = _reach(x_a, s), _reach(x_b, s), _reach(eta, s)
    # (u + v)^s - u^s for u = 1 - eta, v = x_a x_b, without cancellation
    u, v = 1.0 - eta, x_a * x_b
    gap = u**s * math.expm1(s * math.log1p(v / u)) if u else v**s
    f_ab = f_a * f_b - gap if s >= 2 else 0.0
    p2 = p_a * p_b + p_a * q_b * f_b + q_a * p_b * f_a + q_a * q_b * f_ab
    clicked = f_any - math.expm1(-lam * eta) * (1.0 - f_any)
    p0 = (1.0 - eta) ** s * math.exp(-lam * eta)
    return PhotonStats(p0=p0, p1=clicked - p2, p2=p2)


def sbr_from_stats(stats: PhotonStats) -> float | None:
    """Signal-to-background ratio estimated from click statistics alone
    via SBR ~= P(1)^2 / (2 P(2)).

    Valid only in the weak-background regime: None when the
    applicability precondition P(1) >= 2 sqrt(P(2)) - 3 P(2) fails.
    Returns math.inf when no two-click probability is present at all.
    criterion.classify_counts estimates it from its tallies' p1 and p2
    through the same text, _measured_sbr, once per verdict.
    """
    return _measured_sbr(stats.p1, stats.p2)


def _measured_sbr(p1: float, p2: float) -> float | None:
    """sbr_from_stats of the one- and two-click probabilities p1, p2."""
    if p1 < 2.0 * math.sqrt(p2) - 3.0 * p2:
        return None
    if p2 == 0.0:
        return math.inf
    return p1 * p1 / (2.0 * p2)


def g2_zero_estimate(counts: ClickCounts) -> float | None:
    """Normalized zero-delay coincidence ratio from raw tallies:

        g2(0) ~= (n_11 / n_all) / (p_A * p_B)

    with p_A, p_B the per-channel click probabilities.  Coherent pulses
    give 1 within statistics; an ideal single emitter gives exactly 0.
    None where g2(0) is undefined: no pulses, or a channel without clicks.
    """
    m = float(counts.n_all)
    clicks_a, clicks_b = counts.n_10 + counts.n_11, counts.n_01 + counts.n_11
    if m == 0.0 or clicks_a == 0 or clicks_b == 0:
        return None
    return (counts.n_11 / m) / ((clicks_a / m) * (clicks_b / m))
