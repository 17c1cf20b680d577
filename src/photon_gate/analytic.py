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

The module provides the transform plus one closed form for every
standard source (s ideal emitters, one emitter over Poissonian
background, coherent pulses).  model.photon_plan reduces each source to
s photons every pulse carries plus Poissonian light of mean lam.  A
fixed photon misses channel i with probability 1 - eta_i/2, and
Poissonian light thinned by routing and detection leaves channel i dark
with probability exp(-lam eta_i/2), so

    P(no A)    = (1 - eta1/2)^s exp(-lam eta1/2)
    P(no B)    = (1 - eta2/2)^s exp(-lam eta2/2)
    P(neither) = (1 - eta)^s    exp(-lam eta)

and inclusion-exclusion over the two no-click events gives the click
patterns.  The tests cross-check this against the transform and against
brute-force enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ClickCounts,
    DetectionParams,
    PhotonStats,
    RangeError,
    SbrNotApplicable,
    SourceModel,
    photon_plan,
)

_TAIL_LIMIT = 1e-12


@dataclass(frozen=True)
class SourceDistribution:
    """Photon-number distribution arriving at the beamsplitter.

    probs[n] is the probability of n photons; tail_mass is whatever the
    truncation left out (the built-in constructors keep it below 1e-12).
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise RangeError("probs must be a nonempty 1-d array")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise RangeError("probs must be finite and nonnegative")
        if not 0.0 <= self.tail_mass <= 1.0:
            raise RangeError(f"tail_mass must be in [0, 1], got {self.tail_mass!r}")
        total = float(probs.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise RangeError(f"probs + tail_mass must sum to 1, got {total!r}")


def binomial_source(s: int, eta: float) -> SourceDistribution:
    """Number distribution from s independent emitters, each delivering
    one photon with probability eta (emitter + collection + detector
    efficiency combined)."""
    if s < 1 or s != int(s):
        raise RangeError(f"s must be a positive integer, got {s!r}")
    if not 0.0 <= eta <= 1.0:
        raise RangeError(f"eta must be in [0, 1], got {eta!r}")
    probs = np.array(
        [math.comb(s, n) * (1.0 - eta) ** (s - n) * eta**n for n in range(s + 1)]
    )
    return SourceDistribution(probs=probs, tail_mass=0.0)


def poisson_source(mu: float, n_max: int | None = None) -> SourceDistribution:
    """Poissonian number distribution with mean mu, truncated where the
    remaining tail drops below 1e-12 (or at n_max if given)."""
    if not (math.isfinite(mu) and mu >= 0.0):
        raise RangeError(f"mu must be finite and >= 0, got {mu!r}")
    if n_max is None:
        # generous cap; the tail of a Poisson dies factorially fast
        n_max = max(20, int(mu + 20.0 * math.sqrt(mu) + 20.0))
    terms = []
    term = math.exp(-mu)
    cumulative = 0.0
    for n in range(n_max + 1):
        terms.append(term)
        cumulative += term
        if 1.0 - cumulative < _TAIL_LIMIT:
            break
        term *= mu / (n + 1)
    tail = max(0.0, 1.0 - cumulative)
    return SourceDistribution(probs=np.array(terms), tail_mass=tail)


def hbt_transform(source: SourceDistribution) -> PhotonStats:
    """Apply the saturable two-detector transform to a source
    distribution.  Tail mass is attributed to the two-click outcome
    (for large n both detectors click almost surely); the built-in
    sources keep it below 1e-12 so this never matters in practice."""
    probs = source.probs
    n = np.arange(probs.size)
    weights = np.exp2(1.0 - n[1:])  # 2^(1-n) for n >= 1
    p0 = float(probs[0])
    p1 = float(np.dot(probs[1:], weights))
    p2 = float(np.dot(probs[2:], 1.0 - weights[1:])) + source.tail_mass
    return PhotonStats(p0=p0, p1=p1, p2=p2)


def single_with_background_stats(params: DetectionParams) -> PhotonStats:
    """One emitter (efficiency eta) over Poissonian background (mean
    gamma at the source plane), balanced channels:

        P(0) = (1 - eta) e^(-eta gamma)
        P(1) = 2 (1 - eta/2) e^(-eta gamma / 2) - 2 (1 - eta) e^(-eta gamma)
        P(2) = (1 - e^(-eta gamma / 2))^2 + eta e^(-eta gamma/2) (1 - e^(-eta gamma/2))
    """
    eta, gamma = params.eta, params.gamma
    x = eta * gamma / 2.0
    e1 = math.exp(-x)
    e2 = math.exp(-2.0 * x)
    em1 = -math.expm1(-x)  # 1 - e^(-x), stable for small x
    return PhotonStats(
        p0=(1.0 - eta) * e2,
        p1=2.0 * (1.0 - eta / 2.0) * e1 - 2.0 * (1.0 - eta) * e2,
        p2=em1 * em1 + eta * e1 * em1,
    )


def expected_stats(source: SourceModel, params: DetectionParams) -> PhotonStats:
    """Closed-form click statistics for a source model under the given
    detection calibration — the analytic reference the Monte Carlo
    simulator is checked against.  One formula covers every source,
    through its photon_plan (see the module docstring)."""
    s, lam = photon_plan(source, params)
    no_a = (1.0 - params.eta1 / 2.0) ** s * math.exp(-lam * params.eta1 / 2.0)
    no_b = (1.0 - params.eta2 / 2.0) ** s * math.exp(-lam * params.eta2 / 2.0)
    none = (1.0 - params.eta) ** s * math.exp(-lam * params.eta)
    # inclusion-exclusion over the two per-channel no-click events
    return PhotonStats(p0=none, p1=no_a + no_b - 2.0 * none, p2=1.0 - no_a - no_b + none)


def sbr_from_stats(stats: PhotonStats) -> float:
    """Signal-to-background ratio estimated from click statistics alone
    via SBR ~= P(1)^2 / (2 P(2)).

    Valid only in the weak-background regime; the applicability
    precondition P(1) >= 2 sqrt(P(2)) - 3 P(2) is enforced and
    SbrNotApplicable raised outside it.  Returns math.inf when no
    two-click probability is present at all.
    """
    if stats.p1 < 2.0 * math.sqrt(stats.p2) - 3.0 * stats.p2:
        raise SbrNotApplicable(
            f"p1={stats.p1!r} below applicability bound for p2={stats.p2!r}"
        )
    if stats.p2 == 0.0:
        return math.inf
    return stats.p1 * stats.p1 / (2.0 * stats.p2)


def g2_zero_estimate(counts: ClickCounts) -> float:
    """Normalized zero-delay coincidence ratio from raw tallies:

        g2(0) ~= (n_11 / n_all) / (p_A * p_B)

    with p_A, p_B the per-channel click probabilities.  Coherent pulses
    give 1 within statistics; an ideal single emitter gives exactly 0.
    """
    if counts.n_all == 0:
        raise ZeroDivisionError("n_all is zero")
    m = float(counts.n_all)
    p_a = (counts.n_10 + counts.n_11) / m
    p_b = (counts.n_01 + counts.n_11) / m
    if p_a == 0.0 or p_b == 0.0:
        raise ZeroDivisionError("a channel saw no clicks; g2 undefined")
    return (counts.n_11 / m) / (p_a * p_b)
