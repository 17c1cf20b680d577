"""Brute-force reference implementations used only by the tests.

These deliberately avoid the package's algebra: click probabilities
are obtained by literal enumeration of every photon routing/detection
outcome, so agreement with the closed forms is a genuine two-route
check.  Likewise the time-tag fold is redone one tag at a time in
exact rational arithmetic, the SBR threshold by bisection, and
coherent light is sampled photon by photon.  The
expanded two-emitter form and the (signal, background) parametrization
are further independent routes to statistics the package computes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from photon_gate import PhotonStats, RangeError, uncorrected_bounds


def hbt_enumerate(probs) -> tuple[float, float, float]:
    """(p0, p1, p2) by enumerating all 2^n equally likely routings of n
    photons onto two saturable detectors (unit efficiency)."""
    p00 = p10 = p01 = p11 = 0.0
    for n, pn in enumerate(probs):
        if pn == 0.0:
            continue
        if n == 0:
            p00 += pn
            continue
        w = pn * 0.5**n
        for routing in product((0, 1), repeat=n):
            a = 0 in routing
            b = 1 in routing
            if a and b:
                p11 += w
            elif a:
                p10 += w
            elif b:
                p01 += w
            else:
                p00 += w
    return p00, p10 + p01, p11


def joint_enumerate(
    s: int, eta1: float, eta2: float, gamma: float = 0.0
) -> tuple[float, float, float]:
    """(p0, p1, p2) for s emitters, each photon ending as a channel-A
    click (prob eta1/2), a channel-B click (prob eta2/2) or nothing,
    plus per-channel Poissonian background clicks with means
    gamma*eta1/2 and gamma*eta2/2.  Pure enumeration over 3^s photon
    outcomes and the four background click/no-click combinations."""
    pa, pb = eta1 / 2.0, eta2 / 2.0
    pn = 1.0 - pa - pb
    emitter = {(False, False): 0.0, (True, False): 0.0,
               (False, True): 0.0, (True, True): 0.0}
    for outcome in product((0, 1, 2), repeat=s):
        w = 1.0
        for o in outcome:
            w *= (pa, pb, pn)[o]
        emitter[(0 in outcome, 1 in outcome)] += w
    bg_a0 = math.exp(-gamma * eta1 / 2.0)
    bg_b0 = math.exp(-gamma * eta2 / 2.0)
    p00 = p10 = p01 = p11 = 0.0
    for (ea, eb), w in emitter.items():
        for ba, wa in ((False, bg_a0), (True, 1.0 - bg_a0)):
            for bb, wb in ((False, bg_b0), (True, 1.0 - bg_b0)):
                a, b = ea or ba, eb or bb
                ww = w * wa * wb
                if a and b:
                    p11 += ww
                elif a:
                    p10 += ww
                elif b:
                    p01 += ww
                else:
                    p00 += ww
    return p00, p10 + p01, p11


def poisson_joint_enumerate(
    mu: float, eta1: float, eta2: float, n_max: int = 12
) -> tuple[float, float, float]:
    """Like joint_enumerate but with Poisson(mu) photons per pulse,
    truncated at n_max and renormalized (keep mu small)."""
    pa, pb = eta1 / 2.0, eta2 / 2.0
    pn = 1.0 - pa - pb
    pois = np.array([math.exp(-mu) * mu**n / math.factorial(n) for n in range(n_max + 1)])
    pois /= pois.sum()
    p00 = p10 = p01 = p11 = 0.0
    for n, w_n in enumerate(pois):
        for outcome in product((0, 1, 2), repeat=n):
            w = float(w_n)
            for o in outcome:
                w *= (pa, pb, pn)[o]
            a, b = 0 in outcome, 1 in outcome
            if a and b:
                p11 += w
            elif a:
                p10 += w
            elif b:
                p01 += w
            else:
                p00 += w
    return p00, p10 + p01, p11


def coherent_clicks_per_photon(rng, mu: float, params, size: int):
    """Click indicators (A, B) of `size` coherent pulses over Poissonian
    background, sampled photon by photon: Poisson(mu) coherent and
    Poisson(gamma) background photons per pulse, then one uniform per
    photon, firing A when u < eta1/2 and B when u >= 1 - eta2/2.  No
    per-channel Poisson splitting is assumed."""
    photons = rng.poisson(mu, size) + rng.poisson(params.gamma, size)
    u = rng.random(int(photons.sum()))
    pulse = np.repeat(np.arange(size), photons)
    click_a = np.zeros(size, dtype=bool)
    click_b = np.zeros(size, dtype=bool)
    click_a[pulse[u < params.eta1 / 2.0]] = True
    click_b[pulse[u >= 1.0 - params.eta2 / 2.0]] = True
    return click_a, click_b


def convolve_bernoulli_poisson(eta: float, lam: float, n_max: int = 24) -> np.ndarray:
    """Number distribution of one Bernoulli(eta) photon plus
    Poisson(lam) background photons (truncated; tail left off)."""
    pois = np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in range(n_max)])
    return np.convolve(np.array([1.0 - eta, eta]), pois)


def ingest_oracle(
    channels, timestamps, period, offset, width, n_pulses: int
) -> tuple[int, int, int, int]:
    """(n_00, n_10, n_01, n_11) by folding one tag at a time in exact
    rational arithmetic: tag t lies in pulse k = floor(t / period) at
    position t - k * period, and is kept when that position is in
    [offset, offset + width) and k < n_pulses.  Each channel's kept
    pulses form a set, so repeats within one pulse count once."""
    period, offset, width = Fraction(period), Fraction(offset), Fraction(width)
    fired = (set(), set())
    for ch, t in zip(channels, timestamps):
        k = math.floor(Fraction(int(t)) / period)
        if offset <= int(t) - k * period < offset + width and k < n_pulses:
            fired[int(ch)].add(k)
    a, b = fired
    n_11 = len(a & b)
    n_10, n_01 = len(a) - n_11, len(b) - n_11
    return n_pulses - n_10 - n_01 - n_11, n_10, n_01, n_11


def double_molecule_stats(eta: float) -> PhotonStats:
    """Two ideal emitters, balanced channels — the boundary system of
    the single-emitter criterion, in expanded form:

        P(0) = (1 - eta)^2,  P(1) = 2 eta - 3/2 eta^2,  P(2) = eta^2/2
    """
    if not 0.0 <= eta <= 1.0:
        raise RangeError(f"eta must be in [0, 1], got {eta!r}")
    return PhotonStats(
        p0=(1.0 - eta) ** 2,
        p1=2.0 * eta - 1.5 * eta * eta,
        p2=0.5 * eta * eta,
    )


def stats_from_sb(s: float, b: float) -> PhotonStats:
    """Click statistics parametrized by detected signal and background.

    s is the probability a signal photon is detected somewhere; b is the
    mean number of detected background clicks (split evenly, so each
    channel independently sees background with probability b/2).  The
    emitter+background closed form is recovered by s = eta and
    b = 2 (1 - e^(-eta gamma / 2)).
    """
    if not 0.0 <= s <= 1.0:
        raise RangeError(f"s must be in [0, 1], got {s!r}")
    if not 0.0 <= b <= 2.0:
        raise RangeError(f"b must be in [0, 2], got {b!r}")
    keep = 1.0 - b / 2.0
    no_a = no_b = (1.0 - s / 2.0) * keep
    none = (1.0 - s) * keep * keep
    # inclusion-exclusion over the two per-channel no-click events
    return PhotonStats(p0=none, p1=no_a + no_b - 2.0 * none, p2=1.0 - no_a - no_b + none)


def sbr_threshold_bisection(mean_n: float, steps: int = 200) -> float:
    """SBR threshold by bisection on the detected background b in
    (0, mean_n]: the signal+background two-click probability
    (b/2)(mean_n - b/2) grows monotonically in b there, and the
    threshold is s / b with s = (mean_n - b) / (1 - b/2) where it
    reaches p2_bound."""
    _, p2_bound = uncorrected_bounds(mean_n)

    def excess(b: float) -> float:
        return (b / 2.0) * (mean_n - b / 2.0) - p2_bound

    lo, hi = 0.0, mean_n
    assert excess(hi) >= 0.0, mean_n
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    b = 0.5 * (lo + hi)
    return ((mean_n - b) / (1.0 - b / 2.0)) / b
