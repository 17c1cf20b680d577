"""Reference implementations used only by the tests.

These deliberately avoid the package's algebra: click probabilities
are obtained by literal enumeration of every photon routing/detection
outcome, so agreement with the closed forms is a genuine two-route
check.  Likewise the time-tag fold is redone one tag at a time in
exact rational arithmetic, the SBR threshold by bisection, and
coherent light is sampled photon by photon.

Second routes to statistics the package computes in one closed form:
the paper's number-distribution transform (SourceDistribution,
binomial_source, poisson_source, hbt_transform), the explicit
emitter-plus-background form (single_with_background_stats), plain
inclusion-exclusion in 100-digit decimal arithmetic
(inclusion_exclusion_decimal), the expanded two-emitter form and the
(signal, background) parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np

from photon_gate import DetectionParams, PhotonStats, RangeError
from photon_gate.criterion import _bounds

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
    distribution:

        P(0) = P_in(0)
        P(1) = sum_{n>=1} P_in(n) * 2^(1-n)
        P(2) = sum_{n>=2} P_in(n) * (1 - 2^(1-n))

    Tail mass is attributed to the two-click outcome (for large n both
    detectors click almost surely); the built-in sources keep it below
    1e-12 so this never matters in practice."""
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

    P(1) is evaluated as e^(-eta gamma/2) (eta + 2 (1 - eta)(1 - e^(-eta gamma/2))),
    the same expression factored so that no term cancels at small eta.
    """
    eta, gamma = params.eta, params.gamma
    x = eta * gamma / 2.0
    e1 = math.exp(-x)
    e2 = math.exp(-2.0 * x)
    em1 = -math.expm1(-x)  # 1 - e^(-x), stable for small x
    return PhotonStats(
        p0=(1.0 - eta) * e2,
        p1=e1 * (eta + 2.0 * (1.0 - eta) * em1),
        p2=em1 * em1 + eta * e1 * em1,
    )


def inclusion_exclusion_decimal(
    s: int, lam: float, eta1: float, eta2: float, digits: int = 100
) -> tuple[float, float, float]:
    """(p0, p1, p2) of s fixed photons plus Poisson(lam) light, from the
    plain inclusion-exclusion over the two no-click events

        P(no A) = (1 - eta1/2)^s e^(-lam eta1/2),  likewise B,
        P(0)    = (1 - eta1/2 - eta2/2)^s e^(-lam (eta1 + eta2)/2),

    evaluated in `digits`-digit decimal arithmetic, where its
    cancellation costs nothing at double precision; each result is
    rounded to the nearest float once."""
    with localcontext() as ctx:
        ctx.prec = digits
        x_a, x_b, lam = Decimal(eta1) / 2, Decimal(eta2) / 2, Decimal(lam)
        no_a = (1 - x_a) ** s * (-lam * x_a).exp()
        no_b = (1 - x_b) ** s * (-lam * x_b).exp()
        dark = (1 - x_a - x_b) ** s if s else 1  # decimal 0 ** 0 is undefined
        none = dark * (-lam * (x_a + x_b)).exp()
        return float(none), float(no_a + no_b - 2 * none), float(1 - no_a - no_b + none)


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
    pulses form a set, so repeats within one pulse count once.  A float
    timing is the decimal it prints as, as GateConfig reads it."""
    period, offset, width = (Fraction(str(x)) if isinstance(x, float) else Fraction(x)
                             for x in (period, offset, width))
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
    _, _, p2_bound = _bounds(mean_n)

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
