"""Monte Carlo pulse-train simulator for the two-detector stage.

Every click probability in this package has a closed form; the
simulator exists to check them mechanically.  model.photon_plan reduces
each source to s photons every pulse carries plus Poissonian light of
mean lam per pulse, and the simulator samples both parts.

Every part is a row of independent Bernoulli trials, one per pulse, and
no row is drawn pulse by pulse: a photon row is walked and a light row
placed, so a block's cost grows with its detections (or a bright row's
misses), not with its pulses or photons.

_hits walks a photon row's successes: the gap from one success to the
next is geometric, 1 + floor(X) with X = E / -log(1 - p) and E a
standard exponential.  Each fixed photon is detected with probability
eta (the row's p) and goes to channel B with probability
to_b = (1 - delta) / 2, so A fires with eta1/2 and B with eta2/2 per
photon.  The route needs no draw of its own: frac(X) is independent of
floor(X), with P(frac(X) < c) = (1 - (1 - p)**c) / p, so a detected
photon goes to B exactly when the fraction of its own gap is below
c = log1p(-p * to_b) / log1p(-p).  A photon row therefore costs one
exponential per detection and is always drawn as its hits, since only
a hit's own gap can route it.  At eta = 1 the gaps carry nothing: the
row draws no exponential, every pulse detects the photon, and one
uniform per pulse routes it.

Poissonian light (coherent pulses and stray background alike) is not
routed photon by photon: a Poisson photon number split by independent
routing and detection gives independent Poisson counts per channel,
with mean x = lam * eta_i / 2 on channel i.  Each detector reports at
most one click per pulse, so channel i's row has p = 1 - exp(-x).  A
light row drops K ~ Poisson(y * n) marks into uniform pulses of the
block's n, so each pulse has an independent Poisson(y) mark count.
With p <= 1/2 the marks are photons (y = x) and the marked pulses
click; else they are misses, y = -log(1 - exp(-x)), so a pulse is
marked with probability 1 - exp(-y) = exp(-x), and the rest click.
The row draws no exponential and on average y * n <= n log 2 integers
(none at p = 1), so the draws per pulse do not grow with lam.

Determinism
-----------
Pulses are processed in fixed-size blocks, 262 144 (2**18) by default.
Block k draws from its own stream, SFC64 seeded by child k of
SeedSequence(seed), and results are assembled in block order — so they
depend only on (config), never on scheduling or worker count: one
config gives byte-identical counts at any worker count.  The block size
weighs a fixed cost per block (seeding the stream takes about 16 us,
and each row makes about a dozen numpy calls) against the working set
of the block's arrays.  perfbench's simulate workload at 1e6 pulses
per op and eta 0.1, two runs per size (2 vCPUs, numpy 2.4.6; pulses
per reference second, in millions, for IdealEmitters(3) with
EmitterWithBackground and for Coherent(0.5); the coherent column was
measured again once sparse light rows were placed, seeds 1 and 2):

    block   ideal, background    coherent           peak RSS (MiB)
    2**16   227, 239             605, 650           36.4, 36.4
    2**17   262, 268             773, 759           36.6, 36.5
    2**18   293, 285             822, 819           37.2, 37.2
    2**19   295, 295             758, 797           39.0, 39.0

2**19 gains about 2 % on the fixed-photon sources and loses about 5 %
on Coherent, for 1.8 MiB more peak memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# SimConfig is defined in model, which loads no numpy; imported here, it
# is also photon_gate.simulate.SimConfig
from .model import ClickCounts, FormatError, SimConfig, _checked_int, photon_plan


def _batch(p: float, n: int) -> int:
    """Exponentials _hits draws at once for n trials left: the expected
    successes plus a margin of four standard deviations and 16, so a
    second batch is rare; never more than n."""
    return min(n, int(n * p + 4.0 * math.sqrt(n * p)) + 16)


def _hits(rng: np.random.Generator, p: float, n: int,
          to_b: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted int64 indices of the successes among n independent
    Bernoulli(p) trials, and a bool mask that routes each success to
    channel B with probability to_b.

    The gaps between successes are floor(X) + 1 with X = E / lam,
    lam = -log(1 - p) and E a standard exponential, drawn in batches of
    _batch(p, n_left).  A batch that ends before trial n is followed by
    another from the trial after its last success; the unused end of the
    last batch is discarded.  A success goes to B when the fraction of
    its own X is below log1p(-p * to_b) / log1p(-p) (the module docstring
    shows why).  At p = 1 every trial succeeds, no exponential is drawn,
    and each success routes by one uniform."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.bool_)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64), rng.random(n) < to_b
    scale = -1.0 / math.log1p(-p)  # 1 / lam
    cut = math.log1p(-p * to_b) / math.log1p(-p)
    parts, routes, start = [], [], 0  # start: the first trial not yet decided
    while start < n:
        x = rng.standard_exponential(_batch(p, n - start))
        x *= scale
        # clipped at n before the cast: a gap past n ends the row either way
        hits = np.minimum(x, n, out=x).astype(np.int64)
        x -= hits
        routes.append(x < cut)
        hits += 1
        hits[0] += start - 1
        np.cumsum(hits, out=hits)
        parts.append(hits)
        start = int(hits[-1]) + 1

    def joined(arrays: list[np.ndarray]) -> np.ndarray:
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    hits = joined(parts)
    kept = int(np.searchsorted(hits, n))
    return hits[:kept], joined(routes)[:kept]


def _block_clicks(config: SimConfig, index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Click indicators for one block of pulses.  Draw order is fixed:
    Poissonian light (channel A's row, then channel B's; skipped when
    lam = 0), then per fixed photon (photon 0 of every pulse, then
    photon 1, ...) its detections' row, walked by _hits.  A light row
    places Poisson marks, its hits when p <= 1/2 and else its misses."""
    p = config.params
    s, lam = photon_plan(config.source, p)
    child = np.random.SeedSequence(config.seed, spawn_key=(index,))
    rng = np.random.Generator(np.random.SFC64(child))
    # A's clicks, then B's: a route to B adds size to a click's index
    clicks = np.zeros(2 * size, dtype=np.bool_)
    if lam > 0.0:
        # drawn before any photon row, so each half is still empty: only a dense one is filled
        for half, eta_i in ((clicks[:size], p.eta1), (clicks[size:], p.eta2)):
            x = lam * eta_i / 2.0  # mean photons detected on the channel
            dense = -math.expm1(-x) > 0.5
            # mean marks per pulse: its photons, or a dense row's misses (P(miss) = exp(-x))
            y = -math.log1p(-math.exp(-x)) if dense else x
            if dense:
                half[:] = True
            half[rng.integers(0, size, rng.poisson(y * size))] = not dense
    to_b = (1.0 - p.delta) / 2.0  # eta2 / (eta1 + eta2)
    for _ in range(s):
        detected, route = _hits(rng, p.eta, size, to_b)
        clicks[detected + size * route] = True
    return clicks[:size], clicks[size:]


def _map_blocks(config: SimConfig, fn, workers: int) -> list:
    """fn(click_a, click_b) of every block, in block order, on up to
    workers threads (a positive integer, else a RangeError)."""
    workers = _checked_int("workers", workers, "a positive integer", 1)
    cycles, block = config.params.cycles, config.block_size
    blocks = [(i, min(block, cycles - i * block)) for i in range(-(-cycles // block))]

    def run(b: tuple[int, int]):
        return fn(*_block_clicks(config, *b))

    workers = min(workers, len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, blocks))
    return [run(b) for b in blocks]


def _totals(click_a: np.ndarray, click_b: np.ndarray) -> tuple[int, int, int, int]:
    """(pulses, A clicks, B clicks, coincidences)."""
    return (
        int(click_a.size),
        int(np.count_nonzero(click_a)),
        int(np.count_nonzero(click_b)),
        int(np.count_nonzero(click_a & click_b)),
    )


def simulate_click_arrays(config: SimConfig, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-pulse click indicators (channel A, channel B) over all
    cycles, concatenated in block order."""
    parts = _map_blocks(config, lambda a, b: (a, b), workers)
    return np.concatenate([a for a, _ in parts]), np.concatenate([b for _, b in parts])


def _click_indicators(click_a: np.ndarray, click_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pulse click indicators as bool arrays, each entry read by its
    truth value, once they are two 1-d arrays of equal length."""
    click_a, click_b = np.asarray(click_a), np.asarray(click_b)
    if click_a.ndim != 1 or click_b.ndim != 1:
        raise FormatError("click_a and click_b must be 1-d arrays")
    if click_a.shape != click_b.shape:
        raise FormatError("click_a and click_b must have equal length")
    return click_a.astype(bool, copy=False), click_b.astype(bool, copy=False)


def counts_from_click_arrays(click_a: np.ndarray, click_b: np.ndarray) -> ClickCounts:
    """Tally the four per-pulse patterns from click indicators, two 1-d
    arrays of equal length read by truth value."""
    return ClickCounts.from_totals(*_totals(*_click_indicators(click_a, click_b)))


def simulate_pulses(config: SimConfig, workers: int = 1) -> ClickCounts:
    """Run the pulse train and tally click patterns.

    Deterministic in config alone: any workers value gives identical
    counts.
    """
    per_block = _map_blocks(config, _totals, workers)
    return ClickCounts.from_totals(*(sum(column) for column in zip(*per_block)))
