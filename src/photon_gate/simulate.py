"""Monte Carlo pulse-train simulator for the two-detector stage.

Every click probability in this package has a closed form; the
simulator exists to check them mechanically.  model.photon_plan reduces
each source to s photons every pulse carries plus Poissonian light of
mean lam per pulse, and the simulator samples both parts.

Every part is a row of independent Bernoulli trials, one per pulse,
and every row is placed, none drawn pulse by pulse: a row of y marks per
pulse draws K ~ Poisson(y * n) marks and drops each into a uniform pulse
of the block's n, so each pulse has an independent Poisson(y) mark count
and is marked with probability 1 - exp(-y).  Each row marks its lesser
outcome, so y <= log 2: no row draws more than log 2 integers per pulse
on average, and none draws an exponential or a uniform float.  A light
row costs its marks alone, whatever lam is; a photon also pays a few
passes over a block-long bool scratch that holds its A marks and is
refilled for the next photon.

Each fixed photon is detected with probability eta and goes to channel
B with probability (1 - delta) / 2, so A fires with a = eta1/2 and B
with eta2/2 per photon, never both.  It is two rows.  Its A row marks
A's clicks at y = -log(1 - a); a <= 1/2, so y <= log 2.  Its B row is B
given not A, q = (eta2/2) / (1 - a).  With q <= 1/2 it marks B's clicks
at y = -log(1 - q), and a mark on a pulse where the photon's own A mark
landed is dropped; with q > 1/2 (eta > 2 / (3 - delta)) it marks B's
misses at y = -log(q), and B clicks where neither the photon's own A
mark nor a miss landed.  By Poisson splitting, either way gives
P(A) = a and P(B) = (1 - a) q = eta2/2 per pulse, independently across
pulses and photons, and never both from one photon, so a lone emitter
never coincides.  At eta = 1 (delta = 0) q = 1 and the B row draws no
mark: B clicks wherever A did not.

Poissonian light (coherent pulses and stray background alike) is not
routed photon by photon: a Poisson photon number split by independent
routing and detection gives independent Poisson counts per channel,
with mean x = lam * eta_i / 2 on channel i.  Each detector reports at
most one click per pulse, so channel i's row has p = 1 - exp(-x).  With
p <= 1/2 its marks are photons (y = x) and the marked pulses click;
else they are misses, y = -log(1 - exp(-x)), so a pulse is marked with
probability 1 - exp(-y) = exp(-x), and the rest click.  A row with
p = 1 draws nothing.

Determinism
-----------
Pulses are processed in fixed-size blocks, 262 144 (2**18) by default.
Block k draws from its own stream, SFC64 seeded by child k of
SeedSequence(seed), and results are assembled in block order — so they
depend only on (config), never on scheduling or worker count: one
config gives byte-identical counts at any worker count.  The block size
weighs a fixed cost per block (seeding the stream takes about 16 us,
and each row makes a few numpy calls) against the working set
of the block's arrays.  perfbench's simulate workload at 1e6 pulses
per op and eta 0.1, seeds 1 and 2 per size (2 vCPUs, numpy 2.4.6;
pulses per reference second, in millions, for IdealEmitters(3) with
EmitterWithBackground and for Coherent(0.5)):

    block   ideal, background    coherent           peak RSS (MiB)
    2**16   337, 325             652, 643           36.0, 36.0
    2**17   394, 395             771, 782           36.2, 36.1
    2**18   423, 415             840, 833           36.6, 36.6
    2**19   373, 387             747, 778           37.7, 37.6

2**19 loses about 9 % on both, for 1.0 MiB more peak memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# SimConfig is defined in model, which loads no numpy; imported here, it
# is also photon_gate.simulate.SimConfig
from .model import ClickCounts, FormatError, SimConfig, _checked_int, photon_plan


def _block_clicks(config: SimConfig, index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Click indicators for one block of pulses.  Draw order is fixed:
    Poissonian light (channel A's row, then channel B's; skipped when
    lam = 0), then per fixed photon (photon 0 of every pulse, then
    photon 1, ...) its A row and then its B row.  Each row draws one
    Poisson count of marks and one uniform pulse per mark: a light row
    marks its hits when p <= 1/2 and else its misses, a photon's A row
    its A clicks, and its B row its B clicks given no own A mark when
    q <= 1/2 and else its B misses."""
    p = config.params
    s, lam = photon_plan(config.source, p)
    child = np.random.SeedSequence(config.seed, spawn_key=(index,))
    rng = np.random.Generator(np.random.SFC64(child))

    def marks(y: float) -> np.ndarray:
        """Pulses of K ~ Poisson(y * size) marks, each uniform."""
        return rng.integers(0, size, rng.poisson(y * size))

    # one buffer for both channels: as two arrays, a 1e7-pulse Coherent run took about
    # 94 more minor faults per 2**18-pulse block (2 vCPUs, numpy 2.4.6)
    clicks = np.zeros(2 * size, dtype=np.bool_)
    click_a, click_b = clicks[:size], clicks[size:]
    if lam > 0.0:
        # drawn before any photon row, so each row is still empty
        for row, eta_i in ((click_a, p.eta1), (click_b, p.eta2)):
            x = lam * eta_i / 2.0  # mean photons detected on the channel
            dense = -math.expm1(-x) > 0.5
            # mean marks per pulse: its photons, or a dense row's misses (P(miss) = exp(-x))
            row[marks(-math.log1p(-math.exp(-x)) if dense else x)] = True
            if dense:
                np.logical_not(row, out=row)
    a = p.eta1 / 2.0  # P(A) per photon
    # P(B | no A): 1 at eta = 1, and held there when eta1 rounds past 1 within tolerance
    q = min(p.eta2 / 2.0 / (1.0 - a), 1.0)
    dense_b = q > 0.5
    y_a, y_b = -math.log1p(-a), (math.log(1.0 / q) if dense_b else -math.log1p(-q))
    own = np.empty(size, dtype=np.bool_)  # one photon's A marks, refilled for the next
    for _ in range(s):
        own.fill(False)
        own[marks(y_a)] = True
        click_a |= own
        b = marks(y_b)
        if dense_b:  # B's misses: B clicks where neither they nor own A landed
            own[b] = True
            np.logical_not(own, out=own)
            click_b |= own
        else:  # B's clicks, each dropped where own A landed (a repeated pulse writes one value)
            click_b[b] |= ~own[b]
    return click_a, click_b


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
