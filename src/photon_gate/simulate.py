"""Monte Carlo pulse-train simulator for the two-detector stage.

Every click probability in this package has a closed form; the
simulator exists to check them mechanically.  It samples the physical
story photon by photon: per pulse the source emits its photons and each
photon draws one uniform u.  The photon is routed to channel A and
detected there when u < eta1/2, routed to B and detected there when
u >= 1 - eta2/2, and lost otherwise; the two intervals are disjoint
because eta1 + eta2 = 2 * eta <= 2.  Stray background is Poissonian
per channel with mean gamma * eta_i / 2 (background photons thinned by
routing and detection).  Each detector reports at most one click per
pulse, so only "any background photon" matters: channel i gets a
background click when its own uniform falls below
1 - exp(-gamma * eta_i / 2).

Determinism
-----------
Pulses are processed in fixed-size blocks.  Block k draws from its own
counter-based stream, Philox(seed) jumped k times, and results are
assembled in block order — so they depend only on (config), never on
scheduling or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    ClickCounts,
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    RangeError,
    SourceModel,
)

_DEFAULT_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run: what emits, how it is
    detected, and the stream identity (seed, block size)."""

    source: SourceModel
    params: DetectionParams
    seed: int
    block_size: int = _DEFAULT_BLOCK

    def __post_init__(self) -> None:
        if self.seed < 0 or self.seed != int(self.seed) or self.seed >= 1 << 64:
            raise RangeError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.block_size < 1 or self.block_size != int(self.block_size):
            raise RangeError(f"block_size must be a positive integer, got {self.block_size!r}")


def _source_plan(config: SimConfig) -> tuple[int, float, float]:
    """(photons per pulse, Poisson mean per pulse, background rate).

    Fixed sources set the first, coherent the second.  IdealEmitters is
    background-free by definition; the other sources see the
    calibration's gamma.
    """
    src = config.source
    if isinstance(src, IdealEmitters):
        return src.s, 0.0, 0.0
    if isinstance(src, EmitterWithBackground):
        return 1, 0.0, config.params.gamma
    if isinstance(src, Coherent):
        return 0, src.mu, config.params.gamma
    raise TypeError(f"unknown source model: {src!r}")


def _block_clicks(config: SimConfig, index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Click indicators for one block of pulses.  Draw order is fixed:
    background (one uniform per pulse for channel A, then for channel
    B; skipped when gamma = 0), then the photon numbers of a coherent
    source, then one uniform per photon (for fixed sources photon 0 of
    every pulse, then photon 1, ...)."""
    p = config.params
    s_fixed, mu, gamma = _source_plan(config)
    rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(index))
    a_max, b_min = p.eta1 / 2.0, 1.0 - p.eta2 / 2.0

    if gamma > 0.0:
        click_a = rng.random(size) < -math.expm1(-gamma * p.eta1 / 2.0)
        click_b = rng.random(size) < -math.expm1(-gamma * p.eta2 / 2.0)
    else:
        click_a = np.zeros(size, dtype=np.bool_)
        click_b = np.zeros(size, dtype=np.bool_)
    if s_fixed > 0:
        # photon j of every pulse at a time: one block-sized array live
        for _ in range(s_fixed):
            u = rng.random(size)
            click_a |= u < a_max
            click_b |= u >= b_min
    else:
        photons = rng.poisson(mu, size)
        u = rng.random(int(photons.sum()))
        pulse = np.repeat(np.arange(size), photons)
        click_a[pulse[u < a_max]] = True
        click_b[pulse[u >= b_min]] = True
    return click_a, click_b


def _map_blocks(config: SimConfig, fn, workers: int) -> list:
    """fn(click_a, click_b) of every block, in block order."""
    cycles, block = config.params.cycles, config.block_size
    blocks = [(i, min(block, cycles - i * block)) for i in range(math.ceil(cycles / block))]

    def run(b: tuple[int, int]):
        return fn(*_block_clicks(config, *b))

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


def counts_from_click_arrays(click_a: np.ndarray, click_b: np.ndarray) -> ClickCounts:
    """Tally the four per-pulse patterns from click indicators."""
    return ClickCounts.from_totals(*_totals(click_a, click_b))


def simulate_pulses(config: SimConfig, workers: int = 1) -> ClickCounts:
    """Run the pulse train and tally click patterns.

    Deterministic in config alone: any workers value gives identical
    counts.
    """
    per_block = _map_blocks(config, _totals, workers)
    return ClickCounts.from_totals(*(sum(column) for column in zip(*per_block)))
