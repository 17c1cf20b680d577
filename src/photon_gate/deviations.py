"""Systematic and statistical deviations of the click statistics.

Real two-channel setups are never perfectly balanced: the channel
efficiencies are eta1 = (1 + delta) eta and eta2 = (1 - delta) eta.
Imbalance moves probability from the one-click to the two-click pattern
relative to the balanced closed form, which matters because the
single-emitter test compares measured probabilities against critical
values computed for a balanced setup.

For one emitter over Poissonian background the exact unbalanced
statistics are ``analytic.expected_stats``, and the deviations

    delta_p1 = P_balanced(1) - P_unbalanced(1)   <= 0
    delta_p2 = P_balanced(2) - P_unbalanced(2)   >= 0

have the closed form (x = delta * eta * gamma / 2)

    delta_p1 = -[ (2 - eta) * 2 sinh^2(x/2) + delta eta sinh(x) ] e^(-eta gamma / 2)
    delta_p2 = -delta_p1          (the two deviations cancel exactly)

Finite sampling adds a statistical uncertainty on any estimated
probability: var = p (1 - p) / M over M pulses.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .analytic import expected_stats
from .model import DetectionParams, EmitterWithBackground, RangeError


def systematic_deviation(params: DetectionParams) -> tuple[float, float]:
    """(delta_p1, delta_p2): balanced minus unbalanced one- and
    two-click probabilities.  Both vanish when delta, gamma or eta is
    zero; delta_p1 <= 0 <= delta_p2 and they sum to zero exactly."""
    return _deviation(params.eta, params.delta, params.gamma)


def _deviation(eta, delta: float, gamma: float):
    """systematic_deviation at eta, a float or an array."""
    x = delta * eta * gamma / 2.0
    xp = np if isinstance(x, np.ndarray) else math
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


def sampling_fluctuation(p: float, cycles: int) -> tuple[float, float]:
    """Finite-sample fluctuation of an estimated probability p over
    `cycles` pulses: returns (variance, one standard deviation) with
    variance = p (1 - p) / cycles."""
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"p must be in [0, 1], got {p!r}")
    if cycles < 1 or cycles != int(cycles):
        raise RangeError(f"cycles must be a positive integer, got {cycles!r}")
    return _fluctuation(p, cycles)


def _fluctuation(p, cycles: int):
    """sampling_fluctuation of p, a float or an array, unchecked."""
    var = p * (1.0 - p) / cycles
    xp = np if isinstance(var, np.ndarray) else math
    return var, xp.sqrt(var)

