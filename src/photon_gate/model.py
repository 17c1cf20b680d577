"""Core value types for pulsed two-detector photon counting.

Everything downstream (closed forms, the single-emitter criterion, the
Monte Carlo simulator, file ingestion) exchanges the small frozen types
defined here:

* :class:`DetectionParams` — detection efficiency, channel imbalance,
  background level and pulse count of one measurement.
* :class:`PhotonStats` — per-pulse probabilities of 0/1/2 detector
  clicks behind the 50/50 splitter; mean and Mandel Q are derived.
* :class:`ClickCounts` — raw per-pulse tallies of the four click
  patterns (none / A only / B only / both).
* :class:`Verdict` — outcome of the single-emitter test.
* Source models: :class:`IdealEmitters`, :class:`EmitterWithBackground`,
  :class:`Coherent`, each reduced by :func:`photon_plan` to the photons
  every pulse carries plus a Poisson mean.

All types validate on construction and raise :class:`RangeError`,
:class:`FormatError` or :class:`GateError` naming the offending field.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class RangeError(ValueError):
    """A numeric field is outside its allowed range."""


class FormatError(ValueError):
    """A serialized record or file does not match the expected layout."""


class GateError(ValueError):
    """Gate timing configuration is internally inconsistent."""


class SbrNotApplicable(ValueError):
    """Click statistics lie outside the regime where the quadratic
    signal-to-background estimator is meaningful."""


_SUM_TOL = 1e-9
_NEG_TOL = 1e-12


def _check_prob(name: str, value: float) -> float:
    if not math.isfinite(value) or value < -_NEG_TOL or value > 1.0 + _NEG_TOL:
        raise RangeError(f"{name} must be a probability in [0, 1], got {value!r}")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class DetectionParams:
    """Calibration of one pulsed measurement.

    eta     combined detection efficiency, mean of the two channels
    delta   relative channel imbalance; channel efficiencies are
            eta1 = (1 + delta) * eta and eta2 = (1 - delta) * eta.
            Only delta >= 0 is stored; a swapped pair is the same
            physical setup with the labels exchanged.
    gamma   mean background photons per pulse at the source plane
    cycles  number of excitation pulses M
    """

    eta: float
    delta: float = 0.0
    gamma: float = 0.0
    cycles: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise RangeError(f"eta must be in [0, 1], got {self.eta!r}")
        if not 0.0 <= self.delta < 1.0:
            raise RangeError(f"delta must be in [0, 1), got {self.delta!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise RangeError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if self.cycles < 1 or self.cycles != int(self.cycles):
            raise RangeError(f"cycles must be a positive integer, got {self.cycles!r}")
        if self.eta1 > 1.0 + _NEG_TOL:
            raise RangeError(
                f"channel efficiency (1 + delta) * eta = {self.eta1!r} exceeds 1"
            )

    @property
    def eta1(self) -> float:
        return (1.0 + self.delta) * self.eta

    @property
    def eta2(self) -> float:
        return (1.0 - self.delta) * self.eta

    @classmethod
    def from_channel_efficiencies(
        cls, eta1: float, eta2: float, gamma: float = 0.0, cycles: int = 1
    ) -> "DetectionParams":
        """Build from per-channel efficiencies; requires eta1 >= eta2
        (relabel the channels otherwise)."""
        if not 0.0 <= eta2 <= eta1 <= 1.0:
            raise RangeError(
                f"need 0 <= eta2 <= eta1 <= 1, got eta1={eta1!r}, eta2={eta2!r}"
            )
        eta = 0.5 * (eta1 + eta2)
        delta = 0.0 if eta == 0.0 else (eta1 - eta2) / (eta1 + eta2)
        return cls(eta=eta, delta=delta, gamma=gamma, cycles=cycles)


@dataclass(frozen=True)
class PhotonStats:
    """Per-pulse click-number distribution behind the 50/50 splitter.

    p0, p1, p2 are the probabilities of zero, exactly one, and two
    detector clicks in a pulse.  They must sum to 1.  The mean click
    number and Mandel Q are always derived, never stored:

        mean_n = p1 + 2 * p2
        q      = 2 * p2 / mean_n - mean_n          (0 when mean_n == 0)
    """

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", _check_prob("p0", self.p0))
        object.__setattr__(self, "p1", _check_prob("p1", self.p1))
        object.__setattr__(self, "p2", _check_prob("p2", self.p2))
        total = self.p0 + self.p1 + self.p2
        if abs(total - 1.0) > _SUM_TOL:
            raise RangeError(f"p0 + p1 + p2 must equal 1 within {_SUM_TOL}, got {total!r}")

    @property
    def mean_n(self) -> float:
        return self.p1 + 2.0 * self.p2

    @property
    def q(self) -> float:
        n = self.mean_n
        if n == 0.0:
            return 0.0
        return 2.0 * self.p2 / n - n


@dataclass(frozen=True)
class ClickCounts:
    """Tallies of the four per-pulse click patterns over n_all pulses."""

    n_all: int
    n_00: int
    n_10: int
    n_01: int
    n_11: int

    def __post_init__(self) -> None:
        for name in ("n_all", "n_00", "n_10", "n_01", "n_11"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise RangeError(f"{name} must be a nonnegative integer, got {v!r}")
        total = self.n_00 + self.n_10 + self.n_01 + self.n_11
        if total != self.n_all:
            raise RangeError(
                f"pattern counts sum to {total}, expected n_all = {self.n_all}"
            )

    @classmethod
    def from_totals(cls, n_all: int, n_a: int, n_b: int, n_ab: int) -> ClickCounts:
        """Tallies from pulses, A clicks, B clicks and coincidences."""
        return cls(
            n_all=n_all,
            n_00=n_all - n_a - n_b + n_ab,
            n_10=n_a - n_ab,
            n_01=n_b - n_ab,
            n_11=n_ab,
        )


def stats_from_counts(counts: ClickCounts) -> PhotonStats:
    """Empirical click-number distribution from raw tallies."""
    if counts.n_all == 0:
        raise RangeError("n_all must be positive to form probabilities")
    m = float(counts.n_all)
    return PhotonStats(
        p0=counts.n_00 / m,
        p1=(counts.n_10 + counts.n_01) / m,
        p2=counts.n_11 / m,
    )


class Decision(enum.Enum):
    SINGLE = "single"
    NOT_SINGLE = "not-single"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
    """Outcome of the single-emitter test on one measurement.

    measured_sbr is the signal-to-background ratio estimated from the
    click statistics alone (None when the estimator is not applicable,
    math.inf when no two-click events were seen).  setup_sbr is the
    ratio implied by the calibration (eta, gamma); the test is gated on
    it.  margin_p1 is p1 minus the corrected critical value — positive
    exactly when the decision is SINGLE.  params is the calibration the
    decision used, including any eta or gamma that classify_counts
    filled in from the data.
    """

    decision: Decision
    p1_critical: float
    p2_critical: float
    sbr0: float
    measured_sbr: float | None
    setup_sbr: float
    margin_p1: float
    params: DetectionParams
    reason: str | None = None


@dataclass(frozen=True)
class IdealEmitters:
    """s identical independent single-photon emitters, no background."""

    s: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.s != int(self.s):
            raise RangeError(f"s must be a positive integer, got {self.s!r}")


@dataclass(frozen=True)
class EmitterWithBackground:
    """One single-photon emitter plus Poissonian background; the
    efficiency and background level come from DetectionParams."""


@dataclass(frozen=True)
class Coherent:
    """Coherent (Poissonian) pulses with mean photon number mu at the
    source plane."""

    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise RangeError(f"mu must be finite and >= 0, got {self.mu!r}")


SourceModel = IdealEmitters | EmitterWithBackground | Coherent


def photon_plan(source: SourceModel, params: DetectionParams) -> tuple[int, float]:
    """(photons every pulse carries, Poisson mean per pulse) at the
    source plane: the one description of a source that the closed
    forms and the simulator share.  IdealEmitters is background-free by
    definition; the other sources see the calibration's gamma as
    Poissonian light on top of their own."""
    if isinstance(source, IdealEmitters):
        return source.s, 0.0
    if isinstance(source, EmitterWithBackground):
        return 1, params.gamma
    if isinstance(source, Coherent):
        return 0, source.mu + params.gamma
    raise TypeError(f"unknown source model: {source!r}")
