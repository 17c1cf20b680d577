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
* :class:`CriticalValues` — the critical click probabilities a
  decision compares with, before and after correction.
* :class:`Verdict` — outcome of the single-emitter test.
* Source models: :class:`IdealEmitters`, :class:`EmitterWithBackground`,
  :class:`Coherent`, each reduced by :func:`photon_plan` to the photons
  every pulse carries plus a Poisson mean.
* :class:`SimConfig` — one reproducible simulation run: a source, its
  detection and the seed of its random streams.

All types validate on construction.  A bad value raises
:class:`RangeError`, naming its field when one alone is at fault; a bad
record or file raises :class:`FormatError`.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass


class RangeError(ValueError):
    """A numeric field is outside its allowed range.  field names the
    one field at fault, when one alone is, and then starts the message."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field} {message}" if field else message)
        self.field = field


class FormatError(ValueError):
    """A serialized record or file does not match the expected layout.
    record, when set, is the 0-based number in its stream of the record
    at fault, which the message names."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


_SUM_TOL = 1e-9
_NEG_TOL = 1e-12


def _check_prob(name: str, value: float) -> float:
    if not math.isfinite(value) or value < -_NEG_TOL or value > 1.0 + _NEG_TOL:
        raise RangeError(f"must be a probability in [0, 1], got {value!r}", name)
    return min(max(value, 0.0), 1.0)


def _echo(v) -> str:
    """A value as messages give it: str(v), as 250/19 for a Fraction, or to
    6 significant digits, as 1e+400, for a rational of over 20 digits."""
    if not isinstance(v, numbers.Rational) or max(abs(v.numerator), v.denominator) < 10**20:
        return str(v)
    from decimal import Context
    return f"{Context(prec=6).divide(int(v.numerator), int(v.denominator)).normalize():e}"


def _checked_int(name: str, v, kind: str, low: int, high: float = math.inf) -> int:
    """v as an int, after checking that it is integral and in [low, high);
    else a RangeError naming name, worded by `kind`, but an integral value
    at or above high, a power of two, is refused as such.  A real number is
    echoed as _echo gives it, np.float64(2.5) as 2.5; anything else by repr."""
    try:
        whole = v == int(v)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and low <= v < high):
        if whole and v >= high:
            raise RangeError(f"must be below 2**{high.bit_length() - 1}, got {_echo(v)}", name)
        echo = _echo(v) if isinstance(v, numbers.Real) else repr(v)
        raise RangeError(f"must be {kind}, got {echo}", name)
    return int(v)


def _store_int(obj: object, name: str, kind: str, low: int, high: float = math.inf) -> None:
    """Store field `name` of a frozen dataclass as _checked_int of it."""
    object.__setattr__(obj, name, _checked_int(name, getattr(obj, name), kind, low, high))


@dataclass(frozen=True)
class DetectionParams:
    """Calibration of one pulsed measurement.

    eta     combined detection efficiency, mean of the two channels
    delta   relative channel imbalance; channel efficiencies are
            eta1 = (1 + delta) * eta and eta2 = (1 - delta) * eta.
            Only delta >= 0 is stored; a swapped pair is the same
            physical setup with the labels exchanged.
    gamma   mean background photons per pulse at the source plane
    cycles  number of excitation pulses M, below 2**63
    """

    eta: float
    delta: float = 0.0
    gamma: float = 0.0
    cycles: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise RangeError(f"must be in [0, 1], got {self.eta!r}", "eta")
        if not 0.0 <= self.delta < 1.0:
            raise RangeError(f"must be in [0, 1), got {self.delta!r}", "delta")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise RangeError(f"must be finite and >= 0, got {self.gamma!r}", "gamma")
        _store_int(self, "cycles", "a positive integer", 1, 2**63)  # pulse indices are int64
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
    """Tallies of the four per-pulse click patterns over n_all pulses,
    each below 2**63."""

    n_all: int
    n_00: int
    n_10: int
    n_01: int
    n_11: int

    def __post_init__(self) -> None:
        for name in ("n_all", "n_00", "n_10", "n_01", "n_11"):
            _store_int(self, name, "a nonnegative integer", 0, 2**63)  # as pulse indices
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
class CriticalValues:
    """Critical one- and two-click probabilities at one mean click
    number, uncorrected and corrected for imbalance + finite sampling.

    delta_* are the systematic deviations subtracted from the bounds,
    stat_* the sampling variances added to them, and sigma_* the
    corresponding one-standard-deviation values for error bars.
    """

    p1_bound: float
    p2_bound: float
    p1_corrected: float
    p2_corrected: float
    delta_p1: float
    delta_p2: float
    stat_p1: float
    stat_p2: float
    sigma_p1: float
    sigma_p2: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of the single-emitter test on one measurement.

    params is the calibration the decision used, including any eta or
    gamma that classify_counts filled in from the data.  A field at its
    default, None or NaN, was not computed: the no-clicks and
    mean-above-1 gates stop before any.  critical holds the values p1
    was compared with.  measured_sbr is the signal-to-background ratio
    estimated from the click statistics alone (None also when the
    estimator is not applicable, math.inf when no two-click events were
    seen).  setup_sbr is the ratio implied by the calibration (eta,
    gamma); the test is gated on it against sbr0.  margin_p1 is p1 minus
    critical.p1_corrected: positive exactly when a decided verdict is
    SINGLE, of either sign on an indeterminate one.
    """

    decision: Decision
    params: DetectionParams
    reason: str | None = None
    critical: CriticalValues | None = None
    sbr0: float = math.nan
    measured_sbr: float | None = None
    setup_sbr: float = math.nan
    margin_p1: float = math.nan


@dataclass(frozen=True)
class IdealEmitters:
    """s identical independent single-photon emitters, no background."""

    s: int

    def __post_init__(self) -> None:
        _store_int(self, "s", "a positive integer", 1)


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
            raise RangeError(f"must be finite and >= 0, got {self.mu!r}", "mu")


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


# pulses per simulator block: larger blocks seed fewer streams and make fewer
# numpy calls per pulse, but hold larger arrays (measured in simulate's docstring)
_DEFAULT_BLOCK = 1 << 18


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation run: what emits, how it is
    detected, and the stream identity (seed, block size)."""

    source: SourceModel
    params: DetectionParams
    seed: int
    block_size: int = _DEFAULT_BLOCK

    def __post_init__(self) -> None:
        _store_int(self, "seed", "an unsigned 64-bit integer", 0, 1 << 64)
        _store_int(self, "block_size", "a positive integer", 1)
