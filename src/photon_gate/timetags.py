"""Time-tagged click records: file formats, gating, and ingestion.

A pulsed measurement is recorded as a stream of (channel, timestamp)
click records.  Ingestion folds the tags onto the pulse grid: pulse
index = floor(t / pulse_period), position in period = t mod
pulse_period.  A record counts only when its position falls inside the
detection gate [gate_offset, gate_offset + gate_width); multiple
surviving records of one channel in one pulse collapse to a single
click (the detector saturates).  The timing contract

    gate_width < dead_time < pulse_period

guarantees a detector fires at most once per gate and has recovered by
the next one, so per-pulse saturation is the complete description; the
dead time therefore enters validation only.  Integral-valued gate
timings (of any numeric type) fold in exact int64 arithmetic at every
timestamp; a non-integral period folds in float64, which is exact only
below 2**53 ns.

Files are read in chunks (65536 records, or about 1 MiB of CSV) that
fold_timetags folds in turn, carrying per channel the last timestamp,
the last kept pulse and the kept pulses awaiting a coincidence: memory
is O(chunk) plus those, which grow only while a channel runs ahead.

Two record formats are supported, both with timestamps in [0, 2**63)
ns, nondecreasing per channel:

* CSV with header ``channel,timestamp_ns`` and one ``A,123`` or
  ``B,123`` record per line.  A line may also carry surrounding
  whitespace, a ``+`` sign, leading zeros or ``_`` digit separators;
  LF, CRLF and CR line ends are accepted and blank lines skipped.
  Malformed lines fail with ``file:line``.
* A binary variant: an 8-byte little-endian record count, then 9 bytes
  per record (1 byte channel, ASCII A/B, and an 8-byte little-endian
  unsigned timestamp in ns).

Aggregated tallies travel as a flat ``key = value`` text block that
echoes the producing configuration, so a classification re-run needs no
side channel.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .model import (
    ClickCounts,
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    FormatError,
    GateError,
    IdealEmitters,
)
from .simulate import SimConfig

log = logging.getLogger(__name__)

CSV_HEADER = "channel,timestamp_ns"
COUNTS_MAGIC = "photon-gate-counts v1"
_CHANNEL_CODE = {"A": 0, "B": 1}
_CHANNEL_NAME = ("A", "B")


@dataclass(frozen=True)
class GateConfig:
    """Pulse-grid timing in nanoseconds.

    dead_time_ns defaults to the midpoint between gate width and pulse
    period, which always satisfies the ordering contract.
    """

    pulse_period_ns: float
    gate_offset_ns: float
    gate_width_ns: float
    dead_time_ns: float | None = None

    def __post_init__(self) -> None:
        period, offset, width = self.pulse_period_ns, self.gate_offset_ns, self.gate_width_ns
        for name, v in (("pulse_period_ns", period), ("gate_offset_ns", offset),
                        ("gate_width_ns", width)):
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise GateError(f"{name} must be a finite real number, got {v!r}")
        if period <= 0:
            raise GateError(f"pulse_period_ns must be positive, got {period!r}")
        if width <= 0:
            raise GateError(f"gate_width_ns must be positive, got {width!r}")
        if offset < 0:
            raise GateError(f"gate_offset_ns must be >= 0, got {offset!r}")
        if offset + width > period:
            raise GateError(
                f"gate [{offset}, {offset + width}) ns does not fit in the "
                f"{period} ns pulse period"
            )
        dead = self.dead_time_ns
        if dead is None:
            dead = 0.5 * (width + period)
            object.__setattr__(self, "dead_time_ns", dead)
        if not width < dead < period:
            raise GateError(
                f"need gate_width < dead_time < pulse_period, got "
                f"{width!r} / {dead!r} / {period!r} ns"
            )

    def fold(self, timestamps) -> tuple[np.ndarray, np.ndarray]:
        """Pulse index floor(t / pulse_period) of each timestamp, and
        whether its position in the period lies inside the gate.

        Integral-valued timings, whatever their Python type, fold in
        exact int64 arithmetic; a non-integral period folds in float64,
        which is exact only below 2**53 ns.
        """
        t = np.asarray(timestamps, dtype=np.int64)
        period, offset, width = (
            _integral(v) for v in (self.pulse_period_ns, self.gate_offset_ns, self.gate_width_ns)
        )
        if isinstance(period, int):
            pulse = t // period
        else:
            pulse = np.floor(t / period).astype(np.int64)
        position = t - pulse * period
        return pulse, (position >= offset) & (position < offset + width)


def _integral(v: float) -> float:
    """v as an int when it is integral-valued and fits int64."""
    return int(v) if float(v).is_integer() and abs(v) < 2**63 else v


# ---------------------------------------------------------------- CSV --


def write_timetags_csv(path: str | Path, channels: np.ndarray, timestamps: np.ndarray) -> None:
    lines = [CSV_HEADER]
    names = [_CHANNEL_NAME[c] for c in np.asarray(channels).tolist()]
    lines.extend(f"{c},{t}" for c, t in zip(names, np.asarray(timestamps).tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# 10**18 - 1 < 2**63, so an 18-digit timestamp cannot overflow int64
_CSV_FAST_DIGITS = 18
# records per binary read and per ingest_arrays slice; bytes per CSV read
_CHUNK_TAGS = 1 << 16
_CSV_CHUNK_BYTES = 1 << 20


def read_timetags_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (channels, timestamps): uint8 codes (0=A, 1=B) and int64 ns."""
    return _concat(iter_timetags_csv(path))


def iter_timetags_csv(path: str | Path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(channels, timestamps) chunks of a CSV tag file, cut after a line
    end.  A CR that ends a read waits for the next one, so a CRLF is
    never split and every error names its line in the whole file."""
    lineno, tail = 1, b""  # lineno: of the next block's first line
    with open(path, "rb") as fh:
        while True:
            more = fh.read(_CSV_CHUNK_BYTES)
            data, tail = tail + more, b""
            if more:
                end = len(data) - data.endswith(b"\r")
                cut = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
                data, tail = data[:cut], data[cut:]
            elif not data:
                break
            if b"\r" in data:  # the universal newlines of a text-mode read
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if lineno == 1 and data:
                header, _, data = data.partition(b"\n")
                if header.decode("ascii", "replace").strip() != CSV_HEADER:
                    break  # to the header error below
                lineno = 2
            if data:
                yield _parse_csv_block(path, data, lineno)
                lineno += data.count(b"\n")
    if lineno == 1:
        raise FormatError(f"{path}:1: expected header {CSV_HEADER!r}")


def _parse_csv_block(path: str | Path, data: bytes, lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """Records of the LF-ended lines in data, the first being line lineno.
    Lines in the canonical form ``[AB],[0-9]{1,18}`` (what
    write_timetags_csv emits) are parsed in bulk; every other line goes
    through _parse_csv_line, so both give the same records and errors."""
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, buf.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    digits = ends - starts - 2
    first = buf[starts]
    comma = np.take(buf, starts + 1, mode="clip")
    canonical = ((first == ord("A")) | (first == ord("B"))) & (comma == ord(",")) & (
        digits >= 1) & (digits <= _CSV_FAST_DIGITS)
    timestamps = np.zeros(starts.size, dtype=np.int64)
    # one gather per digit column, least significant first
    for k in range(min(int(digits.max(initial=0)), _CSV_FAST_DIGITS)):
        d = np.take(buf, ends - 1 - k, mode="clip") - np.uint8(ord("0"))  # wraps below "0"
        live = digits > k
        canonical &= (d < 10) | ~live
        timestamps += (d * live).astype(np.int64) * 10**k
    channels = (first == ord("B")).astype(np.uint8)
    other = np.flatnonzero(~canonical)
    if other.size:
        keep = canonical
        for i, lo, hi in zip(other.tolist(), starts[other].tolist(), ends[other].tolist()):
            record = _parse_csv_line(path, lineno + i, data[lo:hi])
            if record is not None:
                channels[i], timestamps[i] = record
                keep[i] = True
        channels, timestamps = channels[keep], timestamps[keep]
    return channels, timestamps


def _parse_csv_line(path: str | Path, lineno: int, raw: bytes) -> tuple[int, int] | None:
    """(channel code, timestamp) of one CSV data line, or None for a blank
    line.  This is the line grammar: surrounding whitespace is ignored,
    and the timestamp is anything int() accepts in [0, 2**63)."""
    try:
        line = raw.decode("ascii").strip()
    except UnicodeDecodeError:
        raise FormatError(f"{path}:{lineno}: line is not ASCII") from None
    if not line:
        return None
    parts = line.split(",")
    if len(parts) != 2:
        raise FormatError(f"{path}:{lineno}: expected 'channel,timestamp_ns'")
    ch = parts[0].strip()
    if ch not in _CHANNEL_CODE:
        raise FormatError(f"{path}:{lineno}: channel must be A or B, got {ch!r}")
    try:
        t = int(parts[1])
    except ValueError:
        raise FormatError(
            f"{path}:{lineno}: timestamp must be an integer, got {parts[1]!r}"
        ) from None
    if t < 0:
        raise FormatError(f"{path}:{lineno}: timestamp must be >= 0, got {t}")
    if t >= 2**63:
        raise FormatError(f"{path}:{lineno}: timestamp must be < 2**63, got {t}")
    return _CHANNEL_CODE[ch], t


# ------------------------------------------------------------- binary --

_BIN_DTYPE = np.dtype([("channel", "u1"), ("timestamp", "<u8")])


def write_timetags_binary(path: str | Path, channels: np.ndarray, timestamps: np.ndarray) -> None:
    records = np.empty(len(channels), dtype=_BIN_DTYPE)
    records["channel"] = np.where(np.asarray(channels) == 0, ord("A"), ord("B"))
    records["timestamp"] = np.asarray(timestamps, dtype=np.uint64)
    header = np.uint64(len(records)).tobytes()  # little-endian on all supported targets
    Path(path).write_bytes(header + records.tobytes())


def read_timetags_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    return _concat(iter_timetags_binary(path))


def iter_timetags_binary(path: str | Path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(channels, timestamps) chunks of a binary tag file, _CHUNK_TAGS
    records per read."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{path}: truncated; no record-count header")
        count = int.from_bytes(header, "little")
        body = os.fstat(fh.fileno()).st_size - 8
        if body != count * _BIN_DTYPE.itemsize:
            raise FormatError(
                f"{path}: header promises {count} records "
                f"({count * _BIN_DTYPE.itemsize} bytes), found {body} bytes"
            )
        for start in range(0, count, _CHUNK_TAGS):
            records = np.fromfile(fh, dtype=_BIN_DTYPE, count=min(_CHUNK_TAGS, count - start))
            # A -> 0, B -> 1; every other byte lands above 1 (below "A" it wraps)
            channels = records["channel"] - np.uint8(ord("A"))
            if channels.max() > 1:
                first = int(np.flatnonzero(channels > 1)[0])
                raise FormatError(f"{path}: record {start + first}: channel byte "
                                  f"{records['channel'][first]!r} not A/B")
            # a contiguous copy: the fold's per-channel split of it is 5x faster
            timestamps = records["timestamp"].astype(np.int64)
            if timestamps.min() < 0:
                raise FormatError(f"{path}: timestamp exceeds the signed 64-bit range")
            yield channels, timestamps


def _concat(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    parts = [(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)), *chunks]
    return np.concatenate([c for c, _ in parts]), np.concatenate([t for _, t in parts])


# ---------------------------------------------------------- ingestion --


def ingest_arrays(
    channels: np.ndarray,
    timestamps: np.ndarray,
    gate: GateConfig,
    n_pulses: int,
) -> ClickCounts:
    """fold_timetags over _CHUNK_TAGS-record slices of the two arrays."""
    channels, ts = np.asarray(channels), np.asarray(timestamps)
    edges = range(0, max(channels.size, ts.size), _CHUNK_TAGS)
    chunks = [(channels[i:i + _CHUNK_TAGS], ts[i:i + _CHUNK_TAGS]) for i in edges]
    return fold_timetags(chunks, gate, n_pulses)


def fold_timetags(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    gate: GateConfig,
    n_pulses: int | None = None,
) -> ClickCounts:
    """Tally the click patterns of a stream of (channels, timestamps)
    chunks: channel codes 0 (A) or 1 (B), timestamps nonnegative and
    nondecreasing per channel over the whole stream.  Out-of-gate records
    never count; in-gate records at pulse n_pulses or beyond are dropped
    (with a debug log).  Without n_pulses, the pulse count is one past
    the last record's pulse (0 for no records)."""
    if n_pulses is not None and n_pulses < 1:
        raise FormatError(f"n_pulses must be >= 1, got {n_pulses!r}")
    # per channel: last timestamp, last kept pulse, kept count, and kept
    # pulses that a later pulse of the other channel may still match, as
    # sorted nonempty pieces joined only once the other channel reaches them
    last_t, last_kept, kept = [0, 0], [-1, -1], [0, 0]
    pending = [deque(), deque()]
    n_11, top, dropped = 0, -1, 0
    for channels, timestamps in chunks:
        channels = np.asarray(channels)
        ts = np.asarray(timestamps, dtype=np.int64)
        if channels.shape != ts.shape:
            raise FormatError("channels and timestamps must have equal length")
        is_channel = (channels == 0, channels == 1)
        if sum(np.count_nonzero(m) for m in is_channel) != channels.size:
            raise FormatError("channel codes must be 0 (A) or 1 (B)")
        for code, mask in enumerate(is_channel):
            t = np.compress(mask, ts)
            if t.size == 0:
                continue
            if t[0] < 0:
                raise FormatError("timestamps must be nonnegative")
            if t[0] < last_t[code] or np.any(t[1:] < t[:-1]):
                raise FormatError(f"channel {_CHANNEL_NAME[code]} timestamps are not sorted")
            last_t[code] = t[-1]
            pulse, in_gate = gate.fold(t)
            top = max(top, int(pulse[-1]))
            if n_pulses is not None and pulse[-1] >= n_pulses:
                beyond = pulse >= n_pulses
                dropped += int(np.count_nonzero(in_gate & beyond))
                in_gate &= ~beyond
            new = np.compress(in_gate, pulse)
            # sorted, so one pass keeps the first record of each pulse (saturation)
            new = new[np.diff(new, prepend=last_kept[code]) != 0]
            if new.size:
                last_kept[code] = int(new[-1])
                kept[code] += new.size
                pending[code].append(new)
        if pending[0] and pending[1]:
            # a pulse at or below the other channel's last kept pulse has met
            # every pulse it can match; the rest waits for the next chunk
            done = _pop_through(pending[0], last_kept[1]) + _pop_through(pending[1], last_kept[0])
            # sorted runs of distinct pulses: one merge puts each shared one by its twin
            merged = np.concatenate(done)
            merged.sort(kind="stable")
            n_11 += int(np.count_nonzero(merged[1:] == merged[:-1]))
    if dropped:
        log.debug("%d in-gate records beyond the pulse window dropped", dropped)
    n_all = top + 1 if n_pulses is None else n_pulses
    return ClickCounts.from_totals(n_all, kept[0], kept[1], n_11)


def _pop_through(pieces: deque, cutoff: int) -> list[np.ndarray]:
    """Remove and return the pulses <= cutoff from the front of pieces."""
    done = []
    while pieces and pieces[0][-1] <= cutoff:
        done.append(pieces.popleft())
    if pieces:
        i = np.searchsorted(pieces[0], cutoff, "right")
        done.append(pieces[0][:i])
        pieces[0] = pieces[0][i:]
    return done


def records_from_click_arrays(
    click_a: np.ndarray, click_b: np.ndarray, gate: GateConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize a time-tag stream from per-pulse click indicators,
    placing each click at the center of its pulse's gate.  Output is
    sorted by timestamp, hence per channel too."""
    center = gate.gate_offset_ns + gate.gate_width_ns / 2.0
    pa = np.flatnonzero(click_a)
    pb = np.flatnonzero(click_b)
    channels = np.concatenate(
        [np.zeros(pa.size, dtype=np.uint8), np.ones(pb.size, dtype=np.uint8)]
    )
    pulses = np.concatenate([pa, pb])
    timestamps = np.rint(pulses * float(gate.pulse_period_ns) + center).astype(np.int64)
    order = np.lexsort((channels, timestamps))
    return channels[order], timestamps[order]


# -------------------------------------------------- key-value persistence --

# source.kind -> (model, fields as (name, type, default)); a field
# without a default is required
_SOURCE_KINDS = {
    "ideal_emitters": (IdealEmitters, (("s", int, 1),)),
    "emitter_with_background": (EmitterWithBackground, ()),
    "coherent": (Coherent, (("mu", float, None),)),
}
_KIND_OF = {model: kind for kind, (model, _) in _SOURCE_KINDS.items()}


def _config_lines(config: SimConfig) -> list[str]:
    kind = _KIND_OF[type(config.source)]
    lines = [f"seed = {config.seed}", f"block_size = {config.block_size}",
             f"source.kind = {kind}"]
    for name, field_type, _ in _SOURCE_KINDS[kind][1]:
        text = repr if field_type is float else str
        lines.append(f"source.{name} = {text(getattr(config.source, name))}")
    p = config.params
    lines.extend([
        f"params.eta = {p.eta!r}",
        f"params.delta = {p.delta!r}",
        f"params.gamma = {p.gamma!r}",
        f"params.cycles = {p.cycles}",
    ])
    return lines


def _parse_kv(path: str | Path, lines: Iterable[str], start: int = 1) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(lines, start=start):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise FormatError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


class _KvReader:
    def __init__(self, path: str | Path, kv: dict[str, tuple[int, str]]):
        self.path, self.kv = path, dict(kv)

    def take(self, key: str, kind, default=None, required: bool = False):
        if key not in self.kv:
            if required:
                raise FormatError(f"{self.path}: missing required key {key!r}")
            return default
        lineno, raw = self.kv.pop(key)
        try:
            return kind(raw)
        except ValueError:
            raise FormatError(
                f"{self.path}:{lineno}: {key} must be {kind.__name__}, got {raw!r}"
            ) from None

    def finish(self) -> None:
        if self.kv:
            key, (lineno, _) = next(iter(self.kv.items()))
            raise FormatError(f"{self.path}:{lineno}: unknown key {key!r}")


def _sim_config_from(reader: _KvReader) -> SimConfig:
    kind = reader.take("source.kind", str, required=True)
    if kind not in _SOURCE_KINDS:
        raise FormatError(f"{reader.path}: unknown source.kind {kind!r}")
    model, fields = _SOURCE_KINDS[kind]
    source = model(**{
        name: reader.take(f"source.{name}", field_type, default=default, required=default is None)
        for name, field_type, default in fields
    })
    params = DetectionParams(
        eta=reader.take("params.eta", float, required=True),
        delta=reader.take("params.delta", float, default=0.0),
        gamma=reader.take("params.gamma", float, default=0.0),
        cycles=reader.take("params.cycles", int, required=True),
    )
    return SimConfig(
        source=source,
        params=params,
        seed=reader.take("seed", int, required=True),
        block_size=reader.take("block_size", int, default=SimConfig.block_size),
    )


def read_sim_config(path: str | Path) -> SimConfig:
    """Parse a simulation config file (flat ``key = value`` lines,
    ``#`` comments allowed)."""
    text = Path(path).read_text(encoding="ascii")
    reader = _KvReader(path, _parse_kv(path, text.splitlines()))
    # accept 'cycles' as shorthand for params.cycles
    if "cycles" in reader.kv and "params.cycles" not in reader.kv:
        reader.kv["params.cycles"] = reader.kv.pop("cycles")
    config = _sim_config_from(reader)
    reader.finish()
    return config


def write_counts_block(path: str | Path, counts: ClickCounts, config: SimConfig) -> None:
    """Persist tallies plus the full producing configuration.  Output
    bytes depend only on (counts, config)."""
    lines = [
        COUNTS_MAGIC,
        f"n_all = {counts.n_all}",
        f"n_00 = {counts.n_00}",
        f"n_10 = {counts.n_10}",
        f"n_01 = {counts.n_01}",
        f"n_11 = {counts.n_11}",
    ]
    lines.extend(_config_lines(config))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def is_counts_block(path: str | Path) -> bool:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.readline().strip() == COUNTS_MAGIC
    except (OSError, UnicodeDecodeError):
        return False


def read_counts_block(path: str | Path) -> tuple[ClickCounts, SimConfig]:
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0].strip() != COUNTS_MAGIC:
        raise FormatError(f"{path}:1: expected {COUNTS_MAGIC!r} header")
    reader = _KvReader(path, _parse_kv(path, lines[1:], start=2))
    counts = ClickCounts(
        n_all=reader.take("n_all", int, required=True),
        n_00=reader.take("n_00", int, required=True),
        n_10=reader.take("n_10", int, required=True),
        n_01=reader.take("n_01", int, required=True),
        n_11=reader.take("n_11", int, required=True),
    )
    config = _sim_config_from(reader)
    reader.finish()
    return counts, config
