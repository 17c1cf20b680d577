"""Time-tagged click records: file formats, gating, and ingestion.

A pulsed measurement is recorded as a stream of (channel, timestamp)
click records.  Ingestion folds the tags onto the pulse grid: pulse
index = floor(t / pulse_period), position in period = t mod
pulse_period.  A record counts only when its position falls inside the
detection gate [gate_offset, gate_offset + gate_width); multiple
surviving records of one channel in one pulse collapse to a single
click (the detector saturates).  The timing contract

    gate_width < dead_time < pulse_period

is an assumption of the model, not a checked parameter: a detector
fires at most once per gate and has recovered by the next one, so
per-pulse saturation is the complete description.  Gate timings are
exact rationals (a float is the decimal it prints as: 12.3 is 123/10)
on one integer grid, fixed when the GateConfig is built; the fold is
exact int64 arithmetic on it for every tag below 2**63 ns, and a period
below 1 ns, or too long for int64 on that grid, is refused.  A bad gate
timing or pulse count raises RangeError, a bad record or file FormatError.

Files are read in chunks (32768 records, or about 256 KiB of CSV) that
fold_timetags folds in turn, carrying per channel only the last
timestamp and ``pending``: the in-gate pulses not yet tallied, one per
in-gate record.  It checks each chunk, gates all of its records at
once, and splits only the in-gate pulses by channel.  After each chunk
it pops both channels below the frontier, the pulse of the earlier of
the two last timestamps: no later record lands there, so those pulses
are complete.  It tallies them by marking a bool table over their span
when it is under 8 times their count, else by a sort.  Memory is
O(chunk) plus the pending pulses; a channel with no record yet keeps the
frontier at pulse 0, so a stream with no record of one channel holds the
pulse of every in-gate record of the other.

Records come as two 1-d arrays of equal length; each keeps one contract:
an integer (or bool) channel code 0 (A) or 1 (B), and an integer timestamp
in [0, 2**63) ns, nondecreasing per channel.  One check, _checked_records,
holds it for each chunk of fold_timetags and for both writers.  After the
1-d and length tests it accepts an empty chunk, or integer codes all 0 or 1
in time order from both channels' last timestamps, else sorted per channel.
Only a refused chunk is searched for its first bad record, which the error
names as ``record N``, counted from 0 at the start of the stream.  Two
record formats are supported:

* CSV with header ``channel,timestamp_ns`` and one ``A,123`` or
  ``B,123`` record per line.  A line may also carry surrounding
  whitespace, a ``+`` sign, leading zeros or ``_`` digit separators;
  LF, CRLF and CR line ends are accepted and blank lines skipped.
  Malformed lines fail with ``file:line``.  Counting back from a read
  block's end, each run of lines of one width in the canonical form
  ``[AB],[0-9]{1,19}`` (what write_timetags_csv writes) is parsed as a
  table of fixed-width rows, with no search for line ends, while runs are
  at least 512 lines long or reach the block's start.  The lines before
  them, and a block with a non-canonical row in a run, are parsed by a
  search for each line's end, which gives the same records and errors.
* A binary variant: an 8-byte little-endian record count, then 9 bytes
  per record (1 byte channel, ASCII A/B, and an 8-byte little-endian
  unsigned timestamp in ns).
"""

from __future__ import annotations

import logging
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import ClickCounts, FormatError, RangeError, _checked_int, _echo

log = logging.getLogger(__name__)

CSV_HEADER = "channel,timestamp_ns"
_CHANNEL_CODE = {"A": 0, "B": 1}
_CHANNEL_NAME = ("A", "B")


@dataclass(frozen=True)
class GateConfig:
    """Pulse-grid timing in ns, the gate inside the period.  Each timing is
    stored exactly, as an int when whole, else a Fraction: a float is the
    decimal str prints for it, and Fraction(250, 19) is a 76 MHz period.
    The fold's grid of 1/scale ns, scale the lcm of the denominators, is fixed when built."""

    pulse_period_ns: numbers.Rational
    gate_offset_ns: numbers.Rational
    gate_width_ns: numbers.Rational

    def __post_init__(self) -> None:
        period, offset, width = given = tuple(vars(self).values())
        for name, v in zip(vars(self), given):  # replacing a value, not a key
            if isinstance(v, numbers.Rational):
                n, d = int(v.numerator), int(v.denominator)
            elif isinstance(v, numbers.Real) and math.isfinite(v):
                digits, _, exp = str(float(v)).partition("e")
                (whole, _, frac), e = digits.partition("."), int(exp or 0)
                n, d = int(whole + frac) * 10**max(e, 0), 10**(len(frac) - min(e, 0))
            else:
                raise RangeError(f"must be a finite real number, got {v!r}", name)
            if n % d:  # only a fractional timing pays for importing fractions
                from fractions import Fraction
            object.__setattr__(self, name, Fraction(n, d) if n % d else n // d)
        scale = math.lcm(*(v.denominator for v in vars(self).values()))
        p, o, w = (int(v * scale) for v in vars(self).values())
        if not scale <= p or p * scale >= 2**63:  # so fold's int64 products cannot overflow
            grid = f" / {_echo(scale**2)}" if scale > 1 else ""
            limit = "positive" if p <= 0 else f"in [1, 2**63{grid}) ns"
            raise RangeError(f"must be {limit}, got {_echo(period)}", "pulse_period_ns")
        if w <= 0:
            raise RangeError(f"must be positive, got {_echo(width)}", "gate_width_ns")
        if o < 0:
            raise RangeError(f"must be >= 0, got {_echo(offset)}", "gate_offset_ns")
        if o + w > p:  # named by the exact timings: a float given plus a huge int overflows
            end = self.gate_offset_ns + self.gate_width_ns
            raise RangeError(f"gate [{_echo(self.gate_offset_ns)}, {_echo(end)}) ns does not "
                             f"fit in {_echo(self.pulse_period_ns)} ns")
        object.__setattr__(self, "_grid", (scale, p, o, w))  # not a field: ==, hash, repr skip it

    def fold(self, timestamps) -> tuple[np.ndarray, np.ndarray]:
        """Pulse index floor(t / pulse_period) of each timestamp t, and whether
        t lies in its pulse's gate, exact in int64 for t in [0, 2**63): on a grid of
        1/scale ns, t = a*P + b is in pulse a*scale + b*scale // P, which is <= t."""
        t = np.asarray(timestamps, dtype=np.int64)
        scale, period, offset, width = self._grid
        pulse = t // period
        position = pulse * -period  # in place from here on; a 0-d t gives scalars
        position += t
        if scale > 1:
            position *= scale
            extra, position = np.divmod(position, period)  # below P * scale
            pulse *= scale
            pulse += extra
        position -= offset  # below the gate wraps to 2**64 - x, past every width
        return pulse, position.view(np.uint64) < width


# ---------------------------------------------------------------- CSV --


def _checked_records(where: str, channels, timestamps, last: Sequence[int] = (0, 0),
                     first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The records' int64 timestamps and whether each is of channel B, once
    they keep the contract of the module docstring, each channel going on
    from its last timestamp.  Else a FormatError, prefixed by where, names
    the first record bad in itself, or else out of order, counting from first."""
    channels, timestamps = np.asarray(channels), np.asarray(timestamps)
    if channels.ndim != 1 or timestamps.ndim != 1:
        raise FormatError(f"{where}channels and timestamps must be 1-d arrays")
    if channels.shape != timestamps.shape:
        raise FormatError(f"{where}channels and timestamps must have equal length")
    # a float would be truncated, written as 5.0 or used as a tuple index
    int_channels, int_times = channels.dtype.kind in "biu", timestamps.dtype.kind in "iu"
    if not channels.size or int_channels and int_times:
        ts = timestamps.astype(np.int64, copy=False)  # a tag >= 2**63 casts below 0: out of order
        if (not channels.size or channels.dtype.kind == "b" or channels.max() <= 1
                and (channels.dtype.kind == "u" or channels.min() >= 0)):
            is_b = channels.view(bool) if channels.itemsize == 1 else channels != 0
            # in time order from both last timestamps, else per channel from its own
            if not ts.size or max(last) <= ts[0] and np.all(ts[1:] >= ts[:-1]) or all(
                    t.size == 0 or last[code] <= t[0] and np.all(t[:-1] <= t[1:])
                    for code, t in enumerate((np.compress(~is_b, ts), np.compress(is_b, ts)))):
                return ts, is_b
    bad_channel = ((channels != 0) & (channels != 1) if int_channels
                   else np.ones(channels.shape, dtype=bool))
    bad = bad_channel | ((timestamps < 0) | (timestamps >= 2**63) if int_times else True)
    if bad.any():
        i = int(np.argmax(bad))
        c, t = channels[i], timestamps[i]
        if not int_channels:
            what = f"channel code {c} is {channels.dtype}, not an integer type"
        elif bad_channel[i]:
            what = f"channel code {c} is not 0 (A) or 1 (B)"
        elif not int_times:
            what = f"timestamp {t} is {timestamps.dtype}, not an integer type"
        else:
            what = f"timestamp {t} is negative" if t < 0 else f"timestamp {t} is not below 2**63"
    else:  # all well formed, so ts exists: each record against the last one of its channel
        before = np.empty(ts.size, dtype=np.int64)
        for code in (0, 1):
            at = np.flatnonzero(channels == code)
            before[at] = np.concatenate(([last[code]], ts[at]))[:at.size]
        i = int(np.argmax(ts < before))
        name = _CHANNEL_NAME[int(channels[i])]
        what = f"channel {name} timestamps are not sorted ({ts[i]} after {before[i]})"
    raise FormatError(f"{where}record {first + i}: {what}", first + i)


def write_timetags_csv(path: str | Path, channels: np.ndarray, timestamps: np.ndarray) -> None:
    """Write the records as CSV, the header and then one LF-ended ``A,123`` or
    ``B,123`` line each.  Records that break the contract raise fold_timetags'
    FormatError, prefixed by path, before the file is created."""
    ts, is_b = _checked_records(f"{path}: ", channels, timestamps)
    lines = (f"{_CHANNEL_NAME[b]},{t}" for b, t in zip(is_b.tolist(), ts.tolist()))
    Path(path).write_text("\n".join([CSV_HEADER, *lines]) + "\n", encoding="ascii")


# 10**19 - 1 < 2**64, so a 19-digit timestamp cannot overflow uint64
_CSV_FAST_DIGITS = 19
# records per binary read; bytes per CSV read, small enough that a
# block's per-line temporaries stay in cache
_CHUNK_TAGS = 1 << 15
_CSV_CHUNK_BYTES = 1 << 18
# the fewest rows of a row view that does not reach its block's start
_CSV_MIN_RUN = 512


def iter_timetags_csv(path: str | Path) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(channels, timestamps) chunks of a CSV tag file, uint8 codes
    (0=A, 1=B) and int64 ns, each cut after a line end.  Each read of
    _CSV_CHUNK_BYTES lands in one reused buffer, after the unfinished line
    the last one left; the blocks are parsed as views of it, and every
    array yielded owns its memory.  A CR that ends a read waits for the
    next one, so a CRLF is never split and every error names its line in
    the whole file."""
    lineno, held, buf = 1, 0, bytearray()  # lineno: of the next block's first line
    with open(path, "rb") as fh:
        while True:
            if len(buf) < held + _CSV_CHUNK_BYTES:  # the first read, or a line longer than it
                buf = buf[:held] + bytearray(held + _CSV_CHUNK_BYTES)
            with memoryview(buf) as view:
                size = held + fh.readinto(view[held:held + _CSV_CHUNK_BYTES])
            if size > held:
                end = size - (buf[size - 1] == ord("\r"))
                cut = max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end)) + 1
            elif not size:
                break
            else:  # the end of the file ends the last line
                cut = size
            data, start, stop = buf, 0, cut
            if buf.find(b"\r", 0, cut) >= 0:  # the universal newlines of a text-mode read
                data = bytes(buf[:cut]).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                stop = len(data)
            if lineno == 1 and stop:
                start = data.find(b"\n", 0, stop) + 1 or stop
                if data[:start].decode("ascii", "replace").strip() != CSV_HEADER:
                    break  # to the header error below
                lineno = 2
            if start < stop:
                block = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
                channels, timestamps, lines = _parse_csv_block(path, block, lineno)
                yield channels, timestamps
                lineno += lines
            held = size - cut
            buf[:held] = buf[cut:size]
    if lineno == 1:
        raise FormatError(f"{path}:1: expected header {CSV_HEADER!r}")


def _parse_csv_block(
    path: str | Path, data: np.ndarray, lineno: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Records of the LF-ended lines in data (uint8 bytes), the first being
    line lineno, and the number of LFs in data, which the next block's
    lineno adds.  Lines in the canonical form ``[AB],[0-9]{1,19}`` below
    2**63 (what write_timetags_csv emits) are parsed in bulk by
    _bulk_records, every other line by _parse_csv_line, so both give the
    same records and errors.  Counting back from the block's end, each run
    of rows of one width w that end in an LF is read as an (n, w) row view
    whose channel, comma and digits are columns, with no search for line
    ends.  Once a run is shorter than _CSV_MIN_RUN rows and does not reach
    the block's start, _parse_csv_lines finds each line's end in the rest
    of the block and gathers there.  If a row is not canonical (a row that
    hides an LF never is), the whole block goes to _parse_csv_lines."""
    runs, hi = [], data.size  # the block's last runs, last first; the rest is data[:hi]
    while hi and data[hi - 1] == ord("\n"):
        line = data[max(hi - _CSV_FAST_DIGITS - 4, 0):hi - 1].tobytes()
        w = len(line) - line.rfind(b"\n")  # the last line's width, LF included
        if not 4 <= w <= _CSV_FAST_DIGITS + 3 or (  # or a short run, seen at one byte
                hi > _CSV_MIN_RUN * w and data[hi - 1 - (_CSV_MIN_RUN - 1) * w] != ord("\n")):
            break
        rows = data[hi % w:hi].reshape(-1, w)[::-1]  # from the last row back
        n = 0  # rows ending in an LF, checked in windows that grow 8-fold, so
        while n < len(rows):  # that a run costs time in its own length
            # a strided copy and a contiguous compare beat one strided compare
            other = rows[n:8 * n + _CSV_MIN_RUN, -1].copy() != ord("\n")
            k = int(other.argmax())
            if other[k]:
                n += k
                break
            n += other.size
        if hi - n * w and data[hi - n * w - 1] != ord("\n"):
            n -= 1  # its first row does not start a line
        if n < _CSV_MIN_RUN and hi - n * w:
            break
        hi -= n * w
        runs.append(data[hi:hi + n * w].reshape(n, w))
    parts = []
    for rows in reversed(runs):
        w = rows.shape[1]
        # a strided copy and a contiguous op beat one strided op per column
        channels, timestamps, canonical = _bulk_records(
            rows[:, 0].copy(), rows[:, 1].copy(), lambda k: rows[:, w - 2 - k].copy(), w - 3)
        if not canonical.all():
            return _parse_csv_lines(path, data, lineno)
        parts.append((channels, timestamps, rows.shape[0]))
    if hi:
        parts.insert(0, _parse_csv_lines(path, data[:hi], lineno))
    if len(parts) == 1:
        return parts[0]
    channels, timestamps, lines = zip(*parts)
    return np.concatenate(channels), np.concatenate(timestamps), sum(lines)


def _parse_csv_lines(
    path: str | Path, data: np.ndarray, lineno: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """_parse_csv_block's general path, for lines of any width and form."""
    ends = np.flatnonzero(data == ord("\n"))
    lines = ends.size
    if not (data.size and data[-1] == ord("\n")):
        ends = np.append(ends, data.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # data behind 19 pad bytes and before one, so that shifted views gather
    # every column at ends and each comma at starts without index arithmetic
    pad = _CSV_FAST_DIGITS
    padded = np.empty(pad + data.size + 1, dtype=np.uint8)
    padded[:pad], padded[pad:-1], padded[-1] = ord("0"), data, ord("\n")
    digits = ends - starts - 2
    channels, timestamps, canonical = _bulk_records(
        data[starts], np.take(padded[pad + 1:], starts),
        lambda k: np.take(padded[pad - 1 - k:], ends),
        np.clip(digits, 0, _CSV_FAST_DIGITS).astype(np.uint8))
    canonical &= (digits >= 1) & (digits <= _CSV_FAST_DIGITS)
    other = np.flatnonzero(~canonical)
    if other.size:
        keep = canonical
        for i, lo, hi in zip(other.tolist(), starts[other].tolist(), ends[other].tolist()):
            record = _parse_csv_line(path, lineno + i, data[lo:hi].tobytes())
            if record is not None:
                channels[i], timestamps[i] = record
                keep[i] = True
        channels, timestamps = channels[keep], timestamps[keep]
    return channels, timestamps, lines


def _bulk_records(first, comma, column, width) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Channel codes (uint8) and int64 timestamps of lines read as canonical,
    and which lines are: first and comma hold each line's first two bytes,
    column(k) its k-th digit byte from the right, and width its digit count
    in [0, 19], one int for every line or one per line.  A digit column at
    or beyond a line's width is masked to 0 for that line."""
    is_b = first == ord("B")
    canonical = (is_b | (first == ord("A"))) & (comma == ord(","))
    shortest, columns = int(np.min(width)), int(np.max(width))
    # one column at a time, most significant first, Horner's rule in uint32
    # over groups of 9 columns (10**9 - 1 < 2**32); a non-canonical line may
    # wrap its group, as _parse_csv_line parses it anyway
    top = np.zeros(first.size, dtype=np.uint8)  # each line's largest digit, >= 10 for a non-digit
    groups = []
    for k in range(columns - 1, -1, -1):
        d = column(k)
        d -= np.uint8(ord("0"))  # wraps below "0"
        if k >= shortest:  # a column some line lacks
            d *= width > k
        np.maximum(top, d, out=top)
        if k == columns - 1 or k % 9 == 8:
            groups.append(d.astype(np.uint32))
        else:
            groups[-1] *= 10
            groups[-1] += d
    canonical &= top < 10
    timestamps = groups[0].astype(np.uint64) if groups else np.zeros(first.size, np.uint64)
    for group in groups[1:]:
        timestamps *= np.uint64(10**9)
        timestamps += group
    if columns == _CSV_FAST_DIGITS:  # the line grammar names the line of a value >= 2**63
        canonical &= timestamps < 2**63
    return is_b.view(np.uint8), timestamps.view(np.int64), canonical


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
    """Write the records as an 8-byte little-endian count, then per record the
    byte A or B and the 8-byte little-endian unsigned timestamp.  Records that
    break the contract raise fold_timetags' FormatError, prefixed by path,
    before the file is created."""
    ts, is_b = _checked_records(f"{path}: ", channels, timestamps)
    records = np.empty(ts.size, dtype=_BIN_DTYPE)
    records["channel"] = np.where(is_b, ord("B"), ord("A"))
    records["timestamp"] = ts
    Path(path).write_bytes(ts.size.to_bytes(8, "little") + records.tobytes())


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
            want = min(_CHUNK_TAGS, count - start) * _BIN_DTYPE.itemsize
            data = fh.read(want)
            if len(data) < want:  # the file shrank after the size check
                first = start + len(data) // _BIN_DTYPE.itemsize
                raise FormatError(f"{path}: record {first}: missing; the file shrank while read")
            records = np.frombuffer(data, dtype=_BIN_DTYPE)
            # A -> 0, B -> 1; every other byte lands above 1 (below "A" it wraps)
            channels = records["channel"] - np.uint8(ord("A"))
            if channels.max() > 1:
                first = int(np.flatnonzero(channels > 1)[0])
                raise FormatError(f"{path}: record {start + first}: channel byte "
                                  f"{int(records['channel'][first]):#04x} not A/B")
            timestamps = records["timestamp"].astype(np.int64)
            if timestamps.min() < 0:  # a tag >= 2**63 casts below 0
                first = int(np.flatnonzero(timestamps < 0)[0])
                raise FormatError(f"{path}: record {start + first}: timestamp "
                                  f"{int(records['timestamp'][first])} is not below 2**63")
            yield channels, timestamps


# ---------------------------------------------------------- ingestion --


def fold_timetags(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    gate: GateConfig,
    n_pulses: int | None = None,
) -> ClickCounts:
    """Tally the click patterns of a stream of (channels, timestamps)
    chunks that keep the record contract over the whole stream.  Records
    out of the gate never count; in-gate records at pulse n_pulses or
    beyond are dropped (with a warning log).  Without n_pulses, the pulse
    count is one past the last record's pulse (0 for no records)."""
    if n_pulses is not None:  # pulse indices are int64
        n_pulses = _checked_int("n_pulses", n_pulses, "a positive integer", 1, 2**63)
    # per channel: last timestamp, and in-gate pulses not yet tallied, as
    # sorted nonempty pieces that may repeat a pulse; then the pulses
    # tallied in A, in B, in both
    last_t, pending = [0, 0], [deque(), deque()]
    tallied, dropped, records = (0, 0, 0), 0, 0
    for channels, timestamps in chunks:
        ts, is_b = _checked_records("", channels, timestamps, last_t, records)
        records += ts.size
        if not ts.size:
            continue
        codes = is_b.tobytes()  # rfind gives each channel's last record, with no reversed copy
        pulse, in_gate = gate.fold(ts)
        for code, keep in enumerate((in_gate > is_b, in_gate & is_b)):  # A's in-gate, B's
            at = codes.rfind(b"\1" if code else b"\0")
            if at < 0:
                continue
            last_t[code] = int(ts[at])
            new = np.compress(keep, pulse)  # sorted, as the channel's timestamps are
            if n_pulses is not None and new.size and new[-1] >= n_pulses:
                cut = int(np.searchsorted(new, n_pulses))
                dropped += new.size - cut
                new = new[:cut]
            if new.size:
                pending[code].append(new)
        if pending[0] or pending[1]:
            # no later record of either channel lands below the frontier, the
            # pulse of the earlier last timestamp: every pulse below it is whole
            frontier = int(gate.fold(min(last_t))[0])
            done = _tally(_pop_below(pending[0], frontier), _pop_below(pending[1], frontier))
            tallied = tuple(map(sum, zip(tallied, done)))
    tallied = tuple(map(sum, zip(tallied, _tally(*pending))))
    if dropped:
        log.warning("%d in-gate records beyond the pulse window [0, %d) dropped",
                    dropped, n_pulses)
    if n_pulses is None:
        n_pulses = int(gate.fold(max(last_t))[0]) + 1 if records else 0
    return ClickCounts.from_totals(n_pulses, *tallied)


# a merge whose pulses span fewer than this many times the pulses it pops
# (repeats counted) marks them in a bool table of two bytes per spanned
# pulse, at most twice the pieces' own bytes; a sparser one, such as
# Unix-epoch tags, sorts them
_TABLE_SPAN = 8


def _tally(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[int, int, int]:
    """The distinct pulses of channel A's sorted pieces a, of B's pieces b,
    and of both."""
    pieces = [*a, *b]
    if not pieces:
        return 0, 0, 0
    low = min(int(p[0]) for p in pieces)
    span = max(int(p[-1]) for p in pieces) - low + 1
    if span < _TABLE_SPAN * sum(p.size for p in pieces):
        table = np.zeros(2 * span, dtype=bool)  # A's pulses, then B's
        for i, p in enumerate(pieces):
            table[p - (low if i < len(a) else low - span)] = True
        in_a, in_b = table[:span], table[span:]
        return (int(np.count_nonzero(in_a)), int(np.count_nonzero(in_b)),
                int(np.count_nonzero(in_a & in_b)))
    runs = [_distinct(x) for x in (a, b)]
    # sorted runs of distinct pulses: one merge puts each shared one by its twin
    merged = np.concatenate(runs)
    merged.sort(kind="stable")
    return runs[0].size, runs[1].size, int(np.count_nonzero(merged[1:] == merged[:-1]))


def _distinct(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """The distinct pulses of sorted pieces that go on from one another."""
    run = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    first = np.ones(run.size, dtype=bool)
    np.not_equal(run[1:], run[:-1], out=first[1:])
    return run[first]


def _pop_below(pieces: deque, frontier: int) -> list[np.ndarray]:
    """Remove and return the pulses below frontier from the front of
    pieces, as nonempty pieces."""
    done = []
    while pieces and pieces[0][-1] < frontier:
        done.append(pieces.popleft())
    if pieces and pieces[0][0] < frontier:
        i = np.searchsorted(pieces[0], frontier)
        done.append(pieces[0][:i])
        pieces[0] = pieces[0][i:]
    return done


def records_from_click_arrays(
    click_a: np.ndarray, click_b: np.ndarray, gate: GateConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize a time-tag stream from per-pulse click indicators, two
    1-d arrays of equal length read by truth value.  Each click is tagged
    at the whole ns nearest its gate's centre, a tie going down:
    ceil(start + (width - 1 ns) / 2), inside every gate at least 1 ns
    wide; a narrower gate is refused.  Exact for tags below 2**63 ns.
    Output is sorted by timestamp, hence per channel too."""
    from .simulate import _click_indicators  # clicks read as counts_from_click_arrays reads them
    scale, period, offset, width = gate._grid
    if width < scale:
        raise RangeError(f"must be >= 1 ns, got {_echo(gate.gate_width_ns)}", "gate_width_ns")
    pa, pb = map(np.flatnonzero, _click_indicators(click_a, click_b))
    channels = np.repeat(np.array([0, 1], dtype=np.uint8), [pa.size, pb.size])
    # pulse a*scale + b starts a*period + (b*period + offset) / scale ns in: each part fits int64
    a, b = np.divmod(np.concatenate([pa, pb]), scale)
    half, odd = divmod(width - scale, 2)
    start = b * period + (offset + half)  # in 1/scale ns, less the odd half step
    timestamps = a * period + (start // scale + 1 if odd else -(-start // scale))
    order = np.lexsort((channels, timestamps))
    return channels[order], timestamps[order]
