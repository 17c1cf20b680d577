"""Time-tag formats, pulse-grid gating, and key-value persistence."""

import copy
import dataclasses
import functools
import math
import os
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from _oracles import ingest_oracle

from photon_gate import (
    ClickCounts,
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    FormatError,
    GateConfig,
    IdealEmitters,
    RangeError,
    SimConfig,
    counts_from_click_arrays,
    fold_timetags,
    iter_timetags_binary,
    iter_timetags_csv,
    read_counts_block,
    read_sim_config,
    records_from_click_arrays,
    simulate_click_arrays,
    write_counts_block,
    write_timetags_binary,
    write_timetags_csv,
)
from photon_gate import kvfile, timetags
from photon_gate.timetags import _parse_csv_line

GATE = GateConfig(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=100)


def read_all(chunks):
    """The (channels, timestamps) chunks of a tag-file reader, joined."""
    parts = [(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)), *chunks]
    return np.concatenate([c for c, _ in parts]), np.concatenate([t for _, t in parts])


def interleave(rng, streams):
    """Channel codes and timestamps of the sorted streams of A and B,
    interleaved in a random order that keeps each sorted."""
    channels = rng.permutation(np.repeat(np.array([0, 1], dtype=np.uint8),
                                         [streams[0].size, streams[1].size]))
    timestamps = np.empty(channels.size, dtype=np.int64)
    for code in (0, 1):
        timestamps[channels == code] = streams[code]
    return channels, timestamps


def chunked(channels, timestamps, size):
    """(channels, timestamps) in slices of size records; None is one slice."""
    size = size or max(len(timestamps), 1)
    return [(channels[i:i + size], timestamps[i:i + size])
            for i in range(0, len(timestamps), size)]


# (period, offset, width) of the seeded ingest streams: int and float
# integral periods, dyadic and decimal fractional ones, and a 76 MHz period
# given as a Fraction
ORACLE_TIMINGS = [(500, 0, 100), (500.0, 20.0, 100.0), (80, 10, 20), (12.5, 2.5, 4.25),
                  (333.75, 100.5, 60.0), (12.3, 2.5, 4.1), (Fraction(250, 19), Fraction(3, 7), 5)]

# GateConfig keywords, and the field at fault (None: the gate does not fit)
BAD_TIMINGS = [
    (dict(pulse_period_ns=0, gate_offset_ns=0, gate_width_ns=1), "pulse_period_ns"),
    (dict(pulse_period_ns=-5, gate_offset_ns=0, gate_width_ns=1), "pulse_period_ns"),
    (dict(pulse_period_ns=500, gate_offset_ns=-1, gate_width_ns=100), "gate_offset_ns"),
    (dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=0), "gate_width_ns"),
    (dict(pulse_period_ns=500, gate_offset_ns=450, gate_width_ns=100), None),
    (dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=-100), "gate_width_ns"),
    (dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=501), None),
    (dict(pulse_period_ns=math.inf, gate_offset_ns=0, gate_width_ns=1), "pulse_period_ns"),
    (dict(pulse_period_ns=500, gate_offset_ns=math.nan, gate_width_ns=1), "gate_offset_ns"),
    (dict(pulse_period_ns="500", gate_offset_ns=0, gate_width_ns=100), "pulse_period_ns"),
    (dict(pulse_period_ns=10**400, gate_offset_ns=0, gate_width_ns=5), "pulse_period_ns"),
    (dict(pulse_period_ns=2**63, gate_offset_ns=0, gate_width_ns=5), "pulse_period_ns"),
    # below 1 ns a pulse index can pass 2**63
    (dict(pulse_period_ns=0.5, gate_offset_ns=0, gate_width_ns=0.25), "pulse_period_ns"),
    # 2**62 + 1 steps of 1/2 ns, times 2, reach 2**63
    (dict(pulse_period_ns=Fraction(2**62 + 1, 2), gate_offset_ns=0, gate_width_ns=1),
     "pulse_period_ns"),
    # the width puts the period on a 1e-10 ns grid: 1.23e11 steps, times 1e10
    (dict(pulse_period_ns=12.3, gate_offset_ns=0, gate_width_ns=1e-10), "pulse_period_ns"),
]


class TestGateConfig:
    @pytest.mark.parametrize("kwargs,field", BAD_TIMINGS,
                             ids=[f"kwargs{i}" for i in range(len(BAD_TIMINGS))])
    def test_rejects_bad_timing(self, kwargs, field):
        with pytest.raises(RangeError) as exc:
            GateConfig(**kwargs)
        assert exc.value.field == field
        assert str(exc.value).startswith(field or "gate [")

    @pytest.mark.parametrize("kwargs,message", [
        (dict(pulse_period_ns=10**400, gate_offset_ns=0, gate_width_ns=5),
         "pulse_period_ns must be in [1, 2**63) ns, got 1e+400"),
        (dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=10**400),
         "gate [0, 1e+400) ns does not fit in 500 ns"),
        (dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=Fraction(1, 10**300)),
         "pulse_period_ns must be in [1, 2**63 / 1e+600) ns, got 500"),
    ], ids=("huge-period", "huge-width", "fine-grid"))
    def test_huge_timing_is_echoed_short(self, kwargs, message):
        with pytest.raises(RangeError) as exc:
            GateConfig(**kwargs)
        assert str(exc.value) == message
        assert len(message) < 120

    def test_integral_float_timings_are_stored_as_ints(self):
        gate = GateConfig(500.0, 0.0, 100.0)
        assert [type(v) for v in dataclasses.asdict(gate).values()] == [int, int, int]
        assert gate == GATE
        timestamps = np.array([0, 99, 100, 499, 500, 1_760_000_000_000_000_099])
        for got, want in zip(gate.fold(timestamps), GATE.fold(timestamps)):
            assert np.array_equal(got, want)

    def test_timings_are_exact_rationals(self):
        # a float is the decimal it prints as; an int or Fraction is taken as given
        gate = GateConfig(12.3, 2.5, 4.1)
        assert dataclasses.asdict(gate) == dict(
            pulse_period_ns=Fraction(123, 10), gate_offset_ns=Fraction(5, 2),
            gate_width_ns=Fraction(41, 10))
        assert GateConfig(12.5, 0.0, 5.0) == GateConfig(Fraction(25, 2), 0, 5)
        assert GateConfig(1.76e18, 0, 5).pulse_period_ns == 1_760_000_000_000_000_000
        assert GateConfig(12.5, 1e-05, 5).gate_offset_ns == Fraction(1, 100_000)
        assert dataclasses.asdict(GateConfig(Fraction(250, 19), Fraction(4, 2), 5))[
            "gate_offset_ns"] == 2

    def test_fold_is_exact_at_the_grid_limit(self):
        # 2**62 - 1 steps of 1/2 ns: the largest period the 1/2 ns grid takes
        gate = GateConfig(Fraction(2**62 - 1, 2), 0, Fraction(1, 2))
        timestamps = [0, 2**62 - 1, 2**62, 2**63 - 2, 2**63 - 1]
        pulse, in_gate = gate.fold(np.array(timestamps))
        period = gate.pulse_period_ns
        assert pulse.tolist() == [math.floor(t / period) for t in timestamps] == [0, 2, 2, 4, 4]
        assert in_gate.tolist() == [t - k * period < Fraction(1, 2)
                                    for t, k in zip(timestamps, pulse.tolist())]

    @pytest.mark.parametrize("timings", [ORACLE_TIMINGS[0], ORACLE_TIMINGS[-1]],
                             ids=("int", "fraction"))
    @pytest.mark.parametrize("remake,width", [
        (lambda g: dataclasses.replace(g, gate_width_ns=Fraction(7, 2)), Fraction(7, 2)),
        (copy.deepcopy, None), (lambda g: pickle.loads(pickle.dumps(g)), None),
    ], ids=("replace-width", "deepcopy", "pickle"))
    def test_a_copied_or_rebuilt_gate_folds_like_a_fresh_one(self, timings, remake, width):
        # the grid is kept outside the fields, where a stale one would fold silently wrong
        gate, fresh = remake(GateConfig(*timings)), GateConfig(*timings[:2], width or timings[2])
        assert gate == fresh and hash(gate) == hash(fresh) and repr(gate) == repr(fresh)
        timestamps = [0, 1, 3, 4, 99, 100, 499, 500, 12_345_678, 2**60 + 7, 2**63 - 1]
        pulse, in_gate = gate.fold(np.array(timestamps))
        p, o, w = dataclasses.astuple(fresh)  # exact, folded one tag at a time
        assert pulse.tolist() == [math.floor(t / Fraction(p)) for t in timestamps]
        assert in_gate.tolist() == [o <= t - k * p < o + w
                                    for t, k in zip(timestamps, pulse.tolist())]


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tags.csv"
        channels = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
        timestamps = np.array([0, 520, 530, 1599, 2**63 - 1], dtype=np.int64)
        write_timetags_csv(path, channels, timestamps)
        assert path.read_bytes() == (
            b"channel,timestamp_ns\nA,0\nB,520\nA,530\nB,1599\nB,9223372036854775807\n"
        )
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert np.array_equal(got_ch, channels)
        assert np.array_equal(got_ts, timestamps)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("channel;timestamp_ns\nA,10\n")
        with pytest.raises(FormatError, match=":1:"):
            read_all(iter_timetags_csv(path))

    @pytest.mark.parametrize(
        "bad_line",
        ["C,10", "A,ten", "A,-4", "A,10,extra", "A", "A,1\u00e9",
         "B,99999999999999999999", f"A,{2**63}", f"B,{10**19 - 1}"],
    )
    def test_bad_data_line_is_numbered(self, tmp_path, bad_line):
        path = tmp_path / "tags.csv"
        path.write_text(f"channel,timestamp_ns\nA,10\n{bad_line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":3:"):
            read_all(iter_timetags_csv(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("channel,timestamp_ns\n\nA,10\n\n")
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert got_ch.tolist() == [0] and got_ts.tolist() == [10]

    def test_accepted_forms(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(
            b"channel,timestamp_ns\r\n A , 7 \nB,+8\r\nA,1_0\rB,0009\n"
            b"\tA,999999999999999999\nA,1700000000000000000\nB,0000000000000000012\n"
            b"A,9223372036854775807\nB,9223372036854775807"
        )
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert got_ch.tolist() == [0, 1, 0, 1, 0, 0, 1, 0, 1]
        assert got_ts.tolist() == [7, 8, 10, 9, 10**18 - 1, 17 * 10**17, 12, 2**63 - 1, 2**63 - 1]

    def test_epoch_scale_lines_parse_in_bulk(self, tmp_path, monkeypatch):
        # 19-digit Unix-epoch ns timestamps need no per-line fallback
        def per_line(*args):
            raise AssertionError("a canonical line left the bulk parser")

        monkeypatch.setattr(timetags, "_parse_csv_line", per_line)
        path = tmp_path / "tags.csv"
        timestamps = np.array([10**18, 1_700_000_000_123_456_789, 2**63 - 1], dtype=np.int64)
        write_timetags_csv(path, np.array([0, 1, 0], dtype=np.uint8), timestamps)
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert got_ch.tolist() == [0, 1, 0] and np.array_equal(got_ts, timestamps)

    def test_bad_line_after_many_good_ones(self, tmp_path):
        path = tmp_path / "tags.csv"
        write_timetags_csv(path, np.zeros(10_000, dtype=np.uint8),
                           np.arange(10_000, dtype=np.int64))
        with open(path, "a") as fh:
            fh.write("B,1x\n")
        with pytest.raises(FormatError, match=":10002: timestamp must be an integer"):
            read_all(iter_timetags_csv(path))


def _csv_line(rng) -> str:
    """One CSV data line: mostly canonical, else one of the other forms
    the line grammar accepts."""
    ch = "AB"[rng.integers(2)]
    t = int(rng.integers(0, 10**12))
    forms = [
        f"{ch},{t}\n",
        "\n",
        " \t \n",
        f"  {ch} ,\t{t}  \n",
        f"{ch},{t}\r\n",
        f"{ch},{t}\r",
        f"{ch},{t:018d}\n",
        f"{ch},{t:025d}\n",
        f"{ch},+{t}\n",
        f"{ch},{t:_}\n",
        f"{ch},{int(rng.integers(10**17, 10**18))}\n",
        f"{ch},{int(rng.integers(10**18, 2**63))}\n",
    ]
    return forms[0] if rng.random() < 0.5 else forms[rng.integers(len(forms))]


BAD_CSV_LINES = ["C,5\n", "A,5,6\n", "A,-3\n", "B,1.5\n", f"A,{2**63 + 7}\n", "B\n",
                 f"A,{2**63}\n", f"B,{10**19 - 1}\n"]
# bytes that may stand for one digit of a canonical line
NON_DIGITS = [",", ":", " ", "/", "\xff"]


class TestCsvReaderEquivalence:
    """iter_timetags_csv must equal _parse_csv_line applied to every line
    of a text-mode (universal newlines) read of the same file, records
    and errors alike."""

    @staticmethod
    def line_by_line(path):
        # latin-1 hands every byte to _parse_csv_line as it is, so a non-ASCII
        # line fails there, not in the decode
        with open(path, encoding="latin-1") as fh:
            next(fh)
            records = [_parse_csv_line(path, lineno, raw.encode("latin-1"))
                       for lineno, raw in enumerate(fh, start=2)]
        records = [r for r in records if r is not None]
        return (np.array([c for c, _ in records], dtype=np.uint8),
                np.array([t for _, t in records], dtype=np.int64))

    def assert_reads_line_by_line(self, path, text):
        path.write_bytes(("channel,timestamp_ns\n" + text).encode("latin-1"))
        try:
            want_ch, want_ts = self.line_by_line(path)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_all(iter_timetags_csv(path))
            assert str(got.value) == str(exc)
            return
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert got_ch.dtype == np.uint8 and got_ts.dtype == np.int64
        assert np.array_equal(got_ch, want_ch)
        assert np.array_equal(got_ts, want_ts)

    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_forms(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        lines = [_csv_line(rng) for _ in range(rng.integers(0, 300))]
        if lines and rng.random() < 0.25:
            lines.insert(rng.integers(len(lines)), BAD_CSV_LINES[rng.integers(len(BAD_CSV_LINES))])
        text = "".join(lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")
        self.assert_reads_line_by_line(tmp_path / "tags.csv", text)

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 5, 17, 64])
    @pytest.mark.parametrize("seed", range(0, 40, 3))
    def test_mixed_forms_in_small_reads(self, tmp_path, monkeypatch, read_bytes, seed):
        # chunk edges at every position: the same records and errors as one read
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        self.test_mixed_forms(tmp_path, seed)

    @staticmethod
    def same_width_lines(width, n=7):
        """n canonical lines, each with width digits and no leading zero."""
        rng = np.random.default_rng(width)
        stamps = rng.integers(10**(width - 1), min(10**width, 2**63), n, endpoint=False)
        return [f"{'AB'[i % 2]},{t}\n" for i, t in enumerate(stamps.tolist())]

    @pytest.mark.parametrize("byte", NON_DIGITS)
    @pytest.mark.parametrize("width", range(1, 20))
    def test_one_width_with_a_byte_replaced(self, tmp_path, width, byte):
        # every line as wide, so no column is masked: a non-digit must still be
        # seen, and a row whose LF is replaced must not be read as one line
        lines = self.same_width_lines(width)
        self.assert_reads_line_by_line(tmp_path / "tags.csv", "".join(lines))
        for column in range(len(lines[3])):
            edited = lines[:3] + [lines[3][:column] + byte + lines[3][column + 1:]] + lines[4:]
            self.assert_reads_line_by_line(tmp_path / "tags.csv", "".join(edited))

    @pytest.mark.parametrize("width", range(1, 20))
    def test_one_width_with_leading_zeros(self, tmp_path, width):
        rng = np.random.default_rng(width)
        stamps = rng.integers(0, 10**(width // 2 + 1), 7).tolist()
        text = "".join(f"{'AB'[i % 2]},{t:0{width}d}\n" for i, t in enumerate(stamps))
        self.assert_reads_line_by_line(tmp_path / "tags.csv", text)

    @pytest.mark.parametrize("top", [2**63 - 1, 2**63], ids=("2-63-less-1", "2-63"))
    def test_nineteen_digits_at_the_bound(self, tmp_path, top):
        lines = self.same_width_lines(19)
        lines.insert(4, f"B,{top}\n")
        self.assert_reads_line_by_line(tmp_path / "tags.csv", "".join(lines))

    @pytest.mark.parametrize("shortest", range(1, 20))
    def test_mixed_widths_stay_in_bulk(self, tmp_path, monkeypatch, shortest):
        # each width from shortest up, with and without leading zeros: the masks
        # must keep every line canonical, so none falls back to the line parser
        lines = [line for width in range(shortest, 20) for line in self.same_width_lines(width, 2)]
        lines += [f"A,{width:0{width}d}\n" for width in range(shortest, 20)]
        path = tmp_path / "tags.csv"
        path.write_text("channel,timestamp_ns\n" + "".join(lines[::-1] + lines))
        want_ch, want_ts = self.line_by_line(path)

        def per_line(*args):
            raise AssertionError("a canonical line left the bulk parser")

        monkeypatch.setattr(timetags, "_parse_csv_line", per_line)
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert np.array_equal(got_ch, want_ch) and np.array_equal(got_ts, want_ts)

    @pytest.mark.parametrize("at", [0, 3, 7])
    @pytest.mark.parametrize("hidden", [
        ("A,5\n" "B\n", "A,123\n"),  # a bad line inside one row must be named
        ("A,5\n" "\n\n", "A,123\n"),
        ("\n" "A,1\n", "A,12\n"),
    ], ids=("bad-line", "two-blank-lines", "blank-then-short"))
    def test_rows_that_hide_lines(self, tmp_path, hidden, at):
        # lines that together fill one row of the file's width: the LF inside
        # the row must split them as the line parser does
        row, line = hidden
        assert len(row) == len(line)
        lines = [line.replace("1", str(i % 10)) for i in range(7)]
        lines.insert(at, row)
        self.assert_reads_line_by_line(tmp_path / "tags.csv", "".join(lines))

    @pytest.mark.parametrize("text", [
        "A,\n" * 5,
        "B,99999999999999999999\n" * 3,
        "A,00000000000000000000012\n" * 3,
    ], ids=("no-digits", "twenty-digits", "twenty-three-digits"))
    def test_one_width_outside_the_canonical_form(self, tmp_path, text):
        self.assert_reads_line_by_line(tmp_path / "tags.csv", text)

    @pytest.mark.parametrize("read_bytes", [7, 1 << 18])
    def test_one_width_without_a_last_lf(self, tmp_path, monkeypatch, read_bytes):
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        text = "".join(self.same_width_lines(3))
        self.assert_reads_line_by_line(tmp_path / "tags.csv", text[:-1])

    @pytest.mark.parametrize("read_bytes", [40, 1 << 18])
    @pytest.mark.parametrize("width", range(1, 20))
    def test_one_width_files_take_the_row_view(self, tmp_path, monkeypatch, width, read_bytes):
        # what write_timetags_csv emits at one digit count never needs the
        # line-end search, in blocks of one line or of all of them
        rng = np.random.default_rng(width)
        stamps = np.sort(rng.integers(10**(width - 1) if width > 1 else 0,
                                      min(10**width, 2**63), 500, endpoint=False))
        channels = rng.integers(0, 2, stamps.size).astype(np.uint8)
        path = tmp_path / "tags.csv"
        write_timetags_csv(path, channels, stamps)

        def general_path(*args):
            raise AssertionError("a one-width block left the row view")

        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        monkeypatch.setattr(timetags, "_parse_csv_lines", general_path)
        got_ch, got_ts = read_all(iter_timetags_csv(path))
        assert np.array_equal(got_ch, channels) and np.array_equal(got_ts, stamps)

    @pytest.mark.parametrize("read_bytes", [17, 64, 1 << 18])
    @pytest.mark.parametrize("power", range(1, 19))
    def test_timestamps_crossing_a_power_of_ten(self, tmp_path, monkeypatch, power, read_bytes):
        # blocks of one width, then of two, then of the next one
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        stamps = range(10**power - 12, 10**power + 12)
        text = "".join(f"{'AB'[t % 2]},{t}\n" for t in stamps if t >= 0)
        self.assert_reads_line_by_line(tmp_path / "tags.csv", text)

    @pytest.mark.parametrize("byte", NON_DIGITS)
    @pytest.mark.parametrize("shortest", range(1, 19))
    def test_non_digit_in_a_line_longer_than_the_shortest(self, tmp_path, shortest, byte):
        # columns below shortest go unmasked, the others are masked line by line
        longer = "1234567890123456789"
        for column in range(len(longer)):
            edited = longer[:column] + byte + longer[column + 1:]
            lines = self.same_width_lines(shortest)
            lines[3:3] = [f"A,{longer}\n", f"B,{edited}\n"]
            self.assert_reads_line_by_line(tmp_path / "tags.csv", "".join(lines))


class TestCsvWidthRuns:
    """_parse_csv_block reads each long run of one width as a row view and
    must give the records, line count and errors of _parse_csv_lines."""

    general_path = staticmethod(timetags._parse_csv_lines)  # bound before any monkeypatch

    @staticmethod
    def lines(stamps, channels=None):
        channels = [i % 2 for i in range(len(stamps))] if channels is None else channels
        return [f"{'AB'[c]},{t}\n" for c, t in zip(channels, stamps)]

    def assert_parses_as_lines(self, path, text, lineno=7):
        data = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
        try:
            want = self.general_path(path, data, lineno)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                timetags._parse_csv_block(path, data, lineno)
            assert str(got.value) == str(exc) and got.value.record == exc.record
            return
        got = timetags._parse_csv_block(path, data, lineno)
        assert got[2] == want[2]
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_many_short_runs(self, tmp_path, seed):
        # channel A just below 10**8 and B just above it, interleaved at random:
        # each channel is sorted, and the widths change every few lines
        rng = np.random.default_rng(seed)
        n = 3 * timetags._CSV_MIN_RUN
        streams = [np.sort(rng.integers(10**8 - 10**6, 10**8, n)),
                   np.sort(rng.integers(10**8, 10**8 + 10**6, n))]
        channels, stamps = interleave(rng, streams)
        text = "".join(self.lines(stamps.tolist(), channels.tolist()))
        self.assert_parses_as_lines(tmp_path / "t.csv", text)

    @pytest.mark.parametrize("row", ["A,12345x7", " B,2345", "A,+2345", ""],
                             ids=("non-digit", "leading-space", "plus-sign", "blank-lines"))
    @pytest.mark.parametrize("run", [0, 1, 2])
    def test_a_non_canonical_row_in_any_run(self, tmp_path, row, run):
        # three long runs of widths 11, 12 and 13; one row of the given run is
        # replaced by the row, padded to its width, or by as many blank lines
        m = timetags._CSV_MIN_RUN + 10
        stamps = [10**8 - m + i for i in range(2 * m)] + [10**9 + i for i in range(m)]
        lines = self.lines(stamps)
        at = run * m + m // 2
        width = len(lines[at])
        lines[at] = row.ljust(width - 1, "0") + "\n" if row else "\n" * width
        self.assert_parses_as_lines(tmp_path / "t.csv", "".join(lines))

    @pytest.mark.parametrize("before,after", [(1, 1), (3, 600), (600, 3), (600, 600),
                                              (timetags._CSV_MIN_RUN, timetags._CSV_MIN_RUN - 1),
                                              (2000, 2000)])
    @pytest.mark.parametrize("power", [1, 3, 8, 18])
    def test_a_run_that_crosses_a_power_of_ten(self, tmp_path, monkeypatch, power, before, after):
        stamps = [t for t in range(10**power - before, 10**power + after) if t >= 0]
        text = "".join(self.lines(stamps))
        self.assert_parses_as_lines(tmp_path / "t.csv", text)
        if min(before, after) >= timetags._CSV_MIN_RUN and stamps[0] >= 10**(power - 1):
            # two runs, both long: no line end is searched for

            def general_path(*args):
                raise AssertionError("a block of long runs left the row views")

            monkeypatch.setattr(timetags, "_parse_csv_lines", general_path)
            self.assert_parses_as_lines(tmp_path / "t.csv", text)

    def test_short_first_runs_then_long_ones(self, tmp_path, monkeypatch):
        # the first block of a file written from time 0: runs of 1, 9, 90,
        # 900 and 9000 lines, then a longer one; the short ones are searched alone
        text = "".join(self.lines(range(10_000 + 20_000)))
        data = np.frombuffer(text.encode(), dtype=np.uint8)
        searched = []

        def spy(path, block, lineno):
            searched.append(block.size)
            return self.general_path(path, block, lineno)

        monkeypatch.setattr(timetags, "_parse_csv_lines", spy)
        channels, stamps, n = timetags._parse_csv_block("t.csv", data, 2)
        assert n == 30_000 and np.array_equal(stamps, np.arange(30_000))
        assert np.array_equal(channels, np.arange(30_000) % 2)
        assert searched == [len("".join(self.lines(range(100))))]


class TestCsvChunkEdges:
    """The CSV reader with reads shrunk so that chunk edges fall on the
    spots under test."""

    def test_bad_line_first_in_a_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.csv"
        good = "".join(f"A,{t}\n" for t in range(10, 100))  # 90 lines of 5 bytes
        path.write_text(f"channel,timestamp_ns\n{good}C,100\n")
        # the first read ends right after the 21-byte header and the good
        # lines, so "C,100" opens the second chunk
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", 21 + 5 * 90)
        chunks = iter_timetags_csv(path)
        assert next(chunks)[1].size == 90
        with pytest.raises(FormatError, match=re.escape(f"{path}:92: channel must be A or B")):
            next(chunks)

    def test_crlf_split_by_an_edge(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.csv"
        path.write_bytes(b"channel,timestamp_ns\r\nA,10\r\nB,20\r\nA,ten\r\n")
        # the first read ends between the CR and the LF after A,10: read
        # apart, they would end two lines and shift every later number
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", len(b"channel,timestamp_ns\r\nA,10\r"))
        with pytest.raises(FormatError, match=re.escape(f"{path}:4: timestamp must be an integer")):
            read_all(iter_timetags_csv(path))
        path.write_bytes(b"channel,timestamp_ns\r\nA,10\r\nB,20\r\n")
        ch, ts = read_all(iter_timetags_csv(path))
        assert ch.tolist() == [0, 1] and ts.tolist() == [10, 20]

    @pytest.mark.parametrize("read_bytes", [4, 7, 8, 1 << 20])
    def test_last_line_without_newline(self, tmp_path, monkeypatch, read_bytes):
        path = tmp_path / "tags.csv"
        path.write_bytes(b"channel,timestamp_ns\nA,10\nB,2000")
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        ch, ts = read_all(iter_timetags_csv(path))
        assert ch.tolist() == [0, 1] and ts.tolist() == [10, 2000]

    @staticmethod
    def reused_buffer_text(rng, bad_line=None):
        """Lines of many widths and forms, a line of 64 bytes, and bad_line
        near the end, as CSV text."""
        lines = [_csv_line(rng) for _ in range(200)]
        lines.insert(50, f"  A ,  {'0' * 50}12345  \n")  # longer than any read below
        lines += [f"{'AB'[i % 2]},{10**9 - 50 + i}\n" for i in range(100)]  # a width run
        if bad_line is not None:
            lines.insert(-3, bad_line)
        return "channel,timestamp_ns\n" + "".join(lines)

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 7, 64, 1000])
    @pytest.mark.parametrize("seed", range(3))
    def test_records_outlive_the_reused_buffer(self, tmp_path, monkeypatch, read_bytes, seed):
        # every chunk is kept until the reader has read the whole file into its
        # one buffer: a chunk that viewed it would now hold later bytes
        path = tmp_path / "tags.csv"
        path.write_bytes(self.reused_buffer_text(np.random.default_rng(seed)).encode())
        whole = read_all(iter_timetags_csv(path))
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        chunks = list(iter_timetags_csv(path))
        assert len(chunks) > 1
        for got, want in zip(read_all(chunks), whole):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 7])
    @pytest.mark.parametrize("bad_line", BAD_CSV_LINES[:6])
    def test_errors_in_small_reads_name_the_whole_file_line(self, tmp_path, monkeypatch,
                                                              read_bytes, bad_line):
        path = tmp_path / "tags.csv"
        path.write_bytes(self.reused_buffer_text(np.random.default_rng(5), bad_line).encode())
        with pytest.raises(FormatError) as whole:
            read_all(iter_timetags_csv(path))
        assert re.match(f"^{re.escape(str(path))}:29\\d: ", str(whole.value))  # near the end
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        with pytest.raises(FormatError) as small:
            read_all(iter_timetags_csv(path))
        assert str(small.value) == str(whole.value)

    @pytest.mark.parametrize("text", ["", "channel,timestamp_n", "channel,count\nA,1\n"])
    def test_header_error_in_small_reads(self, tmp_path, monkeypatch, text):
        path = tmp_path / "tags.csv"
        path.write_text(text)
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", 3)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:1: expected header"):
            read_all(iter_timetags_csv(path))


class TestWriterChecks:
    @pytest.mark.parametrize("writer", [write_timetags_csv, write_timetags_binary],
                             ids=("csv", "binary"))
    @pytest.mark.parametrize("channels,timestamps,message", [
        ([0, -1, 2], [1, 2, 3], "record 1: channel code -1 is not 0 (A) or 1 (B)"),
        ([0, 2], [1, 2], "record 1: channel code 2 is not 0 (A) or 1 (B)"),
        ([1, 0, 0], [1, 2, -3], "record 2: timestamp -3 is negative"),
        # the readers refuse both: timestamps >= 2**63, and "A,5.0" or a truncated 10.7
        ([0, 1], np.array([5, 2**63], dtype=np.uint64),
         "record 1: timestamp 9223372036854775808 is not below 2**63"),
        ([0, 1], [5.0, 10.7], "record 0: timestamp 5.0 is float64, not an integer type"),
        # a float code is refused even where its value is 0 or 1
        ([0.0, 1.0], [5, 10], "record 0: channel code 0.0 is float64, not an integer type"),
        ([0, 1], [5], "channels and timestamps must have equal length"),
        (0, 5, "channels and timestamps must be 1-d arrays"),
        ([[0, 1]], [[5, 6]], "channels and timestamps must be 1-d arrays"),
        # the fold refuses it, so the writers do too
        ([0, 1, 0], [20, 5, 10], "record 2: channel A timestamps are not sorted (10 after 20)"),
    ], ids=("channel-minus-1", "channel-2", "negative-timestamp", "timestamp-2-63",
            "float-timestamps", "float-channels", "unequal-length", "scalars", "2-d",
            "unsorted-channel"))
    def test_bad_record_is_refused_before_writing(
            self, tmp_path, writer, channels, timestamps, message):
        path = tmp_path / "tags"
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            writer(path, np.array(channels), np.array(timestamps))
        assert not path.exists()

    @pytest.mark.parametrize("writer,reader", [(write_timetags_csv, iter_timetags_csv),
                                               (write_timetags_binary, iter_timetags_binary)],
                             ids=("csv", "binary"))
    def test_bool_channels_are_codes(self, tmp_path, writer, reader):
        # an A/B mask: False is code 0 (A), True is code 1 (B)
        path = tmp_path / "tags"
        writer(path, np.array([False, True, True]), np.array([1, 2, 3]))
        got_ch, got_ts = read_all(reader(path))
        assert got_ch.tolist() == [0, 1, 1] and got_ts.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("writer", [write_timetags_csv, write_timetags_binary],
                             ids=("csv", "binary"))
    def test_time_ordered_int8_code_minus_1_is_refused(self, tmp_path, writer):
        # in time order, so only the code test stands between -1 and channel B
        path = tmp_path / "tags"
        message = f"{path}: record 2: channel code -1 is not 0 (A) or 1 (B)"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            writer(path, np.array([0, 1, -1, 0], dtype=np.int8), np.array([1, 2, 3, 4]))
        assert not path.exists()

    @pytest.mark.parametrize("writer,reader", [(write_timetags_csv, iter_timetags_csv),
                                               (write_timetags_binary, iter_timetags_binary)],
                             ids=("csv", "binary"))
    @pytest.mark.parametrize("seed", range(4))
    def test_streams_sorted_per_channel_only(self, tmp_path, writer, reader, seed):
        # channels that cross in time: the file reads back as written and folds alike
        rng = np.random.default_rng(seed)
        streams = [np.sort(rng.integers(0, 500 * 200, int(rng.integers(50, 400))))
                   for _ in range(2)]
        channels, timestamps = interleave(rng, streams)
        assert np.any(np.diff(timestamps) < 0)
        path = tmp_path / "tags"
        writer(path, channels, timestamps)
        got_ch, got_ts = read_all(reader(path))
        assert np.array_equal(got_ch, channels) and np.array_equal(got_ts, timestamps)
        assert (fold_timetags(reader(path), GATE, 200)
                == fold_timetags([(channels, timestamps)], GATE, 200))


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tags.bin"
        channels = np.array([0, 1, 1, 0], dtype=np.uint8)
        timestamps = np.array([0, 5, 17, 2**40], dtype=np.int64)
        write_timetags_binary(path, channels, timestamps)
        got_ch, got_ts = read_all(iter_timetags_binary(path))
        assert np.array_equal(got_ch, channels)
        assert np.array_equal(got_ts, timestamps)

    def test_matches_csv_content(self, tmp_path):
        channels = np.array([0, 1], dtype=np.uint8)
        timestamps = np.array([12, 513], dtype=np.int64)
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        write_timetags_binary(tmp_path / "t.bin", channels, timestamps)
        csv = read_all(iter_timetags_csv(tmp_path / "t.csv"))
        binary = read_all(iter_timetags_binary(tmp_path / "t.bin"))
        assert np.array_equal(csv[0], binary[0])
        assert np.array_equal(csv[1], binary[1])

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tags.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError, match="truncated"):
            read_all(iter_timetags_binary(path))

    def test_count_body_mismatch(self, tmp_path):
        path = tmp_path / "tags.bin"
        header = np.uint64(2).tobytes()
        one_record = b"A" + np.uint64(10).tobytes()
        path.write_bytes(header + one_record)
        with pytest.raises(FormatError, match="promises 2 records"):
            read_all(iter_timetags_binary(path))

    def test_bad_channel_byte(self, tmp_path):
        path = tmp_path / "tags.bin"
        header = np.uint64(2).tobytes()
        body = b"A" + np.uint64(10).tobytes() + b"C" + np.uint64(20).tobytes()
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match="record 1"):
            read_all(iter_timetags_binary(path))

    def test_bad_channel_byte_in_a_later_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.bin"
        codes = np.zeros(12, dtype=np.uint8)
        write_timetags_binary(path, codes, np.arange(12))
        data = bytearray(path.read_bytes())
        data[8 + 9 * 9] = ord("x")  # record 9, the second of the third chunk
        path.write_bytes(bytes(data))
        monkeypatch.setattr(timetags, "_CHUNK_TAGS", 4)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: record 9: channel byte 0x78 not A/B")):
            read_all(iter_timetags_binary(path))

    def test_timestamp_beyond_int64_is_refused(self, tmp_path):
        path = tmp_path / "tags.bin"
        body = b"A" + np.uint64(10).tobytes() + b"B" + np.uint64(2**63).tobytes()
        path.write_bytes(np.uint64(2).tobytes() + body)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: record 1: timestamp {2**63} is not below 2**63")):
            read_all(iter_timetags_binary(path))

    def test_timestamp_beyond_int64_in_a_later_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.bin"
        write_timetags_binary(path, np.zeros(12, dtype=np.uint8), np.arange(12))
        data = bytearray(path.read_bytes())
        data[8 + 9 * 9 + 1:8 + 9 * 10] = np.uint64(2**64 - 1).tobytes()  # record 9
        path.write_bytes(bytes(data))
        monkeypatch.setattr(timetags, "_CHUNK_TAGS", 4)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: record 9: timestamp {2**64 - 1} is not below 2**63")):
            read_all(iter_timetags_binary(path))

    def test_a_file_that_shrinks_while_read_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.bin"
        write_timetags_binary(path, np.zeros(12, dtype=np.uint8), np.arange(12))
        monkeypatch.setattr(timetags, "_CHUNK_TAGS", 4)
        # unbuffered, so that no read-ahead holds the bytes the truncation takes
        monkeypatch.setattr(timetags, "open", functools.partial(open, buffering=0), raising=False)
        chunks = iter_timetags_binary(path)
        next(chunks)
        os.truncate(path, 8 + 9 * 6 + 5)  # records 0-5 and part of record 6 remain
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: record 6: missing; the file shrank while read")):
            next(chunks)

    def test_chunks_concatenate_to_the_whole_file(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.bin"
        rng = np.random.default_rng(3)
        channels = rng.integers(0, 2, 11).astype(np.uint8)
        timestamps = np.sort(rng.integers(0, 2**62, 11))
        write_timetags_binary(path, channels, timestamps)
        monkeypatch.setattr(timetags, "_CHUNK_TAGS", 4)
        assert [c.size for c, _ in timetags.iter_timetags_binary(path)] == [4, 4, 3]
        got_ch, got_ts = read_all(iter_timetags_binary(path))
        assert got_ch.dtype == np.uint8 and got_ts.dtype == np.int64
        assert np.array_equal(got_ch, channels) and np.array_equal(got_ts, timestamps)


class TestIngest:
    def test_hand_built_stream(self):
        # pulse 0: A only; pulse 1: both; pulse 2: out-of-gate record only;
        # pulse 3: B only; pulse 4: nothing.
        channels = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        timestamps = np.array([10, 520, 530, 1100, 1599], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], GATE, 5)
        assert counts == ClickCounts(n_all=5, n_00=2, n_10=1, n_01=1, n_11=1)

    def test_saturation_collapses_repeats(self):
        channels = np.array([0, 0, 0], dtype=np.uint8)
        timestamps = np.array([10, 20, 20], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], GATE, 1)
        assert counts == ClickCounts(n_all=1, n_00=0, n_10=1, n_01=0, n_11=0)

    def test_gate_window_is_half_open(self):
        gate = GateConfig(500, 50, 100)
        channels = np.array([0, 0, 0, 0], dtype=np.uint8)
        timestamps = np.array([49, 50, 149, 150], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], gate, 1)
        assert counts.n_10 == 1  # 50 and 149 land in pulse 0's gate, once

    def test_records_beyond_window_dropped(self):
        channels = np.array([0, 0], dtype=np.uint8)
        timestamps = np.array([10, 10 + 7 * 500], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], GATE, 5)
        assert counts == ClickCounts(n_all=5, n_00=4, n_10=1, n_01=0, n_11=0)

    def test_shift_by_whole_pulses(self):
        channels = np.array([0, 1, 0, 1], dtype=np.uint8)
        timestamps = np.array([10, 520, 530, 1599], dtype=np.int64)
        base = fold_timetags([(channels, timestamps)], GATE, 4)
        k = 3
        shifted = fold_timetags([(channels, timestamps + k * 500)], GATE, 4 + k)
        assert shifted.n_00 == base.n_00 + k
        assert (shifted.n_10, shifted.n_01, shifted.n_11) == (
            base.n_10, base.n_01, base.n_11
        )

    @pytest.mark.parametrize("gate", [GateConfig(500, 0, 100), GateConfig(500.0, 0.0, 100.0),
                                      GateConfig(np.int64(500), np.int32(0), np.uint16(100))],
                             ids=("int", "float", "numpy-int"))
    def test_epoch_scale_tags_fold_exactly(self, gate):
        # float64 cannot hold 500 k + 100 at this scale: it rounds the tag
        # to 500 k, i.e. into the gate [0, 100) of pulse k
        k = 1_760_000_000_000_000_000 // 500
        channels = np.array([0, 1], dtype=np.uint8)
        timestamps = np.array([500 * k + 100, 500 * k + 99], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], gate, k + 1)
        assert counts == ClickCounts(n_all=k + 1, n_00=k, n_10=0, n_01=1, n_11=0)

    def test_unsorted_channel_rejected(self):
        channels = np.array([0, 0], dtype=np.uint8)
        timestamps = np.array([600, 10], dtype=np.int64)
        message = "record 1: channel A timestamps are not sorted (10 after 600)"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            fold_timetags([(channels, timestamps)], GATE, 2)

    def test_interleaved_channels_may_cross(self):
        # only the per-channel order matters
        channels = np.array([0, 1, 0], dtype=np.uint8)
        timestamps = np.array([10, 5, 520], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], GATE, 2)
        assert counts == ClickCounts(n_all=2, n_00=0, n_10=1, n_01=0, n_11=1)

    def test_validation_errors(self):
        ch = np.array([0], dtype=np.uint8)
        ts = np.array([10], dtype=np.int64)
        with pytest.raises(RangeError, match="^n_pulses must be a positive integer, got 0$"):
            fold_timetags([(ch, ts)], GATE, 0)
        with pytest.raises(FormatError):
            fold_timetags([(ch, np.array([10, 20]))], GATE, 1)
        with pytest.raises(FormatError):
            fold_timetags([(ch, np.array([-1]))], GATE, 1)
        with pytest.raises(FormatError, match="^channels and timestamps must be 1-d arrays$"):
            fold_timetags([(0, 5)], GATE, 1)

    @pytest.mark.parametrize("channels,timestamps,message", [
        # -0.5 would be cast to 0 and counted in the gate of pulse 0
        ([0, 1], [-0.5, 50.7], "record 0: timestamp -0.5 is float64, not an integer type"),
        ([0.0, 1.0], [10, 60], "record 0: channel code 0.0 is float64, not an integer type"),
    ], ids=("float-timestamps", "float-channels"))
    def test_non_integer_arrays_refused(self, channels, timestamps, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            fold_timetags([(np.array(channels), np.array(timestamps))], GATE, 2)

    @pytest.mark.parametrize("chunks,message", [
        # records count from the start of the stream, across chunks
        ([([0, 1], [10, 20]), ([1, 2, 0], [30, 40, 50])],
         "record 3: channel code 2 is not 0 (A) or 1 (B)"),
        ([([0, 1], [10, 20]), ([], []), ([1, 0], [30, -5])], "record 3: timestamp -5 is negative"),
        # compared before any cast: as int64 it would read as negative
        ([([0], np.array([2**63], dtype=np.uint64))],
         "record 0: timestamp 9223372036854775808 is not below 2**63"),
        ([([0, 1], [10, 20]), ([1], np.array([2**64 - 1], dtype=np.uint64))],
         "record 2: timestamp 18446744073709551615 is not below 2**63"),
    ], ids=("code-in-a-later-chunk", "negative-in-a-later-chunk", "uint64-2-63",
            "uint64-max-in-a-later-chunk"))
    def test_bad_record_is_numbered_in_the_stream(self, chunks, message):
        chunks = [(np.array(ch, dtype=np.uint8), np.asarray(ts)) for ch, ts in chunks]
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            fold_timetags(chunks, GATE, 2)

    def test_bool_channels_and_empty_chunks_fold(self):
        chunks = [(np.array([]), np.array([])),  # float64, but no record to truncate
                  (np.array([False, True]), np.array([10, 60], dtype=np.uint64))]
        assert fold_timetags(chunks, GATE, 2) == ClickCounts.from_totals(2, 1, 1, 1)

    @pytest.mark.parametrize("n_pulses,echo", [(2**63, "9223372036854775808"),
                                               (10**400, "1e+400")], ids=("2-63", "10-400"))
    def test_pulse_count_from_2_63_is_refused(self, n_pulses, echo):
        ch, ts = np.array([0], dtype=np.uint8), np.array([10])
        with pytest.raises(RangeError, match=re.escape(
                f"n_pulses must be below 2**63, got {echo}")) as exc:
            fold_timetags([(ch, ts)], GATE, n_pulses)
        assert exc.value.field == "n_pulses"

    @pytest.mark.parametrize("n_pulses", [2.5, math.nan, math.inf])
    def test_non_integral_pulse_count_is_named(self, n_pulses):
        ch, ts = np.array([0], dtype=np.uint8), np.array([10])
        with pytest.raises(RangeError, match=re.escape(
                f"n_pulses must be a positive integer, got {n_pulses!r}")) as exc:
            fold_timetags([(ch, ts)], GATE, n_pulses)
        assert exc.value.field == "n_pulses"

    @pytest.mark.parametrize("chunks,expected", [
        # 2**53 - 1 and 2**53 lie 3.5 and 4.5 ns into one 12.5 ns pulse, 2**53 + 2 past its gate
        ([([0, 1, 1], [10, 2**53 - 1, 2**53 + 2])], (0, 1, 0)),
        ([([0, 1], [2, 2**53 - 1]), ([1, 0, 0], [2**53, 30, 2**53])], (1, 0, 1)),
        # Unix-epoch tags 3 ns into a pulse, 12 ns into it (out of the gate), 0.5 ns into the next
        ([([0, 1], [1_760_000_000_000_000_003, 1_760_000_000_000_000_012]),
          ([1], [1_760_000_000_000_000_013])], (1, 1, 0)),
    ], ids=("first-chunk", "later-chunk", "unix-epoch"))
    def test_fractional_period_folds_tags_from_2_53(self, chunks, expected):
        chunks = [(np.array(ch, dtype=np.uint8), np.array(ts)) for ch, ts in chunks]
        counts = fold_timetags(chunks, GateConfig(12.5, 0, 5), 2**60)
        assert (counts.n_10, counts.n_01, counts.n_11) == expected
        assert (counts.n_00, *expected) == ingest_oracle(*read_all(chunks), 12.5, 0, 5, 2**60)

    def test_fractional_period_folds_pulse_starts(self):
        # t = 123 m ns starts pulse 10 m of 12.3 ns; float64 put 9 418 of
        # these out of the gate [0, 1) and 4 095 in a wrong pulse
        m = np.arange(1, 100_001)
        pulse, in_gate = GateConfig(12.3, 0, 1).fold(123 * m)
        assert in_gate.all()
        assert np.array_equal(pulse, 10 * m)

    @staticmethod
    def oracle_case(seed, dark=None):
        """A seeded random stream, its gate and pulse count, and the
        per-tag oracle's (n_00, n_10, n_01, n_11).  A dark channel, 0 or
        1, has records but all of them after its gate."""
        rng = np.random.default_rng(seed)
        period, offset, width = ORACLE_TIMINGS[seed % 7]
        gate = GateConfig(period, offset, width)
        n_pulses = int(rng.integers(1, 40))
        exact = Fraction(str(period))
        base = 0
        if seed % 2:  # a pulse that starts at a whole ns near the Unix epoch in ns
            base = 1_760_000_000_000_000_000 // exact.numerator * exact.denominator
        streams = []
        for code in range(2):
            n = 0 if rng.random() < 0.15 and code != dark else int(rng.integers(1, 120))
            # few distinct pulses, so several tags share one; some beyond n_pulses
            pulse = rng.integers(0, n_pulses + 3, n)
            # a dark channel's tags lie whole ns past its gate and before the next
            low, high = ((math.ceil(offset + width) + 1, math.floor(period) - 1)
                         if code == dark else (0, math.ceil(period)))
            position = rng.integers(low, high, n)
            streams.append(np.sort(int(base * exact) + position
                                   + np.floor(pulse * float(period)).astype(np.int64)))
        channels, timestamps = interleave(rng, streams)
        n_all = base + n_pulses
        expected = ingest_oracle(channels, timestamps, period, offset, width, n_all)
        return channels, timestamps, gate, n_all, expected

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_tag_oracle(self, seed):
        channels, timestamps, gate, n_all, expected = self.oracle_case(seed)
        counts = fold_timetags([(channels, timestamps)], gate, n_all)
        assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == expected

    @pytest.mark.parametrize("size", [1, 7, 4096, None], ids=("1", "7", "4096", "whole"))
    @pytest.mark.parametrize("seed", range(60))
    def test_fold_matches_per_tag_oracle_at_any_chunk_size(self, seed, size):
        channels, timestamps, gate, n_all, expected = self.oracle_case(seed)
        counts = fold_timetags(chunked(channels, timestamps, size), gate, n_all)
        assert (counts.n_all, counts.n_00, counts.n_10, counts.n_01, counts.n_11) == (
            n_all, *expected)

    @pytest.mark.parametrize("size", [1, 7, 4096, None], ids=("1", "7", "4096", "whole"))
    @pytest.mark.parametrize("seed", range(60))
    def test_fold_matches_per_tag_oracle_with_a_dark_channel(self, seed, size):
        dark = seed // 2 % 2  # each channel, with and without the epoch base of odd seeds
        channels, timestamps, gate, n_all, expected = self.oracle_case(seed, dark)
        # the dark channel has records, yet neither its clicks nor a coincidence
        assert np.any(channels == dark) and expected[1 + dark] == expected[3] == 0
        counts = fold_timetags(chunked(channels, timestamps, size), gate, n_all)
        assert (counts.n_all, counts.n_00, counts.n_10, counts.n_01, counts.n_11) == (
            n_all, *expected)
        inferred = int(gate.fold(timestamps.max())[0]) + 1
        assert fold_timetags(chunked(channels, timestamps, size), gate) == fold_timetags(
            [(channels, timestamps)], gate, inferred)

    @staticmethod
    def regime_case(seed, kind):
        """A seeded stream on the timings of oracle_case, its gate and pulse
        count, and the per-tag oracle's (n_00, n_10, n_01, n_11).  Each
        channel has 1 to 6 tags in each of its pulses: in "sparse" about one
        pulse in 1000 (near the Unix epoch for odd seeds); in "switch"
        stretches of such pulses alternate with stretches of every pulse;
        in "dense" every pulse, so that one pulse's tags straddle chunk edges."""
        rng = np.random.default_rng(seed)
        period, offset, width = ORACLE_TIMINGS[seed % 7]
        exact = Fraction(str(period))
        base = 0
        if kind == "sparse" and seed % 2:
            base = 1_760_000_000_000_000_000 // exact.numerator * exact.denominator
        # (first pulse, pulses, tagged pulses) of each stretch
        stretches = {"sparse": [(0, 100_000, 100)], "dense": [(0, 800, 800)],
                     "switch": [(0, 1_200, 1_200), (1_200, 64_000, 64), (65_200, 16, 16),
                                (65_216, 16_000, 16), (81_216, 16, 16), (81_232, 128_000, 128)]}
        streams = []
        for _ in range(2):
            pulse = np.concatenate([start + np.sort(rng.choice(n, size, replace=False))
                                    for start, n, size in stretches[kind]])
            pulse = np.repeat(pulse, rng.integers(1, 7, pulse.size))
            position = rng.integers(0, math.ceil(period), pulse.size)
            streams.append(np.sort(int(base * exact) + position
                                   + np.floor(pulse * float(period)).astype(np.int64)))
        channels, timestamps = interleave(rng, streams)
        # the last 3 pulses of the last stretch lie beyond the pulse count
        n_all = base + sum(stretches[kind][-1][:2]) - 3
        expected = ingest_oracle(channels, timestamps, period, offset, width, n_all)
        return channels, timestamps, GateConfig(period, offset, width), n_all, expected

    @pytest.mark.parametrize("size", [1, 7, 4096, None], ids=("1", "7", "4096", "whole"))
    @pytest.mark.parametrize("kind,seeds", [("sparse", range(14)), ("switch", range(2)),
                                            ("dense", range(0, 7, 3))])
    def test_fold_matches_per_tag_oracle_in_either_tally_regime(self, kind, seeds, size,
                                                                monkeypatch):
        # a merge sorts when its pulses span 8 or more times their count, else
        # marks them in a table: name each merge's regime
        regimes = []
        tally, distinct = timetags._tally, timetags._distinct

        def spy_tally(a, b):
            regimes.append("table" if a or b else None)
            return tally(a, b)

        def spy_distinct(pieces):
            regimes[-1] = "sort"
            return distinct(pieces)

        monkeypatch.setattr(timetags, "_tally", spy_tally)
        monkeypatch.setattr(timetags, "_distinct", spy_distinct)
        for seed in seeds:
            channels, timestamps, gate, n_all, expected = self.regime_case(seed, kind)
            counts = fold_timetags(chunked(channels, timestamps, size), gate, n_all)
            assert (counts.n_all, counts.n_00, counts.n_10, counts.n_01, counts.n_11) == (
                n_all, *expected), seed
        # a merge of one pulse is dense, so a sparse stream also reaches the table
        want = {"sparse": {"sort", "table"}, "switch": {"sort", "table"}, "dense": {"table"}}
        assert set(regimes) - {None} == want[kind]

    @pytest.mark.parametrize("seed", range(0, 60, 7))
    def test_pulse_count_inferred_from_last_tag(self, seed):
        channels, timestamps, gate, _, _ = self.oracle_case(seed)
        if not timestamps.size:
            assert fold_timetags(chunked(channels, timestamps, 7), gate).n_all == 0
            return
        n_all = int(gate.fold(timestamps.max())[0]) + 1
        assert fold_timetags(chunked(channels, timestamps, 7), gate) == fold_timetags(
            [(channels, timestamps)], gate, n_all)

    def test_one_channel_then_the_other(self):
        # every A tag precedes every B tag: the A pulses wait for B's
        cases = [
            (range(60), range(30, 90), 100, (10, 30, 30, 30)),
            # thousands of A pulses wait in pieces for the first B tag
            (range(5_000), range(4_990, 5_020), 5_100, (80, 4_990, 20, 10)),
        ]
        for a_pulses, b_pulses, n_all, expected in cases:
            a = np.array(a_pulses) * 500 + 10
            b = np.array(b_pulses) * 500 + 20
            channels = np.repeat(np.array([0, 1], dtype=np.uint8), [a.size, b.size])
            timestamps = np.concatenate([a, b])
            counts = fold_timetags(chunked(channels, timestamps, 7), GATE, n_all)
            assert counts == ClickCounts(n_all, *expected)

    def test_fold_memory_stays_flat_while_a_channel_keeps_nothing(self):
        # A's tags 10 ns into every pulse, B's b_at ns in: when B's all miss the gate,
        # A's kept pulses must not pile up waiting for one; nor when both keep each pulse
        size = 65536
        channels = np.repeat(np.array([0, 1], dtype=np.uint8), size)

        def stream(n_chunks, b_at):
            for i in range(n_chunks):
                start = np.arange(i * size, (i + 1) * size) * 500
                yield channels, np.concatenate([start + 10, start + b_at])

        for b_at, kept in ((200, (1, 0, 0)), (20, (1, 1, 1))):
            peaks = []
            for n_chunks in (16, 64):
                tracemalloc.start()
                try:
                    counts = fold_timetags(stream(n_chunks, b_at), GATE)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                n = n_chunks * size
                assert counts == ClickCounts.from_totals(n, *(n * k for k in kept)), b_at
            assert peaks[1] - peaks[0] <= 2**20, (b_at, peaks)

    def test_unsorted_across_a_chunk_edge_rejected(self):
        channels = np.array([0, 1, 0, 1, 0, 0], dtype=np.uint8)
        timestamps = np.array([10, 20, 600, 700, 599, 900], dtype=np.int64)
        # each chunk is sorted; A goes from 600 back to 599 across the edge
        message = "record 4: channel A timestamps are not sorted (599 after 600)"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            fold_timetags(chunked(channels, timestamps, 4), GATE, 3)

    @pytest.mark.parametrize("kind", [
        "code-2", "code-255", "int8-code-minus-1", "bool-codes", "uint64-from-2-63",
        "int64-negative", "float-timestamps", "float-codes", "disorder-inside",
        "disorder-at-start"])
    @pytest.mark.parametrize("seed", range(8))
    def test_chunk_test_agrees_with_the_exact_check(self, kind, seed):
        # two good chunks in time order, then one spoiled by a record of the kind:
        # the fold raises what _checked_records raises on it, or folds it exactly
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        channels = rng.integers(0, 2, 3 * n).astype(np.uint8)
        channels[:2] = 0, 1  # the head has a last timestamp of each channel
        timestamps = np.sort(rng.integers(1000, 500 * 40, 3 * n))
        head = chunked(channels[:2 * n], timestamps[:2 * n], n)
        last = [int(timestamps[:2 * n][channels[:2 * n] == code].max()) for code in (0, 1)]
        ch, ts = channels[2 * n:].copy(), timestamps[2 * n:].copy()
        i = int(rng.integers(n))
        if kind in ("code-2", "code-255"):
            ch[i] = int(kind[5:])
        elif kind == "int8-code-minus-1":
            ch = ch.astype(np.int8)
            ch[i] = -1
        elif kind == "bool-codes":
            ch = ch.astype(bool)
        elif kind == "uint64-from-2-63":
            ts = ts.astype(np.uint64)
            ts[i] = 2**63 + int(rng.integers(2**63))
        elif kind == "int64-negative":
            ts[i] = -int(rng.integers(1, 2**62))
        elif kind == "float-timestamps":
            ts = ts.astype(float)
        elif kind == "float-codes":
            ch = ch.astype(float)
        elif kind == "disorder-at-start":  # the chunk's first record of a channel
            ts[np.flatnonzero(ch == ch[i])[0]] = last[ch[i]] - 1
        else:  # two neighbours of one channel, the later one first in time
            j = i - 1 if i else 1
            ch[j] = ch[i]
            ts[max(i, j)] = ts[min(i, j)] - 1
        try:
            timetags._checked_records("", ch, ts, last, 2 * n)
        except FormatError as exc:
            assert kind != "bool-codes"
            with pytest.raises(FormatError) as got:
                fold_timetags([*head, (ch, ts)], GATE)
            assert str(got.value) == str(exc) and got.value.record == exc.record
        else:
            assert kind == "bool-codes"
            counts = fold_timetags([*head, (ch, ts)], GATE, 40)
            assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == ingest_oracle(
                channels, timestamps, 500, 0, 100, 40)

    @pytest.mark.parametrize("case", ["all-a-then-all-b", "first-before-the-other-last"])
    @pytest.mark.parametrize("seed", range(6))
    def test_chunks_sorted_per_channel_only(self, case, seed):
        # out of time order, so only the per-channel order test accepts them
        rng = np.random.default_rng(seed)
        period, offset, width = ORACLE_TIMINGS[seed]
        n_pulses = 60
        a, b = (np.sort(rng.integers(0, math.floor(n_pulses * period), int(rng.integers(5, 80))))
                for _ in range(2))
        b[-1] = math.floor(n_pulses * period)  # past every A record
        if case == "all-a-then-all-b":
            chunks = [(np.repeat(np.array([0, 1], dtype=np.uint8), [a.size, b.size]),
                       np.concatenate([a, b]))]
        else:  # B's records among A's first ones in time order, then A's others
            k = a.size // 2
            first = np.concatenate([a[:k], b])
            order = np.argsort(first, kind="stable")
            codes = np.repeat(np.array([0, 1], dtype=np.uint8), [k, b.size])
            chunks = [(codes[order], first[order]),
                      (np.zeros(a.size - k, dtype=np.uint8), a[k:])]
        counts = fold_timetags(chunks, GateConfig(period, offset, width), n_pulses)
        assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == ingest_oracle(
            *read_all(chunks), period, offset, width, n_pulses)

    @pytest.mark.parametrize("seed", range(0, 60, 6))
    def test_time_ordered_chunks_skip_the_exact_check(self, seed):
        # accepted by the whole-chunk time-order test alone
        channels, timestamps, gate, n_all, expected = self.oracle_case(seed)
        order = np.argsort(timestamps, kind="stable")
        counts = fold_timetags(chunked(channels[order], timestamps[order], 7), gate, n_all)
        assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == expected

    def test_binary_fold_memory_peaks_below_2_mib(self, tmp_path):
        # 1e6 tags in time order over 2e6 pulses, half of them in the gate: the
        # fold holds one 32 768-record chunk, its temporaries and the pulses
        # waiting for the other channel; 1.58 MiB was measured (numpy 2.4)
        rng = np.random.default_rng(7)
        n = 1_000_000
        timestamps = np.sort(rng.integers(0, 2 * n, n) * 500 + rng.integers(0, 200, n))
        channels = rng.integers(0, 2, n).astype(np.uint8)
        write_timetags_binary(tmp_path / "tags.bin", channels, timestamps)
        expected = fold_timetags([(channels, timestamps)], GATE)
        del channels, timestamps
        tracemalloc.start()
        try:
            counts = fold_timetags(iter_timetags_binary(tmp_path / "tags.bin"), GATE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == expected
        assert peak < 2 * 2**20, peak

    def test_three_records_and_unknown_channel(self):
        channels = np.array([0, 1, 0], dtype=np.uint8)
        timestamps = np.array([10, 520, 530], dtype=np.int64)
        counts = fold_timetags([(channels, timestamps)], GATE, 2)
        assert counts == ClickCounts(n_all=2, n_00=0, n_10=1, n_01=0, n_11=1)
        with pytest.raises(FormatError, match="channel"):
            fold_timetags([(np.array([2], dtype=np.uint8), np.array([1]))], GATE, 1)
        with pytest.raises(FormatError, match="channel"):
            fold_timetags([(np.array([0.5, 1.0]), np.array([10, 20]))], GATE, 1)

    @pytest.mark.parametrize("gate", [
        GATE,
        # a 1 ns gate on an odd period: each tag is its gate's first ns, not one past it
        GateConfig(501, 0, 1),
        GateConfig(Fraction(250, 19), Fraction(3, 7), 1),
        GateConfig(12.3, 2.5, 4.1),
    ], ids=("reference", "odd-period-1ns", "ratio", "float"))
    def test_round_trip_through_time_tags(self, gate):
        config = SimConfig(
            source=EmitterWithBackground(),
            params=DetectionParams(eta=0.3, delta=0.2, gamma=0.4, cycles=20_000),
            seed=5,
        )
        click_a, click_b = simulate_click_arrays(config)
        direct = counts_from_click_arrays(click_a, click_b)
        channels, timestamps = records_from_click_arrays(click_a, click_b, gate)
        via_tags = fold_timetags([(channels, timestamps)], gate, 20_000)
        assert via_tags == direct

    def test_tags_land_at_the_gate_centre_and_need_1_ns(self):
        click = np.array([True, False, True, True])
        # centres 50, 1050 and 1550 ns; 501 + 0.5 ns is a tie and goes down
        assert records_from_click_arrays(click, click, GATE)[1].tolist() == [
            50, 50, 1050, 1050, 1550, 1550]
        assert records_from_click_arrays(click, ~click, GateConfig(501, 0, 1))[1].tolist() == [
            0, 501, 1002, 1503]
        with pytest.raises(RangeError, match=re.escape(
                "gate_width_ns must be >= 1 ns, got 9/10")) as exc:
            records_from_click_arrays(click, click, GateConfig(500, 0, 0.9))
        assert exc.value.field == "gate_width_ns"

    def test_round_trip_through_files(self, tmp_path):
        config = SimConfig(
            source=IdealEmitters(2),
            params=DetectionParams(eta=0.5, cycles=5_000),
            seed=6,
        )
        click_a, click_b = simulate_click_arrays(config)
        channels, timestamps = records_from_click_arrays(click_a, click_b, GATE)
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        write_timetags_binary(tmp_path / "t.bin", channels, timestamps)
        expect = counts_from_click_arrays(click_a, click_b)
        for name in ("t.csv", "t.bin"):
            reader = iter_timetags_csv if name.endswith("csv") else iter_timetags_binary
            ch, ts = read_all(reader(tmp_path / name))
            assert fold_timetags([(ch, ts)], GATE, 5_000) == expect

    @pytest.mark.parametrize("click_a,click_b,n_11", [
        ([2, 0, 3], [1, 0, 0], 1),  # 2 & 1 is 0, yet both pulse-0 entries are clicks
        ([0.5, 0.0, 1.0], [1.0, 0.0, 0.25], 2),
        ([True, False, True], [-2, 0, 6], 2),  # 1 & -2 and 1 & 6 are 0
    ], ids=("int", "float", "bool-and-int"))
    def test_click_arrays_are_read_by_truth_value(self, click_a, click_b, n_11):
        click_a, click_b = np.array(click_a), np.array(click_b)
        counts = counts_from_click_arrays(click_a, click_b)
        assert counts.n_11 == n_11
        folded = fold_timetags([records_from_click_arrays(click_a, click_b, GATE)], GATE, 3)
        assert folded == counts

    @pytest.mark.parametrize("click_a,click_b,message", [
        (np.ones(3, bool), np.zeros(1, bool), "must have equal length"),
        (np.ones((2, 3), bool), np.zeros(6, bool), "must be 1-d arrays"),
        (np.ones((2, 3), bool), np.zeros((2, 3), bool), "must be 1-d arrays"),
        (True, False, "must be 1-d arrays"),
    ], ids=("unequal", "2-d", "both-2-d", "scalars"))
    def test_click_arrays_must_be_1d_of_equal_length(self, click_a, click_b, message):
        with pytest.raises(FormatError, match=f"^click_a and click_b {message}$"):
            counts_from_click_arrays(click_a, click_b)
        with pytest.raises(FormatError, match=f"^click_a and click_b {message}$"):
            records_from_click_arrays(click_a, click_b, GATE)


COUNTS = ClickCounts(n_all=1000, n_00=900, n_10=60, n_01=38, n_11=2)
CONFIGS = [
    SimConfig(
        source=IdealEmitters(3),
        params=DetectionParams(eta=0.2, delta=0.1, gamma=0.0, cycles=1000),
        seed=42,
    ),
    SimConfig(
        source=EmitterWithBackground(),
        params=DetectionParams(eta=0.1, delta=0.3, gamma=0.2, cycles=1000),
        seed=7,
        block_size=1 << 10,
    ),
    SimConfig(
        source=Coherent(0.35),
        params=DetectionParams(eta=0.9, cycles=1000),
        seed=2**64 - 1,
    ),
]


class TestCountsBlock:
    @pytest.mark.parametrize("config", CONFIGS, ids=("ideal", "background", "coherent"))
    def test_round_trip(self, tmp_path, config):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, config)
        got_counts, got_config = read_counts_block(path)
        assert got_counts == COUNTS
        assert got_config == config

    def test_integral_float_counts_round_trip(self, tmp_path):
        path = tmp_path / "run.counts"
        counts = ClickCounts(n_all=1000.0, n_00=900.0, n_10=60.0, n_01=38.0, n_11=2.0)
        write_counts_block(path, counts, CONFIGS[0])
        assert "n_all = 1000\n" in path.read_text()
        assert read_counts_block(path) == (COUNTS, CONFIGS[0])

    def test_numpy_typed_config_round_trips(self, tmp_path):
        path = tmp_path / "run.counts"
        config = SimConfig(
            source=Coherent(np.float32(0.35)),
            params=DetectionParams(eta=np.float64(0.1), delta=np.float32(0.3),
                                   gamma=np.float64(0.2), cycles=np.int64(1000)),
            seed=np.int64(7),
        )
        write_counts_block(path, COUNTS, config)
        assert "np." not in path.read_text()
        assert read_counts_block(path) == (COUNTS, config)

    def test_write_is_deterministic(self, tmp_path):
        write_counts_block(tmp_path / "a", COUNTS, CONFIGS[1])
        write_counts_block(tmp_path / "b", COUNTS, CONFIGS[1])
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("edit,kind", [
        (lambda b: b, "block"), (lambda b: b.replace(b"\n", b"\r\n"), "block"),
        (lambda b: b.replace(b"\n", b"\r"), "block"),
        # whitespace the magic line is stripped of, and no line end
        (lambda b: b"\x0b" + b, "block"),
        (lambda b: b.replace(b"v1\n", b"v1\x0c\n", 1), "block"),
        # not ASCII whitespace: no magic line
        (lambda b: b.replace(b"v1\n", b"v1\x1f\n", 1), None),
        # a magic line past the 1 KiB head: its blank rest is read as line 1
        (lambda b: b.replace(b"v1\n", b"v1" + b" " * 2000 + b"\n", 1), "block"),
        (lambda b: b.replace(b"v1\n", b"v1" + b" " * 2000 + b"x\n", 1), FormatError),
        (lambda b: b.replace(b"n_10 = 60", b"n_10 = \xe9"), FormatError),
        (lambda b: b"channel,timestamp_ns\nA,10\n", None), (lambda b: b"\x02" + bytes(17), None),
        (lambda b: b"", None), (lambda b: None, FileNotFoundError),
    ], ids=("lf", "crlf", "cr", "vt-first", "ff-after-magic", "us-after-magic", "long-magic",
            "long-magic-then-text", "non-ascii", "csv", "binary", "empty", "missing"))
    def test_read_if_counts_block_reads_as_both(self, tmp_path, edit, kind):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[1])
        data = edit(path.read_bytes())
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)

        def outcome(read):
            try:
                return read(path)
            except (FormatError, OSError) as exc:
                return type(exc), str(exc)

        # None exactly where the public reader refuses the header, else the same outcome
        want = outcome(read_counts_block)
        if want == (FormatError, f"{path}:1: expected 'photon-gate-counts v1' header"):
            want = None
        assert outcome(kvfile._read_if_counts_block) == want
        if kind == "block":
            assert want == (COUNTS, CONFIGS[1])
        else:
            assert want is None if kind is None else want[0] is kind

    def test_read_if_counts_block_opens_once(self, tmp_path, monkeypatch):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[1])
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(kvfile, "open", counting_open, raising=False)
        assert kvfile._read_if_counts_block(path) == (COUNTS, CONFIGS[1])
        with pytest.raises(FileNotFoundError):
            kvfile._read_if_counts_block(tmp_path / "missing")
        assert opened == [path, tmp_path / "missing"]

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "run.counts"
        path.write_text("n_all = 5\n")
        with pytest.raises(FormatError, match=":1:"):
            read_counts_block(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[0])
        lines = [l for l in path.read_text().splitlines() if not l.startswith("n_11")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="n_11"):
            read_counts_block(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[0])
        n = len(path.read_text().splitlines())
        path.write_text(path.read_text() + "bogus = 1\n")
        with pytest.raises(FormatError, match=f":{n + 1}: unknown key"):
            read_counts_block(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[0])
        path.write_text(path.read_text() + "n_all = 12\n")
        with pytest.raises(FormatError, match="duplicate key"):
            read_counts_block(path)

    def test_bad_value_is_numbered(self, tmp_path):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[0])
        text = path.read_text().replace("n_10 = 60", "n_10 = sixty")
        path.write_text(text)
        with pytest.raises(FormatError, match=":4: n_10 must be int"):
            read_counts_block(path)

    @pytest.mark.parametrize("old,new,message", [
        ("n_10 = 60", "n_10 = -1", ":4: n_10 must be a nonnegative integer, got -1"),
        ("n_10 = 60", "n_10 = 61", ": pattern counts sum to 1001, expected n_all = 1000"),
        ("params.eta = 0.1", "params.eta = 1.0",
         ": channel efficiency (1 + delta) * eta = 1.3 exceeds 1"),
        ("seed = 7", "seed = -7", ":7: seed must be an unsigned 64-bit integer, got -7"),
        # tallies are below 2**63, as pulse indices are: a huge one is echoed short
        ("n_all = 1000", f"n_all = {10**400}", ":2: n_all must be below 2**63, got 1e+400"),
        ("n_11 = 2", f"n_11 = {2**63}", f":6: n_11 must be below 2**63, got {2**63}"),
        ("seed = 7", f"seed = {2**64}", f":7: seed must be below 2**64, got {2**64}"),
        # a vertical tab ends no line, so the value holds it
        ("n_00 = 900", "n_00 = 9\x0b00", ":3: n_00 must be int, got '9\\x0b00'"),
    ], ids=("tally", "tally-sum", "channel-efficiency", "seed", "huge-pulses", "huge-tally",
            "huge-seed", "vt-in-value"))
    def test_out_of_range_value_names_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[1])
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}{message}')}$"):
            read_counts_block(path)


class TestSimConfigFile:
    def test_full_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# one emitter plus background\n"
            "seed = 7\n"
            "block_size = 2048\n"
            "source.kind = emitter_with_background\n"
            "params.eta = 0.1\n"
            "params.delta = 0.3\n"
            "params.gamma = 0.2\n"
            "params.cycles = 1000\n"
        )
        config = read_sim_config(path)
        assert config == SimConfig(
            source=EmitterWithBackground(),
            params=DetectionParams(eta=0.1, delta=0.3, gamma=0.2, cycles=1000),
            seed=7,
            block_size=2048,
        )

    def test_defaults_and_cycles_shorthand(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "seed = 9\n"
            "source.kind = ideal_emitters\n"
            "source.s = 2\n"
            "params.eta = 0.25   # inline comment\n"
            "cycles = 500\n"
        )
        config = read_sim_config(path)
        assert config.source == IdealEmitters(2)
        assert config.params == DetectionParams(eta=0.25, cycles=500)
        assert config.block_size == SimConfig.block_size

    def test_coherent_requires_mu(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "seed = 1\nsource.kind = coherent\nparams.eta = 0.5\ncycles = 10\n"
        )
        with pytest.raises(FormatError, match="source.mu"):
            read_sim_config(path)

    def test_ideal_emitters_default_to_one(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = 1\nsource.kind = ideal_emitters\nparams.eta = 0.5\ncycles = 10\n")
        assert read_sim_config(path).source == IdealEmitters(1)

    def test_field_of_another_kind_is_unknown(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "seed = 1\nsource.kind = ideal_emitters\nsource.mu = 0.5\n"
            "params.eta = 0.5\ncycles = 10\n"
        )
        message = re.escape(f"{path}:3: unknown key 'source.mu'")
        with pytest.raises(FormatError, match=f"^{message}$"):
            read_sim_config(path)

    @pytest.mark.parametrize(
        "source,params,seed,block_size,golden",
        [
            (
                IdealEmitters(3),
                DetectionParams(eta=0.1, delta=0.3, cycles=1000), 7, 4096,
                "seed = 7\nblock_size = 4096\nsource.kind = ideal_emitters\n"
                "source.s = 3\nparams.eta = 0.1\nparams.delta = 0.3\n"
                "params.gamma = 0.0\nparams.cycles = 1000\n",
            ),
            (
                EmitterWithBackground(),
                DetectionParams(eta=0.05, delta=0.1, gamma=0.2, cycles=200), 11, 2048,
                "seed = 11\nblock_size = 2048\nsource.kind = emitter_with_background\n"
                "params.eta = 0.05\nparams.delta = 0.1\n"
                "params.gamma = 0.2\nparams.cycles = 200\n",
            ),
            (
                Coherent(0.10743456501197571),
                DetectionParams(eta=1.0, cycles=10**6), 20260825, 65536,
                "seed = 20260825\nblock_size = 65536\nsource.kind = coherent\n"
                "source.mu = 0.10743456501197571\nparams.eta = 1.0\nparams.delta = 0.0\n"
                "params.gamma = 0.0\nparams.cycles = 1000000\n",
            ),
        ],
        ids=["ideal_emitters", "emitter_with_background", "coherent"],
    )
    def test_counts_block_golden_text(self, tmp_path, source, params, seed, block_size, golden):
        path = tmp_path / "run.counts"
        config = SimConfig(source=source, params=params, seed=seed, block_size=block_size)
        counts = ClickCounts(n_all=10, n_00=6, n_10=2, n_01=1, n_11=1)
        write_counts_block(path, counts, config)
        assert path.read_text() == (
            "photon-gate-counts v1\nn_all = 10\nn_00 = 6\nn_10 = 2\nn_01 = 1\nn_11 = 1\n"
            + golden
        )
        assert read_counts_block(path) == (counts, config)

    def test_unknown_source_kind(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "seed = 1\nsource.kind = thermal\nparams.eta = 0.5\ncycles = 10\n"
        )
        with pytest.raises(FormatError, match="thermal"):
            read_sim_config(path)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("just words", ":2:"),
            ("seed =", "empty key or value"),
            ("params.eta = fast", "must be float"),
        ],
    )
    def test_malformed_lines(self, tmp_path, line, fragment):
        path = tmp_path / "sim.cfg"
        path.write_text(
            f"source.kind = ideal_emitters\n{line}\nseed = 1\ncycles = 10\n"
        )
        with pytest.raises(FormatError, match=fragment):
            read_sim_config(path)

    @pytest.mark.parametrize("values,message", [
        ({"mu": "-1"}, ":3: source.mu must be finite and >= 0, got -1.0"),
        ({"gamma": "-0.5"}, ":5: params.gamma must be finite and >= 0, got -0.5"),
        # the shorthand is named as the file gives it
        ({"cycles": "0"}, ":6: cycles must be a positive integer, got 0"),
        ({"cycles": "x"}, ":6: cycles must be int, got 'x'"),
        ({"cycles": str(2**63)}, f":6: cycles must be below 2**63, got {2**63}"),
        # a form feed ends no line, so the next line is still line 3
        ({"kind": "coherent\f", "mu": "-1"}, ":3: source.mu must be finite and >= 0, got -1.0"),
    ], ids=("source", "params", "cycles-shorthand", "cycles-shorthand-not-int",
            "cycles-shorthand-huge", "form-feed-ended-kind"))
    def test_out_of_range_value_names_its_line(self, tmp_path, values, message):
        path = tmp_path / "sim.cfg"
        values = {"kind": "coherent", "mu": "0.5", "gamma": "0.1", "cycles": "10", **values}
        path.write_text("seed = 1\nsource.kind = {kind}\nsource.mu = {mu}\nparams.eta = 0.5\n"
                        "params.gamma = {gamma}\ncycles = {cycles}\n".format(**values))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}{message}')}$"):
            read_sim_config(path)

    def test_non_ascii_comment_is_numbered(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = 1\nsource.kind = coherent  # mean µ\nsource.mu = 0.5\n"
                        "params.eta = 0.5\ncycles = 10\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: line is not ASCII")):
            read_sim_config(path)
