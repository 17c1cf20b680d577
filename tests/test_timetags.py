"""Time-tag formats, pulse-grid gating, and key-value persistence."""

import math
import re

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
    GateError,
    IdealEmitters,
    SimConfig,
    counts_from_click_arrays,
    ingest_arrays,
    is_counts_block,
    read_counts_block,
    read_sim_config,
    read_timetags_binary,
    read_timetags_csv,
    records_from_click_arrays,
    simulate_click_arrays,
    write_counts_block,
    write_timetags_binary,
    write_timetags_csv,
)
from photon_gate import timetags
from photon_gate.timetags import _parse_csv_line, fold_timetags, iter_timetags_csv

GATE = GateConfig(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=100)


def chunked(channels, timestamps, size):
    """(channels, timestamps) in slices of size records; None is one slice."""
    size = size or max(len(timestamps), 1)
    return [(channels[i:i + size], timestamps[i:i + size])
            for i in range(0, len(timestamps), size)]


class TestGateConfig:
    def test_default_dead_time_is_midpoint(self):
        assert GATE.dead_time_ns == 300.0
        assert GateConfig(80, 10, 20).dead_time_ns == 50.0

    def test_explicit_dead_time(self):
        assert GateConfig(500, 0, 100, dead_time_ns=499).dead_time_ns == 499

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pulse_period_ns=0, gate_offset_ns=0, gate_width_ns=1),
            dict(pulse_period_ns=-5, gate_offset_ns=0, gate_width_ns=1),
            dict(pulse_period_ns=500, gate_offset_ns=-1, gate_width_ns=100),
            dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=0),
            dict(pulse_period_ns=500, gate_offset_ns=450, gate_width_ns=100),
            dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=100,
                 dead_time_ns=100),
            dict(pulse_period_ns=500, gate_offset_ns=0, gate_width_ns=100,
                 dead_time_ns=500),
            dict(pulse_period_ns=math.inf, gate_offset_ns=0, gate_width_ns=1),
            dict(pulse_period_ns=500, gate_offset_ns=math.nan, gate_width_ns=1),
            dict(pulse_period_ns="500", gate_offset_ns=0, gate_width_ns=100),
        ],
    )
    def test_rejects_bad_timing(self, kwargs):
        with pytest.raises(GateError):
            GateConfig(**kwargs)


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tags.csv"
        channels = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
        timestamps = np.array([0, 520, 530, 1599, 2**63 - 1], dtype=np.int64)
        write_timetags_csv(path, channels, timestamps)
        assert path.read_bytes() == (
            b"channel,timestamp_ns\nA,0\nB,520\nA,530\nB,1599\nB,9223372036854775807\n"
        )
        got_ch, got_ts = read_timetags_csv(path)
        assert np.array_equal(got_ch, channels)
        assert np.array_equal(got_ts, timestamps)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("channel;timestamp_ns\nA,10\n")
        with pytest.raises(FormatError, match=":1:"):
            read_timetags_csv(path)

    @pytest.mark.parametrize(
        "bad_line",
        ["C,10", "A,ten", "A,-4", "A,10,extra", "A", "A,1\u00e9",
         "B,99999999999999999999", f"A,{2**63}"],
    )
    def test_bad_data_line_is_numbered(self, tmp_path, bad_line):
        path = tmp_path / "tags.csv"
        path.write_text(f"channel,timestamp_ns\nA,10\n{bad_line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":3:"):
            read_timetags_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("channel,timestamp_ns\n\nA,10\n\n")
        got_ch, got_ts = read_timetags_csv(path)
        assert got_ch.tolist() == [0] and got_ts.tolist() == [10]

    def test_accepted_forms(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(
            b"channel,timestamp_ns\r\n A , 7 \nB,+8\r\nA,1_0\rB,0009\n"
            b"\tA,999999999999999999\nB,9223372036854775807"
        )
        got_ch, got_ts = read_timetags_csv(path)
        assert got_ch.tolist() == [0, 1, 0, 1, 0, 1]
        assert got_ts.tolist() == [7, 8, 10, 9, 10**18 - 1, 2**63 - 1]

    def test_bad_line_after_many_good_ones(self, tmp_path):
        path = tmp_path / "tags.csv"
        write_timetags_csv(path, np.zeros(10_000, dtype=np.uint8),
                           np.arange(10_000, dtype=np.int64))
        with open(path, "a") as fh:
            fh.write("B,1x\n")
        with pytest.raises(FormatError, match=":10002: timestamp must be an integer"):
            read_timetags_csv(path)


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


BAD_CSV_LINES = ["C,5\n", "A,5,6\n", "A,-3\n", "B,1.5\n", f"A,{2**63 + 7}\n", "B\n"]


class TestCsvReaderEquivalence:
    """read_timetags_csv must equal _parse_csv_line applied to every line
    of a text-mode (universal newlines) read of the same file, records
    and errors alike."""

    @staticmethod
    def line_by_line(path):
        with open(path, encoding="ascii") as fh:
            next(fh)
            records = [_parse_csv_line(path, lineno, raw.encode("ascii"))
                       for lineno, raw in enumerate(fh, start=2)]
        records = [r for r in records if r is not None]
        return (np.array([c for c, _ in records], dtype=np.uint8),
                np.array([t for _, t in records], dtype=np.int64))

    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_forms(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        lines = [_csv_line(rng) for _ in range(rng.integers(0, 300))]
        if lines and rng.random() < 0.25:
            lines.insert(rng.integers(len(lines)), BAD_CSV_LINES[rng.integers(len(BAD_CSV_LINES))])
        text = "channel,timestamp_ns\n" + "".join(lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")
        path = tmp_path / "tags.csv"
        path.write_bytes(text.encode("ascii"))
        try:
            want_ch, want_ts = self.line_by_line(path)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read_timetags_csv(path)
            assert str(got.value) == str(exc)
            return
        got_ch, got_ts = read_timetags_csv(path)
        assert got_ch.dtype == np.uint8 and got_ts.dtype == np.int64
        assert np.array_equal(got_ch, want_ch)
        assert np.array_equal(got_ts, want_ts)

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 5, 17, 64])
    @pytest.mark.parametrize("seed", range(0, 40, 3))
    def test_mixed_forms_in_small_reads(self, tmp_path, monkeypatch, read_bytes, seed):
        # chunk edges at every position: the same records and errors as one read
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        self.test_mixed_forms(tmp_path, seed)


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
            read_timetags_csv(path)
        path.write_bytes(b"channel,timestamp_ns\r\nA,10\r\nB,20\r\n")
        ch, ts = read_timetags_csv(path)
        assert ch.tolist() == [0, 1] and ts.tolist() == [10, 20]

    @pytest.mark.parametrize("read_bytes", [4, 7, 8, 1 << 20])
    def test_last_line_without_newline(self, tmp_path, monkeypatch, read_bytes):
        path = tmp_path / "tags.csv"
        path.write_bytes(b"channel,timestamp_ns\nA,10\nB,2000")
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", read_bytes)
        ch, ts = read_timetags_csv(path)
        assert ch.tolist() == [0, 1] and ts.tolist() == [10, 2000]

    @pytest.mark.parametrize("text", ["", "channel,timestamp_n", "channel,count\nA,1\n"])
    def test_header_error_in_small_reads(self, tmp_path, monkeypatch, text):
        path = tmp_path / "tags.csv"
        path.write_text(text)
        monkeypatch.setattr(timetags, "_CSV_CHUNK_BYTES", 3)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:1: expected header"):
            read_timetags_csv(path)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tags.bin"
        channels = np.array([0, 1, 1, 0], dtype=np.uint8)
        timestamps = np.array([0, 5, 17, 2**40], dtype=np.int64)
        write_timetags_binary(path, channels, timestamps)
        got_ch, got_ts = read_timetags_binary(path)
        assert np.array_equal(got_ch, channels)
        assert np.array_equal(got_ts, timestamps)

    def test_matches_csv_content(self, tmp_path):
        channels = np.array([0, 1], dtype=np.uint8)
        timestamps = np.array([12, 513], dtype=np.int64)
        write_timetags_csv(tmp_path / "t.csv", channels, timestamps)
        write_timetags_binary(tmp_path / "t.bin", channels, timestamps)
        csv = read_timetags_csv(tmp_path / "t.csv")
        binary = read_timetags_binary(tmp_path / "t.bin")
        assert np.array_equal(csv[0], binary[0])
        assert np.array_equal(csv[1], binary[1])

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tags.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError, match="truncated"):
            read_timetags_binary(path)

    def test_count_body_mismatch(self, tmp_path):
        path = tmp_path / "tags.bin"
        header = np.uint64(2).tobytes()
        one_record = b"A" + np.uint64(10).tobytes()
        path.write_bytes(header + one_record)
        with pytest.raises(FormatError, match="promises 2 records"):
            read_timetags_binary(path)

    def test_bad_channel_byte(self, tmp_path):
        path = tmp_path / "tags.bin"
        header = np.uint64(2).tobytes()
        body = b"A" + np.uint64(10).tobytes() + b"C" + np.uint64(20).tobytes()
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match="record 1"):
            read_timetags_binary(path)

    def test_bad_channel_byte_in_a_later_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.bin"
        codes = np.zeros(12, dtype=np.uint8)
        write_timetags_binary(path, codes, np.arange(12))
        data = bytearray(path.read_bytes())
        data[8 + 9 * 9] = ord("x")  # record 9, the second of the third chunk
        path.write_bytes(bytes(data))
        monkeypatch.setattr(timetags, "_CHUNK_TAGS", 4)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: record 9: channel byte np.uint8(120) not A/B")):
            read_timetags_binary(path)

    def test_chunks_concatenate_to_the_whole_file(self, tmp_path, monkeypatch):
        path = tmp_path / "tags.bin"
        rng = np.random.default_rng(3)
        channels = rng.integers(0, 2, 11).astype(np.uint8)
        timestamps = np.sort(rng.integers(0, 2**62, 11))
        write_timetags_binary(path, channels, timestamps)
        monkeypatch.setattr(timetags, "_CHUNK_TAGS", 4)
        assert [c.size for c, _ in timetags.iter_timetags_binary(path)] == [4, 4, 3]
        got_ch, got_ts = read_timetags_binary(path)
        assert got_ch.dtype == np.uint8 and got_ts.dtype == np.int64
        assert np.array_equal(got_ch, channels) and np.array_equal(got_ts, timestamps)


class TestIngest:
    def test_hand_built_stream(self):
        # pulse 0: A only; pulse 1: both; pulse 2: out-of-gate record only;
        # pulse 3: B only; pulse 4: nothing.
        channels = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        timestamps = np.array([10, 520, 530, 1100, 1599], dtype=np.int64)
        counts = ingest_arrays(channels, timestamps, GATE, n_pulses=5)
        assert counts == ClickCounts(n_all=5, n_00=2, n_10=1, n_01=1, n_11=1)

    def test_saturation_collapses_repeats(self):
        channels = np.array([0, 0, 0], dtype=np.uint8)
        timestamps = np.array([10, 20, 20], dtype=np.int64)
        counts = ingest_arrays(channels, timestamps, GATE, n_pulses=1)
        assert counts == ClickCounts(n_all=1, n_00=0, n_10=1, n_01=0, n_11=0)

    def test_gate_window_is_half_open(self):
        gate = GateConfig(500, 50, 100)
        channels = np.array([0, 0, 0, 0], dtype=np.uint8)
        timestamps = np.array([49, 50, 149, 150], dtype=np.int64)
        counts = ingest_arrays(channels, timestamps, gate, n_pulses=1)
        assert counts.n_10 == 1  # 50 and 149 land in pulse 0's gate, once

    def test_records_beyond_window_dropped(self):
        channels = np.array([0, 0], dtype=np.uint8)
        timestamps = np.array([10, 10 + 7 * 500], dtype=np.int64)
        counts = ingest_arrays(channels, timestamps, GATE, n_pulses=5)
        assert counts == ClickCounts(n_all=5, n_00=4, n_10=1, n_01=0, n_11=0)

    def test_shift_by_whole_pulses(self):
        channels = np.array([0, 1, 0, 1], dtype=np.uint8)
        timestamps = np.array([10, 520, 530, 1599], dtype=np.int64)
        base = ingest_arrays(channels, timestamps, GATE, n_pulses=4)
        k = 3
        shifted = ingest_arrays(
            channels, timestamps + k * 500, GATE, n_pulses=4 + k
        )
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
        counts = ingest_arrays(channels, timestamps, gate, n_pulses=k + 1)
        assert counts == ClickCounts(n_all=k + 1, n_00=k, n_10=0, n_01=1, n_11=0)

    def test_unsorted_channel_rejected(self):
        channels = np.array([0, 0], dtype=np.uint8)
        timestamps = np.array([600, 10], dtype=np.int64)
        with pytest.raises(FormatError, match="not sorted"):
            ingest_arrays(channels, timestamps, GATE, n_pulses=2)

    def test_interleaved_channels_may_cross(self):
        # only the per-channel order matters
        channels = np.array([0, 1, 0], dtype=np.uint8)
        timestamps = np.array([10, 5, 520], dtype=np.int64)
        counts = ingest_arrays(channels, timestamps, GATE, n_pulses=2)
        assert counts == ClickCounts(n_all=2, n_00=0, n_10=1, n_01=0, n_11=1)

    def test_validation_errors(self):
        ch = np.array([0], dtype=np.uint8)
        ts = np.array([10], dtype=np.int64)
        with pytest.raises(FormatError):
            ingest_arrays(ch, ts, GATE, n_pulses=0)
        with pytest.raises(FormatError):
            ingest_arrays(ch, np.array([10, 20]), GATE, n_pulses=1)
        with pytest.raises(FormatError):
            ingest_arrays(ch, np.array([-1]), GATE, n_pulses=1)

    @staticmethod
    def oracle_case(seed):
        """A seeded random stream, its gate and pulse count, and the
        per-tag oracle's (n_00, n_10, n_01, n_11)."""
        rng = np.random.default_rng(seed)
        # int and float integral periods, then dyadic ones that float64
        # folds exactly at these magnitudes
        period, offset, width = [(500, 0, 100), (500.0, 20.0, 100.0), (80, 10, 20),
                                 (12.5, 2.5, 4.25), (333.75, 100.5, 60.0)][seed % 5]
        gate = GateConfig(period, offset, width)
        n_pulses = int(rng.integers(1, 40))
        base = 0
        if float(period).is_integer() and seed % 2:
            base = 1_760_000_000_000_000_000 // int(period)  # Unix epoch in ns
        streams = []
        for _ in range(2):
            n = 0 if rng.random() < 0.15 else int(rng.integers(1, 120))
            # few distinct pulses, so several tags share one; some beyond n_pulses
            pulse = rng.integers(0, n_pulses + 3, n)
            position = rng.integers(0, math.ceil(period), n)
            streams.append(np.sort(base * int(period) + np.floor(pulse * period).astype(np.int64)
                                   + position))
        # interleave the channels in a random order that keeps each sorted
        channels = rng.permutation(np.repeat(np.array([0, 1], dtype=np.uint8),
                                             [streams[0].size, streams[1].size]))
        timestamps = np.empty(channels.size, dtype=np.int64)
        for code in (0, 1):
            timestamps[channels == code] = streams[code]
        n_all = base + n_pulses
        expected = ingest_oracle(channels, timestamps, period, offset, width, n_all)
        return channels, timestamps, gate, n_all, expected

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_tag_oracle(self, seed):
        channels, timestamps, gate, n_all, expected = self.oracle_case(seed)
        counts = ingest_arrays(channels, timestamps, gate, n_pulses=n_all)
        assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == expected

    @pytest.mark.parametrize("size", [1, 7, 4096, None], ids=("1", "7", "4096", "whole"))
    @pytest.mark.parametrize("seed", range(60))
    def test_fold_matches_per_tag_oracle_at_any_chunk_size(self, seed, size):
        channels, timestamps, gate, n_all, expected = self.oracle_case(seed)
        counts = fold_timetags(chunked(channels, timestamps, size), gate, n_all)
        assert (counts.n_all, counts.n_00, counts.n_10, counts.n_01, counts.n_11) == (
            n_all, *expected)

    @pytest.mark.parametrize("seed", range(0, 60, 7))
    def test_pulse_count_inferred_from_last_tag(self, seed):
        channels, timestamps, gate, _, _ = self.oracle_case(seed)
        if not timestamps.size:
            assert fold_timetags(chunked(channels, timestamps, 7), gate).n_all == 0
            return
        n_all = int(gate.fold(timestamps.max())[0]) + 1
        assert fold_timetags(chunked(channels, timestamps, 7), gate) == ingest_arrays(
            channels, timestamps, gate, n_pulses=n_all)

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

    def test_unsorted_across_a_chunk_edge_rejected(self):
        channels = np.array([0, 1, 0, 1, 0, 0], dtype=np.uint8)
        timestamps = np.array([10, 20, 600, 700, 599, 900], dtype=np.int64)
        # each chunk is sorted; A goes from 600 back to 599 across the edge
        with pytest.raises(FormatError, match="^channel A timestamps are not sorted$"):
            fold_timetags(chunked(channels, timestamps, 4), GATE, 3)

    def test_three_records_and_unknown_channel(self):
        channels = np.array([0, 1, 0], dtype=np.uint8)
        timestamps = np.array([10, 520, 530], dtype=np.int64)
        counts = ingest_arrays(channels, timestamps, GATE, n_pulses=2)
        assert counts == ClickCounts(n_all=2, n_00=0, n_10=1, n_01=0, n_11=1)
        with pytest.raises(FormatError, match="channel"):
            ingest_arrays(np.array([2], dtype=np.uint8), np.array([1]), GATE, n_pulses=1)
        with pytest.raises(FormatError, match="channel"):
            ingest_arrays(np.array([0.5, 1.0]), np.array([10, 20]), GATE, n_pulses=1)

    def test_round_trip_through_time_tags(self):
        config = SimConfig(
            source=EmitterWithBackground(),
            params=DetectionParams(eta=0.3, delta=0.2, gamma=0.4, cycles=20_000),
            seed=5,
        )
        click_a, click_b = simulate_click_arrays(config)
        direct = counts_from_click_arrays(click_a, click_b)
        channels, timestamps = records_from_click_arrays(click_a, click_b, GATE)
        via_tags = ingest_arrays(channels, timestamps, GATE, n_pulses=20_000)
        assert via_tags == direct

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
            reader = read_timetags_csv if name.endswith("csv") else read_timetags_binary
            ch, ts = reader(tmp_path / name)
            assert ingest_arrays(ch, ts, GATE, n_pulses=5_000) == expect


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

    def test_write_is_deterministic(self, tmp_path):
        write_counts_block(tmp_path / "a", COUNTS, CONFIGS[1])
        write_counts_block(tmp_path / "b", COUNTS, CONFIGS[1])
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_is_counts_block(self, tmp_path):
        path = tmp_path / "run.counts"
        write_counts_block(path, COUNTS, CONFIGS[0])
        assert is_counts_block(path)
        other = tmp_path / "tags.csv"
        write_timetags_csv(other, np.array([0]), np.array([10]))
        assert not is_counts_block(other)
        assert not is_counts_block(tmp_path / "missing")

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
