"""Streaming time-series: Series ring buffers, Board sampling, export."""

from __future__ import annotations

import math

import pytest

from repro.observ.artifact import (
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.observ.timeseries import (
    SERIES_SCHEMA,
    Board,
    Series,
    WindowStats,
)


class TestSeries:
    def test_append_and_read_back(self):
        s = Series("x")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert s.samples() == [(1.0, 10.0), (2.0, 20.0)]
        assert s.last == 20.0
        assert s.last_ts == 2.0
        assert len(s) == 2

    def test_timestamps_must_strictly_increase(self):
        s = Series("x")
        s.append(1.0, 0.0)
        with pytest.raises(ValueError, match="not after"):
            s.append(1.0, 1.0)
        with pytest.raises(ValueError, match="not after"):
            s.append(0.5, 1.0)

    def test_ring_buffer_keeps_newest(self):
        s = Series("x", capacity=3)
        for i in range(10):
            s.append(float(i), float(i * i))
        assert s.timestamps() == [7.0, 8.0, 9.0]
        assert s.values() == [49.0, 64.0, 81.0]

    def test_nonfinite_values_stored_as_zero(self):
        s = Series("x")
        s.append(1.0, math.nan)
        s.append(2.0, math.inf)
        assert s.values() == [0.0, 0.0]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Series("x", capacity=0)

    def test_window_stats(self):
        s = Series("x")
        for i in range(1, 11):
            s.append(float(i), float(i))
        w = s.window(3.0, now_ms=10.0)  # samples with 7 < ts <= 10
        assert w == WindowStats(count=3, mean=9.0, minimum=8.0,
                                maximum=10.0, last=10.0)

    def test_window_on_empty_series(self):
        assert Series("x").window(5.0) == WindowStats.empty()

    def test_window_ignores_future_samples(self):
        s = Series("x")
        s.append(1.0, 1.0)
        s.append(5.0, 5.0)
        w = s.window(10.0, now_ms=2.0)
        assert w.count == 1 and w.last == 1.0


class TestBoard:
    def test_advance_emits_crossed_ticks(self):
        board = Board(cadence_ms=1.0)
        board.add("t", lambda ts: ts)
        assert board.advance(0.5) == 0
        assert board.advance(3.2) == 3
        assert board.ticks == 3
        assert board.series("t").samples() == [(1.0, 1.0), (2.0, 2.0),
                                               (3.0, 3.0)]

    def test_start_offset(self):
        board = Board(cadence_ms=1.0, start_ms=10.0)
        board.add("t", lambda ts: ts)
        board.advance(12.0)
        assert board.series("t").timestamps() == [11.0, 12.0]

    def test_listener_sees_probe_registration_order(self):
        board = Board(cadence_ms=1.0)
        board.add("a", lambda ts: 1.0)
        board.add("b", lambda ts: 2.0)
        seen: list[tuple[str, float, float]] = []
        board.subscribe(lambda name, ts, value: seen.append(
            (name, ts, value)))
        board.advance(2.0)
        assert seen == [("a", 1.0, 1.0), ("b", 1.0, 2.0),
                        ("a", 2.0, 1.0), ("b", 2.0, 2.0)]

    def test_duplicate_series_rejected(self):
        board = Board()
        board.add("a", lambda ts: 0.0)
        with pytest.raises(ValueError, match="duplicate"):
            board.add("a", lambda ts: 0.0)

    def test_cadence_validation(self):
        with pytest.raises(ValueError):
            Board(cadence_ms=0.0)

    def test_nonfinite_probe_reading_becomes_zero(self):
        board = Board(cadence_ms=1.0)
        board.add("bad", lambda ts: math.nan)
        board.advance(1.0)
        assert board.series("bad").values() == [0.0]

    def test_contains_and_names(self):
        board = Board()
        board.add("a", lambda ts: 0.0)
        assert "a" in board and "b" not in board
        assert board.names() == ["a"]


class TestSerialization:
    def _board(self) -> Board:
        board = Board(cadence_ms=0.5)
        board.add("qps", lambda ts: 100.0 + ts, unit="1/s")
        board.add("depth", lambda ts: 3.0)
        board.advance(5.0)
        return board

    def test_write_load_roundtrip(self, tmp_path):
        path = write_artifact(tmp_path / "s.json", self._board().to_json())
        doc = load_artifact(path, SERIES_SCHEMA)
        assert doc["schema"] == SERIES_SCHEMA
        assert doc["ticks"] == 10
        assert doc["series"]["qps"]["unit"] == "1/s"
        assert len(doc["series"]["depth"]["values"]) == 10

    def test_export_is_byte_deterministic(self, tmp_path):
        a = write_artifact(tmp_path / "a.json", self._board().to_json())
        b = write_artifact(tmp_path / "b.json", self._board().to_json())
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mangle", [
        lambda d: d.pop("schema"),
        lambda d: d.__setitem__("cadence_ms", 0.0),
        lambda d: d.__setitem__("series", []),
        lambda d: d["series"]["qps"].pop("values"),
        lambda d: d["series"]["qps"]["values"].pop(),
        lambda d: d["series"]["qps"]["ts_ms"].reverse(),
        lambda d: d["series"]["qps"]["values"].__setitem__(0, "oops"),
    ])
    def test_validate_rejects_malformed(self, mangle):
        doc = self._board().to_json()
        mangle(doc)
        with pytest.raises(ValueError):
            validate_artifact(doc, SERIES_SCHEMA)
