"""The findings bus: a view of a detector bank's anomalies — ordering,
v1 event rendering, byte-determinism."""

from __future__ import annotations

import math

import pytest

from repro.observ.artifact import (
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.observ.bus import FINDINGS_SCHEMA, FindingsBus
from repro.observ.detect import Anomaly


def anomaly(ts_ms: float, series: str, severity: float = 0.5,
            kind: str = "band-high") -> Anomaly:
    return Anomaly(series=series, detector="reference-band", kind=kind,
                   ts_ms=ts_ms, value=9.0, baseline=4.0, deviation=5.0,
                   severity=severity)


def _bus_of_three() -> FindingsBus:
    return FindingsBus([anomaly(5.0, "late", severity=0.9),
                        anomaly(1.0, "early", severity=0.2),
                        anomaly(1.0, "tie", severity=0.5)])


class TestPublish:
    def test_events_sorted_by_ts_then_seq(self):
        bus = _bus_of_three()
        assert [a.series for a in bus.events()] == ["early", "tie", "late"]
        assert [(e["seq"], e["title"]) for e in bus.to_json()["events"]] \
            == [(0, "early band-high"), (1, "tie band-high"),
                (2, "late band-high")]

    def test_ranked_by_severity(self):
        bus = _bus_of_three()
        assert [a.series for a in bus.ranked()] == ["late", "tie", "early"]
        assert [a.series for a in bus.ranked(limit=1)] == ["late"]

    def test_nonfinite_ts_rejected(self, tmp_path):
        bus = FindingsBus([anomaly(math.nan, "x")])
        with pytest.raises(ValueError, match="ts_ms"):
            write_artifact(tmp_path / "f.json", bus.to_json())
        assert not (tmp_path / "f.json").exists()


class TestAdapters:
    def test_anomaly(self):
        bus = FindingsBus([Anomaly(
            series="serve.p95_ms", detector="reference-band",
            kind="band-high", ts_ms=3.5, value=9.0, baseline=4.0,
            deviation=5.0, severity=0.8)])
        (event,) = bus.to_json()["events"]
        assert event["seq"] == 0
        assert event["source"] == "detect"
        assert event["kind"] == "band-high"
        assert event["ts_ms"] == 3.5
        assert event["severity"] == 0.8
        assert event["title"] == "serve.p95_ms band-high"
        assert event["detail"] == "value 9 vs baseline 4 (reference-band)"
        assert event["data"]["schema"] == "repro.anomaly/v1"
        assert event["data"]["series"] == "serve.p95_ms"


class TestSerialization:
    def test_write_load_roundtrip(self, tmp_path):
        path = write_artifact(tmp_path / "f.json", _bus_of_three().to_json())
        doc = load_artifact(path, FINDINGS_SCHEMA)
        assert doc["schema"] == FINDINGS_SCHEMA
        assert [e["data"]["series"] for e in doc["events"]] == [
            "early", "tie", "late"]

    def test_export_is_byte_deterministic(self, tmp_path):
        a = write_artifact(tmp_path / "a.json", _bus_of_three().to_json())
        b = write_artifact(tmp_path / "b.json", _bus_of_three().to_json())
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mangle", [
        lambda d: d.__setitem__("schema", "nope/v0"),
        lambda d: d.pop("events"),
        lambda d: d["events"][0].pop("title"),
        lambda d: d["events"][0].__setitem__("source", "martian"),
        lambda d: d["events"][0].__setitem__("severity", 1.5),
        lambda d: d["events"][0].__setitem__("ts_ms", math.inf),
        lambda d: d["events"][1].__setitem__(
            "seq", d["events"][0]["seq"]),
        lambda d: d["events"].reverse(),
    ])
    def test_validate_rejects_malformed(self, mangle):
        doc = _bus_of_three().to_json()
        mangle(doc)
        with pytest.raises(ValueError):
            validate_artifact(doc, FINDINGS_SCHEMA)
