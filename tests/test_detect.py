"""Reference-band detection: the calibration and determinism contracts.

The chaos harness and the ``monitor-smoke`` CI job rest on these
guarantees, proved here (partly by hypothesis fuzzing):

* a band built from a clean stream never fires on a replay of that same
  stream — however long the stream, even past the ring buffer;
* an excursion fires exactly once and the band re-arms on re-entry;
* the bank stamps, attributes and counts every firing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observ.bus import FindingsBus
from repro.observ.detect import (
    DetectorBank,
    ReferenceBandDetector,
    reference_band,
)
from repro.observ.registry import MetricsRegistry, set_registry
from repro.observ.timeseries import Board

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def feed(detector, values, start_ts=0.0):
    """Run a stream through a detector; returns the anomaly timeline."""
    out = []
    for i, value in enumerate(values):
        anomaly = detector.observe(start_ts + float(i), value)
        if anomaly is not None:
            out.append(anomaly)
    return out


def calibrated(series: str, reference: list[float],
               **kwargs) -> DetectorBank:
    """A bank whose band for ``series`` comes from a clean stream."""
    clean = DetectorBank()
    for i, value in enumerate(reference):
        clean.observe(series, float(i), value)
    bank = DetectorBank(**kwargs)
    bank.calibrate(clean)
    return bank


class TestConstantStreamsNeverFire:
    @settings(max_examples=40, deadline=None)
    @given(value=finite, length=st.integers(min_value=1, max_value=100))
    def test_reference_band_on_own_stream(self, value, length):
        stream = [value] * length
        lo, hi = reference_band(stream)
        assert feed(ReferenceBandDetector(lo, hi), stream) == []


class TestReferenceBand:
    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(finite, min_size=1, max_size=100))
    def test_clean_replay_never_fires(self, stream):
        lo, hi = reference_band(stream)
        assert feed(ReferenceBandDetector(lo, hi), stream) == []

    def test_excursion_fires_once_and_rearms(self):
        det = ReferenceBandDetector(0.0, 1.0)
        timeline = feed(det, [0.5, 2.0, 3.0, 0.5, -1.0])
        assert [(a.kind, a.ts_ms) for a in timeline] == [
            ("band-high", 1.0), ("band-low", 4.0)]

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            ReferenceBandDetector(1.0, 0.0)

    def test_empty_reference_still_yields_slack(self):
        lo, hi = reference_band([])
        assert lo < 0.0 < hi


class TestDetectorBank:
    def test_routes_by_series_and_stamps_name(self):
        bank = calibrated("lat", [0.5])
        bank.observe("lat", 0.0, 5.0)
        bank.observe("other", 1.0, 5.0)  # no band calibrated
        (anomaly,) = bank.anomalies
        assert anomaly.series == "lat"
        assert anomaly.detector == "reference-band"

    def test_attributor_merged_and_listener_notified(self):
        # The findings bus is the bank's one listener: a view of its list.
        bank = calibrated("x", [0.0], attributor=lambda a: {"device": 2})
        bus = FindingsBus(bank.anomalies)
        bank.observe("x", 0.0, 1.0)
        assert bus.events() == bank.anomalies
        assert bus.events()[0].attribution["device"] == 2

    def test_firing_bumps_registry_counter(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            bank = calibrated("x", [0.0])
            bank.observe("x", 0.0, 1.0)
        finally:
            set_registry(previous)
        (row,) = registry.collect()
        assert row["name"] == "repro.detect.anomalies"
        assert row["labels"] == {"kind": "band-high", "series": "x"}
        assert row["value"] == 1.0

    def test_calibrate_attaches_reference_bands(self):
        reference = Board(cadence_ms=1.0)
        reference.add("x", lambda ts: 5.0)
        clean = DetectorBank()
        clean.bind(reference)
        reference.advance(8.0)
        bank = DetectorBank()
        bank.calibrate(clean)
        bank.observe("x", 0.0, 5.0)    # inside the band
        bank.observe("x", 1.0, 500.0)  # far outside
        (anomaly,) = bank.anomalies
        assert anomaly.detector == "reference-band"

    def test_calibration_covers_samples_the_ring_evicted(self):
        # The reference's lowest sample leaves a 4-slot ring buffer long
        # before the run ends; its band must still contain it.
        stream = [0.0] + [100.0] * 9
        reference = Board(cadence_ms=1.0, capacity=4)
        reference.add("x", lambda ts: stream[int(ts) - 1])
        clean = DetectorBank()
        clean.bind(reference)
        reference.advance(float(len(stream)))
        assert min(reference.series("x").values()) == 100.0
        bank = DetectorBank()
        bank.calibrate(clean)
        for i, value in enumerate(stream):
            bank.observe("x", float(i), value)
        assert bank.anomalies == []

    def test_unsampled_series_gets_the_empty_band(self):
        reference = Board(cadence_ms=1.0)
        reference.add("x", lambda ts: 5.0)
        clean = DetectorBank()
        clean.bind(reference)  # bound, but never ticked
        bank = DetectorBank()
        bank.calibrate(clean)
        bank.observe("x", 0.0, 0.0)
        bank.observe("x", 1.0, 1.0)
        (anomaly,) = bank.anomalies
        assert anomaly.kind == "band-high"
        assert anomaly.baseline == reference_band([])[1]
