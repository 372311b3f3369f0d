"""Live serve-loop monitoring: sampling, calibration, chaos anomalies.

The acceptance contract: a fault-free run monitored against its clean
twin yields **zero** anomalies, a straggler profile yields a
deterministic non-empty timeline, and identical runs export identical
bytes.  :class:`TestMonitorVerb` is the ``monitor-smoke`` CI job's
artifact contract.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.faults.harness import run_chaos_matrix
from repro.faults.plan import profile
from repro.graph import rmat_graph
from repro.observ.artifact import load_artifact
from repro.observ.bus import FINDINGS_SCHEMA
from repro.observ.events import to_chrome_trace, validate_trace
from repro.observ.monitor import (
    LiveMonitor,
    MonitorConfig,
    render_dashboard,
    render_html,
)
from repro.observ.snapshot import SNAPSHOT_SCHEMA
from repro.observ.timeseries import SERIES_SCHEMA
from repro.observ.tracer import Tracer, set_tracer
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import TraceConfig, replay, synthetic_trace


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, 8, seed=3)


@pytest.fixture(scope="module")
def trace(graph):
    return synthetic_trace(graph, TraceConfig(num_queries=200,
                                              rate_per_ms=64.0, seed=5))


CONFIG = ServeConfig(num_gpus=4, timeout_ms=2.0)


def monitored_run(graph, trace, *, faults="none",
                  reference: LiveMonitor | None = None,
                  monitor_config: MonitorConfig | None = None):
    monitor_config = monitor_config or MonitorConfig.for_trace(trace)
    monitor = LiveMonitor(monitor_config)
    if reference is not None:
        monitor.calibrate(reference)
    engine = ServeEngine(graph, CONFIG,
                         fault_plan=profile(faults, seed=CONFIG.fault_seed),
                         monitor=monitor)
    replay(engine, trace)
    return monitor


class TestMonitorConfig:
    def test_validation(self):
        for cadence in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                MonitorConfig(cadence_ms=cadence)
        with pytest.raises(ValueError):
            MonitorConfig.for_span(1.0, samples=0)

    def test_window_spans_sixteen_ticks(self):
        assert MonitorConfig(cadence_ms=0.25).window_ms == 4.0

    def test_for_span_scales_cadence(self):
        config = MonitorConfig.for_span(10.0, samples=100)
        assert config.cadence_ms == pytest.approx(0.1)
        assert config.window_ms == pytest.approx(1.6)
        with pytest.raises(ValueError):
            MonitorConfig.for_span(0.0)

    def test_for_trace_covers_arrival_span(self, trace):
        config = MonitorConfig.for_trace(trace, samples=128)
        span = max(q.arrival_ms for q in trace) * 1.25
        assert config.cadence_ms == pytest.approx(span / 128)


class TestEngineWiring:
    def test_board_ticks_and_standard_series(self, graph, trace):
        monitor = monitored_run(graph, trace)
        board = monitor.board
        assert board is not None and board.ticks > 50
        for name in ("serve.qps", "serve.p50_ms", "serve.p95_ms",
                     "serve.queue_depth", "serve.cache_hit_rate",
                     "serve.device_util"):
            assert name in board
            assert len(board.series(name)) == board.ticks
        assert max(board.series("serve.qps").values()) > 0.0

    def test_device_util_is_a_fraction(self, graph, trace):
        monitor = monitored_run(graph, trace)
        values = monitor.board.series("serve.device_util").values()
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)

    def test_identical_runs_export_identical_bytes(self, graph, trace):
        a = monitored_run(graph, trace, faults="straggler")
        b = monitored_run(graph, trace, faults="straggler")
        assert json.dumps(a.board.to_json(), sort_keys=True) == \
            json.dumps(b.board.to_json(), sort_keys=True)
        assert json.dumps(a.bus.to_json(), sort_keys=True) == \
            json.dumps(b.bus.to_json(), sort_keys=True)

    def test_double_bind_rejected(self, graph, trace):
        monitor = monitored_run(graph, trace)
        with pytest.raises(ValueError, match="already bound"):
            monitor.bind(object())

    def test_calibrate_requires_bound_reference(self):
        with pytest.raises(ValueError, match="never bound"):
            LiveMonitor().calibrate(LiveMonitor())


class TestCalibratedDetection:
    def test_fault_free_run_yields_zero_anomalies(self, graph, trace):
        config = MonitorConfig.for_trace(trace)
        reference = monitored_run(graph, trace, monitor_config=config)
        live = monitored_run(graph, trace, reference=reference,
                             monitor_config=config)
        assert live.anomalies() == []
        assert len(live.bus) == 0

    def test_straggler_yields_deterministic_anomalies(self, graph, trace):
        config = MonitorConfig.for_trace(trace)
        reference = monitored_run(graph, trace, monitor_config=config)
        first = monitored_run(graph, trace, faults="straggler",
                              reference=reference, monitor_config=config)
        second = monitored_run(graph, trace, faults="straggler",
                               reference=reference, monitor_config=config)
        assert first.anomalies(), "straggler produced no anomalies"
        assert first.anomalies() == second.anomalies()
        # Every anomaly reaches the bus with source "detect".
        assert first.bus.events() == first.anomalies()
        assert {e["source"] for e in first.bus.to_json()["events"]} == \
            {"detect"}

    def test_anomalies_carry_attribution(self, graph, trace):
        config = MonitorConfig.for_trace(trace)
        reference = monitored_run(graph, trace, monitor_config=config)
        live = monitored_run(graph, trace, faults="straggler",
                             reference=reference, monitor_config=config)
        anomaly = live.anomalies()[0]
        assert "device" in anomaly.attribution
        assert anomaly.attribution.get("window_ms") == config.window_ms

    def test_anomaly_markers_land_in_the_trace(self, graph, trace):
        config = MonitorConfig.for_trace(trace)
        reference = monitored_run(graph, trace, monitor_config=config)
        previous = set_tracer(Tracer())
        try:
            live = monitored_run(graph, trace, faults="straggler",
                                 reference=reference,
                                 monitor_config=config)
            doc = to_chrome_trace(set_tracer(previous))
        finally:
            set_tracer(previous)
        validate_trace(doc)
        markers = [e for e in doc["traceEvents"]
                   if e.get("ph") == "i" and e.get("cat") == "detect"]
        assert len(markers) == len(live.anomalies())
        assert all(m["s"] == "t" for m in markers)


class TestChaosIntegration:
    def test_matrix_monitors_every_plan(self, graph):
        report = run_chaos_matrix(
            graph, [profile("none"), profile("straggler")],
            trace_config=TraceConfig(num_queries=200, rate_per_ms=64.0,
                                     seed=5),
            config=ServeConfig(num_gpus=4, timeout_ms=2.0),
            monitor=True)
        assert report.ok
        by_name = {case.plan.name: case for case in report.cases}
        assert by_name["none"].anomalies == 0
        assert by_name["straggler"].anomalies >= 1
        assert by_name["straggler"].row()["anomalies"] >= 1
        assert "anomalies:" in report.summary()

    def test_matrix_without_monitoring_has_no_monitor(self, graph):
        report = run_chaos_matrix(
            graph, [profile("none")],
            trace_config=TraceConfig(num_queries=50, seed=5),
            config=ServeConfig(num_gpus=2))
        case = report.cases[0]
        assert case.monitor is None and case.anomalies == 0
        assert "anomalies" not in case.row()


class TestRendering:
    def test_dashboard_text(self, graph, trace):
        config = MonitorConfig.for_trace(trace)
        reference = monitored_run(graph, trace, monitor_config=config)
        live = monitored_run(graph, trace, faults="straggler",
                             reference=reference, monitor_config=config)
        text = render_dashboard(live, title="straggler")
        assert "monitor: straggler" in text
        assert "serve.qps" in text and "serve.device_util" in text
        assert "anomalies:" in text

    def test_unbound_dashboard(self):
        assert "never bound" in render_dashboard(LiveMonitor())

    def test_html_is_self_contained(self, graph, trace):
        config = MonitorConfig.for_trace(trace)
        reference = monitored_run(graph, trace, monitor_config=config)
        live = monitored_run(graph, trace, faults="straggler",
                             reference=reference, monitor_config=config)
        html = render_html(live, title="straggler run")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "straggler run" in html
        assert "http://" not in html and "https://" not in html


class TestMonitorVerb:
    """``python -m repro monitor`` end to end: the artifacts the
    ``monitor-smoke`` CI job uploads, validated, and unchanged by
    tracing, what-if and HTML output."""

    ARGS = ["monitor", "--rmat-scale", "8", "--edge-factor", "8",
            "--queries", "200", "--rate", "64", "--gpus", "4",
            "--seed", "5"]

    def test_straggler_artifacts_validate_and_repeat(self, tmp_path,
                                                     capsys):
        a = {kind: tmp_path / f"a.{kind}"
             for kind in ("findings", "series", "html", "trace", "snap")}
        assert main(self.ARGS + [
            "--faults", "straggler", "--whatif",
            "--out", str(a["findings"]),
            "--series-out", str(a["series"]),
            "--html", str(a["html"]),
            "--trace-out", str(a["trace"]),
            "--snapshot", str(a["snap"])]) == 0
        assert "what-if: predicted knob impacts" in capsys.readouterr().out
        # The bare run: no tracer, no what-if, no HTML, no snapshot.  The
        # extras must not change what the monitor finds or samples.
        b = {kind: tmp_path / f"b.{kind}" for kind in ("findings", "series")}
        assert main(self.ARGS + [
            "--faults", "straggler",
            "--out", str(b["findings"]),
            "--series-out", str(b["series"])]) == 0
        assert "what-if" not in capsys.readouterr().out
        assert a["findings"].read_bytes() == b["findings"].read_bytes()
        assert a["series"].read_bytes() == b["series"].read_bytes()

        events = load_artifact(a["findings"], FINDINGS_SCHEMA)["events"]
        assert events, "straggler run published no findings"
        assert {e["source"] for e in events} == {"detect"}

        series = load_artifact(a["series"], SERIES_SCHEMA)["series"]
        assert "serve.device_util" in series

        trace = json.loads(a["trace"].read_text())
        assert validate_trace(trace) > 0
        marks = [e for e in trace["traceEvents"]
                 if e.get("ph") == "i" and e.get("cat") == "detect"]
        assert len(marks) == len(events)

        page = a["html"].read_text()
        assert page.startswith("<!DOCTYPE html>") and "<svg" in page

        snap = load_artifact(a["snap"], SNAPSHOT_SCHEMA)
        assert any(key.endswith(".anomalies") for key in snap["metrics"])

    def test_long_run_calibrates_from_every_reference_sample(self,
                                                              capsys):
        # 32,396 ticks: twice the per-series ring buffer.  The reference
        # band must cover the samples the ring evicted, or the clean run
        # trips over its own early cache-hit rate.
        assert main(self.ARGS + ["--cadence-ms", "0.0001",
                                 "--fail-on-anomaly"]) == 0
        out = capsys.readouterr().out
        assert "32396 ticks" in out and "anomalies: 0" in out
