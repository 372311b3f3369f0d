"""Observability layer: tracer, metrics registry, Chrome-trace export,
and counter snapshots with regression diffing."""

from __future__ import annotations

import json
import threading

import pytest

from repro.bfs import enterprise_bfs, hybrid_bfs
from repro.gpu import GPUDevice
from repro.metrics import run_trials
from repro.observ import (
    MetricsRegistry,
    NullTracer,
    SNAPSHOT_SCHEMA,
    Tracer,
    bench_snapshot,
    chrome_trace_events,
    collecting,
    diff_snapshots,
    get_registry,
    get_tracer,
    load_artifact,
    metric_direction,
    run_snapshot,
    to_chrome_trace,
    tracing,
    validate_artifact,
    validate_trace,
    write_artifact,
    write_chrome_trace,
)
from repro.observ.tracer import TID_HARNESS, TID_RUN, TID_STREAM


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_record_span(self):
        t = Tracer()
        t.record_span("run", 1.0, 2.5, cat="run", args={"x": 1})
        (s,) = t.spans()
        assert s.name == "run"
        assert s.ts_ms == 1.0
        assert s.dur_ms == 2.5
        assert s.end_ms == 3.5
        assert s.args == {"x": 1}
        assert len(t) == 1

    def test_negative_duration_clamped(self):
        t = Tracer()
        t.record_span("weird", 5.0, -1.0)
        assert t.spans()[0].dur_ms == 0.0

    def test_offset_shifts_events(self):
        t = Tracer()
        t.record_span("a", 0.0, 1.0)
        t.offset_ms = 10.0
        t.record_span("b", 0.0, 1.0)
        t.record_counter("c", 2.0, {"v": 3})
        a, b = t.spans()
        assert a.ts_ms == 0.0
        assert b.ts_ms == 10.0
        assert t.counters()[0].ts_ms == 12.0

    def test_span_context_manager_uses_clock(self):
        now = [0.0]
        t = Tracer(clock=lambda: now[0])
        with t.span("work", cat="level") as args:
            now[0] = 4.0
            args["frontier"] = 7
        (s,) = t.spans()
        assert s.ts_ms == 0.0
        assert s.dur_ms == 4.0
        assert s.cat == "level"
        assert s.args["frontier"] == 7

    def test_span_records_on_exception(self):
        t = Tracer(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError
        assert len(t.spans()) == 1

    def test_nested_spans(self):
        now = [0.0]
        t = Tracer(clock=lambda: now[0])
        with t.span("outer"):
            now[0] = 1.0
            with t.span("inner"):
                now[0] = 2.0
            now[0] = 3.0
        inner, outer = t.spans()
        assert inner.name == "inner"
        assert outer.ts_ms <= inner.ts_ms
        assert outer.end_ms >= inner.end_ms

    def test_thread_tids_are_distinct(self):
        t = Tracer(clock=lambda: 0.0)

        def work():
            with t.span("child"):
                pass

        th = threading.Thread(target=work)
        with t.span("main"):
            pass
        th.start()
        th.join()
        tids = {s.tid for s in t.spans()}
        assert len(tids) == 2

    def test_clear(self):
        t = Tracer()
        t.record_span("a", 0.0, 1.0)
        t.record_counter("c", 0.0, {"v": 1})
        t.offset_ms = 5.0
        t.clear()
        assert len(t) == 0
        assert t.offset_ms == 0.0

    def test_null_tracer_records_nothing(self):
        t = NullTracer()
        assert not t.enabled
        t.record_span("a", 0.0, 1.0)
        t.record_counter("c", 0.0, {"v": 1})
        with t.span("b") as args:
            assert isinstance(args, dict)
        assert len(t) == 0

    def test_tracing_context_restores(self):
        before = get_tracer()
        with tracing() as t:
            assert get_tracer() is t
            assert t.enabled
        assert get_tracer() is before

    def test_tracing_installs_the_tracer_it_is_given(self):
        # An empty tracer is falsy (``__len__`` is 0); it is still the
        # one installed, yielded and kept, so a caller exports its spans.
        before = get_tracer()
        tracer = Tracer()
        assert len(tracer) == 0
        with tracing(tracer) as t:
            assert t is tracer
            assert get_tracer() is tracer
        assert get_tracer() is before


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_identity_by_labels(self):
        r = MetricsRegistry()
        a = r.counter("hits", graph="KR0")
        b = r.counter("hits", graph="KR0")
        c = r.counter("hits", graph="KR1")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2.5)
        assert a.value == 3.5
        assert c.value == 0.0
        assert len(r) == 2

    def test_counter_rejects_negative(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("hits").inc(-1)

    def test_gauge(self):
        r = MetricsRegistry()
        g = r.gauge("occupancy")
        g.set(0.5)
        g.inc(0.25)
        assert g.value == 0.75

    def test_histogram_buckets(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)
        assert h.mean == pytest.approx(18.5)
        sample = h.sample()
        assert sample["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 1}

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))

    def test_type_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x", a="1")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x", a="1")
        # Same name with different labels is a fresh identity.
        r.gauge("x", a="2")

    def test_disabled_registry_is_noop(self):
        r = MetricsRegistry(enabled=False)
        m = r.counter("x")
        m.inc(5)
        r.gauge("g").set(1)
        r.histogram("h").observe(1)
        assert len(r) == 0
        assert r.collect() == []

    def test_collect_sorted_rows(self):
        r = MetricsRegistry()
        r.counter("b.metric").inc(2)
        r.counter("a.metric", graph="KR0").inc(1)
        rows = r.collect()
        assert [row["name"] for row in rows] == ["a.metric", "b.metric"]
        assert rows[0]["labels"] == {"graph": "KR0"}
        assert rows[0]["type"] == "counter"
        assert rows[0]["value"] == 1.0

    def test_ndjson_roundtrip(self, tmp_path):
        r = MetricsRegistry()
        r.counter("x", algorithm="enterprise").inc(3)
        r.histogram("y").observe(2.0)
        path = r.write_ndjson(tmp_path / "m.ndjson")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "x"
        assert parsed[1]["count"] == 1

    def test_collecting_context_restores(self):
        before = get_registry()
        with collecting() as r:
            assert get_registry() is r
            assert r.enabled
        assert get_registry() is before

    def test_collecting_installs_the_registry_it_is_given(self):
        before = get_registry()
        registry = MetricsRegistry()
        assert len(registry) == 0
        with collecting(registry) as r:
            assert r is registry
            assert get_registry() is registry
        assert get_registry() is before


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------

class TestChromeTrace:
    def _tracer(self):
        t = Tracer()
        t.record_span("run", 0.0, 10.0, cat="run", tid=TID_RUN)
        t.record_span("L0 top-down", 0.0, 4.0, cat="level", tid=TID_RUN)
        t.record_span("kernel", 1.0, 2.0, cat="kernel", tid=TID_STREAM)
        t.record_counter("frontier size", 0.0, {"vertices": 1})
        return t

    def test_events_ms_to_us(self):
        events = chrome_trace_events(self._tracer())
        xs = [e for e in events if e["ph"] == "X"]
        run = next(e for e in xs if e["name"] == "run")
        assert run["ts"] == 0.0
        assert run["dur"] == 10_000.0
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"vertices": 1.0}

    def test_metadata_tracks_named(self):
        events = chrome_trace_events(self._tracer())
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "run / levels" in names
        assert "stream 1" in names

    def test_sorted_enclosing_first(self):
        events = [e for e in chrome_trace_events(self._tracer())
                  if e["ph"] == "X"]
        assert events[0]["name"] == "run"  # longest span at ts=0 first

    def test_document_and_validation(self):
        doc = to_chrome_trace(self._tracer(), meta={"graph": "KR0"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"graph": "KR0"}
        assert validate_trace(doc) == 3

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace.json"
        doc = write_chrome_trace(path, self._tracer())
        assert json.loads(path.read_text()) == doc
        assert validate_trace(doc) == 3

    def test_write_validates_before_writing(self, tmp_path):
        # One process is not a two-node cluster trace: nothing is written.
        path = tmp_path / "t.trace.json"
        with pytest.raises(ValueError, match="cluster"):
            write_chrome_trace(path, self._tracer(), expect_cluster=2)
        assert not path.exists()

    @pytest.mark.parametrize("doc,msg", [
        ([], "JSON object"),
        ({}, "traceEvents"),
        ({"traceEvents": [{"ph": "Z", "name": "x"}]}, "unknown phase"),
        ({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}, "lacks a name"),
        ({"traceEvents": [{"ph": "X", "name": "x", "ts": -1, "dur": 1}]},
         "bad ts"),
        ({"traceEvents": [{"ph": "X", "name": "x", "ts": 0, "dur": None}]},
         "bad dur"),
        ({"traceEvents": [{"ph": "M", "name": "process_name", "pid": 0,
                           "tid": 0, "args": {}}]}, "no duration"),
    ])
    def test_validate_rejects_malformed(self, doc, msg):
        with pytest.raises(ValueError, match=msg):
            validate_trace(doc)


class TestInstantMarkers:
    @staticmethod
    def _doc(marker: dict) -> dict:
        return {"traceEvents": [
            {"ph": "X", "name": "run", "ts": 0.0, "dur": 10_000.0,
             "pid": 0, "tid": 1},
            marker]}

    def test_recorded_marker_exports_and_validates(self):
        t = Tracer()
        t.record_span("run", 0.0, 10.0, tid=TID_RUN)
        t.record_instant("anomaly:serve.p95_ms", 3.0, scope="t",
                         cat="detect", tid=TID_RUN,
                         args={"kind": "band-high"})
        doc = to_chrome_trace(t)
        assert validate_trace(doc) == 1
        marker = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert marker["s"] == "t"
        assert marker["ts"] == 3_000.0  # ms -> us
        assert marker["args"]["kind"] == "band-high"

    def test_tracer_rejects_invalid_scope(self):
        with pytest.raises(ValueError, match="scope"):
            Tracer().record_instant("m", 0.0, scope="z")

    def test_valid_thread_scoped_marker_accepted(self):
        doc = self._doc({"ph": "i", "name": "m", "ts": 1.0, "s": "t",
                         "pid": 0, "tid": 1})
        assert validate_trace(doc) == 1

    @pytest.mark.parametrize("marker,msg", [
        ({"ph": "i", "name": "m", "ts": 1.0, "s": "z"},
         "invalid scope"),
        ({"ph": "i", "name": "m", "ts": 1.0}, "invalid scope"),
        ({"ph": "i", "name": "m", "ts": -1.0, "s": "g"}, "bad ts"),
        ({"ph": "i", "name": "m", "ts": 1.0, "s": "t",
          "pid": 0, "tid": 9}, "no duration spans"),
        ({"ph": "i", "name": "m", "ts": 99_999_999.0, "s": "g"},
         "outside the run window"),
        ({"ph": "i", "name": "m", "ts": 1.0, "s": "p", "pid": 7},
         "carries no events"),
        ({"ph": "i", "name": "m", "ts": 1.0, "s": "g", "args": []},
         "not an object"),
    ])
    def test_validate_rejects_bad_markers(self, marker, msg):
        with pytest.raises(ValueError, match=msg):
            validate_trace(self._doc(marker))


# ----------------------------------------------------------------------
# End-to-end instrumentation of the BFS algorithms
# ----------------------------------------------------------------------

class TestInstrumentation:
    def test_enterprise_run_emits_full_timeline(self, small_powerlaw):
        device = GPUDevice()
        with tracing() as tracer:
            result = enterprise_bfs(small_powerlaw, 0, device=device)
        spans = tracer.spans()
        cats = {s.cat for s in spans}
        assert {"run", "level", "kernel"} <= cats
        run = next(s for s in spans if s.cat == "run")
        assert run.dur_ms == pytest.approx(result.time_ms)
        levels = [s for s in spans if s.cat == "level"]
        assert len(levels) == len(result.traces)
        # Level and kernel spans stay inside the run window.
        for s in spans:
            assert s.ts_ms >= run.ts_ms - 1e-9
            assert s.end_ms <= run.end_ms + 1e-9
        tracks = {c.name for c in tracer.counters()}
        assert {"frontier size", "gamma (%)", "power (W)"} <= tracks

    def test_hybrid_run_emits_levels(self, small_powerlaw):
        with tracing() as tracer:
            result = hybrid_bfs(small_powerlaw, 0)
        levels = [s for s in tracer.spans() if s.cat == "level"]
        assert len(levels) == len(result.traces)
        assert any(c.name == "alpha" for c in tracer.counters())

    def test_disabled_means_no_records(self, small_powerlaw):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        enterprise_bfs(small_powerlaw, 0)
        assert len(tracer) == 0

    def test_registry_collects_bfs_counters(self, small_powerlaw):
        with collecting() as registry:
            enterprise_bfs(small_powerlaw, 0)
        names = {row["name"] for row in registry.collect()}
        assert "repro.bfs.levels" in names
        assert "repro.bfs.edges_checked" in names
        assert "repro.kernels.launched" in names
        row = next(r for r in registry.collect()
                   if r["name"] == "repro.bfs.levels")
        assert row["labels"]["graph"] == small_powerlaw.name
        assert "enterprise" in row["labels"]["algorithm"]

    def test_run_trials_lays_trials_end_to_end(self, small_powerlaw):
        with tracing() as tracer:
            run_trials(small_powerlaw, enterprise_bfs, trials=3)
        trials = sorted((s for s in tracer.spans() if s.cat == "trial"),
                        key=lambda s: s.ts_ms)
        assert len(trials) == 3
        assert all(s.tid == TID_HARNESS for s in trials)
        for prev, cur in zip(trials, trials[1:]):
            assert cur.ts_ms == pytest.approx(prev.end_ms)
        assert tracer.offset_ms == 0.0  # reset after the harness


# ----------------------------------------------------------------------
# Snapshots + regression diffing
# ----------------------------------------------------------------------

def _make_run_snapshot(graph, **kwargs):
    device = GPUDevice()
    result = enterprise_bfs(graph, 0, device=device)
    return run_snapshot(result, device=device, **kwargs)


class TestSnapshot:
    def test_run_snapshot_schema(self, small_powerlaw):
        doc = _make_run_snapshot(small_powerlaw)
        validate_artifact(doc, SNAPSHOT_SCHEMA)
        assert doc["schema"] == SNAPSHOT_SCHEMA
        assert doc["kind"] == "run"
        assert doc["meta"]["graph"] == small_powerlaw.name
        assert doc["metrics"]["gld_transactions"] > 0
        assert len(doc["levels"]) == doc["metrics"]["levels"]
        json.dumps(doc)  # must be JSON-serialisable (no numpy scalars)

    def test_run_snapshot_includes_registry(self, small_powerlaw):
        with collecting() as registry:
            doc = _make_run_snapshot(small_powerlaw, registry=registry)
        assert any(r["name"] == "repro.bfs.levels" for r in doc["registry"])

    def test_write_load_roundtrip(self, small_powerlaw, tmp_path):
        doc = _make_run_snapshot(small_powerlaw)
        path = write_artifact(tmp_path / "run.snap.json", doc)
        assert load_artifact(path, SNAPSHOT_SCHEMA) \
            == json.loads(json.dumps(doc))

    def test_bench_snapshot_flattens_rows(self):
        doc = bench_snapshot("fig14", {
            "fig14": [
                {"graph": "KR0", "teps": 1e6, "note": "text ignored"},
                {"graph": "KR1", "teps": 2e6},
            ],
        })
        validate_artifact(doc, SNAPSHOT_SCHEMA)
        assert doc["kind"] == "bench"
        assert doc["metrics"]["fig14.KR0.teps"] == 1e6
        assert doc["metrics"]["fig14.KR1.teps"] == 2e6
        assert "fig14.KR0.note" not in doc["metrics"]

    def test_bench_snapshot_scalar_dict_groups(self):
        """Figures like fig05 return {graph: {metric: scalar}} — those
        must flatten too, not produce an empty (vacuous) gate."""
        doc = bench_snapshot("fig05", {
            "GO": {"mean_degree": 19.0, "max_degree": 500},
            "OR": {"mean_degree": 90.0},
        })
        assert doc["metrics"]["fig05.GO.mean_degree"] == 19.0
        assert doc["metrics"]["fig05.GO.max_degree"] == 500
        assert doc["metrics"]["fig05.OR.mean_degree"] == 90.0

    @pytest.mark.parametrize("doc", [
        "not a dict",
        {"schema": "bogus/v9", "kind": "run", "metrics": {}},
        {"schema": SNAPSHOT_SCHEMA, "kind": "wat", "metrics": {}},
        {"schema": SNAPSHOT_SCHEMA, "kind": "run"},
        {"schema": SNAPSHOT_SCHEMA, "kind": "run",
         "metrics": {"x": "NaN-ish"}},
        {"schema": SNAPSHOT_SCHEMA, "kind": "run",
         "metrics": {"x": float("inf")}},
    ])
    def test_validate_rejects(self, doc):
        with pytest.raises(ValueError):
            validate_artifact(doc, SNAPSHOT_SCHEMA)

    def test_metric_direction(self):
        assert metric_direction("gld_transactions") == "lower"
        assert metric_direction("fig14.KR0.teps") == "higher"
        assert metric_direction("levels") == "neutral"


class TestDiff:
    def _base(self, metrics):
        return {"schema": SNAPSHOT_SCHEMA, "kind": "run",
                "meta": {}, "metrics": metrics}

    def test_identical_snapshots_ok(self, small_powerlaw):
        doc = _make_run_snapshot(small_powerlaw)
        diff = diff_snapshots(doc, doc)
        assert diff.ok
        assert diff.deltas == ()
        assert "no metric moved" in diff.format()

    def test_detects_injected_gld_regression(self, small_powerlaw):
        """The ISSUE acceptance criterion: a 10% jump in
        gld_transactions must be flagged at the default 5% tolerance."""
        before = _make_run_snapshot(small_powerlaw)
        after = json.loads(json.dumps(before))
        after["metrics"]["gld_transactions"] = (
            before["metrics"]["gld_transactions"] * 1.10)
        diff = diff_snapshots(before, after)
        assert not diff.ok
        (reg,) = diff.regressions
        assert reg.metric == "gld_transactions"
        assert reg.rel_change == pytest.approx(0.10, abs=0.005)
        assert reg.direction == "lower"
        assert "[REG] gld_transactions" in diff.format()

    def test_improvement_is_not_a_regression(self):
        old = self._base({"teps": 100.0, "time_ms": 10.0})
        new = self._base({"teps": 120.0, "time_ms": 8.0})
        diff = diff_snapshots(old, new)
        assert diff.ok
        assert len(diff.improvements) == 2

    def test_teps_drop_is_a_regression(self):
        old = self._base({"teps": 100.0})
        new = self._base({"teps": 80.0})
        diff = diff_snapshots(old, new)
        assert not diff.ok
        assert diff.regressions[0].rel_change == pytest.approx(-0.2)

    def test_within_tolerance_ignored(self):
        old = self._base({"gld_transactions": 100.0})
        new = self._base({"gld_transactions": 104.0})
        assert diff_snapshots(old, new, rel_tol=0.05).ok

    def test_tolerance_is_configurable(self):
        old = self._base({"gld_transactions": 100.0})
        new = self._base({"gld_transactions": 104.0})
        assert not diff_snapshots(old, new, rel_tol=0.01).ok

    def test_neutral_metric_never_fails_gate(self):
        old = self._base({"levels": 10.0})
        new = self._base({"levels": 20.0})
        diff = diff_snapshots(old, new)
        assert diff.ok
        assert "[CHG] levels" in diff.format()

    def test_from_zero_reports_inf(self):
        old = self._base({"gld_transactions": 0.0})
        new = self._base({"gld_transactions": 5.0})
        diff = diff_snapshots(old, new)
        assert not diff.ok
        assert "new-nonzero" in diff.regressions[0].line()

    def test_missing_and_added_reported(self):
        old = self._base({"a": 1.0})
        new = self._base({"b": 1.0})
        diff = diff_snapshots(old, new)
        assert diff.missing == ("a",)
        assert diff.added == ("b",)
        assert diff.ok  # presence changes don't fail the gate

    def test_negative_tolerance_rejected(self):
        doc = self._base({})
        with pytest.raises(ValueError):
            diff_snapshots(doc, doc, rel_tol=-0.1)


# ----------------------------------------------------------------------
# Flow events: trace-context propagation
# ----------------------------------------------------------------------

class TestFlows:
    def test_record_flow(self):
        t = Tracer()
        t.record_flow("q", 7, 1.0, phase="s", cat="serve.query",
                      tid=3, args={"qid": 7})
        (f,) = t.flows()
        assert (f.name, f.cat, f.ph, f.flow_id) == \
            ("q", "serve.query", "s", 7)
        assert f.ts_ms == 1.0
        assert f.tid == 3
        assert f.args == {"qid": 7}
        assert len(t) == 1

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="flow phase"):
            Tracer().record_flow("q", 1, 0.0, phase="x")

    def test_offset_applies(self):
        t = Tracer()
        t.offset_ms = 10.0
        t.record_flow("q", 1, 2.0)
        assert t.flows()[0].ts_ms == 12.0

    def test_clear_drops_flows(self):
        t = Tracer()
        t.record_flow("q", 1, 0.0)
        t.clear()
        assert t.flows() == []

    def test_null_tracer_ignores_flows(self):
        t = NullTracer()
        t.record_flow("q", 1, 0.0)
        assert len(t) == 0

    def test_export_binds_flow_to_enclosing_slice(self):
        t = Tracer()
        t.record_span("wave", 0.0, 2.0, tid=5)
        t.record_flow("q", 9, 1.0, phase="t", tid=5)
        events = chrome_trace_events(t)
        flow = next(e for e in events if e["ph"] == "t")
        assert flow["id"] == 9
        assert flow["bp"] == "e"  # bind to enclosing slice, not start
        assert flow["ts"] == 1_000.0  # ms -> us

    def test_async_events_carry_no_binding_point(self):
        t = Tracer()
        t.record_span("wave", 0.0, 2.0)
        t.record_flow("q", 9, 0.5, phase="b", cat="serve.query")
        t.record_flow("q", 9, 1.5, phase="e", cat="serve.query")
        events = chrome_trace_events(t)
        for ph in ("b", "e"):
            e = next(ev for ev in events if ev["ph"] == ph)
            assert "bp" not in e
        assert validate_trace({"traceEvents": events}) == 1


# ----------------------------------------------------------------------
# Trace validation: cross-event invariants
# ----------------------------------------------------------------------

class TestTraceInvariants:
    def _span(self, ts, dur, tid=0, name="w"):
        return {"ph": "X", "name": name, "ts": ts, "dur": dur,
                "pid": 0, "tid": tid}

    def _flow(self, ph, ts, tid=0, flow_id=1, cat="flow"):
        return {"ph": ph, "name": "q", "ts": ts, "pid": 0, "tid": tid,
                "id": flow_id, "cat": cat}

    def test_valid_flow_chain_passes(self):
        doc = {"traceEvents": [
            self._span(0, 10, tid=1),
            self._flow("s", 1, tid=1),
            self._span(12, 10, tid=2),
            self._flow("t", 13, tid=2),
            self._flow("f", 20, tid=2),
        ]}
        assert validate_trace(doc) == 2

    def test_flow_without_id_rejected(self):
        event = self._flow("s", 1, tid=1)
        del event["id"]
        doc = {"traceEvents": [self._span(0, 10, tid=1), event]}
        with pytest.raises(ValueError, match="lacks an id"):
            validate_trace(doc)

    def test_unbound_flow_rejected(self):
        # The flow lands on a track with no slice under it.
        doc = {"traceEvents": [self._span(0, 10, tid=1),
                               self._flow("s", 1, tid=2)]}
        with pytest.raises(ValueError, match="binds to no duration span"):
            validate_trace(doc)

    def test_flow_outside_slice_window_rejected(self):
        doc = {"traceEvents": [self._span(0, 10, tid=1),
                               self._flow("s", 11, tid=1)]}
        with pytest.raises(ValueError, match="binds to no duration span"):
            validate_trace(doc)

    def test_async_pairing_passes(self):
        doc = {"traceEvents": [
            self._span(0, 10),
            self._flow("b", 1, cat="serve.query"),
            self._flow("e", 9, cat="serve.query"),
        ]}
        assert validate_trace(doc) == 1

    def test_async_end_without_begin_rejected(self):
        doc = {"traceEvents": [self._span(0, 10),
                               self._flow("e", 1, cat="serve.query")]}
        with pytest.raises(ValueError, match="end without a matching"):
            validate_trace(doc)

    def test_dangling_async_begin_rejected(self):
        doc = {"traceEvents": [self._span(0, 10),
                               self._flow("b", 1, cat="serve.query")]}
        with pytest.raises(ValueError, match="never ended"):
            validate_trace(doc)

    def test_async_pairs_matched_by_cat_and_id(self):
        # Same id under a different category is a different pair.
        doc = {"traceEvents": [
            self._span(0, 10),
            self._flow("b", 1, cat="a"),
            self._flow("e", 2, cat="b"),
        ]}
        with pytest.raises(ValueError, match="end without a matching"):
            validate_trace(doc)

    def test_backwards_track_rejected(self):
        doc = {"traceEvents": [self._span(5, 1, tid=1),
                               self._span(2, 1, tid=1)]}
        with pytest.raises(ValueError, match="goes backwards"):
            validate_trace(doc)

    def test_backwards_on_other_track_is_fine(self):
        doc = {"traceEvents": [self._span(5, 1, tid=1),
                               self._span(2, 1, tid=2)]}
        assert validate_trace(doc) == 2


# ----------------------------------------------------------------------
# Trace validation: multi-node (cluster) invariants
# ----------------------------------------------------------------------

class TestClusterTraceInvariants:
    """``validate_trace(expect_cluster=...)``: pid = node conventions."""

    def _span(self, ts, dur, pid=0, name="w"):
        return {"ph": "X", "name": name, "ts": ts, "dur": dur,
                "pid": pid, "tid": 1}

    def _flow(self, ph, ts, pid=0, flow_id=1):
        return {"ph": ph, "name": "q", "ts": ts, "pid": pid, "tid": 1,
                "id": flow_id, "cat": "collective"}

    def _cluster_doc(self):
        """Two node tracks plus a cross-node s->f chain."""
        return {"traceEvents": [
            self._span(0, 10, pid=0),
            self._flow("s", 1, pid=0),
            self._span(0, 10, pid=1),
            self._flow("f", 5, pid=1),
        ]}

    def test_valid_cluster_doc_passes(self):
        assert validate_trace(self._cluster_doc(), expect_cluster=2) == 2
        # True infers the node count from the largest pid.
        assert validate_trace(self._cluster_doc(), expect_cluster=True) == 2

    def test_plain_validation_ignores_cluster_invariants(self):
        doc = {"traceEvents": [self._span(0, 10, pid=3)]}
        assert validate_trace(doc) == 1  # non-contiguous pid is fine

    def test_missing_node_pid_rejected(self):
        doc = self._cluster_doc()
        with pytest.raises(ValueError, match="populate node pids"):
            validate_trace(doc, expect_cluster=3)

    def test_extra_pid_rejected(self):
        doc = self._cluster_doc()
        doc["traceEvents"].append(self._span(0, 1, pid=7))
        with pytest.raises(ValueError, match="populate node pids"):
            validate_trace(doc, expect_cluster=2)

    def test_out_of_order_chain_rejected(self):
        doc = {"traceEvents": [
            self._span(0, 10, pid=0),
            self._flow("f", 1, pid=0),   # f before s in ts order
            self._span(0, 10, pid=1),
            self._flow("s", 5, pid=1),
        ]}
        with pytest.raises(ValueError, match="s->t\\*->f"):
            validate_trace(doc, expect_cluster=2)

    def test_chain_without_terminator_rejected(self):
        doc = {"traceEvents": [
            self._span(0, 10, pid=0),
            self._flow("s", 1, pid=0),
            self._span(0, 10, pid=1),
            self._flow("t", 5, pid=1),   # never finishes
        ]}
        with pytest.raises(ValueError, match="s->t\\*->f"):
            validate_trace(doc, expect_cluster=2)

    def test_multinode_without_cross_node_flow_rejected(self):
        doc = {"traceEvents": [
            self._span(0, 10, pid=0),
            self._flow("s", 1, pid=0),
            self._flow("f", 5, pid=0),   # same node both ends
            self._span(0, 10, pid=1),
        ]}
        with pytest.raises(ValueError, match="no flow chain hopping"):
            validate_trace(doc, expect_cluster=2)

    def test_single_node_cluster_needs_no_flows(self):
        doc = {"traceEvents": [self._span(0, 10, pid=0)]}
        assert validate_trace(doc, expect_cluster=1) == 1

    @pytest.mark.parametrize("nodes,gpus", [(1, 2), (2, 2), (4, 1)])
    def test_real_cluster_traces_validate(self, nodes, gpus):
        """Property on generated traces: every cluster run, on every
        fabric shape, exports a trace that passes the multi-node
        invariants with one flow chain per collective (= per level)."""
        from repro.bfs.cluster import cluster_enterprise_bfs
        from repro.graph import rmat_graph

        g = rmat_graph(8, 8, seed=2, name="trace-cluster")
        with tracing() as tracer:
            res = cluster_enterprise_bfs(g, 0, nodes, gpus,
                                         parts_per_node=4)
        doc = to_chrome_trace(tracer, meta={"nodes": nodes})
        assert validate_trace(doc, expect_cluster=nodes) > 0
        span_pids = {e.get("pid") for e in doc["traceEvents"]
                     if e.get("ph") == "X"}
        assert span_pids == set(range(nodes))
        chains = {e["id"] for e in doc["traceEvents"]
                  if e.get("ph") in ("s", "t", "f")}
        if nodes > 1:
            # One cross-node chain per allreduce, one allreduce per level.
            assert len(chains) == len(res.levels)
        else:
            assert not chains


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------

class TestHistogramQuantile:
    def test_empty_is_nan(self):
        import math
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        assert math.isnan(h.quantile(0.5))

    def test_bounds_validated(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_linear_interpolation_within_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(10.0, 20.0))
        for _ in range(4):
            h.observe(5.0)  # all land in (0, 10]
        # Rank q*4 inside the first bucket, interpolated over (0, 10].
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_median_picks_correct_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 50.0, 50.0, 50.0):
            h.observe(v)
        q = h.quantile(0.5)
        assert 10.0 <= q <= 100.0

    def test_overflow_collapses_to_last_finite_bound(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        h.observe(1e9)
        assert h.quantile(0.99) == 10.0

    def test_disabled_registry_quantile_is_nan(self):
        import math
        h = MetricsRegistry(enabled=False).histogram("h")
        h.observe(1.0)
        assert math.isnan(h.quantile(0.5))


# ----------------------------------------------------------------------
# Trace validation: counter-track invariants
# ----------------------------------------------------------------------

class TestCounterTrackInvariants:
    def _span(self, ts=0, dur=100):
        return {"ph": "X", "name": "w", "ts": ts, "dur": dur,
                "pid": 0, "tid": 0}

    def _counter(self, ts, values, name="frontier size", pid=0):
        return {"ph": "C", "name": name, "ts": ts, "pid": pid,
                "args": values}

    def test_valid_counter_track_passes(self):
        doc = {"traceEvents": [
            self._span(),
            self._counter(0, {"v": 0}),
            self._counter(5, {"v": 12.5}),
            self._counter(5, {"v": 3}),   # equal ts is fine
        ]}
        assert validate_trace(doc) == 1

    @pytest.mark.parametrize("bad", [-1, -0.5, float("nan"),
                                     float("inf"), "7", None, True])
    def test_bad_counter_value_rejected(self, bad):
        doc = {"traceEvents": [self._span(),
                               self._counter(0, {"v": bad})]}
        with pytest.raises(ValueError, match="counter"):
            validate_trace(doc)

    def test_counter_track_going_backwards_rejected(self):
        doc = {"traceEvents": [
            self._span(),
            self._counter(5, {"v": 1}),
            self._counter(4, {"v": 1}),
        ]}
        with pytest.raises(ValueError, match="goes[ ]backwards"):
            validate_trace(doc)

    def test_counter_tracks_are_independent_per_name_and_pid(self):
        # Interleaved distinct tracks may each restart their clock.
        doc = {"traceEvents": [
            self._span(),
            self._counter(5, {"v": 1}, name="a"),
            self._counter(1, {"v": 1}, name="b"),
            self._counter(2, {"v": 1}, name="a", pid=1),
        ]}
        assert validate_trace(doc) == 1

    def test_exported_run_trace_counter_tracks_validate(self,
                                                       small_powerlaw):
        from repro.bfs import enterprise_bfs
        from repro.gpu import GPUDevice, KEPLER_K40
        from repro.observ import set_tracer, to_chrome_trace

        t = Tracer()
        prev = set_tracer(t)
        try:
            enterprise_bfs(small_powerlaw, 0, device=GPUDevice(KEPLER_K40))
        finally:
            set_tracer(prev)
        doc = to_chrome_trace(t)
        assert validate_trace(doc) > 0
        assert any(e["ph"] == "C" for e in doc["traceEvents"])
