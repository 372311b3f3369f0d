"""The repro.serve subsystem: batcher, cache, dispatcher, engine, bench."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import reference_bfs_levels
from repro.bfs.common import UNVISITED, BFSResult
from repro.bfs.validate500 import graph500_validate
from repro.graph import (
    RMAT_ABC,
    from_edges,
    kronecker_edges,
    powerlaw_graph,
    rmat_graph,
)
from repro.gpu.multi import DeviceGroup
from repro.observ import MetricsRegistry, Tracer, collecting, tracing
from repro.serve import (
    AdaptiveBatcher,
    LandmarkCache,
    Query,
    QueryKind,
    ServeConfig,
    ServeEngine,
    TraceConfig,
    WaveDispatcher,
    distance_query,
    reachability_query,
    replay,
    run_serve_bench,
    sptree_query,
    synthetic_trace,
)


@pytest.fixture
def graph():
    return powerlaw_graph(400, 6.0, 2.1, 48, seed=21, name="serve-g")


# ----------------------------------------------------------------------
# Batcher
# ----------------------------------------------------------------------

class TestBatcher:
    def test_coalesces_shared_sources_into_one_lane(self):
        b = AdaptiveBatcher(ServeConfig(batch_sources=4))
        for qid in range(5):
            b.add(distance_query(7, qid, qid=qid), now_ms=0.0)
        assert b.pending_queries == 5
        assert b.pending_sources == 1
        assert not b.wave_ready()
        wave = b.pop_wave(1.0)
        assert wave.width == 1
        assert len(wave.queries) == 5
        assert wave.coalesced == 4

    def test_width_flush_trigger(self):
        b = AdaptiveBatcher(ServeConfig(batch_sources=3))
        for s in range(3):
            b.add(distance_query(s, 0), now_ms=0.0)
        assert b.wave_ready()
        wave = b.pop_wave(0.0)
        assert np.array_equal(wave.sources, [0, 1, 2])
        assert b.pending_queries == 0

    def test_deadline_tracks_oldest_source(self):
        b = AdaptiveBatcher(ServeConfig(deadline_ms=2.0,
                                        batch_sources=64))
        b.add(distance_query(1, 0), now_ms=5.0)
        b.add(distance_query(2, 0), now_ms=6.0)
        assert b.next_deadline() == pytest.approx(7.0)
        assert not b.due(6.9)
        assert b.due(7.0)

    def test_backpressure(self):
        b = AdaptiveBatcher(ServeConfig(max_pending=2))
        assert b.add(distance_query(0, 1), 0.0)
        assert b.add(distance_query(1, 2), 0.0)
        assert not b.add(distance_query(2, 3), 0.0)  # refused
        assert b.pending_queries == 2

    def test_oversized_backlog_pops_in_waves(self):
        b = AdaptiveBatcher(ServeConfig(batch_sources=2,
                                        max_pending=100))
        for s in range(5):
            b.add(distance_query(s, 0), 0.0)
        widths = []
        while b.pending_queries:
            widths.append(b.pop_wave(0.0).width)
        assert widths == [2, 2, 1]

    def test_zero_deadline_is_due_immediately(self):
        b = AdaptiveBatcher(ServeConfig(deadline_ms=0.0))
        b.add(distance_query(3, 0), now_ms=5.0)
        assert b.due(5.0)
        assert b.next_deadline() == 5.0

    def test_width_one_pops_single_source_waves(self):
        b = AdaptiveBatcher(ServeConfig(batch_sources=1))
        b.add(distance_query(1, 0), now_ms=0.0)
        assert b.wave_ready()
        b.add(distance_query(2, 0), now_ms=0.0)
        first = b.pop_wave(0.0)
        second = b.pop_wave(0.0)
        assert first.width == 1 and second.width == 1
        assert int(first.sources[0]) == 1
        assert int(second.sources[0]) == 2

    def test_shed_lowest_picks_lowest_priority_latest_queued(self):
        b = AdaptiveBatcher(ServeConfig())
        b.add(distance_query(1, 0, qid=0, priority=2), now_ms=0.0)
        b.add(distance_query(2, 0, qid=1, priority=0), now_ms=0.0)
        b.add(distance_query(3, 0, qid=2, priority=0), now_ms=0.0)
        # Nothing strictly below priority 0.
        assert b.shed_lowest(0) is None
        victim = b.shed_lowest(1)
        assert victim.qid == 2  # lowest priority, latest queued
        assert b.pending_queries == 2
        assert b.pending_sources == 2  # source 3's lane emptied

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_sources=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_sources=65)
        with pytest.raises(ValueError):
            ServeConfig(deadline_ms=-1)
        with pytest.raises(ValueError):
            ServeConfig(max_pending=0)


# ----------------------------------------------------------------------
# Landmark cache
# ----------------------------------------------------------------------

class TestLandmarkCache:
    def test_row_tier_serves_exact_answers(self, graph):
        cache = LandmarkCache(graph, ServeConfig(num_landmarks=4))
        hub = int(graph.out_degrees.argmax())  # admitted on first offer
        levels = reference_bfs_levels(graph, hub)
        assert cache.admit(hub, levels)
        hit = cache.lookup(distance_query(hub, 20), now_ms=1.0)
        assert hit is not None and hit.served_by == "cache:row"
        d = int(levels[20])
        assert hit.distance == (d if d != UNVISITED else -1)

    def test_landmark_tier_only_when_pinned(self, graph):
        cache = LandmarkCache(graph, ServeConfig(num_landmarks=8))
        # A landmark asked about itself is always pinned (d == 0 path
        # through itself): query landmark -> landmark.
        landmarks = cache.oracle.landmarks
        u, v = int(landmarks[0]), int(landmarks[1])
        hit = cache.lookup(distance_query(u, v), now_ms=0.0)
        if hit is not None:  # pinned: must be exact
            expected = int(reference_bfs_levels(graph, u)[v])
            assert hit.distance == expected
        # Every landmark-tier answer across a query stream is exact.
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = (int(x) for x in rng.integers(0, graph.num_vertices,
                                                 size=2))
            got = cache.lookup(distance_query(a, b), 0.0)
            if got is not None and got.served_by == "cache:landmark":
                expect = int(reference_bfs_levels(graph, a)[b])
                want = expect if expect != UNVISITED else -1
                assert got.distance == want

    def test_hub_admission_policy(self, graph):
        cache = LandmarkCache(graph, ServeConfig(num_landmarks=2,
                                                 admit_after=2))
        low = int(graph.out_degrees.argmin())
        assert graph.out_degrees[low] < cache.hub_degree
        levels = reference_bfs_levels(graph, low)
        # Not a hub and never requested: refused.
        assert not cache.admit(low, levels)
        assert cache.stats.admission_refusals == 1
        # Two requests make it popular enough.
        cache.lookup(sptree_query(low), 0.0)
        cache.lookup(sptree_query(low), 0.0)
        assert cache.admit(low, levels)
        assert low in cache

    def test_lru_eviction(self, graph):
        # admit_after=1: one request makes any source admissible.
        cache = LandmarkCache(graph, ServeConfig(num_landmarks=2,
                                                 cache_capacity=2,
                                                 admit_after=1))
        for s in (1, 2):
            cache.lookup(sptree_query(s), 0.0)
            cache.admit(s, reference_bfs_levels(graph, s))
        cache.lookup(sptree_query(1), 0.0)     # touch 1: now MRU
        cache.lookup(sptree_query(3), 0.0)
        cache.admit(3, reference_bfs_levels(graph, 3))
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.stats.evictions == 1

    def test_config_validation(self):
        for bad in (dict(num_landmarks=0), dict(cache_capacity=-1),
                    dict(admit_after=0)):
            with pytest.raises(ValueError):
                ServeConfig(**bad)
            ServeConfig(cache=False, **bad)  # checked with the cache on

    def test_reachability_verdicts_are_sound(self):
        g = powerlaw_graph(200, 4.0, 2.3, 32, seed=5, name="comp")
        cache = LandmarkCache(g, ServeConfig(num_landmarks=6))
        rng = np.random.default_rng(1)
        for _ in range(150):
            u, v = (int(x) for x in rng.integers(0, 200, size=2))
            hit = cache.lookup(reachability_query(u, v), 0.0)
            if hit is not None and hit.served_by == "cache:landmark":
                truth = reference_bfs_levels(g, u)[v] != UNVISITED
                assert hit.reachable == truth


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------

class TestDispatcher:
    def test_waves_balance_across_devices(self, graph):
        group = DeviceGroup(2)
        d = WaveDispatcher(graph, group, ServeConfig())
        d.run_wave(np.array([1, 2, 3]), now_ms=0.0)
        d.run_wave(np.array([4, 5]), now_ms=0.0)
        assert sorted(
            i for o in [d.stats] for i in range(2)
            if d.stats.busy_ms_per_device[i] > 0) == [0, 1]

    def test_timeout_splits_and_recovers(self, graph):
        group = DeviceGroup(2)
        d = WaveDispatcher(graph, group,
                           ServeConfig(timeout_ms=1e-9,
                                       max_retries=1))
        sources = np.array([1, 2, 3, 4])
        outcome = d.run_wave(sources, now_ms=0.0)
        # Every source still answered, despite the straggler split.
        assert sorted(outcome.rows) == [1, 2, 3, 4]
        assert d.stats.timeouts >= 1
        assert d.stats.retries >= 1
        # Retries are bounded: half-waves that still exceed the (absurd)
        # timeout are accepted as deadline misses, not retried forever.
        assert d.stats.deadline_misses >= 1
        for s in outcome.rows:
            assert np.array_equal(outcome.rows[s],
                                  reference_bfs_levels(graph, s))

    def test_no_timeout_path(self, graph):
        group = DeviceGroup(1)
        d = WaveDispatcher(graph, group, ServeConfig(timeout_ms=None))
        outcome = d.run_wave(np.array([7]), now_ms=2.0)
        assert d.stats.timeouts == 0
        assert outcome.completed_ms[7] > 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(timeout_ms=0.0)
        with pytest.raises(ValueError):
            ServeConfig(max_retries=-1)

    def test_cancelled_sweep_charges_only_timeout(self, graph):
        # Regression (cancel semantics): a timed-out sweep that will be
        # retried is cancelled AT the deadline — the device pays only
        # timeout_ms and the retry halves start at the cancel point,
        # not at the discarded sweep's end.
        timeout = 1e-6
        group = DeviceGroup(1)
        d = WaveDispatcher(graph, group,
                           ServeConfig(timeout_ms=timeout,
                                       max_retries=1))
        with tracing() as tracer:
            outcome = d.run_wave(np.array([1, 2]), now_ms=0.0)
        assert sorted(outcome.rows) == [1, 2]
        spans = [s for s in tracer.spans() if s.name.startswith("serve.")]
        cancelled = [s for s in spans
                     if s.args.get("status") == "cancelled"]
        assert len(cancelled) == 1
        assert cancelled[0].dur_ms == pytest.approx(timeout)
        # Both retry halves begin at the cancel point (sequentially on
        # the single device), not after the full discarded sweep.
        halves = sorted((s for s in spans if s is not cancelled[0]),
                        key=lambda s: s.ts_ms)
        assert halves[0].ts_ms == pytest.approx(timeout)
        assert halves[1].ts_ms == pytest.approx(halves[0].end_ms)
        # The device timeline was truncated: a cancelled stub record
        # exists, and the device clock agrees with dispatcher busy time.
        device = group.devices[0]
        assert any(r.label.endswith(":cancelled") for r in device.records)
        assert device.elapsed_ms == pytest.approx(
            sum(d.stats.busy_ms_per_device))
        assert d.makespan_ms == pytest.approx(device.elapsed_ms)

    def test_single_source_straggler_migrates(self, graph):
        # Regression: a width-1 wave cannot split, but its retry budget
        # is usable — the wave migrates whole to another device.
        group = DeviceGroup(2)
        d = WaveDispatcher(graph, group,
                           ServeConfig(timeout_ms=1e-6, max_retries=1))
        outcome = d.run_wave(np.array([5]), now_ms=0.0)
        assert d.stats.retries == 1
        assert d.stats.timeouts == 2       # both attempts exceed 1e-6
        assert d.stats.deadline_misses == 1  # second attempt accepted
        assert sorted(set(outcome.device_indices)) == [0, 1]
        assert np.array_equal(outcome.rows[5],
                              reference_bfs_levels(graph, 5))

    def test_single_source_single_device_accepts_late(self, graph):
        # With nowhere to migrate, the late sweep is accepted once:
        # one timeout, one deadline miss, retry budget untouched.
        group = DeviceGroup(1)
        d = WaveDispatcher(graph, group,
                           ServeConfig(timeout_ms=1e-6, max_retries=3))
        outcome = d.run_wave(np.array([5]), now_ms=0.0)
        assert d.stats.timeouts == 1
        assert d.stats.retries == 0
        assert d.stats.deadline_misses == 1
        assert np.array_equal(outcome.rows[5],
                              reference_bfs_levels(graph, 5))

    def test_busy_accounting_matches_device_group(self, graph):
        # DispatchStats.busy_ms_per_device and DeviceGroup.busy_ms()
        # must agree on the same run — including after cancellations,
        # which truncate the device timeline.
        group = DeviceGroup(2)
        d = WaveDispatcher(graph, group,
                           ServeConfig(timeout_ms=1e-6, max_retries=2))
        d.run_wave(np.array([1, 2, 3, 4]), now_ms=0.0)
        d.run_wave(np.array([5, 6]), now_ms=0.1)
        for busy, device_ms in zip(d.stats.busy_ms_per_device,
                                   group.busy_ms()):
            assert busy == pytest.approx(device_ms)
        util = group.utilization()
        assert len(util) == 2 and max(util) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class TestEngine:
    def test_cache_hits_complete_immediately(self, graph):
        engine = ServeEngine(graph, ServeConfig(deadline_ms=0.1))
        q1 = sptree_query(int(graph.out_degrees.argmax()),
                          arrival_ms=0.0, qid=0)
        assert engine.submit(q1) is None
        engine.drain()
        # Same source again: the admitted row serves it instantly.
        q2 = distance_query(q1.source, 5, arrival_ms=50.0, qid=1)
        hit = engine.submit(q2)
        assert hit is not None and hit.served_by == "cache:row"
        assert hit.latency_ms == pytest.approx(0.0)

    def test_backpressure_rejects_beyond_max_pending(self, graph):
        engine = ServeEngine(
            graph, ServeConfig(cache=False, max_pending=4,
                               batch_sources=64, deadline_ms=1e9,
                               shed_overload=False))
        outcomes = [engine.submit(distance_query(s, 0, arrival_ms=0.0,
                                                 qid=s))
                    for s in range(6)]
        rejected = [r for r in outcomes if r is not None]
        assert len(rejected) == 2
        assert all(r.served_by == "rejected" for r in rejected)
        stats = engine.stats()
        assert stats.rejected == 2

    def test_overload_sheds_lowest_priority_first(self, graph):
        # Same overload as above, but with shedding on (the default):
        # equal-priority traffic sheds the incoming queries, while a
        # high-priority late arrival displaces a pending priority-0 one.
        engine = ServeEngine(
            graph, ServeConfig(cache=False, max_pending=4,
                               batch_sources=64, deadline_ms=1e9))
        for s in range(4):
            assert engine.submit(distance_query(
                s, 0, arrival_ms=0.0, qid=s)) is None
        # Queue full; an equal-priority arrival is itself shed.
        same = engine.submit(distance_query(4, 0, arrival_ms=0.0, qid=4))
        assert same is not None and same.served_by == "shed"
        # A higher-priority arrival displaces the latest priority-0
        # query instead.
        high = engine.submit(distance_query(5, 0, arrival_ms=0.0, qid=5,
                                            priority=1))
        assert high is None
        shed = [r for r in engine.results() if r.served_by == "shed"]
        assert {r.query.qid for r in shed} == {4, 3}
        results = engine.drain()
        stats = engine.stats()
        assert stats.shed == 2
        assert stats.rejected == 0
        served_qids = {r.query.qid for r in results if r.ok}
        assert 5 in served_qids
        # Shed queries are not ok and carry no answer.
        assert all(not r.ok and r.distance is None for r in shed)

    def test_deadline_flush_bounds_latency(self, graph):
        engine = ServeEngine(graph, ServeConfig(cache=False,
                                                deadline_ms=0.5))
        engine.submit(distance_query(1, 2, arrival_ms=0.0, qid=0))
        # Time passes without new arrivals; the deadline fires the wave.
        engine.advance(10.0)
        results = engine.results()
        assert len(results) == 1
        assert results[0].query.qid == 0
        # Queued at 0, flushed at 0.5, plus the wave's sweep time.
        assert results[0].latency_ms < 10.0

    def test_zero_deadline_serves_each_query_immediately(self, graph):
        # Regression: deadline_ms=0 is valid config and must mean "no
        # batching delay" — every submit answers before returning, as
        # its own wave, even though the width trigger never fires.
        engine = ServeEngine(graph, ServeConfig(cache=False,
                                                deadline_ms=0.0,
                                                batch_sources=64))
        for qid, (s, t) in enumerate([(1, 2), (3, 4), (5, 6)]):
            engine.submit(distance_query(s, t, arrival_ms=float(qid),
                                         qid=qid))
            assert len(engine.results()) == qid + 1
            assert engine.batcher.pending_queries == 0
        stats = engine.stats()
        assert stats.dispatch.waves == 3
        assert stats.dispatch.mean_wave_width == 1.0

    def test_width_one_wave_boundary(self, graph):
        engine = ServeEngine(graph, ServeConfig(cache=False,
                                                batch_sources=1,
                                                deadline_ms=1e9))
        for qid in range(3):
            engine.submit(distance_query(qid + 1, 0,
                                         arrival_ms=0.0, qid=qid))
        stats = engine.stats()
        assert stats.served == 3
        assert stats.dispatch.waves == 3
        assert stats.dispatch.mean_wave_width == 1.0

    def test_full_wave_flushes_without_deadline(self, graph):
        engine = ServeEngine(graph, ServeConfig(cache=False,
                                                batch_sources=4,
                                                deadline_ms=1e9))
        for s in range(4):
            engine.submit(distance_query(s, 10, arrival_ms=0.0, qid=s))
        assert len(engine.results()) == 4  # width trigger, no drain
        assert engine.stats().dispatch.waves == 1

    def test_stats_rollup(self, graph):
        trace = synthetic_trace(graph, TraceConfig(num_queries=100,
                                                   seed=2))
        engine = ServeEngine(graph, ServeConfig(num_gpus=2))
        replay(engine, trace)
        s = engine.stats()
        assert s.served == 100
        assert s.warmup_ms > 0          # landmark build charged
        assert s.qps > 0
        assert sum(s.by_kind.values()) == 100
        assert s.latency_percentile(50) <= s.latency_percentile(99)
        row = s.rows()
        assert row["served"] == 100
        assert row["p50_ms"] <= row["p99_ms"]

    def test_observability_instrumentation(self, graph):
        trace = synthetic_trace(graph, TraceConfig(num_queries=60,
                                                   seed=4))
        with tracing(Tracer()) as tracer, \
                collecting(MetricsRegistry()) as registry:
            engine = ServeEngine(graph, ServeConfig())
            replay(engine, trace)
        names = {row["name"] for row in registry.collect()}
        assert "repro.serve.queries" in names
        assert "repro.serve.latency_ms" in names
        assert "repro.serve.waves" in names
        wave_spans = [s for s in tracer.spans() if s.cat == "serve"]
        assert wave_spans, "dispatcher should emit per-wave spans"

    def test_invalid_query_rejected_loudly(self, graph):
        engine = ServeEngine(graph, ServeConfig(cache=False))
        with pytest.raises(ValueError):
            engine.submit(distance_query(10 ** 9, 0))
        with pytest.raises(ValueError):
            engine.submit(distance_query(0, -5))


class TestSPTreeGraph500:
    """SP-tree answers pass the Graph 500 checks, whether a wave
    computed them or the row cache replayed them."""

    @pytest.fixture(params=[False, True], ids=["undirected", "directed"])
    def served(self, request):
        src, dst = kronecker_edges(10, 8, RMAT_ABC, seed=3)
        g = from_edges(src, dst, 1 << 10, directed=request.param,
                       name=f"R-MAT-10 directed={request.param}")
        trace = synthetic_trace(g, TraceConfig(
            num_queries=240, mix=(0.1, 0.1, 0.8), rate_per_ms=32.0,
            seed=5))
        results = replay(ServeEngine(g, ServeConfig(num_gpus=2)), trace)
        trees = [r for r in results if r.query.kind is QueryKind.SPTREE]
        assert {r.served_by for r in trees} == {"wave", "cache:row"}
        return g, trees

    @staticmethod
    def _validate(g, r, parents):
        answer = BFSResult(algorithm=f"serve:{r.served_by}",
                           graph_name=g.name, source=r.query.source,
                           levels=r.levels, parents=parents)
        return graph500_validate(answer, g)

    def test_every_sptree_answer_validates(self, served):
        g, trees = served
        for r in trees:
            report = self._validate(g, r, r.parents)
            assert report.ok, (r.served_by, r.query.source,
                               report.messages)

    @pytest.mark.parametrize("served_by", ["wave", "cache:row"])
    def test_corrupted_parent_is_rejected(self, served, served_by):
        g, trees = served
        r = next(r for r in trees if r.served_by == served_by)
        reached = np.flatnonzero(r.levels > 0)
        assert reached.size
        parents = r.parents.copy()
        v = int(reached[-1])
        parents[v] = v
        assert not self._validate(g, r, parents).ok


# ----------------------------------------------------------------------
# Load generator + bench
# ----------------------------------------------------------------------

class TestLoadgenBench:
    def test_trace_shape_and_determinism(self, graph):
        cfg = TraceConfig(num_queries=50, seed=9)
        t1 = synthetic_trace(graph, cfg)
        t2 = synthetic_trace(graph, cfg)
        assert t1 == t2
        assert len(t1) == 50
        assert all(q.arrival_ms >= 0 for q in t1)
        arrivals = [q.arrival_ms for q in t1]
        assert arrivals == sorted(arrivals)
        kinds = {q.kind for q in t1}
        assert QueryKind.DISTANCE in kinds

    def test_trace_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(num_queries=0)
        with pytest.raises(ValueError):
            TraceConfig(mix=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            TraceConfig(zipf_a=1.0)
        with pytest.raises(ValueError):
            TraceConfig(rate_per_ms=0)

    def test_bench_speedup_and_bit_identical_answers(self):
        # Scale 13 is the smallest R-MAT where wave amortisation clears
        # the acceptance bar; the run is deterministic (simulated clock).
        g = rmat_graph(13, 8, seed=1)
        report = run_serve_bench(
            g,
            trace_config=TraceConfig(num_queries=256, rate_per_ms=512.0,
                                     seed=7),
            config=ServeConfig(num_gpus=2),
            check=True,  # raises on any answer mismatch
        )
        assert report.answers_checked
        assert report.batched.served == 256
        assert report.baseline.served == 256
        # Batched serving must beat one-traversal-per-query clearly.
        assert report.speedup >= 5.0
        rows = report.rows()
        assert {r["mode"] for r in rows} == {"batched", "baseline"}

    def test_check_passes_on_multi_component_graph(self):
        # Regression: the landmark cache must stay exact when the graph
        # is disconnected (unreachable sentinel arithmetic).
        from repro.graph import from_edges

        a = powerlaw_graph(160, 5.0, 2.1, 24, seed=4)
        b = powerlaw_graph(120, 5.0, 2.1, 24, seed=9)
        a_src, a_dst = a.edges()
        b_src, b_dst = b.edges()
        g = from_edges(
            np.concatenate([a_src, b_src + a.num_vertices]),
            np.concatenate([a_dst, b_dst + a.num_vertices]),
            a.num_vertices + b.num_vertices,
            directed=False, name="two-components")
        report = run_serve_bench(
            g,
            trace_config=TraceConfig(num_queries=400, seed=13,
                                     zipf_a=1.1),
            config=ServeConfig(num_gpus=2, num_landmarks=8,
                               admit_after=1),
            check=True,  # raises on any wrong cached answer
        )
        assert report.answers_checked
        # The cache actually participated (hits on both tiers or not,
        # but lookups happened) — the check wasn't vacuous.
        assert report.batched.cache.lookups > 0

    def test_bench_snapshot_roundtrip(self, tmp_path):
        from repro.observ import (
            SNAPSHOT_SCHEMA,
            diff_snapshots,
            load_artifact,
            write_artifact,
        )

        g = rmat_graph(9, 8, seed=2)
        report = run_serve_bench(
            g, trace_config=TraceConfig(num_queries=128, seed=3))
        snap = report.snapshot()
        path = write_artifact(tmp_path / "serve.json", snap)
        again = load_artifact(path, SNAPSHOT_SCHEMA)
        diff = diff_snapshots(again, snap)
        assert diff.ok and not diff.deltas


# ----------------------------------------------------------------------
# Query-scoped observability: trace ids, phases, report
# ----------------------------------------------------------------------

class TestAttribution:
    def _faulty_run(self, graph):
        from repro.faults.plan import profile

        engine = ServeEngine(
            graph,
            ServeConfig(num_gpus=3, timeout_ms=2.0,
                        hedge_threshold_ms=1.5, max_retries=2,
                        faults="flaky"),
            fault_plan=profile("flaky", seed=3))
        trace = synthetic_trace(graph, TraceConfig(num_queries=200,
                                                   rate_per_ms=64.0,
                                                   seed=5))
        results = replay(engine, trace)
        return engine, results

    def test_phase_sums_equal_latency_under_faults(self, graph):
        from repro.serve import PHASES

        _, results = self._faulty_run(graph)
        attributed = [r for r in results if r.ok and r.phases is not None]
        assert attributed, "faulty run should still serve queries"
        for r in attributed:
            assert set(r.phases) <= set(PHASES)
            assert all(v >= 0.0 for v in r.phases.values()), r.phases
            assert abs(sum(r.phases.values()) - r.latency_ms) <= 1e-6

    def test_trace_ids_are_unique_and_stamped(self, graph):
        _, results = self._faulty_run(graph)
        ids = [r.trace_id for r in results]
        assert all(i >= 0 for i in ids)
        assert len(set(ids)) == len(ids)

    def test_cache_hit_phases_mark_cache_path(self, graph):
        engine = ServeEngine(graph, ServeConfig(deadline_ms=0.1))
        q1 = sptree_query(int(graph.out_degrees.argmax()),
                          arrival_ms=0.0, qid=0)
        engine.submit(q1)
        engine.drain()
        hit = engine.submit(distance_query(q1.source, 5,
                                           arrival_ms=50.0, qid=1))
        assert set(hit.phases) == {"queue_wait", "cache_lookup"}
        assert sum(hit.phases.values()) == \
            pytest.approx(hit.latency_ms, abs=1e-9)

    def test_rejected_and_shed_phases(self, graph):
        # Rejection: only queue_wait.  Shed: queue_wait + batch_wait.
        engine = ServeEngine(
            graph, ServeConfig(cache=False, max_pending=2,
                               batch_sources=64, deadline_ms=1e9,
                               shed_overload=False))
        for s in range(3):
            engine.submit(distance_query(s, 0, arrival_ms=0.0, qid=s))
        rej = next(r for r in engine.results()
                   if r.served_by == "rejected")
        assert set(rej.phases) == {"queue_wait"}

        engine = ServeEngine(
            graph, ServeConfig(cache=False, max_pending=2,
                               batch_sources=64, deadline_ms=1e9))
        for s in range(3):
            engine.submit(distance_query(s, 0, arrival_ms=0.0, qid=s))
        shed = next(r for r in engine.results() if r.served_by == "shed")
        assert set(shed.phases) == {"queue_wait", "batch_wait"}

    def test_flow_events_follow_each_query(self, graph):
        from repro.observ import to_chrome_trace, validate_trace

        with tracing(Tracer()) as tracer:
            _, results = self._faulty_run(graph)
        flows = [f for f in tracer.flows() if f.cat == "serve.query"]
        assert flows
        by_id: dict[int, set[str]] = {}
        for f in flows:
            by_id.setdefault(f.flow_id, set()).add(f.ph)
        served_ids = {r.trace_id for r in results if r.ok
                      and r.served_by not in ("cache:row",
                                              "cache:landmark")}
        for tid in served_ids:
            # Every served query's flow opens, starts, and finishes.
            assert {"b", "s", "t", "f", "e"} <= by_id[tid]
        # The assembled document is structurally valid Perfetto input.
        assert validate_trace(to_chrome_trace(tracer)) > 0

    def test_phase_breakdown_table(self, graph):
        from repro.serve import PhaseBreakdown

        _, results = self._faulty_run(graph)
        breakdown = PhaseBreakdown.from_results(results)
        assert len(breakdown) > 0
        assert breakdown.max_sum_error() <= 1e-6
        text = breakdown.to_text()
        assert f"phase breakdown over {len(breakdown)} queries" in text
        assert "dominant" in text
        rows = breakdown.rows()
        assert [r.label for r in rows] == \
            ["p50", "p95", "p99", "mean", "total"]
        for row in rows:
            assert row.dominant in row.phases

    def test_empty_breakdown_renders(self):
        from repro.serve import PhaseBreakdown

        b = PhaseBreakdown()
        assert len(b) == 0
        assert b.rows() == []
        assert "no attributed queries" in b.to_text()


class TestServeReport:
    def test_sections_and_text(self, graph):
        from repro.serve import ServeReport

        engine = ServeEngine(graph, ServeConfig(slo_latency_ms=5.0))
        trace = synthetic_trace(graph, TraceConfig(num_queries=80,
                                                   seed=11))
        replay(engine, trace)
        report = ServeReport.from_engine(engine, title="unit run")
        text = report.to_text()
        assert "== unit run ==" in text
        for section in ("summary", "phase breakdown", "SLO", "devices"):
            assert f"-- {section} --" in text
        assert "SLO 99.900%" in text
        assert "device 0:" in text

    def test_slo_section_when_unconfigured(self, graph):
        from repro.serve import ServeReport

        engine = ServeEngine(graph, ServeConfig())
        replay(engine, synthetic_trace(
            graph, TraceConfig(num_queries=20, seed=1)))
        report = ServeReport.from_engine(engine)
        assert "SLO monitoring: not configured" in report.to_text()

    def test_html_is_self_contained(self, graph, tmp_path):
        from repro.serve import ServeReport

        engine = ServeEngine(graph, ServeConfig(slo_latency_ms=5.0))
        replay(engine, synthetic_trace(
            graph, TraceConfig(num_queries=40, seed=2)))
        report = ServeReport.from_engine(engine, title="html run")
        doc = report.to_html()
        assert doc.startswith("<!DOCTYPE html>")
        assert 'class="badge' in doc
        assert "src=" not in doc and "href=" not in doc  # no assets
        # write() picks the format from the suffix.
        html_path = report.write(tmp_path / "r.html")
        txt_path = report.write(tmp_path / "r.txt")
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        assert txt_path.read_text().startswith("== html run ==")

    def test_histogram_estimates_ride_along(self, graph):
        from repro.observ import collecting
        from repro.serve import ServeReport

        with collecting(MetricsRegistry()):
            engine = ServeEngine(graph, ServeConfig())
            replay(engine, synthetic_trace(
                graph, TraceConfig(num_queries=40, seed=3)))
            report = ServeReport.from_engine(engine)
        assert set(report.histogram_quantiles) == {"p50", "p95", "p99"}
        assert "histogram estimate" in report.to_text()


class TestEmptyStats:
    def test_percentile_of_no_traffic_is_nan(self, graph):
        import math

        stats = ServeEngine(graph, ServeConfig()).stats()
        assert math.isnan(stats.latency_percentile(50))
        row = stats.rows()
        assert row["p50_ms"] == 0.0 and row["p99_ms"] == 0.0

    def test_format_latency_ms(self):
        import math

        from repro.serve import format_latency_ms

        assert format_latency_ms(float("nan")) == "n/a"
        assert format_latency_ms(math.inf) == "n/a"
        assert format_latency_ms(1.25) == "1.2500"


# ----------------------------------------------------------------------
# Locality routing (cluster-style node-grouped device pools)
# ----------------------------------------------------------------------

class TestLocalityRouting:
    def _router(self, graph, num_nodes=2, devices_per_node=2):
        from repro.serve import LocalityRouter
        return LocalityRouter.for_graph(graph, num_nodes, devices_per_node)

    def test_router_shards_cover_the_vertex_range(self, graph):
        r = self._router(graph)
        assert r.num_nodes == 2
        assert r.bounds[0] == 0 and r.bounds[-1] == graph.num_vertices
        assert r.node_of(0) == 0
        assert r.node_of(graph.num_vertices - 1) == r.num_nodes - 1

    def test_majority_node_wins_for_straddling_waves(self, graph):
        r = self._router(graph)
        split = int(r.bounds[1])
        # Two sources on node 1, one on node 0: the wave goes to node 1.
        sources = np.array([0, split, graph.num_vertices - 1])
        assert r.devices_for(sources) == {2, 3}
        assert r.devices_for(np.array([0])) == {0, 1}

    def test_wave_lands_on_the_owning_node(self, graph):
        d = WaveDispatcher(graph, DeviceGroup(4), ServeConfig(),
                           locality=self._router(graph))
        split = int(self._router(graph).bounds[1])
        out = d.run_wave(np.array([split, graph.num_vertices - 1]),
                         now_ms=0.0)
        assert set(out.device_indices) <= {2, 3}
        assert d.stats.locality_hits >= 1
        assert d.stats.locality_misses == 0

    def test_falls_back_when_owning_node_unusable(self, graph):
        d = WaveDispatcher(graph, DeviceGroup(4), ServeConfig(),
                           locality=self._router(graph))
        d.health.mark_lost(2)
        d.health.mark_lost(3)
        out = d.run_wave(np.array([graph.num_vertices - 1]), now_ms=0.0)
        assert set(out.device_indices) <= {0, 1}
        assert d.stats.locality_misses >= 1
        assert d.stats.locality_hits == 0

    def test_routing_changes_placement_not_answers(self, graph):
        d = WaveDispatcher(graph, DeviceGroup(4), ServeConfig(),
                           locality=self._router(graph))
        source = graph.num_vertices - 1
        out = d.run_wave(np.array([source]), now_ms=0.0)
        assert np.array_equal(out.rows[source],
                              reference_bfs_levels(graph, source))

    def test_router_shape_must_cover_the_group(self, graph):
        with pytest.raises(ValueError):
            WaveDispatcher(graph, DeviceGroup(3), ServeConfig(),
                           locality=self._router(graph))

    def test_engine_integration_and_stats(self, graph):
        config = ServeConfig(num_gpus=4, num_nodes=2, locality=True,
                             cache=False)
        engine = ServeEngine(graph, config)
        results = replay(engine, synthetic_trace(
            graph, TraceConfig(num_queries=60, seed=9)))
        assert all(r.ok for r in results)
        row = engine.stats().rows()
        assert row["locality_hits"] + row["locality_misses"] > 0

    def test_engine_rejects_indivisible_node_count(self, graph):
        with pytest.raises(ValueError):
            ServeEngine(graph, ServeConfig(num_gpus=3, num_nodes=2,
                                           locality=True))

    @pytest.mark.parametrize("gpus,nodes,locality", [
        (3, 2, False), (3, 2, True), (4, 0, False), (4, -2, True)])
    def test_config_rejects_a_bad_node_grouping(self, gpus, nodes,
                                                locality):
        # Checked where the config is built, locality or not, so
        # ``serve --nodes`` can never be silently ignored.
        with pytest.raises(ValueError, match="node"):
            ServeConfig(num_gpus=gpus, num_nodes=nodes, locality=locality)
