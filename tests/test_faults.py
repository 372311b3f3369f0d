"""Fault injection and resilience: plans, injector, health, chaos."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import reference_bfs_levels
from repro.faults import FaultInjector, FaultPlan, PROFILES, profile
from repro.faults.harness import run_chaos_matrix
from repro.gpu import DeviceGroup, GPUDevice
from repro.gpu.kernels import sweep_kernel
from repro.gpu.memory import sequential_transactions
from repro.graph import powerlaw_graph, rmat_graph
from repro.serve import (
    DeviceHealth,
    DispatchConfig,
    ResilienceConfig,
    ServeConfig,
    ServeEngine,
    TraceConfig,
    WaveDispatcher,
    replay,
    run_serve_bench,
    synthetic_trace,
)


@pytest.fixture
def graph():
    return powerlaw_graph(400, 6.0, 2.1, 48, seed=21, name="faults-g")


# ----------------------------------------------------------------------
# Plans and profiles
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_null_plan(self):
        plan = FaultPlan()
        assert plan.is_null
        assert plan.slowdown_for(0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(stragglers={0: 0.5})
        with pytest.raises(ValueError):
            FaultPlan(stragglers={-1: 2.0})
        with pytest.raises(ValueError):
            FaultPlan(device_loss={0: -1.0})
        with pytest.raises(ValueError):
            FaultPlan(wave_failure_p=1.0)
        with pytest.raises(ValueError):
            FaultPlan(bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            FaultPlan(bandwidth_factor=1.5)

    def test_plan_mappings_frozen(self):
        plan = FaultPlan(stragglers={1: 2.0})
        with pytest.raises(TypeError):
            plan.stragglers[1] = 8.0

    def test_scale_interconnect(self):
        from repro.gpu import PCIE_GEN3_X16

        degraded = FaultPlan(bandwidth_factor=0.25).scale_interconnect(
            PCIE_GEN3_X16)
        assert degraded.bandwidth_gbps == pytest.approx(
            PCIE_GEN3_X16.bandwidth_gbps * 0.25)
        assert degraded.latency_us == PCIE_GEN3_X16.latency_us
        # A clean plan returns the spec unchanged.
        assert FaultPlan().scale_interconnect(PCIE_GEN3_X16) \
            is PCIE_GEN3_X16

    def test_named_profiles(self):
        assert "none" in PROFILES and "chaos" in PROFILES
        assert profile("none").is_null
        chaos = profile("chaos", seed=3)
        assert chaos.seed == 3
        assert chaos.wave_failure_p == pytest.approx(0.10)
        assert chaos.device_loss and chaos.stragglers
        with pytest.raises(ValueError):
            profile("meteor-strike")


class TestInjector:
    def test_deterministic_failure_stream(self):
        plan = FaultPlan(wave_failure_p=0.3, seed=11)
        i1, i2 = FaultInjector(plan, 2), FaultInjector(plan, 2)
        seq1 = [i1.wave_fails() for _ in range(50)]
        seq2 = [i2.wave_fails() for _ in range(50)]
        assert seq1 == seq2
        assert any(seq1) and not all(seq1)
        assert i1.failures_drawn == sum(seq1)

    def test_zero_probability_never_fails(self):
        inj = FaultInjector(FaultPlan(), 2)
        assert not any(inj.wave_fails() for _ in range(100))

    def test_death_clipped_to_group(self):
        plan = FaultPlan(device_loss={1: 5.0, 9: 1.0})
        inj = FaultInjector(plan, 2)
        assert inj.death_ms(1) == 5.0
        assert inj.death_ms(0) is None
        assert inj.death_ms(9) is None  # beyond group size: ignored

    def test_needs_a_device(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), 0)


# ----------------------------------------------------------------------
# Substrate wiring: slowdown + truncation
# ----------------------------------------------------------------------

class TestDeviceFaults:
    def test_slowdown_scales_launches(self):
        fast, slow = GPUDevice(), GPUDevice(slowdown=4.0)
        access = sequential_transactions(4096, 4, fast.spec)
        k = sweep_kernel(4096, access, fast.spec)
        fast.launch(k)
        slow.launch(k)
        assert fast.elapsed_ms > 0
        assert slow.elapsed_ms == pytest.approx(4 * fast.elapsed_ms)
        slow.charge("xfer", 1.0)
        assert slow.elapsed_ms == pytest.approx(4 * fast.elapsed_ms + 4.0)

    def test_slowdown_validation(self):
        with pytest.raises(ValueError):
            GPUDevice(slowdown=0.5)

    def test_truncate_to_cancels_tail(self):
        d = GPUDevice()
        d.charge("a", 1.0)
        d.charge("b", 1.0)
        d.charge("c", 1.0)
        cancelled = d.truncate_to(1.5)
        assert cancelled == pytest.approx(1.5)
        assert d.elapsed_ms == pytest.approx(1.5)
        labels = [r.label for r in d.records]
        assert labels == ["a", "b:cancelled"]

    def test_truncate_noop_when_within_budget(self):
        d = GPUDevice()
        d.charge("a", 1.0)
        assert d.truncate_to(2.0) == 0.0
        assert d.elapsed_ms == pytest.approx(1.0)
        with pytest.raises(ValueError):
            d.truncate_to(-1.0)


# ----------------------------------------------------------------------
# Resilience policy
# ----------------------------------------------------------------------

class TestDeviceHealth:
    def test_exponential_backoff_quarantine(self):
        cfg = ResilienceConfig(backoff_base_ms=1.0, backoff_factor=2.0,
                               backoff_max_ms=8.0)
        h = DeviceHealth(2, cfg)
        assert h.report_failure(0, now_ms=0.0) == 1.0
        assert h.quarantined(0, 0.5)
        assert not h.quarantined(0, 1.5)
        assert h.report_failure(0, 2.0) == 2.0
        assert h.report_failure(0, 2.0) == 4.0
        assert h.report_failure(0, 2.0) == 8.0
        assert h.report_failure(0, 2.0) == 8.0  # capped
        assert h.quarantines == 5
        h.report_success(0)
        assert h.report_failure(0, 100.0) == 1.0  # streak reset

    def test_lost_devices_leave_pool_forever(self):
        h = DeviceHealth(3)
        h.mark_lost(1)
        assert h.is_lost(1)
        assert h.alive() == [0, 2]
        assert not h.quarantined(1, 0.0)  # lost, not quarantined
        assert h.placement_pool(0.0) == [0, 2]

    def test_pool_prefers_healthy_falls_back_to_quarantined(self):
        h = DeviceHealth(2)
        h.report_failure(0, 0.0)
        assert h.placement_pool(0.0) == [1]
        h.report_failure(1, 0.0)
        # Everything quarantined: fall back to all alive devices.
        assert h.placement_pool(0.0) == [0, 1]

    def test_config_validation(self):
        for bad in (dict(backoff_base_ms=0.0),
                    dict(backoff_factor=0.5),
                    dict(backoff_max_ms=0.5),
                    dict(hedge_threshold_ms=0.0),
                    dict(max_failovers=-1)):
            with pytest.raises(ValueError):
                ResilienceConfig(**bad)
        with pytest.raises(ValueError):
            DeviceHealth(0)


# ----------------------------------------------------------------------
# Dispatcher under faults
# ----------------------------------------------------------------------

class TestDispatcherFaults:
    def test_transient_failures_fail_over_and_stay_exact(self, graph):
        plan = FaultPlan(wave_failure_p=0.5, seed=5)
        group = DeviceGroup(2, fault_plan=plan)
        d = WaveDispatcher(graph, group, DispatchConfig(),
                           injector=FaultInjector(plan, 2))
        for wave_id in range(6):
            sources = np.array([2 * wave_id + 1, 2 * wave_id + 2])
            outcome = d.run_wave(sources, now_ms=float(wave_id))
            for s in outcome.rows:
                assert np.array_equal(outcome.rows[s],
                                      reference_bfs_levels(graph, s))
        assert d.stats.wave_failures > 0
        assert d.stats.failovers == d.stats.wave_failures
        assert d.health.quarantines == d.stats.wave_failures

    def test_failover_cap_accepts_eventually(self, graph):
        # p -> 1 would starve a wave forever without the failover cap.
        plan = FaultPlan(wave_failure_p=0.999, seed=1)
        group = DeviceGroup(2, fault_plan=plan)
        d = WaveDispatcher(graph, group, DispatchConfig(),
                           resilience=ResilienceConfig(max_failovers=3),
                           injector=FaultInjector(plan, 2))
        outcome = d.run_wave(np.array([3]), now_ms=0.0)
        assert 3 in outcome.rows
        assert d.stats.failovers <= 3

    def test_device_loss_before_start_reroutes(self, graph):
        plan = FaultPlan(device_loss={0: 0.0}, seed=2)
        group = DeviceGroup(2, fault_plan=plan)
        d = WaveDispatcher(graph, group, DispatchConfig(),
                           injector=FaultInjector(plan, 2))
        outcome = d.run_wave(np.array([1, 2]), now_ms=1.0)
        assert d.stats.devices_lost == 1
        assert d.health.alive() == [1]
        assert set(outcome.device_indices) == {1}
        assert sorted(outcome.rows) == [1, 2]

    def test_device_loss_mid_sweep_pays_partial_and_fails_over(self, graph):
        # Death lands strictly inside the first sweep's window.
        probe_group = DeviceGroup(1)
        probe = WaveDispatcher(graph, probe_group)
        probe.run_wave(np.array([1, 2]), now_ms=0.0)
        full_ms = probe_group.busy_ms()[0]

        plan = FaultPlan(device_loss={0: full_ms / 2}, seed=2)
        group = DeviceGroup(2, fault_plan=plan)
        d = WaveDispatcher(graph, group, DispatchConfig(),
                           injector=FaultInjector(plan, 2))
        outcome = d.run_wave(np.array([1, 2]), now_ms=0.0)
        assert d.stats.devices_lost == 1
        assert d.stats.failovers == 1
        # The dead device paid only up to its death...
        assert d.stats.busy_ms_per_device[0] == pytest.approx(full_ms / 2)
        assert group.busy_ms()[0] == pytest.approx(full_ms / 2)
        # ...and the answers still arrived, from the survivor.
        assert sorted(outcome.rows) == [1, 2]
        assert outcome.device_indices == [0, 1]

    def test_last_device_is_immortal(self, graph):
        plan = FaultPlan(device_loss={0: 0.0}, seed=2)
        group = DeviceGroup(1, fault_plan=plan)
        d = WaveDispatcher(graph, group, DispatchConfig(),
                           injector=FaultInjector(plan, 1))
        outcome = d.run_wave(np.array([4]), now_ms=10.0)
        assert d.stats.devices_lost == 0
        assert 4 in outcome.rows

    def test_hedging_duplicates_slow_waves(self, graph):
        group = DeviceGroup(2)
        d = WaveDispatcher(
            graph, group, DispatchConfig(),
            resilience=ResilienceConfig(hedge_threshold_ms=1e-9))
        outcome = d.run_wave(np.array([1, 2]), now_ms=0.0)
        assert d.stats.hedges == 1
        assert sorted(set(outcome.device_indices)) == [0, 1]
        # The hedge cannot make completion later than the primary.
        primary_end = d.stats.busy_ms_per_device[0]
        assert outcome.completed_ms[1] <= primary_end + 1e-12
        for s in outcome.rows:
            assert np.array_equal(outcome.rows[s],
                                  reference_bfs_levels(graph, s))

    def test_straggler_slows_schedule_but_not_answers(self, graph):
        plan = FaultPlan(stragglers={0: 4.0})
        group = DeviceGroup(1, fault_plan=plan)
        d = WaveDispatcher(graph, group)
        outcome = d.run_wave(np.array([7]), now_ms=0.0)
        clean_group = DeviceGroup(1)
        clean = WaveDispatcher(graph, clean_group)
        clean_outcome = clean.run_wave(np.array([7]), now_ms=0.0)
        assert d.makespan_ms == pytest.approx(4 * clean.makespan_ms)
        assert np.array_equal(outcome.rows[7], clean_outcome.rows[7])


# ----------------------------------------------------------------------
# Engine + chaos matrix
# ----------------------------------------------------------------------

class TestChaos:
    def test_engine_under_chaos_profile_stays_exact(self, graph):
        config = ServeConfig(num_gpus=3, faults="chaos", timeout_ms=2.0,
                             hedge_threshold_ms=1.5)
        engine = ServeEngine(graph, config)
        trace = synthetic_trace(graph, TraceConfig(num_queries=150,
                                                   rate_per_ms=32.0,
                                                   seed=9))
        results = replay(engine, trace)
        served = 0
        for r in results:
            if r.ok and r.query.kind.name == "DISTANCE":
                # UNVISITED and UNREACHABLE are both -1, so the level
                # entry is directly comparable to the served distance.
                levels = reference_bfs_levels(graph, r.query.source)
                assert r.distance == int(levels[r.query.target])
                served += 1
        assert served > 0

    def test_chaos_matrix_all_profiles_exact(self):
        g = rmat_graph(8, 8, seed=3)
        report = run_chaos_matrix(
            g,
            trace_config=TraceConfig(num_queries=300, rate_per_ms=64.0,
                                     seed=11, priority_levels=2),
            config=ServeConfig(num_gpus=3, timeout_ms=2.0,
                               hedge_threshold_ms=1.5))
        assert report.ok
        assert len(report.cases) == len(PROFILES)
        names = {case.plan.name for case in report.cases}
        assert names == set(PROFILES)
        for case in report.cases:
            assert case.compared > 0
            assert case.mismatches == 0
            assert case.row()["exact"] == 1

    def test_chaos_snapshot_diffs_clean_and_deterministic(self, tmp_path):
        from repro.observ import (
            SNAPSHOT_SCHEMA,
            diff_snapshots,
            load_artifact,
            write_artifact,
        )

        g = rmat_graph(8, 8, seed=3)
        kwargs = dict(
            trace_config=TraceConfig(num_queries=200, rate_per_ms=64.0,
                                     seed=4),
            config=ServeConfig(num_gpus=3, timeout_ms=2.0))
        plans = [profile("none"), profile("chaos")]
        snap1 = run_chaos_matrix(g, plans, **kwargs).snapshot()
        path = write_artifact(tmp_path / "chaos.json", snap1)
        snap2 = run_chaos_matrix(g, plans, **kwargs).snapshot()
        diff = diff_snapshots(load_artifact(path, SNAPSHOT_SCHEMA), snap2)
        assert diff.ok and not diff.deltas

    def test_serve_bench_applies_faults_to_batched_only(self, graph):
        report = run_serve_bench(
            graph,
            trace_config=TraceConfig(num_queries=120, rate_per_ms=32.0,
                                     seed=6),
            config=ServeConfig(num_gpus=2),
            check=True,
            fault_plan=profile("straggler"))
        assert report.answers_checked
        # The baseline ran fault-free (no devices lost, no failovers).
        assert report.baseline.dispatch.failovers == 0
        assert report.baseline.dispatch.devices_lost == 0
