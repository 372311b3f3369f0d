"""Hardware counters aggregation and the power model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import (
    CounterSet,
    Granularity,
    KEPLER_K40,
    aggregate_counters,
    expansion_kernel,
    power_watts,
    sweep_kernel,
)
from repro.gpu.kernels import CTA_THREADS
from repro.gpu.memory import sequential_transactions

SPEC = KEPLER_K40


def _busy_kernel():
    return expansion_kernel(np.full(20_000, 12), Granularity.THREAD, SPEC)


def _wasteful_kernel():
    acc = sequential_transactions(20_000, 1, SPEC)
    return sweep_kernel(20_000, acc, SPEC, useful_elements=50,
                        group=CTA_THREADS)


class TestPowerModel:
    def test_idle_floor(self):
        p = power_watts(SPEC, resident_fill=0.0, ldst_utilization=0.0,
                        issue_utilization=0.0)
        assert p == pytest.approx(SPEC.idle_power_w)

    def test_full_activity_hits_tdp(self):
        p = power_watts(SPEC, resident_fill=1.0, ldst_utilization=1.0,
                        issue_utilization=1.0)
        assert p == pytest.approx(SPEC.tdp_w)

    def test_monotone_in_resident_fill(self):
        """The Fig. 16(d) mechanism: keeping the device saturated with
        threads — busy or not — burns power."""
        lo = power_watts(SPEC, resident_fill=0.2, ldst_utilization=0.5,
                         issue_utilization=0.1)
        hi = power_watts(SPEC, resident_fill=0.9, ldst_utilization=0.5,
                         issue_utilization=0.1)
        assert hi > lo

    def test_inputs_clamped(self):
        p = power_watts(SPEC, resident_fill=5.0, ldst_utilization=-1.0,
                        issue_utilization=2.0)
        assert SPEC.idle_power_w <= p <= SPEC.tdp_w


class TestAggregation:
    def test_empty(self):
        c = aggregate_counters([], SPEC)
        assert c.gld_transactions == 0
        assert c.elapsed_ms == 0.0

    def test_sums_transactions(self):
        k1, k2 = _busy_kernel(), _wasteful_kernel()
        c = aggregate_counters([k1, k2], SPEC)
        assert c.gld_transactions == (k1.access.transactions
                                      + k2.access.transactions)

    def test_metrics_in_range(self):
        c = aggregate_counters([_busy_kernel(), _wasteful_kernel()], SPEC)
        assert 0.0 <= c.ldst_fu_utilization <= 1.0
        assert 0.0 <= c.stall_data_request <= 1.0
        assert c.ipc >= 0.0
        assert SPEC.idle_power_w <= c.power_w <= SPEC.tdp_w

    def test_simt_efficiency(self):
        c = aggregate_counters([_wasteful_kernel()], SPEC)
        assert c.simt_efficiency < 0.01
        c2 = aggregate_counters([_busy_kernel()], SPEC)
        assert c2.simt_efficiency > c.simt_efficiency

    def test_overlap_raises_utilisation(self):
        """nvprof under Hyper-Q sees the same work in less wall time —
        utilisation and IPC rise, which is Fig. 16's TS/WB effect."""
        ks = [_busy_kernel(), _busy_kernel()]
        serial = aggregate_counters(ks, SPEC)
        overlapped = aggregate_counters(ks, SPEC,
                                        elapsed_ms=serial.elapsed_ms / 2)
        assert overlapped.ldst_fu_utilization >= serial.ldst_fu_utilization
        assert overlapped.ipc > serial.ipc

    def test_energy(self):
        c = aggregate_counters([_busy_kernel()], SPEC)
        assert c.energy_j == pytest.approx(c.power_w * c.elapsed_ms * 1e-3)


class TestEdgeCases:
    """Degenerate inputs the aggregation must survive: zero wall time,
    lane-step-free counter sets, and out-of-range power activity."""

    def test_zero_wall_time_aggregation(self):
        """Kernels may all carry time_ms == 0 (e.g. empty launches); the
        aggregate degrades to idle power, zero elapsed, zero rates."""
        empty = expansion_kernel(np.empty(0, dtype=np.int64),
                                 Granularity.WARP, SPEC)
        assert empty.time_ms == 0.0
        c = aggregate_counters([empty, empty], SPEC)
        assert c.elapsed_ms == 0.0
        assert c.ldst_fu_utilization == 0.0
        assert c.stall_data_request == 0.0
        assert c.ipc == 0.0
        assert c.power_w == pytest.approx(SPEC.idle_power_w)
        assert c.energy_j == 0.0

    def test_zero_wall_time_override(self):
        """An explicit elapsed_ms=0 (degenerate Hyper-Q window) must not
        divide by zero even when the kernels themselves took time."""
        c = aggregate_counters([_busy_kernel()], SPEC, elapsed_ms=0.0)
        assert c.elapsed_ms == 0.0
        assert c.ipc == 0.0
        assert c.power_w == pytest.approx(SPEC.idle_power_w)

    def test_simt_efficiency_no_lane_steps(self):
        """With zero useful and zero wasted lane steps the convention is
        100% efficiency (nothing was wasted)."""
        c = CounterSet(gld_transactions=0, ldst_fu_utilization=0.0,
                       stall_data_request=0.0, ipc=0.0,
                       power_w=SPEC.idle_power_w, elapsed_ms=0.0,
                       instructions=0, useful_lane_steps=0,
                       wasted_lane_steps=0)
        assert c.simt_efficiency == 1.0

    def test_simt_efficiency_all_wasted(self):
        c = CounterSet(0, 0.0, 0.0, 0.0, SPEC.idle_power_w, 1.0,
                       instructions=10, useful_lane_steps=0,
                       wasted_lane_steps=10)
        assert c.simt_efficiency == 0.0

    @pytest.mark.parametrize("fill,ldst,issue", [
        (-0.5, 0.5, 0.5), (1.5, 0.5, 0.5),
        (0.5, -2.0, 0.5), (0.5, 3.0, 0.5),
        (0.5, 0.5, -1.0), (0.5, 0.5, 9.0),
        (-1.0, -1.0, -1.0), (2.0, 2.0, 2.0),
    ])
    def test_power_clamps_each_activity_factor(self, fill, ldst, issue):
        p = power_watts(SPEC, resident_fill=fill, ldst_utilization=ldst,
                        issue_utilization=issue)
        assert SPEC.idle_power_w <= p <= SPEC.tdp_w

    def test_power_clamped_extremes_match_bounds(self):
        low = power_watts(SPEC, resident_fill=-9.0, ldst_utilization=-9.0,
                          issue_utilization=-9.0)
        high = power_watts(SPEC, resident_fill=9.0, ldst_utilization=9.0,
                           issue_utilization=9.0)
        assert low == pytest.approx(SPEC.idle_power_w)
        assert high == pytest.approx(SPEC.tdp_w)


class TestDegenerateAggregations:
    """Empty / zero-time kernel sets are well-defined zeros, never NaN
    (they feed straight into snapshots and profiles)."""

    def _assert_idle(self, c, elapsed):
        assert c.elapsed_ms == elapsed
        assert c.ldst_fu_utilization == 0.0
        assert c.stall_data_request == 0.0
        assert c.ipc == 0.0
        assert c.power_w == pytest.approx(SPEC.idle_power_w)
        assert c.simt_efficiency == 1.0
        assert c.energy_j == pytest.approx(SPEC.idle_power_w * elapsed
                                           * 1e-3)
        for v in (c.ldst_fu_utilization, c.stall_data_request, c.ipc,
                  c.power_w, c.elapsed_ms, c.energy_j):
            assert np.isfinite(v)

    def test_empty_kernel_list(self):
        self._assert_idle(aggregate_counters([], SPEC), 0.0)

    def test_empty_kernel_list_keeps_observed_wall_time(self):
        """A caller who watched 5 ms of wall with nothing running gets
        an idle 5 ms CounterSet, not a zero-elapsed one."""
        self._assert_idle(aggregate_counters([], SPEC, elapsed_ms=5.0),
                          5.0)

    def test_zero_time_kernels_keep_observed_wall_time(self):
        from dataclasses import replace
        ghost = replace(_busy_kernel(), time_ps=0)
        c = aggregate_counters([ghost, ghost], SPEC, elapsed_ms=2.5)
        self._assert_idle(c, 2.5)

    def test_negative_elapsed_clamped_to_zero(self):
        self._assert_idle(aggregate_counters([], SPEC, elapsed_ms=-1.0),
                          0.0)
