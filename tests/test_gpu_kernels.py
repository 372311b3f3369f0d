"""Kernel cost model: granularity, divergence, cost-axis behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    CTA_THREADS,
    GRID_THREADS,
    Granularity,
    KEPLER_K40,
    atomic_enqueue_kernel,
    expansion_kernel,
    group_size,
    prefix_sum_kernel,
    sweep_kernel,
)
from repro.gpu.memory import sequential_transactions

SPEC = KEPLER_K40


class TestGroupSize:
    def test_sizes(self):
        assert group_size(Granularity.THREAD, SPEC) == 1
        assert group_size(Granularity.WARP, SPEC) == 32
        assert group_size(Granularity.CTA, SPEC) == CTA_THREADS
        assert group_size(Granularity.GRID, SPEC) == GRID_THREADS


class TestExpansionKernel:
    def test_empty(self):
        k = expansion_kernel(np.array([]), Granularity.WARP, SPEC)
        assert k.time_ms == 0.0 and k.lane_steps == 0

    def test_useful_equals_workload_sum(self):
        w = np.array([3, 10, 40])
        k = expansion_kernel(w, Granularity.WARP, SPEC)
        assert k.useful_lane_steps == 53

    def test_warp_waste_on_small_frontiers(self):
        """A warp on a degree-3 frontier burns 29 idle lane-slots —
        Challenge #2's mismatch."""
        k = expansion_kernel(np.array([3]), Granularity.WARP, SPEC)
        assert k.wasted_lane_steps == 29
        assert k.simt_efficiency == pytest.approx(3 / 32)

    def test_cta_on_small_frontier_wastes_more(self):
        """'more than 200 threads in this CTA would have no work to do'"""
        k = expansion_kernel(np.array([20]), Granularity.CTA, SPEC)
        assert k.wasted_lane_steps == CTA_THREADS - 20

    def test_thread_granularity_divergence(self):
        """32 thread-granularity frontiers share one warp and run at the
        slowest lane's pace (§2.2 branch divergence)."""
        w = np.ones(32, dtype=np.int64)
        w[0] = 10
        k = expansion_kernel(w, Granularity.THREAD, SPEC)
        assert k.lane_steps == 10 * 32
        assert k.useful_lane_steps == int(w.sum())

    def test_matched_granularity_beats_mismatched(self):
        """WB's premise: thread-granularity for small frontiers is
        cheaper than a warp each."""
        rng = np.random.default_rng(1)
        w = rng.integers(1, 8, size=20_000)
        thread = expansion_kernel(w, Granularity.THREAD, SPEC)
        warp = expansion_kernel(w, Granularity.WARP, SPEC)
        assert thread.time_ms < warp.time_ms

    def test_grid_beats_cta_for_extreme_vertex(self):
        """§4.2: a 2.5M-edge vertex needs >10,000 CTA iterations; the
        Grid kernel collapses the critical path (1.6x on KR0)."""
        w = np.array([2_500_000])
        cta = expansion_kernel(w, Granularity.CTA, SPEC)
        grid = expansion_kernel(w, Granularity.GRID, SPEC)
        assert grid.time_ms < cta.time_ms

    def test_locality_reduces_transactions(self):
        w = np.full(1000, 16)
        scattered = expansion_kernel(w, Granularity.WARP, SPEC,
                                     neighbor_locality=0.0)
        local = expansion_kernel(w, Granularity.WARP, SPEC,
                                 neighbor_locality=0.9)
        assert local.access.transactions < scattered.access.transactions
        assert local.time_ms <= scattered.time_ms

    def test_traffic_never_grows_with_locality(self):
        """One more coalesced lookup at a time, across every line edge."""
        w = np.array([68])
        ks = [expansion_kernel(w, Granularity.WARP, SPEC,
                               neighbor_locality=c / 68)
              for c in range(69)]
        tx = [k.access.transactions for k in ks]
        moved = [k.access.bytes_moved for k in ks]
        assert tx == sorted(tx, reverse=True)
        assert moved == sorted(moved, reverse=True)

    def test_shared_hits_reduce_global_traffic(self):
        """HC's mechanism: cache-served lookups leave global memory."""
        w = np.full(2000, 8)
        cold = expansion_kernel(w, Granularity.THREAD, SPEC, shared_hits=0)
        warm = expansion_kernel(w, Granularity.THREAD, SPEC,
                                shared_hits=8000)
        assert warm.access.transactions < cold.access.transactions
        assert warm.time_ms <= cold.time_ms

    def test_shared_hits_capped_at_useful(self):
        w = np.array([4])
        k = expansion_kernel(w, Granularity.THREAD, SPEC, shared_hits=999)
        assert k.access.transactions >= 1  # adjacency read remains

    def test_metrics_in_range(self):
        w = np.random.default_rng(0).integers(1, 100, 500)
        k = expansion_kernel(w, Granularity.WARP, SPEC)
        assert 0.0 <= k.ldst_utilization <= 1.0
        assert 0.0 <= k.stall_data_request <= 1.0
        assert k.ipc >= 0.0
        assert k.time_ms > 0.0


class TestSweepKernel:
    def test_all_useful_by_default(self):
        acc = sequential_transactions(1000, 1, SPEC)
        k = sweep_kernel(1000, acc, SPEC)
        assert k.wasted_lane_steps == 0

    def test_bl_cta_sweep_waste(self):
        """The BL baseline's one-CTA-per-vertex sweep: n*256 lane-slots
        for only frontier-count useful elements (Fig. 1(c) gray threads)."""
        acc = sequential_transactions(1000, 1, SPEC)
        k = sweep_kernel(1000, acc, SPEC, useful_elements=90,
                         group=CTA_THREADS)
        assert k.lane_steps == 1000 * CTA_THREADS
        assert k.useful_lane_steps == 90
        assert k.simt_efficiency < 0.001

    def test_group_sweep_slower_than_flat(self):
        acc = sequential_transactions(4000, 1, SPEC)
        flat = sweep_kernel(4000, acc, SPEC)
        grouped = sweep_kernel(4000, acc, SPEC, useful_elements=10,
                               group=CTA_THREADS)
        assert grouped.time_ms > flat.time_ms

    def test_empty(self):
        acc = sequential_transactions(0, 1, SPEC)
        assert sweep_kernel(0, acc, SPEC).time_ms == 0.0


class TestPrefixSum:
    def test_scales_with_bins(self):
        small = prefix_sum_kernel(64, SPEC)
        large = prefix_sum_kernel(1 << 16, SPEC)
        assert large.time_ms > small.time_ms

    def test_zero(self):
        assert prefix_sum_kernel(0, SPEC).time_ms == 0.0

    def test_cheap_relative_to_expansion(self):
        """Queue generation is ~11% of runtime in the paper; the prefix
        sum over CTA partials must be a small cost."""
        ps = prefix_sum_kernel(256, SPEC)
        big = expansion_kernel(np.full(10_000, 20), Granularity.WARP, SPEC)
        assert ps.time_ms < 0.2 * big.time_ms


class TestAtomicEnqueue:
    def test_zero(self):
        assert atomic_enqueue_kernel(0, 0, SPEC).time_ms == 0.0

    def test_duplicates_cost_more(self):
        clean = atomic_enqueue_kernel(1000, 1000, SPEC)
        contended = atomic_enqueue_kernel(5000, 1000, SPEC)
        assert contended.time_ms > clean.time_ms
        assert contended.wasted_lane_steps == 4000

    def test_atomics_beaten_by_scan(self):
        """§2.1: atomic queue generation is the slow path TS replaces."""
        atomics = atomic_enqueue_kernel(50_000, 40_000, SPEC)
        acc = sequential_transactions(50_000, 8, SPEC)
        scan = sweep_kernel(50_000, acc, SPEC)
        assert atomics.time_ms > scan.time_ms


@given(
    w=st.lists(st.integers(1, 500), min_size=1, max_size=200),
    gran=st.sampled_from(list(Granularity)),
)
@settings(max_examples=60, deadline=None)
def test_expansion_invariants(w, gran):
    k = expansion_kernel(np.array(w), gran, SPEC)
    assert k.useful_lane_steps == sum(w)
    assert k.wasted_lane_steps >= 0
    assert k.time_ms > 0.0
    assert k.memory_time_ms <= k.time_ms + 1e-9
    assert k.access.transactions > 0


@given(w=st.lists(st.integers(1, 32), min_size=32, max_size=128))
@settings(max_examples=40, deadline=None)
def test_waste_ordering_by_granularity(w):
    """For warp-aligned batches of SmallQueue-sized frontiers (degree
    <= 32), coarser granularity never reduces lane waste.  (A *partial*
    warp of thread-granularity frontiers can lose to a single warp — the
    reason SmallQueue batches frontiers, not the exception.)"""
    w = np.array(w[: 32 * (len(w) // 32)])  # whole warps only
    thread = expansion_kernel(w, Granularity.THREAD, SPEC)
    warp = expansion_kernel(w, Granularity.WARP, SPEC)
    cta = expansion_kernel(w, Granularity.CTA, SPEC)
    assert thread.wasted_lane_steps <= warp.wasted_lane_steps \
        <= cta.wasted_lane_steps
