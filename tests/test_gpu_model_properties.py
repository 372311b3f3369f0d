"""Property-based invariants of the GPU cost model.

These pin the *qualitative physics* the reproduction's conclusions rest
on: more work never costs less, better locality never costs more, cache
hits never add traffic, and the counters stay in their physical ranges.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import (
    Granularity,
    KEPLER_K40,
    aggregate_counters,
    expansion_kernel,
    overlap_kernels,
    sweep_kernel,
)
from repro.gpu.memory import sequential_transactions

SPEC = KEPLER_K40

workload_lists = st.lists(st.integers(1, 2000), min_size=1, max_size=150)


@given(w=workload_lists, gran=st.sampled_from(list(Granularity)))
@settings(max_examples=50, deadline=None)
def test_more_work_never_cheaper(w, gran):
    base = expansion_kernel(np.array(w), gran, SPEC)
    heavier = expansion_kernel(np.array(w) * 2, gran, SPEC)
    assert heavier.time_ms >= base.time_ms * 0.999
    assert heavier.access.transactions >= base.access.transactions


@given(w=workload_lists,
       loc=st.floats(0.0, 1.0), loc2=st.floats(0.0, 1.0))
# 14 vs 17 coalesced lookups: the 17th opens a second, mostly empty line.
@example(w=[68], loc=0.25, loc2=0.21875)
@settings(max_examples=50, deadline=None)
def test_locality_monotone(w, loc, loc2):
    lo, hi = sorted((loc, loc2))
    k_lo = expansion_kernel(np.array(w), Granularity.WARP, SPEC,
                            neighbor_locality=lo)
    k_hi = expansion_kernel(np.array(w), Granularity.WARP, SPEC,
                            neighbor_locality=hi)
    assert k_hi.access.transactions <= k_lo.access.transactions
    assert k_hi.access.bytes_moved <= k_lo.access.bytes_moved


@given(w=workload_lists, hits=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_cache_hits_monotone(w, hits):
    cold = expansion_kernel(np.array(w), Granularity.THREAD, SPEC)
    warm = expansion_kernel(np.array(w), Granularity.THREAD, SPEC,
                            shared_hits=hits)
    assert warm.access.transactions <= cold.access.transactions
    assert warm.time_ms <= cold.time_ms * 1.0001


@given(w=workload_lists)
@settings(max_examples=40, deadline=None)
def test_overlap_bounded(w):
    ks = [expansion_kernel(np.array(w), g, SPEC)
          for g in (Granularity.THREAD, Granularity.WARP, Granularity.CTA)]
    res = overlap_kernels(ks, SPEC)
    assert max(k.time_ms for k in ks) <= res.elapsed_ms * 1.0001
    assert res.elapsed_ms <= sum(k.time_ms for k in ks) * 1.0001


@given(
    elements=st.integers(1, 200_000),
    useful=st.integers(0, 200_000),
    group=st.sampled_from([1, 32, 256]),
)
@settings(max_examples=50, deadline=None)
def test_sweep_invariants(elements, useful, group):
    useful = min(useful, elements)
    acc = sequential_transactions(elements, 1, SPEC)
    k = sweep_kernel(elements, acc, SPEC, useful_elements=useful,
                     group=group)
    assert k.time_ms > 0
    assert k.lane_steps == elements * group
    assert 0.0 <= k.simt_efficiency <= 1.0


@given(w=workload_lists)
@settings(max_examples=40, deadline=None)
def test_counters_physical_ranges(w):
    ks = [expansion_kernel(np.array(w), Granularity.WARP, SPEC),
          expansion_kernel(np.array(w), Granularity.CTA, SPEC)]
    c = aggregate_counters(ks, SPEC)
    assert 0.0 <= c.ldst_fu_utilization <= 1.0
    assert 0.0 <= c.stall_data_request <= 1.0
    assert c.ipc >= 0.0
    assert SPEC.idle_power_w <= c.power_w <= SPEC.tdp_w
    assert c.energy_j >= 0.0


@given(w=workload_lists)
@settings(max_examples=40, deadline=None)
def test_axis_times_bounded_by_total(w):
    k = expansion_kernel(np.array(w), Granularity.WARP, SPEC)
    # The binding axis is <= elapsed (which adds dispatch + launch).
    assert max(k.issue_time_ms, k.dram_time_ms,
               k.latency_time_ms) <= k.time_ms * 1.0001
