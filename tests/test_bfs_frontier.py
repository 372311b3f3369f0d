"""TS queue-generation workflows (§4.1, Fig. 7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import UNVISITED
from repro.bfs.frontier import (
    bottomup_filter_workflow,
    queue_contiguity,
    switch_workflow,
    topdown_workflow,
)
from repro.gpu import KEPLER_K40

SPEC = KEPLER_K40


def _status(n, frontier_at, level=1):
    st = np.full(n, UNVISITED, dtype=np.int32)
    st[list(frontier_at)] = level
    return st


class TestTopdownWorkflow:
    def test_queue_contains_exact_frontier(self):
        st = _status(100, [3, 40, 77])
        queue, kernels = topdown_workflow(st, 1, SPEC)
        assert set(queue) == {3, 40, 77}
        assert len(queue) == 3

    def test_no_duplicates(self):
        st = _status(50, range(0, 50, 5))
        queue, _ = topdown_workflow(st, 1, SPEC)
        assert len(np.unique(queue)) == len(queue)

    def test_kernel_set(self):
        st = _status(64, [1])
        _, kernels = topdown_workflow(st, 1, SPEC)
        names = [k.name for k in kernels]
        assert names == ["scan-interleaved", "prefix-sum", "bin-copy"]

    def test_interleaved_order_fig7a(self):
        """Fig. 7(a): with the interleaved scan, FQ2 holds {4, 1} —
        vertex 4 (bin of thread 0) precedes vertex 1 (bin of thread 1)
        when two threads scan ten vertices."""
        st = _status(10, [1, 4])
        # Simulate the figure's two-thread decomposition directly.
        frontiers = np.flatnonzero(st == 1)
        threads = 2
        order = np.lexsort((frontiers // threads, frontiers % threads))
        assert list(frontiers[order]) == [4, 1]

    def test_empty_level(self):
        st = _status(20, [])
        queue, kernels = topdown_workflow(st, 1, SPEC)
        assert queue.size == 0
        assert all(k.time_ms >= 0 for k in kernels)


class TestSwitchWorkflow:
    def test_queue_is_unvisited_sorted(self):
        """Fig. 7(b): the blocked scan emits the bottom-up queue in
        ascending vertex order (FQ3 = {3, 5, 6, 8, 9})."""
        st = np.full(10, UNVISITED, dtype=np.int32)
        st[[0, 1, 2, 4, 7]] = 1
        queue, _ = switch_workflow(st, SPEC)
        assert list(queue) == [3, 5, 6, 8, 9]

    def test_strided_scan_costlier_than_interleaved(self):
        """§4.1: 'this approach will spend average 2.4x more time to scan
        the status array'."""
        n = 1 << 16
        st = np.full(n, UNVISITED, dtype=np.int32)
        st[::7] = 1
        _, td_kernels = topdown_workflow(st, 1, SPEC)
        _, sw_kernels = switch_workflow(st, SPEC)
        td_scan = next(k for k in td_kernels if k.name.startswith("scan"))
        sw_scan = next(k for k in sw_kernels if k.name.startswith("scan"))
        assert sw_scan.time_ms > td_scan.time_ms

    def test_sorted_queue_contiguity(self):
        st = np.full(64, UNVISITED, dtype=np.int32)
        st[:8] = 1  # unvisited block 8..63 is dense and contiguous
        queue, _ = switch_workflow(st, SPEC)
        assert queue_contiguity(queue) > 0.9


class TestBottomupFilter:
    def test_subset_property(self):
        """'the queue for the current level is always a subset of the
        previous queue' — and exactly the still-unvisited part."""
        prev = np.array([3, 5, 6, 8, 9], dtype=np.int64)
        st = np.full(10, UNVISITED, dtype=np.int32)
        st[[3, 5, 8]] = 3  # visited this level
        queue, _ = bottomup_filter_workflow(prev, st, SPEC)
        assert list(queue) == [6, 9]

    def test_preserves_order(self):
        prev = np.array([9, 2, 7, 4], dtype=np.int64)
        st = np.full(10, UNVISITED, dtype=np.int32)
        st[2] = 1
        queue, _ = bottomup_filter_workflow(prev, st, SPEC)
        assert list(queue) == [9, 7, 4]

    def test_cheaper_than_full_scan(self):
        """The filter touches the shrinking queue, not all n (the ~3%
        improvement of §4.1)."""
        n = 1 << 16
        st = np.full(n, UNVISITED, dtype=np.int32)
        prev = np.arange(100, dtype=np.int64)
        _, filter_kernels = bottomup_filter_workflow(prev, st, SPEC)
        _, scan_kernels = switch_workflow(st, SPEC)
        assert sum(k.time_ms for k in filter_kernels) < \
            sum(k.time_ms for k in scan_kernels)

    def test_empty_previous_queue(self):
        st = np.full(10, UNVISITED, dtype=np.int32)
        queue, kernels = bottomup_filter_workflow(
            np.empty(0, dtype=np.int64), st, SPEC)
        assert queue.size == 0


class TestQueueContiguity:
    def test_sorted_dense(self):
        assert queue_contiguity(np.arange(100)) == pytest.approx(1.0)

    def test_scattered(self):
        assert queue_contiguity(np.array([0, 50, 3, 99])) == 0.0

    def test_short_queues(self):
        assert queue_contiguity(np.array([5])) == 0.0
        assert queue_contiguity(np.empty(0, dtype=np.int64)) == 0.0


@given(
    frontier=st.sets(st.integers(0, 10_000), min_size=0, max_size=200),
    threads=st.integers(1, 512),
)
@settings(max_examples=200, deadline=None)
def test_bin_order_equals_scalar_lexsort(frontier, threads):
    """The single-key stable argsort must reproduce the two-key lexsort
    permutation exactly (thread id ``v % T`` major, position in the bin
    ``v // T`` minor) for any ascending frontier and thread count (the
    Fig. 7(a) interleaved bin order)."""
    from repro.bfs.frontier import bin_order

    frontiers = np.array(sorted(frontier), dtype=np.int64)
    fast = bin_order(frontiers, threads)
    ref = np.lexsort((frontiers // threads, frontiers % threads))
    assert np.array_equal(fast, ref)
    # And the permuted queue is the bin concatenation the figure shows.
    q = frontiers[fast]
    if q.size:
        tids = q % threads
        assert np.all(np.diff(tids) >= 0)


@given(
    mask_bits=st.lists(st.booleans(), min_size=0, max_size=400),
)
@settings(max_examples=200, deadline=None)
def test_ballot_compress_roundtrip_and_layout(mask_bits):
    """``ballot_compress`` is a lossless MSB-first packbits: decompress
    inverts it for every mask, and each byte holds the 8 status bits in
    warp-lane order."""
    from repro.gpu.multi import ballot_compress, ballot_decompress

    mask = np.array(mask_bits, dtype=bool)
    bits = ballot_compress(mask)
    assert bits.dtype == np.uint8
    assert bits.size == -(-mask.size // 8)
    assert np.array_equal(ballot_decompress(bits, mask.size), mask)
    # Bit-layout: position i lives in byte i//8 at MSB-first slot i%8.
    for i in np.flatnonzero(mask)[:16]:
        assert (bits[i // 8] >> (7 - i % 8)) & 1


@given(
    n=st.integers(2, 400),
    frontier=st.sets(st.integers(0, 399), max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_workflows_agree_on_frontier_set(n, frontier):
    """All three workflows produce exactly the right vertex sets with no
    duplicates, for any status array."""
    frontier = {v for v in frontier if v < n}
    st_arr = np.full(n, UNVISITED, dtype=np.int32)
    st_arr[list(frontier)] = 2
    q_td, _ = topdown_workflow(st_arr, 2, SPEC)
    assert set(q_td.tolist()) == frontier
    assert len(np.unique(q_td)) == q_td.size

    q_sw, _ = switch_workflow(st_arr, SPEC)
    assert set(q_sw.tolist()) == set(range(n)) - frontier
    assert np.all(np.diff(q_sw) > 0)  # sorted

    keep = np.array(sorted(set(range(n)) - frontier), dtype=np.int64)
    q_bu, _ = bottomup_filter_workflow(q_sw, st_arr, SPEC)
    assert np.array_equal(q_bu, keep)
