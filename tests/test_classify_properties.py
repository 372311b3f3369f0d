"""Property-based boundary tests for §4.2 frontier classification.

The paper fixes the queue boundaries at 32 / 256 / 65,536 out-edges:
"the frontiers in SmallQueue have fewer than 32 edges, MiddleQueue
between 32 and 256, LargeQueue between 256 and 65,536 and ExtremeQueue
more than 65,536".  These tests pin the exact boundary degrees to their
paper-specified queues and prove, by hypothesis fuzzing, that the four
queues always form an exact partition of the frontier — no vertex
dropped, duplicated, or rebinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.classify import QUEUE_BOUNDS, classify_frontiers
from repro.gpu import KEPLER_K40

QUEUE_ORDER = ("small", "middle", "large", "extreme")

#: Paper-specified queue for every boundary degree (±1 around each
#: bound, §4.2).
BOUNDARY_CASES = [
    (0, "small"),
    (31, "small"),          # "fewer than 32 edges"
    (32, "middle"),         # "between 32 and 256"
    (255, "middle"),
    (256, "large"),         # "between 256 and 65,536"
    (65_535, "large"),
    (65_536, "extreme"),    # "more than 65,536"
    (1_000_000, "extreme"),
]


def _classify_degrees(degrees: np.ndarray):
    """Classify a frontier of synthetic out-degrees (vertex i has
    out-degree degrees[i])."""
    queue = np.arange(len(degrees), dtype=np.int64)
    return classify_frontiers(queue, np.asarray(degrees, dtype=np.int64),
                              KEPLER_K40)


@pytest.mark.parametrize("degree,expected", BOUNDARY_CASES)
def test_boundary_degree_lands_in_paper_queue(degree, expected):
    cf = _classify_degrees(np.array([degree]))
    for name in QUEUE_ORDER:
        want = 1 if name == expected else 0
        assert cf.queues[name].size == want, (
            f"degree {degree} should be in {expected!r}, "
            f"found {cf.counts()}")


def test_all_boundaries_together():
    degrees = np.array([d for d, _ in BOUNDARY_CASES])
    cf = _classify_degrees(degrees)
    got = {name: sorted(degrees[q].tolist())
           for name, q in cf.queues.items()}
    want: dict[str, list[int]] = {name: [] for name in QUEUE_ORDER}
    for d, name in BOUNDARY_CASES:
        want[name].append(d)
    assert got == want


def test_bounds_constant_matches_paper():
    assert QUEUE_BOUNDS == (32, 256, 65_536)


@given(st.lists(st.integers(min_value=0, max_value=200_000),
                max_size=300))
@settings(max_examples=200, deadline=None)
def test_queues_partition_frontier_exactly(degree_list):
    """Union of the four queues == frontier, disjointly, any degrees."""
    degrees = np.array(degree_list, dtype=np.int64)
    cf = _classify_degrees(degrees)
    parts = [cf.queues[name] for name in QUEUE_ORDER]
    merged = np.concatenate(parts) if degrees.size else \
        np.empty(0, dtype=np.int64)
    # Exact partition: same multiset of vertex ids, no overlap.
    assert merged.size == degrees.size == cf.total
    assert np.array_equal(np.sort(merged),
                          np.arange(degrees.size, dtype=np.int64))
    # And every member sits in the queue its degree prescribes.
    small_b, middle_b, large_b = QUEUE_BOUNDS
    for name, lo, hi in (("small", 0, small_b),
                         ("middle", small_b, middle_b),
                         ("large", middle_b, large_b),
                         ("extreme", large_b, np.iinfo(np.int64).max)):
        q = cf.queues[name]
        if q.size:
            assert np.all((degrees[q] >= lo) & (degrees[q] < hi)), name


@given(st.lists(st.integers(min_value=0, max_value=70_000),
                min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_classification_preserves_relative_order(degree_list):
    """Within each queue the frontier's original order survives (the
    switch workflow's sortedness guarantee, §4.2)."""
    degrees = np.array(degree_list, dtype=np.int64)
    cf = _classify_degrees(degrees)
    for q in cf.queues.values():
        assert np.all(np.diff(q) > 0) or q.size <= 1


# ----------------------------------------------------------------------
# Equivalence with the masked-compress definition
# ----------------------------------------------------------------------

def _masked_compress(queue, out_degrees, bounds=QUEUE_BOUNDS):
    """The four queues by definition: one boolean mask pair per degree
    band, each compressing the queue in its input order."""
    small_b, middle_b, large_b = bounds
    degs = out_degrees[queue]
    return {
        "small": queue[degs < small_b],
        "middle": queue[(degs >= small_b) & (degs < middle_b)],
        "large": queue[(degs >= middle_b) & (degs < large_b)],
        "extreme": queue[degs >= large_b],
    }


@given(
    degrees=st.lists(st.integers(min_value=0, max_value=200_000),
                     min_size=0, max_size=250),
    shuffle_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_classify_equals_masked_compress(degrees, shuffle_seed):
    """searchsorted + stable-sort binning is *bit-identical* to the
    masked-compress definition for any degrees in any queue order —
    including the degenerate empty frontier and duplicate degrees."""
    from repro.gpu.kernels import sweep_kernel
    from repro.gpu.memory import sequential_transactions

    out_degrees = np.array(degrees, dtype=np.int64)
    rng = np.random.default_rng(shuffle_seed)
    queue = rng.permutation(out_degrees.size).astype(np.int64)

    fast = classify_frontiers(queue, out_degrees, KEPLER_K40)
    ref = _masked_compress(queue, out_degrees)
    for name in QUEUE_ORDER:
        assert fast.queues[name].dtype == ref[name].dtype
        assert np.array_equal(fast.queues[name], ref[name]), name
    # The simulated classification kernel is one sequential pass that
    # reads each degree and bins each ID.
    n = max(queue.size, 1)
    want = sweep_kernel(n, sequential_transactions(2 * n, 8, KEPLER_K40),
                        KEPLER_K40, name="classify", instr_per_element=4)
    assert fast.classify_cost.time_ms == want.time_ms
    assert fast.classify_cost.access.transactions == \
        want.access.transactions


@given(
    degrees=st.lists(st.integers(min_value=0, max_value=300),
                     min_size=1, max_size=120),
    bounds=st.tuples(st.integers(1, 10), st.integers(11, 100),
                     st.integers(101, 400)),
)
@settings(max_examples=120, deadline=None)
def test_custom_bounds_equal_masked_compress(degrees, bounds):
    """Non-default (still increasing) bounds take the same binning path
    and must agree with the masked-compress definition as well."""
    out_degrees = np.array(degrees, dtype=np.int64)
    queue = np.arange(out_degrees.size, dtype=np.int64)
    fast = classify_frontiers(queue, out_degrees, KEPLER_K40,
                              bounds=bounds)
    ref = _masked_compress(queue, out_degrees, bounds)
    for name in QUEUE_ORDER:
        assert np.array_equal(fast.queues[name], ref[name]), name
