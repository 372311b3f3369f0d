"""BFS primitives: expansion, bottom-up inspection, validation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import (
    BFSResult,
    UNVISITED,
    bottom_up_inspect,
    expand_frontier,
    reference_bfs_levels,
    validate_result,
)
from repro.gpu.clock import PS_PER_MS
from repro.graph import from_edges


def _status(n, source):
    st = np.full(n, UNVISITED, dtype=np.int32)
    st[source] = 0
    return st


class TestReference:
    def test_paper_example_levels(self, paper_example):
        """Fig. 1's status array: levels 0/1/1/3/1/3/3/2/3/3 for vertices
        0..9 (vertex 2 at level 2)."""
        levels = reference_bfs_levels(paper_example, 0)
        assert list(levels) == [0, 1, 2, 3, 1, 3, 2, 2, 3, 3]

    def test_unreachable_marked(self):
        g = from_edges([0], [1], 4, directed=True)
        levels = reference_bfs_levels(g, 0)
        assert levels[2] == UNVISITED and levels[3] == UNVISITED

    def test_source_out_of_range(self, paper_example):
        with pytest.raises(ValueError):
            reference_bfs_levels(paper_example, 99)


class TestExpandFrontier:
    def test_marks_next_level(self, paper_example):
        st = _status(10, 0)
        newly, parents, edges, attempts = expand_frontier(
            paper_example, np.array([0]), st, 0)
        assert set(newly) == {1, 4}
        assert list(parents) == [0, 0]
        assert edges == 2
        assert attempts == 2

    def test_duplicate_discovery_counted(self, paper_example):
        """Both 1 and 4 would enqueue vertex 2 (§2.1's atomic example):
        two attempts, one unique vertex."""
        st = _status(10, 0)
        st[[1, 4]] = 1
        newly, parents, edges, attempts = expand_frontier(
            paper_example, np.array([1, 4]), st, 1)
        assert 2 in newly
        assert attempts > newly.size

    def test_last_writer_wins_parent(self):
        """Status-array semantics: 'whoever finishes last becomes
        vertex 2's parent'."""
        g = from_edges([0, 1], [2, 2], 3, directed=True)
        st = _status(3, 0)
        st[1] = 0  # both 0 and 1 in the frontier
        newly, parents, _, _ = expand_frontier(g, np.array([0, 1]), st, 0)
        assert list(newly) == [2]
        assert parents[0] == 1  # the later frontier entry wins

    def test_empty_frontier(self, paper_example):
        st = _status(10, 0)
        newly, parents, edges, attempts = expand_frontier(
            paper_example, np.empty(0, dtype=np.int64), st, 0)
        assert newly.size == 0 and edges == 0 and attempts == 0

    def test_visited_neighbors_skipped(self, paper_example):
        st = _status(10, 0)
        st[1] = 1
        st[4] = 1
        newly, _, _, _ = expand_frontier(paper_example, np.array([1]), st, 1)
        assert 0 not in newly


@st.composite
def _shared_target_frontiers(draw):
    """A multigraph, a status array at ``level`` and a frontier whose
    vertices share targets: each frontier vertex draws its targets from a
    small pool (repeats are duplicate edges), and stray edges between any
    two vertices add self-loops and, undirected, reverse edges.  At least
    ``n / 8`` edges run from the frontier to vertices kept unvisited, so
    an expansion on the unpadded status array dedups by scanning."""
    n = draw(st.integers(2, 16))
    level = draw(st.integers(0, 3))
    frontier = draw(st.lists(st.integers(0, n - 1), min_size=1,
                             max_size=n - 1, unique=True))
    fresh = draw(st.lists(
        st.sampled_from([v for v in range(n) if v not in frontier]),
        min_size=1, max_size=4, unique=True))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    edges = draw(st.lists(st.tuples(st.sampled_from(frontier),
                                    st.sampled_from(fresh)),
                          min_size=-(-n // 8), max_size=4))
    edges += draw(st.lists(st.tuples(st.sampled_from(frontier),
                                     st.sampled_from(pool + frontier)),
                           min_size=2, max_size=24))
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=8))
    status = np.full(n, UNVISITED, dtype=np.int32)
    seen = [v for v in range(n) if v not in fresh]
    for v, seen_at in draw(st.lists(st.tuples(st.sampled_from(seen),
                                              st.integers(0, level)),
                                    max_size=n)):
        status[v] = seen_at
    status[frontier] = level
    src, dst = zip(*edges)
    return (src, dst, n, draw(st.booleans()),
            np.array(frontier, dtype=np.int64), status, level)


def _last_writers(graph, frontier, status):
    """Independent reference: walk every list in (frontier, list) order;
    each unvisited endpoint is an attempt and the last one to reach a
    vertex is its parent."""
    parent_of: dict[int, int] = {}
    attempts = 0
    for u in frontier.tolist():
        for v in graph.neighbors(u).tolist():
            if status[v] == UNVISITED:
                attempts += 1
                parent_of[v] = u
    found = np.unique(np.array(list(parent_of), dtype=np.int64))
    return found, [parent_of[v] for v in found.tolist()], attempts


@given(case=_shared_target_frontiers())
@settings(max_examples=200, deadline=None)
def test_stamp_and_scan_dedup_match_last_writer_reference(case):
    """Both dedup branches return the reference's vertex set, ascending,
    with the last writer as parent, and leave no stamp behind.  The
    status size picks the branch: unpadded and at the boundary
    ``8 * attempts == n`` the scan runs, one isolated vertex past it the
    stamp does."""
    src, dst, n, directed, frontier, status, level = case
    found, parents, attempts = _last_writers(
        from_edges(src, dst, n, directed=directed), frontier, status)
    assert attempts * 8 >= n  # so the unpadded run scans
    outcomes = set()
    for size in (n, 8 * attempts, 8 * attempts + 1):
        graph = from_edges(src, dst, size, directed=directed)
        padded = np.full(size, UNVISITED, dtype=np.int32)
        padded[:n] = status
        newly, their_parents, edges, tried = expand_frontier(
            graph, frontier, padded, level)
        assert newly.dtype == np.int64 and their_parents.dtype == np.int64
        assert newly.tolist() == found.tolist()
        assert their_parents.tolist() == parents
        assert tried == attempts
        outcomes.add((edges, tried))
        # No stamp survives: every found vertex now holds level + 1 and
        # every other entry is untouched.
        expected = np.full(size, UNVISITED, dtype=np.int32)
        expected[:n] = status
        expected[found] = level + 1
        assert np.array_equal(padded, expected)
    assert len(outcomes) == 1


def test_stamp_dedup_allocates_no_vertex_sized_scratch():
    """A 3-vertex frontier on a 2**20-vertex path dedups in a few KB:
    nothing proportional to n is allocated per call."""
    n = 1 << 20
    path = from_edges(np.arange(n - 1), np.arange(1, n), n)
    frontier = np.array([1_000, 500_000, n - 1], dtype=np.int64)

    def at_level_4():
        status = np.full(n, UNVISITED, dtype=np.int32)
        status[frontier] = 4
        return status

    # Warm-up: the degree cache and the shared ramp are built once.
    expand_frontier(path, frontier, at_level_4(), 4)
    status = at_level_4()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        newly, parents, _, _ = expand_frontier(path, frontier, status, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert newly.tolist() == [999, 1_001, 499_999, 500_001, n - 2]
    assert parents.tolist() == [1_000, 1_000, 500_000, 500_000, n - 1]
    assert peak < 64 * 1024, peak


class TestBottomUpInspect:
    def test_paper_example_level3(self, paper_example):
        """Fig. 1(d): bottom-up at level 3 — {3, 5} find parent 2 and
        {8} finds parent 7; 6 and 9 also connect to level-2 vertices."""
        st = _status(10, 0)
        st[[1, 4]] = 1
        st[[2, 7, 6]] = 2
        unvisited = np.array([3, 5, 8, 9], dtype=np.int64)
        out = bottom_up_inspect(paper_example, unvisited, st, 2)
        assert set(out.found) == {3, 5, 8, 9}
        parent_of = dict(zip(out.found.tolist(), out.parents.tolist()))
        assert parent_of[3] == 2 and parent_of[5] == 2
        assert parent_of[8] == 7

    def test_early_termination(self):
        """Inspection stops at the first frontier-level neighbor."""
        # Vertex 3's list: [0, 1, 2]; 0 is at the frontier level.
        g = from_edges([3, 3, 3], [0, 1, 2], 4, directed=True)
        st = np.full(4, UNVISITED, dtype=np.int32)
        st[0] = 1
        out = bottom_up_inspect(g, np.array([3]), st, 1)
        assert out.lookups[0] == 1
        assert out.found[0] == 3 and out.parents[0] == 0

    def test_full_scan_when_not_found(self):
        g = from_edges([3, 3, 3], [0, 1, 2], 4, directed=True)
        st = np.full(4, UNVISITED, dtype=np.int32)
        out = bottom_up_inspect(g, np.array([3]), st, 5)
        assert out.found.size == 0
        assert out.lookups[0] == 3

    def test_cache_short_circuits(self):
        """Fig. 11: a cached hub anywhere in the list ends the inspection
        with zero global lookups."""
        g = from_edges([3, 3, 3], [0, 1, 2], 4, directed=True)
        st = np.full(4, UNVISITED, dtype=np.int32)
        st[2] = 1  # the *last* neighbor is the frontier vertex
        cached = np.zeros(4, dtype=bool)
        cached[2] = True
        out = bottom_up_inspect(g, np.array([3]), st, 1,
                                cached_parents=cached)
        assert out.cache_hits == 1
        assert out.lookups[0] == 0
        assert out.lookups_nocache[0] == 3
        assert out.parents[0] == 2

    def test_cache_miss_falls_back(self):
        g = from_edges([3, 3], [0, 1], 4, directed=True)
        st = np.full(4, UNVISITED, dtype=np.int32)
        st[1] = 1
        cached = np.zeros(4, dtype=bool)  # nothing cached
        out = bottom_up_inspect(g, np.array([3]), st, 1,
                                cached_parents=cached)
        assert out.cache_hits == 0
        assert out.lookups[0] == 2

    def test_degree_zero_candidate(self):
        g = from_edges([0], [1], 3, directed=True)
        st = np.full(3, UNVISITED, dtype=np.int32)
        st[0] = 0
        out = bottom_up_inspect(g, np.array([2]), st, 0)
        assert out.found.size == 0
        assert out.lookups[0] == 0

    def test_empty_candidates(self, paper_example):
        st = _status(10, 0)
        out = bottom_up_inspect(paper_example,
                                np.empty(0, dtype=np.int64), st, 0)
        assert out.found.size == 0 and out.edges_checked == 0


class TestValidation:
    def test_accepts_reference(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        # Build consistent parents.
        parents = np.full(10, UNVISITED, dtype=np.int64)
        src, dst = paper_example.edges()
        for s, d in zip(src, dst):
            if levels[d] == levels[s] + 1:
                parents[d] = s
        r = BFSResult("ref", "fig1", 0, levels, parents)
        validate_result(r, paper_example)

    def test_rejects_wrong_level(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        levels = levels.copy()
        levels[3] = 1
        r = BFSResult("bad", "fig1", 0, levels,
                      np.full(10, UNVISITED, dtype=np.int64))
        with pytest.raises(AssertionError):
            validate_result(r, paper_example)

    def test_rejects_missing_parent(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        parents = np.full(10, UNVISITED, dtype=np.int64)
        r = BFSResult("noparents", "fig1", 0, levels, parents)
        with pytest.raises(AssertionError):
            validate_result(r, paper_example)

    def test_rejects_non_edge_parent(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        parents = np.full(10, UNVISITED, dtype=np.int64)
        src, dst = paper_example.edges()
        for s, d in zip(src, dst):
            if levels[d] == levels[s] + 1:
                parents[d] = s
        parents[3] = 7  # level-2 vertex but 7->3 is not an edge
        r = BFSResult("badedge", "fig1", 0, levels, parents)
        with pytest.raises(AssertionError):
            validate_result(r, paper_example)

    def test_parents_check_optional(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        r = BFSResult("nop", "fig1", 0, levels,
                      np.full(10, UNVISITED, dtype=np.int64))
        validate_result(r, paper_example, check_parents=False)


class TestBFSResultMetrics:
    def test_teps_and_depth(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        r = BFSResult("m", "fig1", 0, levels,
                      np.full(10, UNVISITED, dtype=np.int64),
                      time_ps=2 * PS_PER_MS)
        r.set_edges_traversed(paper_example)
        assert r.depth == 3
        assert r.visited == 10
        assert r.edges_traversed == paper_example.num_edges
        assert r.teps == pytest.approx(paper_example.num_edges / 2e-3)

    def test_zero_time_teps(self, paper_example):
        levels = reference_bfs_levels(paper_example, 0)
        r = BFSResult("m", "fig1", 0, levels,
                      np.full(10, UNVISITED, dtype=np.int64))
        assert r.teps == 0.0
