"""Differential tests for the 2-D grid's per-block traversal helpers.

:func:`repro.bfs.partition2d._inspect_bottomup_blocks` scans each
candidate's column blocks with early exit, and
:func:`repro.bfs.partition2d._expand_topdown_blocks` expands each
column's frontier segment with last-writer parents.  Both are checked
against plain list walks on Hypothesis multigraphs (duplicates,
self-loops, degree-0 vertices, directed and undirected) over random
row and column bounds: the vertices found, their parents, the edges
checked, the order of the blocks and each block's kernel cost.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.common import UNVISITED
from repro.bfs.partition2d import (
    _expand_topdown_blocks,
    _inspect_bottomup_blocks,
)
from repro.gpu import KEPLER_K40
from repro.gpu.kernels import Granularity, expansion_kernel

from .test_inspect_properties import inspect_cases


@st.composite
def grid_cases(draw):
    """An inspection case plus ``rows`` x ``cols`` contiguous vertex
    groups with random (possibly empty) extents."""
    graph, vertices, status, level, _ = draw(inspect_cases())
    n = graph.num_vertices

    def bounds(parts):
        cuts = draw(st.lists(st.integers(0, n), min_size=parts - 1,
                             max_size=parts - 1))
        return np.array([0, *sorted(cuts), n], dtype=np.int64)

    row_bounds = bounds(draw(st.integers(1, 3)))
    col_bounds = bounds(draw(st.integers(1, 3)))
    return graph, vertices, status, level, row_bounds, col_bounds


def _group_of(bounds: np.ndarray, n: int) -> np.ndarray:
    return np.searchsorted(bounds, np.arange(n), side="right") - 1


def _kernel(loads, granularity, name):
    return expansion_kernel(np.maximum(np.array(loads, dtype=np.int64), 1),
                            granularity, KEPLER_K40, name=name)


def _walk_bottomup(graph, candidates, status, level, row_of, rows,
                   col_bounds):
    """Per (row, column): every candidate of the row walks its list,
    skipping entries outside the column, until its first hit."""
    parents, level_edges, blocks = {}, 0, []
    for i in range(rows):
        row_cand = [v for v in candidates if row_of[v] == i]
        for j in range(col_bounds.size - 1):
            lo, hi = col_bounds[j], col_bounds[j + 1]
            loads = []
            for v in row_cand:
                checked = 0
                for u in graph.neighbors(v):
                    if lo <= u < hi:
                        checked += 1
                        if status[u] == level:
                            parents[v] = int(u)
                            break
                loads.append(checked)
            if sum(loads):
                level_edges += sum(loads)
                blocks.append((i, j, _kernel(loads, Granularity.THREAD,
                                             f"bu-block-{i}-{j}")))
    return parents, level_edges, blocks


def _walk_topdown(graph, frontier, status, row_of, rows, col_of, cols):
    """Every edge in (column, frontier, list) order; the last writer of
    an unvisited target is its parent."""
    parents, level_edges, blocks = {}, 0, []
    for j in range(cols):
        seg = [v for v in frontier if col_of[v] == j]
        loads = np.zeros((rows, len(seg)), dtype=np.int64)
        for f, v in enumerate(seg):
            for u in graph.neighbors(v):
                level_edges += 1
                loads[row_of[u], f] += 1
                if status[u] == UNVISITED:
                    parents[int(u)] = int(v)
        for i in range(rows):
            if loads[i].any():
                blocks.append((i, j, _kernel(loads[i], Granularity.WARP,
                                             f"td-block-{i}-{j}")))
    return parents, level_edges, blocks


def _assert_same(got, want, just_visited, parents, status, status_before):
    edges, blocks = got
    want_parents, want_edges, want_blocks = want
    assert edges == want_edges
    assert [(i, j) for i, j, _ in blocks] == \
        [(i, j) for i, j, _ in want_blocks]
    for (i, j, k), (_, _, want_k) in zip(blocks, want_blocks):
        assert k == want_k, (i, j)
    found = sorted(want_parents)
    np.testing.assert_array_equal(np.flatnonzero(just_visited), found)
    expected = np.full(parents.size, UNVISITED, dtype=np.int64)
    expected[found] = [want_parents[v] for v in found]
    np.testing.assert_array_equal(parents, expected)
    np.testing.assert_array_equal(status, status_before)


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_inspect_blocks_match_column_walk(case):
    graph, candidates, status, level, row_bounds, col_bounds = case
    n, rows = graph.num_vertices, row_bounds.size - 1
    row_of = _group_of(row_bounds, n)
    just_visited = np.zeros(n, dtype=bool)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    before = status.copy()
    got = _inspect_bottomup_blocks(
        graph, candidates, status, level, just_visited, parents,
        row_of, col_bounds, rows, KEPLER_K40)
    want = _walk_bottomup(graph, candidates, status, level, row_of, rows,
                          col_bounds)
    _assert_same(got, want, just_visited, parents, status, before)


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_expand_blocks_match_edge_walk(case):
    graph, frontier, status, _, row_bounds, col_bounds = case
    n, rows, cols = (graph.num_vertices, row_bounds.size - 1,
                     col_bounds.size - 1)
    row_of = _group_of(row_bounds, n)
    col_of = _group_of(col_bounds, n)
    just_visited = np.zeros(n, dtype=bool)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    before = status.copy()
    got = _expand_topdown_blocks(
        graph, frontier, status, just_visited, parents, row_of, col_of,
        rows, cols, KEPLER_K40)
    want = _walk_topdown(graph, frontier, status, row_of, rows, col_of,
                         cols)
    _assert_same(got, want, just_visited, parents, status, before)
