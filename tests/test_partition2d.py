"""2-D partitioned multi-GPU Enterprise (the §4.4 future-work extension)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs import (
    Grid2D,
    enterprise_bfs,
    multigpu2d_enterprise_bfs,
    multigpu_enterprise_bfs,
    validate_result,
)
from repro.gpu.fabric import ring_ms
from repro.graph import from_edges, load, powerlaw_graph
from repro.metrics import random_sources


@pytest.fixture
def graph():
    return powerlaw_graph(1024, 8.0, 2.1, 120, seed=12, name="p2d")


class TestGrid:
    def test_size(self):
        assert Grid2D(2, 4).size == 8

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Grid2D(0, 2)

    def test_trivial_exchange_free(self):
        g = Grid2D(1, 1)
        assert ring_ms(g.interconnect, 1, 1024) == 0.0

    def test_exchange_scales_with_bytes(self):
        g = Grid2D(2, 2)
        assert ring_ms(g.interconnect, 2, 1 << 20) > \
            ring_ms(g.interconnect, 2, 1024)


class TestCorrectness:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 1), (2, 2),
                                           (2, 4), (4, 2), (3, 3)])
    def test_matches_single_gpu(self, graph, rows, cols):
        src = int(np.argmax(graph.out_degrees))
        single = enterprise_bfs(graph, src)
        m = multigpu2d_enterprise_bfs(graph, src, rows, cols)
        validate_result(m.result, graph)
        assert np.array_equal(m.result.levels, single.levels)

    def test_directed_graph(self):
        g = powerlaw_graph(512, 5.0, 2.2, 60, directed=True, seed=4,
                           name="p2d-dir")
        src = int(np.argmax(g.out_degrees))
        m = multigpu2d_enterprise_bfs(g, src, 2, 2)
        validate_result(m.result, g)

    def test_source_validation(self, graph):
        with pytest.raises(ValueError):
            multigpu2d_enterprise_bfs(graph, -1, 2, 2)

    def test_grid_mismatch_rejected(self, graph):
        with pytest.raises(ValueError):
            multigpu2d_enterprise_bfs(graph, 0, 2, 2, grid=Grid2D(4, 4))


class TestExchangeAdvantage:
    def test_beats_1d_at_equal_gpu_count(self):
        """The point of 2-D: per-level exchange is O(n/r + n/c) bits per
        GPU versus 1-D's O(n)."""
        g = load("GO", "tiny")
        src = int(random_sources(g, 1, 3)[0])
        two_d = multigpu2d_enterprise_bfs(g, src, 2, 4)
        one_d = multigpu_enterprise_bfs(g, src, 8)
        assert two_d.bytes_exchanged < one_d.bytes_exchanged
        assert two_d.exchange_advantage > 1.5

    def test_advantage_grows_with_grid(self, graph):
        src = int(np.argmax(graph.out_degrees))
        small = multigpu2d_enterprise_bfs(graph, src, 2, 2)
        large = multigpu2d_enterprise_bfs(graph, src, 4, 4)
        assert large.exchange_advantage >= small.exchange_advantage

    def test_single_gpu_no_exchange(self, graph):
        m = multigpu2d_enterprise_bfs(graph, 0, 1, 1)
        assert m.bytes_exchanged == 0
        assert m.communication_ms == 0.0

    def test_ledger_consistent(self, graph):
        src = int(np.argmax(graph.out_degrees))
        m = multigpu2d_enterprise_bfs(graph, src, 2, 2)
        assert m.result.time_ps == m.computation_ps + m.communication_ps
        assert m.teps > 0


class TestExchangeLedger:
    """The repaired content-aware accounting: every ring is charged its
    own payload, empty rings ship nothing, and the byte ledger is the
    exact sum of what was charged."""

    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (2, 2), (3, 3)])
    def test_bytes_equal_sum_of_charged_payloads(self, graph, rows, cols):
        src = int(np.argmax(graph.out_degrees))
        m = multigpu2d_enterprise_bfs(graph, src, rows, cols)
        assert m.bytes_exchanged == sum(m.charged_payloads)
        assert all(p > 0 for p in m.charged_payloads)

    def test_zero_byte_rings_cost_nothing(self):
        g = Grid2D(2, 4)
        assert ring_ms(g.interconnect, 4, 0) == 0.0
        assert ring_ms(g.interconnect, 4, -8) == 0.0

    def test_each_ring_charged_its_own_bytes(self):
        """A 2-GPU ring shipping 100 bytes must cost what *its* payload
        implies — not an average over rings that shipped nothing (the
        old ``row_bits // rows`` flooring)."""
        g = Grid2D(2, 2)
        lone = ring_ms(g.interconnect, 2, 100)
        assert lone == pytest.approx(
            2 * 1 * g.interconnect.transfer_ms(50))
        assert lone > ring_ms(g.interconnect, 2, 1)


class TestDegenerateGrids:
    def test_1x1_parity(self, graph):
        m = multigpu2d_enterprise_bfs(graph, 0, 1, 1)
        assert m.bytes_exchanged == 0
        assert m.bytes_exchanged_1d == 0
        assert m.exchange_advantage == 1.0
        assert m.charged_payloads == []

    @pytest.mark.parametrize("rows,cols", [(1, 4), (4, 1)])
    def test_single_row_or_column_grids(self, graph, rows, cols):
        src = int(np.argmax(graph.out_degrees))
        m = multigpu2d_enterprise_bfs(graph, src, rows, cols)
        single = enterprise_bfs(graph, src)
        assert np.array_equal(m.result.levels, single.levels)
        assert m.bytes_exchanged == sum(m.charged_payloads)
        assert m.exchange_advantage > 0

    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1)])
    def test_isolated_source_has_infinite_advantage(self, rows, cols):
        """The grid ships nothing while the 1-D comparator still sends
        full per-device views: that is infinite advantage, not the 1.0
        the unguarded ratio used to report."""
        src_v = np.array([1, 2, 3], dtype=np.int64)
        dst_v = np.array([2, 3, 4], dtype=np.int64)
        g = from_edges(src_v, dst_v, 8, name="isolated-src")
        m = multigpu2d_enterprise_bfs(g, 0, rows, cols)
        assert m.bytes_exchanged == 0
        assert m.bytes_exchanged_1d > 0
        assert m.exchange_advantage == float("inf")


class TestBottomUpLookups:
    def test_per_column_early_termination_counts_own_slice(self):
        """Hand-built inspection: a column's scan stops at *its own*
        first hit, and a late-hit column is no longer billed for other
        columns' edges (the ``first - starts + 1`` overcount)."""
        from repro.bfs.common import UNVISITED as UNV
        from repro.bfs.partition2d import _inspect_bottomup_blocks
        from repro.gpu import KEPLER_K40

        # Vertices 0-3 are column 0, vertices 4-7 column 1.
        #   candidate 6: neighbors 0 (col 0, hit), 1 (col 0), 5 (col 1)
        #   candidate 7: neighbors 1 (col 0), 4 (col 1, hit), 5 (col 1)
        g = from_edges(np.array([6, 6, 6, 7, 7, 7], dtype=np.int64),
                       np.array([0, 1, 5, 1, 4, 5], dtype=np.int64), 8,
                       name="bu-lookups")
        status = np.full(8, UNV, dtype=np.int32)
        status[0] = 0
        status[4] = 0
        just_visited = np.zeros(8, dtype=bool)
        parents = np.full(8, UNV, dtype=np.int64)
        row_of = np.zeros(8, dtype=np.int64)
        col_of = (np.arange(8) // 4).astype(np.int64)
        candidates = np.array([6, 7], dtype=np.int64)

        edges, blocks = _inspect_bottomup_blocks(
            g, candidates, status, 0, just_visited, parents,
            row_of, np.searchsorted(col_of, np.arange(3)), 1, KEPLER_K40)

        # Column 0 scans: candidate 6 stops at its hit on vertex 0
        # (1 edge, vertex 1 never touched); candidate 7 scans its lone
        # col-0 edge (1).  Column 1: candidate 6 scans its lone col-1
        # edge (1); candidate 7 stops at its hit on vertex 4 (1, vertex
        # 5 never touched).  Total 4 of the 6 adjacency entries.
        assert edges == 4
        assert [(i, j) for i, j, _ in blocks] == [(0, 0), (0, 1)]
        assert just_visited[6] and just_visited[7]
        assert parents[6] == 0
        assert parents[7] == 4


class TestBottomUpCost:
    def test_2d_inspects_at_least_as_many_edges(self, graph):
        """Per-column early termination cannot beat global early
        termination — the known 2-D bottom-up overhead."""
        src = int(np.argmax(graph.out_degrees))
        single = enterprise_bfs(graph, src)
        m = multigpu2d_enterprise_bfs(graph, src, 2, 2)
        single_bu = sum(t.edges_checked for t in single.traces
                        if t.direction != "top-down")
        grid_bu = sum(t.edges_checked for t in m.result.traces
                      if t.direction != "top-down")
        if single_bu:
            assert grid_bu >= 0.9 * single_bu


@given(
    n=st.integers(8, 64),
    m=st.integers(0, 120),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    seed=st.integers(0, 30),
)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_matches_reference(n, m, rows, cols, seed):
    rng = np.random.default_rng(seed)
    src_v = rng.integers(0, n, size=m)
    dst_v = rng.integers(0, n, size=m)
    g = from_edges(src_v, dst_v, n, directed=bool(seed % 2))
    source = int(rng.integers(0, n))
    from repro.bfs import reference_bfs_levels
    expected = reference_bfs_levels(g, source)
    result = multigpu2d_enterprise_bfs(g, source, rows, cols)
    assert np.array_equal(result.result.levels, expected)
    validate_result(result.result, g)
