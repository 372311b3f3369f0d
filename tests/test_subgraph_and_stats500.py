"""Induced subgraphs and the Graph 500 stats block."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import enterprise_bfs, reference_bfs_levels
from repro.graph import from_edges, powerlaw_graph
from repro.graph.subgraph import induced_subgraph
from repro.metrics import graph500_stats, run_trials


class TestInducedSubgraph:
    def test_basic_extraction(self):
        g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], 4, directed=True)
        sub = induced_subgraph(g, np.array([0, 1, 2]))
        assert sub.graph.num_vertices == 3
        # Edges 0->1, 1->2 survive; 2->3 and 3->0 drop.
        assert sub.graph.num_edges == 2

    def test_id_mappings(self):
        g = from_edges([5, 7], [7, 9], 10, directed=True)
        sub = induced_subgraph(g, np.array([5, 7, 9]))
        assert list(sub.to_parent(np.array([0, 1, 2]))) == [5, 7, 9]
        assert list(sub.from_parent(np.array([5, 9]))) == [0, 2]
        with pytest.raises(ValueError):
            sub.from_parent(np.array([3]))

    def test_preserves_duplicates_and_loops(self):
        g = from_edges([0, 0, 1], [1, 1, 1], 3, directed=True)
        sub = induced_subgraph(g, np.array([0, 1]))
        assert sub.graph.num_edges == 3

    def test_out_of_range_rejected(self):
        g = from_edges([0], [1], 2, directed=True)
        with pytest.raises(ValueError):
            induced_subgraph(g, np.array([5]))

    def test_bfs_inside_subgraph_consistent(self):
        g = powerlaw_graph(200, 5.0, 2.1, 40, seed=3)
        hub = int(np.argmax(g.out_degrees))
        full = reference_bfs_levels(g, hub)
        ball = induced_subgraph(g, np.flatnonzero((full >= 0) & (full <= 2)))
        inner = enterprise_bfs(ball.graph, int(ball.from_parent(
            np.array([hub]))[0]))
        # Inside the 2-hop ball, subgraph distances can only be >= the
        # full-graph distances (paths may leave the ball).
        for v_new in range(ball.graph.num_vertices):
            v_old = int(ball.old_id[v_new])
            if inner.levels[v_new] >= 0:
                assert inner.levels[v_new] >= full[v_old]


class TestGraph500Stats:
    @pytest.fixture
    def stats(self):
        g = powerlaw_graph(300, 6.0, 2.1, 50, seed=4, name="g500")
        return run_trials(g, enterprise_bfs, trials=8, seed=1)

    def test_block_structure(self, stats):
        gs = graph500_stats(stats)
        assert gs.nbfs == 8
        lines = gs.lines()
        assert lines[0] == "NBFS: 8"
        assert any(line.startswith("harmonic_mean_TEPS") for line in lines)

    def test_quartile_ordering(self, stats):
        gs = graph500_stats(stats)
        t = gs.teps_stats
        assert t["min"] <= t["firstquartile"] <= t["median"] \
            <= t["thirdquartile"] <= t["max"]

    def test_harmonic_below_arithmetic(self, stats):
        gs = graph500_stats(stats)
        assert gs.harmonic_mean_teps <= gs.teps_stats["mean"] + 1e-9

    def test_time_teps_reciprocal_relation(self, stats):
        gs = graph500_stats(stats)
        assert gs.time_stats["min"] > 0
        assert gs.teps_stats["max"] > gs.teps_stats["min"] * 0.5


@given(
    n=st.integers(3, 40),
    m=st.integers(0, 100),
    k=st.integers(1, 20),
    seed=st.integers(0, 30),
)
@settings(max_examples=30, deadline=None)
def test_induced_subgraph_property(n, m, k, seed):
    """Every subgraph edge maps to a parent edge between members, and
    the counts match a brute-force filter."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    g = from_edges(src, dst, n, directed=True)
    members = np.unique(rng.integers(0, n, size=min(k, n)))
    sub = induced_subgraph(g, members)
    member_set = set(members.tolist())
    expected = sum(1 for a, b in zip(src.tolist(), dst.tolist())
                   if a in member_set and b in member_set)
    assert sub.graph.num_edges == expected
    s2, d2 = sub.graph.edges()
    parent_edges = set(zip(src.tolist(), dst.tolist()))
    for a, b in zip(sub.to_parent(s2).tolist(), sub.to_parent(d2).tolist()):
        assert (a, b) in parent_edges
