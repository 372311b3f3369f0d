"""Weighted SSSP: delta-stepping vs Dijkstra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.apps.delta_stepping import (
    WeightedGraph,
    delta_stepping,
    random_weights,
)
from repro.graph import CSRGraph, from_edges, powerlaw_graph


def _dijkstra_reference(wg: WeightedGraph, source: int) -> np.ndarray:
    """Dijkstra on the min-weight simple graph (scipy sums duplicate
    entries, so parallel edges must be reduced to their minimum first)."""
    g = wg.graph
    src, dst = g.edges()
    if src.size == 0:
        out = np.full(g.num_vertices, np.inf)
        out[source] = 0.0
        return out
    order = np.lexsort((wg.weights, dst, src))
    s, d, w = src[order], dst[order], wg.weights[order]
    first = np.ones(s.size, dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    mat = csr_matrix((w[first], (s[first], d[first])),
                     shape=(g.num_vertices, g.num_vertices))
    return dijkstra(mat, indices=source)


@pytest.fixture
def weighted():
    g = powerlaw_graph(300, 6.0, 2.1, 50, seed=21, name="dsw")
    return random_weights(g, 1.0, 10.0, seed=4)


class TestWeightedGraph:
    def test_weight_alignment_enforced(self):
        g = from_edges([0, 1], [1, 2], 3, directed=True)
        with pytest.raises(ValueError):
            WeightedGraph(g, np.array([1.0]))

    def test_negative_weights_rejected(self):
        g = from_edges([0], [1], 2, directed=True)
        with pytest.raises(ValueError):
            WeightedGraph(g, np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        """A NaN or infinite weight would make the default delta (the
        mean weight) non-finite, and the distances wrong."""
        g = from_edges([0, 1], [1, 2], 3)
        src, dst = g.edges()
        weights = np.ones(g.num_edges)
        weights[(src == 1) & (dst == 2)] = bad
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph(g, weights)

    def test_random_weights_range(self, weighted):
        assert weighted.weights.min() >= 1.0
        assert weighted.weights.max() <= 10.0

    def test_symmetric_weights_for_undirected(self, weighted):
        g = weighted.graph
        src, dst = g.edges()
        lut = {}
        for s, d, w in zip(src.tolist(), dst.tolist(),
                           weighted.weights.tolist()):
            key = (min(s, d), max(s, d))
            lut.setdefault(key, set()).add(round(w, 9))
        # Every undirected pair carries exactly one weight value.
        assert all(len(ws) == 1 for ws in lut.values())

    def test_invalid_range_rejected(self, weighted):
        with pytest.raises(ValueError):
            random_weights(weighted.graph, 5.0, 1.0)


class TestDeltaStepping:
    def test_matches_dijkstra(self, weighted):
        expected = _dijkstra_reference(weighted, 5)
        r = delta_stepping(weighted, 5)
        assert np.allclose(np.nan_to_num(expected, posinf=-1),
                           np.nan_to_num(r.distances, posinf=-1))

    def test_directed_graph(self):
        g = powerlaw_graph(200, 5.0, 2.2, 40, directed=True, seed=6)
        wg = random_weights(g, 1.0, 5.0, seed=2, symmetric=False)
        expected = _dijkstra_reference(wg, 3)
        r = delta_stepping(wg, 3)
        assert np.allclose(np.nan_to_num(expected, posinf=-1),
                           np.nan_to_num(r.distances, posinf=-1))

    def test_unit_weights_reduce_to_bfs(self):
        from repro.bfs import reference_bfs_levels
        g = powerlaw_graph(150, 4.0, 2.1, 30, seed=7)
        wg = WeightedGraph(g, np.ones(g.num_edges))
        r = delta_stepping(wg, 0, delta=1.0)
        levels = reference_bfs_levels(g, 0)
        expected = np.where(levels < 0, np.inf, levels.astype(float))
        assert np.allclose(np.nan_to_num(expected, posinf=-1),
                           np.nan_to_num(r.distances, posinf=-1))

    def test_delta_insensitive_to_value(self, weighted):
        a = delta_stepping(weighted, 5, delta=0.5).distances
        b = delta_stepping(weighted, 5, delta=50.0).distances
        assert np.allclose(np.nan_to_num(a, posinf=-1),
                           np.nan_to_num(b, posinf=-1))

    def test_small_delta_more_buckets(self, weighted):
        small = delta_stepping(weighted, 5, delta=0.5)
        big = delta_stepping(weighted, 5, delta=20.0)
        assert small.buckets_processed > big.buckets_processed

    def test_parents_consistent(self, weighted):
        r = delta_stepping(weighted, 5)
        reach = r.reachable()
        for v in reach[:50]:
            v = int(v)
            if v == 5:
                continue
            p = int(r.parents[v])
            assert p >= 0
            # Parent edge exists and distances are consistent.
            nbrs = weighted.graph.neighbors(p)
            assert v in nbrs
            assert r.distances[p] < r.distances[v]

    def test_unreachable_infinite(self):
        g = from_edges([0], [1], 4, directed=True)
        wg = WeightedGraph(g, np.array([2.5]))
        r = delta_stepping(wg, 0)
        assert np.isinf(r.distances[2])
        assert r.distances[1] == pytest.approx(2.5)

    def test_input_validation(self, weighted):
        with pytest.raises(ValueError):
            delta_stepping(weighted, -1)
        with pytest.raises(ValueError):
            delta_stepping(weighted, 0, delta=0.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        """On the unit-weight path 0-1-2, a NaN or infinite delta would
        leave vertices 1 and 2 at inf."""
        g = from_edges([0, 1], [1, 2], 3)
        wg = WeightedGraph(g, np.ones(g.num_edges))
        assert delta_stepping(wg, 0).distances.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="finite"):
            delta_stepping(wg, 0, delta=delta)

    def test_time_charged(self, weighted):
        r = delta_stepping(weighted, 5)
        assert r.time_ms > 0
        assert r.relaxation_waves > 0


@given(
    n=st.integers(2, 30),
    m=st.integers(0, 90),
    seed=st.integers(0, 40),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_matches_dijkstra(n, m, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    g = from_edges(src, dst, n, directed=bool(seed % 2))
    wg = random_weights(g, 0.5, 4.0, seed=seed,
                        symmetric=not g.directed)
    source = int(rng.integers(0, n))
    expected = _dijkstra_reference(wg, source)
    r = delta_stepping(wg, source)
    assert np.allclose(np.nan_to_num(expected, posinf=-1),
                       np.nan_to_num(r.distances, posinf=-1))


class TestWeightedPathAndIO:
    def test_path_reconstruction(self, weighted):
        from repro.apps import reconstruct_weighted_path
        r = delta_stepping(weighted, 5)
        reach = r.reachable()
        target = int(reach[-1])
        path = reconstruct_weighted_path(r, target)
        assert path[0] == 5 and path[-1] == target
        # Path cost telescopes to the distance.
        g = weighted.graph
        total = 0.0
        for a, b in zip(path, path[1:]):
            nbrs = g.neighbors(a)
            pos = np.flatnonzero(nbrs == b)
            assert pos.size > 0
            off = int(g.offsets[a])
            total += float(weighted.weights[off + pos[0]])
        # The walked cost can only exceed the optimal if a non-minimal
        # parallel edge was picked; allow that slack, never the reverse.
        assert total >= r.distances[target] - 1e-9

    def test_unreachable_path_empty(self):
        from repro.apps import reconstruct_weighted_path
        from repro.graph import from_edges
        g = from_edges([0], [1], 4, directed=True)
        wg = WeightedGraph(g, np.array([1.0]))
        r = delta_stepping(wg, 0)
        assert reconstruct_weighted_path(r, 3) == []
        with pytest.raises(ValueError):
            reconstruct_weighted_path(r, 99)

    def test_weighted_io_roundtrip(self, weighted, tmp_path):
        from repro.apps import load_weighted, save_weighted
        p = tmp_path / "wg.npz"
        save_weighted(weighted, p)
        back = load_weighted(p)
        assert np.array_equal(back.graph.targets, weighted.graph.targets)
        assert np.allclose(back.weights, weighted.weights)
        a = delta_stepping(weighted, 5).distances
        b = delta_stepping(back, 5).distances
        assert np.allclose(np.nan_to_num(a, posinf=-1),
                           np.nan_to_num(b, posinf=-1))
