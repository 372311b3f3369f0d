"""Degree/hub statistics and frontier aggregation (Figs. 4-6 inputs)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    FrontierLevel,
    fraction_below,
    from_edges,
    frontier_statistics,
    hub_mask,
    hub_threshold,
    powerlaw_graph,
    top_hub_edge_share,
)


@pytest.fixture
def star_graph():
    """Vertex 0 connects to everyone: one extreme hub."""
    n = 50
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return from_edges(src, dst, n, directed=False, name="star")


class TestDegreeCdf:
    def test_monotone_and_normalised(self, star_graph):
        """``fraction_below`` is the out-degree CDF, one degree down."""
        frac = [fraction_below(star_graph, t) for t in range(52)]
        assert np.all(np.diff(frac) >= 0)
        assert frac[0] == 0.0 and frac[-1] == pytest.approx(1.0)

    def test_fraction_below(self, star_graph):
        # 49 leaves of degree 1, one hub of degree 49.
        assert fraction_below(star_graph, 2) == pytest.approx(49 / 50)
        assert fraction_below(star_graph, 50) == pytest.approx(1.0)

    def test_fraction_below_empty_graph(self):
        g = from_edges([], [], 5, directed=True)
        assert fraction_below(g, 10) == 1.0


class TestEdgeMass:
    def test_cdf_reaches_one(self, star_graph):
        """All vertices together own every edge."""
        assert top_hub_edge_share(star_graph, star_graph.num_vertices) == \
            pytest.approx(1.0)

    def test_star_concentration(self, star_graph):
        """The single hub owns half the directed edges."""
        assert top_hub_edge_share(star_graph, 1) == pytest.approx(0.5)

    def test_top_share_monotone_in_count(self, star_graph):
        s1 = top_hub_edge_share(star_graph, 1)
        s5 = top_hub_edge_share(star_graph, 5)
        assert s5 >= s1

    def test_zero_hubs(self, star_graph):
        assert top_hub_edge_share(star_graph, 0) == 0.0


class TestHubThreshold:
    def test_star_threshold(self, star_graph):
        tau = hub_threshold(star_graph, 1)
        assert tau == 49
        mask = hub_mask(star_graph, tau - 1)
        assert mask[0] and mask.sum() == 1

    def test_threshold_clipped(self, star_graph):
        assert hub_threshold(star_graph, 10_000) >= 1

    def test_powerlaw_hub_population(self):
        g = powerlaw_graph(2000, 8.0, 2.0, 500, seed=1)
        tau = hub_threshold(g, 50)
        hubs = int(hub_mask(g, tau).sum())
        # Ties can push the population below the target, never far above.
        assert 1 <= hubs <= 60


class TestFrontierStatistics:
    def test_aggregation(self):
        levels = [
            FrontierLevel(0, "top-down", 1, 100),
            FrontierLevel(1, "top-down", 9, 100),
            FrontierLevel(2, "switch", 52, 100),
            FrontierLevel(3, "bottom-up", 20, 100),
        ]
        stats = frontier_statistics(levels)
        assert stats["max"] == pytest.approx(52.0)
        assert stats["switch_pct"] == pytest.approx(52.0)
        assert stats["top_down_mean"] == pytest.approx(5.0)
        assert stats["bottom_up_mean"] == pytest.approx(20.0)

    def test_empty_trace(self):
        stats = frontier_statistics([])
        assert stats["mean"] == 0.0 and stats["switch_pct"] == 0.0

    def test_percentage(self):
        lv = FrontierLevel(0, "top-down", 25, 200)
        assert lv.percentage == pytest.approx(12.5)


@given(degs=st.lists(st.integers(0, 40), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_edge_mass_cdf_properties(degs):
    """The top-hub share is the complement of the edge-mass CDF over
    vertices sorted by ascending out-degree."""
    n = len(degs)
    src = np.repeat(np.arange(n), degs)
    dst = np.zeros(src.size, dtype=np.int64)
    g = from_edges(src, dst, n, directed=True)
    if g.num_edges:
        ef = np.cumsum(np.sort(g.out_degrees)) / g.num_edges
        # top-k share equals 1 - CDF at n-k.
        k = max(1, n // 3)
        share = top_hub_edge_share(g, k)
        assert share == pytest.approx(1.0 - ef[n - k - 1] if n - k - 1 >= 0
                                      else 1.0)
