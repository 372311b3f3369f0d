"""Barabási–Albert and Watts–Strogatz generators; landmark oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.landmarks import build_oracle
from repro.bfs import reference_bfs_levels
from repro.graph import powerlaw_graph

from .generators import barabasi_albert_graph, watts_strogatz_graph


class TestBarabasiAlbert:
    def test_shape(self):
        g = barabasi_albert_graph(200, 3, seed=1)
        assert g.num_vertices == 200
        # (n - m) new vertices x m undirected edges x 2 orientations.
        assert g.num_edges == 2 * (200 - 3) * 3

    def test_power_law_hubs(self):
        g = barabasi_albert_graph(500, 2, seed=2)
        assert g.max_degree > 8 * g.mean_degree

    def test_disassortative(self):
        from repro.graph import degree_assortativity
        g = barabasi_albert_graph(300, 2, seed=3)
        assert degree_assortativity(g) < 0.1

    def test_connected(self):
        g = barabasi_albert_graph(150, 2, seed=4)
        levels = reference_bfs_levels(g, 0)
        assert (levels >= 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(5, 0)
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, 5)


class TestWattsStrogatz:
    def test_lattice_when_no_rewiring(self):
        g = watts_strogatz_graph(40, 4, 0.0, seed=1)
        assert (g.out_degrees == 4).all()

    def test_no_hubs(self):
        """The non-power-law small world: flat degrees, so γ never has a
        meaningful hub set to trigger on."""
        g = watts_strogatz_graph(300, 6, 0.1, seed=2)
        assert g.max_degree < 4 * g.mean_degree

    def test_rewiring_shortens_paths(self):
        from repro.apps import double_sweep
        ring = watts_strogatz_graph(300, 4, 0.0, seed=3)
        small_world = watts_strogatz_graph(300, 4, 0.2, seed=3)
        assert double_sweep(small_world).lower_bound < \
            double_sweep(ring).lower_bound

    def test_high_clustering_at_low_p(self):
        from repro.graph import average_clustering
        lattice = watts_strogatz_graph(200, 6, 0.0, seed=4)
        random_ish = watts_strogatz_graph(200, 6, 1.0, seed=4)
        assert average_clustering(lattice) > \
            average_clustering(random_ish)

    def test_validation(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(20, 3, 0.1)   # odd k
        with pytest.raises(ValueError):
            watts_strogatz_graph(20, 4, 1.5)   # bad p
        with pytest.raises(ValueError):
            watts_strogatz_graph(4, 4, 0.1)    # too small


class TestLandmarkOracle:
    @pytest.fixture
    def graph(self):
        return powerlaw_graph(400, 6.0, 2.0, 80, seed=27, name="lm")

    def test_bounds_bracket_truth(self, graph):
        oracle = build_oracle(graph, 8)
        rng = np.random.default_rng(1)
        for u in rng.choice(graph.num_vertices, 10, replace=False):
            levels = reference_bfs_levels(graph, int(u))
            for v in rng.choice(graph.num_vertices, 10, replace=False):
                true = int(levels[v])
                if true < 0:
                    continue
                assert oracle.lower_bound(int(u), int(v)) <= true
                assert oracle.upper_bound(int(u), int(v)) >= true

    def test_exact_for_landmark_queries(self, graph):
        oracle = build_oracle(graph, 8)
        lm = int(oracle.landmarks[0])
        levels = reference_bfs_levels(graph, lm)
        for v in range(0, graph.num_vertices, 37):
            if levels[v] >= 0:
                assert oracle.estimate(lm, v) == int(levels[v])

    def test_same_vertex_zero(self, graph):
        oracle = build_oracle(graph, 4)
        assert oracle.estimate(5, 5) == 0

    def test_more_landmarks_tighter(self, graph):
        few = build_oracle(graph, 2)
        many = build_oracle(graph, 16)
        rng = np.random.default_rng(2)
        pairs = rng.choice(graph.num_vertices, size=(20, 2))
        few_err = sum(few.upper_bound(int(a), int(b)) for a, b in pairs)
        many_err = sum(many.upper_bound(int(a), int(b)) for a, b in pairs)
        assert many_err <= few_err

    def test_directed_uses_both_directions(self):
        g = powerlaw_graph(200, 5.0, 2.1, 40, directed=True, seed=9)
        oracle = build_oracle(g, 6)
        levels = reference_bfs_levels(g, int(oracle.landmarks[0]))
        v = int(np.flatnonzero(levels > 0)[0])
        assert oracle.upper_bound(int(oracle.landmarks[0]), v) == \
            int(levels[v])

    def test_selection_modes_and_validation(self, graph):
        r = build_oracle(graph, 4, selection="random", seed=3)
        assert r.num_landmarks == 4
        with pytest.raises(ValueError):
            build_oracle(graph, 0)
        with pytest.raises(ValueError):
            build_oracle(graph, 4, selection="magic")

    def test_hub_selection_picks_hubs(self, graph):
        oracle = build_oracle(graph, 4, selection="degree")
        top4 = np.sort(np.argsort(-graph.out_degrees)[:4])
        assert np.array_equal(oracle.landmarks, top4)
