"""Graph generators: Kronecker, R-MAT, power-law, meshes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    KRONECKER_ABC,
    RMAT_ABC,
    kronecker_edges,
    kronecker_graph,
    powerlaw_degrees,
    powerlaw_graph,
    rmat_graph,
    road_mesh,
)
from repro.graph.generators import banded_mesh

from .generators import uniform_random_graph


class TestKronecker:
    def test_shape(self):
        g = kronecker_graph(10, 4, seed=1)
        assert g.num_vertices == 1024
        # Undirected: each generated tuple stored twice.
        assert g.num_edges == 2 * 4 * 1024

    def test_edge_tuple_count(self):
        src, dst = kronecker_edges(8, 16, seed=2)
        assert src.size == dst.size == 16 * 256

    def test_vertices_in_range(self):
        src, dst = kronecker_edges(6, 8, seed=3)
        assert src.min() >= 0 and src.max() < 64
        assert dst.min() >= 0 and dst.max() < 64

    def test_deterministic(self):
        a = kronecker_edges(8, 4, seed=9)
        b = kronecker_edges(8, 4, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_changes_graph(self):
        a = kronecker_edges(8, 4, seed=1)
        b = kronecker_edges(8, 4, seed=2)
        assert not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))

    def test_power_law_hubs_exist(self):
        """The Graph 500 initiator produces heavy hubs: max degree far
        above the mean (the premise of Challenge #3)."""
        g = kronecker_graph(12, 16, seed=1)
        assert g.max_degree > 10 * g.mean_degree

    def test_default_initiator_is_graph500(self):
        assert KRONECKER_ABC == (0.57, 0.19, 0.19)

    def test_name_encodes_scale_and_edgefactor(self):
        assert kronecker_graph(9, 4).name == "Kron-9-4"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kronecker_edges(0, 4)
        with pytest.raises(ValueError):
            kronecker_edges(4, 0)
        with pytest.raises(ValueError):
            kronecker_edges(4, 4, abc=(0.9, 0.9, 0.9))


class TestRmat:
    def test_initiator(self):
        assert RMAT_ABC == (0.45, 0.15, 0.15)

    def test_shape(self):
        g = rmat_graph(9, 8, seed=1)
        assert g.num_vertices == 512
        assert g.num_edges == 2 * 8 * 512

    def test_less_skewed_than_kronecker(self):
        """R-MAT's flatter initiator yields a flatter degree tail than the
        Graph 500 Kronecker at equal size."""
        k = kronecker_graph(11, 8, seed=5)
        r = rmat_graph(11, 8, seed=5)
        assert r.max_degree < k.max_degree


class TestPowerlaw:
    def test_degree_sequence_mean(self):
        degs = powerlaw_degrees(5000, 12.0, 2.1, 1000, seed=1)
        assert degs.min() >= 1
        assert degs.max() <= 1000
        assert abs(degs.mean() - 12.0) / 12.0 < 0.35

    def test_graph_mean_degree(self):
        g = powerlaw_graph(2000, 10.0, 2.1, 500, seed=1)
        assert abs(g.mean_degree - 10.0) / 10.0 < 0.35

    def test_directed_flag(self):
        g = powerlaw_graph(500, 5.0, 2.1, 50, directed=True, seed=1)
        assert g.directed

    def test_undirected_symmetric(self):
        g = powerlaw_graph(300, 6.0, 2.1, 50, seed=2)
        src, dst = g.edges()
        fwd = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in fwd for a, b in fwd)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            powerlaw_degrees(0, 5.0, 2.1, 10)
        with pytest.raises(ValueError):
            powerlaw_degrees(10, -1.0, 2.1, 10)


class TestMeshes:
    def test_road_mesh_shape(self):
        g = road_mesh(10, diagonal_fraction=0.0)
        assert g.num_vertices == 100
        # 2 * (side*(side-1)*2) directed edges for the plain grid
        assert g.num_edges == 2 * 2 * 10 * 9

    def test_road_mesh_small_max_degree(self):
        g = road_mesh(16, diagonal_fraction=0.05, seed=1)
        assert g.max_degree <= 8

    def test_road_mesh_rejects_tiny(self):
        with pytest.raises(ValueError):
            road_mesh(1)

    def test_banded_mesh_degrees(self):
        g = banded_mesh(100, 5)
        # Interior vertices connect to 5 on each side.
        assert g.max_degree == 10
        assert int(g.out_degrees[0]) == 5

    def test_banded_mesh_connected_diameter(self):
        from repro.bfs import reference_bfs_levels
        g = banded_mesh(60, 4)
        levels = reference_bfs_levels(g, 0)
        assert levels.min() >= 0  # fully connected
        assert int(levels.max()) == int(np.ceil(59 / 4))

    def test_banded_mesh_validation(self):
        with pytest.raises(ValueError):
            banded_mesh(1, 3)
        with pytest.raises(ValueError):
            banded_mesh(10, 0)


class TestUniform:
    def test_shape(self):
        g = uniform_random_graph(100, 300, directed=True, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 300

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform_random_graph(0, 5)


@given(scale=st.integers(4, 10), ef=st.integers(1, 8),
       seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_kronecker_always_valid_csr(scale, ef, seed):
    g = kronecker_graph(scale, ef, seed=seed)
    assert g.num_vertices == 1 << scale
    assert g.num_edges == 2 * ef * (1 << scale)
    assert int(g.out_degrees.sum()) == g.num_edges


@given(n=st.integers(10, 400), mean=st.floats(1.0, 12.0),
       exponent=st.floats(1.6, 3.0), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_powerlaw_degrees_bounds(n, mean, exponent, seed):
    degs = powerlaw_degrees(n, mean, exponent, max_degree=n, seed=seed)
    assert degs.shape == (n,)
    assert degs.min() >= 1
    assert degs.max() <= n
