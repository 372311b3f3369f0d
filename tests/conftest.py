"""Shared fixtures: small deterministic graphs and devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import GPUDevice, KEPLER_K40
from repro.graph import (
    CSRGraph,
    from_edges,
    kronecker_graph,
    powerlaw_graph,
    road_mesh,
)

from .generators import uniform_random_graph


@pytest.fixture
def paper_example() -> CSRGraph:
    """The 10-vertex example graph of Fig. 1 (one valid reconstruction).

    Level structure from the figure's status array: vertex 0 is the root;
    {1, 4} at level 1; {2, 7} at level 2; {3, 5, 6, 8, 9} at level 3 with
    2 the parent of 3 and 5, and 7 the parent of 8.
    """
    edges = [
        (0, 1), (0, 4),
        (1, 2), (4, 2), (4, 7),
        (2, 3), (2, 5), (7, 8), (1, 6), (7, 9),
        (3, 5),  # cross edge inside level 3
    ]
    src, dst = zip(*edges)
    return from_edges(np.array(src), np.array(dst), 10, directed=False,
                      name="fig1")


@pytest.fixture
def small_powerlaw() -> CSRGraph:
    return powerlaw_graph(512, 8.0, 2.1, 64, seed=3, name="pl-512")


@pytest.fixture
def small_directed_powerlaw() -> CSRGraph:
    return powerlaw_graph(512, 6.0, 2.2, 64, directed=True, seed=4,
                          name="pl-dir-512")


@pytest.fixture
def small_kron() -> CSRGraph:
    return kronecker_graph(8, 8, seed=5)


@pytest.fixture
def small_mesh() -> CSRGraph:
    return road_mesh(12, diagonal_fraction=0.0, name="mesh-12")


@pytest.fixture
def small_uniform() -> CSRGraph:
    return uniform_random_graph(300, 900, seed=6, name="uniform-300")


@pytest.fixture
def device() -> GPUDevice:
    return GPUDevice(KEPLER_K40)


@pytest.fixture(params=["powerlaw", "directed", "kron", "mesh", "uniform"])
def any_graph(request, small_powerlaw, small_directed_powerlaw, small_kron,
              small_mesh, small_uniform) -> CSRGraph:
    """Parametrised fixture covering every small graph family."""
    return {
        "powerlaw": small_powerlaw,
        "directed": small_directed_powerlaw,
        "kron": small_kron,
        "mesh": small_mesh,
        "uniform": small_uniform,
    }[request.param]
