"""Pure bottom-up BFS (Fig. 1(d)) — the taxonomy's fourth corner.

Top-down queue (Fig. 1b), status array (Fig. 1c) and the hybrid are
implemented elsewhere; this module runs *every* level bottom-up: all
unvisited vertices inspect their (in-)neighbors for a parent at the
previous level.  Pedagogically useful and the worst case §2.1 warns
about — the early levels scan nearly the whole graph to discover a
handful of vertices, which the tests and the direction-optimizing
comparison quantify.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import CTA_THREADS, Granularity, expansion_kernel, sweep_kernel
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from .common import (
    BFSResult,
    LevelTrace,
    UNVISITED,
    bottom_up_inspect,
    charge_level,
    finish_traversal,
    start_traversal,
)

__all__ = ["bottomup_bfs"]


def bottomup_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    max_levels: int = 100_000,
) -> BFSResult:
    """Run BFS with bottom-up inspection at every level."""
    device = device or GPUDevice()
    spec = device.spec
    n = graph.num_vertices
    status, parents = start_traversal(graph, source)
    inspect_graph = graph.reverse if graph.directed else graph

    traces: list[LevelTrace] = []
    candidates = np.flatnonzero(status == UNVISITED).astype(np.int64)
    for level in range(max_levels):
        if candidates.size == 0:
            break
        outcome = bottom_up_inspect(inspect_graph, candidates, status,
                                    level)
        parents[outcome.found] = outcome.parents

        kernels = [
            sweep_kernel(n, sequential_transactions(n, 1, spec), spec,
                         name="pb-sweep", useful_elements=candidates.size,
                         group=CTA_THREADS),
            expansion_kernel(np.maximum(outcome.lookups, 1),
                             Granularity.CTA, spec, name="pb-inspect"),
        ]
        traces.append(charge_level(
            device, level, "bottom-up", kernels,
            frontier_count=candidates.size,
            newly_visited=outcome.found.size,
            edges_checked=outcome.edges_checked))
        if outcome.found.size == 0:
            break
        candidates = candidates[status[candidates] == UNVISITED]

    return finish_traversal("bottomup-only", graph, source, status, parents,
                            traces, device)
