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
from .common import BFSResult, LevelTrace, UNVISITED, bottom_up_inspect

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
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    inspect_graph = graph.reverse if graph.directed else graph
    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0

    traces: list[LevelTrace] = []
    candidates = np.flatnonzero(status == UNVISITED).astype(np.int64)
    level = 0
    for _ in range(max_levels):
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
        expand_ps = 0
        for k in kernels:
            device.launch(k, label=f"L{level}:{k.name}")
            expand_ps += k.time_ps

        traces.append(LevelTrace(
            level=level, direction="bottom-up",
            frontier_count=int(candidates.size),
            newly_visited=int(outcome.found.size),
            edges_checked=outcome.edges_checked,
            expand_ps=expand_ps,
            gld_transactions=sum(k.access.transactions for k in kernels),
            kernel_names=tuple(k.name for k in kernels),
        ))
        if outcome.found.size == 0:
            break
        candidates = candidates[status[candidates] == UNVISITED]
        level += 1

    result = BFSResult(
        algorithm="bottomup-only",
        graph_name=graph.name,
        source=source,
        levels=status,
        parents=parents,
        traces=traces,
        time_ms=device.elapsed_ms,
    )
    result.set_edges_traversed(graph)
    return result
