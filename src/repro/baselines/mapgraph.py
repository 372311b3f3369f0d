"""MapGraph-style BFS comparator (Fu et al. [18]) for Fig. 14.

MapGraph implements BFS on a GAS (gather-apply-scatter) abstraction: the
*gather* phase expands the frontier's edges, the *apply* phase updates
vertex state over the whole vertex set, and the *scatter* phase
activates the next frontier through atomics.  The abstraction generality
costs it a full-vertex apply sweep and an atomic scatter every level,
which is why the paper measures it ~9x behind Enterprise on power-law
graphs and ~5.6x behind on high-diameter graphs.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import (
    Granularity,
    atomic_enqueue_kernel,
    expansion_kernel,
    sweep_kernel,
)
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from ..bfs.common import BFSResult, LevelTrace, UNVISITED, expand_frontier

__all__ = ["mapgraph_bfs"]


def mapgraph_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    max_levels: int = 100_000,
) -> BFSResult:
    """GAS-abstraction BFS: gather + full apply + atomic scatter."""
    device = device or GPUDevice()
    spec = device.spec
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0

    traces: list[LevelTrace] = []
    frontier = np.array([source], dtype=np.int64)
    level = 0
    for _ in range(max_levels):
        if frontier.size == 0:
            break
        newly, their_parents, edges, attempts = expand_frontier(
            graph, frontier, status, level)
        parents[newly] = their_parents

        kernels = [
            expansion_kernel(graph.out_degrees[frontier], Granularity.CTA,
                             spec, name="mg-gather"),
            # Apply: one pass over the whole vertex state, every level.
            sweep_kernel(n, sequential_transactions(n, 4, spec), spec,
                         name="mg-apply", instr_per_element=4),
            atomic_enqueue_kernel(attempts, int(newly.size), spec,
                                  name="mg-scatter"),
        ]
        expand_ps = 0
        for k in kernels:
            device.launch(k, label=f"L{level}:{k.name}")
            expand_ps += k.time_ps

        traces.append(LevelTrace(
            level=level, direction="top-down",
            frontier_count=int(frontier.size),
            newly_visited=int(newly.size), edges_checked=edges,
            expand_ps=expand_ps,
            gld_transactions=sum(k.access.transactions for k in kernels),
            kernel_names=tuple(k.name for k in kernels),
        ))
        frontier = newly
        level += 1

    result = BFSResult(
        algorithm="mapgraph", graph_name=graph.name, source=source,
        levels=status, parents=parents, traces=traces,
        time_ms=device.elapsed_ms,
    )
    result.set_edges_traversed(graph)
    return result
