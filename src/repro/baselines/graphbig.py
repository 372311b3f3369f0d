"""GraphBIG-style BFS comparator (Fig. 14).

GraphBIG [2] is a vertex-centric benchmark suite whose BFS assigns one
thread per vertex against the status array every level, with no frontier
queue, no direction switching and thread-granularity expansion — the
simplest (and slowest) strategy in the Fig. 14 line-up, which the paper
beats by 74x on power-law graphs and 42x on high-diameter graphs.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, expansion_kernel, sweep_kernel
from ..gpu.memory import random_transactions
from ..graph.csr import CSRGraph
from ..bfs.common import BFSResult, LevelTrace, UNVISITED, expand_frontier

__all__ = ["graphbig_bfs"]


def graphbig_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    max_levels: int = 100_000,
) -> BFSResult:
    """One-thread-per-vertex, status-array, top-down-only BFS."""
    device = device or GPUDevice()
    spec = device.spec
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0

    traces: list[LevelTrace] = []
    level = 0
    for _ in range(max_levels):
        frontier = np.flatnonzero(status == level).astype(np.int64)
        if frontier.size == 0:
            break
        newly, their_parents, edges, _ = expand_frontier(
            graph, frontier, status, level)
        parents[newly] = their_parents

        # One thread per vertex: the status check reads each vertex's
        # property record — GraphBIG stores a property graph, not a bare
        # CSR, so the per-vertex state is a fat scattered object rather
        # than a packed status byte.  Frontier threads then serialise
        # their whole adjacency list (thread granularity, max divergence).
        kernels = [
            sweep_kernel(n, random_transactions(n, 32, spec), spec,
                         name="gb-sweep", useful_elements=frontier.size,
                         instr_per_element=12),
            expansion_kernel(graph.out_degrees[frontier], Granularity.THREAD,
                             spec, name="gb-expand"),
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
        level += 1

    result = BFSResult(
        algorithm="graphbig", graph_name=graph.name, source=source,
        levels=status, parents=parents, traces=traces,
        time_ms=device.elapsed_ms,
    )
    result.set_edges_traversed(graph)
    return result
