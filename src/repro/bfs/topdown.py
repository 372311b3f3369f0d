"""Top-down BFS with atomic-operation frontier queues (Fig. 1(b), [30]).

The classic GPU formulation the paper uses to motivate TS: every frontier
thread inspects its adjacency list and enqueues unvisited neighbors with
``atomicCAS``, "to ensure that FQ has no duplicated frontiers, where
whichever thread that finishes first would become the parent".  §2.1 notes
the cost: "for GPUs such operations can lead to expensive overhead among a
large quantity of GPU threads" — which is why §5.1 uses the status-array
variant as the baseline instead ("atomic operation based frontier queue
would be much slower").

The model charges every enqueue *attempt* (duplicates included) an atomic
read-modify-write through :func:`repro.gpu.kernels.atomic_enqueue_kernel`.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, atomic_enqueue_kernel, expansion_kernel
from ..graph.csr import CSRGraph
from .common import BFSResult, LevelTrace, UNVISITED

__all__ = ["topdown_atomic_bfs"]


def topdown_atomic_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    granularity: Granularity = Granularity.WARP,
    max_levels: int = 100_000,
) -> BFSResult:
    """Atomic-queue top-down BFS (no direction optimization)."""
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
        sources, neighbors = graph.gather_neighbors(frontier)
        edges = int(neighbors.size)
        unvisited = status[neighbors] == UNVISITED
        attempts = int(np.count_nonzero(unvisited))
        cand = neighbors[unvisited]
        cand_src = sources[unvisited]
        # atomicCAS semantics: the *first* writer wins the parent slot.
        uniq, first_idx = np.unique(cand, return_index=True)
        parents[uniq] = cand_src[first_idx]
        status[uniq] = level + 1

        kernels = [
            expansion_kernel(graph.out_degrees[frontier], granularity, spec,
                             name="td-atomic-expand"),
            atomic_enqueue_kernel(attempts, int(uniq.size), spec),
        ]
        expand_ps = 0
        for k in kernels:
            device.launch(k, label=f"L{level}:{k.name}")
            expand_ps += k.time_ps

        traces.append(LevelTrace(
            level=level, direction="top-down",
            frontier_count=int(frontier.size),
            newly_visited=int(uniq.size), edges_checked=edges,
            expand_ps=expand_ps,
            gld_transactions=sum(k.access.transactions for k in kernels),
            kernel_names=tuple(k.name for k in kernels),
        ))
        frontier = uniq
        level += 1

    result = BFSResult(
        algorithm="topdown-atomic",
        graph_name=graph.name,
        source=source,
        levels=status,
        parents=parents,
        traces=traces,
        time_ms=device.elapsed_ms,
    )
    result.set_edges_traversed(graph)
    return result
