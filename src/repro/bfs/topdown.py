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
from .common import BFSResult, UNVISITED, topdown_traversal

__all__ = ["topdown_atomic_bfs"]


def _first_writer_expand(graph: CSRGraph, frontier: np.ndarray,
                         status: np.ndarray, level: int):
    """:func:`repro.bfs.common.expand_frontier` with atomicCAS
    semantics: the *first* writer wins the parent slot."""
    sources, neighbors = graph.gather_neighbors(frontier)
    unvisited = status[neighbors] == UNVISITED
    cand = neighbors[unvisited]
    uniq, first_idx = np.unique(cand, return_index=True)
    status[uniq] = level + 1
    return (uniq, sources[unvisited][first_idx], int(neighbors.size),
            int(cand.size))


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

    def level_kernels(frontier, newly, edges, attempts):
        return [
            expansion_kernel(graph.out_degrees[frontier], granularity, spec,
                             name="td-atomic-expand"),
            atomic_enqueue_kernel(attempts, int(newly.size), spec),
        ], edges

    return topdown_traversal(graph, source, device, "topdown-atomic",
                             level_kernels, max_levels=max_levels,
                             expand=_first_writer_expand)
