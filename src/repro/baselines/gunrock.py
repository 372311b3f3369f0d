"""Gunrock-style BFS comparator (Wang et al. [44]) for Fig. 14.

Gunrock's data-centric abstraction alternates an *advance* operator
(expand the frontier's edges with per-level load balancing) and a
*filter* operator (compact the output into the next frontier, removing
duplicates and visited vertices).  Strengths: frontier-centric (no
full-vertex sweeps) with decent load balancing.  Costs relative to
Enterprise, per the paper's measurements (4-5x behind on power-law,
~2x on high-diameter):

* top-down only in the compared configuration — no explosion skipping;
* the advance operator's per-warp/CTA load balancing is coarser than
  Enterprise's four-way classification (warp granularity here);
* the filter is an atomic-compaction pass over every candidate edge
  endpoint, a per-level overhead Enterprise's two-step scan avoids.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import (
    Granularity,
    expansion_kernel,
    prefix_sum_kernel,
    sweep_kernel,
)
from ..gpu.memory import random_transactions
from ..graph.csr import CSRGraph
from ..bfs.common import BFSResult, topdown_traversal

__all__ = ["gunrock_bfs"]


def gunrock_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    max_levels: int = 100_000,
) -> BFSResult:
    """Advance/filter frontier BFS with warp-granularity load balancing."""
    device = device or GPUDevice()
    spec = device.spec

    def level_kernels(frontier, newly, edges, attempts):
        # Gunrock's idempotent advance skips atomic dedup, so the output
        # frontier carries duplicated entries that get re-expanded; its
        # warp-level heuristics bound the duplication at roughly the
        # unique frontier size.
        dup_vertices = int(min(max(attempts - newly.size, 0), newly.size))
        advance_loads = graph.out_degrees[frontier]
        if dup_vertices and newly.size:
            advance_loads = np.concatenate(
                [advance_loads, graph.out_degrees[newly[:dup_vertices]]])

        # Load-balance partitioning pass (merge-path search over the
        # frontier's degree prefix), then the advance, then the filter —
        # a scan-based compaction that idempotently re-checks every
        # candidate's status (scattered reads).
        filter_access = random_transactions(max(attempts, 1), 8, spec)
        return [
            prefix_sum_kernel(max(1, -(-frontier.size // 256)), spec,
                              name="gr-lb-partition"),
            expansion_kernel(advance_loads, Granularity.WARP,
                             spec, name="gr-advance"),
            sweep_kernel(max(attempts, 1), filter_access, spec,
                         name="gr-filter", instr_per_element=8),
        ], edges

    return topdown_traversal(graph, source, device, "gunrock",
                             level_kernels, max_levels=max_levels)
