"""GraphBIG-style BFS comparator (Fig. 14).

GraphBIG [2] is a vertex-centric benchmark suite whose BFS assigns one
thread per vertex against the status array every level, with no frontier
queue, no direction switching and thread-granularity expansion — the
simplest (and slowest) strategy in the Fig. 14 line-up, which the paper
beats by 74x on power-law graphs and 42x on high-diameter graphs.
"""

from __future__ import annotations

from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, expansion_kernel, sweep_kernel
from ..gpu.memory import random_transactions
from ..graph.csr import CSRGraph
from ..bfs.common import BFSResult, topdown_traversal

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

    def level_kernels(frontier, newly, edges, attempts):
        # One thread per vertex: the status check reads each vertex's
        # property record — GraphBIG stores a property graph, not a bare
        # CSR, so the per-vertex state is a fat scattered object rather
        # than a packed status byte.  Frontier threads then serialise
        # their whole adjacency list (thread granularity, max divergence).
        # The sweep charges the scan that finds the frontier; the loop
        # hands it over as the last level's newly visited vertices.
        return [
            sweep_kernel(n, random_transactions(n, 32, spec), spec,
                         name="gb-sweep", useful_elements=frontier.size,
                         instr_per_element=12),
            expansion_kernel(graph.out_degrees[frontier], Granularity.THREAD,
                             spec, name="gb-expand"),
        ], edges

    return topdown_traversal(graph, source, device, "graphbig",
                             level_kernels, max_levels=max_levels)
