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

from ..gpu.device import GPUDevice
from ..gpu.kernels import (
    Granularity,
    atomic_enqueue_kernel,
    expansion_kernel,
    sweep_kernel,
)
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from ..bfs.common import BFSResult, topdown_traversal

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

    def level_kernels(frontier, newly, edges, attempts):
        return [
            expansion_kernel(graph.out_degrees[frontier], Granularity.CTA,
                             spec, name="mg-gather"),
            # Apply: one pass over the whole vertex state, every level.
            sweep_kernel(n, sequential_transactions(n, 4, spec), spec,
                         name="mg-apply", instr_per_element=4),
            atomic_enqueue_kernel(attempts, int(newly.size), spec,
                                  name="mg-scatter"),
        ], edges

    return topdown_traversal(graph, source, device, "mapgraph",
                             level_kernels, max_levels=max_levels)
