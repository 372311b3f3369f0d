"""B40C-style BFS comparator (Merrill et al. [33]) for Fig. 14.

B40C ("back-40-computing") pioneered scan-based frontier queues with
near-perfect fine-grained load balancing: every level it prefix-sums the
frontier's out-degrees and assigns threads *per edge*, so no lane idles
regardless of degree skew.  Its two limitations relative to Enterprise,
per the paper:

* top-down only — every frontier edge is inspected every level, where
  Enterprise's direction switching skips the bulk ("avoiding to visit the
  remaining 79% edges");
* its queue relies on warp + historical *culling*, which "could not
  completely avoid duplicated vertices across warps being enqueued"
  (Challenge #1) — modelled as the surviving duplicate attempts being
  re-expanded.

On high-diameter graphs (no explosion to skip) it is the strongest
baseline, and the paper reports Enterprise merely matching it — slightly
losing on europe.osm.
"""

from __future__ import annotations

from ..gpu.device import GPUDevice
from ..gpu.kernels import prefix_sum_kernel, sweep_kernel
from ..gpu.memory import AccessPattern, sequential_transactions
from ..graph.csr import CSRGraph
from ..bfs.common import BFSResult, topdown_traversal

__all__ = ["b40c_bfs"]

#: Fraction of cross-warp duplicate enqueue attempts the warp/historical
#: culling fails to remove (Merrill reports small residual duplication).
RESIDUAL_DUPLICATION = 0.15


def b40c_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    max_levels: int = 100_000,
) -> BFSResult:
    """Scan-based edge-parallel top-down BFS with culling."""
    device = device or GPUDevice()
    spec = device.spec

    def level_kernels(frontier, newly, edges, attempts):
        # Residual duplicates survive culling and are re-expanded next
        # level: charge their adjacency work as extra inspected edges.
        # Warp + historical culling keeps the residual bounded by the
        # unique frontier size even when candidate overlap is extreme.
        dups = min(int(RESIDUAL_DUPLICATION * max(attempts - newly.size, 0)),
                   int(newly.size))
        extra_edges = int(dups * graph.mean_degree)

        # Edge-parallel gather: one thread per (frontier) edge, perfectly
        # balanced; adjacency reads sequential per segment, status checks
        # scattered.
        work = edges + extra_edges
        seg = spec.max_transaction_bytes
        small = min(spec.transaction_bytes)
        adj_tx = -(-work * 8 // seg)
        tx = adj_tx + work
        access = AccessPattern(2 * work, tx, adj_tx * seg + work * small)
        return [
            prefix_sum_kernel(max(1, -(-frontier.size // 256)), spec,
                              name="b40c-scan"),
            sweep_kernel(max(work, 1), access, spec, name="b40c-gather",
                         instr_per_element=10),
            sweep_kernel(max(newly.size + dups, 1),
                         sequential_transactions(newly.size + dups, 8, spec),
                         spec, name="b40c-contract", instr_per_element=6),
        ], work

    return topdown_traversal(graph, source, device, "b40c", level_kernels,
                             max_levels=max_levels)
