"""Status-array BFS variants (Fig. 1(c), [24, 36]).

Two entry points:

* :func:`status_array_bfs` — pure top-down status-array BFS: every level
  assigns a thread group to *every* vertex; only groups holding a
  frontier do work ("the gray threads that are assigned to non-frontier
  vertices would idle with no work").  Used by tests and as the
  GraphBIG-style naive comparator's core.
* :func:`baseline_bfs` — the paper's §5.1 baseline BL: "direction-
  optimizing BFS with the status array approach ... we use CTA to work on
  each vertex in the status array, which is much faster than assigning a
  thread or warp".  This is :func:`repro.bfs.enterprise.enterprise_bfs`
  with all three techniques disabled, re-exported under its Fig. 13 name.
"""

from __future__ import annotations

from ..gpu.device import GPUDevice
from ..gpu.kernels import CTA_THREADS, Granularity, expansion_kernel, sweep_kernel
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from .common import BFSResult, topdown_traversal
from .enterprise import ABLATION_CONFIGS, enterprise_bfs

__all__ = ["status_array_bfs", "baseline_bfs"]


def status_array_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    granularity: Granularity = Granularity.CTA,
    max_levels: int = 100_000,
) -> BFSResult:
    """Pure top-down status-array BFS: no queue, no atomics, no
    direction switching.

    "The advantage of this approach is that atomic operations [are] no
    longer needed ... Here, unlike the first approach, whoever finishes
    last becomes [the] parent" (§2.1) — implemented by last-write-wins
    parent assignment in :func:`repro.bfs.common.expand_frontier`.  The
    frontier is the vertices at the current level, which that expansion
    returns in status-array order; the sweep kernel still charges the
    scan over all ``n`` entries that finds them.
    """
    device = device or GPUDevice()
    spec = device.spec
    n = graph.num_vertices
    group = CTA_THREADS if granularity is Granularity.CTA else \
        spec.warp_size if granularity is Granularity.WARP else 1

    def level_kernels(frontier, newly, edges, attempts):
        return [
            sweep_kernel(n, sequential_transactions(n, 1, spec), spec,
                         name="sa-sweep", useful_elements=frontier.size,
                         group=group),
            expansion_kernel(graph.out_degrees[frontier], granularity, spec,
                             name="sa-expand"),
        ], edges

    return topdown_traversal(graph, source, device,
                             f"status-array[{granularity.value}]",
                             level_kernels, max_levels=max_levels)


def baseline_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
) -> BFSResult:
    """The Fig. 13 baseline BL (direction-optimizing, status array,
    CTA-per-vertex)."""
    return enterprise_bfs(graph, source, device=device,
                          config=ABLATION_CONFIGS["BL"])
