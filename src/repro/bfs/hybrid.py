"""Hybrid (direction-optimizing) BFS of prior work [10] (Fig. 2).

Beamer, Asanović and Patterson's CPU formulation, reproduced as the
"prior approach" Enterprise is measured against: frontier-queue top-down
expansion, status-array bottom-up inspection, α-triggered switch to
bottom-up and β-triggered switch back to top-down for the long tail —
the switch-back §4.3 finds "neither necessary nor beneficial" for GPUs.

Cost-wise this runs the atomic-queue top-down kernels (the queue must be
deduplicated somehow, and [10] predates Enterprise's two-step scan) and
the full-status-array bottom-up sweep, which is what makes its α
parameter behave as in Fig. 10.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import (
    CTA_THREADS,
    Granularity,
    atomic_enqueue_kernel,
    expansion_kernel,
    sweep_kernel,
)
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from ..observ.registry import get_registry
from ..observ.tracer import get_tracer
from .common import (
    BFSResult,
    LevelTrace,
    UNVISITED,
    bottom_up_inspect,
    charge_level,
    expand_frontier,
    finish_traversal,
    start_traversal,
)
from .direction import AlphaBetaPolicy

__all__ = ["hybrid_bfs"]


def hybrid_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    alpha: float = 14.0,
    beta: float = 24.0,
    max_levels: int = 100_000,
) -> BFSResult:
    """α/β direction-optimizing BFS [10] on the simulated GPU."""
    device = device or GPUDevice()
    spec = device.spec
    n = graph.num_vertices
    status, parents = start_traversal(graph, source)
    inspect_graph = graph.reverse if graph.directed else graph
    out_degrees = graph.out_degrees

    policy = AlphaBetaPolicy(alpha=alpha, beta=beta)
    policy.setup(graph)

    tracer = get_tracer()
    registry = get_registry()
    run_begin_ms = device.elapsed_ms

    def _emit_level(t: LevelTrace, begin_ms: float) -> None:
        if tracer.enabled:
            tracer.record_span(
                f"L{t.level} {t.direction}", begin_ms,
                device.elapsed_ms - begin_ms, cat="level",
                args={"direction": t.direction,
                      "frontier": t.frontier_count,
                      "newly_visited": t.newly_visited,
                      "edges_checked": t.edges_checked})
            tracer.record_counter("frontier size", begin_ms,
                                  {"vertices": t.frontier_count})
            if t.direction == "top-down":
                tracer.record_counter("alpha", begin_ms, {"alpha": t.alpha})
        if registry.enabled:
            labels = dict(algorithm="hybrid-alphabeta", graph=graph.name,
                          direction=t.direction)
            registry.counter("repro.bfs.levels", **labels).inc()
            registry.counter("repro.bfs.edges_checked",
                             **labels).inc(t.edges_checked)
            registry.counter("repro.bfs.gld_transactions",
                             **labels).inc(t.gld_transactions)

    traces: list[LevelTrace] = []
    unexplored = graph.num_edges - int(out_degrees[source])
    direction = "top-down"
    frontier = np.array([source], dtype=np.int64)

    for level in range(max_levels):
        if direction == "top-down":
            if frontier.size == 0:
                break
            level_begin_ms = device.elapsed_ms
            newly, their_parents, edges, attempts = expand_frontier(
                graph, frontier, status, level)
            parents[newly] = their_parents
            unexplored -= int(out_degrees[frontier].sum())

            kernels = [
                expansion_kernel(out_degrees[frontier], Granularity.WARP,
                                 spec, name="hy-td-expand"),
                atomic_enqueue_kernel(attempts, int(newly.size), spec),
            ]
            m_f_next = int(out_degrees[newly].sum()) if newly.size else 0
            alpha_value = unexplored / m_f_next if m_f_next else float("inf")
            policy.history.append(alpha_value)
            traces.append(charge_level(
                device, level, "top-down", kernels,
                frontier_count=frontier.size, newly_visited=newly.size,
                edges_checked=edges,
                alpha=alpha_value if np.isfinite(alpha_value) else 0.0))
            _emit_level(traces[-1], level_begin_ms)
            if newly.size == 0:
                break
            if np.isfinite(alpha_value) and alpha_value < alpha:
                direction = "switch"
            frontier = newly

        else:
            candidates = np.flatnonzero(status == UNVISITED).astype(np.int64)
            if candidates.size == 0:
                break
            level_begin_ms = device.elapsed_ms
            outcome = bottom_up_inspect(inspect_graph, candidates, status,
                                        level)
            parents[outcome.found] = outcome.parents
            unexplored -= outcome.edges_checked

            kernels = [
                sweep_kernel(n, sequential_transactions(n, 1, spec), spec,
                             name="hy-bu-sweep",
                             useful_elements=candidates.size,
                             group=CTA_THREADS),
                expansion_kernel(np.maximum(outcome.lookups, 1),
                                 Granularity.CTA, spec, name="hy-bu-inspect"),
            ]
            traces.append(charge_level(
                device, level, direction, kernels,
                frontier_count=candidates.size,
                newly_visited=outcome.found.size,
                edges_checked=outcome.edges_checked))
            _emit_level(traces[-1], level_begin_ms)
            if outcome.found.size == 0:
                break
            # β compares n against the *frontier queue* size — the
            # vertices just visited, which seed the next level.
            if policy.should_switch_up_down(n, int(outcome.found.size)):
                direction = "top-down"
                frontier = outcome.found
            else:
                direction = "bottom-up"

    result = finish_traversal("hybrid-alphabeta", graph, source, status,
                              parents, traces, device)
    result.alpha_history = policy.history  # type: ignore[attr-defined]
    if tracer.enabled:
        tracer.record_span(
            "hybrid-alphabeta", run_begin_ms,
            device.elapsed_ms - run_begin_ms, cat="run",
            args={"graph": graph.name, "source": int(source),
                  "visited": result.visited, "depth": result.depth,
                  "levels": len(traces)})
    return result
