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
    expand_frontier,
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
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")

    inspect_graph = graph.reverse if graph.directed else graph
    out_degrees = graph.out_degrees
    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0

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
    level = 0

    for _ in range(max_levels):
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
            expand_ps = 0
            for k in kernels:
                device.launch(k, label=f"L{level}:{k.name}")
                expand_ps += k.time_ps

            m_f_next = int(out_degrees[newly].sum()) if newly.size else 0
            alpha_value = unexplored / m_f_next if m_f_next else float("inf")
            policy.history.append(alpha_value)
            traces.append(LevelTrace(
                level=level, direction="top-down",
                frontier_count=int(frontier.size),
                newly_visited=int(newly.size), edges_checked=edges,
                expand_ps=expand_ps,
                gld_transactions=sum(k.access.transactions for k in kernels),
                kernel_names=tuple(k.name for k in kernels),
                alpha=alpha_value if np.isfinite(alpha_value) else 0.0,
            ))
            _emit_level(traces[-1], level_begin_ms)
            if newly.size == 0:
                break
            if np.isfinite(alpha_value) and alpha_value < alpha:
                direction = "switch"
            frontier = newly
            level += 1

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
            expand_ps = 0
            for k in kernels:
                device.launch(k, label=f"L{level}:{k.name}")
                expand_ps += k.time_ps

            traces.append(LevelTrace(
                level=level, direction=direction,
                frontier_count=int(candidates.size),
                newly_visited=int(outcome.found.size),
                edges_checked=outcome.edges_checked,
                expand_ps=expand_ps,
                gld_transactions=sum(k.access.transactions for k in kernels),
                kernel_names=tuple(k.name for k in kernels),
            ))
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
            level += 1

    result = BFSResult(
        algorithm="hybrid-alphabeta",
        graph_name=graph.name,
        source=source,
        levels=status,
        parents=parents,
        traces=traces,
        time_ms=device.elapsed_ms,
    )
    result.set_edges_traversed(graph)
    result.alpha_history = policy.history  # type: ignore[attr-defined]
    if tracer.enabled:
        tracer.record_span(
            "hybrid-alphabeta", run_begin_ms,
            device.elapsed_ms - run_begin_ms, cat="run",
            args={"graph": graph.name, "source": int(source),
                  "visited": result.visited, "depth": result.depth,
                  "levels": len(traces)})
    return result
