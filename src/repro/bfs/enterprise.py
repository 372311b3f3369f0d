"""Enterprise: the full GPU BFS system (§4) and its ablation ladder.

:func:`enterprise_bfs` runs direction-optimizing BFS on a simulated GPU
with each of the paper's three techniques independently switchable, which
yields exactly the four configurations of Fig. 13:

* **BL** — the baseline: "direction-optimizing BFS with the status array
  approach ... we use CTA to work on each vertex in the status array"
  (§5.1).  No frontier queue; every level sweeps all n vertices.
* **BL + TS** — streamlined thread scheduling: the two-step frontier
  queue with the three workflows of §4.1; expansion uses the prior-work
  static granularity (one warp per frontier).
* **BL + TS + WB** — adds the four-queue degree classification with
  Thread/Warp/CTA/Grid kernels running concurrently under Hyper-Q (§4.2).
* **BL + TS + WB + HC** — full Enterprise: γ-based one-time direction
  switching plus the shared-memory hub-vertex cache for the switch and
  bottom-up levels (§4.3).

The traversal logic is identical across configurations (same status
array, same visitation rules); the configurations differ in which kernels
are launched and therefore in simulated time and counters — as on real
hardware.  Every configuration switches once on γ (§4.3) unless
``switch_policy="alpha"`` selects the prior-work α/β heuristic [10].
Both indicator series are recorded every level regardless, feeding
Fig. 10.  Out-of-core traversal (:mod:`repro.storage.ooc`) runs the same
level loop with a staging step before each level's kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..gpu.clock import PS_PER_MS
from ..gpu.counters import aggregate_counters
from ..gpu.device import GPUDevice
from ..gpu.kernels import (
    CTA_THREADS,
    Granularity,
    KernelCost,
    expansion_kernel,
    sweep_kernel,
)
from ..gpu.memory import sequential_transactions
from ..gpu.specs import DeviceSpec
from ..graph.csr import CSRGraph
from ..observ.registry import get_registry
from ..observ.tracer import get_tracer
from .classify import QUEUE_BOUNDS, QUEUE_GRANULARITY, classify_frontiers
from .common import (
    BFSResult,
    LevelTrace,
    UNVISITED,
    bottom_up_inspect,
    expand_frontier,
)
from .direction import AlphaBetaPolicy, GammaPolicy
from .frontier import (
    bottomup_filter_workflow,
    queue_contiguity,
    switch_interleaved_workflow,
    switch_workflow,
    topdown_workflow,
)
from .hubcache import HubCachePolicy

__all__ = ["EnterpriseConfig", "enterprise_bfs", "ABLATION_CONFIGS"]


@dataclass(frozen=True)
class EnterpriseConfig:
    """Feature switches and tunables for one Enterprise run."""

    thread_scheduling: bool = True     # TS (§4.1)
    workload_balancing: bool = True    # WB (§4.2)
    hub_cache: bool = True             # HC + γ switching (§4.3)
    #: Which indicator triggers the top-down -> bottom-up switch:
    #: "gamma" (Enterprise's one-time hub-ratio switch, §4.3) or "alpha"
    #: (the prior-work heuristic [10], kept for the Fig. 10 comparison —
    #: with α/β the traversal may also switch back for the long tail).
    switch_policy: str = "gamma"
    gamma_threshold: float = 30.0
    alpha: float = 14.0
    beta: float = 24.0
    queue_bounds: tuple[int, int, int] = QUEUE_BOUNDS
    #: Shared-memory split for the hub cache; None = device maximum (48 KB
    #: on Kepler).
    shared_config_bytes: int | None = None
    #: Scan workflow used at the explosion level: "blocked" (§4.1's
    #: direction-switching workflow — strided scan, sorted queue, better
    #: next-level locality; the paper's choice, +16% avg / +33% on FB) or
    #: "interleaved" (reuse the top-down scan — cheaper scan, unsorted
    #: queue).  An ablation knob for the Fig. 7(b) design decision.
    switch_scan: str = "blocked"
    #: Hard cap on levels, a guard against malformed graphs; every
    #: topology (single-GPU, out-of-core, 1-D, 2-D, cluster) stops there.
    max_levels: int = 100_000

    def __post_init__(self) -> None:
        if self.switch_policy not in ("gamma", "alpha"):
            raise ValueError(
                f"switch_policy must be 'gamma' or 'alpha', "
                f"got {self.switch_policy!r}")
        if self.switch_scan not in ("blocked", "interleaved"):
            raise ValueError(
                f"switch_scan must be 'blocked' or 'interleaved', "
                f"got {self.switch_scan!r}")
        lo, mid, hi = self.queue_bounds
        if not (0 < lo < mid < hi):
            raise ValueError("queue_bounds must be increasing positives")
        if not 0 < self.gamma_threshold < 100:
            raise ValueError("gamma_threshold is a percentage in (0, 100)")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.max_levels <= 0:
            raise ValueError("max_levels must be positive")

    def reject_unmodelled(self, names, traversal: str) -> None:
        """Raise ``ValueError`` naming the first of ``names`` set away
        from its default: ``traversal`` does not model those fields, and
        running it anyway would silently ignore them."""
        default = EnterpriseConfig()
        for name in names:
            value = getattr(self, name)
            if value != getattr(default, name):
                raise ValueError(
                    f"{traversal} does not model {name}={value!r}")

    def label(self) -> str:
        parts = ["BL"]
        if self.thread_scheduling:
            parts.append("TS")
        if self.workload_balancing:
            parts.append("WB")
        if self.hub_cache:
            parts.append("HC")
        return "+".join(parts)


#: The Fig. 13 ablation ladder, in presentation order.
ABLATION_CONFIGS = {
    "BL": EnterpriseConfig(thread_scheduling=False, workload_balancing=False,
                           hub_cache=False),
    "TS": EnterpriseConfig(thread_scheduling=True, workload_balancing=False,
                           hub_cache=False),
    "WB": EnterpriseConfig(thread_scheduling=True, workload_balancing=True,
                           hub_cache=False),
    "HC": EnterpriseConfig(thread_scheduling=True, workload_balancing=True,
                           hub_cache=True),
}


def _wb_kernels(
    queue: np.ndarray,
    classify_degrees: np.ndarray,
    vertex_workloads: np.ndarray,
    config: EnterpriseConfig,
    spec: DeviceSpec,
    *,
    locality: float,
    shared_hits: int,
    phase: str,
    metric_labels: dict[str, str] | None = None,
) -> list[KernelCost]:
    """Classification pass plus the four granularity-matched kernels.

    ``classify_degrees`` drives which queue each frontier lands in (its
    out-degree in the traversal direction); ``vertex_workloads`` is the
    vertex-indexed number of edge inspections the kernel actually performs
    (full degree top-down, early-terminated lookups bottom-up).
    """
    classified = classify_frontiers(queue, classify_degrees, spec,
                                    bounds=config.queue_bounds)
    registry = get_registry()
    if registry.enabled:
        for qname, members in classified.queues.items():
            if members.size:
                registry.counter(
                    "repro.bfs.queue_frontiers", queue_class=qname,
                    direction=phase, **(metric_labels or {}),
                ).inc(int(members.size))
    kernels: list[KernelCost] = [classified.classify_cost]
    total_work = int(vertex_workloads[queue].sum()) if queue.size else 0
    remaining_hits = shared_hits
    for name, members in classified.queues.items():
        if members.size == 0:
            continue
        loads = vertex_workloads[members]
        share = loads.sum() / max(total_work, 1)
        hits = int(min(remaining_hits, round(shared_hits * share)))
        remaining_hits -= hits
        kernels.append(expansion_kernel(
            loads, QUEUE_GRANULARITY[name], spec,
            name=f"{phase}-{name}", neighbor_locality=locality,
            shared_hits=hits,
        ))
    return kernels


def _level_kernels(
    queue: np.ndarray,
    workloads: np.ndarray,
    classify_degrees: np.ndarray,
    vertex_workloads: np.ndarray,
    config: EnterpriseConfig,
    spec: DeviceSpec,
    *,
    locality: float,
    shared_hits: int,
    phase: str,
    metric_labels: dict[str, str],
) -> tuple[list[KernelCost], bool]:
    """One level's expansion (``phase="td"``) or inspection (``"bu"``)
    kernels under ``config``, and whether they run concurrently.

    ``workloads`` is aligned with ``queue``; ``vertex_workloads`` holds
    the same numbers indexed by vertex, as :func:`_wb_kernels` wants.
    """
    if not config.thread_scheduling:
        n = vertex_workloads.size  # BL sweeps the whole status array
        return [
            sweep_kernel(n, sequential_transactions(n, 1, spec), spec,
                         name="bl-sweep", useful_elements=queue.size,
                         group=CTA_THREADS),
            expansion_kernel(workloads, Granularity.CTA, spec,
                             name=f"{phase}-cta", neighbor_locality=locality,
                             shared_hits=shared_hits),
        ], False
    if config.workload_balancing:
        return _wb_kernels(queue, classify_degrees, vertex_workloads, config,
                           spec, locality=locality, shared_hits=shared_hits,
                           phase=phase, metric_labels=metric_labels), True
    # TS without WB: queue-driven scheduling, but the same static
    # CTA-per-frontier granularity as the baseline (granularity matching
    # is WB's contribution, §4.2).
    return [expansion_kernel(workloads, Granularity.CTA, spec,
                             name=f"{phase}-static",
                             neighbor_locality=locality,
                             shared_hits=shared_hits)], False


def _launch_level(
    device: GPUDevice,
    kernels: list[KernelCost],
    *,
    concurrent: bool,
    label: str,
) -> None:
    """Submit a level's kernels: together under Hyper-Q, or in turn."""
    if concurrent and kernels:
        device.launch_concurrent(kernels, label=label)
        return
    for k in kernels:
        device.launch(k, label=f"{label}:{k.name}")


def enterprise_bfs(
    graph: CSRGraph,
    source: int,
    *,
    device: GPUDevice | None = None,
    config: EnterpriseConfig | None = None,
) -> BFSResult:
    """Run Enterprise BFS from ``source``.

    Returns a :class:`~repro.bfs.common.BFSResult` whose ``traces`` hold
    the per-level record (frontier counts, directions, queue-generation vs
    expansion time, transactions, cache hits, α and γ) behind Figures 4,
    8, 10, 12, 13 and 16.  The result additionally carries
    ``gamma_history``, ``alpha_history`` and (when HC is on) ``hub_cache``
    attributes.
    """
    return _traverse(graph, source, device or GPUDevice(),
                     config or EnterpriseConfig())


def _traverse(
    graph: CSRGraph,
    source: int,
    device: GPUDevice,
    config: EnterpriseConfig,
    stage: Callable[[np.ndarray, bool], None] | None = None,
) -> BFSResult:
    """The level loop of :func:`enterprise_bfs`.

    ``stage(queue, bottom_up)``, when given, runs once per level before
    the level's kernels; out-of-core traversal
    (:func:`repro.storage.ooc.ooc_enterprise_bfs`) charges the partition
    reads of the level's queue to ``device`` there.  Each level's queue
    generation and expansion (staging included) times are deltas of the
    device clock across their launches; a queue generated after the last
    level is the result's ``tail_queue_gen_ps``.
    """
    spec = device.spec
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")

    algo_name = f"enterprise[{config.label()}]"
    tracer = get_tracer()
    registry = get_registry()
    run_labels = {"algorithm": algo_name, "graph": graph.name}
    run_begin_ms = device.elapsed_ms
    # Span/counter emission is only worth the per-level bookkeeping when
    # someone is collecting; neither flag changes mid-run.
    observing = tracer.enabled or registry.enabled

    def _emit_level(t: LevelTrace, begin_ms: float,
                    kernels: list[KernelCost]) -> None:
        """Level span + counter tracks (frontier, γ, α, power) and the
        registry rollups, in simulated device time."""
        if tracer.enabled:
            end_ms = device.elapsed_ms
            tracer.record_span(
                f"L{t.level} {t.direction}", begin_ms, end_ms - begin_ms,
                cat="level",
                args={"direction": t.direction,
                      "frontier": t.frontier_count,
                      "newly_visited": t.newly_visited,
                      "edges_checked": t.edges_checked,
                      "kernels": list(t.kernel_names)})
            tracer.record_counter("frontier size", begin_ms,
                                  {"vertices": t.frontier_count})
            tracer.record_counter("gamma (%)", begin_ms, {"gamma": t.gamma})
            if t.direction == "top-down":
                tracer.record_counter("alpha", begin_ms, {"alpha": t.alpha})
            if kernels:
                level_counters = aggregate_counters(kernels, spec)
                tracer.record_counter("power (W)", begin_ms,
                                      {"watts": level_counters.power_w})
        if registry.enabled:
            labels = dict(direction=t.direction, **run_labels)
            registry.counter("repro.bfs.levels", **labels).inc()
            registry.counter("repro.bfs.edges_checked",
                             **labels).inc(t.edges_checked)
            registry.counter("repro.bfs.gld_transactions",
                             **labels).inc(t.gld_transactions)
            if t.hub_cache_lookups:
                registry.counter("repro.bfs.hub_cache_hits",
                                 **labels).inc(t.hub_cache_hits)
                registry.counter("repro.bfs.hub_cache_lookups",
                                 **labels).inc(t.hub_cache_lookups)

    inspect_graph = graph.reverse if graph.directed else graph
    out_degrees = graph.out_degrees
    in_degrees = inspect_graph.out_degrees

    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0

    gamma = GammaPolicy(threshold_pct=config.gamma_threshold)
    gamma.setup(graph)
    alphabeta = AlphaBetaPolicy(alpha=config.alpha, beta=config.beta)
    alphabeta.setup(graph)
    hc = HubCachePolicy(graph, spec,
                        shared_config_bytes=config.shared_config_bytes) \
        if config.hub_cache else None

    traces: list[LevelTrace] = []
    unexplored = graph.num_edges - int(out_degrees[source])
    direction = "top-down"
    level = 0
    queue = np.array([source], dtype=np.int64)
    queue_gen_ps = 0  # building the level-0 queue is free

    # Scratch reused for bottom-up per-vertex workloads.
    workload_scratch = np.zeros(n, dtype=np.int64)

    for _ in range(config.max_levels):
        # ``queue`` is the frontier top-down and the unvisited candidates
        # at the switch ("switch") and later bottom-up levels.
        if queue.size == 0:
            break
        bottom_up = direction != "top-down"
        expand_begin = device.elapsed_ps
        if stage is not None:
            stage(queue, bottom_up)
        locality = queue_contiguity(queue)
        if bottom_up:
            cached = hc.cached_mask if hc is not None else None
            outcome = bottom_up_inspect(inspect_graph, queue, status, level,
                                        cached_parents=cached)
            newly, edges = outcome.found, outcome.edges_checked
            hits = outcome.cache_hits
            parents[newly] = outcome.parents
            unexplored -= edges
            if hc is not None:
                hc.record_level(
                    level, int(queue.size), hits,
                    lookups_without_cache=int(outcome.lookups_nocache.sum()),
                    lookups_with_cache=int(outcome.lookups.sum()),
                )
            workloads = np.maximum(outcome.lookups, 1)
            workload_scratch[queue] = workloads
            kernels, concurrent = _level_kernels(
                queue, workloads, in_degrees, workload_scratch, config, spec,
                locality=locality, shared_hits=hits, phase="bu",
                metric_labels=run_labels)
            workload_scratch[queue] = 0
        else:
            workloads = out_degrees[queue]
            newly, their_parents, edges, _ = expand_frontier(
                graph, queue, status, level)
            parents[newly] = their_parents
            unexplored -= int(workloads.sum())
            hits = 0
            kernels, concurrent = _level_kernels(
                queue, workloads, out_degrees, out_degrees, config, spec,
                locality=locality, shared_hits=0, phase="td",
                metric_labels=run_labels)
        _launch_level(device, kernels, concurrent=concurrent,
                      label=f"L{level}:{direction if bottom_up else 'td'}")
        expand_ps = device.elapsed_ps - expand_begin

        # Direction indicators for the *next* level's frontier.  All
        # ablation stages traverse identically (default: the one-time γ
        # switch of §4.3), so each Fig. 13 bar isolates exactly one
        # technique's cost effect.  Both indicator series are recorded
        # for Fig. 10 regardless.
        gamma_value = gamma.observe(newly) if newly.size else 0.0
        if bottom_up:
            # γ switches once (§4.3); the α/β policy may return to
            # top-down for the long tail, comparing n against the next
            # frontier's size (the vertices just visited).
            alpha_value = 0.0
            switch = (config.switch_policy == "alpha"
                      and alphabeta.should_switch_up_down(n, int(newly.size)))
        else:
            m_f_next = int(out_degrees[newly].sum()) if newly.size else 0
            alpha_value = unexplored / m_f_next if m_f_next else float("inf")
            alphabeta.history.append(alpha_value)
            if config.switch_policy == "alpha":
                switch = (math.isfinite(alpha_value)
                          and alpha_value < config.alpha)
            else:
                switch = (not gamma.switched
                          and gamma_value > gamma.threshold_pct)
                if switch:
                    gamma.switched = True

        traces.append(LevelTrace(
            level=level, direction=direction,
            frontier_count=int(queue.size),
            newly_visited=int(newly.size),
            edges_checked=edges,
            queue_gen_ps=queue_gen_ps, expand_ps=expand_ps,
            gld_transactions=sum(k.access.transactions for k in kernels),
            hub_cache_hits=hits,
            hub_cache_lookups=int(queue.size) if bottom_up else 0,
            kernel_names=tuple(k.name for k in kernels),
            alpha=alpha_value if math.isfinite(alpha_value) else 0.0,
            gamma=gamma_value,
        ))
        if observing:
            # The level's window opens when its queue generation started
            # (no device activity in between).
            _emit_level(traces[-1],
                        (expand_begin - queue_gen_ps) / PS_PER_MS, kernels)
        queue_gen_ps = 0  # held by the trace; what is left is the tail

        if newly.size == 0:
            break  # the rest is unreachable
        if hc is not None and (bottom_up or switch):
            hc.refresh(newly, level + 1)
        ts = config.thread_scheduling
        if bottom_up and not switch:
            direction = "bottom-up"
            if ts:
                queue, gen_kernels = bottomup_filter_workflow(queue, status,
                                                              spec)
            else:
                queue, gen_kernels = queue[status[queue] == UNVISITED], []
        elif bottom_up:  # α/β back to top-down
            direction = "top-down"
            if ts:
                queue, gen_kernels = topdown_workflow(status, level + 1, spec)
            else:
                queue = np.flatnonzero(status == level + 1).astype(np.int64)
                gen_kernels = []
        elif switch:
            direction = "switch"
            if ts and config.switch_scan == "blocked":
                queue, gen_kernels = switch_workflow(status, spec)
            elif ts:
                queue, gen_kernels = switch_interleaved_workflow(status, spec)
            else:
                queue = np.flatnonzero(status == UNVISITED).astype(np.int64)
                gen_kernels = []
        elif ts:
            # `newly` is exactly the ascending unique set now carrying
            # level + 1, i.e. what a flatnonzero re-scan of the status
            # array would return; the simulated scan is still charged by
            # the workflow.
            queue, gen_kernels = topdown_workflow(status, level + 1, spec,
                                                  frontiers=newly)
        else:
            queue, gen_kernels = newly, []
        gen_begin = device.elapsed_ps
        _launch_level(device, gen_kernels, concurrent=False,
                      label=f"L{level + 1}:qgen")
        queue_gen_ps = device.elapsed_ps - gen_begin
        level += 1

    result = BFSResult(
        algorithm=algo_name,
        graph_name=graph.name,
        source=source,
        levels=status,
        parents=parents,
        traces=traces,
        time_ps=device.elapsed_ps,
        tail_queue_gen_ps=queue_gen_ps,
    )
    result.set_edges_traversed(graph)
    result.hub_cache = hc  # type: ignore[attr-defined]
    result.gamma_history = gamma.history  # type: ignore[attr-defined]
    result.alpha_history = alphabeta.history  # type: ignore[attr-defined]
    if tracer.enabled:
        tracer.record_span(
            algo_name, run_begin_ms, device.elapsed_ms - run_begin_ms,
            cat="run",
            args={"graph": graph.name, "source": int(source),
                  "visited": result.visited, "depth": result.depth,
                  "edges_traversed": result.edges_traversed,
                  "levels": len(traces)})
    return result
