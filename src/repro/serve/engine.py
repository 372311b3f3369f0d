"""The serving engine: cache → batcher → dispatcher, on simulated time.

:class:`ServeEngine` is the composition root of :mod:`repro.serve`.  A
query's lifecycle:

1. **submit** — the engine clock advances to the query's arrival; the
   :class:`~repro.serve.cache.LandmarkCache` is consulted (row tier,
   then landmark bounds).  An exact cache answer completes immediately.
2. **batch** — misses enter the :class:`~repro.serve.batcher
   .AdaptiveBatcher`; a full pending queue rejects the query
   (backpressure) instead of queueing unboundedly.
3. **wave** — on a width or deadline flush the
   :class:`~repro.serve.dispatcher.WaveDispatcher` runs one MS-BFS over
   the coalesced sources; every query of the wave is answered from its
   source's level row, and rows are offered back to the cache under the
   hub-aware admission policy.

Latency is measured on the simulated clock: completion time (wave end,
or cache-lookup instant) minus arrival.  The engine is instrumented with
the PR-1 observability layer — per-wave spans on the tracer and
queue-depth / cache / latency series on the metrics registry — so a
``python -m repro trace``-style workflow works for serving too.

Query-scoped observability (this layer's additions):

* every admitted query is stamped with a **trace id**
  (:attr:`~repro.serve.query.Query.trace_id`) and leaves Chrome-trace
  flow/async events from arrival to completion, so one request is
  followable across batcher and device tracks in Perfetto;
* every result carries a **phase dict**
  (:attr:`~repro.serve.query.QueryResult.phases`) whose entries sum to
  its latency exactly — the raw material of tail-latency attribution
  (:mod:`repro.serve.attribution`);
* with a latency SLO configured (:attr:`ServeConfig.slo_latency_ms`)
  every completion feeds an :class:`~repro.observ.slo.SLOMonitor`, and
  :meth:`ServeEngine.stats` carries the evaluated
  :class:`~repro.observ.slo.SLOStatus` with its burn-rate alert
  timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..bfs.msbfs import BATCH
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, profile
from ..graph.csr import CSRGraph
from ..gpu.multi import DeviceGroup
from ..gpu.specs import DeviceSpec, KEPLER_K40
from ..observ.registry import get_registry
from ..observ.slo import SLOMonitor, SLOStatus
from ..observ.tracer import TID_SERVE, get_tracer
from .batcher import AdaptiveBatcher, Wave
from .cache import CacheStats, LandmarkCache
from .dispatcher import DispatchStats, LocalityRouter, WaveDispatcher
from .query import Query, QueryResult, answer_from_levels

__all__ = ["ServeConfig", "ServeStats", "ServeEngine",
           "format_latency_ms"]


def format_latency_ms(value: float) -> str:
    """Render a latency figure for human output; ``"n/a"`` when NaN
    (no served queries to take a percentile of)."""
    return f"{value:.4f}" if np.isfinite(value) else "n/a"

#: Histogram buckets for request latency (simulated ms).
LATENCY_BUCKETS = tuple(10.0 ** e for e in range(-4, 5))


@dataclass(frozen=True)
class ServeConfig:
    """The serve engine's one config: the batcher, the cache, the
    dispatcher and the SLO monitor read it, and every range check runs
    when it is built (the cache's only with the cache on, the SLO's
    only with a latency target)."""

    #: Distinct sources per wave; capped by the 64 mask lanes of MS-BFS.
    batch_sources: int = BATCH
    #: Max simulated ms the oldest query may wait before a forced flush;
    #: ``0`` means no batching delay.
    deadline_ms: float = 2.0
    #: Pending-query bound; beyond it the batcher refuses (backpressure).
    max_pending: int = 4096
    #: Per-wave simulated-time budget; None disables the timeout path.
    timeout_ms: float | None = None
    #: Split/migrate retry budget per wave lineage.
    max_retries: int = 2
    num_gpus: int = 1
    #: Nodes the device pool is grouped into (device i lives on node
    #: ``i // (num_gpus // num_nodes)``); must divide ``num_gpus``.
    num_nodes: int = 1
    #: Route each wave to the node owning its sources' shard (see
    #: :class:`~repro.serve.dispatcher.LocalityRouter`).
    locality: bool = False
    cache: bool = True
    num_landmarks: int = 16
    #: Max cached level rows.
    cache_capacity: int = 64
    #: Non-hub sources are admitted to the row cache after this many
    #: requests.
    admit_after: int = 2
    #: Named fault profile (see :data:`repro.faults.PROFILES`).
    faults: str = "none"
    fault_seed: int = 7
    #: Hedge a wave stuck past this many simulated ms; None disables.
    hedge_threshold_ms: float | None = None
    #: Under overload, shed the lowest-priority pending query instead of
    #: rejecting the incoming one.
    shed_overload: bool = True
    #: Latency SLO target (simulated ms); None disables SLO monitoring.
    slo_latency_ms: float | None = None
    #: Availability target funding the error budget (fraction of
    #: requests that must answer within the latency target).
    slo_availability: float = 0.999

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.num_gpus % self.num_nodes:
            raise ValueError(f"{self.num_gpus} devices cannot group evenly "
                             f"into {self.num_nodes} nodes")
        if not 1 <= self.batch_sources <= BATCH:
            raise ValueError(f"wave width must be 1..{BATCH}")
        if self.deadline_ms < 0:
            raise ValueError("deadline cannot be negative")
        if self.max_pending < 1:
            raise ValueError("need room for at least one pending query")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.hedge_threshold_ms is not None \
                and self.hedge_threshold_ms <= 0:
            raise ValueError("hedge threshold must be positive (or None)")
        if self.slo_latency_ms is not None:
            if self.slo_latency_ms <= 0:
                raise ValueError("latency target must be positive")
            if not 0.0 < self.slo_availability < 1.0:
                raise ValueError("availability target must be in (0, 1)")
        if self.cache:
            if self.num_landmarks < 1:
                raise ValueError("need at least one landmark")
            if self.cache_capacity < 0:
                raise ValueError("capacity cannot be negative")
            if self.admit_after < 1:
                raise ValueError("admit_after must be at least 1")

    def fault_plan(self) -> FaultPlan:
        return profile(self.faults, seed=self.fault_seed)


@dataclass
class ServeStats:
    """End-of-run rollup the CLI and bench report print."""

    served: int = 0
    rejected: int = 0
    shed: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    quarantines: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    dispatch: DispatchStats = field(default_factory=DispatchStats)
    coalesced_queries: int = 0
    warmup_ms: float = 0.0
    makespan_ms: float = 0.0
    latencies_ms: np.ndarray = field(
        default_factory=lambda: np.empty(0))
    #: Aggregate simulated ms spent per attribution phase across all
    #: results (phase name -> total; see ``QueryResult.phases``).
    phase_totals: dict[str, float] = field(default_factory=dict)
    #: Evaluated SLO verdict; None when no SLO was configured.
    slo: SLOStatus | None = None

    @property
    def qps(self) -> float:
        """Served queries per simulated second."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.served / (self.makespan_ms * 1e-3)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over served queries; NaN when none were
        served (render with :func:`format_latency_ms`)."""
        if self.latencies_ms.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies_ms, q))

    def _finite_percentile(self, q: float) -> float:
        """Percentile for snapshot rows: 0.0 instead of NaN, because
        snapshots require finite numbers."""
        value = self.latency_percentile(q)
        return round(value, 4) if np.isfinite(value) else 0.0

    def rows(self) -> dict[str, float | int]:
        """Flat summary row (bench table / snapshot material)."""
        row: dict[str, float | int] = {
            "served": self.served,
            "rejected": self.rejected,
            "waves": self.dispatch.waves,
            "mean_wave_width": round(self.dispatch.mean_wave_width, 3),
            "coalesced": self.coalesced_queries,
            "cache_hit_rate": round(self.cache.hit_rate, 4),
            "timeouts": self.dispatch.timeouts,
            "retries": self.dispatch.retries,
            "deadline_misses": self.dispatch.deadline_misses,
            "shed": self.shed,
            "hedges": self.dispatch.hedges,
            "failovers": self.dispatch.failovers,
            "wave_failures": self.dispatch.wave_failures,
            "devices_lost": self.dispatch.devices_lost,
            "locality_hits": self.dispatch.locality_hits,
            "locality_misses": self.dispatch.locality_misses,
            "quarantines": self.quarantines,
            "makespan_ms": round(self.makespan_ms, 4),
            "qps": round(self.qps, 1),
            "p50_ms": self._finite_percentile(50),
            "p95_ms": self._finite_percentile(95),
            "p99_ms": self._finite_percentile(99),
            "phase_queue_ms": round(
                self.phase_totals.get("queue_wait", 0.0), 4),
            "phase_batch_ms": round(
                self.phase_totals.get("batch_wait", 0.0), 4),
            "phase_dispatch_ms": round(
                self.phase_totals.get("dispatch", 0.0), 4),
            "phase_exec_ms": round(
                self.phase_totals.get("execute", 0.0), 4),
            "phase_retry_ms": round(
                self.phase_totals.get("retry_overhead", 0.0), 4),
        }
        if self.slo is not None:
            row["slo_bad"] = self.slo.bad
            row["slo_alerts"] = len(self.slo.alerts)
            row["slo_budget_left"] = round(self.slo.budget_remaining, 4)
        return row


class ServeEngine:
    """Batched BFS query server over a simulated device group."""

    def __init__(
        self,
        graph: CSRGraph,
        config: ServeConfig | None = None,
        *,
        group: DeviceGroup | None = None,
        spec: DeviceSpec = KEPLER_K40,
        fault_plan: FaultPlan | None = None,
        monitor=None,
    ):
        self.graph = graph
        self.config = config or ServeConfig()
        plan = fault_plan if fault_plan is not None \
            else self.config.fault_plan()
        self.fault_plan = plan
        if group is None:
            group = DeviceGroup(self.config.num_gpus, spec,
                                fault_plan=None if plan.is_null else plan)
        self.group = group
        injector = None if plan.is_null \
            else FaultInjector(plan, len(self.group))
        self.batcher = AdaptiveBatcher(self.config)
        self.cache: LandmarkCache | None = None
        warmup_ms = 0.0
        if self.config.cache:
            # Warm-up: the landmark MS-BFS runs on device 0 before any
            # traffic, so its cost is startup, not query latency.
            self.cache = LandmarkCache(graph, self.config,
                                       device=self.group.devices[0])
            warmup_ms = self.cache.build_time_ms
        router: LocalityRouter | None = None
        if self.config.locality:
            router = LocalityRouter.for_graph(
                graph, self.config.num_nodes,
                len(self.group) // self.config.num_nodes)
        self.dispatcher = WaveDispatcher(graph, self.group, self.config,
                                         injector=injector, locality=router)
        self.now_ms = warmup_ms
        self._warmup_ms = warmup_ms
        self._results: list[QueryResult] = []
        self._coalesced = 0
        self._first_arrival: float | None = None
        self._last_completion = warmup_ms
        self._registry = get_registry()
        self._tracer = get_tracer()
        #: Next trace-context id; stamped on queries at admission.
        self._next_trace_id = 0
        #: trace_id -> simulated time the query entered the batcher.
        self._admit_ms: dict[int, float] = {}
        self.slo: SLOMonitor | None = None
        if self.config.slo_latency_ms is not None:
            self.slo = SLOMonitor(self.config.slo_latency_ms,
                                  self.config.slo_availability)
        #: Optional :class:`~repro.observ.monitor.LiveMonitor` sampling
        #: this engine on the simulated clock (duck-typed to avoid a
        #: serve → observ.monitor import cycle).
        self.monitor = monitor
        if monitor is not None:
            monitor.bind(self)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> QueryResult | None:
        """Accept one query at its arrival time.

        Returns the result immediately on a cache hit or a rejection;
        None when the query joined a pending wave (its result arrives on
        a later flush or :meth:`drain`).
        """
        query.validate(self.graph.num_vertices)
        query = replace(query, trace_id=self._next_trace_id)
        self._next_trace_id += 1
        self.advance(query.arrival_ms)
        kind = query.kind.value
        self._registry.counter("repro.serve.queries", kind=kind).inc()
        if self._first_arrival is None:
            self._first_arrival = query.arrival_ms
        queue_wait = self.now_ms - query.arrival_ms
        self._trace_intake(query)

        if self.cache is not None:
            hit = self.cache.lookup(query, self.now_ms)
            if hit is not None:
                self._registry.counter("repro.serve.cache_hits",
                                       tier=hit.served_by).inc()
                hit.phases = {"queue_wait": queue_wait,
                              "cache_lookup": 0.0}
                self._finish(hit)
                return hit

        if not self.batcher.add(query, self.now_ms):
            if self.config.shed_overload:
                return self._shed_for(query)
            self._registry.counter("repro.serve.rejected").inc()
            rejected = QueryResult(query=query, served_by="rejected",
                                   completed_ms=self.now_ms,
                                   phases={"queue_wait": queue_wait})
            self._finish(rejected)
            return rejected
        self._admit_ms[query.trace_id] = self.now_ms
        self._registry.gauge("repro.serve.queue_depth").set(
            self.batcher.pending_queries)
        while self.batcher.wave_ready():
            self._flush_one()
        # deadline_ms=0 means no batching delay: anything queued at the
        # current instant is already due and flushes immediately.
        while self.batcher.due(self.now_ms):
            self._flush_one()
        return None

    def _shed_for(self, query: Query) -> QueryResult | None:
        """Graceful degradation: make room for ``query`` by shedding the
        lowest-priority pending query, or shed ``query`` itself when
        nothing pending ranks below it."""
        victim = self.batcher.shed_lowest(query.priority)
        self._registry.counter("repro.serve.shed").inc()
        if victim is None:
            shed = QueryResult(
                query=query, served_by="shed", completed_ms=self.now_ms,
                phases={"queue_wait": self.now_ms - query.arrival_ms,
                        "batch_wait": 0.0})
            self._finish(shed)
            return shed
        admit = self._admit_ms.pop(victim.trace_id, victim.arrival_ms)
        self._finish(QueryResult(
            query=victim, served_by="shed", completed_ms=self.now_ms,
            phases={"queue_wait": admit - victim.arrival_ms,
                    "batch_wait": self.now_ms - admit}))
        self.batcher.add(query, self.now_ms)
        self._admit_ms[query.trace_id] = self.now_ms
        self._registry.gauge("repro.serve.queue_depth").set(
            self.batcher.pending_queries)
        while self.batcher.wave_ready():
            self._flush_one()
        while self.batcher.due(self.now_ms):
            self._flush_one()
        return None

    def advance(self, to_ms: float) -> None:
        """Let simulated time pass, firing any deadline flushes due."""
        while True:
            deadline = self.batcher.next_deadline()
            if deadline is None or deadline > to_ms:
                break
            if self.monitor is not None:
                # Sample the pre-flush state: ticks up to the deadline
                # must see the queue as it was while the wave formed.
                self.monitor.advance(max(self.now_ms, deadline))
            self.now_ms = max(self.now_ms, deadline)
            self._flush_one()
        self.now_ms = max(self.now_ms, to_ms)
        if self.monitor is not None:
            self.monitor.advance(self.now_ms)

    def drain(self) -> list[QueryResult]:
        """Flush every pending query and return all results so far."""
        while self.batcher.pending_queries:
            self._flush_one()
        if self.monitor is not None:
            # Run the sampler out to the last completion so trailing
            # waves land inside the observed window.
            self.monitor.advance(self._last_completion)
        return self.results()

    # ------------------------------------------------------------------
    # Wave execution
    # ------------------------------------------------------------------
    def _flush_one(self) -> None:
        wave = self.batcher.pop_wave(self.now_ms)
        if wave is None:
            return
        self._registry.counter("repro.serve.waves").inc()
        self._registry.gauge("repro.serve.queue_depth").set(
            self.batcher.pending_queries)
        flow_ids: dict[int, list[int]] = {}
        for query in wave.queries:
            flow_ids.setdefault(query.source, []).append(query.trace_id)
        self._trace_batch(wave)
        outcome = self.dispatcher.run_wave(wave.sources, self.now_ms,
                                           flow_ids=flow_ids)
        for query in wave.queries:
            row = outcome.rows[query.source]
            completed = outcome.completed_ms[query.source]
            result = answer_from_levels(
                query, row, graph=self.graph, served_by="wave",
                wave_id=wave.wave_id, completed_ms=completed)
            # Phase decomposition; the five terms telescope to
            # completed - arrival, so phases sum to latency exactly.
            admit = self._admit_ms.pop(query.trace_id,
                                       query.arrival_ms)
            start = outcome.start_ms.get(query.source, wave.created_ms)
            execute = outcome.exec_ms.get(query.source, 0.0)
            retry = completed - start - execute
            if abs(retry) < 1e-12:  # float residue of the telescoping
                retry = 0.0
            result.phases = {
                "queue_wait": admit - query.arrival_ms,
                "batch_wait": wave.created_ms - admit,
                "dispatch": start - wave.created_ms,
                "execute": execute,
                "retry_overhead": retry,
            }
            self._finish(result)
        if self.cache is not None:
            for s, row in outcome.rows.items():
                self.cache.admit(s, row)
        self._coalesced += wave.coalesced

    def _finish(self, result: QueryResult) -> None:
        self._results.append(result)
        self._last_completion = max(self._last_completion,
                                    result.completed_ms)
        if self.monitor is not None:
            self.monitor.observe_result(result)
        if result.ok:
            self._registry.histogram("repro.serve.latency_ms",
                                     LATENCY_BUCKETS).observe(
                                         result.latency_ms)
        if result.phases:
            for name, ms in result.phases.items():
                self._registry.histogram("repro.serve.phase_ms",
                                         LATENCY_BUCKETS,
                                         phase=name).observe(ms)
        if self.slo is not None:
            bad = self.slo.observe_latency(result.completed_ms,
                                           result.latency_ms, ok=result.ok)
            self._registry.counter("repro.serve.slo_requests",
                                   verdict="bad" if bad else "good").inc()
        self._trace_completion(result)

    # ------------------------------------------------------------------
    # Query-scoped tracing (no-ops when tracing is disabled)
    # ------------------------------------------------------------------
    def _trace_intake(self, query: Query) -> None:
        """Arrival markers: an async begin at arrival plus a flow start
        bound to a zero-width ``serve.submit`` slice on the intake
        track."""
        if not self._tracer.enabled:
            return
        self._tracer.record_flow("query", query.trace_id,
                                 query.arrival_ms, phase="b",
                                 cat="serve.query", tid=TID_SERVE)
        self._tracer.record_span(
            "serve.submit", self.now_ms, 0.0, cat="serve",
            tid=TID_SERVE, args={"qid": query.qid,
                                 "kind": query.kind.value,
                                 "trace_id": query.trace_id})
        self._tracer.record_flow("query", query.trace_id, self.now_ms,
                                 phase="s", cat="serve.query",
                                 tid=TID_SERVE)

    def _trace_batch(self, wave: Wave) -> None:
        """Wave-formation slice on the intake track, with a flow step
        per rider at the flush instant."""
        if not self._tracer.enabled:
            return
        self._tracer.record_span(
            f"serve.batch[{wave.width}]", wave.oldest_ms,
            wave.formation_ms, cat="serve", tid=TID_SERVE,
            args={"wave": wave.wave_id, "width": wave.width,
                  "queries": len(wave.queries)})
        for query in wave.queries:
            self._tracer.record_flow("query", query.trace_id,
                                     wave.created_ms, phase="t",
                                     cat="serve.query", tid=TID_SERVE)

    def _trace_completion(self, result: QueryResult) -> None:
        """Completion markers: flow end bound to a zero-width
        ``serve.complete`` slice, plus the async end closing the
        query's arrival-to-completion envelope."""
        if not self._tracer.enabled or result.trace_id < 0:
            return
        t = result.completed_ms
        self._tracer.record_span(
            "serve.complete", t, 0.0, cat="serve", tid=TID_SERVE,
            args={"qid": result.query.qid, "served_by": result.served_by,
                  "trace_id": result.trace_id,
                  "latency_ms": round(result.latency_ms, 6)})
        self._tracer.record_flow("query", result.trace_id, t, phase="f",
                                 cat="serve.query", tid=TID_SERVE)
        self._tracer.record_flow("query", result.trace_id, t, phase="e",
                                 cat="serve.query", tid=TID_SERVE)

    # ------------------------------------------------------------------
    # Results and accounting
    # ------------------------------------------------------------------
    @property
    def registry(self):
        """The metrics registry this engine reports into (captured at
        construction)."""
        return self._registry

    def results(self) -> list[QueryResult]:
        return list(self._results)

    def stats(self) -> ServeStats:
        ok = [r for r in self._results if r.ok]
        by_kind: dict[str, int] = {}
        for r in self._results:
            k = r.query.kind.value
            by_kind[k] = by_kind.get(k, 0) + 1
        phase_totals: dict[str, float] = {}
        for r in self._results:
            if r.phases:
                for name, ms in r.phases.items():
                    phase_totals[name] = phase_totals.get(name, 0.0) + ms
        start = self._first_arrival if self._first_arrival is not None \
            else self._warmup_ms
        return ServeStats(
            served=len(ok),
            rejected=sum(1 for r in self._results
                         if r.served_by == "rejected"),
            shed=sum(1 for r in self._results if r.served_by == "shed"),
            by_kind=by_kind,
            quarantines=self.dispatcher.health.quarantines,
            cache=self.cache.stats if self.cache is not None
            else CacheStats(),
            dispatch=self.dispatcher.stats,
            coalesced_queries=self._coalesced,
            warmup_ms=self._warmup_ms,
            makespan_ms=max(self._last_completion - start, 0.0),
            latencies_ms=np.array([r.latency_ms for r in ok]),
            phase_totals=phase_totals,
            slo=self.slo.evaluate() if self.slo is not None else None,
        )
