"""Wave dispatcher: MS-BFS waves onto a simulated multi-GPU group.

Waves from the :mod:`~repro.serve.batcher` run on the least-loaded
device of a :class:`~repro.gpu.multi.DeviceGroup` — the serving layer's
use of the §4.4 multi-GPU substrate is *replication* (every device holds
the whole graph and serves whole waves) rather than the 1-D partition of
a single giant traversal, which is the right trade for query traffic:
no per-level allgather on the critical path, and N devices give N
concurrent waves.

Reliability policy, per wave:

* **timeout / cancel** — a sweep whose simulated time exceeds
  :attr:`ServeConfig.timeout_ms` is *cancelled at the deadline*: the
  device's timeline is truncated to the cancel point
  (``GPUDevice.truncate_to``), so the dispatcher's clock, the device's
  busy time, and the Chrome trace all agree that only ``timeout_ms`` of
  work ran.  A multi-source wave then **splits** into two half-width
  waves re-dispatched at the cancel point (smaller union frontier →
  retries converge); a single-source wave **migrates** whole to a
  different device when one is available.  Both paths consume one unit
  of the :attr:`ServeConfig.max_retries` budget.
* **deadline miss** — when the budget is exhausted (or a single-source
  straggler has nowhere else to run) the late sweep is *accepted* and
  counted as a deadline miss; queries are never failed.
* **transient wave failure** (fault injection) — the sweep's cost is
  paid, its result discarded, and the wave re-dispatched on another
  device ("failover"); the failed device enters exponential-backoff
  quarantine via :class:`~repro.serve.resilience.DeviceHealth`, at
  most :data:`~repro.serve.resilience.MAX_FAILOVERS` times in a row.
* **permanent device loss** (fault injection) — a device past its
  death time leaves the placement pool forever; a sweep cut down
  mid-run pays only the time up to the death and fails over.  The last
  surviving device is immortal: serving never loses its final worker.
* **hedged dispatch** — with :attr:`ServeConfig.hedge_threshold_ms`
  set, a sweep that runs past the threshold gets a duplicate dispatched
  on a second device starting at the threshold; the earlier completion
  defines the wave's completion time (results are identical — MS-BFS is
  deterministic — so hedging buys latency, never correctness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..bfs.msbfs import ms_bfs
from ..graph.csr import CSRGraph
from ..gpu.multi import DeviceGroup
from ..observ.registry import get_registry
from ..observ.tracer import get_tracer
from .resilience import MAX_FAILOVERS, DeviceHealth

if TYPE_CHECKING:
    from .engine import ServeConfig

__all__ = ["DispatchStats", "LocalityRouter", "WaveOutcome",
           "WaveDispatcher"]


@dataclass(frozen=True)
class LocalityRouter:
    """Source-partition-aware placement over a node-grouped device pool.

    With a cluster-style deployment the flat :class:`DeviceGroup` is
    really ``num_nodes`` nodes of ``devices_per_node`` devices each
    (device ``i`` lives on node ``i // devices_per_node``), and each node
    holds only its own shard of the adjacency hot in cache (see
    :mod:`repro.bfs.cluster`).  Routing a wave to the node owning its
    sources' partition keeps traversals on warm shards; the dispatcher
    falls back to the least-loaded device anywhere when the owning
    node's devices are quarantined, lost, or excluded.
    """

    #: Node shard bounds over the vertex range (``num_nodes + 1``,
    #: degree-balanced like the cluster traversal's).
    bounds: np.ndarray
    devices_per_node: int

    def __post_init__(self) -> None:
        if self.devices_per_node <= 0:
            raise ValueError("devices_per_node must be positive")
        if len(self.bounds) < 2:
            raise ValueError("bounds must cover at least one node")

    @property
    def num_nodes(self) -> int:
        return len(self.bounds) - 1

    @classmethod
    def for_graph(cls, graph: CSRGraph, num_nodes: int,
                  devices_per_node: int) -> "LocalityRouter":
        """Degree-balanced node shards matching the cluster layer's."""
        from ..bfs.cluster import balanced_bounds
        weights = graph.out_degrees.astype(np.int64) + 1
        return cls(bounds=balanced_bounds(weights, num_nodes),
                   devices_per_node=devices_per_node)

    def node_of(self, vertex: int) -> int:
        return int(np.searchsorted(self.bounds, vertex, side="right") - 1)

    def devices_for(self, sources: np.ndarray) -> set[int]:
        """Device indices of the node owning the wave's sources (the
        majority node when a coalesced wave straddles shards)."""
        nodes = (np.searchsorted(self.bounds,
                                 np.asarray(sources, dtype=np.int64),
                                 side="right") - 1)
        node = int(np.bincount(nodes).argmax())
        base = node * self.devices_per_node
        return set(range(base, base + self.devices_per_node))


@dataclass
class DispatchStats:
    """Dispatcher-level accounting across all waves."""

    waves: int = 0
    sources: int = 0
    timeouts: int = 0
    retries: int = 0
    #: Late sweeps *accepted* (retry budget exhausted or nowhere to go).
    deadline_misses: int = 0
    #: Transient sweep failures drawn by the fault injector.
    wave_failures: int = 0
    #: Re-dispatches caused by failures or device loss.
    failovers: int = 0
    #: Hedged duplicate dispatches.
    hedges: int = 0
    #: Devices permanently lost during the run.
    devices_lost: int = 0
    #: Placements that landed on the source's owning node (locality
    #: routing enabled and the node had a usable device).
    locality_hits: int = 0
    #: Placements that fell back off the owning node.
    locality_misses: int = 0
    busy_ms_per_device: list[float] = field(default_factory=list)

    @property
    def mean_wave_width(self) -> float:
        return self.sources / self.waves if self.waves else 0.0


@dataclass
class WaveOutcome:
    """Execution record of one wave (after any split-retries)."""

    #: source -> its full level array.
    rows: dict[int, np.ndarray]
    #: source -> simulated completion time of the sweep that computed it.
    completed_ms: dict[int, float]
    device_indices: list[int]
    elapsed_ms: float
    #: source -> start of the *first* attempt of its wave lineage (the
    #: original dispatch, before any cancel/split/failover).
    start_ms: dict[int, float] = field(default_factory=dict)
    #: source -> duration of the winning sweep (the one whose result was
    #: kept; the hedge's when the hedge finished first).
    exec_ms: dict[int, float] = field(default_factory=dict)


class WaveDispatcher:
    """Runs waves on the least-loaded healthy device with split-retry,
    failover, and hedging."""

    def __init__(self, graph: CSRGraph, group: DeviceGroup,
                 config: ServeConfig, *, injector=None,
                 locality: LocalityRouter | None = None):
        self.graph = graph
        self.group = group
        self.config = config
        #: A :class:`~repro.faults.injector.FaultInjector`, or None.
        self.injector = injector
        #: Optional :class:`LocalityRouter`; None keeps pure
        #: least-loaded placement.
        self.locality = locality
        if locality is not None \
                and locality.num_nodes * locality.devices_per_node \
                != len(group):
            raise ValueError("locality router shape does not cover the "
                             "device group")
        self.health = DeviceHealth(len(group))
        self.stats = DispatchStats(
            busy_ms_per_device=[0.0] * len(group))
        #: Simulated wall-clock time each device becomes idle.
        self._free_at = [d.elapsed_ms for d in group.devices]
        #: source -> trace ids of the wave in flight (flow-step export).
        self._flow_ids: Mapping[int, list[int]] = {}
        #: Owning-node device indices for the wave in flight, or None.
        self._preferred: set[int] | None = None

    # ------------------------------------------------------------------
    def run_wave(self, sources: np.ndarray, now_ms: float, *,
                 flow_ids: Mapping[int, list[int]] | None = None) \
            -> WaveOutcome:
        """Execute one wave starting no earlier than ``now_ms``.

        ``flow_ids`` (source -> trace-context ids) lets every attempt
        span emit Chrome-trace flow steps for the queries riding it, so
        a retried/hedged/failed-over query shows its hop between device
        tracks in Perfetto.
        """
        outcome = WaveOutcome(rows={}, completed_ms={}, device_indices=[],
                              elapsed_ms=0.0)
        self.stats.waves += 1
        self.stats.sources += int(sources.size)
        self._flow_ids = flow_ids or {}
        self._preferred = (self.locality.devices_for(sources)
                           if self.locality is not None and sources.size
                           else None)
        try:
            self._run(np.asarray(sources, dtype=np.int64), now_ms,
                      self.config.max_retries, outcome)
        finally:
            self._flow_ids = {}
            self._preferred = None
        return outcome

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _pick_device(self, now_ms: float,
                     exclude: set[int] | None = None) -> int:
        """Least-loaded choice over the placement pool (alive devices,
        healthy before quarantined), preferring non-excluded ones.

        With a locality router, the pool first narrows to the wave's
        owning-node devices when any of them are usable (a locality
        hit); otherwise placement falls back to the whole pool (a
        miss) — least-loaded either way.
        """
        pool = self.health.placement_pool(now_ms)
        if exclude:
            non_excluded = [i for i in pool if i not in exclude]
            if non_excluded:
                pool = non_excluded
        local = getattr(self, "_preferred", None)
        if local:
            on_node = [i for i in pool if i in local]
            if on_node:
                self.stats.locality_hits += 1
                pool = on_node
            else:
                self.stats.locality_misses += 1
        return min(pool,
                   key=lambda i: (max(self._free_at[i], now_ms),
                                  self._free_at[i], i))

    def _death_ms(self, idx: int) -> float | None:
        if self.injector is None:
            return None
        return self.injector.death_ms(idx)

    def _lose(self, idx: int) -> None:
        self.health.mark_lost(idx)
        self.stats.devices_lost += 1
        get_registry().counter("repro.serve.device_lost").inc()

    def _quarantine(self, idx: int, now_ms: float) -> None:
        self.health.report_failure(idx, now_ms)
        get_registry().counter("repro.serve.quarantines").inc()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, sources: np.ndarray, now_ms: float, retries_left: int,
             outcome: WaveOutcome, *, failovers: int = 0,
             exclude: set[int] | None = None,
             lineage_start_ms: float | None = None) -> None:
        # Placement: skip devices already dead by the time they'd start.
        # The last survivor is immortal, so this loop terminates.
        while True:
            idx = self._pick_device(now_ms, exclude)
            start_ms = max(self._free_at[idx], now_ms)
            death = self._death_ms(idx)
            if (death is not None and start_ms >= death
                    and not self.health.is_lost(idx)
                    and len(self.health.alive()) > 1):
                self._lose(idx)
                self._trace(f"serve.lost[{idx}]", death, 0.0, idx,
                            {"device": idx, "status": "lost"})
                continue
            break

        # Attribution anchor: the start of the lineage's first attempt.
        # Everything between it and completion that is not the winning
        # sweep is retry overhead.
        if lineage_start_ms is None:
            lineage_start_ms = start_ms

        device = self.group.devices[idx]
        epoch = device.elapsed_ms
        result = ms_bfs(self.graph, sources, device=device)
        wave_ms = device.elapsed_ms - epoch
        end_ms = start_ms + wave_ms
        outcome.device_indices.append(idx)

        # Permanent loss mid-sweep: pay only the time up to the death,
        # drop the result, fail over elsewhere.
        if (death is not None and start_ms < death < end_ms
                and len(self.health.alive()) > 1):
            ran_ms = death - start_ms
            device.truncate_to(epoch + ran_ms)
            self._commit(idx, death, ran_ms, outcome)
            self._lose(idx)
            self._trace_wave(sources, start_ms, ran_ms, idx, "lost")
            self._failover(sources, death, retries_left, outcome,
                           failovers, idx, lineage_start_ms)
            return

        # Transient wave failure: full cost paid, result discarded, the
        # sick device quarantined with exponential backoff.  Capped so a
        # pathological failure streak cannot starve a wave forever.
        if (self.injector is not None
                and failovers < MAX_FAILOVERS
                and self.injector.wave_fails()):
            self.stats.wave_failures += 1
            get_registry().counter("repro.serve.wave_failures").inc()
            self._commit(idx, end_ms, wave_ms, outcome)
            self._quarantine(idx, end_ms)
            self._trace_wave(sources, start_ms, wave_ms, idx, "failed")
            self._failover(sources, end_ms, retries_left, outcome,
                           failovers, idx, lineage_start_ms)
            return

        self.health.report_success(idx)

        status = "ok"
        timeout = self.config.timeout_ms
        if timeout is not None and wave_ms > timeout:
            self.stats.timeouts += 1
            get_registry().counter("repro.serve.timeouts").inc()
            cancel_ms = start_ms + timeout
            if sources.size > 1 and retries_left > 0:
                # Straggler: cancel at the deadline (the device pays
                # only timeout_ms), split, re-dispatch at the cancel
                # point — not at the discarded sweep's end.
                device.truncate_to(epoch + timeout)
                self._commit(idx, cancel_ms, timeout, outcome)
                self.stats.retries += 1
                get_registry().counter("repro.serve.retries").inc()
                self._trace_wave(sources, start_ms, timeout, idx,
                                 "cancelled")
                half = sources.size // 2
                self._run(sources[:half], cancel_ms, retries_left - 1,
                          outcome, lineage_start_ms=lineage_start_ms)
                self._run(sources[half:], cancel_ms, retries_left - 1,
                          outcome, lineage_start_ms=lineage_start_ms)
                return
            others = [i for i in self.health.placement_pool(cancel_ms)
                      if i != idx]
            if retries_left > 0 and others:
                # Single-source straggler with somewhere to go: the
                # wave cannot split, so migrate it whole to another
                # device — the retry budget is usable at width 1.
                device.truncate_to(epoch + timeout)
                self._commit(idx, cancel_ms, timeout, outcome)
                self.stats.retries += 1
                get_registry().counter("repro.serve.retries").inc()
                self._trace_wave(sources, start_ms, timeout, idx,
                                 "cancelled")
                self._run(sources, cancel_ms, retries_left - 1,
                          outcome, exclude={idx},
                          lineage_start_ms=lineage_start_ms)
                return
            # Budget exhausted (or nowhere else to run): accept the
            # late sweep rather than failing the queries.
            self.stats.deadline_misses += 1
            get_registry().counter("repro.serve.deadline_misses").inc()
            status = "late"

        self._commit(idx, end_ms, wave_ms, outcome)
        self._trace_wave(sources, start_ms, wave_ms, idx, status)

        # Hedged dispatch: a sweep past the hedging threshold gets a
        # duplicate on a second device; the earlier completion wins.
        completed = end_ms
        winning_exec_ms = wave_ms
        hedge_after = self.config.hedge_threshold_ms
        if hedge_after is not None and wave_ms > hedge_after:
            pool = [i for i in self.health.placement_pool(start_ms)
                    if i != idx]
            if pool:
                j = min(pool, key=lambda i: (
                    max(self._free_at[i], start_ms + hedge_after),
                    self._free_at[i], i))
                hedge_dev = self.group.devices[j]
                hedge_start = max(self._free_at[j], start_ms + hedge_after)
                h_epoch = hedge_dev.elapsed_ms
                ms_bfs(self.graph, sources, device=hedge_dev)
                hedge_ms = hedge_dev.elapsed_ms - h_epoch
                self._commit(j, hedge_start + hedge_ms, hedge_ms, outcome)
                outcome.device_indices.append(j)
                if hedge_start + hedge_ms < end_ms:
                    completed = hedge_start + hedge_ms
                    winning_exec_ms = hedge_ms
                self.stats.hedges += 1
                get_registry().counter("repro.serve.hedges").inc()
                self._trace_wave(sources, hedge_start, hedge_ms, j,
                                 "hedge")

        for i, s in enumerate(result.sources):
            outcome.rows[int(s)] = result.levels[i]
            outcome.completed_ms[int(s)] = completed
            outcome.start_ms[int(s)] = lineage_start_ms
            outcome.exec_ms[int(s)] = winning_exec_ms

    def _failover(self, sources: np.ndarray, at_ms: float,
                  retries_left: int, outcome: WaveOutcome,
                  failovers: int, failed_idx: int,
                  lineage_start_ms: float) -> None:
        self.stats.failovers += 1
        get_registry().counter("repro.serve.failovers").inc()
        self._run(sources, at_ms, retries_left, outcome,
                  failovers=failovers + 1, exclude={failed_idx},
                  lineage_start_ms=lineage_start_ms)

    def _commit(self, idx: int, free_at_ms: float, busy_ms: float,
                outcome: WaveOutcome) -> None:
        """Charge a sweep (possibly truncated) to the dispatcher clock."""
        self._free_at[idx] = max(self._free_at[idx], free_at_ms)
        self.stats.busy_ms_per_device[idx] += busy_ms
        outcome.elapsed_ms += busy_ms

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace_wave(self, sources: np.ndarray, begin_ms: float,
                    dur_ms: float, idx: int, status: str) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        self._trace(f"serve.wave[{sources.size}]", begin_ms, dur_ms, idx,
                    {"sources": int(sources.size), "device": idx,
                     "status": status})
        # Flow steps: every query riding this attempt leaves a hop on
        # this device track, so retries/hedges/failovers are followable
        # per query in Perfetto.
        for s in sources:
            for flow_id in self._flow_ids.get(int(s), ()):
                tracer.record_flow("query", flow_id, begin_ms,
                                   phase="t", cat="serve.query", tid=idx,
                                   args={"status": status})

    def _trace(self, name: str, begin_ms: float, dur_ms: float, tid: int,
               args: dict) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(name, begin_ms, dur_ms, cat="serve",
                               tid=tid, args=args)

    # ------------------------------------------------------------------
    @property
    def makespan_ms(self) -> float:
        """Latest device-idle time — when all dispatched work is done."""
        return max(self._free_at) if self._free_at else 0.0
