"""The five benchmark workloads.

A workload builds its inputs from the seed in ``setup`` (which ends with
one untimed warm-up operation), runs one fixed batch of operations per
``run_round``, reduces a round to its deterministic metrics in
``sim_metrics`` (simulated time and counts read from result objects),
hashes a round's answers in ``digest`` and checks them in ``check``.
An operation is one traversal for the BFS workloads and one query for
the serve workloads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.bfs import cluster, enterprise
from repro.bfs.msbfs import BATCH
from repro.bfs.validate500 import graph500_validate
from repro.faults.plan import profile
from repro.gpu.device import GPUDevice
from repro.gpu.fabric import Fabric
from repro.graph.generators import rmat_graph, road_mesh
from repro.metrics import random_sources
from repro.observ.monitor import LiveMonitor, MonitorConfig
from repro.serve import ServeConfig, ServeEngine, TraceConfig, replay, \
    synthetic_trace
from repro.serve.query import QueryKind

from checks import (check_answers, check_same_answers, check_traversal,
                    edge_keys, reference_levels)

#: Latency limit of ``serve.sim_slo_attain``: 1.5x the 2 ms batch
#: deadline, in simulated ms.
SLO_MS = 3.0

#: Cluster shape of ``cluster-rmat``: nodes x GPUs per node.
NODES, GPUS_PER_NODE = 4, 2

#: Device-time split of ``gpu.sim_ms.*``: launch records (queue
#: generation vs the rest) and serial kernel time per kernel class.
GPU_SPLIT = ("qgen", "expand", "thread", "warp", "cta", "grid", "classify",
             "scan")

SERVE_PHASES = ("queue_wait", "batch_wait", "dispatch", "execute",
                "retry_overhead")

#: Seed of the ``chaos`` fault schedule.  The scenario is part of the
#: workload: every seed's traffic meets the same faults at the same
#: dispatches, so seeds vary the graph and the traffic, not how many
#: waves fail.
FAULT_SEED = 7


def exact_mix_trace(graph, queries: int, rate_per_ms: float,
                    seed: int) -> list:
    """``synthetic_trace`` with its default query-kind mix made exact.

    An SP-tree answer costs far more host time than a distance answer,
    so a seed should vary which queries arrive, not how many of each
    kind.
    """
    trace = synthetic_trace(graph, TraceConfig(
        num_queries=queries, rate_per_ms=rate_per_ms, mix=(1.0, 0.0, 0.0),
        seed=seed))
    reach, sptree = (round(share * queries) for share in TraceConfig().mix[1:])
    kinds = ([QueryKind.DISTANCE] * (queries - reach - sptree)
             + [QueryKind.REACHABILITY] * reach + [QueryKind.SPTREE] * sptree)
    order = np.random.default_rng([seed, 1]).permutation(queries)
    return [dataclasses.replace(
        q, kind=kinds[i], target=-1 if kinds[i] is QueryKind.SPTREE
        else q.target) for q, i in zip(trace, order)]


def device_metrics(devices, ops: int) -> dict[str, float]:
    """Simulated device time and global-load transactions per op."""
    split = dict.fromkeys(GPU_SPLIT, 0.0)
    gld = 0
    for device in devices:
        for record in device.records:
            # enterprise_bfs labels queue generation "L<n>:qgen[:kernel]".
            phase = "qgen" if ":qgen" in record.label else "expand"
            split[phase] += record.elapsed_ms
            for k in record.kernels:
                if k.granularity is not None:
                    kind = k.granularity.value
                else:
                    kind = "classify" if k.name == "classify" else "scan"
                split[kind] += k.time_ms
                gld += k.access.transactions
    out = {f"gpu.sim_ms.{name}": ms / ops for name, ms in split.items()}
    out["gpu.gld_transactions"] = gld / ops
    return out


@dataclass
class BFSState:
    graph: object
    sources: np.ndarray
    build_s: float


@dataclass
class BFSWorkload:
    """Graph 500 style searches: the same sources every round."""

    graph: str          # "rmat" (edge factor 16) or "road" (mesh)
    size: int           # R-MAT scale, or mesh side
    sources: int
    cluster: bool = False
    monitored = False

    def setup(self, seed: int) -> BFSState:
        start = perf_counter()
        if self.graph == "rmat":
            graph = rmat_graph(self.size, 16, seed=seed)
        else:
            graph = road_mesh(self.size, seed=seed)
        state = BFSState(graph, random_sources(graph, self.sources, seed),
                         perf_counter() - start)
        self._traverse(graph, int(state.sources[0]))
        return state

    def ops(self, state: BFSState) -> int:
        return len(state.sources)

    def run_round(self, state: BFSState, *, monitor: bool = True) -> list:
        return [self._traverse(state.graph, int(s)) for s in state.sources]

    def _traverse(self, graph, source: int) -> tuple:
        """(BFSResult, ClusterBFSResult or None, devices used)."""
        if self.cluster:
            fabric = Fabric(NODES, GPUS_PER_NODE)
            res = cluster.cluster_enterprise_bfs(
                graph, source, NODES, GPUS_PER_NODE, fabric=fabric,
                parts_per_node=8)
            devices = [d for row in fabric.device_grid() for d in row]
            return res.result, res, devices
        device = GPUDevice()
        result = enterprise.enterprise_bfs(
            graph, source, device=device,
            config=enterprise.ABLATION_CONFIGS["HC"])
        return result, None, [device]

    def sim_metrics(self, state: BFSState, out: list) -> dict[str, float]:
        ops = len(out)
        results = [r for r, _, _ in out]
        times = [r.time_ms for r in results]
        traces = [t for r in results for t in r.traces]
        lookups = sum(t.hub_cache_lookups for t in traces)
        m = {
            "sim_ops_per_s": ops / (sum(times) * 1e-3),
            "sim_latency_ms": sum(times) / ops,
            "graph.edges": state.graph.num_edges,
            "bfs.sim_gteps": statistics.harmonic_mean(
                [r.teps for r in results]) / 1e9,
            "bfs.levels": len(traces) / ops,
            "bfs.bottom_up_levels": sum(
                t.direction != "top-down" for t in traces) / ops,
            "bfs.edges_checked": sum(t.edges_checked for t in traces) / ops,
            "bfs.hubcache.hit_rate": sum(
                t.hub_cache_hits for t in traces) / lookups if lookups
            else 0.0,
        }
        m.update(device_metrics([d for _, _, ds in out for d in ds], ops))
        if self.cluster:
            runs = [c for _, c, _ in out]
            for key, attr in (("compute", "computation_ms"),
                              ("intra", "intra_ms"), ("inter", "inter_ms"),
                              ("io", "io_ms"),
                              ("collective", "collective_ms")):
                m[f"fabric.sim_ms.{key}"] = sum(
                    getattr(c, attr) for c in runs) / ops
            m["fabric.bytes_intra"] = sum(c.bytes_intra for c in runs) / ops
            m["fabric.bytes_inter"] = sum(c.bytes_inter for c in runs) / ops
            m["storage.bytes_read"] = sum(c.bytes_read for c in runs) / ops
        return m

    def digest(self, out: list) -> str:
        h = hashlib.blake2b(digest_size=16)
        for r, _, _ in out:
            h.update(r.levels.tobytes())
            h.update(r.parents.tobytes())
        return h.hexdigest()

    def check(self, state: BFSState, out: list) -> list[str]:
        reference = reference_levels(state.graph, state.sources)
        keys = edge_keys(state.graph)
        errors = [err for r, _, _ in out
                  if (err := check_traversal(r.levels, r.parents, r.source,
                                             reference[r.source], keys))]
        report = graph500_validate(out[0][0], state.graph)
        if not report.ok:
            errors.append(f"graph500_validate: {report.messages}")
        return errors


@dataclass
class ServeState:
    graph: object
    trace: list
    plan: object
    build_s: float
    monitor_config: MonitorConfig | None = None
    reference: LiveMonitor | None = None
    twin: list = field(default_factory=list)


@dataclass
class ServeOutput:
    engine: ServeEngine
    results: list
    monitor: LiveMonitor | None


@dataclass
class ServeWorkload:
    """An open loop in simulated time: a Zipf query trace replayed
    through a fresh engine every round."""

    scale: int
    queries: int
    rate_per_ms: float
    gpus: int
    #: Chaos faults, hedging, and a calibrated live monitor in the loop.
    chaos: bool = False

    @property
    def monitored(self) -> bool:
        return self.chaos

    def config(self) -> ServeConfig:
        return ServeConfig(num_gpus=self.gpus,
                           hedge_threshold_ms=0.5 if self.chaos else None)

    def setup(self, seed: int) -> ServeState:
        start = perf_counter()
        graph = rmat_graph(self.scale, 16, seed=seed)
        build_s = perf_counter() - start
        trace = exact_mix_trace(graph, self.queries, self.rate_per_ms, seed)
        state = ServeState(graph, trace,
                           profile("chaos" if self.chaos else "none",
                                   seed=FAULT_SEED), build_s)
        if self.chaos:
            state.monitor_config = MonitorConfig.for_trace(trace)
            state.reference = LiveMonitor(state.monitor_config)
            state.twin = replay(ServeEngine(
                graph, self.config(), fault_plan=profile("none"),
                monitor=state.reference), trace)
        replay(ServeEngine(graph, self.config(), fault_plan=state.plan),
               trace[:BATCH])
        return state

    def ops(self, state: ServeState) -> int:
        return len(state.trace)

    def run_round(self, state: ServeState, *,
                  monitor: bool = True) -> ServeOutput:
        live = None
        if self.chaos and monitor:
            live = LiveMonitor(state.monitor_config)
            live.calibrate(state.reference)
        engine = ServeEngine(state.graph, self.config(),
                             fault_plan=state.plan, monitor=live)
        return ServeOutput(engine, replay(engine, state.trace), live)

    def sim_metrics(self, state: ServeState,
                    out: ServeOutput) -> dict[str, float]:
        ops = len(state.trace)
        stats = out.engine.stats()
        latency = np.array([r.latency_ms if r.ok else np.inf
                            for r in out.results])
        m = {
            "sim_ops_per_s": stats.qps,
            "sim_latency_ms": float(np.mean(stats.latencies_ms)),
            "graph.edges": state.graph.num_edges,
            "serve.cache_hit_rate": stats.cache.hit_rate,
            "serve.waves": stats.dispatch.waves,
            "serve.mean_wave_width": stats.dispatch.mean_wave_width,
            "serve.hedges": stats.dispatch.hedges,
            "serve.retries": stats.dispatch.retries,
            "serve.failovers": stats.dispatch.failovers,
            "serve.devices_lost": stats.dispatch.devices_lost,
            "serve.shed": stats.shed,
            "serve.sim_p90_ms": float(np.percentile(latency, 90)),
            "serve.sim_p99_ms": float(np.percentile(latency, 99)),
            "serve.sim_slo_attain": float(np.mean(latency <= SLO_MS)),
        }
        for phase in SERVE_PHASES:
            m[f"serve.sim_phase_ms.{phase}"] = \
                stats.phase_totals.get(phase, 0.0) / ops
        if out.monitor is not None:
            m["observ.anomalies"] = len(out.monitor.anomalies())
            m["observ.findings"] = len(out.monitor.bus)
        m.update(device_metrics(out.engine.group.devices, ops))
        return m

    def digest(self, out: ServeOutput) -> str:
        h = hashlib.blake2b(digest_size=16)
        for r in sorted(out.results, key=lambda r: r.query.qid):
            h.update(repr((r.query.qid, r.ok, r.distance,
                           r.reachable)).encode())
            if r.levels is not None:
                h.update(r.levels.tobytes())
        return h.hexdigest()

    def check(self, state: ServeState, out: ServeOutput) -> list[str]:
        reference = reference_levels(state.graph,
                                     [q.source for q in state.trace])
        errors = check_answers(out.results, state.trace, reference)
        if self.chaos:
            errors += check_same_answers(out.results, state.twin)
        return errors


WORKLOADS = {
    "bfs-rmat": BFSWorkload("rmat", 16, sources=64),
    "bfs-road": BFSWorkload("road", 384, sources=16),
    "cluster-rmat": BFSWorkload("rmat", 16, sources=32, cluster=True),
    "serve": ServeWorkload(14, queries=2048, rate_per_ms=256.0, gpus=2),
    "serve-chaos": ServeWorkload(14, queries=1024, rate_per_ms=16.0, gpus=4,
                                 chaos=True),
}
