"""Cluster-scale BFS: the 2-D blocked partition pushed across node
boundaries of a simulated multi-node :class:`~repro.gpu.fabric.Fabric`.

The grid maps onto the fabric the way Pan et al. map theirs onto a GPU
cluster: **row i is node i** (its ``gpus_per_node`` devices are the
row's columns), so

- the **row exchange** (one ring of ``cols`` GPUs per row, OR-ing the
  row's ballot-compressed discovery bits) stays entirely on the
  NVLink-class intra-node tier, all nodes concurrent;
- the **column exchange** (one ring of ``rows`` GPUs per column — one
  device per node) crosses the InfiniBand-class inter-node tier, all
  columns concurrent;
- a per-level 8-byte frontier-count consensus runs as the fabric's
  hierarchical allreduce (intra reduce-scatter → inter shard rings →
  intra allgather), charged per tier.

Exchange accounting follows the repaired 2-D ledger: each ring is
charged its own group's compressed payload, a level pays the slowest
concurrent ring per phase, rings that discovered nothing ship nothing,
and ``bytes_intra + bytes_inter == sum(charged_payloads)`` exactly.
A single-tier comparator (every ring priced at the inter-node link)
accumulates in ``flat_communication_ms`` so the hierarchy's advantage
is a measured number, not an assumption.

Adjacency is sharded out-of-core: node i owns only the
:class:`~repro.storage.partitioned.PartitionedCSR` partitions covering
its own row's vertex range (``parts_per_node`` each, bounds refined from
the row bounds so the two decompositions agree vertex-for-vertex), holds
them behind a per-node :class:`~repro.storage.partitioned.PartitionCache`
budgeted at its shard size, and pages them from simulated NVMe before
expanding or inspecting — no single simulated node ever holds the whole
adjacency once ``num_nodes > 1``.

Traversal math is shared with :mod:`repro.bfs.partition2d` (the same
``_expand_topdown_blocks`` / ``_inspect_bottomup_blocks`` helpers), so
cluster levels and parents are bit-identical to the single-node grid —
and therefore to the single-GPU reference — by construction;
:mod:`tests.test_differential` checks it anyway.  Bottom-up inspection
scans the inspect graph's column blocks, which are cached on the graph:
repeated traversals of one graph, each on a fresh fabric, split it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.fabric import Fabric, ring_ms
from ..gpu.kernels import sweep_kernel
from ..gpu.memory import sequential_transactions
from ..gpu.specs import DeviceSpec, KEPLER_K40
from ..graph.csr import CSRGraph
from ..observ.registry import get_registry
from ..observ.tracer import TID_RUN, TID_STREAM, get_tracer
from ..storage.partitioned import PartitionCache, PartitionedCSR
from ..storage.specs import NVME_SSD, StorageSpec
from .common import BFSResult, LevelTrace, UNVISITED
from .direction import GammaPolicy
from .enterprise import EnterpriseConfig
from .partition2d import (
    _expand_topdown_blocks,
    _group_bounds,
    _inspect_bottomup_blocks,
    _segment_payloads,
)

__all__ = ["ClusterBFSResult", "ClusterLevelCost", "balanced_bounds",
           "cluster_enterprise_bfs", "shard_bounds"]


def balanced_bounds(weights: np.ndarray, parts: int) -> np.ndarray:
    """Contiguous vertex-range bounds with ~equal total ``weights`` per
    part (degree-balanced node shards: R-MAT hubs concentrate at low
    IDs, so equal *vertex* ranges give node 0 most of the edges and its
    cold-read time caps weak scaling).  Every part gets at least one
    vertex; requires ``parts <= len(weights)``.
    """
    n = int(weights.size)
    cum = np.concatenate([[0], np.cumsum(weights, dtype=np.int64)])
    targets = np.linspace(0, cum[-1], parts + 1)
    bounds = np.searchsorted(cum, targets).astype(np.int64)
    bounds[0], bounds[-1] = 0, n
    for i in range(1, parts + 1):
        bounds[i] = max(bounds[i], bounds[i - 1] + 1)
    bounds[-1] = n
    for i in range(parts - 1, 0, -1):
        bounds[i] = min(bounds[i], bounds[i + 1] - 1)
    return bounds


def shard_bounds(row_bounds: np.ndarray, parts_per_node: int) -> np.ndarray:
    """Refine node (row) bounds into per-node storage partition bounds.

    Every node's vertex range is split into ``parts_per_node`` pieces
    *within* its row bounds, so partition ownership and row ownership
    can never disagree by a vertex (two independent ``linspace`` calls
    at different granularities can).
    """
    bounds = [0]
    for a, b in zip(row_bounds[:-1], row_bounds[1:]):
        inner = np.linspace(a, b, parts_per_node + 1).astype(np.int64)
        bounds.extend(int(x) for x in inner[1:])
    return np.asarray(bounds, dtype=np.int64)


@dataclass(frozen=True)
class ClusterLevelCost:
    """One level's wall time, decomposed by tier at charge time.

    ``total_ms`` is the exact amount the level added to the run's wall
    clock; the tier components sum to it up to float associativity (the
    cluster profiler's largest-remainder attribution makes the partition
    exact — see :mod:`repro.observ.clusterprof`).  Per-node vectors keep
    the straggler structure the scalars throw away: ``node_compute_ms``
    is each node's critical-path kernel time (the level pays the max),
    ``node_staging_ms`` each node's concurrent page-in time.
    """

    level: int
    direction: str
    frontier_count: int
    newly_visited: int
    #: max over all devices (the grid-wide critical path).
    compute_ms: float
    #: slowest concurrent intra-node (NVLink) row-exchange ring.
    row_ms: float
    #: slowest concurrent inter-node (InfiniBand) column ring.
    col_ms: float
    #: frontier-consensus allreduce, split by tier.
    allreduce_intra_ms: float
    allreduce_inter_ms: float
    #: slowest node's out-of-core page-in time.
    staging_ms: float
    #: exactly what the level added to ``wall_ms``.
    total_ms: float
    node_compute_ms: tuple[float, ...]
    node_staging_ms: tuple[float, ...]
    #: per-tier payloads this level (row/col exchange, staged reads).
    bytes_row: int
    bytes_col: int
    bytes_staged: int


@dataclass
class ClusterBFSResult:
    """Outcome of a cluster traversal plus its per-tier ledgers."""

    result: BFSResult
    num_nodes: int
    gpus_per_node: int
    computation_ms: float
    #: Exchange + collective time on the fast intra-node tier.
    intra_ms: float
    #: Exchange + collective time on the slow inter-node tier.
    inter_ms: float
    #: Simulated storage time paging adjacency shards (max across nodes
    #: per level — nodes stage concurrently).
    io_ms: float
    #: Time inside the hierarchical frontier-count allreduce (already
    #: included in the tier totals above).
    collective_ms: float
    #: Exchange payload bytes that crossed the intra-node tier.
    bytes_intra: int
    #: Exchange payload bytes that crossed the inter-node tier.
    bytes_inter: int
    #: Adjacency bytes actually read from simulated storage.
    bytes_read: int
    #: Per-node shard footprint on storage.
    shard_bytes: list[int]
    total_adjacency_bytes: int
    #: What the same exchange schedule would cost on a single-tier
    #: fabric (every ring priced at the inter-node link).
    flat_communication_ms: float
    #: Every per-ring exchange payload actually charged, in charge
    #: order; ``bytes_intra + bytes_inter == sum(charged_payloads)``.
    charged_payloads: list[int] = field(default_factory=list)
    #: Per-level tier decomposition in level order — the cluster
    #: profiler's raw material (:mod:`repro.observ.clusterprof`).
    level_costs: list[ClusterLevelCost] = field(default_factory=list)

    @property
    def time_ms(self) -> float:
        return self.result.time_ms

    @property
    def teps(self) -> float:
        return self.result.teps

    @property
    def communication_ms(self) -> float:
        return self.intra_ms + self.inter_ms

    @property
    def bytes_exchanged(self) -> int:
        return self.bytes_intra + self.bytes_inter

    @property
    def hierarchy_advantage(self) -> float:
        """How many times cheaper the two-tier schedule is than a flat
        single-tier ring schedule for the same payloads."""
        if self.communication_ms == 0.0:
            return float("inf") if self.flat_communication_ms > 0 else 1.0
        return self.flat_communication_ms / self.communication_ms


def _trace_level(tracer, level: int, direction: str, base: float,
                 level_total: float, level_io: float, level_compute: float,
                 row_ms: float, col_ms: float, node_io: list,
                 per_device_ms, rows: int, cols: int) -> None:
    """Emit one level's per-node Perfetto tracks.

    Track conventions: **pid = node index**, ``tid = TID_RUN`` for the
    node-level phases (staging, exchanges, the enclosing level span on
    node 0) and ``tid = TID_STREAM + slot`` for each GPU slot's kernels.
    Within the level the simulated timeline is staging → compute →
    row exchange → column exchange → allreduce (the allreduce span and
    its cross-node flow chain are recorded by
    :meth:`~repro.gpu.fabric.Fabric.allreduce_ms`)."""
    tracer.record_span(f"cluster:L{level}:{direction}", base,
                       level_total, cat="cluster")
    for i in range(rows):
        if node_io[i] > 0:
            tracer.record_span(f"cluster:L{level}:stage", base,
                               node_io[i], cat="cluster", pid=i,
                               tid=TID_RUN, args={"node": i})
    t_compute = base + level_io
    for i in range(rows):
        for j in range(cols):
            dur = float(per_device_ms[i, j])
            if dur > 0:
                tracer.record_span(f"cluster:L{level}:compute",
                                   t_compute, dur, cat="cluster",
                                   pid=i, tid=TID_STREAM + j,
                                   args={"node": i, "slot": j})
    t_row = t_compute + level_compute
    if row_ms > 0:
        for i in range(rows):
            tracer.record_span(f"cluster:L{level}:row-exchange", t_row,
                               row_ms, cat="cluster", pid=i, tid=TID_RUN,
                               args={"tier": "intra"})
    if col_ms > 0:
        t_col = t_row + row_ms
        for i in range(rows):
            tracer.record_span(f"cluster:L{level}:col-exchange", t_col,
                               col_ms, cat="cluster", pid=i, tid=TID_RUN,
                               args={"tier": "inter"})


def cluster_enterprise_bfs(
    graph: CSRGraph,
    source: int,
    num_nodes: int,
    gpus_per_node: int = 2,
    *,
    spec: DeviceSpec = KEPLER_K40,
    fabric: Fabric | None = None,
    storage: StorageSpec = NVME_SSD,
    parts_per_node: int = 32,
    config: EnterpriseConfig | None = None,
    max_levels: int = 100_000,
) -> ClusterBFSResult:
    """Direction-optimizing BFS sharded over a multi-node fabric."""
    config = config or EnterpriseConfig()
    fabric = fabric or Fabric(num_nodes, gpus_per_node, spec)
    if (fabric.num_nodes, fabric.gpus_per_node) != (num_nodes, gpus_per_node):
        raise ValueError("fabric shape does not match num_nodes/gpus_per_node")
    spec = fabric.spec
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    if num_nodes > n:
        raise ValueError(f"{num_nodes} nodes for {n} vertices: every node "
                         "needs a non-empty shard")
    if parts_per_node < 1:
        raise ValueError(f"parts_per_node must be >= 1, got {parts_per_node}")

    rows, cols = num_nodes, gpus_per_node
    inspect_graph = graph.reverse if graph.directed else graph
    weights = graph.out_degrees.astype(np.int64) + 1
    if inspect_graph is not graph:
        weights = weights + inspect_graph.out_degrees.astype(np.int64)
    row_bounds = balanced_bounds(weights, rows)
    col_bounds = _group_bounds(n, cols)
    row_of = (np.searchsorted(row_bounds, np.arange(n), side="right") - 1
              ).astype(np.int64)
    col_of = (np.searchsorted(col_bounds, np.arange(n), side="right") - 1
              ).astype(np.int64)

    # --- out-of-core sharding: node i stores only its row's adjacency.
    parts_per_node = min(parts_per_node, int(np.min(np.diff(row_bounds))))
    pbounds = shard_bounds(row_bounds, parts_per_node)
    parts_fwd = PartitionedCSR(graph, rows * parts_per_node, bounds=pbounds)
    parts_bu = (parts_fwd if inspect_graph is graph else
                PartitionedCSR(inspect_graph, rows * parts_per_node,
                               bounds=pbounds))

    def _node_caches(partitioned: PartitionedCSR) -> list[PartitionCache]:
        caches = []
        for i in range(rows):
            shard = partitioned.partitions[i * parts_per_node:
                                           (i + 1) * parts_per_node]
            caches.append(PartitionCache(max(sum(p.nbytes for p in shard), 1)))
        return caches

    fwd_caches = _node_caches(parts_fwd)
    bu_caches = (fwd_caches if parts_bu is parts_fwd
                 else _node_caches(parts_bu))
    shard_sizes = [
        sum(p.nbytes for p in parts_fwd.partitions[i * parts_per_node:
                                                   (i + 1) * parts_per_node])
        for i in range(rows)]

    def _stage(partitioned: PartitionedCSR, caches: list[PartitionCache],
               vertices: np.ndarray) -> tuple[list[float], int]:
        """Page in the partitions a vertex set needs, node-local and
        concurrent across nodes: returns (per-node ms, total bytes)."""
        per_node = [0.0] * rows
        total = 0
        owner = row_of[vertices]
        for i in range(rows):
            verts = vertices[owner == i]
            if verts.size == 0:
                continue
            node_ms = 0.0
            for p in partitioned.partitions_touched(verts):
                read = caches[i].load(p)
                if read:
                    node_ms += storage.read_ms(read)
                    total += read
            per_node[i] = node_ms
        return per_node, total

    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0

    gamma = GammaPolicy(threshold_pct=config.gamma_threshold)
    gamma.setup(graph)

    tracer = get_tracer()
    registry = get_registry()
    observing = tracer.enabled or registry.enabled
    # Per-run ledger scoping: a reused fabric must not report the
    # previous traversal's traffic on top of this one's.
    fabric.reset_ledgers()

    traces: list[LevelTrace] = []
    level_costs: list[ClusterLevelCost] = []
    compute_ms = 0.0
    intra_ms = 0.0
    inter_ms = 0.0
    io_ms = 0.0
    collective_ms = 0.0
    flat_comm_ms = 0.0
    bytes_intra = 0
    bytes_inter = 0
    bytes_read = 0
    charged_payloads: list[int] = []
    wall_ms = 0.0
    direction = "top-down"
    level = 0

    for _ in range(max_levels):
        per_device_ms = np.zeros((rows, cols))
        just_visited = np.zeros(n, dtype=bool)

        if direction == "top-down":
            frontier = np.flatnonzero(status == level).astype(np.int64)
            if frontier.size == 0:
                break
            frontier_count = int(frontier.size)
            node_io, staged = _stage(parts_fwd, fwd_caches, frontier)
            level_edges, blocks = _expand_topdown_blocks(
                graph, frontier, status, just_visited, parents,
                row_of, col_of, rows, cols, spec)
        else:
            candidates = np.flatnonzero(status == UNVISITED).astype(np.int64)
            if candidates.size == 0:
                break
            frontier_count = int(candidates.size)
            node_io, staged = _stage(parts_bu, bu_caches, candidates)
            level_edges, blocks = _inspect_bottomup_blocks(
                inspect_graph, candidates, status, level, just_visited,
                parents, row_of, col_bounds, rows, spec)
        bytes_read += staged
        for i, j, k in blocks:
            fabric.device(i, j).launch(k)
            per_device_ms[i, j] += k.time_ms
        status[just_visited] = level + 1

        # Queue generation: every device scans its private status share.
        share = max(1, n // fabric.size)
        for i in range(rows):
            for j in range(cols):
                k = sweep_kernel(share,
                                 sequential_transactions(share, 1, spec),
                                 spec, name="scan-private")
                fabric.device(i, j).launch(k)
                per_device_ms[i, j] += k.time_ms

        # Exchanges, priced per tier (same content-aware ledger rules as
        # partition2d: per-ring payloads, max over concurrent rings,
        # empty rings skipped).
        level_io = max(node_io)
        level_compute = float(per_device_ms.max())
        level_row_ms = 0.0
        level_col_ms = 0.0
        level_bytes_row = 0
        level_bytes_col = 0
        if cols > 1:
            active = [b for b
                      in _segment_payloads(just_visited, row_bounds)
                      if b > 0]
            if active:
                level_row_ms = max(ring_ms(fabric.intra, cols, b)
                                   for b in active)
                flat_comm_ms += max(ring_ms(fabric.inter, cols, b)
                                    for b in active)
                level_bytes_row = sum(active)
                bytes_intra += level_bytes_row
                charged_payloads.extend(active)
        if rows > 1:
            active = [b for b
                      in _segment_payloads(just_visited, col_bounds)
                      if b > 0]
            if active:
                level_col_ms = max(ring_ms(fabric.inter, rows, b)
                                   for b in active)
                flat_comm_ms += max(ring_ms(fabric.inter, rows, b)
                                    for b in active)
                level_bytes_col = sum(active)
                bytes_inter += level_bytes_col
                charged_payloads.extend(active)
        level_intra = level_row_ms
        level_inter = level_col_ms
        # Frontier-count consensus: hierarchical 8-byte allreduce,
        # charged to the simulated clock after staging, compute and the
        # exchange rings.
        ar_intra = 0.0
        ar_inter = 0.0
        if fabric.size > 1:
            t_ar = (wall_ms + level_io + level_compute
                    + level_row_ms + level_col_ms)
            cost = fabric.allreduce_ms(8, at_ms=t_ar, level=level)
            ar_intra, ar_inter = cost.intra_ms, cost.inter_ms
            level_intra += cost.intra_ms
            level_inter += cost.inter_ms
            collective_ms += cost.total_ms
            flat_comm_ms += fabric.flat_ring_ms(8)

        level_comm = level_intra + level_inter
        compute_ms += level_compute
        intra_ms += level_intra
        inter_ms += level_inter
        io_ms += level_io
        level_total = level_compute + level_comm + level_io
        node_compute = [float(per_device_ms[i].max()) for i in range(rows)]
        if tracer.enabled:
            _trace_level(tracer, level, direction, wall_ms, level_total,
                         level_io, level_compute, level_row_ms,
                         level_col_ms, node_io, per_device_ms, rows, cols)
        wall_ms += level_total

        newly = np.flatnonzero(just_visited).astype(np.int64)
        gamma_value = gamma.observe(newly) if newly.size else 0.0
        traces.append(LevelTrace(
            level=level, direction=direction,
            frontier_count=frontier_count,
            newly_visited=int(newly.size),
            edges_checked=level_edges,
            expand_ms=level_compute,
            gamma=gamma_value,
        ))
        level_costs.append(ClusterLevelCost(
            level=level, direction=direction,
            frontier_count=frontier_count,
            newly_visited=int(newly.size),
            compute_ms=level_compute,
            row_ms=level_row_ms,
            col_ms=level_col_ms,
            allreduce_intra_ms=ar_intra,
            allreduce_inter_ms=ar_inter,
            staging_ms=level_io,
            total_ms=level_total,
            node_compute_ms=tuple(node_compute),
            node_staging_ms=tuple(node_io),
            bytes_row=level_bytes_row,
            bytes_col=level_bytes_col,
            bytes_staged=staged,
        ))
        if newly.size == 0:
            break
        if direction == "top-down" and not gamma.switched \
                and gamma_value > gamma.threshold_pct:
            gamma.switched = True
            direction = "switch"
        elif direction == "switch":
            direction = "bottom-up"
        level += 1

    if observing:
        registry.counter("repro.cluster.bytes",
                         tier="intra").inc(float(bytes_intra))
        registry.counter("repro.cluster.bytes",
                         tier="inter").inc(float(bytes_inter))
        registry.counter("repro.cluster.bytes",
                         tier="storage").inc(float(bytes_read))
        registry.counter("repro.cluster.levels").inc(float(len(traces)))
        registry.counter("repro.cluster.ms",
                         tier="compute").inc(compute_ms)
        registry.counter("repro.cluster.ms",
                         tier="row-exchange").inc(
                             sum(c.row_ms for c in level_costs))
        registry.counter("repro.cluster.ms",
                         tier="col-exchange").inc(
                             sum(c.col_ms for c in level_costs))
        registry.counter("repro.cluster.ms", tier="staging").inc(io_ms)

    result = BFSResult(
        algorithm=f"enterprise-cluster[{rows}n x {cols}g]",
        graph_name=graph.name,
        source=source,
        levels=status,
        parents=parents,
        traces=traces,
        time_ms=wall_ms,
        gamma_history=gamma.history,
    )
    result.set_edges_traversed(graph)
    return ClusterBFSResult(
        result=result,
        num_nodes=rows,
        gpus_per_node=cols,
        computation_ms=compute_ms,
        intra_ms=intra_ms,
        inter_ms=inter_ms,
        io_ms=io_ms,
        collective_ms=collective_ms,
        bytes_intra=bytes_intra,
        bytes_inter=bytes_inter,
        bytes_read=bytes_read,
        shard_bytes=shard_sizes,
        total_adjacency_bytes=parts_fwd.total_bytes,
        flat_communication_ms=flat_comm_ms,
        charged_payloads=charged_payloads,
        level_costs=level_costs,
    )
