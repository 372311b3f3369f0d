"""Multi-GPU Enterprise: 1-D partition with ballot-compressed exchange.

§4.4: "Enterprise exploits 1-D matrix partition method [11] to distribute
the graphs across multiple GPUs.  Specifically, each GPU is responsible
for an equal number of vertices from the graph, and thus a similar number
of edges. ... During traversal, Enterprise proceeds in three steps: (1)
Each GPU identifies the current level vertices in a private status array
by expanding from a private frontier queue.  (2) All the GPUs communicate
their private status arrays to get the global view of most recently
visited vertices ... each GPU uses __ballot() to compress the private
status array into a bitwise array ... reduc[ing] the size of
communication data by 90%.  (3) Each GPU scans the updated private status
array to generate its own private frontier queue."

The paper leaves 2-D partitioning as future work; so does this module.

Every device here holds a genuine private status array; the exchange is a
real ballot-compressed allgather (``np.packbits``), and the result is
asserted to match the single-GPU traversal level-for-level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, KernelCost, expansion_kernel, sweep_kernel
from ..gpu.memory import sequential_transactions
from ..gpu.multi import DeviceGroup, ballot_compress, ballot_decompress
from ..gpu.specs import DeviceSpec, KEPLER_K40
from ..graph.csr import CSRGraph
from .common import (
    BFSResult,
    LevelTrace,
    UNVISITED,
    bottom_up_inspect,
    expand_frontier,
)
from .direction import GammaPolicy
from .enterprise import EnterpriseConfig, _wb_kernels
from .frontier import queue_contiguity
from .hubcache import HubCachePolicy

__all__ = ["MultiGPUResult", "partition_bounds", "multigpu_enterprise_bfs"]


@dataclass
class MultiGPUResult:
    """A multi-GPU traversal outcome plus its communication record."""

    result: BFSResult
    num_gpus: int
    communication_ms: float
    computation_ms: float
    bytes_exchanged: int
    bytes_uncompressed: int

    @property
    def time_ms(self) -> float:
        return self.result.time_ms

    @property
    def teps(self) -> float:
        return self.result.teps

    @property
    def compression_ratio(self) -> float:
        """Fraction of status-exchange bytes removed by __ballot()."""
        if self.bytes_uncompressed == 0:
            return 0.0
        return 1.0 - self.bytes_exchanged / self.bytes_uncompressed


def partition_bounds(num_vertices: int, num_gpus: int) -> np.ndarray:
    """1-D partition boundaries: GPU k owns [bounds[k], bounds[k+1])."""
    if num_gpus <= 0:
        raise ValueError("need at least one GPU")
    return np.linspace(0, num_vertices, num_gpus + 1).astype(np.int64)


def _local_kernels(
    local_queue: np.ndarray,
    classify_degrees: np.ndarray,
    vertex_workloads: np.ndarray,
    spec: DeviceSpec,
    config: EnterpriseConfig,
    *,
    shared_hits: int,
    phase: str,
) -> list[KernelCost]:
    """One device's kernels for its local queue: WB's classify pass and
    queue kernels, or one warp-granularity kernel without WB; nothing
    for an empty queue.  ``vertex_workloads`` is indexed by vertex."""
    if local_queue.size == 0:
        return []
    locality = queue_contiguity(local_queue)
    if config.workload_balancing:
        return _wb_kernels(local_queue, classify_degrees, vertex_workloads,
                           config, spec, locality=locality,
                           shared_hits=shared_hits, phase=phase)
    return [expansion_kernel(vertex_workloads[local_queue], Granularity.WARP,
                             spec, name=f"{phase}-warp",
                             neighbor_locality=locality,
                             shared_hits=shared_hits)]


def _launch(device: GPUDevice, kernels: list[KernelCost],
            config: EnterpriseConfig, label: str) -> float:
    """Run the queue scan or filter, then the WB kernels concurrently
    (or every kernel in turn); returns the device's level time."""
    if config.workload_balancing and len(kernels) > 1:
        return (device.launch(kernels[0]).time_ms
                + device.launch_concurrent(kernels[1:],
                                           label=label).elapsed_ms)
    ms = 0.0
    for k in kernels:
        ms += device.launch(k).time_ms
    return ms


def multigpu_enterprise_bfs(
    graph: CSRGraph,
    source: int,
    num_gpus: int,
    *,
    group: DeviceGroup | None = None,
    spec: DeviceSpec = KEPLER_K40,
    config: EnterpriseConfig | None = None,
) -> MultiGPUResult:
    """Enterprise BFS over a 1-D partitioned graph on ``num_gpus`` devices.

    Each device runs the §4.4 three-step level loop on its own private
    status array; levels are bulk-synchronous with a ballot-compressed
    allgather between them.  Wall time per level is the slowest device's
    compute plus the exchange.
    """
    config = config or EnterpriseConfig()
    group = group or DeviceGroup(num_gpus, spec)
    if len(group) != num_gpus:
        raise ValueError("device group size must match num_gpus")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")

    inspect_graph = graph.reverse if graph.directed else graph
    out_degrees = graph.out_degrees
    in_degrees = inspect_graph.out_degrees
    bounds = partition_bounds(n, num_gpus)
    owner_of = np.searchsorted(bounds, np.arange(n), side="right") - 1

    # Private state per device.
    private_status = [np.full(n, UNVISITED, dtype=np.int32)
                      for _ in range(num_gpus)]
    parents = np.full(n, UNVISITED, dtype=np.int64)
    for st in private_status:
        st[source] = 0

    gamma = GammaPolicy(threshold_pct=config.gamma_threshold)
    gamma.setup(graph)
    hc = HubCachePolicy(graph, spec,
                        shared_config_bytes=config.shared_config_bytes) \
        if config.hub_cache else None

    traces: list[LevelTrace] = []
    direction = "top-down"
    level = 0
    bytes_exchanged = 0
    bytes_uncompressed = 0
    compute_ms_total = 0.0
    # Scratch for bottom-up per-vertex workloads.
    workload_scratch = np.zeros(n, dtype=np.int64)

    # Bottom-up private queues (per device, §4.1 subset property).
    bu_queues: list[np.ndarray] | None = None

    for _ in range(config.max_levels):
        just_visited = np.zeros(n, dtype=bool)
        per_device_ms: list[float] = []
        level_edges = 0
        level_hits = 0

        if direction == "top-down":
            global_frontier = np.flatnonzero(
                private_status[0] == level).astype(np.int64)
            if global_frontier.size == 0:
                break
            level_frontier = int(global_frontier.size)
            for k in range(num_gpus):
                local = global_frontier[owner_of[global_frontier] == k]
                # Step 1: expand the private frontier queue.
                newly_local, their_parents, edges, _ = expand_frontier(
                    graph, local, private_status[k], level)
                parents[newly_local] = their_parents
                level_edges += edges
                just_visited[newly_local] = True
                # Cost: queue scan over the owned range + expansion.
                owned = int(bounds[k + 1] - bounds[k])
                kernels = [sweep_kernel(
                    owned, sequential_transactions(owned, 1, spec), spec,
                    name="scan-private")]
                kernels += _local_kernels(local, out_degrees, out_degrees,
                                           spec, config, shared_hits=0,
                                           phase="td")
                per_device_ms.append(_launch(group.devices[k], kernels,
                                             config, f"L{level}:td"))
        else:
            if bu_queues is None:
                bu_queues = [
                    np.flatnonzero(private_status[k] == UNVISITED)
                    .astype(np.int64) for k in range(num_gpus)]
                bu_queues = [q[owner_of[q] == k]
                             for k, q in enumerate(bu_queues)]
            level_frontier = int(sum(q.size for q in bu_queues))
            if level_frontier == 0:
                break
            for k in range(num_gpus):
                st = private_status[k]
                cand = bu_queues[k]
                cached = hc.cached_mask if hc is not None else None
                outcome = bottom_up_inspect(inspect_graph, cand, st, level,
                                            cached_parents=cached)
                parents[outcome.found] = outcome.parents
                just_visited[outcome.found] = True
                level_edges += outcome.edges_checked
                level_hits += outcome.cache_hits
                kernels = [sweep_kernel(
                    max(cand.size, 1),
                    sequential_transactions(cand.size, 8, spec), spec,
                    name="queue-filter", instr_per_element=4)]
                workload_scratch[cand] = np.maximum(outcome.lookups, 1)
                kernels += _local_kernels(cand, in_degrees, workload_scratch,
                                           spec, config,
                                           shared_hits=outcome.cache_hits,
                                           phase="bu")
                workload_scratch[cand] = 0
                per_device_ms.append(_launch(group.devices[k], kernels,
                                             config, f"L{level}:bu"))
                bu_queues[k] = cand[st[cand] == UNVISITED]

        # Step 2: ballot-compress and allgather the just-visited view.
        compute_ms = group.barrier_level(per_device_ms)
        compute_ms_total += compute_ms
        bits = ballot_compress(just_visited)
        if num_gpus > 1:
            group.allgather_ms(int(bits.nbytes))
            bytes_exchanged += int(bits.nbytes) * num_gpus
            bytes_uncompressed += n * num_gpus  # 1-byte status entries
        # Merge: every device ORs in the freshly visited set.
        restored = ballot_decompress(bits, n)
        for st in private_status:
            merged = restored & (st == UNVISITED)
            st[merged] = level + 1

        newly = np.flatnonzero(restored).astype(np.int64)
        gamma_value = gamma.observe(newly) if newly.size else 0.0
        traces.append(LevelTrace(
            level=level, direction=direction,
            frontier_count=level_frontier,
            newly_visited=int(newly.size),
            edges_checked=level_edges,
            expand_ms=compute_ms,
            hub_cache_hits=level_hits,
            gamma=gamma_value,
        ))

        if newly.size == 0:
            break
        if direction == "top-down" and not gamma.switched \
                and gamma_value > gamma.threshold_pct:
            gamma.switched = True
            direction = "switch"
        elif direction == "switch":
            direction = "bottom-up"
        if hc is not None and direction in ("switch", "bottom-up"):
            hc.refresh(newly, level + 1)
        level += 1

    result = BFSResult(
        algorithm=f"enterprise-multigpu[{num_gpus}]",
        graph_name=graph.name,
        source=source,
        levels=private_status[0],
        parents=parents,
        traces=traces,
        time_ms=group.elapsed_ms,
    )
    result.set_edges_traversed(graph)
    return MultiGPUResult(
        result=result,
        num_gpus=num_gpus,
        communication_ms=group.communication_ms,
        computation_ms=compute_ms_total,
        bytes_exchanged=bytes_exchanged,
        bytes_uncompressed=bytes_uncompressed,
    )
