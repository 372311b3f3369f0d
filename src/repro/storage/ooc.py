"""Out-of-core Enterprise BFS (§7's future-work extension, built).

The adjacency structure lives on a :class:`~repro.storage.specs.StorageSpec`
device and streams into a fixed GPU-memory budget partition-by-partition;
per-vertex state (status array, degrees, parents) stays resident.  The
traversal is :func:`~repro.bfs.enterprise.enterprise_bfs`'s own level
loop, so every :class:`~repro.bfs.enterprise.EnterpriseConfig` field
means what it means in memory.  Before each level's kernels a staging
hook

1. determines which partitions the level's queue touches (the frontier
   top-down, the candidates bottom-up), and
2. loads the missing ones through an LRU :class:`PartitionCache`,
   charging the storage device's read time (and, for compressed
   partitions, a decompression sweep) to the GPU timeline.

The traversal result and every kernel are identical to the in-memory
run; each level's ``expand_ms`` gains the level's I/O time, and
``io_ms`` is their sum, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bfs.common import BFSResult
from ..bfs.enterprise import EnterpriseConfig, _traverse
from ..gpu.device import GPUDevice
from ..gpu.kernels import sweep_kernel
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from .partitioned import PartitionCache, PartitionedCSR
from .specs import NVME_SSD, StorageSpec

__all__ = ["OOCResult", "ooc_enterprise_bfs"]


@dataclass
class OOCResult:
    """Out-of-core traversal outcome plus the I/O ledger."""

    result: BFSResult
    num_partitions: int
    memory_budget_bytes: int
    partition_loads: int
    cache_hits: int
    bytes_read: int
    io_ms: float

    @property
    def time_ms(self) -> float:
        return self.result.time_ms

    @property
    def cache_hit_rate(self) -> float:
        total = self.partition_loads + self.cache_hits
        return self.cache_hits / total if total else 0.0

    @property
    def io_share(self) -> float:
        """Fraction of total time spent on storage reads."""
        if self.result.time_ms <= 0:
            return 0.0
        return self.io_ms / self.result.time_ms


def ooc_enterprise_bfs(
    graph: CSRGraph,
    source: int,
    *,
    num_partitions: int = 16,
    memory_budget_bytes: int | None = None,
    storage: StorageSpec = NVME_SSD,
    device: GPUDevice | None = None,
    config: EnterpriseConfig | None = None,
    compression: str | None = None,
    prefetch: bool = False,
) -> OOCResult:
    """Enterprise BFS over a storage-resident graph.

    ``memory_budget_bytes`` defaults to half the adjacency footprint, so
    the cache is forced to evict — the interesting regime.  A budget
    covering the whole graph degenerates to one initial load pass.

    ``compression="varint"`` stores partitions delta-varint compressed
    (3-5x fewer bytes on the power-law stand-ins) and charges a
    decompression sweep per load; ``prefetch=True`` overlaps each
    level's partition loads with its kernels (double-buffering), so the
    level costs ``max(io, compute)`` instead of their sum.
    """
    device = device or GPUDevice()
    spec = device.spec
    inspect_graph = graph.reverse if graph.directed else graph
    parts_fwd = PartitionedCSR(graph, num_partitions,
                               compression=compression)
    parts_bwd = parts_fwd if inspect_graph is graph else \
        PartitionedCSR(inspect_graph, num_partitions,
                       compression=compression)
    if memory_budget_bytes is None:
        memory_budget_bytes = max(
            parts_fwd.total_bytes // 2,
            max(p.nbytes for p in parts_fwd.partitions),
            max(p.nbytes for p in parts_bwd.partitions),
        )
    cache = PartitionCache(memory_budget_bytes)
    level_io_ms: list[float] = []

    def stage(queue: np.ndarray, bottom_up: bool) -> None:
        """Load the partitions the level's queue touches (out-edges
        top-down, in-edges bottom-up) and record the level's I/O ms,
        including the decompression pass of compressed partitions."""
        partitioned = parts_bwd if bottom_up else parts_fwd
        ms = 0.0
        for p in partitioned.partitions_touched(queue):
            read = cache.load(p)
            if read:
                t = storage.read_ms(read)
                device.charge(f"io:p{p.index}", t)
                ms += t
                if partitioned.compression is not None:
                    k = sweep_kernel(max(p.num_edges, 1),
                                     sequential_transactions(
                                         2 * p.num_edges, 8, spec),
                                     spec, name=f"decompress:p{p.index}",
                                     instr_per_element=6)
                    device.launch(k)
                    ms += k.time_ms
        level_io_ms.append(ms)

    result = _traverse(graph, source, device, config or EnterpriseConfig(),
                       stage)
    result.algorithm = f"enterprise-ooc[{num_partitions}p]"
    # Every traced level staged once, before its kernels.
    io_ms = 0.0
    wall_ms = 0.0
    for trace, level_io in zip(result.traces, level_io_ms):
        io_ms += level_io
        wall_ms += trace.queue_gen_ms + max(level_io, trace.expand_ms)
        trace.expand_ms += level_io
    if prefetch:
        result.time_ms = wall_ms
    return OOCResult(
        result=result,
        num_partitions=num_partitions,
        memory_budget_bytes=memory_budget_bytes,
        partition_loads=cache.loads,
        cache_hits=cache.hits,
        bytes_read=cache.bytes_read,
        io_ms=io_ms,
    )
