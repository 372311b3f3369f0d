"""Task-stealing expansion — the §6 alternative to WB, modeled.

§6: "Recently several workload balance techniques have been proposed for
GPUs such as task stealing [15, 12] and workload donation [41, 14].
However, this type of technique is often used in a small group of
threads, and is extremely challenging to coordinate among thousands of
threads as we have in this work.  Instead, Enterprise targets the root
of BFS workload imbalance and classifies different frontiers."

To test that argument on the same substrate, this module models a
work-stealing expansion: frontiers' edges go into a shared pool in
chunks; warps repeatedly pop a chunk (an atomic fetch-and-add on the
pool cursor) and process it.  Balance is near-perfect by construction —
the cost is the pool synchronisation, which scales with the chunk count
and the number of contending warps, exactly the coordination §6 warns
about.  The ablation bench compares it against WB's classification and
the static single-granularity kernel.
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernels import (
    Granularity,
    KernelCost,
    atomic_enqueue_kernel,
    expansion_kernel,
)
from ..gpu.specs import DeviceSpec

__all__ = ["stealing_expansion_cost", "DEFAULT_CHUNK"]

#: Edges per stolen chunk.  Small chunks balance better but multiply the
#: pool synchronisation; 64 is the conventional sweet spot.
DEFAULT_CHUNK = 64


def stealing_expansion_cost(
    workloads: np.ndarray,
    spec: DeviceSpec,
    *,
    chunk: int = DEFAULT_CHUNK,
    name: str = "steal-expand",
) -> list[KernelCost]:
    """Cost of expanding ``workloads`` edges via a shared chunk pool.

    Two components: the perfectly balanced edge processing (modeled as a
    warp-granularity kernel over chunk-sized work items — by
    construction no item exceeds ``chunk`` edges) and the pool
    synchronisation (one atomic fetch-and-add per chunk, all warps
    contending on a single cursor).
    """
    workloads = np.asarray(workloads, dtype=np.int64)
    if workloads.size == 0 or workloads.sum() == 0:
        return []
    total = int(workloads.sum())
    n_chunks = max(1, -(-total // chunk))
    chunk_loads = np.full(n_chunks, chunk, dtype=np.int64)
    chunk_loads[-1] = total - chunk * (n_chunks - 1) or chunk
    balanced = expansion_kernel(chunk_loads, Granularity.WARP, spec,
                                name=name)
    # Distributed deques (the standard implementation): one cursor per
    # resident CTA, pops hash across them, contention remains within
    # each deque.  Still one atomic RMW per chunk.
    deques = max(1, spec.sm_count * 8)
    pool = atomic_enqueue_kernel(n_chunks, min(n_chunks, deques), spec,
                                 name=f"{name}-pool")
    return [balanced, pool]

