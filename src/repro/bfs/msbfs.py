"""Bit-parallel multi-source BFS (MS-BFS).

The centrality workloads of §1 (betweenness, closeness) need one BFS per
source; MS-BFS (Then et al., VLDB '14) batches up to 64 sources into one
traversal by giving every vertex a 64-bit *seen* mask and a 64-bit
*frontier* mask — one bit per source.  A level expands all sources'
frontiers in a single sweep over the union frontier, ANDing away
already-seen bits, so shared structure (the explosion levels of
small-world graphs, §2.3) is traversed once instead of 64 times.

On the simulated GPU each level is charged as one WB-balanced expansion
over the union frontier plus a 16-byte mask update per discovered
(vertex, batch) pair — the same accounting a CUDA MS-BFS would produce.

The result is exact: per-source levels equal 64 independent BFS runs,
which the property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.clock import PS_PER_MS
from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, expansion_kernel, sweep_kernel
from ..gpu.memory import sequential_transactions
from ..graph.csr import CSRGraph
from .common import UNVISITED

__all__ = ["MSBFSResult", "ms_bfs"]

#: Sources per batch: one bit per lane of a uint64 mask word.
BATCH = 64


@dataclass
class MSBFSResult:
    """Levels for every source of a batched traversal."""

    sources: np.ndarray
    #: ``levels[i, v]`` — BFS level of vertex v from ``sources[i]``
    #: (:data:`~repro.bfs.common.UNVISITED` if unreachable).
    levels: np.ndarray
    #: Simulated time of every batch, in picosecond ticks.
    time_ps: int
    #: Union-frontier sizes per level (the sharing the batch exploits).
    union_frontiers: list[int]

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS

    @property
    def num_sources(self) -> int:
        return int(self.sources.size)

    def teps(self, graph: CSRGraph) -> float:
        """Aggregate TEPS over all sources in the batch."""
        if self.time_ps <= 0:
            return 0.0
        total = 0
        for i in range(self.num_sources):
            visited = np.flatnonzero(self.levels[i] != UNVISITED)
            total += int(graph.out_degrees[visited].sum())
        return total / (self.time_ms * 1e-3)


def ms_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    *,
    device: GPUDevice | None = None,
    max_levels: int = 100_000,
) -> MSBFSResult:
    """Run up to 64 BFS traversals in one bit-parallel pass.

    Larger source sets are processed in independent 64-wide batches.
    """
    device = device or GPUDevice()
    spec = device.spec
    sources = np.asarray(sources, dtype=np.int64)
    n = graph.num_vertices
    if sources.size == 0:
        raise ValueError("need at least one source")
    if sources.min() < 0 or sources.max() >= n:
        raise ValueError("source out of range")

    all_levels = np.full((sources.size, n), UNVISITED, dtype=np.int32)
    union_frontiers: list[int] = []

    for start in range(0, sources.size, BATCH):
        batch = sources[start:start + BATCH]
        k = batch.size
        seen = np.zeros(n, dtype=np.uint64)
        frontier_mask = np.zeros(n, dtype=np.uint64)
        bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
        # Several batch sources may share a vertex; OR their bits.
        np.bitwise_or.at(seen, batch, bits)
        np.bitwise_or.at(frontier_mask, batch, bits)
        for i in range(k):
            all_levels[start + i, batch[i]] = 0

        level = 0
        for _ in range(max_levels):
            active = np.flatnonzero(frontier_mask != 0).astype(np.int64)
            if active.size == 0:
                break
            union_frontiers.append(int(active.size))
            srcs, nbrs = graph.gather_neighbors(active)
            # Candidate bits: the frontier bits of each edge's source,
            # minus what the target has already seen.
            new_bits = frontier_mask[srcs] & ~seen[nbrs]
            next_mask = np.zeros(n, dtype=np.uint64)
            np.bitwise_or.at(next_mask, nbrs, new_bits)
            next_mask &= ~seen
            discovered = np.flatnonzero(next_mask != 0).astype(np.int64)
            seen[discovered] |= next_mask[discovered]
            # Record levels per source bit, one vectorised bit-matrix
            # expansion instead of a per-lane scan over the mask words.
            if discovered.size:
                masks = next_mask[discovered]
                lanes = np.arange(k, dtype=np.uint64)[:, None]
                got = (masks[None, :] >> lanes) & np.uint64(1) == 1
                rows, cols = np.nonzero(got)
                all_levels[start + rows, discovered[cols]] = level + 1

            # Cost: one WB-style expansion over the union frontier plus
            # an 8-byte mask read + conditional 8-byte OR per edge.
            expand = expansion_kernel(
                graph.out_degrees[active], Granularity.WARP, spec,
                name="msbfs-expand", element_bytes=16)
            update = sweep_kernel(
                max(discovered.size, 1),
                sequential_transactions(2 * max(discovered.size, 1), 8,
                                        spec),
                spec, name="msbfs-mask-update", instr_per_element=6)
            device.launch(expand, label=f"L{level}:msbfs")
            device.launch(update, label=f"L{level}:msbfs-update")

            frontier_mask = next_mask
            level += 1

    return MSBFSResult(
        sources=sources,
        levels=all_levels,
        time_ps=device.elapsed_ps,
        union_frontiers=union_frontiers,
    )
