"""2-D partitioned multi-GPU Enterprise — the §4.4 future work, built.

§4.4: "We leave the study of 2-D partition as future work."  This module
supplies it, following the classic Buluç–Madduri / Graph 500 blocked
decomposition: a ``rows x cols`` GPU grid where GPU (i, j) owns the edge
block with *sources* in column group j and *targets* in row group i.

The level loop is the grid loop of :mod:`repro.bfs.cluster`
(``_grid_bfs``), which the multi-node cluster runs too; this module
holds the per-block traversal math it calls and runs it on one tier:
both exchanges on ``Grid2D.interconnect``, with neither of the
cluster's hooks (shard staging, frontier-count allreduce).  Per level
the grid runs three phases:

1. **block expansion** — every GPU expands its column's frontier segment
   through its edge block, discovering candidates in its row's vertex
   range only;
2. **row exchange** — the ``cols`` GPUs of each row OR their discovered
   bit-vectors for that row's n/rows vertices (ballot-compressed ring);
3. **column exchange** — the new frontier segments propagate down each
   column (n/cols vertices per segment).

The per-level exchange is therefore O(n/rows + n/cols) bits per GPU
instead of the 1-D scheme's O(n) — the scaling argument for 2-D — which
:mod:`tests.test_partition2d` verifies against the 1-D implementation,
along with exact result equality with the single-GPU traversal.

Exchange accounting is *content-aware*: the per-row and per-column rings
run concurrently, so a level's exchange time is the **max** over the
rings that actually shipped bytes, each ring charged its own group's
compressed payload; a ring whose segment discovered nothing this level
ships 0 bytes and is skipped.  The byte ledger records exactly the
payloads charged (``bytes_exchanged == sum(charged_payloads)``).

Bottom-up levels are row-parallel: a row's unvisited candidates are
inspected by all GPUs of that row, and a candidate is discovered if
*any* column finds a parent (resolved in the row exchange).  GPU (i, j)
scans only its column block of each list, the in-edges whose sources
fall in column group j (:meth:`~repro.graph.csr.CSRGraph.column_blocks`),
with early exit (:func:`~repro.bfs.common._scan_first_hits`).  The
scatter route of single-GPU inspection is not used: it needs each
block's incidence transpose, one stable argsort per block, which costs
more set-up time than it saves.  Early termination is per-column, so a
2-D grid inspects somewhat more edges than the 1-D scheme — the known
cost of the layout, visible in the traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel import shared_arange
from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, KernelCost, expansion_kernel
from ..gpu.multi import (
    InterconnectSpec,
    PCIE_GEN3_X16,
    ballot_compress,
)
from ..gpu.specs import DeviceSpec, KEPLER_K40
from ..graph.csr import CSRGraph
from .common import BFSResult, UNVISITED, _INT64_MAX, _scan_first_hits
from .enterprise import EnterpriseConfig
from .multigpu import partition_bounds

__all__ = ["Grid2D", "MultiGPU2DResult", "multigpu2d_enterprise_bfs"]


@dataclass(frozen=True)
class Grid2D:
    """A rows x cols GPU grid with its two communicators, both on
    ``interconnect`` (:func:`~repro.gpu.fabric.ring_ms` prices a ring)."""

    rows: int
    cols: int
    interconnect: InterconnectSpec = PCIE_GEN3_X16

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass
class MultiGPU2DResult:
    """Outcome of a 2-D partitioned traversal plus its exchange ledger."""

    result: BFSResult
    grid: Grid2D
    communication_ms: float
    computation_ms: float
    bytes_exchanged: int
    #: Bytes a 1-D partition would have exchanged over the same levels.
    bytes_exchanged_1d: int
    #: Every per-ring payload actually charged, in charge order; the
    #: ledger invariant is ``bytes_exchanged == sum(charged_payloads)``.
    charged_payloads: list[int] = field(default_factory=list)

    @property
    def time_ms(self) -> float:
        return self.result.time_ms

    @property
    def teps(self) -> float:
        return self.result.teps

    @property
    def exchange_advantage(self) -> float:
        """How many times fewer bytes than 1-D (the 2-D selling point).

        The denominator is guarded: a grid that exchanged nothing while
        the 1-D comparator still shipped full views (e.g. a 1xN grid
        whose bottom-up levels discover nothing) has *infinite*
        advantage, not parity; only when both sides moved zero bytes is
        the ratio 1.
        """
        if self.bytes_exchanged == 0:
            return float("inf") if self.bytes_exchanged_1d > 0 else 1.0
        return self.bytes_exchanged_1d / self.bytes_exchanged


def _expand_topdown_blocks(
    graph: CSRGraph,
    frontier: np.ndarray,
    status: np.ndarray,
    just_visited: np.ndarray,
    parents: np.ndarray,
    row_of: np.ndarray,
    col_of: np.ndarray,
    rows: int,
    cols: int,
    spec: DeviceSpec,
) -> tuple[int, list[tuple[int, int, KernelCost]]]:
    """Expand one top-down level through every (row, col) edge block.

    Mutates ``just_visited``/``parents`` in place and returns the level's
    edges checked plus the per-block kernels to launch — the exact
    traversal math shared by the single-node grid and the cluster layer,
    so the two stay bit-identical by construction.  A vertex reached
    more than once takes the last writer in (column, frontier, list)
    order as its parent, as in :func:`~repro.bfs.common.expand_frontier`.
    """
    level_edges = 0
    blocks: list[tuple[int, int, KernelCost]] = []
    for j in range(cols):
        seg = frontier[col_of[frontier] == j]
        if seg.size == 0:
            continue
        degs = graph.out_degrees[seg]
        nbrs = graph.targets[graph.gather_slots(seg, graph.offsets, degs)]
        level_edges += int(nbrs.size)
        owner = np.repeat(shared_arange(seg.size), degs)
        new = status[nbrs] == UNVISITED
        cand = nbrs[new]
        # Rows own disjoint target ranges, so one store per column is
        # every block's store.
        just_visited[cand] = True
        parents[cand] = seg[owner[new]]
        # Cost: each GPU's share — its block's edges per frontier
        # vertex, charged like a WB thread/warp mix (summarised as WARP
        # here; the block is a subset of the level's frontier edges).
        loads = np.bincount(row_of[nbrs] * seg.size + owner,
                            minlength=rows * seg.size).reshape(rows, -1)
        for i in range(rows):
            if not loads[i].any():
                continue
            k = expansion_kernel(
                np.maximum(loads[i], 1), Granularity.WARP,
                spec, name=f"td-block-{i}-{j}")
            blocks.append((i, j, k))
    return level_edges, blocks


def _inspect_bottomup_blocks(
    inspect_graph: CSRGraph,
    candidates: np.ndarray,
    status: np.ndarray,
    level: int,
    just_visited: np.ndarray,
    parents: np.ndarray,
    row_of: np.ndarray,
    col_bounds: np.ndarray,
    rows: int,
    spec: DeviceSpec,
) -> tuple[int, list[tuple[int, int, KernelCost]]]:
    """Inspect one bottom-up level, row-parallel across the grid.

    GPU (i, j) scans only its column block of each row-``i`` candidate's
    list (:meth:`~repro.graph.csr.CSRGraph.column_blocks` over
    ``col_bounds``) and stops at the block's first hit, so a column
    whose hit comes late is billed for its own entries only: the hit
    position + 1, or the block degree when there is no hit.  A candidate
    is found if any column hits; its parent is the first hit of the
    highest such column.
    """
    col_blocks = inspect_graph.column_blocks(col_bounds)
    at_level = status == level
    level_edges = 0
    blocks: list[tuple[int, int, KernelCost]] = []
    for i in range(rows):
        row_cand = candidates[row_of[candidates] == i]
        if row_cand.size == 0:
            continue
        for j, block in enumerate(col_blocks):
            degs = block.out_degrees[row_cand]
            if not degs.any():
                continue
            first = _scan_first_hits(block, row_cand, degs, at_level)
            hit = first != _INT64_MAX
            lookups = np.where(hit, first + 1, degs)
            level_edges += int(lookups.sum())
            found = row_cand[hit]
            just_visited[found] = True
            parents[found] = block.targets[block.offsets[found] + first[hit]]
            k = expansion_kernel(
                np.maximum(lookups, 1), Granularity.THREAD, spec,
                name=f"bu-block-{i}-{j}")
            blocks.append((i, j, k))
    return level_edges, blocks


def _segment_payloads(just_visited: np.ndarray,
                      bounds: np.ndarray) -> list[int]:
    """Compressed payload each segment's ring would ship this level —
    0 for a segment that discovered nothing (the ring is skipped)."""
    payloads = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = just_visited[a:b]
        payloads.append(int(ballot_compress(seg).nbytes) if seg.any() else 0)
    return payloads


def multigpu2d_enterprise_bfs(
    graph: CSRGraph,
    source: int,
    rows: int,
    cols: int,
    *,
    spec: DeviceSpec = KEPLER_K40,
    grid: Grid2D | None = None,
    config: EnterpriseConfig | None = None,
) -> MultiGPU2DResult:
    """Direction-optimizing BFS over a rows x cols blocked partition: the
    grid loop with both exchanges on ``grid.interconnect``."""
    # The grid loop's module imports this one's block helpers.
    from .cluster import _grid_bfs, _ltr_sum

    config = config or EnterpriseConfig()
    grid = grid or Grid2D(rows, cols)
    if (grid.rows, grid.cols) != (rows, cols):
        raise ValueError("grid object does not match rows/cols")
    n = graph.num_vertices
    devices = [[GPUDevice(spec) for _ in range(cols)] for _ in range(rows)]
    result, costs, payloads, _ = _grid_bfs(
        graph, source, config, f"enterprise-2d[{rows}x{cols}]", devices,
        partition_bounds(n, rows), partition_bounds(n, cols),
        grid.interconnect, grid.interconnect)
    # The 1-D comparator ships the full n-bit view from each device.
    view_bytes = (-(-n // 8)) * grid.size if grid.size > 1 else 0
    return MultiGPU2DResult(
        result=result,
        grid=grid,
        communication_ms=_ltr_sum(c.row_ms + c.col_ms for c in costs),
        computation_ms=_ltr_sum(c.compute_ms for c in costs),
        bytes_exchanged=sum(payloads),
        bytes_exchanged_1d=view_bytes * len(costs),
        charged_payloads=payloads,
    )
