"""TS — streamlined frontier-queue generation (§4.1).

Enterprise builds the frontier queue in two contention-free steps — a
status-array scan into per-thread bins, then a prefix sum over the bins
and a parallel copy — "eliminating the need of thread synchronization ...
but also removing duplicated frontiers from the queue".  Three workflows
tune the scan's memory-access pattern to the BFS phase (Fig. 7):

* **top-down** — threads scan the status array *interleaved* (thread 0
  checks vertices {0, 2, 4, ...}).  The scan itself is perfectly
  sequential; the queue comes out in bin order, i.e. *out of order* by
  vertex ID, which is harmless because top-down levels hold few frontiers
  (average 0.4 %) whose adjacency lists were never going to coalesce.
* **direction-switching (explosion level)** — threads scan *blocked*
  contiguous ranges.  The scan is strided (≈2.4x slower, §4.1), but the
  bottom-up queue comes out sorted by vertex ID, so the next level's
  adjacency-list loads are sequential — a net win ("average speedup of
  over 16 % across all the graphs, with the best improvement of 33 % on
  Facebook").
* **bottom-up** — "the queue for the current level is always a subset of
  the previous queue"; Enterprise filters the previous queue instead of
  re-scanning the whole status array (≈3 % improvement).

Each workflow returns the queue *and* the kernel costs of producing it,
so the 11 %-of-runtime queue-generation overhead of Fig. 8 is charged
explicitly.
"""

from __future__ import annotations

import numpy as np

from .. import accel
from ..gpu.kernels import (
    GRID_THREADS,
    KernelCost,
    prefix_sum_kernel,
    sweep_kernel,
)
from ..gpu.memory import sequential_transactions, strided_transactions
from ..gpu.specs import DeviceSpec
from .common import UNVISITED

__all__ = [
    "topdown_workflow",
    "switch_workflow",
    "switch_interleaved_workflow",
    "bottomup_filter_workflow",
    "bin_order",
    "bin_order_scalar",
    "queue_contiguity",
]

#: Status-array entry size in bytes (§2.1: "basically a byte array").
STATUS_BYTES = 1

#: Queue entry size (§5: uint64 vertex IDs).
QUEUE_BYTES = 8


def _scan_threads(n: int) -> int:
    """Scan-grid width: the paper launches a 256x256 grid over 16.8M
    vertices, i.e. ~256 status entries per thread; the same work-per-
    thread ratio is kept here so bin-order effects match."""
    return max(1, min(-(-n // 256), GRID_THREADS))


def _prefix_bins(threads: int) -> int:
    """Bins the global prefix sum runs over: one partial per CTA.

    The scan is two-level (scan-then-propagate): each CTA reduces its 256
    threads' bin counts in shared memory, and only the per-CTA partials
    hit the global work-efficient scan [34, 22].
    """
    return max(1, -(-threads // 256))


def bin_order_scalar(frontiers: np.ndarray, threads: int) -> np.ndarray:
    """Scalar reference: interleaved-scan bin permutation by lexsort.

    Thread id = v % T is the major key, position within the thread's bin
    (v // T) the minor key.
    """
    return np.lexsort((frontiers // threads, frontiers % threads))


def bin_order(frontiers: np.ndarray, threads: int) -> np.ndarray:
    """Interleaved-scan bin permutation of an *ascending* frontier array.

    For ascending input the ``v // T`` tiebreak of the scalar lexsort is
    exactly the input order, so one stable sort on ``v % T`` yields the
    identical permutation at half the key passes.
    """
    if accel.scalar_mode():
        return bin_order_scalar(frontiers, threads)
    return np.argsort(frontiers % threads, kind="stable")


def _copy_kernel(frontier_count: int, spec: DeviceSpec) -> KernelCost:
    """Parallel copy of the thread bins into the queue (sequential writes
    at prefix-sum offsets, sequential reads of the bins)."""
    access = sequential_transactions(2 * frontier_count, QUEUE_BYTES, spec)
    return sweep_kernel(max(frontier_count, 1), access, spec,
                        name="bin-copy", instr_per_element=3)


def topdown_workflow(
    status: np.ndarray,
    level: int,
    spec: DeviceSpec,
    frontiers: np.ndarray | None = None,
) -> tuple[np.ndarray, list[KernelCost]]:
    """Interleaved scan: frontier queue for a top-down level.

    Thread ``t`` of ``T`` checks vertices ``t, t+T, t+2T, ...`` — adjacent
    lanes touch adjacent addresses, so the scan is fully coalesced.  The
    queue concatenates the bins in thread order, which permutes the
    frontiers out of vertex order (Fig. 7(a): FQ2 = {4, 1}).

    ``frontiers`` may carry the (ascending) vertices already known to sit
    at ``level`` — e.g. the just-expanded set — to skip the host-side
    re-scan of the status array; the simulated scan is charged either way.
    """
    n = status.size
    if frontiers is None:
        frontiers = np.flatnonzero(status == level).astype(np.int64)
    threads = _scan_threads(n)
    # Bin order: thread id = v % T, position within bin = v // T.
    queue = frontiers[bin_order(frontiers, threads)]
    kernels = [
        sweep_kernel(n, sequential_transactions(n, STATUS_BYTES, spec),
                     spec, name="scan-interleaved"),
        prefix_sum_kernel(_prefix_bins(threads), spec),
        _copy_kernel(queue.size, spec),
    ]
    return queue, kernels


def switch_workflow(
    status: np.ndarray,
    spec: DeviceSpec,
) -> tuple[np.ndarray, list[KernelCost]]:
    """Blocked scan at the explosion level: the bottom-up queue, sorted.

    Thread ``t`` checks the contiguous block ``[t*n/T, (t+1)*n/T)``;
    simultaneous lanes are a block apart, so the scan is strided and
    costs ~2.4x the interleaved scan, but concatenating the bins yields
    the unvisited vertices in ascending ID order (Fig. 7(b): FQ3 =
    {3, 5, 6, 8, 9}) — sequential adjacency access next level.
    """
    n = status.size
    queue = np.flatnonzero(status == UNVISITED).astype(np.int64)
    threads = _scan_threads(n)
    stride = max(1, n // threads)
    kernels = [
        sweep_kernel(n, strided_transactions(n, stride, STATUS_BYTES, spec),
                     spec, name="scan-blocked"),
        prefix_sum_kernel(_prefix_bins(threads), spec),
        _copy_kernel(queue.size, spec),
    ]
    return queue, kernels


def switch_interleaved_workflow(
    status: np.ndarray,
    spec: DeviceSpec,
) -> tuple[np.ndarray, list[KernelCost]]:
    """Ablation of the §4.1 design choice: generate the bottom-up queue
    with the *interleaved* scan instead of the blocked one.

    The scan itself is cheaper (fully coalesced, no striding) but the
    queue comes out in thread-bin order — scattered by vertex ID — so the
    next level's adjacency loads lose the sequential-access benefit the
    paper measured as "+16 % across all the graphs".
    """
    n = status.size
    unvisited = np.flatnonzero(status == UNVISITED).astype(np.int64)
    threads = _scan_threads(n)
    queue = unvisited[bin_order(unvisited, threads)]
    kernels = [
        sweep_kernel(n, sequential_transactions(n, STATUS_BYTES, spec),
                     spec, name="scan-interleaved"),
        prefix_sum_kernel(_prefix_bins(threads), spec),
        _copy_kernel(queue.size, spec),
    ]
    return queue, kernels


def bottomup_filter_workflow(
    prev_queue: np.ndarray,
    status: np.ndarray,
    spec: DeviceSpec,
) -> tuple[np.ndarray, list[KernelCost]]:
    """Filter the previous bottom-up queue down to the still-unvisited.

    Fig. 7(c): FQ4 is created by removing the vertices visited last level
    from FQ3 — "only a small (and fast shrinking) subset is inspected at
    each level", never the whole status array.  Order (sortedness) is
    preserved.
    """
    keep = status[prev_queue] == UNVISITED
    queue = prev_queue[keep]
    threads = _scan_threads(max(prev_queue.size, 1))
    kernels = [
        sweep_kernel(
            max(prev_queue.size, 1),
            sequential_transactions(prev_queue.size, QUEUE_BYTES, spec),
            spec, name="queue-filter", instr_per_element=4,
        ),
        prefix_sum_kernel(_prefix_bins(min(threads, max(prev_queue.size, 1))), spec),
        _copy_kernel(queue.size, spec),
    ]
    return queue, kernels


def queue_contiguity(queue: np.ndarray) -> float:
    """Fraction of consecutive queue entries with consecutive vertex IDs.

    This is the locality the switch workflow buys: a sorted bottom-up
    queue of a dense unvisited region approaches 1.0 (vertices 5 and 6
    load adjacent lists), an interleaved top-down queue approaches 0.
    Used as the ``neighbor_locality`` knob of the expansion kernels.
    """
    if queue.size < 2:
        return 0.0
    runs = np.count_nonzero(queue[1:] == queue[:-1] + 1)
    return float(runs) / (queue.size - 1)
