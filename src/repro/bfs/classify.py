"""WB — workload balancing by frontier classification (§4.2, Fig. 9).

"Enterprise classifies the frontiers that are generated with the previous
technique into four queues, SmallQueue, MiddleQueue, LargeQueue and
ExtremeQueue, based on the out-degrees of each frontier.  Specifically,
the frontiers in SmallQueue have fewer than 32 edges, MiddleQueue between
32 and 256, LargeQueue between 256 and 65,536 and ExtremeQueue more than
65,536. ... At the next level, four kernels (Thread, Warp, CTA and Grid)
with different number of threads will be assigned to work on different
frontier queues ... All kernels are executed concurrently with Hyper-Q
support."

The classification itself happens during queue generation (each scanning
thread bins a discovered frontier by degree), so its cost is one extra
sweep over the frontier queue — the "another 5 ms of overhead" of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import accel
from ..gpu.kernels import Granularity, KernelCost, sweep_kernel
from ..gpu.memory import sequential_transactions
from ..gpu.specs import DeviceSpec

__all__ = [
    "QUEUE_BOUNDS",
    "QUEUE_GRANULARITY",
    "ClassifiedFrontier",
    "classify_frontiers",
    "classify_frontiers_scalar",
]

#: Out-degree boundaries (small < 32 <= middle < 256 <= large < 65536
#: <= extreme), §4.2.
QUEUE_BOUNDS = (32, 256, 65_536)

#: Kernel granularity serving each queue, in (small, middle, large,
#: extreme) order.
QUEUE_GRANULARITY = {
    "small": Granularity.THREAD,
    "middle": Granularity.WARP,
    "large": Granularity.CTA,
    "extreme": Granularity.GRID,
}

QUEUE_ORDER = ("small", "middle", "large", "extreme")


@dataclass
class ClassifiedFrontier:
    """The four degree-classified frontier queues of one level."""

    queues: dict[str, np.ndarray]
    classify_cost: KernelCost

    def __post_init__(self) -> None:
        missing = set(QUEUE_ORDER) - set(self.queues)
        if missing:
            raise ValueError(f"missing queues: {sorted(missing)}")

    @property
    def total(self) -> int:
        return sum(q.size for q in self.queues.values())

    def counts(self) -> dict[str, int]:
        return {name: int(self.queues[name].size) for name in QUEUE_ORDER}

    def workload_share(self, out_degrees: np.ndarray) -> dict[str, float]:
        """Edge-workload fraction per queue (the Fig. 13 discussion:
        "SmallQueue contains 78% frontiers (or 22% workload)...")."""
        totals = {name: int(out_degrees[q].sum())
                  for name, q in self.queues.items()}
        grand = sum(totals.values())
        if grand == 0:
            return {name: 0.0 for name in QUEUE_ORDER}
        return {name: totals[name] / grand for name in QUEUE_ORDER}


def classify_frontiers_scalar(
    queue: np.ndarray,
    out_degrees: np.ndarray,
    spec: DeviceSpec,
    *,
    bounds: tuple[int, int, int] = QUEUE_BOUNDS,
) -> ClassifiedFrontier:
    """Scalar reference for :func:`classify_frontiers` (original seed
    code): one boolean mask pair per class."""
    if len(bounds) != 3 or not (0 < bounds[0] < bounds[1] < bounds[2]):
        raise ValueError("bounds must be three increasing positive ints")
    small_b, middle_b, large_b = bounds
    queue = np.asarray(queue, dtype=np.int64)
    degs = out_degrees[queue] if queue.size else np.empty(0, dtype=np.int64)
    queues = {
        "small": queue[degs < small_b],
        "middle": queue[(degs >= small_b) & (degs < middle_b)],
        "large": queue[(degs >= middle_b) & (degs < large_b)],
        "extreme": queue[degs >= large_b],
    }
    # One classification pass over the queue: read the degree, bin the ID.
    access = sequential_transactions(2 * max(queue.size, 1), 8, spec)
    cost = sweep_kernel(max(queue.size, 1), access, spec,
                        name="classify", instr_per_element=4)
    return ClassifiedFrontier(queues=queues, classify_cost=cost)


_bounds_arrays: dict[tuple[int, int, int], np.ndarray] = {}

#: Label boundaries the sorted-label array is cut at (labels are 0..3).
_CUTS = np.array([1, 2, 3], dtype=np.int64)


def classify_frontiers(
    queue: np.ndarray,
    out_degrees: np.ndarray,
    spec: DeviceSpec,
    *,
    bounds: tuple[int, int, int] = QUEUE_BOUNDS,
) -> ClassifiedFrontier:
    """Split a frontier queue by out-degree into the four WB queues.

    Relative order within each queue is preserved (each scan thread
    appends to its per-class bin in discovery order), so the sortedness
    the switch workflow established survives classification.

    The vectorized path bins by one ``searchsorted`` against the bounds
    instead of four mask pairs; stable compression per label keeps the
    queues identical to the scalar reference.
    """
    if accel.scalar_mode():
        return classify_frontiers_scalar(queue, out_degrees, spec,
                                         bounds=bounds)
    if len(bounds) != 3 or not (0 < bounds[0] < bounds[1] < bounds[2]):
        raise ValueError("bounds must be three increasing positive ints")
    queue = np.asarray(queue, dtype=np.int64)
    edges = _bounds_arrays.get(bounds)
    if edges is None:
        edges = _bounds_arrays[bounds] = np.asarray(bounds, dtype=np.int64)
    if queue.size:
        degs = out_degrees[queue]
        labels = np.searchsorted(edges, degs, side="right")
        # Stable sort by label, then slice at the class boundaries: the
        # relative order within each class is the input order, so each
        # slice equals the scalar reference's masked compress.
        order = np.argsort(labels, kind="stable")
        sorted_queue = queue[order]
        cuts = np.searchsorted(labels[order], _CUTS)
        queues = {
            "small": sorted_queue[:cuts[0]],
            "middle": sorted_queue[cuts[0]:cuts[1]],
            "large": sorted_queue[cuts[1]:cuts[2]],
            "extreme": sorted_queue[cuts[2]:],
        }
    else:
        queues = {name: queue[:0] for name in QUEUE_ORDER}
    access = sequential_transactions(2 * max(queue.size, 1), 8, spec)
    cost = sweep_kernel(max(queue.size, 1), access, spec,
                        name="classify", instr_per_element=4)
    return ClassifiedFrontier(queues=queues, classify_cost=cost)
