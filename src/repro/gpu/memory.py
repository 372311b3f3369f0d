"""Global-memory access model: coalescing and transaction accounting.

§2.2 of the paper: "Each global memory access is replied with a data block
that contains 32, 64 or 128 bytes based on the type.  If a warp of threads
happen to access the data in the same block, only one hardware access
transaction is performed."  Random access achieves "a meager 3% of
sequential read bandwidth" (§4.1) — the ratio that motivates all three of
Enterprise's scan workflows and the hub cache.

This module turns the *addresses* an algorithm touches into hardware
*transactions*, exactly as a Kepler load/store unit would: the 32 threads
of a warp issue one transaction per distinct aligned segment they touch.
Everything is vectorised NumPy; per-warp grouping is done with reshape and
segment-id dedup rather than Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import accel
from .specs import DeviceSpec

__all__ = [
    "AccessPattern",
    "coalesced_transactions",
    "sequential_transactions",
    "random_transactions",
    "strided_transactions",
    "bytes_to_time_s",
]


@dataclass(frozen=True)
class AccessPattern:
    """Summary of one batch of global-memory accesses by a kernel.

    Attributes
    ----------
    requests:
        Number of per-thread load/store requests issued.
    transactions:
        Hardware transactions after warp-level coalescing.
    bytes_moved:
        Total bytes transferred (transactions x segment size).
    """

    requests: int
    transactions: int
    bytes_moved: int

    @property
    def coalescing_efficiency(self) -> float:
        """Fraction of ideal: 1.0 = perfectly coalesced, ->0 = scattered."""
        if self.requests == 0:
            return 1.0
        ideal = max(1, -(-self.requests // 32))  # ceil(requests / warp)
        return ideal / max(self.transactions, 1)

    def __add__(self, other: "AccessPattern") -> "AccessPattern":
        return AccessPattern(
            self.requests + other.requests,
            self.transactions + other.transactions,
            self.bytes_moved + other.bytes_moved,
        )


EMPTY_ACCESS = AccessPattern(0, 0, 0)

# The closed-form counters below are pure functions of (shape, spec) and
# AccessPattern is frozen, so their results are interned — every BFS
# level re-requests the same handful of patterns, and the memo skips
# the object churn.
_access_table = accel.intern_table("access_pattern")


def coalesced_transactions(
    indices: np.ndarray,
    element_bytes: int,
    spec: DeviceSpec,
) -> AccessPattern:
    """Count transactions for a warp-scheduled gather of ``indices``.

    ``indices`` are element indices into one array in global memory; thread
    ``i`` of the launch reads element ``indices[i]``.  Consecutive threads
    form warps of ``spec.warp_size``; each warp issues one transaction per
    distinct ``max_transaction_bytes``-aligned segment among its lanes —
    the Kepler coalescing rule the paper's Figure 7 workflows exploit.
    """
    indices = np.asarray(indices)
    n = indices.size
    if n == 0:
        return EMPTY_ACCESS
    seg_bytes = spec.max_transaction_bytes
    warp = spec.warp_size
    segments = (indices.astype(np.int64, copy=False) * element_bytes) // seg_bytes
    pad = (-n) % warp
    if pad:
        # Inactive lanes replicate the last active lane's segment so they
        # never add transactions (predicated-off lanes issue no requests).
        segments = np.concatenate([segments, np.full(pad, segments[-1])])
    per_warp = segments.reshape(-1, warp)
    sorted_segs = np.sort(per_warp, axis=1)
    new_seg = np.ones_like(sorted_segs, dtype=bool)
    new_seg[:, 1:] = sorted_segs[:, 1:] != sorted_segs[:, :-1]
    transactions = int(new_seg.sum())
    return AccessPattern(n, transactions, transactions * seg_bytes)


def sequential_transactions(
    count: int, element_bytes: int, spec: DeviceSpec
) -> AccessPattern:
    """Transactions for a dense sequential sweep of ``count`` elements.

    Closed form of :func:`coalesced_transactions` on ``arange(count)``:
    every warp's lanes fall into ``ceil(warp_bytes / segment)`` segments.
    Used for status-array scans and frontier-queue reads, which Enterprise
    deliberately keeps sequential.
    """
    if count <= 0:
        return EMPTY_ACCESS
    key = ("seq", accel.instance_token(spec), count, element_bytes)
    cached = _access_table.get(key)
    if cached is not None:
        return cached
    seg_bytes = spec.max_transaction_bytes
    transactions = int(-(-count * element_bytes // seg_bytes))  # ceil
    return _access_table.put(
        key, AccessPattern(count, transactions, transactions * seg_bytes))


def random_transactions(
    count: int, element_bytes: int, spec: DeviceSpec
) -> AccessPattern:
    """Transactions for ``count`` uncorrelated random accesses.

    Worst case: every lane touches its own segment, so each request is its
    own transaction — the "3% of sequential bandwidth" regime.  Scattered
    loads are served at the *minimum* transaction size (32 B on Kepler,
    §2.2's "32, 64 or 128 bytes based on the type"), which is still 4-32x
    the useful payload.
    """
    if count <= 0:
        return EMPTY_ACCESS
    key = ("rnd", accel.instance_token(spec), count, element_bytes)
    cached = _access_table.get(key)
    if cached is not None:
        return cached
    seg_bytes = max(min(spec.transaction_bytes), element_bytes)
    return _access_table.put(
        key, AccessPattern(count, count, count * seg_bytes))


def strided_transactions(
    count: int, stride_elements: int, element_bytes: int, spec: DeviceSpec
) -> AccessPattern:
    """Transactions for a constant-stride sweep (the explosion-level scan).

    §4.1: the direction-switching workflow assigns each thread a contiguous
    *block* of the status array, so simultaneous lanes are ``stride``
    elements apart — "this approach would incur strided memory access
    during the scan", costing ~2.4x more than the interleaved scan.
    """
    if count <= 0:
        return EMPTY_ACCESS
    key = ("str", accel.instance_token(spec), count, stride_elements,
           element_bytes)
    cached = _access_table.get(key)
    if cached is not None:
        return cached
    return _access_table.put(
        key, _strided_build(count, stride_elements, element_bytes, spec))


def _strided_build(
    count: int, stride_elements: int, element_bytes: int, spec: DeviceSpec
) -> AccessPattern:
    seg_bytes = spec.max_transaction_bytes
    stride_bytes = max(1, stride_elements * element_bytes)
    if stride_bytes >= seg_bytes:
        return random_transactions(count, element_bytes, spec)
    # Lanes of one warp span warp*stride bytes -> that many segments.
    warp_span = spec.warp_size * stride_bytes
    per_warp = min(spec.warp_size, -(-warp_span // seg_bytes))
    warps = -(-count // spec.warp_size)
    transactions = warps * per_warp
    return AccessPattern(count, int(transactions), int(transactions) * seg_bytes)


def bytes_to_time_s(bytes_moved: int, spec: DeviceSpec) -> float:
    """Lower-bound transfer time at the device's peak DRAM bandwidth."""
    return bytes_moved / (spec.peak_bandwidth_gbps * 1e9)
