"""Software-managed shared memory and the hub-vertex hash cache.

§4.3: "Enterprise selectively caches the hub vertices in GPU shared
memory ... We use a hash function to figure out which index to store each
vertex ID, that is, HC[hash(ID)] = ID."  The capacity budget comes from
occupancy arithmetic in the same section: with a 256x256 grid at full
occupancy, 8 CTAs share one SMX, leaving each CTA ~6 KB of a 48 KB
configuration — "a cache holding around 1,000 hub vertices".

The cache is a direct-mapped, collision-overwrite hash table exactly as in
the paper (whoever hashes last wins; a miss is always safe because the
table stores the IDs themselves and lookups compare for equality).  A
refill is vectorised over a NumPy array of vertex IDs.
"""

from __future__ import annotations

import numpy as np

from .specs import DeviceSpec

__all__ = ["SharedMemoryError", "cache_capacity", "HubCache"]

#: Bytes of shared memory one cached vertex ID occupies (uint64, §5: "all
#: the data is represented by uint64 type").
ENTRY_BYTES = 8

#: Empty-slot sentinel (no valid vertex ID is negative).
EMPTY = np.int64(-1)


class SharedMemoryError(ValueError):
    """Raised when a kernel over-allocates its shared-memory budget."""


def cache_capacity(
    spec: DeviceSpec,
    *,
    shared_config_bytes: int | None = None,
    ctas_per_sm: int | None = None,
) -> int:
    """Hub-cache slots available to one CTA at full occupancy.

    Follows §4.3's arithmetic: the runtime-selected shared-memory
    configuration is split across the CTAs resident on one SMX.  When
    ``ctas_per_sm`` is not given it comes from the occupancy calculator
    for the paper's 256-thread expansion blocks (8 CTAs on a K40 —
    "each CTA only has 6 KB shared memory").
    """
    shared = shared_config_bytes
    if shared is None:
        shared = max(spec.shared_mem_configs_bytes)
    if shared > spec.shared_mem_per_sm_bytes:
        raise SharedMemoryError(
            f"requested {shared} B exceeds the {spec.shared_mem_per_sm_bytes} B "
            f"of shared memory on one {spec.name} SMX"
        )
    if ctas_per_sm is None:
        from .occupancy import KernelResources, occupancy
        ctas_per_sm = max(1, occupancy(
            KernelResources(threads_per_block=256, registers_per_thread=32),
            spec).blocks_per_sm)
    if ctas_per_sm <= 0:
        raise SharedMemoryError("at least one CTA must be resident")
    return (shared // ctas_per_sm) // ENTRY_BYTES


class HubCache:
    """Direct-mapped shared-memory cache of recently visited hub vertices.

    Parameters
    ----------
    capacity:
        Number of ID slots; use :func:`cache_capacity` for the
        device-derived figure.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise SharedMemoryError("hub cache needs a positive capacity")
        self.capacity = int(capacity)
        self._slots = np.full(self.capacity, EMPTY, dtype=np.int64)

    def refill(self, ids: np.ndarray) -> np.ndarray:
        """Replace the cache contents with ``ids`` and return the ids
        that survived the hash collisions.

        Each ID is stored at ``HC[hash(ID)] = ID`` in order, so a later
        ID overwrites an earlier one that hashes to the same slot (the
        paper's store); a lookup compares the stored ID for equality, so
        a collision can only lose an entry, never alias one.
        """
        self._slots.fill(EMPTY)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return ids
        if ids.min() < 0:
            raise ValueError("vertex IDs must be non-negative")
        idx = ids % self.capacity
        self._slots[idx] = ids
        return ids[self._slots[idx] == ids]
