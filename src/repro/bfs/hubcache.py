"""HC — hub-vertex cache policy (§4.3, Figs. 11 & 12).

The shared-memory hash table itself lives in
:mod:`repro.gpu.sharedmem`; this module implements Enterprise's *policy*
around it:

1. "during the frontier queue generation, Enterprise caches the vertex
   IDs of those [that] have just been visited at the preceding level and
   also with high out-degrees" — :meth:`HubCachePolicy.refresh`;
2. "during the frontier identification, Enterprise will load the
   frontier's neighbors and check whether the vertex ID of any neighbor is
   cached.  If so, the inspection will terminate early with the cached
   neighbor identified as the parent" — the mask handed to
   :func:`repro.bfs.common.bottom_up_inspect`;
3. the cache is only enabled "for bottom-up levels, when expansion and
   inspection center around hub vertices" (§6) — "caching hub vertices
   has limited benefit for top-down BFS".

The policy tracks the per-level global-memory transactions a perfect
status-array lookup would have issued versus what the cache left over,
which is exactly Fig. 12's "global memory accesses reduced by hub cache".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import accel
from ..gpu.sharedmem import HubCache, cache_capacity
from ..gpu.specs import DeviceSpec
from ..graph.csr import CSRGraph
from ..graph.stats import hub_threshold

__all__ = ["HubCachePolicy"]

# (graph, spec, shared split) -> (capacity, tau).  Both derivations are
# pure functions of immutable inputs (occupancy arithmetic and a degree
# partition) that every traversal of the same graph repeats verbatim.
_setup_table = accel.intern_table("hubcache_setup")


@dataclass
class LevelCacheStats:
    level: int
    cached: int
    hits: int
    frontiers: int
    lookups_without_cache: int
    lookups_with_cache: int

    @property
    def savings(self) -> float:
        """Fraction of global status lookups removed (Fig. 12)."""
        if self.lookups_without_cache == 0:
            return 0.0
        return 1.0 - self.lookups_with_cache / self.lookups_without_cache


class HubCachePolicy:
    """Per-traversal hub-cache manager.

    Parameters
    ----------
    graph:
        The traversal graph; τ is derived from its degree distribution so
        the hub population matches the cache capacity (§4.3: "we need to
        carefully balance the number of hub vertices cached and the
        occupancy").
    spec:
        Device whose shared memory hosts the cache.
    shared_config_bytes:
        Runtime shared-memory split; Enterprise uses the 48 KB setting.
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: DeviceSpec,
        *,
        shared_config_bytes: int | None = None,
        ctas_per_sm: int = 8,
    ):
        key = (accel.instance_token(graph), accel.instance_token(spec),
               shared_config_bytes, ctas_per_sm)
        memo = _setup_table.get(key)
        if memo is None:
            capacity = cache_capacity(
                spec, shared_config_bytes=shared_config_bytes,
                ctas_per_sm=ctas_per_sm)
            memo = _setup_table.put(
                key, (capacity, hub_threshold(graph, capacity)))
        capacity, tau = memo
        self.cache = HubCache(capacity)
        self.tau = tau
        self._degrees = graph.out_degrees
        self._cached_mask = np.zeros(graph.num_vertices, dtype=bool)
        self.per_level: list[LevelCacheStats] = []

    @property
    def capacity(self) -> int:
        return self.cache.capacity

    def refresh(self, just_visited: np.ndarray, level: int) -> int:
        """Re-populate the cache with last level's high-degree vertices.

        "As GPU shared memory is limited, Enterprise updates the cache at
        each level with those who most likely will be visited in the
        following level" (§6) — i.e. replace, don't accumulate.
        """
        just_visited = np.asarray(just_visited, dtype=np.int64)
        hubs = just_visited[self._degrees[just_visited] > self.tau]
        if hubs.size > self.capacity:
            # Keep the highest-degree hubs when over budget.
            order = np.argsort(self._degrees[hubs])[::-1]
            hubs = hubs[order[: self.capacity]]
        # The effective cached set is what survives hash collisions.
        survived = self.cache.refill(hubs)
        self._cached_mask[:] = False
        if survived.size:
            self._cached_mask[survived] = True
        self._last_cached = int(np.count_nonzero(self._cached_mask))
        return self._last_cached

    @property
    def cached_mask(self) -> np.ndarray:
        """Boolean mask over vertex IDs currently held by the cache."""
        return self._cached_mask

    def record_level(
        self,
        level: int,
        frontiers: int,
        hits: int,
        lookups_without_cache: int,
        lookups_with_cache: int,
    ) -> LevelCacheStats:
        stats = LevelCacheStats(
            level=level,
            cached=getattr(self, "_last_cached", 0),
            hits=hits,
            frontiers=frontiers,
            lookups_without_cache=lookups_without_cache,
            lookups_with_cache=lookups_with_cache,
        )
        self.per_level.append(stats)
        return stats

    def total_savings(self) -> float:
        """Aggregate Fig. 12 number for the whole traversal."""
        without = sum(s.lookups_without_cache for s in self.per_level)
        with_ = sum(s.lookups_with_cache for s in self.per_level)
        if without == 0:
            return 0.0
        return 1.0 - with_ / without
