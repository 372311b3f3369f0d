"""Landmark + hub-row answer cache for the serving layer.

Two tiers, both exact (the cache never approximates):

* **Row tier** — full level arrays of recently served sources, admitted
  with a *hub-aware* policy: a source's row enters the cache only if the
  source is a hub (out-degree at or above the admission threshold — the
  §4.3 hub-vertex observation lifted to the serving layer: hubs are the
  vertices most likely to be asked about again) or it has been requested
  :attr:`CacheConfig.admit_after` times.  LRU-evicted at
  :attr:`CacheConfig.capacity` rows.
* **Landmark tier** — a :class:`~repro.apps.landmarks.LandmarkOracle`
  built once at engine start (its MS-BFS build cost is the engine's
  warm-up).  A distance query is served here only when the triangle
  bounds *pin* the answer (lower == upper); a reachability query when a
  landmark proves the answer soundly (a connecting path exists, or — on
  undirected graphs — one endpoint shares a landmark's component and the
  other does not).

Anything the two tiers cannot answer exactly falls through to a wave.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..apps.landmarks import LandmarkOracle, UNREACHABLE_DISTANCE, \
    build_oracle
from ..bfs.common import UNVISITED
from ..graph.csr import CSRGraph
from ..observ.registry import get_registry
from .query import Query, QueryKind, QueryResult, UNREACHABLE, \
    answer_from_levels

__all__ = ["CacheConfig", "CacheStats", "LandmarkCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Sizing and admission policy for :class:`LandmarkCache`."""

    num_landmarks: int = 16
    #: Max cached level rows.
    capacity: int = 64
    #: Out-degree at or above which a source is admitted immediately
    #: (None: the 99th percentile of out-degrees, the hub knee).
    hub_degree: int | None = None
    #: Non-hub sources are admitted after this many requests.
    admit_after: int = 2

    def __post_init__(self) -> None:
        if self.num_landmarks < 1:
            raise ValueError("need at least one landmark")
        if self.capacity < 0:
            raise ValueError("capacity cannot be negative")
        if self.admit_after < 1:
            raise ValueError("admit_after must be at least 1")


@dataclass
class CacheStats:
    """Hit/miss/admission accounting."""

    row_hits: int = 0
    landmark_hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0
    admission_refusals: int = 0

    @property
    def hits(self) -> int:
        return self.row_hits + self.landmark_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class LandmarkCache:
    """Exact two-tier answer cache (see module docstring)."""

    def __init__(self, graph: CSRGraph, config: CacheConfig | None = None,
                 *, device=None):
        self.graph = graph
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        k = min(self.config.num_landmarks, graph.num_vertices)
        self.oracle: LandmarkOracle = build_oracle(graph, k, device=device)
        if self.config.hub_degree is not None:
            self._hub_degree = int(self.config.hub_degree)
        else:
            degs = graph.out_degrees
            self._hub_degree = max(int(np.quantile(degs, 0.99)), 1) \
                if degs.size else 1
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._request_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def build_time_ms(self) -> float:
        """Simulated cost of the landmark MS-BFS precomputation."""
        return self.oracle.build_time_ms

    @property
    def hub_degree(self) -> int:
        return self._hub_degree

    def __contains__(self, source: int) -> bool:
        return source in self._rows

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, query: Query, now_ms: float) -> QueryResult | None:
        """Exact answer from cache, or None (a miss) when a wave is
        needed."""
        self._request_counts[query.source] = \
            self._request_counts.get(query.source, 0) + 1
        row = self._rows.get(query.source)
        if row is not None:
            self._rows.move_to_end(query.source)
            self.stats.row_hits += 1
            get_registry().counter("repro.serve.cache_lookups",
                                   tier="row").inc()
            return answer_from_levels(query, row, graph=self.graph,
                                      served_by="cache:row",
                                      completed_ms=now_ms)
        if query.kind is not QueryKind.SPTREE:
            answer = self._landmark_answer(query, now_ms)
            if answer is not None:
                self.stats.landmark_hits += 1
                get_registry().counter("repro.serve.cache_lookups",
                                       tier="landmark").inc()
                return answer
        self.stats.misses += 1
        get_registry().counter("repro.serve.cache_lookups",
                               tier="miss").inc()
        return None

    def _landmark_answer(self, query: Query,
                         now_ms: float) -> QueryResult | None:
        u, v = query.source, query.target
        if u == v:
            return QueryResult(query=query, reachable=True,
                               distance=0 if query.kind is
                               QueryKind.DISTANCE else None,
                               served_by="cache:landmark",
                               completed_ms=now_ms)
        lo, hi = self.oracle.bounds(u, v)
        reachable = self.oracle.reachability(u, v)
        if query.kind is QueryKind.REACHABILITY:
            if reachable is None:
                return None
            return QueryResult(query=query, reachable=reachable,
                               served_by="cache:landmark",
                               completed_ms=now_ms)
        # DISTANCE: serve only when the bounds pin the exact value, or a
        # landmark proves unreachability.
        if reachable is False:
            return QueryResult(query=query, distance=UNREACHABLE,
                               reachable=False,
                               served_by="cache:landmark",
                               completed_ms=now_ms)
        # The finite guard is belt-and-braces on disconnected graphs: a
        # pinned bound must be a real path length, never the sentinel
        # (lo == hi == UNREACHABLE_DISTANCE cannot encode a distance).
        if reachable and lo == hi and hi < UNREACHABLE_DISTANCE:
            return QueryResult(query=query, distance=int(hi),
                               reachable=True,
                               served_by="cache:landmark",
                               completed_ms=now_ms)
        return None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, source: int, levels: np.ndarray) -> bool:
        """Offer a freshly computed level row; hub-aware admission."""
        if self.config.capacity == 0:
            return False
        if source in self._rows:
            self._rows[source] = levels
            self._rows.move_to_end(source)
            return True
        is_hub = int(self.graph.out_degrees[source]) >= self._hub_degree
        popular = self._request_counts.get(source, 0) >= \
            self.config.admit_after
        if not (is_hub or popular):
            self.stats.admission_refusals += 1
            return False
        while len(self._rows) >= self.config.capacity:
            self._rows.popitem(last=False)
            self.stats.evictions += 1
        self._rows[source] = levels
        self.stats.admissions += 1
        return True
