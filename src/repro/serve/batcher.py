"""Adaptive query batcher: coalesce requests into MS-BFS waves.

The serving analogue of the paper's bitwise status array (§4.1): every
mask bit is a *query source*, so up to 64 distinct sources ride one
traversal.  The batcher groups pending queries by source (queries that
share a source occupy one lane) and flushes a wave when either

* **width** — :attr:`ServeConfig.batch_sources` distinct sources are
  pending (the mask is full), or
* **deadline** — the oldest pending query has waited
  :attr:`ServeConfig.deadline_ms` of simulated time (bounded latency
  beats a full mask under light load).  ``0`` means *no batching
  delay*: a query's deadline is due the instant it arrives, so every
  query flushes immediately (as its own wave unless others share the
  exact arrival time).

A bounded pending-queue provides backpressure: :meth:`AdaptiveBatcher.add`
refuses work beyond :attr:`ServeConfig.max_pending` queries instead of
growing without bound — the caller surfaces the rejection to the client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .query import Query

if TYPE_CHECKING:
    from .engine import ServeConfig

__all__ = ["Wave", "AdaptiveBatcher"]


@dataclass
class Wave:
    """One flushed batch: distinct sources plus the queries they answer."""

    wave_id: int
    sources: np.ndarray
    queries: list[Query]
    created_ms: float
    #: Enqueue time of the oldest query in the wave — ``created_ms -
    #: oldest_ms`` is the wave's formation wait, the span the engine
    #: traces on the batcher track.
    oldest_ms: float = 0.0

    @property
    def width(self) -> int:
        return int(self.sources.size)

    @property
    def formation_ms(self) -> float:
        """Simulated time the wave spent forming (oldest enqueue to
        flush)."""
        return max(self.created_ms - self.oldest_ms, 0.0)

    @property
    def coalesced(self) -> int:
        """Queries beyond one-per-source — the coalescing win."""
        return len(self.queries) - self.width


class AdaptiveBatcher:
    """Source-coalescing accumulator with width/deadline flushing."""

    def __init__(self, config: ServeConfig):
        self.config = config
        #: source -> queries, insertion-ordered by first arrival.
        self._by_source: dict[int, list[Query]] = {}
        #: source -> time its first pending query was queued.
        self._first_ms: dict[int, float] = {}
        self._pending = 0
        self._next_wave_id = 0

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def add(self, query: Query, now_ms: float) -> bool:
        """Queue ``query``; False (backpressure) when the queue is full."""
        if self._pending >= self.config.max_pending:
            return False
        self._by_source.setdefault(query.source, []).append(query)
        self._first_ms.setdefault(query.source, now_ms)
        self._pending += 1
        return True

    def shed_lowest(self, below_priority: int) -> Query | None:
        """Remove and return the lowest-priority pending query strictly
        below ``below_priority`` (graceful degradation under overload).

        Ties break toward the most recently queued query (oldest work
        keeps its place in line).  Returns None when nothing pending is
        strictly lower — the caller sheds the incoming query instead.
        """
        victim_source = None
        victim_pos = -1
        victim_key: tuple[int, int] | None = None
        order = 0
        for source, queries in self._by_source.items():
            for pos, query in enumerate(queries):
                if query.priority >= below_priority:
                    order += 1
                    continue
                key = (query.priority, -order)
                if victim_key is None or key < victim_key:
                    victim_key = key
                    victim_source = source
                    victim_pos = pos
                order += 1
        if victim_source is None:
            return None
        queries = self._by_source[victim_source]
        victim = queries.pop(victim_pos)
        if not queries:
            del self._by_source[victim_source]
            del self._first_ms[victim_source]
        self._pending -= 1
        return victim

    # ------------------------------------------------------------------
    # Flush decisions
    # ------------------------------------------------------------------
    @property
    def pending_queries(self) -> int:
        return self._pending

    @property
    def pending_sources(self) -> int:
        return len(self._by_source)

    def wave_ready(self) -> bool:
        """A full-width wave is waiting."""
        return len(self._by_source) >= self.config.batch_sources

    def next_deadline(self) -> float | None:
        """Simulated time at which the oldest pending query must flush."""
        if not self._first_ms:
            return None
        return min(self._first_ms.values()) + self.config.deadline_ms

    def due(self, now_ms: float) -> bool:
        deadline = self.next_deadline()
        return deadline is not None and now_ms >= deadline

    # ------------------------------------------------------------------
    # Wave extraction
    # ------------------------------------------------------------------
    def pop_wave(self, now_ms: float) -> Wave | None:
        """Remove up to ``batch_sources`` oldest sources as one wave."""
        if not self._by_source:
            return None
        width = min(len(self._by_source), self.config.batch_sources)
        picked = list(self._by_source)[:width]
        oldest_ms = min(self._first_ms[s] for s in picked)
        queries: list[Query] = []
        for s in picked:
            queries.extend(self._by_source.pop(s))
            del self._first_ms[s]
        self._pending -= len(queries)
        wave = Wave(
            wave_id=self._next_wave_id,
            sources=np.array(picked, dtype=np.int64),
            queries=queries,
            created_ms=now_ms,
            oldest_ms=oldest_ms,
        )
        self._next_wave_id += 1
        return wave
