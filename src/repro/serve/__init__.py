"""Query-serving subsystem: batched BFS answers under load.

The ROADMAP's "serve heavy traffic" direction, built from pieces the
library already had: distance / reachability / shortest-path-tree
requests (:mod:`~repro.serve.query`) are coalesced by an adaptive
batcher (:mod:`~repro.serve.batcher`) into up-to-64-source MS-BFS waves
(the §4.1 bitwise status array, via :mod:`repro.bfs.msbfs`), screened by
an exact landmark/hub-row cache (:mod:`~repro.serve.cache`, backed by
:mod:`repro.apps.landmarks`), and dispatched over a replicated
:class:`~repro.gpu.multi.DeviceGroup` with per-wave timeouts and
bounded split-retries (:mod:`~repro.serve.dispatcher`).  The
:mod:`~repro.serve.loadgen` closed-loop harness replays synthetic
traces and reports throughput plus p50/p95/p99 latency.

Query-scoped observability rides the same path: every admitted query is
stamped with a trace id and leaves Chrome-trace flow events, every
result carries an exact phase decomposition of its latency
(:mod:`~repro.serve.attribution`), and a configured SLO is monitored
with burn-rate alerts; ``python -m repro report --serve`` renders it
all (:mod:`~repro.serve.report`).

CLI: ``python -m repro serve --bench`` (see ``docs/TUTORIAL.md`` §10).
"""

from .attribution import PHASES, PhaseBreakdown, PhaseRow
from .batcher import AdaptiveBatcher, Wave
from .cache import CacheStats, LandmarkCache
from .dispatcher import (
    DispatchStats,
    LocalityRouter,
    WaveDispatcher,
    WaveOutcome,
)
from .engine import ServeConfig, ServeEngine, ServeStats, \
    format_latency_ms
from .loadgen import (
    BenchReport,
    TraceConfig,
    replay,
    run_serve_bench,
    synthetic_trace,
)
from .query import (
    Query,
    QueryKind,
    QueryResult,
    UNREACHABLE,
    answer_from_levels,
    derive_parents,
    distance_query,
    reachability_query,
    sptree_query,
)
from .report import ServeReport
from .resilience import DeviceHealth

__all__ = [
    "AdaptiveBatcher",
    "BenchReport",
    "CacheStats",
    "DeviceHealth",
    "DispatchStats",
    "LandmarkCache",
    "LocalityRouter",
    "PHASES",
    "PhaseBreakdown",
    "PhaseRow",
    "Query",
    "QueryKind",
    "QueryResult",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ServeStats",
    "TraceConfig",
    "UNREACHABLE",
    "Wave",
    "WaveDispatcher",
    "WaveOutcome",
    "answer_from_levels",
    "derive_parents",
    "distance_query",
    "format_latency_ms",
    "reachability_query",
    "replay",
    "run_serve_bench",
    "sptree_query",
    "synthetic_trace",
]
