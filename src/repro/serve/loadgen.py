"""Closed-loop load generator and serving benchmark.

Builds a synthetic query trace shaped like real social-graph traffic —
Zipf-distributed sources over the degree ranking (hot hubs get asked
about most), a distance/reachability/tree mix, Poisson arrivals — and
replays it against two engines:

* **batched** — the full stack: MS-BFS coalescing, landmark cache,
  multi-device dispatch;
* **baseline** — one traversal per query (wave width 1, cache off), the
  pre-serving behaviour where every request pays a full sweep.

Both runs answer every query exactly, so the report's speedup is an
apples-to-apples throughput ratio; ``check=True`` additionally asserts
the answers are bit-identical query by query (the differential suite
runs the same comparison against a CPU reference).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..observ.snapshot import bench_snapshot
from ..observ.tracer import Tracer, tracing
from .engine import ServeConfig, ServeEngine, ServeStats, \
    format_latency_ms
from .query import Query, QueryKind, QueryResult

__all__ = ["TraceConfig", "synthetic_trace", "BenchReport",
           "run_serve_bench", "replay"]


@dataclass(frozen=True)
class TraceConfig:
    """Shape of the synthetic query stream."""

    num_queries: int = 1024
    #: (distance, reachability, sptree) probabilities.
    mix: tuple[float, float, float] = (0.70, 0.25, 0.05)
    #: Zipf exponent over the degree-ranked vertices (higher = hotter
    #: hubs).
    zipf_a: float = 1.3
    #: Mean arrivals per simulated millisecond (Poisson process).  The
    #: default keeps the batched engine service-limited on the scale-14
    #: acceptance graph, so the reported speedup measures capacity, not
    #: the arrival rate.
    rate_per_ms: float = 512.0
    seed: int = 7
    #: Number of distinct priority classes assigned uniformly at random
    #: (1 = everything priority 0, the pre-shedding behaviour).
    priority_levels: int = 1

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ValueError("need at least one query")
        if abs(sum(self.mix) - 1.0) > 1e-9 or min(self.mix) < 0:
            raise ValueError("mix must be non-negative and sum to 1")
        if self.zipf_a <= 1.0:
            raise ValueError("zipf exponent must exceed 1")
        if self.rate_per_ms <= 0:
            raise ValueError("arrival rate must be positive")
        if self.priority_levels < 1:
            raise ValueError("need at least one priority level")


def synthetic_trace(graph: CSRGraph,
                    config: TraceConfig | None = None) -> list[Query]:
    """Generate a deterministic arrival-stamped query trace."""
    config = config or TraceConfig()
    rng = np.random.default_rng(config.seed)
    n = graph.num_vertices
    by_degree = np.argsort(-graph.out_degrees, kind="stable")

    ranks = np.minimum(rng.zipf(config.zipf_a, config.num_queries), n) - 1
    sources = by_degree[ranks]
    targets = rng.integers(0, n, size=config.num_queries)
    kinds = rng.choice(len(config.mix), size=config.num_queries,
                       p=np.array(config.mix))
    arrivals = np.cumsum(rng.exponential(1.0 / config.rate_per_ms,
                                         size=config.num_queries))
    priorities = rng.integers(0, config.priority_levels,
                              size=config.num_queries)
    kind_table = (QueryKind.DISTANCE, QueryKind.REACHABILITY,
                  QueryKind.SPTREE)
    return [
        Query(kind=kind_table[int(kinds[i])],
              source=int(sources[i]),
              target=int(targets[i]) if kind_table[int(kinds[i])]
              is not QueryKind.SPTREE else -1,
              arrival_ms=float(arrivals[i]),
              qid=i,
              priority=int(priorities[i]))
        for i in range(config.num_queries)
    ]


def replay(engine: ServeEngine, trace: list[Query]) -> list[QueryResult]:
    """Feed a trace through an engine in arrival order and drain it."""
    for query in sorted(trace, key=lambda q: q.arrival_ms):
        engine.submit(query)
    return engine.drain()


# ----------------------------------------------------------------------
# Benchmark
# ----------------------------------------------------------------------

@dataclass
class BenchReport:
    """Batched-vs-baseline serving comparison."""

    graph_name: str
    num_queries: int
    batched: ServeStats
    baseline: ServeStats
    answers_checked: bool = False

    @property
    def speedup(self) -> float:
        """Throughput ratio batched / baseline."""
        if self.baseline.qps <= 0:
            return 0.0
        return self.batched.qps / self.baseline.qps

    def rows(self) -> list[dict]:
        """Two-row table (one per mode) plus the speedup column."""
        rows = []
        for mode, stats in (("batched", self.batched),
                            ("baseline", self.baseline)):
            row: dict = {"mode": mode, "graph": self.graph_name}
            row.update(stats.rows())
            rows.append(row)
        rows[0]["speedup"] = round(self.speedup, 2)
        rows[1]["speedup"] = 1.0
        return rows

    def snapshot(self) -> dict:
        """Versioned snapshot for the regression gate
        (``diff_snapshots``)."""
        return bench_snapshot("serve_bench", self.rows())

    def summary(self) -> str:
        b, s = self.batched, self.baseline

        def pcts(stats: ServeStats) -> str:
            return "  ".join(
                f"p{q:g} "
                f"{format_latency_ms(stats.latency_percentile(q)):>9s} ms"
                for q in (50, 95, 99))

        lines = [
            f"serve bench on {self.graph_name}: "
            f"{self.num_queries} queries",
            f"  batched : {b.qps:12.1f} q/s  {pcts(b)}",
            f"  baseline: {s.qps:12.1f} q/s  {pcts(s)}",
            f"  speedup {self.speedup:.1f}x — "
            f"{b.dispatch.waves} waves (mean width "
            f"{b.dispatch.mean_wave_width:.1f}), "
            f"{b.coalesced_queries} coalesced, "
            f"cache hit rate {b.cache.hit_rate:.1%}",
        ]
        if self.answers_checked:
            lines.append("  answers: batched == one-BFS-per-query "
                         "(bit-identical)")
        return "\n".join(lines)


def _answers_equal(a: QueryResult, b: QueryResult) -> bool:
    if a.query.qid != b.query.qid:
        return False
    if a.query.kind is QueryKind.SPTREE:
        return (a.levels is not None and b.levels is not None
                and np.array_equal(a.levels, b.levels))
    return a.distance == b.distance and a.reachable == b.reachable


def run_serve_bench(
    graph: CSRGraph,
    trace: list[Query] | None = None,
    *,
    trace_config: TraceConfig | None = None,
    config: ServeConfig | None = None,
    check: bool = False,
    fault_plan=None,
    tracer: Tracer | None = None,
) -> BenchReport:
    """Replay one trace through the batched and baseline engines.

    ``check=True`` compares every query's answer between the two modes
    (SPTREE by full level array — parents may legally differ between
    valid BFS trees) and raises ``AssertionError`` on any mismatch.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) applies to
    the *batched* engine only: the baseline stays a clean reference, so
    a faulted run is checked against fault-free ground truth.

    ``tracer`` (a :class:`~repro.observ.tracer.Tracer`) is installed
    around the *batched* run only, so the exported timeline shows the
    full stack without the baseline's width-1 sweeps drowning it.
    """
    if trace is None:
        trace = synthetic_trace(graph, trace_config)
    config = config or ServeConfig()
    baseline_config = ServeConfig(
        batch_sources=1, deadline_ms=0.0,
        max_pending=config.max_pending, timeout_ms=None,
        max_retries=0, num_gpus=config.num_gpus, cache=False)

    with tracing(tracer) if tracer is not None else nullcontext():
        batched_engine = ServeEngine(graph, config, fault_plan=fault_plan)
        batched = replay(batched_engine, trace)
    baseline_engine = ServeEngine(graph, baseline_config)
    baseline = replay(baseline_engine, trace)

    if check:
        by_qid = {r.query.qid: r for r in baseline}
        for r in batched:
            if not r.ok:
                continue
            other = by_qid[r.query.qid]
            if not _answers_equal(r, other):
                raise AssertionError(
                    f"answer mismatch for query {r.query}: "
                    f"batched ({r.distance}, {r.reachable}) vs "
                    f"baseline ({other.distance}, {other.reachable})")

    return BenchReport(
        graph_name=graph.name,
        num_queries=len(trace),
        batched=batched_engine.stats(),
        baseline=baseline_engine.stats(),
        answers_checked=check,
    )
