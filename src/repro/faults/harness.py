"""Chaos differential harness: exact answers under every fault plan.

The serving stack's core promise is that faults cost *latency*, never
*correctness*: MS-BFS is deterministic, so no straggler, failover, hedge
or device loss may change a query's answer.  This harness turns that
promise into a gate — one clean single-query-per-sweep run establishes
ground truth, then the full batched stack replays the same trace under a
matrix of fault plans and every answer is compared query by query
(SPTREE by full level array; parents may legally differ between valid
BFS trees).

``python -m repro chaos`` drives it from the CLI, and the chaos-smoke CI
job fails on any non-exact answer or metric-snapshot regression.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..observ.monitor import LiveMonitor, MonitorConfig
from ..observ.snapshot import bench_snapshot
from ..serve.engine import ServeConfig, ServeEngine, ServeStats
from ..serve.loadgen import TraceConfig, baseline_config, replay, \
    same_answer, synthetic_trace
from .plan import FaultPlan, PROFILES, profile

__all__ = ["ChaosCase", "ChaosReport", "run_chaos_matrix"]


@dataclass
class ChaosCase:
    """One fault plan's verdict against clean ground truth."""

    plan: FaultPlan
    stats: ServeStats
    #: Queries whose answers were compared (shed/rejected ones carry no
    #: answer and are excluded — shedding is a *visible* degradation,
    #: not a wrong answer).
    compared: int
    mismatches: int
    #: Live monitor that watched this plan's run (``monitor=True``),
    #: calibrated against the fault-free reference run; ``None`` when
    #: monitoring was off.
    monitor: LiveMonitor | None = None

    @property
    def exact(self) -> bool:
        return self.mismatches == 0

    @property
    def anomalies(self) -> int:
        return len(self.monitor.anomalies()) if self.monitor else 0

    def row(self) -> dict:
        row: dict = {"plan": self.plan.name}
        row.update(self.stats.rows())
        row["compared"] = self.compared
        row["mismatches"] = self.mismatches
        # int, not bool: bench_snapshot drops bool-valued columns.
        row["exact"] = int(self.exact)
        if self.monitor is not None:
            row["anomalies"] = self.anomalies
        return row


@dataclass
class ChaosReport:
    """Fault-matrix outcome: per-plan cases over one shared trace."""

    graph_name: str
    num_queries: int
    cases: list[ChaosCase]

    @property
    def ok(self) -> bool:
        return all(case.exact for case in self.cases)

    def rows(self) -> list[dict]:
        return [case.row() for case in self.cases]

    def snapshot(self) -> dict:
        """Versioned snapshot for the regression gate."""
        return bench_snapshot("chaos_matrix", self.rows())

    def summary(self) -> str:
        lines = [f"chaos matrix on {self.graph_name}: "
                 f"{self.num_queries} queries x {len(self.cases)} plans"]
        for case in self.cases:
            s = case.stats
            verdict = "exact" if case.exact else \
                f"{case.mismatches} MISMATCHES"
            lines.append(
                f"  {case.plan.name:<14} {verdict:<14} "
                f"served {s.served:5d}  shed {s.shed:3d}  "
                f"timeouts {s.dispatch.timeouts:3d}  "
                f"failovers {s.dispatch.failovers:3d}  "
                f"hedges {s.dispatch.hedges:3d}  "
                f"lost {s.dispatch.devices_lost}  "
                f"makespan {s.makespan_ms:9.3f} ms")
            if case.monitor is not None:
                lines.append(f"    anomalies: {case.anomalies}")
                lines.extend("      " + a.line()
                             for a in case.monitor.anomalies())
            if s.slo is not None:
                lines.append(
                    f"    slo: {s.slo.bad}/{s.slo.total} bad "
                    f"(budget consumed {s.slo.budget_consumed:.1%}), "
                    f"{len(s.slo.alerts)} burn-rate alert(s)")
                lines.extend("      " + alert.line()
                             for alert in s.slo.alerts)
        lines.append("  all answers exact under every plan" if self.ok
                     else "  FAULT MATRIX FAILED: wrong answers above")
        return "\n".join(lines)


def run_chaos_matrix(
    graph: CSRGraph,
    plans: list[FaultPlan] | None = None,
    *,
    trace_config: TraceConfig | None = None,
    config: ServeConfig | None = None,
    monitor: bool = False,
    monitor_config: MonitorConfig | None = None,
) -> ChaosReport:
    """Verify exact serving answers across a matrix of fault plans.

    One clean run (width-1 waves, cache off, no faults) computes ground
    truth for the trace; each plan then runs the full batched stack —
    cache, coalescing, timeouts, failover, hedging — on a faulted device
    group, and every answered query is compared against truth.

    With ``monitor=True`` every plan's run is watched live: a fault-free
    run of the *batched* config first calibrates reference bands, so a
    fault-free plan replays inside them (zero anomalies by construction)
    while fault profiles produce a deterministic anomaly timeline on
    each :attr:`ChaosCase.monitor`.
    """
    if plans is None:
        plans = [profile(name) for name in PROFILES]
    trace = synthetic_trace(graph, trace_config)
    config = config or ServeConfig()

    truth = {r.query.qid: r
             for r in replay(ServeEngine(graph, baseline_config(config)),
                             trace)
             if r.ok}

    reference: LiveMonitor | None = None
    if monitor:
        if monitor_config is None:
            monitor_config = MonitorConfig.for_trace(trace)
        reference = LiveMonitor(monitor_config)
        replay(ServeEngine(graph, config, fault_plan=profile("none"),
                           monitor=reference), trace)

    cases: list[ChaosCase] = []
    for plan in plans:
        live: LiveMonitor | None = None
        if reference is not None:
            live = LiveMonitor(monitor_config)
            live.calibrate(reference)
        engine = ServeEngine(graph, config, fault_plan=plan,
                             monitor=live)
        results = replay(engine, trace)
        compared = 0
        mismatches = 0
        for result in results:
            if not result.ok or result.query.qid not in truth:
                continue
            compared += 1
            if not same_answer(result, truth[result.query.qid]):
                mismatches += 1
        cases.append(ChaosCase(plan=plan, stats=engine.stats(),
                               compared=compared, mismatches=mismatches,
                               monitor=live))
    return ChaosReport(graph_name=graph.name, num_queries=len(trace),
                       cases=cases)
