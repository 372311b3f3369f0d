"""Versioned counter snapshots and regression diffing.

A *snapshot* freezes a run's full counter state — the
:class:`~repro.gpu.counters.CounterSet` aggregate, per-level
:class:`~repro.bfs.common.LevelTrace` rollups, and optionally a metrics
registry — into one JSON document with a schema tag, so two runs of the
same experiment can be compared mechanically.  :func:`diff_snapshots` is
the CI perf gate: it flags every metric whose relative change exceeds a
tolerance, using a direction table (more ``gld_transactions`` is a
regression, more TEPS is an improvement) so a 10 % jump in memory
transactions fails loudly while a 10 % jump in throughput does not.

Two snapshot kinds share the schema:

* ``run`` — one BFS run (:func:`run_snapshot`): metadata, a flat
  ``metrics`` map, and per-level rollups.
* ``bench`` — a figure/table regeneration (:func:`bench_snapshot`): the
  bench rows flattened into the same ``metrics`` map, keyed
  ``<group>.<row>.<column>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..gpu.clock import PS_PER_MS
from .artifact import register_artifact, validate_artifact

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bfs.common import BFSResult
    from ..gpu.counters import CounterSet
    from ..gpu.device import GPUDevice
    from .registry import MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "run_snapshot",
    "bench_snapshot",
    "MetricDelta",
    "SnapshotDiff",
    "diff_snapshots",
    "metric_direction",
]

#: Schema tag; bump the version on any incompatible layout change.
SNAPSHOT_SCHEMA = "repro.snapshot/v1"

#: Metrics where a *decrease* is good (cost-like).  Matched against the
#: last dot-separated segment of the metric key.
_LOWER_IS_BETTER = frozenset({
    "time_ms", "mean_time_ms", "queue_gen_ms", "expand_ms",
    "gld_transactions", "stall_data_request", "power_w", "mean_power_w",
    "energy_j", "wasted_lane_steps", "edges_checked", "instructions",
    # Serving-layer latency/reliability metrics (repro.serve bench).
    "p50_ms", "p95_ms", "p99_ms", "makespan_ms", "timeouts", "retries",
    "rejected",
    # Resilience / chaos metrics (repro.faults harness).
    "shed", "hedges", "failovers", "wave_failures", "deadline_misses",
    "quarantines", "mismatches",
    # SLO / tail-latency attribution (repro.observ.slo, repro.serve).
    "slo_bad", "slo_alerts", "phase_retry_ms", "phase_batch_ms",
    "phase_queue_ms", "phase_dispatch_ms",
    # Cluster fabric tiers (repro.bench.cluster weak scaling).
    "intra_ms", "inter_ms", "io_ms", "collective_ms",
    # Cluster profiler tiers and waterfall (repro.observ.clusterprof):
    # per-tier wall time, the efficiency gap, and structural waste.
    "compute_ms", "row_exchange_ms", "col_exchange_ms",
    "allreduce_intra_ms", "allreduce_inter_ms", "staging_ms",
    "gap", "straggler_share",
    # Streaming observability (repro.observ.detect / .monitor):
    # anomalies fired, mean latency on dashboards.
    "anomalies", "mean_ms",
})

#: Metrics where an *increase* is good (throughput-like).
_HIGHER_IS_BETTER = frozenset({
    "teps", "mean_teps", "gteps", "teps_per_watt", "ipc",
    "ldst_fu_utilization", "simt_efficiency", "hub_cache_hits",
    "useful_lane_steps",
    # Serving-layer throughput metrics (repro.serve bench).
    "qps", "cache_hit_rate", "speedup", "served",
    # Chaos harness: 1 = every answer matched clean ground truth.
    "exact",
    # SLO error-budget headroom (can go negative once overspent).
    "slo_budget_left",
    # Cluster fabric weak scaling (repro.bench.cluster).
    "efficiency", "hierarchy_advantage", "locality_hits",
})


def metric_direction(name: str) -> str:
    """``"lower"`` / ``"higher"`` (is better) or ``"neutral"``."""
    tail = name.rsplit(".", 1)[-1]
    if tail in _LOWER_IS_BETTER:
        return "lower"
    if tail in _HIGHER_IS_BETTER:
        return "higher"
    return "neutral"


def _tool() -> str:
    from .. import __version__
    return f"repro {__version__}"


def _num(value) -> float | int:
    """Coerce numpy scalars to plain JSON numbers."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


# ----------------------------------------------------------------------
# Building snapshots
# ----------------------------------------------------------------------

def run_snapshot(
    result: "BFSResult",
    *,
    device: "GPUDevice | None" = None,
    counters: "CounterSet | None" = None,
    registry: "MetricsRegistry | None" = None,
    meta: Mapping[str, object] | None = None,
) -> dict:
    """Serialize one run's full counter state to the versioned schema.

    ``counters`` (or ``device``, whose aggregate is used) supplies the
    nvprof-style :class:`~repro.gpu.counters.CounterSet`; per-level
    rollups come from ``result.traces``, and the run's ``queue_gen_ms``
    also counts the queue generated after the last level
    (``result.tail_queue_gen_ps``).
    """
    if counters is None and device is not None:
        counters = device.counters()
    metrics: dict[str, float | int] = {
        "time_ms": _num(result.time_ms),
        "teps": _num(result.teps),
        "edges_traversed": _num(result.edges_traversed),
        "visited": _num(result.visited),
        "depth": _num(result.depth),
        "levels": len(result.traces),
    }
    if result.traces:
        metrics.update({
            "queue_gen_ms": _num((sum(t.queue_gen_ps for t in result.traces)
                                  + result.tail_queue_gen_ps) / PS_PER_MS),
            "expand_ms": _num(sum(t.expand_ps for t in result.traces)
                              / PS_PER_MS),
            "edges_checked": _num(sum(t.edges_checked
                                      for t in result.traces)),
            "hub_cache_hits": _num(sum(t.hub_cache_hits
                                       for t in result.traces)),
            "hub_cache_lookups": _num(sum(t.hub_cache_lookups
                                          for t in result.traces)),
            "max_frontier": _num(max(t.frontier_count
                                     for t in result.traces)),
        })
    if counters is not None:
        metrics.update({
            "gld_transactions": _num(counters.gld_transactions),
            "ldst_fu_utilization": _num(counters.ldst_fu_utilization),
            "stall_data_request": _num(counters.stall_data_request),
            "ipc": _num(counters.ipc),
            "power_w": _num(counters.power_w),
            "energy_j": _num(counters.energy_j),
            "simt_efficiency": _num(counters.simt_efficiency),
            "instructions": _num(counters.instructions),
            "useful_lane_steps": _num(counters.useful_lane_steps),
            "wasted_lane_steps": _num(counters.wasted_lane_steps),
        })
    levels = [{
        "level": t.level,
        "direction": t.direction,
        "frontier_count": _num(t.frontier_count),
        "newly_visited": _num(t.newly_visited),
        "edges_checked": _num(t.edges_checked),
        "queue_gen_ms": _num(t.queue_gen_ms),
        "expand_ms": _num(t.expand_ms),
        "gld_transactions": _num(t.gld_transactions),
        "hub_cache_hits": _num(t.hub_cache_hits),
        "hub_cache_lookups": _num(t.hub_cache_lookups),
        "alpha": _num(t.alpha),
        "gamma": _num(t.gamma),
        "kernels": list(t.kernel_names),
    } for t in result.traces]
    doc = {
        "schema": SNAPSHOT_SCHEMA,
        "kind": "run",
        "meta": {
            "algorithm": result.algorithm,
            "graph": result.graph_name,
            "source": int(result.source),
            "tool": _tool(),
            **dict(meta or {}),
        },
        "metrics": metrics,
        "levels": levels,
    }
    if registry is not None and len(registry):
        doc["registry"] = registry.collect()
    return doc


def _row_id(row: Mapping[str, object], index: int) -> str:
    for value in row.values():
        if isinstance(value, str):
            return value.replace(" ", "_")
    return str(index)


def bench_snapshot(name: str, data) -> dict:
    """Flatten a bench figure's rows (a row list, a dict of row lists,
    or a dict of scalar dicts) into a diffable ``bench`` snapshot."""
    groups = data if isinstance(data, dict) else {"rows": data}
    metrics: dict[str, float | int] = {}
    for group, rows in groups.items():
        if isinstance(rows, Mapping):
            # e.g. fig05: {graph: {metric: scalar, ...}, ...}
            rows = [dict(rows, _group=group)]
            group = name
        if not isinstance(rows, (list, tuple)):
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, Mapping):
                continue
            rid = _row_id(row, i)
            for col, value in row.items():
                if isinstance(value, bool) or not isinstance(
                        value, (int, float, np.integer, np.floating)):
                    continue
                key = f"{group}.{rid}.{col}".replace(" ", "_")
                if key in metrics:  # duplicate row labels
                    key = f"{group}.{rid}#{i}.{col}".replace(" ", "_")
                metrics[key] = _num(value)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "kind": "bench",
        "meta": {"figure": name, "tool": _tool()},
        "metrics": metrics,
    }


@register_artifact(SNAPSHOT_SCHEMA, indent=2)
def _check_snapshot(doc: Mapping) -> None:
    """Raise ``ValueError`` unless ``doc`` has the v1 snapshot shape."""
    if doc.get("kind") not in ("run", "bench"):
        raise ValueError(f"unknown snapshot kind {doc.get('kind')!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, Mapping):
        raise ValueError("snapshot lacks a metrics object")
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {key!r} is not a number: {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {key!r} is not finite: {value!r}")
    levels = doc.get("levels", [])
    if not isinstance(levels, Sequence) or isinstance(levels, (str, bytes)):
        raise ValueError("snapshot levels must be an array")
    for i, level in enumerate(levels):
        if not isinstance(level, Mapping) or "level" not in level:
            raise ValueError(f"levels[{i}] is not a level rollup")


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One metric whose value moved beyond the tolerance."""

    metric: str
    before: float
    after: float
    rel_change: float  # (after - before) / |before|; ±inf from zero
    direction: str     # "lower" | "higher" | "neutral" (is better)
    regressed: bool

    def line(self) -> str:
        mark = "REG" if self.regressed else (
            "IMP" if self.direction != "neutral" else "CHG")
        pct = (f"{self.rel_change:+.1%}" if math.isfinite(self.rel_change)
               else "new-nonzero")
        return (f"[{mark}] {self.metric}: {self.before:g} -> "
                f"{self.after:g} ({pct})")


@dataclass(frozen=True)
class SnapshotDiff:
    """Outcome of comparing two snapshots' metric maps."""

    deltas: tuple[MetricDelta, ...]
    missing: tuple[str, ...]  # in old, absent from new
    added: tuple[str, ...]    # in new, absent from old
    rel_tol: float

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def improvements(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas
                     if not d.regressed and d.direction != "neutral")

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [d.line() for d in self.deltas]
        lines += [f"[DEL] {name} (metric disappeared)"
                  for name in self.missing]
        lines += [f"[NEW] {name} (no baseline)" for name in self.added]
        if not lines:
            lines = [f"no metric moved more than {self.rel_tol:.0%}"]
        lines.append(f"{len(self.regressions)} regression(s), "
                     f"{len(self.improvements)} improvement(s) "
                     f"at ±{self.rel_tol:.0%} tolerance")
        return "\n".join(lines)


def diff_snapshots(old: Mapping, new: Mapping,
                   *, rel_tol: float = 0.05) -> SnapshotDiff:
    """Compare two snapshots' metrics; flag changes beyond ``rel_tol``.

    A change counts as a *regression* when the metric moved in its bad
    direction (per the direction table) by more than ``rel_tol``
    relative to the old value; neutral metrics are reported as changes
    but never fail the gate.
    """
    validate_artifact(old, SNAPSHOT_SCHEMA)
    validate_artifact(new, SNAPSHOT_SCHEMA)
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    om, nm = old["metrics"], new["metrics"]
    deltas: list[MetricDelta] = []
    for key in sorted(set(om) & set(nm)):
        before, after = float(om[key]), float(nm[key])
        if before == after:
            continue
        if before == 0.0:
            rel = math.copysign(math.inf, after - before)
        else:
            rel = (after - before) / abs(before)
        if abs(rel) <= rel_tol:
            continue
        direction = metric_direction(key)
        regressed = ((direction == "lower" and rel > 0)
                     or (direction == "higher" and rel < 0))
        deltas.append(MetricDelta(key, before, after, rel, direction,
                                  regressed))
    return SnapshotDiff(
        deltas=tuple(deltas),
        missing=tuple(sorted(set(om) - set(nm))),
        added=tuple(sorted(set(nm) - set(om))),
        rel_tol=rel_tol,
    )
