"""What-if predictions vs. actual re-runs (EXPERIMENTS.md).

``monitor --whatif`` prices a bounded serve-knob mutation from one
finished run without re-running it (:mod:`repro.observ.whatif`); the
§4.3 γ switch threshold is priced here from a frozen
:class:`~repro.observ.profiler.RunProfile`.  This bench re-runs every
canonical mutation and holds each prediction to *sign agreement*: the
predicted and the actual delta fall in the same bucket (improves,
regresses, or neutral when under 2 % of the baseline).  Each case is
one claim, and it holds only when every one of its rows agrees.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import emit, run_once

from repro.bench import PaperClaim
from repro.bfs.enterprise import EnterpriseConfig
from repro.graph import rmat_graph
from repro.observ.profiler import RunProfile, profile_run
from repro.observ.whatif import (
    Mutation,
    Prediction,
    _serve_metric,
    estimate_serve_impact,
)
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import TraceConfig, replay, synthetic_trace

#: Per serve knob, a workload where the knob binds (a deadline shorter
#: than the arrival span, a service-limited device, firing hedges, a
#: contended cache) and mutations deep enough to clear the neutral band:
#: (case, rmat_graph scale/edge factor/seed, ServeConfig, TraceConfig,
#: mutations).
SERVE_CASES = (
    ("deadline", (10, 8, 3),
     dict(num_gpus=2, batch_sources=64, deadline_ms=2.0, cache=False),
     dict(num_queries=300, rate_per_ms=4.0, seed=5),
     (("deadline_ms", 4.0), ("deadline_ms", 0.5))),
    ("batch-width", (12, 16, 7),
     dict(num_gpus=1, batch_sources=64, deadline_ms=2.0, cache=False),
     dict(num_queries=256, rate_per_ms=512.0, seed=5),
     (("batch_sources", 2), ("batch_sources", 64))),
    ("hedge", (10, 8, 3),
     dict(num_gpus=4, batch_sources=32, deadline_ms=2.0,
          faults="straggler", hedge_threshold_ms=0.01, cache=False),
     dict(num_queries=300, seed=5),
     (("hedge_threshold_ms", 0.02), ("hedge_threshold_ms", 0.05))),
    ("cache-admission", (11, 16, 7),
     dict(num_gpus=2, batch_sources=16, deadline_ms=1.0,
          num_landmarks=1, admit_after=2),
     dict(num_queries=800, zipf_a=1.9, rate_per_ms=64.0, seed=5),
     (("admit_after", 64), ("admit_after", 256))),
)

#: γ thresholds re-run on a scale-12 R-MAT (the default is 30 %).
GAMMA_THRESHOLDS = (2.0, 10.0, 60.0, 95.0)


def _direction_rate(profile: RunProfile, top_down: bool) -> float:
    """Observed ms/edge over the profile's levels of one direction."""
    ms = 0.0
    edges = 0
    for lvl in profile.levels:
        if (lvl.direction == "top-down") == top_down \
                and lvl.edges_checked > 0:
            ms += lvl.time_ms
            edges += lvl.edges_checked
    return ms / edges if edges else 0.0


def estimate_gamma_impact(profile: RunProfile,
                          threshold: float) -> Prediction:
    """Predict the GTEPS of moving the γ switch threshold.

    The recorded per-level γ history places the one-time top-down →
    bottom-up switch (the level after the first γ above the threshold);
    every level whose direction flips is re-priced at the per-edge rate
    measured for its new direction.  A level forced top-down expands
    its whole frontier; a level pulled bottom-up scans about half of
    the still-unvisited vertices' edges.
    """
    new_switch = next((i + 1 for i, lvl in enumerate(profile.levels)
                       if lvl.gamma > threshold), None)
    td_rate = _direction_rate(profile, top_down=True)
    bu_rate = _direction_rate(profile, top_down=False)
    # A direction the profile never ran borrows the other's rate.
    td_rate, bu_rate = td_rate or bu_rate, bu_rate or td_rate
    mean_degree = profile.edges_traversed / max(profile.visited, 1)
    visited_before = 0
    new_time = profile.time_ms
    for lvl in profile.levels:
        now_bu = new_switch is not None and lvl.level >= new_switch
        if now_bu != (lvl.direction != "top-down"):
            if now_bu:
                unvisited = max(profile.visited - visited_before, 0)
                new_cost = bu_rate * (0.5 * unvisited * mean_degree)
            else:
                new_cost = td_rate * (lvl.frontier_count * mean_degree)
            new_time += new_cost - lvl.time_ms
        visited_before += lvl.newly_visited
    predicted = profile.edges_traversed / max(new_time, 1e-9) / 1e6
    return Prediction(knob="gamma_threshold", metric="gteps",
                      baseline_value=EnterpriseConfig().gamma_threshold,
                      mutated_value=threshold, before=profile.gteps,
                      predicted=predicted, rationale="")


def _bucket(delta: float, before: float) -> int:
    """+1 up, -1 down, 0 within 2 % of the baseline."""
    tol = 0.02 * max(abs(before), 1e-9)
    return (delta > tol) - (delta < -tol)


def _row(case: str, p: Prediction, actual: float) -> tuple[str, bool, str]:
    """``(case, agree, markdown row)`` for one prediction and its re-run."""
    agree = _bucket(p.predicted_delta, p.before) \
        == _bucket(actual - p.before, p.before)
    rel_error = abs(p.predicted - actual) / max(abs(actual), 1e-9)
    return case, agree, (
        f"| {case} | {p.knob} | {p.baseline_value:g} → {p.mutated_value:g} "
        f"| {p.metric} | {round(p.before, 6):.4g} | "
        f"{round(p.predicted, 6):.4g} | {round(actual, 6):.4g} | "
        f"{'✓' if agree else '✗'} | {round(rel_error, 4):.2f} |")


def _serve_rows(case, graph_args, config_fields, trace_fields,
                mutations) -> list[tuple]:
    """One baseline run prices every mutation; each mutation then
    re-runs the same trace on a fresh engine."""
    scale, edge_factor, seed = graph_args
    graph = rmat_graph(scale, edge_factor, seed=seed)
    config = ServeConfig(**config_fields)
    queries = synthetic_trace(graph, TraceConfig(**trace_fields))

    def run(cfg):
        engine = ServeEngine(graph, cfg)
        replay(engine, queries)
        return engine.stats()

    base = run(config)
    rows = []
    for knob, value in mutations:
        prediction = estimate_serve_impact(base, config,
                                           Mutation(knob, value))
        actual = run(replace(config, **{knob: value}))
        rows.append(_row(case, prediction,
                         _serve_metric(actual, prediction.metric)))
    return rows


def _matrix() -> list[tuple]:
    rows = [row for case in SERVE_CASES for row in _serve_rows(*case)]
    graph = rmat_graph(12, 16, seed=7)
    base = profile_run(graph, config=EnterpriseConfig(), seed=7)
    for t in GAMMA_THRESHOLDS:
        actual = profile_run(graph, config=EnterpriseConfig(
            gamma_threshold=t), seed=7)
        rows.append(_row("gamma-threshold", estimate_gamma_impact(base, t),
                         actual.gteps))
    return rows


def test_whatif(benchmark, report):
    rows = run_once(benchmark, _matrix)
    emit("What-if predictions vs. actual re-runs", "\n".join(
        ["| case | knob | mutation | metric | before | predicted | actual "
         "| sign | rel err |", "|" + "---|" * 9] + [r[2] for r in rows]))
    for case in dict.fromkeys(r[0] for r in rows):
        agree = [r[1] for r in rows if r[0] == case]
        report.append(PaperClaim(
            "whatif", f"{case}: every predicted delta has the sign of "
            "the re-run's delta",
            "extension: prediction without a re-run",
            f"{sum(agree)}/{len(agree)} rows agree (|delta| < 2 % of "
            "the baseline is neutral)",
            all(agree),
        ))
