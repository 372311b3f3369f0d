"""What-if impact estimation: bounded knob mutations priced offline.

Given a frozen artifact of a finished run — a
:class:`~repro.observ.profiler.RunProfile` for BFS, or a serve run's
stats + config — and a *bounded* config mutation, predict the GTEPS or
latency delta **without re-running**.  The predictions are analytic
models over the measured cost structure (per-direction per-edge rates
from the profile's exact wall-time partition, phase totals and cache
shares from the serve stats); they are judged on *sign agreement*
against actual re-runs, which :func:`evaluate_gamma_matrix` /
:func:`evaluate_serve_matrix` measure directly — the table recorded in
EXPERIMENTS.md and asserted by the test matrix.

Knobs (see :data:`KNOBS`): the §4.3 direction-switch threshold γ, the
batcher's wave width and flush deadline, the hedge threshold, and the
cache admission count.  A mutation outside its knob's bounds raises,
so a caller exploring mutations can never leave them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .profiler import RunProfile

__all__ = [
    "Knob",
    "KNOBS",
    "CANONICAL_GAMMA_THRESHOLDS",
    "CANONICAL_SERVE_CASES",
    "Mutation",
    "Prediction",
    "estimate_gamma_impact",
    "estimate_serve_impact",
    "evaluate_canonical_matrices",
    "evaluate_gamma_matrix",
    "evaluate_serve_matrix",
    "format_matrix",
    "suggest_serve_mutations",
]

#: Metrics where a larger value is an improvement.
_HIGHER_IS_BETTER = frozenset({"gteps", "qps"})


@dataclass(frozen=True)
class Knob:
    """One tunable the estimator knows how to price."""

    name: str
    #: Which estimator prices it: ``bfs`` (RunProfile) or ``serve``.
    target: str
    lo: float
    hi: float
    #: Metric the prediction is expressed in.
    metric: str
    description: str

    def clamp_check(self, value: float) -> None:
        if not self.lo <= value <= self.hi:
            raise ValueError(
                f"{self.name} mutation {value!r} outside bounds "
                f"[{self.lo}, {self.hi}]")


KNOBS: Mapping[str, Knob] = {
    "gamma_threshold": Knob(
        "gamma_threshold", "bfs", 1.0, 99.0, "gteps",
        "hub-ratio %% that triggers the top-down -> bottom-up switch"),
    "batch_sources": Knob(
        "batch_sources", "serve", 1, 64, "qps",
        "distinct sources per MS-BFS wave (mask lanes)"),
    "deadline_ms": Knob(
        "deadline_ms", "serve", 0.0, 64.0, "mean_ms",
        "max simulated ms the oldest pending query waits"),
    "hedge_threshold_ms": Knob(
        "hedge_threshold_ms", "serve", 1e-3, 1e4, "p99_ms",
        "hedge a wave stuck past this many simulated ms"),
    "admit_after": Knob(
        "admit_after", "serve", 1, 1024, "mean_ms",
        "requests before a non-hub source's row is cached"),
}


@dataclass(frozen=True)
class Mutation:
    """One bounded knob change; out-of-bounds values refuse to build."""

    knob: str
    value: float

    def __post_init__(self) -> None:
        if self.knob not in KNOBS:
            raise ValueError(f"unknown knob {self.knob!r} "
                             f"(have {sorted(KNOBS)})")
        KNOBS[self.knob].clamp_check(self.value)

    @property
    def spec(self) -> Knob:
        return KNOBS[self.knob]


@dataclass(frozen=True)
class Prediction:
    """Predicted impact of one mutation on one metric."""

    knob: str
    metric: str
    baseline_value: float
    mutated_value: float
    #: Metric before the mutation (measured).
    before: float
    #: Metric after the mutation (predicted).
    predicted: float
    rationale: str

    @property
    def predicted_delta(self) -> float:
        return self.predicted - self.before

    @property
    def direction(self) -> str:
        """``improves`` / ``regresses`` / ``neutral`` under the metric's
        sense (throughput up = good, latency up = bad)."""
        delta = self.predicted_delta
        if abs(delta) <= 1e-9 * max(abs(self.before), 1.0):
            return "neutral"
        better = delta > 0 if self.metric in _HIGHER_IS_BETTER \
            else delta < 0
        return "improves" if better else "regresses"

    def line(self) -> str:
        return (f"{self.knob}: {self.baseline_value:g} -> "
                f"{self.mutated_value:g} predicts {self.metric} "
                f"{self.before:.4g} -> {self.predicted:.4g} "
                f"({self.direction}) — {self.rationale}")


# ----------------------------------------------------------------------
# BFS: the γ switch threshold, priced from a frozen RunProfile
# ----------------------------------------------------------------------

def _direction_rate(profile: RunProfile, want_top_down: bool) -> float:
    """Observed ms/edge over the profile's levels of one direction."""
    ms = 0.0
    edges = 0
    for lvl in profile.levels:
        is_td = lvl.direction == "top-down"
        if is_td == want_top_down and lvl.edges_checked > 0:
            ms += lvl.time_ms
            edges += lvl.edges_checked
    return ms / edges if edges else 0.0


def _switch_level(gammas: Sequence[float], threshold: float) -> int | None:
    """Level the traversal runs bottom-up from, under ``threshold``:
    the γ policy decides *after* the first level whose γ exceeds it."""
    for level, gamma in enumerate(gammas):
        if gamma > threshold:
            return level + 1
    return None


def estimate_gamma_impact(profile: RunProfile,
                          new_threshold: float) -> Prediction:
    """Predict the GTEPS impact of moving the γ switch threshold.

    Uses the profile's recorded per-level γ history to re-derive where
    the one-time top-down → bottom-up switch would land, then re-prices
    every level whose direction flips with the per-edge rates measured
    from the profile's exact wall-time partition (the roofline cells):
    a level forced top-down pays the top-down rate over its frontier's
    out-edges; a level pulled bottom-up pays the bottom-up rate over the
    unvisited half of the graph's edges.
    """
    Mutation(knob="gamma_threshold", value=new_threshold)  # bounds check
    levels = profile.levels
    gammas = [lvl.gamma for lvl in levels]
    # Tail phases legitimately record γ = -1 (never evaluated there);
    # only a profile with *no* γ history at all predates recording.
    if gammas and all(g < 0 for g in gammas):
        raise ValueError("profile predates per-level gamma recording; "
                         "re-profile with this version")
    old_switch = next((lvl.level for lvl in levels
                       if lvl.direction != "top-down"), None)
    new_switch = _switch_level(gammas, new_threshold)
    td_rate = _direction_rate(profile, want_top_down=True)
    bu_rate = _direction_rate(profile, want_top_down=False)
    # A profile that never ran one direction gives no rate for it; fall
    # back to the other direction's rate (sign still driven by edges).
    td_rate = td_rate or bu_rate
    bu_rate = bu_rate or td_rate
    mean_degree = profile.edges_traversed / max(profile.visited, 1)
    visited_before = 0
    new_time = profile.time_ms
    repriced: list[int] = []
    for lvl in levels:
        was_bu = lvl.direction != "top-down"
        now_bu = new_switch is not None and lvl.level >= new_switch
        if was_bu != now_bu:
            if now_bu:
                # Pulled bottom-up early: scans the still-unvisited
                # vertices' edges (about half before a parent is found).
                unvisited = max(profile.visited - visited_before, 0)
                est_edges = 0.5 * unvisited * mean_degree
                new_cost = bu_rate * est_edges
            else:
                # Forced to stay top-down: expands the whole frontier.
                est_edges = lvl.frontier_count * mean_degree
                new_cost = td_rate * est_edges
            new_time += new_cost - lvl.time_ms
            repriced.append(lvl.level)
        visited_before += lvl.newly_visited
    new_time = max(new_time, 1e-9)
    predicted = profile.edges_traversed / new_time / 1e6
    if repriced:
        rationale = (
            f"switch moves level {old_switch} -> {new_switch}; levels "
            f"{repriced} repriced at measured rates "
            f"(td {td_rate * 1e6:.3g} / bu {bu_rate * 1e6:.3g} ns/edge)")
    else:
        rationale = f"switch level stays at {old_switch}; no level flips"
    return Prediction(
        knob="gamma_threshold", metric="gteps",
        baseline_value=float("nan"), mutated_value=new_threshold,
        before=profile.gteps, predicted=predicted, rationale=rationale)


# ----------------------------------------------------------------------
# Serve: batcher/hedge/cache knobs, priced from ServeStats + ServeConfig
# ----------------------------------------------------------------------

def _serve_metric(stats, metric: str) -> float:
    if metric == "qps":
        return float(stats.qps)
    if metric == "mean_ms":
        lat = stats.latencies_ms
        return float(lat.mean()) if getattr(lat, "size", 0) else 0.0
    if metric.startswith("p") and metric.endswith("_ms"):
        value = stats.latency_percentile(float(metric[1:-3]))
        return float(value) if math.isfinite(value) else 0.0
    raise ValueError(f"unknown serve metric {metric!r}")


def estimate_serve_impact(stats, config, mutation: Mutation) -> Prediction:
    """Predict a serve metric under one bounded knob mutation.

    ``stats``/``config`` are a finished run's
    :class:`~repro.serve.engine.ServeStats` and
    :class:`~repro.serve.engine.ServeConfig` (duck-typed — only read).
    """
    knob = mutation.spec
    if knob.target != "serve":
        raise ValueError(f"{mutation.knob} is not a serve knob")
    served = max(stats.served, 1)
    before = _serve_metric(stats, knob.metric)

    if mutation.knob == "deadline_ms":
        old = float(config.deadline_ms)
        new = float(mutation.value)
        mean_batch = stats.phase_totals.get("batch_wait", 0.0) / served
        fill = stats.dispatch.mean_wave_width / max(config.batch_sources,
                                                    1)
        deadline_share = max(0.0, 1.0 - fill)
        # A deadline longer than the run itself never fires — drain
        # flushes everything first.  Cap both values at the observed
        # span so mutations in the inert region predict neutral.
        span = max(stats.makespan_ms - stats.warmup_ms, 1e-9)
        eff_old, eff_new = min(old, span), min(new, span)
        if eff_old > 0:
            delta = deadline_share * mean_batch \
                * (eff_new / eff_old - 1.0)
        else:
            # From no batching delay to some: waves now form for up to
            # ``eff_new`` ms; the oldest rider waits about half of it.
            delta = deadline_share * eff_new / 2.0
        return Prediction(
            knob=mutation.knob, metric=knob.metric, baseline_value=old,
            mutated_value=new, before=before,
            predicted=max(before + delta, 0.0),
            rationale=(f"batch wait {mean_batch:.3g} ms/query scales "
                       f"with the effective deadline "
                       f"({eff_old:.3g} -> {eff_new:.3g} ms, capped at "
                       f"the {span:.3g} ms span) on the "
                       f"{deadline_share:.0%} of waves that flush by "
                       f"deadline (mean width "
                       f"{stats.dispatch.mean_wave_width:.1f}"
                       f"/{config.batch_sources})"))

    if mutation.knob == "batch_sources":
        old = float(config.batch_sources)
        new = float(mutation.value)
        width = max(stats.dispatch.mean_wave_width, 1.0)
        wave_served = max(served - stats.cache.hits, 1)
        # Mean sweep cost: each rider records its wave's execute phase,
        # so the per-query mean IS the mean wave execution time.
        exec_per_wave = stats.phase_totals.get("execute", 0.0) \
            / wave_served
        gpus = max(getattr(config, "num_gpus", 1), 1)
        if new >= width or exec_per_wave <= 0:
            predicted = before
            rationale = (f"cap {new:g} stays above the achieved width "
                         f"{width:.1f}; flushes were not width-limited")
        else:
            # Narrower waves need width/new times the sweeps (MS-BFS
            # sweep cost is nearly width-free), but throughput only
            # drops once the devices run out of idle time: the arrival
            # rate caps QPS until service demand exceeds the span.
            sweeps = max(stats.dispatch.waves, 1) * width / new
            demand_ms = sweeps * exec_per_wave / gpus
            qps_service = wave_served / demand_ms * 1e3
            predicted = min(before, qps_service)
            verdict = "service-limited" if qps_service < before \
                else "still arrival-limited"
            rationale = (f"waves shrink from {width:.1f} to {new:g} "
                         f"sources -> {sweeps:.0f} sweeps at "
                         f"{exec_per_wave:.3g} ms each over {gpus} "
                         f"device(s): capacity "
                         f"{qps_service:,.0f} qps ({verdict})")
        return Prediction(
            knob=mutation.knob, metric=knob.metric, baseline_value=old,
            mutated_value=new, before=before, predicted=predicted,
            rationale=rationale)

    if mutation.knob == "hedge_threshold_ms":
        old = config.hedge_threshold_ms
        new = float(mutation.value)
        p50 = _serve_metric(stats, "p50_ms")
        tail = max(before - p50, 0.0)
        if old is None or stats.dispatch.hedges == 0 and new >= old:
            predicted = before
            rationale = "no hedges fired at the baseline; raising the " \
                        "threshold cannot change the tail"
        else:
            # Hedges cap straggler waves at about the threshold: the
            # tail beyond p50 stretches/shrinks with it (log-tempered —
            # only waves between the two thresholds change behavior).
            predicted = p50 + tail * (1.0 + 0.5 * math.log(new / old))
            predicted = max(predicted, p50)
            rationale = (f"{stats.dispatch.hedges} hedges capped the "
                         f"tail at ~{old:g} ms; moving the trigger to "
                         f"{new:g} ms rescales the {tail:.3g} ms tail "
                         f"beyond p50")
        return Prediction(
            knob=mutation.knob, metric=knob.metric,
            baseline_value=float("nan") if old is None else float(old),
            mutated_value=new, before=before, predicted=predicted,
            rationale=rationale)

    if mutation.knob == "admit_after":
        old = float(config.admit_after)
        new = float(mutation.value)
        lookups = max(stats.cache.lookups, 1)
        row_share = stats.cache.row_hits / lookups
        # Raising the admission count disqualifies sources seen fewer
        # times; under a Zipf mix repeat counts thin roughly inversely.
        new_share = row_share * min(1.0, old / new)
        # A lost row hit only costs a wave when the landmark tier
        # would not have absorbed it.
        non_row = stats.cache.landmark_hits + stats.cache.misses
        escape = stats.cache.misses / non_row if non_row else 1.0
        wave_served = max(served - stats.cache.hits, 1)
        mean_all = _serve_metric(stats, "mean_ms")
        mean_wave = mean_all * served / wave_served
        # A de-cached query usually coalesces into a wave that was
        # flushing anyway, so its marginal cost is the wave-path mean
        # amortized over the riders a wave already carries.
        amortize = max(stats.dispatch.waves, 1) / wave_served
        predicted = mean_all + (row_share - new_share) * escape \
            * mean_wave * min(amortize, 1.0)
        return Prediction(
            knob=mutation.knob, metric=knob.metric, baseline_value=old,
            mutated_value=new, before=before, predicted=predicted,
            rationale=(f"row-tier hits {row_share:.1%} of lookups; "
                       f"admission {old:g} -> {new:g} rescales them "
                       f"{min(1.0, old / new):.2f}x, {escape:.0%} of "
                       f"losses escape the landmark tier to a "
                       f"{mean_wave:.3g} ms wave path amortized over "
                       f"{1 / max(amortize, 1e-9):.1f} riders/wave"))

    raise ValueError(f"no serve estimator for knob {mutation.knob!r}")


def suggest_serve_mutations(stats, config) -> list[Prediction]:
    """Rank one canonical improving candidate per serve knob — the
    ``monitor`` dashboard's \"predicted fix\" panel."""
    candidates: list[Mutation] = []
    if config.deadline_ms > 0.2:
        candidates.append(Mutation("deadline_ms", config.deadline_ms / 2))
    if config.hedge_threshold_ms is not None \
            and config.hedge_threshold_ms > 0.1:
        candidates.append(Mutation("hedge_threshold_ms",
                                   config.hedge_threshold_ms / 2))
    if config.admit_after > 1:
        candidates.append(Mutation("admit_after",
                                   max(1, config.admit_after // 2)))
    out = [estimate_serve_impact(stats, config, m) for m in candidates]
    sense = {True: 1.0, False: -1.0}

    def gain(p: Prediction) -> float:
        return sense[p.metric in _HIGHER_IS_BETTER] * p.predicted_delta
    return sorted(out, key=lambda p: (-gain(p), p.knob))


# ----------------------------------------------------------------------
# Verification: prediction vs. actual re-run (the sign-agreement gate)
# ----------------------------------------------------------------------

def _sign_agreement(predicted: float, actual: float,
                    before: float) -> bool:
    """Same sign, where |delta| below 2%% of the baseline is neutral."""
    tol = 0.02 * max(abs(before), 1e-9)

    def bucket(delta: float) -> int:
        if delta > tol:
            return 1
        if delta < -tol:
            return -1
        return 0
    return bucket(predicted) == bucket(actual)


def evaluate_gamma_matrix(graph, thresholds: Sequence[float], *,
                          source: int | None = None, seed: int = 7
                          ) -> list[dict]:
    """Prediction-vs-actual rows for a matrix of γ thresholds.

    Profiles the baseline once, predicts each mutated threshold from
    that frozen profile, then actually re-runs with the mutated config
    and compares the GTEPS deltas.
    """
    from ..bfs.enterprise import EnterpriseConfig
    from .profiler import profile_run

    base_config = EnterpriseConfig()
    base = profile_run(graph, source, config=base_config, seed=seed)
    rows: list[dict] = []
    for threshold in thresholds:
        prediction = estimate_gamma_impact(base, threshold)
        actual_profile = profile_run(
            graph, source,
            config=EnterpriseConfig(gamma_threshold=threshold), seed=seed)
        actual = actual_profile.gteps
        rows.append(_matrix_row(prediction, actual,
                                baseline_value=base_config.gamma_threshold))
    return rows


def evaluate_serve_matrix(graph, mutations: Sequence[Mutation], *,
                          trace_config=None, config=None) -> list[dict]:
    """Prediction-vs-actual rows for a matrix of serve-knob mutations.

    One baseline run measures the stats every prediction is priced
    from; each mutation then re-runs the same trace on a fresh engine
    with the mutated config.
    """
    from dataclasses import replace as _replace

    from ..serve.engine import ServeConfig, ServeEngine
    from ..serve.loadgen import replay, synthetic_trace

    config = config or ServeConfig()
    trace = synthetic_trace(graph, trace_config)

    def run(cfg) -> object:
        engine = ServeEngine(graph, cfg)
        replay(engine, trace)
        return engine.stats()

    base_stats = run(config)
    rows: list[dict] = []
    for mutation in mutations:
        prediction = estimate_serve_impact(base_stats, config, mutation)
        mutated_config = _replace(config,
                                  **{mutation.knob: _coerce(mutation)})
        actual = _serve_metric(run(mutated_config), prediction.metric)
        rows.append(_matrix_row(prediction, actual,
                                baseline_value=prediction.baseline_value))
    return rows


def _coerce(mutation: Mutation):
    """Mutated value with the config field's type (int knobs stay int)."""
    if mutation.knob in ("batch_sources", "admit_after"):
        return int(mutation.value)
    return float(mutation.value)


#: The canonical prediction-vs-actual evaluation: per knob, a workload
#: where the knob genuinely binds (a deadline shorter than the arrival
#: span, a service-limited device, firing hedges, a contended cache) and
#: mutations deep enough to clear the 2%% neutrality tolerance.  Tests
#: and the EXPERIMENTS.md table both run exactly these cases.
CANONICAL_SERVE_CASES: tuple[dict, ...] = (
    {
        "label": "deadline",
        "graph": {"scale": 10, "edge_factor": 8, "seed": 3},
        "config": {"num_gpus": 2, "batch_sources": 64,
                   "deadline_ms": 2.0, "cache": False},
        "trace": {"num_queries": 300, "rate_per_ms": 4.0, "seed": 5},
        "mutations": (("deadline_ms", 4.0), ("deadline_ms", 0.5)),
    },
    {
        "label": "batch-width",
        "graph": {"scale": 12, "edge_factor": 16, "seed": 7},
        "config": {"num_gpus": 1, "batch_sources": 64,
                   "deadline_ms": 2.0, "cache": False},
        "trace": {"num_queries": 256, "rate_per_ms": 512.0, "seed": 5},
        "mutations": (("batch_sources", 2), ("batch_sources", 64)),
    },
    {
        "label": "hedge",
        "graph": {"scale": 10, "edge_factor": 8, "seed": 3},
        "config": {"num_gpus": 4, "batch_sources": 32,
                   "deadline_ms": 2.0, "faults": "straggler",
                   "hedge_threshold_ms": 0.01, "cache": False},
        "trace": {"num_queries": 300, "seed": 5},
        "mutations": (("hedge_threshold_ms", 0.02),
                      ("hedge_threshold_ms", 0.05)),
    },
    {
        "label": "cache-admission",
        "graph": {"scale": 11, "edge_factor": 16, "seed": 7},
        "config": {"num_gpus": 2, "batch_sources": 16,
                   "deadline_ms": 1.0, "num_landmarks": 1,
                   "admit_after": 2},
        "trace": {"num_queries": 800, "zipf_a": 1.9,
                  "rate_per_ms": 64.0, "seed": 5},
        "mutations": (("admit_after", 64), ("admit_after", 256)),
    },
)

#: γ thresholds the canonical BFS matrix re-runs (scale-12 R-MAT).
CANONICAL_GAMMA_THRESHOLDS = (2.0, 10.0, 60.0, 95.0)


def evaluate_canonical_matrices(*, cases: Sequence[dict] | None = None,
                                gamma: bool = True) -> list[dict]:
    """Run the canonical prediction-vs-actual evaluation.

    Returns one row per mutation (see :func:`_matrix_row`) with a
    ``case`` key naming the workload — the table EXPERIMENTS.md records
    and the what-if test suite asserts sign agreement over.
    """
    from ..graph.generators import rmat_graph
    from ..serve.engine import ServeConfig
    from ..serve.loadgen import TraceConfig

    rows: list[dict] = []
    for case in (CANONICAL_SERVE_CASES if cases is None else cases):
        graph = rmat_graph(case["graph"]["scale"],
                           case["graph"]["edge_factor"],
                           seed=case["graph"]["seed"])
        mutations = [Mutation(knob, value)
                     for knob, value in case["mutations"]]
        for row in evaluate_serve_matrix(
                graph, mutations,
                trace_config=TraceConfig(**case["trace"]),
                config=ServeConfig(**case["config"])):
            rows.append({"case": case["label"], **row})
    if gamma:
        graph = rmat_graph(12, 16, seed=7)
        for row in evaluate_gamma_matrix(
                graph, CANONICAL_GAMMA_THRESHOLDS):
            rows.append({"case": "gamma-threshold", **row})
    return rows


def format_matrix(rows: Sequence[dict]) -> str:
    """Markdown table of prediction-vs-actual rows."""
    head = ("| case | knob | mutation | metric | before | predicted | "
            "actual | sign | rel err |")
    rule = "|" + "---|" * 9
    lines = [head, rule]
    for r in rows:
        lines.append(
            f"| {r.get('case', '-')} | {r['knob']} | "
            f"{r['baseline_value']:g} → {r['mutated_value']:g} | "
            f"{r['metric']} | {r['before']:.4g} | {r['predicted']:.4g} "
            f"| {r['actual']:.4g} | "
            f"{'✓' if r['sign_agree'] else '✗'} | "
            f"{r['rel_error']:.2f} |")
    return "\n".join(lines)


def _matrix_row(prediction: Prediction, actual: float, *,
                baseline_value: float) -> dict:
    actual_delta = actual - prediction.before
    rel_error = abs(prediction.predicted - actual) \
        / max(abs(actual), 1e-9)
    return {
        "knob": prediction.knob,
        "metric": prediction.metric,
        "baseline_value": baseline_value,
        "mutated_value": prediction.mutated_value,
        "before": round(prediction.before, 6),
        "predicted": round(prediction.predicted, 6),
        "actual": round(actual, 6),
        "predicted_delta": round(prediction.predicted_delta, 6),
        "actual_delta": round(actual_delta, 6),
        "sign_agree": _sign_agreement(prediction.predicted_delta,
                                      actual_delta, prediction.before),
        "rel_error": round(rel_error, 4),
        "direction": prediction.direction,
    }
