"""What-if impact estimation: bounded serve-knob mutations priced offline.

Given a finished serve run's stats + config and a *bounded* config
mutation, predict the latency or throughput delta **without
re-running**.  The predictions are analytic models over the measured
cost structure (phase totals, wave widths and cache shares from the
serve stats).  They are judged on *sign agreement* against actual
re-runs: ``benchmarks/test_whatif.py`` re-runs a canonical matrix of
mutations and gates the table recorded in EXPERIMENTS.md.

Knobs (see :data:`KNOBS`): the batcher's wave width and flush deadline,
the hedge threshold, and the cache admission count.  A mutation outside
its knob's bounds raises, so a caller exploring mutations can never
leave them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "Knob",
    "KNOBS",
    "Mutation",
    "Prediction",
    "estimate_serve_impact",
    "suggest_serve_mutations",
]

#: Metrics where a larger value is an improvement.
_HIGHER_IS_BETTER = frozenset({"gteps", "qps"})


@dataclass(frozen=True)
class Knob:
    """One tunable the estimator knows how to price."""

    name: str
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
    "batch_sources": Knob(
        "batch_sources", 1, 64, "qps",
        "distinct sources per MS-BFS wave (mask lanes)"),
    "deadline_ms": Knob(
        "deadline_ms", 0.0, 64.0, "mean_ms",
        "max simulated ms the oldest pending query waits"),
    "hedge_threshold_ms": Knob(
        "hedge_threshold_ms", 1e-3, 1e4, "p99_ms",
        "hedge a wave stuck past this many simulated ms"),
    "admit_after": Knob(
        "admit_after", 1, 1024, "mean_ms",
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
