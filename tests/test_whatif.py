"""What-if impact estimation: bounds and the serve pricing models.
``benchmarks/test_whatif.py`` gates sign agreement with actual re-runs."""

from __future__ import annotations

import math

import pytest

from repro.graph import rmat_graph
from repro.observ.whatif import (
    KNOBS,
    Mutation,
    Prediction,
    estimate_serve_impact,
    suggest_serve_mutations,
)
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import TraceConfig, replay, synthetic_trace


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=3)


@pytest.fixture(scope="module")
def serve_run(graph):
    """One finished serve run: (stats, config) the estimator prices."""
    config = ServeConfig(num_gpus=2, batch_sources=16, deadline_ms=1.0,
                         hedge_threshold_ms=4.0)
    engine = ServeEngine(graph, config)
    replay(engine, synthetic_trace(
        graph, TraceConfig(num_queries=200, rate_per_ms=16.0, seed=5)))
    return engine.stats(), config


class TestBounds:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown knob"):
            Mutation("warp_size", 32)

    @pytest.mark.parametrize("knob,value", [
        ("batch_sources", 0), ("batch_sources", 65),
        ("deadline_ms", -1.0), ("deadline_ms", 65.0),
        ("hedge_threshold_ms", 0.0),
        ("admit_after", 0), ("admit_after", 2048),
    ])
    def test_out_of_bounds_rejected(self, knob, value):
        with pytest.raises(ValueError, match="outside bounds"):
            Mutation(knob, value)

    def test_in_bounds_accepted(self):
        for name, knob in KNOBS.items():
            Mutation(name, knob.lo)
            Mutation(name, knob.hi)


class TestPredictionDirection:
    def _prediction(self, metric, before, predicted) -> Prediction:
        return Prediction(knob="deadline_ms", metric=metric,
                          baseline_value=1.0, mutated_value=2.0,
                          before=before, predicted=predicted,
                          rationale="")

    def test_latency_down_improves(self):
        assert self._prediction("mean_ms", 2.0, 1.0).direction \
            == "improves"
        assert self._prediction("mean_ms", 1.0, 2.0).direction \
            == "regresses"

    def test_throughput_up_improves(self):
        assert self._prediction("qps", 100.0, 200.0).direction \
            == "improves"
        assert self._prediction("qps", 200.0, 100.0).direction \
            == "regresses"

    def test_tiny_delta_is_neutral(self):
        assert self._prediction("qps", 100.0, 100.0).direction \
            == "neutral"

    def test_line_mentions_knob_and_direction(self):
        line = self._prediction("mean_ms", 2.0, 1.0).line()
        assert "deadline_ms" in line and "improves" in line


class TestServeEstimator:
    def test_every_serve_knob_prices(self, serve_run):
        stats, config = serve_run
        for name, knob in KNOBS.items():
            prediction = estimate_serve_impact(
                stats, config, Mutation(name, knob.hi))
            assert prediction.metric == knob.metric
            assert prediction.rationale
            assert math.isfinite(prediction.predicted)
            assert prediction.predicted >= 0.0

    def test_wider_cap_than_achieved_width_is_neutral(self, serve_run):
        stats, config = serve_run
        prediction = estimate_serve_impact(
            stats, config, Mutation("batch_sources", 64))
        assert prediction.direction == "neutral"

    def test_raising_a_silent_hedge_threshold_is_neutral(self, serve_run):
        stats, config = serve_run
        if stats.dispatch.hedges:
            pytest.skip("hedges fired on this workload")
        prediction = estimate_serve_impact(
            stats, config, Mutation("hedge_threshold_ms", 8.0))
        assert prediction.direction == "neutral"

    def test_deadline_beyond_the_run_span_is_inert(self, serve_run):
        stats, config = serve_run
        span = stats.makespan_ms - stats.warmup_ms
        far = min(max(span * 4, config.deadline_ms), 64.0)
        a = estimate_serve_impact(stats, config,
                                  Mutation("deadline_ms", far))
        b = estimate_serve_impact(stats, config,
                                  Mutation("deadline_ms", 64.0))
        assert a.predicted == pytest.approx(b.predicted)

    def test_suggestions_ranked_by_predicted_gain(self, serve_run):
        stats, config = serve_run
        suggestions = suggest_serve_mutations(stats, config)
        assert suggestions, "config leaves no knob to halve"

        def gain(p: Prediction) -> float:
            sense = 1.0 if p.metric in ("qps", "gteps") else -1.0
            return sense * p.predicted_delta
        gains = [gain(p) for p in suggestions]
        assert gains == sorted(gains, reverse=True)
