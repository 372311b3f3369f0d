"""Fault fuzzing through the monitored chaos harness.

Hypothesis builds random :class:`~repro.faults.plan.FaultPlan`\\ s —
stragglers, device losses at random times, transient wave failures and
a degraded link, mixed — and runs each through
``run_chaos_matrix(..., monitor=True)`` with timeouts and hedging on.
Whatever the plan, faults may cost latency but never correctness:

* every answered query is exact;
* every query ends as a result, a shed or a reject;
* the findings stream is byte-deterministic across two runs;
* a plan that injects nothing fires no anomaly;
* every answered query's phases sum to its latency.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.harness import run_chaos_matrix
from repro.faults.plan import FaultPlan
from repro.graph import rmat_graph
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import TraceConfig, replay, synthetic_trace

GPUS = 4
TRACE = TraceConfig(num_queries=120, rate_per_ms=64.0, seed=5)
CONFIG = ServeConfig(num_gpus=GPUS, timeout_ms=2.0, hedge_threshold_ms=1.5)

devices = st.integers(min_value=0, max_value=GPUS - 1)


@st.composite
def fault_plans(draw) -> FaultPlan:
    return FaultPlan(
        name="fuzz",
        stragglers=draw(st.dictionaries(
            devices, st.floats(min_value=1.0, max_value=8.0),
            max_size=GPUS)),
        device_loss=draw(st.dictionaries(
            devices, st.floats(min_value=0.0, max_value=4.0),
            max_size=GPUS)),
        wave_failure_p=draw(st.floats(min_value=0.0, max_value=0.3)),
        bandwidth_factor=draw(st.floats(min_value=0.1, max_value=1.0,
                                        exclude_min=True)),
        seed=draw(st.integers(min_value=0, max_value=2**16)))


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, 8, seed=3)


@settings(max_examples=20, deadline=None)
@given(plan=fault_plans())
@example(plan=FaultPlan(name="null", seed=11))
def test_random_fault_plans_keep_every_contract(graph, plan):
    report = run_chaos_matrix(graph, [plan, plan], trace_config=TRACE,
                              config=CONFIG, monitor=True)
    for case in report.cases:
        assert case.exact, f"{case.mismatches} wrong answers under {plan}"
        s = case.stats
        assert s.served + s.shed + s.rejected == TRACE.num_queries
    first, second = (json.dumps(case.monitor.bus.to_json(), sort_keys=True)
                     for case in report.cases)
    assert first == second
    if plan.is_null:
        assert report.cases[0].anomalies == 0

    engine = ServeEngine(graph, CONFIG, fault_plan=plan)
    answered = [r for r in replay(engine, synthetic_trace(graph, TRACE))
                if r.ok]
    assert answered
    for r in answered:
        assert abs(sum(r.phases.values()) - r.latency_ms) <= 1e-6
