"""The measurement loop every workload shares.

One run of one workload:

1. set up ``SETUP_REPEATS`` times from the seed (intern pools emptied
   before each, so every set-up starts cold); ``setup_s`` is the median;
2. run timed rounds until ``seconds`` have passed and at least
   ``MIN_ROUNDS`` ran; host metrics use the median round.  Traced, every
   plain round is followed by the same round with the layer wrappers in,
   then one round each under a Tracer, under the host profiler and, for
   the monitored workload, without its monitor;
3. read the peak RSS, then check the first round's answers.  Every other
   round must repeat the first round's answer digest and simulated
   metrics exactly (the observability rounds: its digest).
"""

from __future__ import annotations

import gc
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from repro import accel
from repro.observ.hostprof import profiling_host
from repro.observ.tracer import tracing

from spans import SPAN_NAMES, SpanRecorder, layer_totals, recording, \
    span_metric

SETUP_REPEATS = 3
MIN_ROUNDS = 3
#: Intern pools reported as ``accel.intern.<pool>.hit_rate``.
INTERN_POOLS = ("access_pattern", "kernel_cost", "gamma_setup",
                "hubcache_setup")


def rel_iqr(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    errors: list[str]
    #: metric name -> (value, spread of its samples within the run as
    #: ``rel_iqr``; 0 for single and deterministic values).
    metrics: dict[str, tuple[float, float]]
    #: Span rows of the last traced round (empty when untraced).
    spans: list = field(default_factory=list)


class _Rounds:
    """Runs a workload's rounds, checking each against the first."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.first = None
        self.first_out = None
        self.matching = 0
        self.mismatched = 0

    def run(self, *, answers_only: bool = False, **kwargs) -> float:
        gc.collect()
        start = perf_counter()
        out = self.workload.run_round(self.state, **kwargs)
        elapsed = perf_counter() - start
        seen = (self.workload.digest(out),
                self.workload.sim_metrics(self.state, out))
        if self.first is None:
            self.first, self.first_out = seen, out
        same = seen[0] == self.first[0] if answers_only else \
            seen == self.first
        if same:
            self.matching += 1
        else:
            self.mismatched += 1
        return elapsed


def _intern_hit_rates(before: dict, after: dict) -> dict[str, float]:
    rates = {}
    for pool in INTERN_POOLS:
        _, hits0, misses0 = before.get(pool, (0, 0, 0))
        _, hits, misses = after.get(pool, (0, 0, 0))
        calls = hits - hits0 + misses - misses0
        rates[f"accel.intern.{pool}.hit_rate"] = \
            (hits - hits0) / calls if calls else 0.0
    rates["accel.intern.entries"] = sum(e for e, _, _ in after.values())
    return rates


def run_workload(workload, seed: int, seconds: float,
                 trace: bool) -> Result:
    """Measure one workload; see the module docstring."""
    setup_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before building the next
        accel.clear_intern_tables()
        gc.collect()
        start = perf_counter()
        state = workload.setup(seed)
        setup_s.append(perf_counter() - start)
        build_s.append(state.build_s)
    ops = workload.ops(state)

    rounds = _Rounds(workload, state)
    recorder = SpanRecorder()
    plain, wrapped = [], []
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_s = 0.0
    pools = accel.intern_stats()
    start = perf_counter()
    while len(plain) < MIN_ROUNDS or perf_counter() - start < seconds:
        plain.append(rounds.run())
        if trace:
            recorder.clear()
            with recording(recorder):
                wrapped.append(rounds.run())
            totals, counts, roots = layer_totals(recorder.spans)
            for name, s in totals.items():
                self_s[name] += s
                calls[name] += counts[name]
            root_s += roots
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    base = statistics.median(plain)
    metrics = {name: (value, 0.0) for name, value in rounds.first[1].items()}
    metrics.update({
        "setup_s": (statistics.median(setup_s), rel_iqr(setup_s)),
        "host_ops_per_s": (ops / base, rel_iqr([ops / t for t in plain])),
        "peak_rss_mb": (rss_mb, 0.0),
        "graph.build_s": (statistics.median(build_s), rel_iqr(build_s)),
    })
    if trace:
        layer = _intern_hit_rates(pools, accel.intern_stats())
        per_op = ops * len(wrapped)
        for name in SPAN_NAMES:
            layer[span_metric(name)] = self_s[name] * 1e3 / per_op
        layer["gpu.kernel_cost.calls"] = calls["gpu.kernel_cost"] / per_op
        layer["bench.unattributed_share"] = 1.0 - root_s / sum(wrapped)
        layer["bench.trace_overhead"] = statistics.median(wrapped) / base
        layer["bench.round_iqr_rel"] = rel_iqr(plain)
        with tracing():
            layer["observ.tracer_overhead"] = \
                rounds.run(answers_only=True) / base
        with profiling_host():
            layer["observ.hostprof_overhead"] = \
                rounds.run(answers_only=True) / base
        if workload.monitored:
            layer["observ.monitor_overhead"] = base / rounds.run(
                answers_only=True, monitor=False)
        metrics.update((name, (value, 0.0)) for name, value in layer.items())

    errors = workload.check(state, rounds.first_out)
    failed = min(len(errors), ops) * rounds.matching \
        + ops * rounds.mismatched
    if rounds.mismatched:
        errors.append(f"{rounds.mismatched} rounds differ from round 1")
    return Result(correct=not errors,
                  attempted=ops * (rounds.matching + rounds.mismatched),
                  failed=failed, errors=errors, metrics=metrics,
                  spans=recorder.spans)
