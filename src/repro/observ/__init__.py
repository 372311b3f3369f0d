"""Observability: the simulated analogue of nvprof + nvvp.

The paper's evaluation is profiler-driven — Fig. 8 is an nvvp execution
trace, Figs. 10/12/16 are counter series.  This package gives the
reproduction the same toolchain as first-class infrastructure:

* :mod:`~repro.observ.tracer` — zero-dependency span tracer (run →
  level → kernel), counter samples, process-global default with a
  pay-nothing :class:`~repro.observ.tracer.NullTracer` when off.
* :mod:`~repro.observ.events` — Chrome trace-event JSON export
  (``chrome://tracing`` / Perfetto): ``ph: "X"`` duration spans plus
  counter tracks for frontier size, γ, α and power.
* :mod:`~repro.observ.artifact` — the one write/load/validate path of
  the versioned JSON artifacts below; every write validates first.
* :mod:`~repro.observ.registry` — labelled counters, gauges and
  fixed-bucket histograms with NDJSON export.
* :mod:`~repro.observ.snapshot` — versioned run/bench snapshots and
  :func:`~repro.observ.snapshot.diff_snapshots`, the regression gate.
* :mod:`~repro.observ.slo` — SLO targets, windowed error-budget
  accounting, and multi-window burn-rate alerts on the simulated clock.
* :mod:`~repro.observ.profiler` — per-level, per-kernel-class run
  profiles (``repro.profile/v2`` artifacts), ranked bottleneck findings
  and exact differential GTEPS attribution between two runs.
* :mod:`~repro.observ.clusterprof` — cluster-scale profiles
  (``repro.clusterprofile/v2``): exact per-tier wall-time attribution
  for cluster BFS, ranked interconnect/staging/straggler findings, and
  the weak-scaling efficiency waterfall.
* :mod:`~repro.observ.roofline` — roofline placement against
  :class:`~repro.gpu.specs.DeviceSpec` peaks (memory/compute/latency
  -bound verdicts with % of the attainable roof).
* :mod:`~repro.observ.timeseries` — fixed-cadence ring-buffer series
  sampled on the simulated clock (``repro.timeseries/v1``) with
  windowed aggregates.
* :mod:`~repro.observ.detect` — deterministic reference-band detection
  calibrated from a fault-free twin run, emitting versioned
  ``repro.anomaly/v1`` records with attribution.
* :mod:`~repro.observ.bus` — the findings bus: the detector bank's
  anomalies as one ordered ``repro.findings/v1`` stream.
* :mod:`~repro.observ.monitor` — live serve-loop monitor: binds a
  sampling board + detector bank + bus to a
  :class:`~repro.serve.engine.ServeEngine`, renders text dashboards
  and self-contained HTML timelines.
* :mod:`~repro.observ.whatif` — what-if impact estimator: a finished
  serve run + bounded knob mutation → predicted latency/throughput
  delta.

CLI: ``python -m repro trace <graph> --out run.trace.json`` exports a
timeline; ``python -m repro monitor <graph>`` watches a serve run live;
``--snapshot``/``--diff`` (also on ``bench``) write and compare counter
snapshots.
"""

from .artifact import load_artifact, validate_artifact, write_artifact
from .bus import FINDINGS_SCHEMA
from .clusterprof import CLUSTER_PROFILE_SCHEMA
from .events import (
    chrome_trace_events,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
)
from .profiler import (
    PROFILE_SCHEMA,
    diagnose,
    diff_profiles,
    format_diff,
    format_profile,
    profile_run,
)
from .registry import MetricsRegistry, collecting, get_registry, set_registry
from .snapshot import (
    SNAPSHOT_SCHEMA,
    bench_snapshot,
    diff_snapshots,
    metric_direction,
    run_snapshot,
)
from .timeseries import SERIES_SCHEMA
from .tracer import NullTracer, Tracer, get_tracer, set_tracer, tracing

__all__ = [
    "load_artifact",
    "validate_artifact",
    "write_artifact",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "chrome_trace_events",
    "to_chrome_trace",
    "validate_trace",
    "write_chrome_trace",
    "CLUSTER_PROFILE_SCHEMA",
    "PROFILE_SCHEMA",
    "diagnose",
    "diff_profiles",
    "format_diff",
    "format_profile",
    "profile_run",
    "MetricsRegistry",
    "collecting",
    "get_registry",
    "set_registry",
    "SNAPSHOT_SCHEMA",
    "bench_snapshot",
    "diff_snapshots",
    "metric_direction",
    "run_snapshot",
    "SERIES_SCHEMA",
    "FINDINGS_SCHEMA",
]
