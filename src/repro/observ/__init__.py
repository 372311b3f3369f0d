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

from .artifact import (
    load_artifact,
    validate_artifact,
    write_artifact,
)
from .bus import (
    FINDINGS_SCHEMA,
    FindingsBus,
)
from .clusterprof import (
    CLUSTER_PROFILE_SCHEMA,
    CLUSTER_TIERS,
    ClusterLevelProfile,
    ClusterProfile,
    ScalingStep,
    ScalingTerm,
    TierSlice,
    WeakScalingDecomposition,
    build_cluster_profile,
    cluster_to_json,
    decompose_weak_scaling,
    diagnose_cluster,
    format_cluster_profile,
    format_weak_scaling,
    profile_cluster_run,
    render_cluster_html,
)
from .detect import (
    ANOMALY_SCHEMA,
    Anomaly,
    DetectorBank,
    ReferenceBandDetector,
    reference_band,
)
from .events import (
    chrome_trace_events,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
)
from .monitor import (
    LiveMonitor,
    MonitorConfig,
    render_dashboard,
)
from .profiler import (
    KERNEL_CLASSES,
    PROFILE_SCHEMA,
    ClassProfile,
    DeltaAttribution,
    Finding,
    LevelProfile,
    ProfileDiff,
    RunProfile,
    build_profile,
    diagnose,
    diff_profiles,
    format_diff,
    format_profile,
    profile_run,
    render_html,
)
from .roofline import (
    BOUND_KINDS,
    RooflinePoint,
    peak_instr_per_s,
    ridge_intensity,
    roofline_point,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    get_registry,
    set_registry,
)
from .snapshot import (
    SNAPSHOT_SCHEMA,
    MetricDelta,
    SnapshotDiff,
    bench_snapshot,
    diff_snapshots,
    metric_direction,
    run_snapshot,
)
from .slo import (
    DEFAULT_BURN_RULES,
    Alert,
    BurnRule,
    SLOConfig,
    SLOMonitor,
    SLOStatus,
)
from .timeseries import (
    SERIES_SCHEMA,
    Board,
    Series,
    WindowStats,
)
from .tracer import (
    FLOW_PHASES,
    INSTANT_SCOPES,
    TID_HARNESS,
    TID_RUN,
    TID_SERVE,
    TID_STREAM,
    CounterRecord,
    FlowRecord,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)
from .whatif import (
    KNOBS,
    Knob,
    Mutation,
    Prediction,
    estimate_serve_impact,
    suggest_serve_mutations,
)

__all__ = [
    "load_artifact",
    "validate_artifact",
    "write_artifact",
    "Alert",
    "BurnRule",
    "CounterRecord",
    "DEFAULT_BURN_RULES",
    "FLOW_PHASES",
    "FlowRecord",
    "NullTracer",
    "SLOConfig",
    "SLOMonitor",
    "SLOStatus",
    "SpanRecord",
    "Tracer",
    "TID_HARNESS",
    "TID_RUN",
    "TID_SERVE",
    "TID_STREAM",
    "get_tracer",
    "set_tracer",
    "tracing",
    "chrome_trace_events",
    "to_chrome_trace",
    "validate_trace",
    "write_chrome_trace",
    "CLUSTER_PROFILE_SCHEMA",
    "CLUSTER_TIERS",
    "ClusterLevelProfile",
    "ClusterProfile",
    "ScalingStep",
    "ScalingTerm",
    "TierSlice",
    "WeakScalingDecomposition",
    "build_cluster_profile",
    "cluster_to_json",
    "decompose_weak_scaling",
    "diagnose_cluster",
    "format_cluster_profile",
    "format_weak_scaling",
    "profile_cluster_run",
    "render_cluster_html",
    "BOUND_KINDS",
    "ClassProfile",
    "DeltaAttribution",
    "Finding",
    "KERNEL_CLASSES",
    "LevelProfile",
    "PROFILE_SCHEMA",
    "ProfileDiff",
    "RooflinePoint",
    "RunProfile",
    "build_profile",
    "diagnose",
    "diff_profiles",
    "format_diff",
    "format_profile",
    "peak_instr_per_s",
    "profile_run",
    "render_html",
    "ridge_intensity",
    "roofline_point",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "get_registry",
    "set_registry",
    "MetricDelta",
    "SNAPSHOT_SCHEMA",
    "SnapshotDiff",
    "bench_snapshot",
    "diff_snapshots",
    "metric_direction",
    "run_snapshot",
    "SERIES_SCHEMA",
    "WindowStats",
    "Series",
    "Board",
    "ANOMALY_SCHEMA",
    "Anomaly",
    "ReferenceBandDetector",
    "reference_band",
    "DetectorBank",
    "FINDINGS_SCHEMA",
    "FindingsBus",
    "INSTANT_SCOPES",
    "InstantRecord",
    "LiveMonitor",
    "MonitorConfig",
    "render_dashboard",
    "KNOBS",
    "Knob",
    "Mutation",
    "Prediction",
    "estimate_serve_impact",
    "suggest_serve_mutations",
]
