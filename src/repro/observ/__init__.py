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
* :mod:`~repro.observ.registry` — labelled counters, gauges and
  fixed-bucket histograms with JSON/NDJSON snapshot export.
* :mod:`~repro.observ.snapshot` — versioned run/bench snapshots and
  :func:`~repro.observ.snapshot.diff_snapshots`, the regression gate.
* :mod:`~repro.observ.slo` — SLO targets, windowed error-budget
  accounting, and multi-window burn-rate alerts on the simulated clock.
* :mod:`~repro.observ.profiler` — per-level, per-kernel-class run
  profiles (``repro.profile/v1`` artifacts), ranked bottleneck findings
  and exact differential GTEPS attribution between two runs.
* :mod:`~repro.observ.clusterprof` — cluster-scale profiles
  (``repro.clusterprofile/v1``): exact per-tier wall-time attribution
  for cluster BFS, ranked interconnect/staging/straggler findings, and
  the weak-scaling efficiency waterfall.
* :mod:`~repro.observ.roofline` — roofline placement against
  :class:`~repro.gpu.specs.DeviceSpec` peaks (memory/compute/latency
  -bound verdicts with % of the attainable roof).
* :mod:`~repro.observ.timeseries` — fixed-cadence ring-buffer series
  sampled on the simulated clock (``repro.timeseries/v1``) with
  windowed aggregates and registry probes.
* :mod:`~repro.observ.detect` — deterministic online detectors (CUSUM,
  Page-Hinkley, EWMA bands, threshold/trend rules, reference bands)
  emitting versioned ``repro.anomaly/v1`` records with attribution.
* :mod:`~repro.observ.bus` — the ordered ``repro.findings/v1`` event
  bus unifying profiler findings, SLO alerts, cluster diagnoses and
  anomalies into one byte-deterministic exportable stream.
* :mod:`~repro.observ.monitor` — live serve-loop monitor: binds a
  sampling board + detector bank + bus to a
  :class:`~repro.serve.engine.ServeEngine`, renders text dashboards
  and self-contained HTML timelines.
* :mod:`~repro.observ.whatif` — what-if impact estimator: frozen run
  artifact + bounded knob mutation → predicted GTEPS/latency delta,
  validated for sign agreement against actual re-runs.

CLI: ``python -m repro trace <graph> --out run.trace.json`` exports a
timeline; ``python -m repro monitor <graph>`` watches a serve run live;
``--snapshot``/``--diff`` (also on ``bench``) write and compare counter
snapshots.
"""

from .bus import (
    FINDINGS_SCHEMA,
    BusEvent,
    FindingsBus,
    load_findings,
    validate_findings,
    write_findings,
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
    cluster_from_json,
    cluster_to_json,
    decompose_weak_scaling,
    diagnose_cluster,
    format_cluster_profile,
    format_weak_scaling,
    load_cluster_profile,
    profile_cluster_run,
    render_cluster_html,
    validate_cluster_profile,
    write_cluster_profile,
)
from .detect import (
    ANOMALY_SCHEMA,
    Anomaly,
    CusumDetector,
    Detector,
    DetectorBank,
    EwmaBandDetector,
    PageHinkleyDetector,
    ReferenceBandDetector,
    ThresholdRule,
    TrendRule,
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
from .monitor import render_html as render_monitor_html
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
    load_profile,
    profile_run,
    render_html,
    validate_profile,
    write_profile,
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
    disable_metrics,
    enable_metrics,
    get_registry,
    set_registry,
)
from .snapshot import (
    SNAPSHOT_SCHEMA,
    MetricDelta,
    SnapshotDiff,
    bench_snapshot,
    diff_snapshots,
    load_snapshot,
    metric_direction,
    run_snapshot,
    validate_snapshot,
    write_snapshot,
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
    load_series,
    registry_probe,
    validate_series,
    write_series,
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
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    tracing,
)
from .whatif import (
    CANONICAL_GAMMA_THRESHOLDS,
    CANONICAL_SERVE_CASES,
    KNOBS,
    Knob,
    Mutation,
    Prediction,
    estimate_gamma_impact,
    estimate_serve_impact,
    evaluate_canonical_matrices,
    evaluate_gamma_matrix,
    evaluate_serve_matrix,
    format_matrix,
    suggest_serve_mutations,
)

__all__ = [
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
    "disable_tracing",
    "enable_tracing",
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
    "cluster_from_json",
    "cluster_to_json",
    "decompose_weak_scaling",
    "diagnose_cluster",
    "format_cluster_profile",
    "format_weak_scaling",
    "load_cluster_profile",
    "profile_cluster_run",
    "render_cluster_html",
    "validate_cluster_profile",
    "write_cluster_profile",
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
    "load_profile",
    "peak_instr_per_s",
    "profile_run",
    "render_html",
    "ridge_intensity",
    "roofline_point",
    "validate_profile",
    "write_profile",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "set_registry",
    "MetricDelta",
    "SNAPSHOT_SCHEMA",
    "SnapshotDiff",
    "bench_snapshot",
    "diff_snapshots",
    "load_snapshot",
    "metric_direction",
    "run_snapshot",
    "validate_snapshot",
    "write_snapshot",
    "SERIES_SCHEMA",
    "WindowStats",
    "Series",
    "Board",
    "registry_probe",
    "write_series",
    "load_series",
    "validate_series",
    "ANOMALY_SCHEMA",
    "Anomaly",
    "Detector",
    "CusumDetector",
    "PageHinkleyDetector",
    "EwmaBandDetector",
    "ThresholdRule",
    "TrendRule",
    "ReferenceBandDetector",
    "reference_band",
    "DetectorBank",
    "FINDINGS_SCHEMA",
    "BusEvent",
    "FindingsBus",
    "write_findings",
    "load_findings",
    "validate_findings",
    "INSTANT_SCOPES",
    "InstantRecord",
    "LiveMonitor",
    "MonitorConfig",
    "render_dashboard",
    "render_monitor_html",
    "KNOBS",
    "Knob",
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
