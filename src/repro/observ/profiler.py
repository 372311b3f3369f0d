"""Kernel-level profiler: structured run profiles, automated bottleneck
diagnosis, and differential GTEPS attribution.

The paper's evaluation answers "why is this configuration faster" with
nvvp timelines (Fig. 8) and counter series (Figs. 10/12/16); the
observability layer records the same raw material but, until now, left
the diagnosis to a human eyeballing traces.  This module closes that
gap:

* :func:`build_profile` aggregates a finished
  :class:`~repro.bfs.common.BFSResult` + :class:`~repro.gpu.device.GPUDevice`
  timeline into a :class:`RunProfile` — per-level, per-kernel-class
  (Thread/Warp/CTA/Grid/scan) cost and counter rollups placed under the
  device rooflines (:mod:`repro.observ.roofline`).
* :func:`diagnose` turns a profile into ranked :class:`Finding`\\ s
  ("level 5: cta kernels 61% of level time, 3.2x class imbalance,
  stall_data_request 78% — memory-bound"), the nvvp guided-analysis
  analogue.
* :func:`diff_profiles` attributes a GTEPS delta between two runs to
  named levels, kernel classes and counters *exactly*: the per-cell tick
  deltas partition the total tick delta, so the attributed GTEPS
  contributions sum to the observed delta (coverage is reported and is
  1.0 up to float rounding — well past the 95% the CI gate demands).

Times are integer picosecond ticks (:mod:`repro.gpu.clock`), so the
partitions hold under plain ``==``.  Profiles serialize to a versioned
JSON schema (``repro.profile/v2``) that is byte-deterministic for a
fixed seed, making profile artifacts diffable in CI.
:func:`render_html` produces a self-contained flame-style HTML report;
:func:`format_profile` / :func:`format_diff` the terminal equivalents.
"""

from __future__ import annotations

import html as _html
import math
import re
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ..gpu.clock import PS_PER_MS, apportion
from .artifact import register_artifact, validate_artifact
from .roofline import roofline_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bfs.common import BFSResult
    from ..gpu.device import GPUDevice
    from ..gpu.kernels import KernelCost
    from ..gpu.specs import DeviceSpec

__all__ = [
    "PROFILE_SCHEMA",
    "KERNEL_CLASSES",
    "ClassProfile",
    "LevelProfile",
    "RunProfile",
    "Finding",
    "DeltaAttribution",
    "ProfileDiff",
    "build_profile",
    "profile_run",
    "diagnose",
    "diff_profiles",
    "to_json",
    "from_json",
    "format_profile",
    "format_diff",
    "render_html",
]

#: Schema tag; bump on any incompatible layout change.
PROFILE_SCHEMA = "repro.profile/v2"

#: Kernel classes in report order: the four §2.2 granularities plus
#: ``scan`` for granularity-less sweeps (classification, prefix sums,
#: status sweeps, atomic enqueues).
KERNEL_CLASSES = ("thread", "warp", "cta", "grid", "scan")

#: Device-timeline labels written by :func:`repro.bfs.enterprise._launch_level`:
#: ``L<level>:<phase>`` (concurrent) or ``L<level>:<phase>:<kernel>``.
_LABEL_RE = re.compile(r"^L(\d+):(qgen|td|bu|switch|bottom-up)(?::|$)")


def _kernel_class(kernel: "KernelCost") -> str:
    return kernel.granularity.value if kernel.granularity else "scan"


# ----------------------------------------------------------------------
# Profile data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClassProfile:
    """One kernel class' aggregate within one level's expansion."""

    kernel_class: str
    launches: int
    #: Serial sum of the class' kernel ticks (what nvprof would report
    #: per kernel; under Hyper-Q classes overlap, so these exceed wall).
    time_ps: int
    #: The class' share of the level's expansion wall ticks: each launch
    #: record's ticks split in proportion to serial time by largest
    #: remainder, so the shares sum to the level's ticks exactly.
    attributed_ps: int
    gld_transactions: int
    bytes_moved: int
    instructions: int
    useful_lane_steps: int
    wasted_lane_steps: int
    memory_time_ms: float
    stall_time_ms: float
    issue_time_ms: float
    dram_time_ms: float
    latency_time_ms: float
    max_kernel_ps: int

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS

    @property
    def attributed_ms(self) -> float:
        return self.attributed_ps / PS_PER_MS

    @property
    def simt_efficiency(self) -> float:
        total = self.useful_lane_steps + self.wasted_lane_steps
        return self.useful_lane_steps / total if total else 1.0

    @property
    def stall_share(self) -> float:
        return self.stall_time_ms / self.time_ms if self.time_ps > 0 else 0.0


def _merge_classes(groups: Iterable[ClassProfile]) -> list[ClassProfile]:
    """Sum :class:`ClassProfile` records sharing a kernel class."""
    acc: dict[str, dict] = {}
    for g in groups:
        d = acc.setdefault(g.kernel_class, {
            "kernel_class": g.kernel_class, "launches": 0, "time_ps": 0,
            "attributed_ps": 0, "gld_transactions": 0, "bytes_moved": 0,
            "instructions": 0, "useful_lane_steps": 0,
            "wasted_lane_steps": 0, "memory_time_ms": 0.0,
            "stall_time_ms": 0.0, "issue_time_ms": 0.0, "dram_time_ms": 0.0,
            "latency_time_ms": 0.0, "max_kernel_ps": 0,
        })
        d["launches"] += g.launches
        d["time_ps"] += g.time_ps
        d["attributed_ps"] += g.attributed_ps
        d["gld_transactions"] += g.gld_transactions
        d["bytes_moved"] += g.bytes_moved
        d["instructions"] += g.instructions
        d["useful_lane_steps"] += g.useful_lane_steps
        d["wasted_lane_steps"] += g.wasted_lane_steps
        d["memory_time_ms"] += g.memory_time_ms
        d["stall_time_ms"] += g.stall_time_ms
        d["issue_time_ms"] += g.issue_time_ms
        d["dram_time_ms"] += g.dram_time_ms
        d["latency_time_ms"] += g.latency_time_ms
        d["max_kernel_ps"] = max(d["max_kernel_ps"], g.max_kernel_ps)
    order = {name: i for i, name in enumerate(KERNEL_CLASSES)}
    return [ClassProfile(**d) for _, d in
            sorted(acc.items(), key=lambda kv: order.get(kv[0], 99))]


@dataclass(frozen=True)
class LevelProfile:
    """Everything one BFS level cost, by kernel class, plus its verdict."""

    level: int
    direction: str
    frontier_count: int
    newly_visited: int
    edges_checked: int
    #: Exact wall-tick split from the device timeline: queue generation
    #: (the §4.1 workflows) vs frontier expansion.
    queue_gen_ps: int
    expand_ps: int
    hub_cache_hits: int
    hub_cache_lookups: int
    classes: tuple[ClassProfile, ...]
    #: nvprof-style counters over the level's expansion kernels.
    ldst_fu_utilization: float
    stall_data_request: float
    ipc: float
    power_w: float
    #: Roofline verdict for the level.
    bound: str
    pct_of_roof: float
    intensity: float
    #: Hub ratio γ (%) observed at this level (§4.3's switch indicator);
    #: -1.0 when the run recorded none (pre-γ profile documents).
    gamma: float = -1.0

    @property
    def queue_gen_ms(self) -> float:
        return self.queue_gen_ps / PS_PER_MS

    @property
    def expand_ms(self) -> float:
        return self.expand_ps / PS_PER_MS

    @property
    def time_ms(self) -> float:
        return (self.queue_gen_ps + self.expand_ps) / PS_PER_MS

    @property
    def hub_cache_hit_rate(self) -> float:
        if self.hub_cache_lookups <= 0:
            return 0.0
        return self.hub_cache_hits / self.hub_cache_lookups

    @property
    def dominant_class(self) -> ClassProfile | None:
        live = [c for c in self.classes if c.attributed_ps > 0]
        return max(live, key=lambda c: c.attributed_ps) if live else None

    @property
    def class_imbalance(self) -> float:
        """Largest class serial time over the mean across active classes
        — how unevenly the level's work landed on the four queues (1.0 =
        perfectly balanced, the WB goal)."""
        live = [c.time_ps for c in self.classes if c.time_ps > 0]
        if not live:
            return 1.0
        return max(live) / (sum(live) / len(live))


@dataclass(frozen=True)
class RunProfile:
    """Structured profile of one BFS run — the diffable CI artifact."""

    algorithm: str
    config: str
    graph: str
    source: int
    device: str
    #: The device clock at the end of the run, in ticks.
    time_ps: int
    edges_traversed: int
    visited: int
    depth: int
    levels: tuple[LevelProfile, ...]
    #: Device ticks outside any ``L<n>:`` label (transfers etc.).
    other_ps: int
    #: Run-level nvprof counter aggregate (CounterSet fields).
    counters: Mapping[str, float]
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS

    @property
    def teps(self) -> float:
        if self.time_ps <= 0:
            return 0.0
        return self.edges_traversed / (self.time_ms * 1e-3)

    @property
    def gteps(self) -> float:
        return self.teps / 1e9

    def class_totals(self) -> list[ClassProfile]:
        return _merge_classes(c for lvl in self.levels for c in lvl.classes)

    def cells(self) -> dict[tuple, int]:
        """The exact wall-tick partition used by :func:`diff_profiles`:
        ``(level, phase, kernel_class) -> ticks``, summing to
        ``time_ps``."""
        out: dict[tuple, int] = {}
        for lvl in self.levels:
            out[(lvl.level, "queue-gen", None)] = lvl.queue_gen_ps
            for c in lvl.classes:
                out[(lvl.level, "expand", c.kernel_class)] = c.attributed_ps
            if not lvl.classes and lvl.expand_ps:
                out[(lvl.level, "expand", None)] = lvl.expand_ps
        out[(None, "other", None)] = self.other_ps
        return out

    def level_map(self) -> dict[int, LevelProfile]:
        return {lvl.level: lvl for lvl in self.levels}


# ----------------------------------------------------------------------
# Building profiles
# ----------------------------------------------------------------------

def _class_groups(record, spec: DeviceSpec) -> list[ClassProfile]:
    """Group one launch record's kernels by class and split the record's
    ticks in proportion to each class' serial ticks (largest remainder),
    so the shares sum to ``record.elapsed_ps`` exactly."""
    by_class: dict[str, list] = {}
    for k in record.kernels:
        if k.time_ps > 0:
            by_class.setdefault(_kernel_class(k), []).append(k)
    order = {name: i for i, name in enumerate(KERNEL_CLASSES)}
    names = sorted(by_class, key=lambda n: order.get(n, 99))
    serial = [sum(k.time_ps for k in by_class[name]) for name in names]
    shares = apportion(record.elapsed_ps, serial)
    groups: list[ClassProfile] = []
    for name, t, share in zip(names, serial, shares):
        ks = by_class[name]
        groups.append(ClassProfile(
            kernel_class=name,
            launches=len(ks),
            time_ps=t,
            attributed_ps=share,
            gld_transactions=sum(k.access.transactions for k in ks),
            bytes_moved=sum(k.access.bytes_moved for k in ks),
            instructions=sum(k.instructions for k in ks),
            useful_lane_steps=sum(k.useful_lane_steps for k in ks),
            wasted_lane_steps=sum(k.wasted_lane_steps for k in ks),
            memory_time_ms=sum(k.memory_time_ms for k in ks),
            stall_time_ms=sum(k.stall_time_ms for k in ks),
            issue_time_ms=sum(k.issue_time_ms for k in ks),
            dram_time_ms=sum(k.dram_time_ms for k in ks),
            latency_time_ms=sum(k.latency_time_ms for k in ks),
            max_kernel_ps=max(k.time_ps for k in ks),
        ))
    return groups


def build_profile(
    result: "BFSResult",
    device: "GPUDevice",
    *,
    config_label: str | None = None,
    meta: Mapping[str, object] | None = None,
) -> RunProfile:
    """Aggregate one finished run into a :class:`RunProfile`.

    ``device`` must be the device the run executed on (its timeline is
    the source of the exact per-level wall-time partition); per-level
    metadata (frontier counts, directions, hub-cache hits) comes from
    ``result.traces``.
    """
    from ..gpu.counters import aggregate_counters

    spec = device.spec
    per_level: dict[int, dict] = {}
    other_ps = 0
    for record in device.records:
        m = _LABEL_RE.match(record.label)
        if m is None:
            other_ps += record.elapsed_ps
            continue
        slot = per_level.setdefault(int(m.group(1)), {
            "qgen_ps": 0, "expand_ps": 0, "records": [],
        })
        if m.group(2) == "qgen":
            slot["qgen_ps"] += record.elapsed_ps
        else:
            slot["expand_ps"] += record.elapsed_ps
            slot["records"].append(record)

    traces = {t.level: t for t in result.traces}
    levels: list[LevelProfile] = []
    for level in sorted(set(per_level) | set(traces)):
        slot = per_level.get(level, {"qgen_ps": 0, "expand_ps": 0,
                                     "records": []})
        t = traces.get(level)
        groups = _merge_classes(
            g for rec in slot["records"] for g in _class_groups(rec, spec))
        kernels = [k for rec in slot["records"] for k in rec.kernels]
        expand_ms = slot["expand_ps"] / PS_PER_MS
        counters = aggregate_counters(kernels, spec, elapsed_ms=expand_ms)
        point = roofline_point(
            f"L{level}", spec,
            instructions=sum(g.instructions for g in groups),
            bytes_moved=sum(g.bytes_moved for g in groups),
            elapsed_ms=expand_ms,
            issue_ms=sum(g.issue_time_ms for g in groups),
            dram_ms=sum(g.dram_time_ms for g in groups),
            latency_ms=sum(g.latency_time_ms for g in groups),
        )
        levels.append(LevelProfile(
            level=level,
            direction=t.direction if t else "tail-qgen",
            frontier_count=t.frontier_count if t else 0,
            newly_visited=t.newly_visited if t else 0,
            edges_checked=t.edges_checked if t else 0,
            queue_gen_ps=slot["qgen_ps"],
            expand_ps=slot["expand_ps"],
            hub_cache_hits=t.hub_cache_hits if t else 0,
            hub_cache_lookups=t.hub_cache_lookups if t else 0,
            classes=tuple(groups),
            ldst_fu_utilization=counters.ldst_fu_utilization,
            stall_data_request=counters.stall_data_request,
            ipc=counters.ipc,
            power_w=counters.power_w,
            bound=point.bound,
            pct_of_roof=point.pct_of_roof,
            intensity=point.intensity if math.isfinite(point.intensity)
            else -1.0,
            gamma=float(getattr(t, "gamma", -1.0)) if t else -1.0,
        ))

    run_counters = device.counters()
    return RunProfile(
        algorithm=result.algorithm,
        config=config_label or result.algorithm,
        graph=result.graph_name,
        source=int(result.source),
        device=spec.name,
        time_ps=device.elapsed_ps,
        edges_traversed=int(result.edges_traversed),
        visited=int(result.visited),
        depth=int(result.depth),
        levels=tuple(levels),
        other_ps=other_ps,
        counters={
            "gld_transactions": int(run_counters.gld_transactions),
            "ldst_fu_utilization": run_counters.ldst_fu_utilization,
            "stall_data_request": run_counters.stall_data_request,
            "ipc": run_counters.ipc,
            "power_w": run_counters.power_w,
            "instructions": int(run_counters.instructions),
            "useful_lane_steps": int(run_counters.useful_lane_steps),
            "wasted_lane_steps": int(run_counters.wasted_lane_steps),
            "simt_efficiency": run_counters.simt_efficiency,
            "energy_j": run_counters.energy_j,
        },
        meta=dict(meta or {}),
    )


def profile_run(
    graph,
    source: int | None = None,
    *,
    config=None,
    spec: "DeviceSpec | None" = None,
    seed: int = 7,
    meta: Mapping[str, object] | None = None,
) -> RunProfile:
    """Run ``enterprise_bfs`` on a fresh device and profile it.

    ``config`` is an :class:`~repro.bfs.enterprise.EnterpriseConfig` (or
    ``None`` for full Enterprise); ``spec`` defaults to the Kepler K40;
    ``source`` defaults to the first Graph-500 pseudo-random source for
    ``seed`` — the same inputs always produce a byte-identical profile.
    """
    from ..bfs.enterprise import EnterpriseConfig, enterprise_bfs
    from ..gpu.device import GPUDevice
    from ..gpu.specs import KEPLER_K40
    from ..metrics import random_sources

    config = config or EnterpriseConfig()
    spec = spec or KEPLER_K40
    if source is None:
        source = int(random_sources(graph, 1, seed)[0])
    device = GPUDevice(spec)
    result = enterprise_bfs(graph, source, device=device, config=config)
    return build_profile(result, device, config_label=config.label(),
                         meta=dict(meta or {}, seed=seed))


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def to_json(profile: RunProfile) -> dict:
    """The versioned JSON document for a profile (deterministic for a
    fixed run: plain dict/float content, sorted on dump)."""
    doc = asdict(profile)
    doc["schema"] = PROFILE_SCHEMA
    doc["gteps"] = profile.gteps
    return doc


def from_json(doc: Mapping) -> RunProfile:
    validate_artifact(doc, PROFILE_SCHEMA)
    levels = tuple(
        LevelProfile(**{**lvl, "classes": tuple(
            ClassProfile(**c) for c in lvl["classes"])})
        for lvl in doc["levels"]
    )
    fields = {k: doc[k] for k in (
        "algorithm", "config", "graph", "source", "device", "time_ps",
        "edges_traversed", "visited", "depth", "other_ps", "counters",
        "meta")}
    return RunProfile(levels=levels, **fields)


@register_artifact(PROFILE_SCHEMA, indent=2)
def _check_profile(doc: Mapping) -> None:
    """Raise ``ValueError`` unless ``doc`` has the v2 profile shape."""
    for key in ("algorithm", "graph", "time_ps", "edges_traversed",
                "levels", "counters"):
        if key not in doc:
            raise ValueError(f"profile lacks {key!r}")
    if not isinstance(doc["levels"], (list, tuple)):
        raise ValueError("profile levels must be an array")
    for i, lvl in enumerate(doc["levels"]):
        if not isinstance(lvl, Mapping) or "level" not in lvl:
            raise ValueError(f"levels[{i}] is not a level profile")


# ----------------------------------------------------------------------
# Automated diagnosis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One ranked diagnosis — the guided-analysis output."""

    rank: int
    #: Fraction of run time implicated (the ranking key).
    severity: float
    level: int | None
    kind: str
    title: str
    detail: str

    def line(self) -> str:
        where = f"level {self.level}" if self.level is not None else "run"
        return (f"#{self.rank} [{self.severity:5.1%} of time] {where}: "
                f"{self.title} — {self.detail}")


def _level_finding(lvl: LevelProfile, profile: RunProfile,
                   mean_hit_rate: float) -> tuple[str, str, str]:
    """(kind, title, detail) for one hot level."""
    parts: list[str] = []
    dom = lvl.dominant_class
    if dom is not None and lvl.expand_ms > 0:
        parts.append(f"{dom.kernel_class} kernels "
                     f"{dom.attributed_ms / lvl.expand_ms:.0%} of "
                     f"expansion")
        if dom.simt_efficiency < 0.5:
            parts.append(f"SIMT efficiency {dom.simt_efficiency:.0%}")
    imbalance = lvl.class_imbalance
    if imbalance > 1.5:
        parts.append(f"{imbalance:.1f}x inter-class imbalance")
    if lvl.stall_data_request > 0.05:
        parts.append(f"stall_data_request "
                     f"{lvl.stall_data_request:.0%}")
    if lvl.queue_gen_ms > 0.4 * max(lvl.time_ms, 1e-12):
        parts.append(f"queue generation "
                     f"{lvl.queue_gen_ms / lvl.time_ms:.0%} of the level")
    if lvl.hub_cache_lookups > 0 and \
            lvl.hub_cache_hit_rate < mean_hit_rate - 0.10:
        parts.append(f"hub-cache hit rate {lvl.hub_cache_hit_rate:.0%} "
                     f"({mean_hit_rate - lvl.hub_cache_hit_rate:.0%} "
                     f"below the run mean)")
    roof = f"{lvl.bound}"
    if lvl.bound != "idle":
        roof += f" at {lvl.pct_of_roof:.0%} of roof"
    title = (f"{lvl.direction} level, frontier "
             f"{lvl.frontier_count:,} — {roof}")
    return "hot-level", title, "; ".join(parts) or "no anomaly beyond size"


def diagnose(profile: RunProfile, *, max_findings: int = 8
             ) -> tuple[Finding, ...]:
    """Ranked bottleneck findings, most implicated run time first.

    Deterministic: the same profile always produces the same findings in
    the same order.
    """
    total = max(profile.time_ms, 1e-12)
    lookups = sum(lvl.hub_cache_lookups for lvl in profile.levels)
    hits = sum(lvl.hub_cache_hits for lvl in profile.levels)
    mean_hit_rate = hits / lookups if lookups else 0.0

    scored: list[tuple[float, int, str, str, int | None]] = []
    for lvl in profile.levels:
        share = lvl.time_ms / total
        if share < 0.01:
            continue
        kind, title, detail = _level_finding(lvl, profile, mean_hit_rate)
        scored.append((share, lvl.level, kind, f"{title}", detail))
    scored.sort(key=lambda s: (-s[0], s[1]))

    findings: list[Finding] = []
    for share, level, kind, title, detail in scored[:max_findings]:
        findings.append(Finding(len(findings) + 1, share, level, kind,
                                title, detail))

    # Run-wide findings ride along after the per-level ranking.
    simt = float(profile.counters.get("simt_efficiency", 1.0))
    if simt < 0.5 and len(findings) < max_findings:
        findings.append(Finding(
            len(findings) + 1, 1.0 - simt, None, "simt",
            f"run SIMT efficiency {simt:.0%}",
            "idle lanes burn the majority of issue slots — workload "
            "granularity mismatch (the waste WB eliminates)"))
    qgen_ms = sum(lvl.queue_gen_ms for lvl in profile.levels)
    if profile.time_ms > 0 and qgen_ms > 0.3 * profile.time_ms \
            and len(findings) < max_findings:
        findings.append(Finding(
            len(findings) + 1, qgen_ms / profile.time_ms, None,
            "queue-gen",
            f"queue generation {qgen_ms / profile.time_ms:.0%} of run",
            "frontier-queue workflows dominate; check the §4.1 scan "
            "choice and graph size"))
    return tuple(findings)


# ----------------------------------------------------------------------
# Differential profiling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaAttribution:
    """One cell's contribution to an observed GTEPS delta."""

    level: int | None
    phase: str            # "expand" | "queue-gen" | "other" | "work"
    kernel_class: str | None
    time_before_ms: float
    time_after_ms: float
    gteps_delta: float
    #: Counter movements at this cell's scope, ``name -> (before, after)``.
    counters: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def describe(self) -> str:
        if self.phase == "work":
            return "traversed-edge count changed"
        where = f"L{self.level}" if self.level is not None else "run"
        what = self.phase if self.kernel_class is None \
            else f"{self.kernel_class} kernels"
        return f"{where} {what}"

    def line(self) -> str:
        bits = [f"{self.gteps_delta:+.4f} GTEPS  {self.describe()}",
                f"{self.time_before_ms:.4f} -> {self.time_after_ms:.4f} ms"]
        for name, (b, a) in sorted(self.counters.items()):
            bits.append(f"{name} {b:g} -> {a:g}")
        return "  ".join(bits)


@dataclass(frozen=True)
class ProfileDiff:
    """Exact attribution of ``after.gteps - before.gteps``."""

    before_label: str
    after_label: str
    gteps_before: float
    gteps_after: float
    attributions: tuple[DeltaAttribution, ...]
    #: GTEPS change explained by the traversed-edge count (0 when both
    #: runs traverse the same edges).
    work_term: float
    #: Delta left unattributed (float rounding only).
    residual: float

    @property
    def gteps_delta(self) -> float:
        return self.gteps_after - self.gteps_before

    @property
    def coverage(self) -> float:
        """Fraction of the observed delta attributed to named cells —
        1.0 up to rounding; the CI gate demands >= 0.95."""
        if self.gteps_delta == 0.0:
            return 1.0
        return 1.0 - abs(self.residual) / abs(self.gteps_delta)

    def top(self, n: int = 5) -> tuple[DeltaAttribution, ...]:
        return self.attributions[:n]

    def format(self, *, top: int = 10) -> str:
        lines = [
            f"GTEPS {self.gteps_before:.4f} ({self.before_label}) -> "
            f"{self.gteps_after:.4f} ({self.after_label}): "
            f"{self.gteps_delta:+.4f} "
            f"({self.coverage:.1%} attributed)",
        ]
        if self.work_term:
            lines.append(f"  {self.work_term:+.4f} GTEPS  work change "
                         f"(traversed edges)")
        for a in self.attributions[:top]:
            lines.append("  " + a.line())
        rest = len(self.attributions) - top
        if rest > 0:
            tail = sum(a.gteps_delta for a in self.attributions[top:])
            lines.append(f"  {tail:+.4f} GTEPS  {rest} smaller cells")
        return "\n".join(lines)


def _cell_counters(profile: RunProfile,
                   key: tuple) -> dict[str, float]:
    """Counters worth quoting for one cell, from the profile."""
    level, phase, kclass = key
    if level is None:
        return {}
    lvl = profile.level_map().get(level)
    if lvl is None:
        return {}
    out: dict[str, float] = {}
    if phase == "queue-gen":
        out["queue_gen_ms"] = lvl.queue_gen_ms
        return out
    cls = next((c for c in lvl.classes if c.kernel_class == kclass), None)
    if cls is not None:
        out["gld_transactions"] = float(cls.gld_transactions)
        out["wasted_lane_steps"] = float(cls.wasted_lane_steps)
        out["stall_share"] = round(cls.stall_share, 4)
    if lvl.hub_cache_lookups:
        out["hub_cache_hit_rate"] = round(lvl.hub_cache_hit_rate, 4)
    return out


def diff_profiles(before: RunProfile, after: RunProfile,
                  *, top_counters: bool = True) -> ProfileDiff:
    """Attribute the GTEPS delta between two profiles to named levels,
    kernel classes and counters.

    The decomposition is exact.  With ``G = E / t`` (edges over time),

    ``dG = (E_b - E_a)/t_b  -  sum_cells E_a * dt_cell / (t_a * t_b)``

    where the cells partition each run's wall ticks (per level:
    queue-gen + one cell per kernel class; plus the unlabelled
    remainder).  The cell tick deltas therefore sum to ``t_b - t_a``
    exactly and the attributed GTEPS contributions sum to the observed
    delta — coverage 1.0 up to float rounding.  Antisymmetric whenever both
    runs traverse the same edges: ``diff(a, b)`` cells are exactly the
    negation of ``diff(b, a)``'s.
    """
    t_a, t_b = before.time_ms, after.time_ms
    if t_a <= 0 or t_b <= 0:
        raise ValueError("cannot diff a profile with no elapsed time")
    e_a, e_b = before.edges_traversed, after.edges_traversed
    cells_a = before.cells()
    cells_b = after.cells()

    work_term = (e_b - e_a) / (t_b * 1e-3) / 1e9

    attrs: list[DeltaAttribution] = []
    # -E_a / (t_a * t_b) in GTEPS per second of cell time-delta.
    scale = e_a / (t_a * 1e-3) / (t_b * 1e-3) / 1e9
    for key in sorted(set(cells_a) | set(cells_b),
                      key=lambda k: (k[0] is None, k[0] or 0, k[1],
                                     k[2] or "")):
        ta = cells_a.get(key, 0) / PS_PER_MS
        tb = cells_b.get(key, 0) / PS_PER_MS
        if ta == tb:
            continue
        counters: dict[str, tuple[float, float]] = {}
        if top_counters:
            ca = _cell_counters(before, key)
            cb = _cell_counters(after, key)
            for name in sorted(set(ca) | set(cb)):
                va, vb = ca.get(name, 0.0), cb.get(name, 0.0)
                if va != vb:
                    counters[name] = (va, vb)
        attrs.append(DeltaAttribution(
            level=key[0], phase=key[1], kernel_class=key[2],
            time_before_ms=ta, time_after_ms=tb,
            gteps_delta=-scale * (tb - ta) * 1e-3,
            counters=counters,
        ))
    attrs.sort(key=lambda a: (-abs(a.gteps_delta), a.level is None,
                              a.level or 0, a.phase, a.kernel_class or ""))

    gteps_delta = after.gteps - before.gteps
    attributed = work_term + sum(a.gteps_delta for a in attrs)
    return ProfileDiff(
        before_label=f"{before.config} on {before.graph}",
        after_label=f"{after.config} on {after.graph}",
        gteps_before=before.gteps,
        gteps_after=after.gteps,
        attributions=tuple(attrs),
        work_term=work_term,
        residual=gteps_delta - attributed,
    )


# ----------------------------------------------------------------------
# Rendering (text + self-contained HTML)
# ----------------------------------------------------------------------

def _table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    cols = list(rows[0])
    cells = [[f"{v:.4f}" if isinstance(v, float) else str(v)
              for v in row.values()] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells))
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths))
              for r in cells]
    return "\n".join(lines)


def format_profile(profile: RunProfile, *, max_findings: int = 8) -> str:
    """Terminal report: run summary, per-level table, class totals,
    ranked findings."""
    total = max(profile.time_ms, 1e-12)
    lines = [
        f"-- profile: {profile.config} on {profile.graph} "
        f"(source {profile.source}, {profile.device}) --",
        f"{profile.time_ms:.4f} simulated ms, {profile.gteps:.4f} GTEPS, "
        f"visited {profile.visited:,}, depth {profile.depth}",
        f"counters: ldst "
        f"{profile.counters['ldst_fu_utilization']:.1%}, stall "
        f"{profile.counters['stall_data_request']:.1%}, ipc "
        f"{profile.counters['ipc']:.2f}, power "
        f"{profile.counters['power_w']:.0f} W, simt "
        f"{profile.counters['simt_efficiency']:.1%}",
        "",
        "-- levels --",
    ]
    rows = []
    for lvl in profile.levels:
        dom = lvl.dominant_class
        rows.append({
            "lvl": lvl.level,
            "dir": lvl.direction,
            "frontier": lvl.frontier_count,
            "time_ms": lvl.time_ms,
            "share": f"{lvl.time_ms / total:.1%}",
            "qgen_ms": lvl.queue_gen_ms,
            "top_class": dom.kernel_class if dom else "-",
            "imb": f"{lvl.class_imbalance:.1f}x",
            "stall": f"{lvl.stall_data_request:.0%}",
            "bound": lvl.bound,
            "roof": f"{lvl.pct_of_roof:.0%}",
        })
    lines.append(_table(rows))
    lines += ["", "-- kernel classes (whole run) --"]
    rows = []
    for c in profile.class_totals():
        rows.append({
            "class": c.kernel_class,
            "launches": c.launches,
            "serial_ms": c.time_ms,
            "wall_ms": c.attributed_ms,
            "share": f"{c.attributed_ms / total:.1%}",
            "simt": f"{c.simt_efficiency:.0%}",
            "gld_tx": c.gld_transactions,
        })
    lines.append(_table(rows))
    lines += ["", "-- findings --"]
    findings = diagnose(profile, max_findings=max_findings)
    lines += [f.line() for f in findings] or ["(nothing above threshold)"]
    return "\n".join(lines)


def format_diff(diff: ProfileDiff, *, top: int = 10) -> str:
    return "\n".join(["-- differential profile --", diff.format(top=top)])


_CLASS_COLORS = {"thread": "#4c78a8", "warp": "#f58518", "cta": "#54a24b",
                 "grid": "#e45756", "scan": "#b2b2b2"}
_BOUND_COLORS = {"memory-bound": "#e45756", "compute-bound": "#4c78a8",
                 "latency-bound": "#f58518", "idle": "#b2b2b2"}

_HTML_STYLE = """
body{font-family:ui-monospace,SFMono-Regular,Menlo,monospace;margin:2rem;
background:#fff;color:#1a1a1a;max-width:70rem}
h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.8rem}
.bar{display:flex;height:1.4rem;margin:.15rem 0;border-radius:3px;
overflow:hidden;background:#f0f0f0}
.seg{height:100%}
.lvl{display:grid;grid-template-columns:11rem 1fr 16rem;gap:.6rem;
align-items:center;font-size:.8rem}
.meta{color:#555}
table{border-collapse:collapse;font-size:.8rem;margin:.5rem 0}
td,th{padding:.2rem .6rem;border-bottom:1px solid #ddd;text-align:right}
td:first-child,th:first-child{text-align:left}
.finding{margin:.3rem 0;padding:.4rem .6rem;border-left:4px solid #e45756;
background:#faf5f5;font-size:.85rem}
.legend span{display:inline-block;margin-right:1rem;font-size:.8rem}
.swatch{display:inline-block;width:.8rem;height:.8rem;border-radius:2px;
vertical-align:-1px;margin-right:.3rem}
.pos{color:#2a7a2a}.neg{color:#c33}
"""


def _esc(text: object) -> str:
    return _html.escape(str(text))


def _html_level_bar(lvl: LevelProfile, total: float) -> str:
    width = 100.0 * lvl.time_ms / total if total > 0 else 0.0
    segs = []
    if lvl.time_ms > 0 and lvl.queue_gen_ms > 0:
        segs.append(f'<div class="seg" title="queue-gen '
                    f'{lvl.queue_gen_ms:.4f} ms" '
                    f'style="width:{100 * lvl.queue_gen_ms / lvl.time_ms:.2f}%;'
                    f'background:#888"></div>')
    for c in lvl.classes:
        if lvl.time_ms <= 0 or c.attributed_ms <= 0:
            continue
        color = _CLASS_COLORS.get(c.kernel_class, "#999")
        segs.append(
            f'<div class="seg" title="{_esc(c.kernel_class)} '
            f'{c.attributed_ms:.4f} ms ({c.launches} launches)" '
            f'style="width:{100 * c.attributed_ms / lvl.time_ms:.2f}%;'
            f'background:{color}"></div>')
    bound_color = _BOUND_COLORS.get(lvl.bound, "#999")
    return (
        f'<div class="lvl">'
        f'<div class="meta">L{lvl.level} {_esc(lvl.direction)} '
        f'({lvl.frontier_count:,})</div>'
        f'<div class="bar" style="width:{max(width, 0.5):.2f}%">'
        + "".join(segs) +
        f'</div>'
        f'<div class="meta"><span class="swatch" '
        f'style="background:{bound_color}"></span>'
        f'{_esc(lvl.bound)} {lvl.pct_of_roof:.0%} roof, '
        f'stall {lvl.stall_data_request:.0%}</div>'
        f'</div>')


def render_html(profile: RunProfile, *, diff: ProfileDiff | None = None,
                title: str | None = None) -> str:
    """Self-contained flame-style HTML report (no external assets)."""
    total = max(profile.time_ms, 1e-12)
    title = title or (f"profile — {profile.config} on {profile.graph}")
    parts = [
        "<!DOCTYPE html>",
        f"<html><head><meta charset='utf-8'><title>{_esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='meta'>{profile.time_ms:.4f} simulated ms · "
        f"{profile.gteps:.4f} GTEPS · visited {profile.visited:,} · "
        f"depth {profile.depth} · device {_esc(profile.device)}</p>",
        "<div class='legend'>" + "".join(
            f"<span><span class='swatch' style='background:{color}'>"
            f"</span>{name}</span>"
            for name, color in [*_CLASS_COLORS.items(),
                                ("queue-gen", "#888")]) + "</div>",
        "<h2>Timeline (per level, width = share of run)</h2>",
    ]
    parts += [_html_level_bar(lvl, total) for lvl in profile.levels]

    parts.append("<h2>Findings</h2>")
    findings = diagnose(profile)
    if findings:
        parts += [f"<div class='finding'><b>#{f.rank} "
                  f"[{f.severity:.1%}]</b> "
                  f"{'L' + str(f.level) if f.level is not None else 'run'} "
                  f"— {_esc(f.title)}<br>{_esc(f.detail)}</div>"
                  for f in findings]
    else:
        parts.append("<p class='meta'>nothing above threshold</p>")

    parts.append("<h2>Kernel classes</h2><table><tr><th>class</th>"
                 "<th>launches</th><th>serial ms</th><th>wall ms</th>"
                 "<th>share</th><th>SIMT</th><th>gld tx</th></tr>")
    for c in profile.class_totals():
        parts.append(
            f"<tr><td>{_esc(c.kernel_class)}</td><td>{c.launches}</td>"
            f"<td>{c.time_ms:.4f}</td><td>{c.attributed_ms:.4f}</td>"
            f"<td>{c.attributed_ms / total:.1%}</td>"
            f"<td>{c.simt_efficiency:.0%}</td>"
            f"<td>{c.gld_transactions:,}</td></tr>")
    parts.append("</table>")

    if diff is not None:
        parts.append(
            f"<h2>Differential: {_esc(diff.before_label)} → "
            f"{_esc(diff.after_label)}</h2>"
            f"<p class='meta'>GTEPS {diff.gteps_before:.4f} → "
            f"{diff.gteps_after:.4f} "
            f"(<span class='{'pos' if diff.gteps_delta >= 0 else 'neg'}'>"
            f"{diff.gteps_delta:+.4f}</span>, {diff.coverage:.1%} "
            f"attributed)</p>"
            "<table><tr><th>cell</th><th>before ms</th><th>after ms</th>"
            "<th>ΔGTEPS</th><th>counters</th></tr>")
        for a in diff.top(12):
            counters = "; ".join(f"{k} {b:g}→{v:g}"
                                 for k, (b, v) in sorted(a.counters.items()))
            cls = "pos" if a.gteps_delta >= 0 else "neg"
            parts.append(
                f"<tr><td>{_esc(a.describe())}</td>"
                f"<td>{a.time_before_ms:.4f}</td>"
                f"<td>{a.time_after_ms:.4f}</td>"
                f"<td class='{cls}'>{a.gteps_delta:+.4f}</td>"
                f"<td>{_esc(counters)}</td></tr>")
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts)
