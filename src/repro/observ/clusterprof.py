"""Cluster profiler: exact per-tier wall-time attribution for cluster
BFS, ranked cluster findings, and a weak-scaling efficiency waterfall.

:mod:`repro.observ.profiler` answers "where did this *device's* time go"
per kernel class; this module answers the same question one layer up,
where the costs are fabric tiers instead of kernel granularities.  The
grid loop (:func:`~repro.bfs.cluster.cluster_enterprise_bfs`) records
each level as a :class:`ClusterLevelProfile`, partitioned into the six
cluster tiers —

``compute``           max-over-devices kernel time (the grid critical path)
``row_exchange``      NVLink-class intra-node row rings
``col_exchange``      InfiniBand-class inter-node column rings
``allreduce_intra``   frontier-consensus allreduce, fast-tier phases
``allreduce_inter``   frontier-consensus allreduce, slow-tier phase
``staging``           out-of-core adjacency page-in (max over nodes)

— in integer picosecond ticks (:mod:`repro.gpu.clock`).  Each tier's
charge is rounded to a tick where the level loop makes it, and the
level's ticks are their sum, so each level's tier slices sum to its
``time_ps`` and :meth:`ClusterProfile.tier_totals` to the run's
``time_ps`` under plain integer ``==``.  Because a weak-scaling run's
wall time is exactly partitioned at every node count,
:func:`decompose_weak_scaling` can express the gap from ideal scaling,
``1 - T(1)/T(N)``, as a per-tier waterfall of tick deltas that sum to
``T(N) - T(1)`` — naming *which tier ate the missing efficiency*
instead of reporting one opaque number.

Profiles serialize to a versioned, byte-deterministic JSON schema
(``repro.clusterprofile/v2``); :func:`diagnose_cluster` produces ranked
:class:`~repro.observ.profiler.Finding`\\ s (interconnect-bound,
staging-bound, node stragglers, latency-dominated allreduces) and
:func:`render_cluster_html` a self-contained report with a per-node
Gantt chart and the efficiency waterfall.
"""

from __future__ import annotations

import html as _html
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..gpu.clock import PS_PER_MS
from .artifact import register_artifact
from .profiler import Finding, _table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bfs.cluster import ClusterBFSResult
    from ..faults.plan import FaultPlan
    from ..gpu.fabric import Fabric
    from ..graph.csr import CSRGraph

__all__ = [
    "CLUSTER_PROFILE_SCHEMA",
    "CLUSTER_TIERS",
    "TierSlice",
    "ClusterLevelProfile",
    "ClusterProfile",
    "ScalingTerm",
    "ScalingStep",
    "WeakScalingDecomposition",
    "sum_tiers",
    "build_cluster_profile",
    "profile_cluster_run",
    "diagnose_cluster",
    "decompose_weak_scaling",
    "cluster_to_json",
    "format_cluster_profile",
    "format_weak_scaling",
    "render_cluster_html",
]

#: Schema tag; bump on any incompatible layout change.
CLUSTER_PROFILE_SCHEMA = "repro.clusterprofile/v2"

#: Cluster tiers in canonical report order.
CLUSTER_TIERS = ("compute", "row_exchange", "col_exchange",
                 "allreduce_intra", "allreduce_inter", "staging")


# ----------------------------------------------------------------------
# Profile data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TierSlice:
    """One tier's cost within one cluster level."""

    tier: str
    #: The ticks the level loop charged this tier; a level's slices sum
    #: to its ``time_ps``.
    time_ps: int
    #: Payload bytes this tier moved during the level (0 for tiers whose
    #: payloads are not tracked per level, e.g. the 8-byte allreduce).
    nbytes: int

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS


@dataclass(frozen=True)
class ClusterLevelProfile:
    """One cluster-BFS level, partitioned across the fabric tiers, as
    the grid loop charged it."""

    level: int
    direction: str
    frontier_count: int
    newly_visited: int
    #: Exactly what the level added to the run's wall clock, in ticks.
    time_ps: int
    tiers: tuple[TierSlice, ...]
    #: Per-node critical-path kernel ticks (the level pays the max).
    node_compute_ps: tuple[int, ...]
    #: Per-node concurrent page-in ticks (the level pays the max).
    node_staging_ps: tuple[int, ...]

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS

    def tier(self, name: str) -> TierSlice:
        for s in self.tiers:
            if s.tier == name:
                return s
        raise KeyError(name)

    @property
    def dominant_tier(self) -> TierSlice | None:
        live = [s for s in self.tiers if s.time_ps > 0]
        return max(live, key=lambda s: s.time_ps) if live else None

    @property
    def straggler_wait_ms(self) -> float:
        """Mean per-node idle time waiting for the slowest node's
        kernels: ``max(node_compute) - mean(node_compute)``.  0 on a
        perfectly balanced level (or a single node)."""
        if not self.node_compute_ps:
            return 0.0
        peak = max(self.node_compute_ps)
        total = sum(self.node_compute_ps)
        return (peak - total / len(self.node_compute_ps)) / PS_PER_MS


@dataclass(frozen=True)
class ClusterProfile:
    """Structured profile of one cluster traversal — the diffable CI
    artifact, and :func:`decompose_weak_scaling`'s per-node-count input."""

    algorithm: str
    graph: str
    source: int
    num_nodes: int
    gpus_per_node: int
    #: The run's wall clock, in ticks.
    time_ps: int
    edges_traversed: int
    visited: int
    depth: int
    levels: tuple[ClusterLevelProfile, ...]
    #: Exchange payloads per fabric tier plus staged adjacency bytes.
    bytes_intra: int
    bytes_inter: int
    bytes_read: int
    #: Per-node shard footprint on simulated storage.
    shard_bytes: tuple[int, ...]
    #: Measured advantage of the two-tier schedule over a flat ring
    #: (0.0 when communication-free).
    hierarchy_advantage: float
    #: Interconnect names, when the builder was handed the fabric.
    intra_link: str = ""
    inter_link: str = ""
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

    def tier_totals(self) -> dict[str, int]:
        """Whole-run ticks per tier, summing to ``time_ps``."""
        return sum_tiers(self.levels)

    def tier_shares(self) -> dict[str, float]:
        total = max(self.time_ps, 1)
        return {t: ps / total for t, ps in self.tier_totals().items()}

    @property
    def straggler_share(self) -> float:
        """Fraction of run time the average node spends waiting for the
        slowest node's kernels."""
        if self.time_ms <= 0:
            return 0.0
        return sum(l.straggler_wait_ms for l in self.levels) / self.time_ms

    @property
    def shard_imbalance(self) -> float:
        """Largest node shard over the mean shard (1.0 = balanced)."""
        live = [b for b in self.shard_bytes if b > 0]
        if not live:
            return 1.0
        return max(live) / (sum(live) / len(live))


# ----------------------------------------------------------------------
# Building profiles
# ----------------------------------------------------------------------

def sum_tiers(levels: Sequence[ClusterLevelProfile],
              attr: str = "time_ps") -> dict[str, int]:
    """Whole-run sum of one :class:`TierSlice` field (ticks, or
    ``"nbytes"``) per tier, in :data:`CLUSTER_TIERS` order."""
    totals = dict.fromkeys(CLUSTER_TIERS, 0)
    for lvl in levels:
        for s in lvl.tiers:
            totals[s.tier] += getattr(s, attr)
    return totals


def build_cluster_profile(
    res: "ClusterBFSResult",
    *,
    fabric: "Fabric | None" = None,
    meta: Mapping[str, object] | None = None,
) -> ClusterProfile:
    """Aggregate one finished cluster traversal into a
    :class:`ClusterProfile`.

    The levels are the traversal's own ``res.levels``, recorded at
    charge time by :func:`~repro.bfs.cluster.cluster_enterprise_bfs`;
    ``fabric`` only contributes the interconnect tier names.
    """
    import math

    adv = res.hierarchy_advantage
    return ClusterProfile(
        algorithm=res.result.algorithm,
        graph=res.result.graph_name,
        source=int(res.result.source),
        num_nodes=res.num_nodes,
        gpus_per_node=res.gpus_per_node,
        time_ps=res.result.time_ps,
        edges_traversed=int(res.result.edges_traversed),
        visited=int(res.result.visited),
        depth=int(res.result.depth),
        levels=tuple(res.levels),
        bytes_intra=int(res.bytes_intra),
        bytes_inter=int(res.bytes_inter),
        bytes_read=int(res.bytes_read),
        shard_bytes=tuple(int(b) for b in res.shard_bytes),
        hierarchy_advantage=adv if math.isfinite(adv) else 0.0,
        intra_link=fabric.intra.name if fabric is not None else "",
        inter_link=fabric.inter.name if fabric is not None else "",
        meta=dict(meta or {}),
    )


def profile_cluster_run(
    graph: "CSRGraph",
    source: int | None = None,
    num_nodes: int = 4,
    gpus_per_node: int = 2,
    *,
    parts_per_node: int = 32,
    seed: int = 7,
    faults: "FaultPlan | str | None" = None,
    config=None,
    spec=None,
    meta: Mapping[str, object] | None = None,
) -> ClusterProfile:
    """Run ``cluster_enterprise_bfs`` on a fresh fabric and profile it.

    ``faults`` is a :class:`~repro.faults.plan.FaultPlan` or a named
    profile string (``"degraded-link"``, ``"chaos"``, ...); the plan's
    bandwidth degradation lands on the inter-node tier and its
    stragglers on the nodes' devices.  The same inputs always produce a
    byte-identical profile.
    """
    from ..bfs.cluster import cluster_enterprise_bfs
    from ..gpu.fabric import Fabric
    from ..gpu.specs import KEPLER_K40
    from ..metrics import random_sources

    spec = spec or KEPLER_K40
    if source is None:
        source = int(random_sources(graph, 1, seed)[0])
    plan = None
    if faults is not None:
        if isinstance(faults, str):
            from ..faults.plan import profile as fault_profile
            plan = fault_profile(faults, seed=seed)
        else:
            plan = faults
    fabric = Fabric(num_nodes, gpus_per_node, spec, fault_plan=plan)
    res = cluster_enterprise_bfs(
        graph, source, num_nodes, gpus_per_node, fabric=fabric,
        parts_per_node=parts_per_node, config=config)
    return build_cluster_profile(
        res, fabric=fabric,
        meta=dict(meta or {}, seed=seed,
                  faults=plan.name if plan is not None else "none"))


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def cluster_to_json(profile: ClusterProfile) -> dict:
    """The versioned JSON document (deterministic for a fixed run)."""
    doc = asdict(profile)
    doc["schema"] = CLUSTER_PROFILE_SCHEMA
    doc["gteps"] = profile.gteps
    doc["tier_totals"] = profile.tier_totals()
    return doc


@register_artifact(CLUSTER_PROFILE_SCHEMA, indent=2)
def _check_cluster_profile(doc: Mapping) -> None:
    """Raise ``ValueError`` unless ``doc`` has the v2 cluster profile
    shape, including the exact tick partition of every level."""
    for key in ("algorithm", "graph", "time_ps", "num_nodes",
                "gpus_per_node", "levels", "shard_bytes"):
        if key not in doc:
            raise ValueError(f"cluster profile lacks {key!r}")
    if not isinstance(doc["levels"], (list, tuple)):
        raise ValueError("cluster profile levels must be an array")
    for i, lvl in enumerate(doc["levels"]):
        if not isinstance(lvl, Mapping) or "tiers" not in lvl:
            raise ValueError(f"levels[{i}] is not a cluster level profile")
        names = [s.get("tier") for s in lvl["tiers"]]
        if names != list(CLUSTER_TIERS):
            raise ValueError(
                f"levels[{i}] tiers {names} != {list(CLUSTER_TIERS)}")
        if sum(s["time_ps"] for s in lvl["tiers"]) != lvl["time_ps"]:
            raise ValueError(f"levels[{i}] tier ticks do not sum to the "
                             "level's time_ps")
    if sum(lvl["time_ps"] for lvl in doc["levels"]) != doc["time_ps"]:
        raise ValueError("level ticks do not sum to the run's time_ps")


# ----------------------------------------------------------------------
# Automated diagnosis
# ----------------------------------------------------------------------

def diagnose_cluster(profile: ClusterProfile, *, max_findings: int = 8
                     ) -> tuple[Finding, ...]:
    """Ranked cluster findings, most implicated run time first.

    Unlike the kernel profiler's :func:`~repro.observ.profiler.diagnose`,
    compute time never generates a finding here: a cluster run *should*
    spend its time computing, so only overhead tiers (interconnect,
    staging, collectives) and structural waste (stragglers, shard
    imbalance) can rank.  Deterministic: ties break on the finding kind.
    """
    total = max(profile.time_ms, 1e-12)
    shares = profile.tier_shares()
    scored: list[tuple[float, str, str, str]] = []

    inter_share = shares["col_exchange"] + shares["allreduce_inter"]
    if inter_share >= 0.10:
        link = profile.inter_link or "inter-node link"
        scored.append((
            inter_share, "interconnect-bound",
            f"inter-node tier {inter_share:.0%} of run",
            f"column rings {shares['col_exchange']:.0%} + allreduce "
            f"inter phase {shares['allreduce_inter']:.0%} on {link}; "
            f"{profile.bytes_inter:,} exchange bytes crossed nodes"))
    intra_share = shares["row_exchange"] + shares["allreduce_intra"]
    if intra_share >= 0.10:
        link = profile.intra_link or "intra-node link"
        scored.append((
            intra_share, "intranode-bound",
            f"intra-node tier {intra_share:.0%} of run",
            f"row rings {shares['row_exchange']:.0%} + allreduce intra "
            f"phases {shares['allreduce_intra']:.0%} on {link}; "
            f"{profile.bytes_intra:,} exchange bytes stayed on-node"))
    if shares["staging"] >= 0.10:
        cold = [l.level for l in profile.levels
                if l.tier("staging").time_ps > 0]
        scored.append((
            shares["staging"], "staging-bound",
            f"out-of-core staging {shares['staging']:.0%} of run",
            f"{profile.bytes_read:,} adjacency bytes paged from storage "
            f"across levels {cold[:4]}{'...' if len(cold) > 4 else ''}; "
            f"grow the partition cache or the per-node shard"))

    straggle = profile.straggler_share
    imbalance = profile.shard_imbalance
    if straggle >= 0.05 or imbalance > 1.5:
        worst = max(range(len(profile.shard_bytes)),
                    key=lambda i: profile.shard_bytes[i],
                    default=0) if profile.shard_bytes else 0
        scored.append((
            max(straggle, 0.0), "node-straggler",
            f"nodes idle {straggle:.0%} of run waiting for the slowest",
            f"shard imbalance {imbalance:.2f}x (node {worst} largest); "
            f"per-level compute max/mean gaps accumulate to "
            f"{straggle * total:.4f} ms"))

    ar_share = shares["allreduce_intra"] + shares["allreduce_inter"]
    if ar_share >= 0.02:
        small = sum(1 for l in profile.levels
                    if (l.tier("allreduce_intra").time_ps
                        + l.tier("allreduce_inter").time_ps)
                    > l.tier("compute").time_ps)
        scored.append((
            ar_share, "allreduce-latency",
            f"frontier-consensus allreduce {ar_share:.0%} of run",
            f"8-byte payload means the cost is pure link latency; "
            f"{small} level(s) pay more for consensus than for kernels "
            f"— batch or piggyback the counts on the exchanges"))

    scored.sort(key=lambda s: (-s[0], s[1]))
    return tuple(
        Finding(rank=i + 1, severity=sev, level=None, kind=kind,
                title=title, detail=detail)
        for i, (sev, kind, title, detail) in
        enumerate(scored[:max_findings]))


# ----------------------------------------------------------------------
# Weak-scaling efficiency decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingTerm:
    """One tier's contribution to the efficiency gap at one node count:
    its tick delta ``ps - base_ps`` over ``T(N)``."""

    tier: str
    base_ps: int
    ps: int
    term: float


@dataclass(frozen=True)
class ScalingStep:
    """One node count's efficiency, gap, and per-tier waterfall."""

    nodes: int
    gpus: int
    time_ps: int
    #: ``T(base) / T(N)`` — 1.0 is perfect weak scaling.
    efficiency: float
    #: ``1 - efficiency``: the terms' tick deltas sum to
    #: ``T(N) - T(base)`` exactly, so their ``term`` values sum to it.
    gap: float
    terms: tuple[ScalingTerm, ...]


@dataclass(frozen=True)
class WeakScalingDecomposition:
    """The gap from ideal weak scaling, per node count, as a per-tier
    waterfall.  Tier ``term``s answer "which tier ate the missing
    efficiency": a positive term means the tier grew relative to the
    base run, a negative one that it shrank (paying back gap)."""

    base_nodes: int
    base_time_ps: int
    steps: tuple[ScalingStep, ...]

    def worst_tier(self) -> str:
        """The tier contributing the most gap at the largest node
        count (canonical order breaks ties)."""
        if not self.steps:
            return "compute"
        last = self.steps[-1]
        best = max(last.terms, key=lambda t: t.term)
        return best.tier


def decompose_weak_scaling(
    profiles: Sequence[ClusterProfile],
) -> WeakScalingDecomposition:
    """Decompose a weak-scaling sweep's efficiency gaps per tier.

    ``profiles`` must be ordered by node count, the first being the
    reference (efficiency 1.0 by definition).  Because each profile's
    tier totals partition its wall ticks exactly, the tier deltas sum
    to ``T(N) - T(1)`` exactly, so

    ``gap(N) = (T(N) - T(1)) / T(N) = sum_tier (tier(N) - tier(1)) / T(N)``.
    """
    if not profiles:
        raise ValueError("need at least one profile to decompose")
    base = profiles[0]
    base_totals = base.tier_totals()
    steps: list[ScalingStep] = []
    for p in profiles:
        if p.time_ps <= 0:
            raise ValueError(f"profile at {p.num_nodes} nodes has no "
                             "elapsed time")
        totals = p.tier_totals()
        steps.append(ScalingStep(
            nodes=p.num_nodes,
            gpus=p.num_nodes * p.gpus_per_node,
            time_ps=p.time_ps,
            efficiency=base.time_ps / p.time_ps,
            gap=(p.time_ps - base.time_ps) / p.time_ps,
            terms=tuple(
                ScalingTerm(tier=t, base_ps=base_totals[t], ps=totals[t],
                            term=(totals[t] - base_totals[t]) / p.time_ps)
                for t in CLUSTER_TIERS),
        ))
    return WeakScalingDecomposition(
        base_nodes=base.num_nodes,
        base_time_ps=base.time_ps,
        steps=tuple(steps),
    )


# ----------------------------------------------------------------------
# Rendering (text + self-contained HTML)
# ----------------------------------------------------------------------

def format_cluster_profile(profile: ClusterProfile, *,
                           max_findings: int = 8) -> str:
    """Terminal report: run summary, per-level tier table, tier totals,
    ranked cluster findings."""
    total = max(profile.time_ms, 1e-12)
    fabric = (f"{profile.intra_link} / {profile.inter_link}"
              if profile.intra_link else "default fabric")
    lines = [
        f"-- cluster profile: {profile.algorithm} on {profile.graph} "
        f"(source {profile.source}) --",
        f"{profile.num_nodes} node(s) x {profile.gpus_per_node} GPU(s), "
        f"{fabric}",
        f"{profile.time_ms:.4f} simulated ms, {profile.gteps:.4f} GTEPS, "
        f"visited {profile.visited:,}, depth {profile.depth}",
        f"exchange bytes intra {profile.bytes_intra:,} / inter "
        f"{profile.bytes_inter:,}, staged {profile.bytes_read:,}, "
        f"hierarchy advantage {profile.hierarchy_advantage:.2f}x, "
        f"straggler wait {profile.straggler_share:.1%}",
        "",
        "-- levels --",
    ]
    rows = []
    for lvl in profile.levels:
        dom = lvl.dominant_tier
        rows.append({
            "lvl": lvl.level,
            "dir": lvl.direction,
            "frontier": lvl.frontier_count,
            "time_ms": lvl.time_ms,
            "share": f"{lvl.time_ms / total:.1%}",
            "compute": lvl.tier("compute").time_ms,
            "row": lvl.tier("row_exchange").time_ms,
            "col": lvl.tier("col_exchange").time_ms,
            "allreduce": (lvl.tier("allreduce_intra").time_ps
                          + lvl.tier("allreduce_inter").time_ps) / PS_PER_MS,
            "staging": lvl.tier("staging").time_ms,
            "top": dom.tier if dom else "-",
        })
    lines.append(_table(rows))
    lines += ["", "-- tiers (whole run) --"]
    totals = profile.tier_totals()
    shares = profile.tier_shares()
    lines.append(_table([
        {"tier": t, "wall_ms": totals[t] / PS_PER_MS,
         "share": f"{shares[t]:.1%}"}
        for t in CLUSTER_TIERS]))
    lines += ["", "-- findings --"]
    findings = diagnose_cluster(profile, max_findings=max_findings)
    lines += [f.line() for f in findings] or ["(nothing above threshold)"]
    return "\n".join(lines)


def format_weak_scaling(decomp: WeakScalingDecomposition) -> str:
    """Terminal waterfall: one row per node count, one gap-share column
    per tier."""
    lines = [
        f"-- weak scaling waterfall (base {decomp.base_nodes} node(s), "
        f"T_base {decomp.base_time_ps / PS_PER_MS:.4f} ms) --",
    ]
    rows = []
    for step in decomp.steps:
        row: dict[str, object] = {
            "nodes": step.nodes,
            "gpus": step.gpus,
            "time_ms": step.time_ps / PS_PER_MS,
            "eff": f"{step.efficiency:.3f}",
            "gap": f"{step.gap:+.1%}",
        }
        for t in step.terms:
            row[t.tier] = f"{t.term:+.1%}"
        rows.append(row)
    lines.append(_table(rows))
    if decomp.steps and decomp.steps[-1].gap > 0:
        lines.append(f"worst tier at {decomp.steps[-1].nodes} nodes: "
                     f"{decomp.worst_tier()}")
    return "\n".join(lines)


_TIER_COLORS = {
    "compute": "#4c78a8",
    "row_exchange": "#54a24b",
    "col_exchange": "#e45756",
    "allreduce_intra": "#72b7b2",
    "allreduce_inter": "#f58518",
    "staging": "#b279a2",
}
_WAIT_COLOR = "#e8e8e8"

_CLUSTER_HTML_STYLE = """
body{font-family:ui-monospace,SFMono-Regular,Menlo,monospace;margin:2rem;
background:#fff;color:#1a1a1a;max-width:72rem}
h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.8rem}
.bar{display:flex;height:1.4rem;margin:.15rem 0;border-radius:3px;
overflow:hidden;background:#f7f7f7}
.seg{height:100%}
.lvl{display:grid;grid-template-columns:12rem 1fr 12rem;gap:.6rem;
align-items:center;font-size:.8rem}
.lane{display:grid;grid-template-columns:6rem 1fr;gap:.6rem;
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
.pos{color:#c33}.neg{color:#2a7a2a}
.wf{display:flex;height:1.1rem;border-radius:2px;overflow:hidden;
background:#f7f7f7;min-width:16rem}
"""


def _esc(text: object) -> str:
    return _html.escape(str(text))


def _seg(width_pct: float, color: str, title: str) -> str:
    if width_pct <= 0:
        return ""
    return (f'<div class="seg" title="{_esc(title)}" '
            f'style="width:{width_pct:.3f}%;background:{color}"></div>')


def _html_level_bar(lvl: ClusterLevelProfile, total: float) -> str:
    width = 100.0 * lvl.time_ms / total if total > 0 else 0.0
    segs = []
    for s in lvl.tiers:
        if lvl.time_ps <= 0 or s.time_ps <= 0:
            continue
        segs.append(_seg(100 * s.time_ps / lvl.time_ps,
                         _TIER_COLORS.get(s.tier, "#999"),
                         f"{s.tier} {s.time_ms:.5f} ms"))
    dom = lvl.dominant_tier
    return (
        f'<div class="lvl">'
        f'<div class="meta">L{lvl.level} {_esc(lvl.direction)} '
        f'({lvl.frontier_count:,})</div>'
        f'<div class="bar" style="width:{max(width, 0.5):.2f}%">'
        + "".join(segs) +
        f'</div>'
        f'<div class="meta">{_esc(dom.tier) if dom else "idle"}, '
        f'wait {lvl.straggler_wait_ms:.5f} ms</div>'
        f'</div>')


def _html_gantt(profile: ClusterProfile) -> list[str]:
    """Per-node lanes: each node's simulated timeline across all levels
    (stage, stage-wait, compute, straggler-wait, then the shared
    exchange/collective window) — the straggler structure at a glance."""
    total = max(profile.time_ms, 1e-12)
    parts = []
    for node in range(profile.num_nodes):
        segs: list[str] = []
        for lvl in profile.levels:
            stage_peak = max(lvl.node_staging_ps, default=0) / PS_PER_MS
            comp_peak = max(lvl.node_compute_ps, default=0) / PS_PER_MS
            stage = (lvl.node_staging_ps[node] / PS_PER_MS
                     if node < len(lvl.node_staging_ps) else 0.0)
            comp = (lvl.node_compute_ps[node] / PS_PER_MS
                    if node < len(lvl.node_compute_ps) else 0.0)
            comm = lvl.time_ms - stage_peak - comp_peak
            pct = 100.0 / total
            segs.append(_seg(stage * pct, _TIER_COLORS["staging"],
                             f"L{lvl.level} stage {stage:.5f} ms"))
            segs.append(_seg((stage_peak - stage) * pct, _WAIT_COLOR,
                             f"L{lvl.level} stage wait"))
            segs.append(_seg(comp * pct, _TIER_COLORS["compute"],
                             f"L{lvl.level} compute {comp:.5f} ms"))
            segs.append(_seg((comp_peak - comp) * pct, _WAIT_COLOR,
                             f"L{lvl.level} straggler wait "
                             f"{comp_peak - comp:.5f} ms"))
            segs.append(_seg(comm * pct, _TIER_COLORS["col_exchange"],
                             f"L{lvl.level} exchange+allreduce "
                             f"{comm:.5f} ms"))
        parts.append(
            f'<div class="lane"><div class="meta">node {node}</div>'
            f'<div class="bar">' + "".join(segs) + '</div></div>')
    return parts


def _html_waterfall(decomp: WeakScalingDecomposition) -> list[str]:
    parts = ["<table><tr><th>nodes</th><th>time ms</th>"
             "<th>efficiency</th><th>gap</th><th>waterfall</th></tr>"]
    for step in decomp.steps:
        span = max((abs(t.term) for t in step.terms), default=0.0)
        scale = 100.0 / max(sum(abs(t.term) for t in step.terms), 1e-12)
        bars = "".join(
            _seg(abs(t.term) * scale, _TIER_COLORS.get(t.tier, "#999"),
                 f"{t.tier} {t.term:+.2%}")
            for t in step.terms if abs(t.term) > 0) if span else ""
        parts.append(
            f"<tr><td>{step.nodes}</td>"
            f"<td>{step.time_ps / PS_PER_MS:.4f}</td>"
            f"<td>{step.efficiency:.3f}</td>"
            f"<td class='{'pos' if step.gap > 0 else 'neg'}'>"
            f"{step.gap:+.1%}</td>"
            f"<td><div class='wf'>{bars}</div></td></tr>")
    parts.append("</table>")
    return parts


def render_cluster_html(
    profile: ClusterProfile,
    *,
    decomposition: WeakScalingDecomposition | None = None,
    title: str | None = None,
) -> str:
    """Self-contained cluster report: per-level tier bars, a per-node
    Gantt chart, ranked findings, and (when given) the weak-scaling
    efficiency waterfall.  No external assets."""
    total = max(profile.time_ms, 1e-12)
    title = title or (f"cluster profile — {profile.algorithm} "
                      f"on {profile.graph}")
    parts = [
        "<!DOCTYPE html>",
        f"<html><head><meta charset='utf-8'><title>{_esc(title)}</title>",
        f"<style>{_CLUSTER_HTML_STYLE}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='meta'>{profile.num_nodes} node(s) × "
        f"{profile.gpus_per_node} GPU(s) · {profile.time_ms:.4f} "
        f"simulated ms · {profile.gteps:.4f} GTEPS · visited "
        f"{profile.visited:,} · depth {profile.depth} · "
        f"{_esc(profile.intra_link or 'intra')} / "
        f"{_esc(profile.inter_link or 'inter')}</p>",
        "<div class='legend'>" + "".join(
            f"<span><span class='swatch' style='background:{color}'>"
            f"</span>{name}</span>"
            for name, color in [*_TIER_COLORS.items(),
                                ("wait", _WAIT_COLOR)]) + "</div>",
        "<h2>Per-level tiers (width = share of run)</h2>",
    ]
    parts += [_html_level_bar(lvl, total) for lvl in profile.levels]

    parts.append("<h2>Per-node Gantt (simulated timeline)</h2>")
    parts += _html_gantt(profile)

    parts.append("<h2>Tier totals</h2><table><tr><th>tier</th>"
                 "<th>wall ms</th><th>share</th><th>bytes</th></tr>")
    totals = profile.tier_totals()
    shares = profile.tier_shares()
    tier_bytes = {"row_exchange": profile.bytes_intra,
                  "col_exchange": profile.bytes_inter,
                  "staging": profile.bytes_read}
    for t in CLUSTER_TIERS:
        parts.append(
            f"<tr><td>{_esc(t)}</td><td>{totals[t] / PS_PER_MS:.4f}</td>"
            f"<td>{shares[t]:.1%}</td>"
            f"<td>{tier_bytes.get(t, 0):,}</td></tr>")
    parts.append("</table>")

    parts.append("<h2>Findings</h2>")
    findings = diagnose_cluster(profile)
    if findings:
        parts += [f"<div class='finding'><b>#{f.rank} "
                  f"[{f.severity:.1%}]</b> {_esc(f.kind)} — "
                  f"{_esc(f.title)}<br>{_esc(f.detail)}</div>"
                  for f in findings]
    else:
        parts.append("<p class='meta'>nothing above threshold</p>")

    if decomposition is not None:
        parts.append("<h2>Weak-scaling efficiency waterfall "
                     f"(base {decomposition.base_nodes} node(s), "
                     f"T_base {decomposition.base_time_ps / PS_PER_MS:.4f} "
                     "ms)</h2>")
        parts += _html_waterfall(decomposition)
        last = decomposition.steps[-1] if decomposition.steps else None
        if last is not None and last.gap > 0:
            parts.append(f"<p class='meta'>worst tier at {last.nodes} "
                         f"nodes: {_esc(decomposition.worst_tier())}</p>")

    parts.append("</body></html>")
    return "\n".join(parts)
