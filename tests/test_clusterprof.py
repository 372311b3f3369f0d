"""Cluster profiler: the per-tier attribution contract and everything
built on it.

The contract under test is *exactness*: every cluster-BFS level's wall
ticks are partitioned across the six fabric tiers under integer ``==``
— on arbitrary graphs, fabric shapes including the degenerate
1x1 / 1xN / Nx1 grids, and random fault plans.  The weak-scaling
decomposition inherits the same bar: the per-tier tick deltas sum to
``T(N) - T(base)`` at every node count.  On top of that:
byte-deterministic versioned JSON, the degraded-fabric diagnosis
ranking, and the text/HTML renders.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import reference_bfs_levels
from repro.bfs.cluster import cluster_enterprise_bfs
from repro.faults.plan import FaultPlan
from repro.gpu import Fabric
from repro.gpu.clock import ticks
from repro.graph import rmat_graph
from repro.observ.artifact import (
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.observ.clusterprof import (
    CLUSTER_PROFILE_SCHEMA,
    CLUSTER_TIERS,
    build_cluster_profile,
    cluster_to_json,
    decompose_weak_scaling,
    diagnose_cluster,
    format_cluster_profile,
    format_weak_scaling,
    profile_cluster_run,
    render_cluster_html,
)

from .test_differential import CORPUS, fuzzed

#: Fabric shapes including every degenerate grid the attribution must
#: survive: single device, single node, one GPU per node.
SHAPES = [(1, 1), (1, 2), (1, 4), (2, 1), (4, 1), (2, 2), (3, 2)]


@pytest.fixture(scope="module")
def skewed_graph():
    return rmat_graph(10, 8, seed=3, name="clusterprof-test")


def assert_exact_partition(profile):
    """Every level's tier slices sum to its ticks, levels sum to the
    run, and tier totals sum to the run."""
    for lvl in profile.levels:
        assert [s.tier for s in lvl.tiers] == list(CLUSTER_TIERS)
        assert sum(s.time_ps for s in lvl.tiers) == lvl.time_ps, lvl.level
    assert sum(lvl.time_ps for lvl in profile.levels) == profile.time_ps
    totals = profile.tier_totals()
    assert list(totals) == list(CLUSTER_TIERS)
    assert sum(totals.values()) == profile.time_ps


# ----------------------------------------------------------------------
# Exact partition: shapes x graphs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("nodes,gpus", SHAPES)
def test_partition_exact_on_every_shape(skewed_graph, nodes, gpus):
    g = skewed_graph
    source = int(np.argmax(g.out_degrees))
    res = cluster_enterprise_bfs(g, source, nodes, gpus)
    assert_exact_partition(build_cluster_profile(res))


@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
def test_partition_exact_on_differential_corpus(graph):
    """The same pathological corpus the scalar/vectorized gate replays:
    stars, chains, zero-degree hubs, duplicate edges, fuzz."""
    for source in (0, graph.num_vertices - 1):
        res = cluster_enterprise_bfs(graph, source, 2, 2,
                                     parts_per_node=8)
        assert_exact_partition(build_cluster_profile(res))


@given(seed=st.integers(0, 10_000), nodes=st.integers(1, 4),
       gpus=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_partition_exact_property(seed, nodes, gpus):
    """Hypothesis sweep: arbitrary fuzzed graphs x arbitrary grids."""
    graph = fuzzed(seed)
    res = cluster_enterprise_bfs(graph, 0, nodes, gpus, parts_per_node=4)
    assert_exact_partition(build_cluster_profile(res))


@given(seed=st.integers(0, 10_000), nodes=st.integers(1, 3),
       gpus=st.integers(1, 3),
       stragglers=st.dictionaries(st.integers(0, 8),
                                  st.floats(1.0, 8.0), max_size=3),
       bandwidth=st.floats(0.05, 1.0))
@settings(max_examples=25, deadline=None)
def test_fault_fuzz_ledgers_exact(seed, nodes, gpus, stragglers, bandwidth):
    """Random fault plans through the cluster: levels stay exact, the
    byte ledger conserves, and the tier slices partition every level's
    ticks."""
    graph = fuzzed(seed)
    plan = FaultPlan(name="fuzz", stragglers=stragglers,
                     bandwidth_factor=bandwidth, seed=seed)
    res = cluster_enterprise_bfs(graph, 0, nodes, gpus, parts_per_node=4,
                                 fabric=Fabric(nodes, gpus, fault_plan=plan))
    assert np.array_equal(res.result.levels,
                          reference_bfs_levels(graph, 0))
    assert res.bytes_intra + res.bytes_inter == sum(res.charged_payloads)
    profile = build_cluster_profile(res)
    assert_exact_partition(profile)
    assert profile.levels == tuple(res.levels)


def test_level_costs_partition_run_time(skewed_graph):
    """The run's own level records are exact before profiling."""
    res = cluster_enterprise_bfs(skewed_graph, 0, 3, 2)
    assert sum(lvl.time_ps for lvl in res.levels) == res.result.time_ps
    for lvl in res.levels:
        assert [s.tier for s in lvl.tiers] == list(CLUSTER_TIERS)
        assert sum(s.time_ps for s in lvl.tiers) == lvl.time_ps


# ----------------------------------------------------------------------
# Profile-level metrics
# ----------------------------------------------------------------------

def test_straggler_and_imbalance_metrics(skewed_graph):
    prof = build_cluster_profile(
        cluster_enterprise_bfs(skewed_graph, 0, 4, 2))
    assert 0.0 <= prof.straggler_share < 1.0
    assert prof.shard_imbalance >= 1.0
    shares = prof.tier_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    for lvl in prof.levels:
        assert lvl.straggler_wait_ms >= 0.0
        assert lvl.dominant_tier is None or \
            lvl.dominant_tier.tier in CLUSTER_TIERS


def test_profile_cluster_run_stamps_meta(skewed_graph):
    prof = profile_cluster_run(skewed_graph, 0, 2, 2, seed=11)
    assert prof.meta["seed"] == 11
    assert prof.meta["faults"] == "none"
    degraded = profile_cluster_run(skewed_graph, 0, 2, 2,
                                   faults="degraded-link")
    assert degraded.meta["faults"] == "degraded-link"
    assert degraded.inter_link != ""
    # Degrading the inter-node link only ever slows the run down.
    assert degraded.time_ms > prof.time_ms


# ----------------------------------------------------------------------
# Serialization: versioned, byte-deterministic, round-trips
# ----------------------------------------------------------------------

def _dump(profile) -> str:
    return json.dumps(cluster_to_json(profile), indent=2, sort_keys=True)


def test_profile_is_byte_deterministic(skewed_graph, tmp_path):
    a = profile_cluster_run(skewed_graph, 0, 4, 2, seed=5)
    b = profile_cluster_run(skewed_graph, 0, 4, 2, seed=5)
    assert _dump(a) == _dump(b)
    pa = write_artifact(tmp_path / "a.json", cluster_to_json(a))
    pb = write_artifact(tmp_path / "b.json", cluster_to_json(b))
    assert pa.read_bytes() == pb.read_bytes()


def test_json_round_trip(skewed_graph, tmp_path):
    prof = profile_cluster_run(skewed_graph, 0, 2, 2)
    doc = cluster_to_json(prof)
    assert doc["schema"] == CLUSTER_PROFILE_SCHEMA
    validate_artifact(doc, CLUSTER_PROFILE_SCHEMA)
    path = write_artifact(tmp_path / "p.json", doc)
    assert load_artifact(path, CLUSTER_PROFILE_SCHEMA) \
        == json.loads(_dump(prof))


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(schema="repro.profile/v1"), "schema"),
    (lambda d: d.pop("levels"), "lacks 'levels'"),
    (lambda d: d["levels"][0]["tiers"].pop(0), "tiers"),
    (lambda d: d["levels"][0]["tiers"][0].update(time_ps=-1), "tier ticks"),
    (lambda d: d.update(time_ps=d["time_ps"] + 1), "level ticks"),
])
def test_validate_rejects_tampering(skewed_graph, mutate, msg):
    doc = cluster_to_json(profile_cluster_run(skewed_graph, 0, 2, 2))
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(ValueError, match=msg):
        validate_artifact(doc, CLUSTER_PROFILE_SCHEMA)


# ----------------------------------------------------------------------
# Diagnosis
# ----------------------------------------------------------------------

def test_degraded_fabric_ranks_interconnect_first(skewed_graph):
    """The acceptance-criteria scenario: an InfiniBand-degraded run must
    surface an interconnect-bound finding in rank 1, deterministically."""
    prof = profile_cluster_run(skewed_graph, 0, 8, 1, parts_per_node=1,
                               faults="degraded-link")
    findings = diagnose_cluster(prof)
    assert findings, "degraded run produced no findings"
    assert findings[0].kind == "interconnect-bound"
    assert findings[0].rank == 1
    again = diagnose_cluster(profile_cluster_run(
        skewed_graph, 0, 8, 1, parts_per_node=1, faults="degraded-link"))
    assert findings == again
    ranks = [f.rank for f in findings]
    assert ranks == list(range(1, len(findings) + 1))
    severities = [f.severity for f in findings]
    assert severities == sorted(severities, reverse=True)


def test_diagnose_respects_max_findings(skewed_graph):
    prof = profile_cluster_run(skewed_graph, 0, 4, 2, faults="chaos")
    assert len(diagnose_cluster(prof, max_findings=1)) <= 1


# ----------------------------------------------------------------------
# Weak-scaling decomposition
# ----------------------------------------------------------------------

def _weak_profiles(counts=(1, 2, 4), base_scale=9):
    profiles = []
    for nodes in counts:
        scale = base_scale + int(round(np.log2(nodes)))
        g = rmat_graph(scale, 8, seed=1, name=f"weak-{nodes}n")
        res = cluster_enterprise_bfs(g, int(np.argmax(g.out_degrees)),
                                     nodes, 2, parts_per_node=8)
        profiles.append(build_cluster_profile(res))
    return profiles


def test_waterfall_terms_sum_to_gap():
    decomp = decompose_weak_scaling(_weak_profiles())
    base = decomp.steps[0]
    assert base.efficiency == 1.0 and base.gap == 0.0
    for step in decomp.steps:
        assert [t.tier for t in step.terms] == list(CLUSTER_TIERS)
        # The tier deltas account for the whole measured gap.
        assert sum(t.ps - t.base_ps for t in step.terms) == \
            step.time_ps - decomp.base_time_ps
        assert sum(t.term for t in step.terms) == pytest.approx(step.gap)
        assert step.efficiency == decomp.base_time_ps / step.time_ps
    assert decomp.worst_tier() in CLUSTER_TIERS


def test_waterfall_requires_profiles():
    with pytest.raises(ValueError, match="at least one"):
        decompose_weak_scaling([])


def test_bench_rows_carry_the_exact_tier_columns():
    """run_weak_scaling exposes the same attribution per row, and the
    six columns' ticks sum to the row's time_ms ticks."""
    from repro.bench.cluster import run_weak_scaling

    rows, results = run_weak_scaling((1, 2), base_scale=9,
                                     parts_per_node=8,
                                     return_results=True)
    assert len(rows) == len(results) == 2
    for row, res in zip(rows, results):
        cols = [row["compute_ms"], row["row_exchange_ms"],
                row["col_exchange_ms"], row["allreduce_intra_ms"],
                row["allreduce_inter_ms"], row["staging_ms"]]
        assert row["time_ms"] == res.time_ms
        assert sum(ticks(ms) for ms in cols) == res.result.time_ps


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def test_text_render_smoke(skewed_graph):
    prof = profile_cluster_run(skewed_graph, 0, 4, 2,
                               faults="degraded-link")
    text = format_cluster_profile(prof)
    assert "tiers (whole run)" in text
    for tier in CLUSTER_TIERS:
        assert tier in text
    assert "inter-node tier" in text  # the ranked finding made it in


def test_weak_scaling_render_smoke():
    decomp = decompose_weak_scaling(_weak_profiles((1, 2)))
    text = format_weak_scaling(decomp)
    assert "weak scaling waterfall" in text
    assert "worst tier" in text
    for tier in CLUSTER_TIERS:
        assert tier in text


def test_html_render_smoke(skewed_graph):
    prof = profile_cluster_run(skewed_graph, 0, 2, 2)
    decomp = decompose_weak_scaling(_weak_profiles((1, 2)))
    html = render_cluster_html(prof, decomposition=decomp)
    assert html.startswith("<!DOCTYPE html>")
    assert "node 0" in html and "node 1" in html  # the per-node Gantt
    assert "waterfall" in html
    for tier in CLUSTER_TIERS:
        assert tier in html
    # Without a decomposition the waterfall section is simply absent.
    assert "waterfall" not in render_cluster_html(prof)


# ----------------------------------------------------------------------
# CLI artifacts, as CI's cluster-report-smoke job produces them
# ----------------------------------------------------------------------

def test_traced_four_node_run_artifacts(tmp_path):
    """``cluster bfs --trace-out --profile-out`` on 4 nodes: one trace
    pid per node, allreduce flow chains, a valid 4-node profile."""
    from repro.cli import main
    from repro.observ import validate_trace

    trace = tmp_path / "cluster.trace.json"
    prof_path = tmp_path / "cluster.profile.json"
    assert main(["cluster", "bfs", "--rmat-scale", "12", "--nodes", "4",
                 "--gpus-per-node", "2", "--check",
                 "--trace-out", str(trace),
                 "--profile-out", str(prof_path)]) == 0
    doc = json.loads(trace.read_text())
    validate_trace(doc, expect_cluster=4)
    pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert pids == {0, 1, 2, 3}, pids
    chains = {e["id"] for e in doc["traceEvents"]
              if e.get("ph") in ("s", "t", "f")}
    assert chains, "no collective flow chains in the trace"
    # Loading re-validates the exact per-level partition.
    prof = load_artifact(prof_path, CLUSTER_PROFILE_SCHEMA)
    assert prof["num_nodes"] == 4
    assert prof["levels"], "profile has no levels"


def test_profile_built_twice_from_a_fresh_fabric_is_identical():
    g = rmat_graph(12, 8, seed=7, name="rmat12")
    dumps = [_dump(profile_cluster_run(g, 0, 4, 2)) for _ in range(2)]
    assert dumps[0] == dumps[1], "cluster profile not deterministic"


def test_report_verb_sections(tmp_path, capsys):
    """``report --cluster`` to 8 nodes: the waterfall and tier sections
    on stdout (kept as ``cluster-report.txt``), and an HTML page with
    the waterfall and the first and last node's Gantt tracks."""
    from repro.cli import main

    html_path = tmp_path / "cluster-report.html"
    assert main(["report", "--cluster", "--node-counts", "1,2,4,8",
                 "--base-scale", "12", "-o", str(html_path),
                 "--profile-out",
                 str(tmp_path / "focus.clusterprofile.json")]) == 0
    text = capsys.readouterr().out
    (tmp_path / "cluster-report.txt").write_text(text)
    for section in ("weak scaling waterfall", "tiers (whole run)",
                    "worst tier"):
        assert section in text, section
    html = html_path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "waterfall" in html.lower()
    assert "node 0" in html and "node 3" in html
