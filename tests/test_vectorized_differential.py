"""Golden digests of every traversal the simulator runs (the
bit-identity gate).

Each case runs one workload — every BFS variant over the pathological
corpus, the BL/TS/WB/HC ablation matrix, the switch configurations,
MS-BFS waves, the counter and TEPS figures, the chaos fault matrix,
cluster runs and the serving stack — and compares the SHA-256 of
everything it observes with the digest recorded for it in
:data:`tests.test_golden_runs.DIGESTS`.  The contract is *bit-identity*:
not "close", but the same distance arrays, the same parents, the same
simulated milliseconds, the same counter snapshots and the same GTEPS
figures, byte for byte.  Any divergence — a reordered float reduction, a
different parent pick, a dropped kernel launch — fails here by name
before it can become a silently wrong figure.

The digests were recorded while the seed's scalar implementations still
ran beside the vectorized hot paths, and both gave the same digest on
every case.  Regenerate them with ``python -m tests.test_golden_runs``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import COMPARISON_SYSTEMS
from repro.bfs import enterprise_bfs, hybrid_bfs, ms_bfs
from repro.bfs.bottomup import bottomup_bfs
from repro.bfs.cluster import cluster_enterprise_bfs
from repro.bfs.enterprise import ABLATION_CONFIGS, EnterpriseConfig
from repro.bfs.statusarray import status_array_bfs
from repro.bfs.topdown import topdown_atomic_bfs
from repro.graph import rmat_graph

from .test_differential import CORPUS, disconnected, fuzzed, star
from .test_golden_runs import check_digest, run_snapshot, snapshot

VARIANTS = {
    "topdown": topdown_atomic_bfs,
    "bottomup": bottomup_bfs,
    "statusarray": status_array_bfs,
    "hybrid": hybrid_bfs,
    "enterprise": enterprise_bfs,
    **{k.lower(): v for k, v in COMPARISON_SYSTEMS.items()},
}

#: Small, structurally-diverse slice of the corpus for the expensive
#: cross-products; the full corpus runs in the single-variant sweep.
SMALL_CORPUS = [CORPUS[0], CORPUS[1], CORPUS[2], CORPUS[5],
                fuzzed(31), fuzzed(32)]


# ----------------------------------------------------------------------
# Single-source variants over the pathological corpus
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_bit_identical_on_corpus(graph, variant, request):
    fn = VARIANTS[variant]
    check_digest(request, [snapshot(fn(graph, source))
                           for source in (0, graph.num_vertices - 1)])


@pytest.mark.parametrize("config", sorted(ABLATION_CONFIGS))
def test_ablation_matrix_bit_identical(config, request):
    """BL/TS/WB/HC on an R-MAT graph big enough to exercise every
    direction and queue class."""
    graph = rmat_graph(9, edge_factor=8, seed=5)
    cfg = ABLATION_CONFIGS[config]
    check_digest(request, [
        snapshot(enterprise_bfs(graph, source, config=cfg))
        for source in (0, 33, graph.num_vertices - 1)])


@pytest.mark.parametrize("kwargs", [
    {"switch_policy": "alpha"},
    {"switch_scan": "interleaved"},
    {"switch_policy": "alpha", "switch_scan": "interleaved"},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_switch_configs_bit_identical(kwargs, request):
    graph = rmat_graph(9, edge_factor=10, seed=8)
    cfg = EnterpriseConfig(**kwargs)
    check_digest(request, [
        snapshot(enterprise_bfs(graph, source, config=cfg))
        for source in (1, 200)])


# ----------------------------------------------------------------------
# MS-BFS waves
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", SMALL_CORPUS, ids=lambda g: g.name)
def test_msbfs_waves_bit_identical(graph, request):
    sources = np.array([0, graph.num_vertices // 2,
                        graph.num_vertices - 1], dtype=np.int64)
    r = ms_bfs(graph, sources)
    check_digest(request, (r.sources, r.levels, r.time_ms,
                           tuple(r.union_frontiers)))


# ----------------------------------------------------------------------
# Counters / GTEPS figures
# ----------------------------------------------------------------------

def test_counters_and_teps_bit_identical(request):
    """The Fig. 16 counter aggregates and the headline TEPS number are
    float-exact, not merely approximately equal."""
    from repro.gpu.counters import aggregate_counters
    from repro.gpu.kernels import sweep_kernel
    from repro.gpu.memory import sequential_transactions
    from repro.gpu.specs import KEPLER_K40

    kernels = []
    for size in (1, 17, 300, 4096, 65536):
        access = sequential_transactions(2 * size, 8, KEPLER_K40)
        kernels.append(sweep_kernel(size, access, KEPLER_K40,
                                    name=f"k{size}", instr_per_element=4))
    counters = aggregate_counters(kernels, KEPLER_K40)
    graph = rmat_graph(9, edge_factor=8, seed=5)
    check_digest(request, (
        (counters.gld_transactions, counters.ldst_fu_utilization,
         counters.stall_data_request, counters.ipc, counters.power_w,
         counters.elapsed_ms, counters.instructions,
         counters.useful_lane_steps, counters.wasted_lane_steps,
         counters.energy_j),
        enterprise_bfs(graph, 3).teps))


# ----------------------------------------------------------------------
# Chaos fault matrix
# ----------------------------------------------------------------------

def test_chaos_matrix_bit_identical(request):
    """The full fault matrix — stragglers, device loss, wave failures —
    stays exact and produces the recorded report."""
    from repro.faults import PROFILES, profile
    from repro.faults.harness import run_chaos_matrix
    from repro.serve import ServeConfig, TraceConfig

    report = run_chaos_matrix(
        fuzzed(77), [profile(name) for name in sorted(PROFILES)],
        trace_config=TraceConfig(num_queries=60, seed=9),
        config=ServeConfig(num_gpus=2, deadline_ms=0.4, cache_capacity=4))
    assert report.ok, "chaos matrix must stay exact"
    check_digest(request, [sorted(row.items()) for row in report.rows()])


# ----------------------------------------------------------------------
# Cluster runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", SMALL_CORPUS, ids=lambda g: g.name)
def test_cluster_profile_bit_identical(graph, request):
    """The run behind the ``repro.clusterprofile/v2`` document (levels,
    parents, per-level tier costs, node compute/staging ledgers and
    exchange byte counters), and the document itself: its tier ledgers
    add integer ticks, so it reads the same on every Python."""
    from repro.observ.clusterprof import build_cluster_profile, \
        cluster_to_json

    run = cluster_enterprise_bfs(graph, 0, 2, 2, parts_per_node=4)
    check_digest(request, run_snapshot(run))
    check_digest(request, cluster_to_json(build_cluster_profile(run)),
                 ":document")


def test_weak_scaling_rows_bit_identical(request):
    """The cluster runs behind the rows of ``report --cluster``."""
    from repro.bench.cluster import run_weak_scaling

    _, runs = run_weak_scaling((1, 2), base_scale=8, parts_per_node=4,
                               return_results=True)
    check_digest(request, [run_snapshot(run) for run in runs])


# ----------------------------------------------------------------------
# Serving stack
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", [star(48), disconnected(45), fuzzed(55)],
                         ids=lambda g: g.name)
def test_serve_stack_bit_identical(graph, request):
    """Every replayed query answer, including serving metadata and the
    tail-latency phase attribution."""
    from repro.serve import ServeConfig, ServeEngine, TraceConfig, replay, \
        synthetic_trace

    trace = synthetic_trace(graph, TraceConfig(num_queries=80, seed=13))
    engine = ServeEngine(graph, ServeConfig(num_gpus=2, deadline_ms=0.5,
                                            cache_capacity=8))
    check_digest(request, [
        (r.query.qid, r.ok, r.served_by, r.wave_id, r.completed_ms,
         r.distance, r.reachable, r.levels, r.parents,
         None if r.phases is None else sorted(r.phases.items()))
        for r in replay(engine, trace)])
