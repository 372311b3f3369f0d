"""Differential harness: every BFS variant vs. a plain CPU reference.

A fuzzed corpus of pathological graphs — stars, chains, zero-out-degree
hubs, duplicate edges, self-loops, disconnected components, and random
soups mixing all of the above — is traversed by every single-source
variant plus per-source MS-BFS, and each result must match the reference
level array exactly and carry a ``graph500_validate``-clean parent tree.
The serving engine rides the same harness: its batched answers must be
bit-identical to answers computed one BFS at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import (
    bottomup_bfs,
    enterprise_bfs,
    hybrid_bfs,
    ms_bfs,
    reference_bfs_levels,
    topdown_atomic_bfs,
)
from repro.bfs.common import UNVISITED
from repro.bfs.enterprise import ABLATION_CONFIGS
from repro.bfs.validate500 import graph500_validate
from repro.gpu import GPUDevice
from repro.gpu.clock import PS_PER_MS
from repro.graph import CSRGraph, from_edges
from repro.metrics import random_sources
from repro.observ import run_snapshot
from repro.storage import ooc_enterprise_bfs

VARIANTS = {
    "topdown": topdown_atomic_bfs,
    "bottomup": bottomup_bfs,
    "hybrid": hybrid_bfs,
    "enterprise": enterprise_bfs,
}


# ----------------------------------------------------------------------
# Pathological corpus
# ----------------------------------------------------------------------

def _graph(src, dst, n, *, directed=False, name="fuzz") -> CSRGraph:
    return from_edges(np.asarray(src, dtype=np.int64),
                      np.asarray(dst, dtype=np.int64), n,
                      directed=directed, name=name)


def star(n: int) -> CSRGraph:
    """Hub 0 connected to everyone — one explosion level."""
    spokes = np.arange(1, n)
    return _graph(np.zeros(n - 1, dtype=np.int64), spokes, n, name="star")


def chain(n: int) -> CSRGraph:
    """A path — as many levels as vertices, frontier width 1."""
    return _graph(np.arange(n - 1), np.arange(1, n), n, name="chain")


def zero_degree_hub(n: int) -> CSRGraph:
    """Directed: everyone points at a sink hub with no out-edges."""
    others = np.arange(1, n)
    src = np.concatenate([others, np.arange(1, n - 1)])
    dst = np.concatenate([np.zeros(n - 1, dtype=np.int64),
                          np.arange(2, n)])
    return _graph(src, dst, n, directed=True, name="sink-hub")


def duplicate_edges(n: int) -> CSRGraph:
    """Every chain edge repeated four times (the paper keeps
    duplicates)."""
    src = np.repeat(np.arange(n - 1), 4)
    dst = np.repeat(np.arange(1, n), 4)
    return _graph(src, dst, n, name="dup-chain")


def self_loops(n: int) -> CSRGraph:
    """A ring where every vertex also points at itself."""
    ring_src = np.arange(n)
    ring_dst = (np.arange(n) + 1) % n
    loops = np.arange(n)
    return _graph(np.concatenate([ring_src, loops]),
                  np.concatenate([ring_dst, loops]), n, name="loops")


def disconnected(n: int) -> CSRGraph:
    """Two cliques with no bridge plus isolated vertices."""
    half = n // 3
    a = [(i, j) for i in range(half) for j in range(half) if i != j]
    b = [(half + i, half + j) for i in range(half) for j in range(half)
         if i != j]
    src, dst = zip(*(a + b))
    return _graph(src, dst, n, directed=True, name="islands")


def fuzzed(seed: int) -> CSRGraph:
    """Random soup: duplicates, self-loops, stars, isolated vertices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 120))
    m = int(rng.integers(n, 6 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    # Sprinkle self-loops and duplicated rows.
    loops = rng.integers(0, n, size=max(m // 10, 1))
    src = np.concatenate([src, loops, src[: m // 5]])
    dst = np.concatenate([dst, loops, dst[: m // 5]])
    return _graph(src, dst, n, directed=bool(seed % 2),
                  name=f"fuzz-{seed}")


CORPUS = [star(64), chain(40), zero_degree_hub(48), duplicate_edges(32),
          self_loops(50), disconnected(45)] + \
         [fuzzed(seed) for seed in range(12)]


def _sources(graph: CSRGraph) -> list[int]:
    picks = {0, graph.num_vertices - 1}
    if graph.num_edges:
        picks.add(int(graph.out_degrees.argmax()))
        picks.update(int(s) for s in
                     random_sources(graph, 2, seed=11))
    return sorted(picks)


# ----------------------------------------------------------------------
# Single-source variants vs. reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_matches_reference(graph, variant):
    fn = VARIANTS[variant]
    for source in _sources(graph):
        expected = reference_bfs_levels(graph, source)
        result = fn(graph, source)
        assert np.array_equal(result.levels, expected), (
            f"{variant} levels diverge from reference on {graph.name} "
            f"from {source}")
        report = graph500_validate(result, graph)
        assert report.ok, (
            f"{variant} on {graph.name} from {source}: {report.line()}")


@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
def test_msbfs_matches_reference_per_source(graph):
    sources = np.array(_sources(graph), dtype=np.int64)
    result = ms_bfs(graph, sources)
    for i, s in enumerate(sources):
        expected = reference_bfs_levels(graph, int(s))
        assert np.array_equal(result.levels[i], expected), (
            f"MS-BFS lane {i} (source {s}) diverges on {graph.name}")


# ----------------------------------------------------------------------
# Cluster traversal vs. reference (the tentpole's correctness gate)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
def test_cluster_matches_reference_on_corpus(graph):
    """Sharding the traversal across simulated nodes — degree-balanced
    row bounds, out-of-core paging, two-tier exchanges — must change
    costs, never answers: levels stay bit-identical to the reference on
    every pathological graph, and the exchange ledger stays exact."""
    from repro.bfs import cluster_enterprise_bfs

    nodes = min(2, graph.num_vertices)
    for source in _sources(graph)[:2]:
        expected = reference_bfs_levels(graph, source)
        res = cluster_enterprise_bfs(graph, source, nodes, 2,
                                     parts_per_node=4)
        assert np.array_equal(res.result.levels, expected), (
            f"cluster levels diverge from reference on {graph.name} "
            f"from {source}")
        assert res.bytes_exchanged == sum(res.charged_payloads)
        report = graph500_validate(res.result, graph)
        assert report.ok, (
            f"cluster on {graph.name} from {source}: {report.line()}")


# ----------------------------------------------------------------------
# Every device tick belongs to a level or to the trailing queue
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
def test_level_ticks_and_tail_add_up_to_run_time(graph):
    """The traces' queue-generation and expansion ticks plus the queue
    generated after the last level (a switch scan or bottom-up filter
    that came out empty) are the run's device ticks, with ``==``, for
    every ablation config from both end vertices, in memory and out of
    core."""
    for source in (0, graph.num_vertices - 1):
        for name, config in ABLATION_CONFIGS.items():
            in_memory = enterprise_bfs(graph, source, device=GPUDevice(),
                                       config=config)
            out_of_core = ooc_enterprise_bfs(
                graph, source, num_partitions=4, device=GPUDevice(),
                config=config).result
            for result in (in_memory, out_of_core):
                level_ps = sum(t.queue_gen_ps + t.expand_ps
                               for t in result.traces)
                assert level_ps + result.tail_queue_gen_ps == \
                    result.time_ps, (result.algorithm, name, source)


@pytest.mark.parametrize("graph", CORPUS, ids=lambda g: g.name)
def test_prefetch_overlaps_io_and_keeps_the_tail(graph):
    """With prefetch, each level costs its queue generation plus the
    larger of its I/O and its kernels (the out-of-core expansion ticks
    less the in-memory run's), and the queue generated after the last
    level is still charged, for every ablation config from both end
    vertices."""
    for source in (0, graph.num_vertices - 1):
        for name, config in ABLATION_CONFIGS.items():
            in_memory = enterprise_bfs(graph, source, device=GPUDevice(),
                                       config=config)
            prefetched = ooc_enterprise_bfs(
                graph, source, num_partitions=4, device=GPUDevice(),
                config=config, prefetch=True).result
            expected = prefetched.tail_queue_gen_ps
            for o, m in zip(prefetched.traces, in_memory.traces):
                io = o.expand_ps - m.expand_ps
                expected += o.queue_gen_ps + max(io, o.expand_ps - io)
            assert prefetched.time_ps == expected, (name, source)


def test_trailing_queue_generation_reaches_the_snapshot():
    """HC on the star from its last spoke finds every vertex at the
    switch level, so the bottom-up filter after it comes out empty: its
    ticks are the tail, and the run snapshot's queue generation counts
    them."""
    result = enterprise_bfs(star(64), 63, device=GPUDevice(),
                            config=ABLATION_CONFIGS["HC"])
    level_ps = sum(t.queue_gen_ps + t.expand_ps for t in result.traces)
    assert result.tail_queue_gen_ps > 0
    assert level_ps + result.tail_queue_gen_ps == result.time_ps
    metrics = run_snapshot(result)["metrics"]
    assert metrics["queue_gen_ms"] == (
        sum(t.queue_gen_ps for t in result.traces)
        + result.tail_queue_gen_ps) / PS_PER_MS


# ----------------------------------------------------------------------
# Serving engine vs. one-BFS-per-query
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph",
                         [CORPUS[0], CORPUS[2], CORPUS[5], fuzzed(100)],
                         ids=lambda g: g.name)
def test_serve_batched_answers_bit_identical(graph):
    """Acceptance hook: every batched answer equals the single-source
    answer."""
    from repro.serve import (
        QueryKind,
        ServeConfig,
        ServeEngine,
        TraceConfig,
        replay,
        synthetic_trace,
    )

    trace = synthetic_trace(graph, TraceConfig(num_queries=120, seed=3))
    engine = ServeEngine(graph, ServeConfig(num_gpus=2, deadline_ms=0.5,
                                            cache_capacity=8))
    results = replay(engine, trace)
    assert len(results) == len(trace)
    reference_cache: dict[int, np.ndarray] = {}
    for r in results:
        assert r.ok
        s = r.query.source
        if s not in reference_cache:
            reference_cache[s] = reference_bfs_levels(graph, s)
        expected = reference_cache[s]
        if r.query.kind is QueryKind.SPTREE:
            assert np.array_equal(r.levels, expected)
            # The parent tree must be legal for those exact levels.
            visited = np.flatnonzero(expected != UNVISITED)
            others = visited[visited != s]
            assert np.all(expected[r.parents[others]]
                          == expected[others] - 1)
        else:
            d = int(expected[r.query.target])
            assert r.reachable == (d != UNVISITED)
            if r.query.kind is QueryKind.DISTANCE:
                assert r.distance == (d if d != UNVISITED else -1)


# ----------------------------------------------------------------------
# Chaos fault matrix vs fault-free reference levels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("graph", [CORPUS[0], CORPUS[5], fuzzed(42)],
                         ids=lambda g: g.name)
def test_chaos_matrix_vectorized_vs_scalar_truth(graph):
    """The full fault matrix — stragglers, device loss, wave failures,
    degraded interconnect — runs on the default hot paths, while ground
    truth comes from :func:`reference_bfs_levels` of each query's
    source, with no faults and no simulator involved.  Faults may slow
    queries down or reroute them, but every answered query must still
    match the reference exactly: corruption anywhere in the hot paths
    (or a fault leaking into answers) fails here.
    """
    from repro.faults import PROFILES, profile
    from repro.serve import QueryKind, ServeConfig, ServeEngine, \
        TraceConfig, replay, synthetic_trace

    trace = synthetic_trace(graph, TraceConfig(num_queries=80, seed=17))
    truth = {s: reference_bfs_levels(graph, s)
             for s in {q.source for q in trace}}

    for name in sorted(PROFILES):
        plan = profile(name)
        engine = ServeEngine(graph,
                             ServeConfig(num_gpus=2, deadline_ms=0.4,
                                         cache_capacity=4),
                             fault_plan=plan)
        compared = 0
        for r in replay(engine, trace):
            if not r.ok:
                continue
            compared += 1
            expected = truth[r.query.source]
            if r.query.kind is QueryKind.SPTREE:
                assert np.array_equal(r.levels, expected), (
                    f"plan {name}: levels diverge on {graph.name}")
            else:
                d = int(expected[r.query.target])
                want = None  # reachability answers carry no distance
                if r.query.kind is QueryKind.DISTANCE:
                    want = d if d != UNVISITED else -1
                assert r.distance == want, f"plan {name}"
                assert r.reachable == (d != UNVISITED), f"plan {name}"
        assert compared > 0, f"plan {name} answered nothing comparable"
