"""Cluster BFS: bit-identity, the per-tier exchange ledger, sharding,
degree-balanced bounds, and the weak-scaling acceptance bar.

The tentpole's correctness gate is that pushing the 2-D blocked
partition across simulated node boundaries — with each node paging its
adjacency shard from simulated storage — changes *costs*, never
*answers*: levels and the legality of the parent tree must match the
single-GPU Enterprise reference exactly on every fabric shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import (
    balanced_bounds,
    cluster_enterprise_bfs,
    enterprise_bfs,
    reference_bfs_levels,
    shard_bounds,
)
from repro.bfs.validate500 import graph500_validate
from repro.gpu import Fabric
from repro.graph import from_edges, rmat_graph

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (4, 1)]


@pytest.fixture(scope="module")
def skewed_graph():
    return rmat_graph(10, 8, seed=3, name="cluster-test")


# ----------------------------------------------------------------------
# Bit-identity across fabric shapes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("nodes,gpus", SHAPES)
def test_levels_match_single_gpu_reference(skewed_graph, nodes, gpus):
    g = skewed_graph
    source = int(np.argmax(g.out_degrees))
    ref = enterprise_bfs(g, source)
    res = cluster_enterprise_bfs(g, source, nodes, gpus)
    assert np.array_equal(res.result.levels, ref.levels)
    report = graph500_validate(res.result, g)
    assert report.ok, report.line()


def test_directed_graph_matches_reference():
    rng = np.random.default_rng(5)
    n, m = 300, 1500
    g = from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n,
                   directed=True, name="directed-cluster")
    for source in (0, int(np.argmax(g.out_degrees))):
        expected = reference_bfs_levels(g, source)
        res = cluster_enterprise_bfs(g, source, 3, 2)
        assert np.array_equal(res.result.levels, expected)


def test_rejects_bad_shapes(skewed_graph):
    g = skewed_graph
    with pytest.raises(ValueError):
        cluster_enterprise_bfs(g, 0, g.num_vertices + 1)
    with pytest.raises(ValueError):
        cluster_enterprise_bfs(g, g.num_vertices, 2)
    with pytest.raises(ValueError):
        cluster_enterprise_bfs(g, 0, 2, 2, fabric=Fabric(4, 2))
    for parts in (0, -5):
        with pytest.raises(ValueError, match="parts_per_node"):
            cluster_enterprise_bfs(g, 0, 2, 2, parts_per_node=parts)


# ----------------------------------------------------------------------
# The exchange ledger
# ----------------------------------------------------------------------

@pytest.mark.parametrize("nodes,gpus", SHAPES)
def test_ledger_is_exact(skewed_graph, nodes, gpus):
    """Acceptance invariant: ``bytes_exchanged`` equals the sum of the
    per-ring payloads actually charged — nothing double-counted, no
    phantom zero-byte rings."""
    g = skewed_graph
    res = cluster_enterprise_bfs(g, int(np.argmax(g.out_degrees)),
                                 nodes, gpus)
    assert res.bytes_exchanged == sum(res.charged_payloads)
    assert all(p > 0 for p in res.charged_payloads)
    # Tier usage follows the shape: intra rings need cols > 1, inter
    # rings need rows > 1 (the allreduce also feeds the tier ledgers,
    # so only the ring-free direction can be asserted to zero).
    if gpus == 1:
        assert res.bytes_intra == 0
    if nodes == 1:
        assert res.bytes_inter == 0 and res.inter_ms == 0.0


def test_single_device_cluster_pays_no_communication(skewed_graph):
    res = cluster_enterprise_bfs(skewed_graph, 0, 1, 1)
    assert res.communication_ms == 0.0
    assert res.bytes_exchanged == 0
    assert res.collective_ms == 0.0
    assert res.hierarchy_advantage == 1.0


def test_reused_fabric_gives_identical_back_to_back_runs(skewed_graph):
    """Regression: handing the same ``Fabric`` to two consecutive runs
    must not leak the first run's ledgers into the second — every cost,
    byte count and collective tally repeats exactly."""
    g = skewed_graph
    source = int(np.argmax(g.out_degrees))
    fabric = Fabric(2, 2)

    def run():
        res = cluster_enterprise_bfs(g, source, 2, 2, fabric=fabric)
        return (res.time_ms, res.intra_ms, res.inter_ms,
                res.collective_ms, res.bytes_intra, res.bytes_inter,
                res.bytes_exchanged, fabric.communication_ms,
                fabric.bytes_intra, fabric.bytes_inter,
                fabric.collectives,
                tuple(res.levels))

    first, second = run(), run()
    assert first == second
    fabric.reset_ledgers()
    assert fabric.communication_ms == 0.0
    assert fabric.bytes_intra == 0 and fabric.bytes_inter == 0
    assert fabric.collectives == 0
    assert run() == first


def test_hierarchy_advantage_on_multinode_shapes(skewed_graph):
    """Two tiers must measurably beat the flat single-tier comparator
    once rings actually cross nodes."""
    res = cluster_enterprise_bfs(skewed_graph,
                                 int(np.argmax(skewed_graph.out_degrees)),
                                 4, 2)
    assert np.isfinite(res.hierarchy_advantage)
    assert res.hierarchy_advantage > 1.0
    assert res.flat_communication_ms > res.communication_ms


# ----------------------------------------------------------------------
# Out-of-core sharding
# ----------------------------------------------------------------------

def test_no_node_holds_the_whole_adjacency(skewed_graph):
    res = cluster_enterprise_bfs(skewed_graph, 0, 4, 2)
    assert len(res.shard_bytes) == 4
    assert sum(res.shard_bytes) == res.total_adjacency_bytes
    assert max(res.shard_bytes) < res.total_adjacency_bytes
    # Every byte expanded had to be paged in at least once.
    assert res.bytes_read >= res.total_adjacency_bytes * 0.5
    assert res.io_ms > 0.0


def test_degree_balanced_shards_are_even(skewed_graph):
    """R-MAT hubs sit at low vertex IDs; equal-vertex shards would give
    node 0 most of the edges.  Balanced bounds keep the largest shard
    within ~2x of the smallest."""
    res = cluster_enterprise_bfs(skewed_graph, 0, 4, 2)
    assert max(res.shard_bytes) <= 2 * min(res.shard_bytes)


# ----------------------------------------------------------------------
# balanced_bounds / shard_bounds properties
# ----------------------------------------------------------------------

@given(
    weights=st.lists(st.integers(0, 1000), min_size=1, max_size=400),
    parts=st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_balanced_bounds_is_a_valid_partition(weights, parts):
    w = np.asarray(weights, dtype=np.int64)
    if parts > w.size:
        parts = w.size
    bounds = balanced_bounds(w, parts)
    assert bounds.shape == (parts + 1,)
    assert bounds[0] == 0 and bounds[-1] == w.size
    assert np.all(np.diff(bounds) >= 1)  # every part non-empty


def test_balanced_bounds_equalizes_skewed_weights():
    # One hub worth a quarter of the total weight, then a flat tail:
    # the hub's part should shrink to roughly the hub alone instead of
    # a quarter of the vertices.
    w = np.ones(3001, dtype=np.int64)
    w[0] = 1000
    bounds = balanced_bounds(w, 4)
    sums = [int(w[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]
    assert max(sums) <= 1.1 * min(sums)
    assert bounds[1] < 100  # the hub part takes far fewer vertices


@given(
    n=st.integers(4, 2000),
    rows=st.integers(1, 6),
    ppn=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_shard_bounds_refine_row_bounds(n, rows, ppn):
    rows = min(rows, n)
    row_bounds = balanced_bounds(np.ones(n, dtype=np.int64), rows)
    fine = shard_bounds(row_bounds, ppn)
    assert fine[0] == 0 and fine[-1] == n
    assert np.all(np.diff(fine) >= 0)
    # Every row bound survives as a partition bound: storage ownership
    # can never disagree with node ownership about a vertex.
    assert set(int(b) for b in row_bounds) <= set(int(b) for b in fine)
    assert fine.size == rows * ppn + 1


# ----------------------------------------------------------------------
# Weak scaling (the Fig-15-style acceptance bar, at mini scale)
# ----------------------------------------------------------------------

def test_weak_scaling_efficiency_bar():
    """>= 0.7 efficiency from 1 to 8 simulated nodes, with every row
    bit-identical to its single-GPU reference."""
    from repro.bench import run_weak_scaling

    rows = run_weak_scaling((1, 2, 4, 8), base_scale=12, check=True)
    assert [r["nodes"] for r in rows] == [1, 2, 4, 8]
    for row in rows:
        assert row["exact"] == 1
        assert row["efficiency"] >= 0.7, (
            f"{row['nodes']} nodes: efficiency {row['efficiency']:.3f}")
    # Weak scaling: the problem actually grows with the node count.
    assert rows[-1]["scale"] == rows[0]["scale"] + 3


def test_weak_verb_snapshot_contract(tmp_path):
    """``cluster weak`` as CI's cluster-smoke job runs it: a
    ``fig15_cluster`` snapshot whose rows are the node counts, each
    exact, with >= 0.7 efficiency and inter-node traffic at 8 nodes, and
    a clean ``--diff`` re-run."""
    from repro.cli import main
    from repro.observ import SNAPSHOT_SCHEMA, load_artifact

    path = str(tmp_path / "cluster.snap.json")
    argv = ["cluster", "weak", "--node-counts", "1,2,4,8",
            "--base-scale", "12", "--check"]
    assert main(argv + ["--snapshot", path]) == 0
    snap = load_artifact(path, SNAPSHOT_SCHEMA)
    assert snap["kind"] == "bench"
    assert snap["meta"]["figure"] == "fig15_cluster"
    m = snap["metrics"]
    for row, nodes in enumerate((1, 2, 4, 8)):
        assert m[f"weak_node.{row}.nodes"] == nodes, row
        assert m[f"weak_node.{row}.exact"] == 1, nodes
    eff = m["weak_node.3.efficiency"]
    assert eff >= 0.7, f"weak-scaling efficiency {eff:.3f} < 0.7"
    assert m["weak_node.3.bytes_inter"] > 0
    assert main(argv + ["--diff", path]) == 0
