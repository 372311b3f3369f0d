"""Metamorphic properties of nine traversals: single-GPU Enterprise in
each ablation configuration (BL, TS, WB and HC), out-of-core Enterprise
in BL and HC over 8 partitions, 1-D multi-GPU Enterprise on two devices,
the 2-D grid at 2x2 and the cluster at 4 nodes x 2 GPUs.

Two input changes whose effect on the answer is known without a second
implementation to compare against:

* relabelling the vertices by a random permutation
  (:func:`repro.graph.reorder.apply_relabeling`) permutes the levels
  exactly;
* adding duplicate edges, self-loops and isolated vertices leaves every
  original vertex's level unchanged, and the new vertices unvisited.

The graphs are R-MAT-11, large enough that every traversal takes the
γ switch to bottom-up (with the hub cache engaged where it is on).  Every traversal's
parents must also pass :func:`validate_result` and the five Graph 500
checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.cluster import cluster_enterprise_bfs
from repro.bfs.common import UNVISITED, validate_result
from repro.bfs.enterprise import ABLATION_CONFIGS, enterprise_bfs
from repro.bfs.multigpu import multigpu_enterprise_bfs
from repro.bfs.partition2d import multigpu2d_enterprise_bfs
from repro.bfs.validate500 import graph500_validate
from repro.graph.csr import from_edges
from repro.graph.generators import RMAT_ABC, kronecker_edges
from repro.graph.reorder import apply_relabeling
from repro.metrics import random_sources
from repro.storage import ooc_enterprise_bfs

SCALE = 11
SEEDS = (1, 2, 3)

TRAVERSALS = {
    "hc": lambda g, s: enterprise_bfs(g, s, config=ABLATION_CONFIGS["HC"]),
    "grid-2x2": lambda g, s: multigpu2d_enterprise_bfs(g, s, 2, 2).result,
    "cluster-4x2": lambda g, s: cluster_enterprise_bfs(g, s, 4, 2).result,
    "bl": lambda g, s: enterprise_bfs(g, s, config=ABLATION_CONFIGS["BL"]),
    "ts": lambda g, s: enterprise_bfs(g, s, config=ABLATION_CONFIGS["TS"]),
    "wb": lambda g, s: enterprise_bfs(g, s, config=ABLATION_CONFIGS["WB"]),
    "multigpu-2": lambda g, s: multigpu_enterprise_bfs(g, s, 2).result,
    "ooc-bl": lambda g, s: ooc_enterprise_bfs(
        g, s, num_partitions=8, config=ABLATION_CONFIGS["BL"]).result,
    "ooc-hc": lambda g, s: ooc_enterprise_bfs(
        g, s, num_partitions=8, config=ABLATION_CONFIGS["HC"]).result,
}

#: (traversal, seed, directed); an HC case is named by seed and
#: directedness alone.
CASES = [
    pytest.param(traversal, seed, directed,
                 id=(f"{seed}-{directed}" if traversal == "hc"
                     else f"{traversal}-{seed}-{directed}"))
    for traversal in TRAVERSALS for seed in SEEDS
    for directed in (False, True)
]


def _rmat(seed: int, directed: bool):
    src, dst = kronecker_edges(SCALE, 16, RMAT_ABC, seed)
    return from_edges(src, dst, 1 << SCALE, directed=directed,
                      name=f"R-MAT-{SCALE}")


def _traverse(traversal: str, graph, source: int):
    result = TRAVERSALS[traversal](graph, source)
    validate_result(result, graph)
    report = graph500_validate(result, graph)
    assert report.ok, report.messages
    return result


def _switched(result) -> bool:
    return any(t.direction == "switch" for t in result.traces)


@pytest.mark.parametrize("traversal,seed,directed", CASES)
def test_relabelling_permutes_levels(traversal, seed, directed):
    graph = _rmat(seed, directed)
    new_id = np.random.default_rng(seed).permutation(graph.num_vertices)
    relabeled = apply_relabeling(graph, new_id, name_suffix="+shuffled")
    for source in random_sources(graph, 3, seed):
        base = _traverse(traversal, graph, int(source))
        assert _switched(base)
        moved = _traverse(traversal, relabeled.graph,
                          relabeled.map_vertex(source))
        np.testing.assert_array_equal(relabeled.to_old(moved.levels),
                                      base.levels)


@pytest.mark.parametrize("traversal,seed,directed", CASES)
def test_duplicates_self_loops_and_isolated_vertices_keep_levels(
        traversal, seed, directed):
    graph = _rmat(seed, directed)
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    src, dst = graph.edges()
    pick = rng.choice(src.size, size=src.size // 10)
    loops = rng.choice(n, size=64)
    extra_src = [src[pick], loops]
    extra_dst = [dst[pick], loops]
    if not directed:
        # edges() lists both orientations; repeat both, so the CSR stays
        # symmetric.
        extra_src.append(dst[pick])
        extra_dst.append(src[pick])
    noisy = from_edges(np.concatenate([src, *extra_src]),
                       np.concatenate([dst, *extra_dst]), n + 100,
                       directed=directed, symmetrize=False)
    assert noisy.num_edges > graph.num_edges
    for source in random_sources(graph, 3, seed):
        base = _traverse(traversal, graph, int(source))
        assert _switched(base)
        noisy_run = _traverse(traversal, noisy, int(source))
        np.testing.assert_array_equal(noisy_run.levels[:n], base.levels)
        assert np.all(noisy_run.levels[n:] == UNVISITED)
