"""Configuration-matrix integration: every execution mode × every
feature switch still produces the exact BFS."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bfs import (
    ABLATION_CONFIGS,
    EnterpriseConfig,
    enterprise_bfs,
    multigpu2d_enterprise_bfs,
    multigpu_enterprise_bfs,
    reference_bfs_levels,
    validate_result,
)
from repro.bfs.cluster import cluster_enterprise_bfs
from repro.graph import powerlaw_graph
from repro.storage import ooc_enterprise_bfs

CONFIG_MATRIX = {
    "default": EnterpriseConfig(),
    "no-wb": EnterpriseConfig(workload_balancing=False),
    "no-hc": EnterpriseConfig(hub_cache=False),
    "alpha-policy": EnterpriseConfig(switch_policy="alpha"),
    "interleaved-switch": EnterpriseConfig(switch_scan="interleaved"),
    "tight-bounds": EnterpriseConfig(queue_bounds=(8, 64, 1024)),
    "small-cache": EnterpriseConfig(shared_config_bytes=16 * 1024),
    "eager-gamma": EnterpriseConfig(gamma_threshold=5.0),
    "lazy-gamma": EnterpriseConfig(gamma_threshold=95.0),
}


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(700, 7.0, 2.0, 120, seed=41, name="matrix")


@pytest.fixture(scope="module")
def expected(graph):
    src = int(np.argmax(graph.out_degrees))
    return src, reference_bfs_levels(graph, src)


@pytest.mark.parametrize("name", list(CONFIG_MATRIX))
def test_single_gpu_configs(graph, expected, name):
    src, levels = expected
    r = enterprise_bfs(graph, src, config=CONFIG_MATRIX[name])
    validate_result(r, graph)
    assert np.array_equal(r.levels, levels)


@pytest.mark.parametrize("name", ["default", "no-wb", "no-hc",
                                  "tight-bounds"])
def test_multigpu_1d_configs(graph, expected, name):
    src, levels = expected
    m = multigpu_enterprise_bfs(graph, src, 3, config=CONFIG_MATRIX[name])
    assert np.array_equal(m.result.levels, levels)
    validate_result(m.result, graph)


@pytest.mark.parametrize("name", ["default", "eager-gamma", "lazy-gamma"])
def test_multigpu_2d_configs(graph, expected, name):
    src, levels = expected
    m = multigpu2d_enterprise_bfs(graph, src, 2, 2,
                                  config=CONFIG_MATRIX[name])
    assert np.array_equal(m.result.levels, levels)


@pytest.mark.parametrize("name", ["default", "no-hc", "small-cache"])
def test_ooc_configs(graph, expected, name):
    src, levels = expected
    o = ooc_enterprise_bfs(graph, src, num_partitions=4,
                           config=CONFIG_MATRIX[name])
    assert np.array_equal(o.result.levels, levels)


#: Every single-GPU configuration out of core: the matrix plus the BL
#: and TS ablation stages.
OOC_CONFIGS = {**CONFIG_MATRIX, "BL": ABLATION_CONFIGS["BL"],
               "TS": ABLATION_CONFIGS["TS"]}

OOC_GRAPHS = (
    lambda: powerlaw_graph(700, 7.0, 2.0, 120, seed=41, name="matrix"),
    lambda: powerlaw_graph(2048, 8.0, 2.1, 200, seed=8, name="ooc"),
    lambda: powerlaw_graph(1024, 5.0, 2.2, 100, directed=True, seed=3,
                           name="ooc-dir"),
)


@pytest.mark.parametrize("name", list(OOC_CONFIGS))
def test_ooc_is_in_memory_plus_io(name):
    """Out of core runs the in-memory traversal and adds I/O: the same
    levels, parents and per-level record, except that each level's
    expansion time grows by the level's reads, which sum to ``io_ms``."""
    config = OOC_CONFIGS[name]
    for build in OOC_GRAPHS:
        graph = build()
        src = int(np.argmax(graph.out_degrees))
        mem = enterprise_bfs(graph, src, config=config)
        ooc = ooc_enterprise_bfs(graph, src, num_partitions=8,
                                 config=config)
        assert np.array_equal(ooc.result.levels, mem.levels)
        assert np.array_equal(ooc.result.parents, mem.parents)
        assert len(ooc.result.traces) == len(mem.traces)
        excess = []
        for o, m in zip(ooc.result.traces, mem.traces):
            assert dataclasses.replace(o, expand_ms=m.expand_ms) == m
            assert o.expand_ms - m.expand_ms >= 0
            excess.append(o.expand_ms - m.expand_ms)
        assert sum(excess) == pytest.approx(ooc.io_ms, rel=1e-9)


def test_max_levels_caps_every_topology(graph, expected):
    """``EnterpriseConfig.max_levels`` is the one level cap: single-GPU,
    out-of-core, 1-D, 2-D and cluster traversals each stop after it."""
    src, _ = expected
    config = EnterpriseConfig(max_levels=1)
    runs = {
        "single": enterprise_bfs(graph, src, config=config),
        "ooc": ooc_enterprise_bfs(graph, src, num_partitions=4,
                                  config=config).result,
        "1-D": multigpu_enterprise_bfs(graph, src, 2, config=config).result,
        "2-D": multigpu2d_enterprise_bfs(graph, src, 2, 2,
                                         config=config).result,
        "cluster": cluster_enterprise_bfs(graph, src, 2, 2,
                                          config=config).result,
    }
    assert {name: len(r.traces) for name, r in runs.items()} == \
        dict.fromkeys(runs, 1)


def test_timings_differ_across_configs(graph, expected):
    """The switches are not cosmetic: distinct configurations produce
    distinct cost profiles on a hub source."""
    src, _ = expected
    times = {name: enterprise_bfs(graph, src, config=cfg).time_ms
             for name, cfg in CONFIG_MATRIX.items()}
    assert len({round(t, 9) for t in times.values()}) >= 4


def test_ablation_ladder_strictly_featured(graph, expected):
    """Each ladder step launches a superset of machinery."""
    from repro.gpu import GPUDevice
    src, _ = expected
    kernel_sets = {}
    for name, cfg in ABLATION_CONFIGS.items():
        dev = GPUDevice()
        enterprise_bfs(graph, src, device=dev, config=cfg)
        kernel_sets[name] = {k.name.split("-")[0] for k in dev.kernels()}
    assert "bl" in {n[:2] for n in kernel_sets["BL"]}
    assert "scan" in kernel_sets["TS"] or \
        any(n.startswith("scan") for n in kernel_sets["TS"])
    assert "classify" in kernel_sets["WB"]
    assert "classify" in kernel_sets["HC"]
