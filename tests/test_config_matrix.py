"""Configuration-matrix integration: every execution mode × every
feature switch still produces the exact BFS."""

from __future__ import annotations

import dataclasses
from functools import partial

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
from repro.faults.plan import FaultPlan
from repro.gpu import DeviceGroup, Fabric, GPUDevice
from repro.graph import powerlaw_graph, rmat_graph
from repro.storage import ooc_enterprise_bfs

from .test_vectorized_differential import VARIANTS

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


#: Fields each multi-device loop models; a config that sets any other
#: field away from its default raises instead of running the default
#: traversal.
MODELLED_1D = {f.name for f in dataclasses.fields(EnterpriseConfig)} - {
    "thread_scheduling", "switch_policy", "switch_scan"}
MODELLED_GRID = {"gamma_threshold", "max_levels"}


def _runs_or_raises(run, graph, config, modelled, levels) -> None:
    """``run(config=config)`` matches the reference levels, or raises
    ``ValueError`` naming a field it does not model."""
    default = EnterpriseConfig()
    unmodelled = [f.name for f in dataclasses.fields(config)
                  if f.name not in modelled
                  and getattr(config, f.name) != getattr(default, f.name)]
    if unmodelled:
        with pytest.raises(ValueError, match=unmodelled[0]):
            run(config=config)
        return
    result = run(config=config).result
    assert np.array_equal(result.levels, levels)
    validate_result(result, graph)


@pytest.mark.parametrize("name", list(CONFIG_MATRIX))
def test_multigpu_1d_configs(graph, expected, name):
    src, levels = expected
    _runs_or_raises(partial(multigpu_enterprise_bfs, graph, src, 3), graph,
                    CONFIG_MATRIX[name], MODELLED_1D, levels)


@pytest.mark.parametrize("name", list(CONFIG_MATRIX))
def test_multigpu_2d_configs(graph, expected, name):
    src, levels = expected
    _runs_or_raises(partial(multigpu2d_enterprise_bfs, graph, src, 2, 2),
                    graph, CONFIG_MATRIX[name], MODELLED_GRID, levels)


@pytest.mark.parametrize("name", list(CONFIG_MATRIX))
def test_cluster_configs(graph, expected, name):
    src, levels = expected
    _runs_or_raises(partial(cluster_enterprise_bfs, graph, src, 2, 2),
                    graph, CONFIG_MATRIX[name], MODELLED_GRID, levels)


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
            assert dataclasses.replace(o, expand_ps=m.expand_ps) == m
            assert o.expand_ps - m.expand_ps >= 0
            excess.append(o.expand_ps - m.expand_ps)
        assert sum(excess) == ooc.io_ps


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


# ----------------------------------------------------------------------
# Stragglers: every level loop reads its time off the device clock
# ----------------------------------------------------------------------

#: Healthy simulated times of the straggler cases below.
HEALTHY_1D_MS = 0.0057183
HEALTHY_CLUSTER_MS = 0.0338099


def test_straggler_level_times_sum_to_run_time(graph, expected):
    """A 2x straggler's level times still add up to its run time, tick
    for tick."""
    src, _ = expected
    r = enterprise_bfs(graph, src, device=GPUDevice(slowdown=2.0))
    healthy = enterprise_bfs(graph, src)
    assert sum(t.queue_gen_ps + t.expand_ps for t in r.traces) == \
        r.time_ps == 2 * healthy.time_ps


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_straggler_ledger_holds_for_every_traversal(name):
    """On a 1.5x straggler, every single-GPU traversal's traces plus its
    tail hold every tick of the device clock."""
    device = GPUDevice(slowdown=1.5)
    r = VARIANTS[name](rmat_graph(9, edge_factor=8, seed=5), 0,
                       device=device)
    assert sum(t.queue_gen_ps + t.expand_ps for t in r.traces) + \
        r.tail_queue_gen_ps == device.elapsed_ps


def test_straggler_slows_1d(graph, expected):
    src, _ = expected
    assert multigpu_enterprise_bfs(graph, src, 2).time_ms == \
        pytest.approx(HEALTHY_1D_MS, abs=1e-7)
    group = DeviceGroup(2, fault_plan=FaultPlan(stragglers={0: 4.0}))
    m = multigpu_enterprise_bfs(graph, src, 2, group=group)
    assert m.time_ms > HEALTHY_1D_MS
    assert m.result.time_ps == m.computation_ps + m.communication_ps


def test_straggler_slows_cluster(graph, expected):
    src, _ = expected
    healthy = cluster_enterprise_bfs(graph, src, 2, 2)
    assert healthy.time_ms == pytest.approx(HEALTHY_CLUSTER_MS, abs=1e-7)
    fabric = Fabric(2, 2, fault_plan=FaultPlan(stragglers={0: 4.0}))
    slow = cluster_enterprise_bfs(graph, src, 2, 2, fabric=fabric)
    assert slow.time_ms > HEALTHY_CLUSTER_MS
    node_compute = np.array([lvl.node_compute_ps for lvl in slow.levels])
    assert node_compute[:, 0].sum() > node_compute[:, 1].sum()
    assert all(a >= b for a, b in node_compute)
