"""End-to-end determinism: everything reproduces bit-for-bit.

The reproduction's contract (DESIGN.md §6, EXPERIMENTS.md) is that every
reported number regenerates exactly; these tests pin it at the API level
so an accidental `default_rng()` (no seed) or wall-clock dependence
cannot creep in.
"""

from __future__ import annotations

import numpy as np

from repro.bench import fig05_degree_cdf, fig13_ablation
from repro.bfs import enterprise_bfs, ms_bfs, multigpu_enterprise_bfs
from repro.graph import load
from repro.metrics import graph500_stats, run_trials
from repro.storage import ooc_enterprise_bfs

from .test_differential import chain


def test_enterprise_bit_identical():
    g = load("GO", "tiny")
    a = enterprise_bfs(g, 5)
    b = enterprise_bfs(g, 5)
    assert a.time_ms == b.time_ms
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.parents, b.parents)
    assert [t.expand_ms for t in a.traces] == \
        [t.expand_ms for t in b.traces]


def test_trials_bit_identical():
    g = load("YT", "tiny")
    a = run_trials(g, enterprise_bfs, trials=3, seed=4)
    b = run_trials(g, enterprise_bfs, trials=3, seed=4)
    assert a.mean_time_ms == b.mean_time_ms
    assert a.mean_power_w == b.mean_power_w
    assert graph500_stats(a).harmonic_mean_teps == \
        graph500_stats(b).harmonic_mean_teps


def test_figure_rows_bit_identical():
    a = fig13_ablation(("GO",), profile="tiny", trials=1)
    b = fig13_ablation(("GO",), profile="tiny", trials=1)
    assert a == b
    assert fig05_degree_cdf(profile="tiny") == \
        fig05_degree_cdf(profile="tiny")


def test_multigpu_and_ooc_bit_identical():
    g = load("GO", "tiny")
    m1 = multigpu_enterprise_bfs(g, 5, 2)
    m2 = multigpu_enterprise_bfs(g, 5, 2)
    assert m1.time_ms == m2.time_ms
    assert m1.bytes_exchanged == m2.bytes_exchanged
    o1 = ooc_enterprise_bfs(g, 5, num_partitions=4)
    o2 = ooc_enterprise_bfs(g, 5, num_partitions=4)
    assert o1.time_ms == o2.time_ms
    assert o1.bytes_read == o2.bytes_read


def test_msbfs_bit_identical():
    g = load("YT", "tiny")
    s = np.array([1, 2, 3])
    a = ms_bfs(g, s)
    b = ms_bfs(g, s)
    assert a.time_ms == b.time_ms
    assert np.array_equal(a.levels, b.levels)


def test_no_wall_clock_in_results():
    """Two runs separated by real time are identical — simulated time
    never reads the host clock."""
    import time
    g = load("GO", "tiny")
    a = enterprise_bfs(g, 7)
    time.sleep(0.05)
    b = enterprise_bfs(g, 7)
    assert a.time_ms == b.time_ms


def test_vectorized_structures_are_pooled_not_shared_mutably():
    """The interning layer must never let one run's result alias another
    run's mutable state: two identical runs return equal-but-independent
    level arrays."""
    graph = chain(30)
    a = enterprise_bfs(graph, 0)
    b = enterprise_bfs(graph, 0)
    assert np.array_equal(a.levels, b.levels)
    assert a.levels is not b.levels
    a.levels[5] = 99
    assert b.levels[5] != 99
