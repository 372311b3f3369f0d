"""Task-stealing scheduler (the §6 alternative to WB)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import stealing_expansion_cost
from repro.gpu import Granularity, KEPLER_K40, expansion_kernel
from repro.graph import powerlaw_graph

SPEC = KEPLER_K40


@pytest.fixture
def skewed_workloads():
    rng = np.random.default_rng(31)
    w = rng.integers(1, 8, size=5000)
    w[:10] = 50_000  # a few extreme hubs
    return w


class TestCostModel:
    def test_empty_workloads(self):
        assert stealing_expansion_cost(np.array([]), SPEC) == []
        assert stealing_expansion_cost(np.zeros(4, dtype=np.int64),
                                       SPEC) == []

    def test_chunks_cover_all_edges(self, skewed_workloads):
        kernels = stealing_expansion_cost(skewed_workloads, SPEC)
        balanced = kernels[0]
        assert balanced.useful_lane_steps == int(skewed_workloads.sum())

    def test_balances_better_than_static(self, skewed_workloads):
        """Stealing removes the skew a static warp assignment suffers."""
        static = expansion_kernel(skewed_workloads, Granularity.WARP, SPEC)
        steal = stealing_expansion_cost(skewed_workloads, SPEC)
        steal_ms = sum(k.time_ms for k in steal)
        assert steal_ms < static.time_ms

    def test_pool_synchronisation_charged(self, skewed_workloads):
        kernels = stealing_expansion_cost(skewed_workloads, SPEC)
        names = [k.name for k in kernels]
        assert any(n.endswith("-pool") for n in names)
        pool = kernels[-1]
        assert pool.time_ms > 0

    def test_smaller_chunks_more_synchronisation(self, skewed_workloads):
        fine = stealing_expansion_cost(skewed_workloads, SPEC, chunk=8)
        coarse = stealing_expansion_cost(skewed_workloads, SPEC, chunk=512)
        fine_pool = fine[-1].time_ms
        coarse_pool = coarse[-1].time_ms
        assert fine_pool > coarse_pool

    def test_wb_beats_stealing_on_powerlaw(self):
        """§6's argument: classification avoids the coordination cost —
        WB outruns stealing on a power-law frontier."""
        from repro.bfs.classify import QUEUE_GRANULARITY, classify_frontiers
        from repro.gpu import overlap_kernels
        g = powerlaw_graph(20_000, 10.0, 1.9, 5_000, seed=33)
        frontier = np.flatnonzero(g.out_degrees > 0)[:15_000]
        w = g.out_degrees[frontier]
        steal_ms = sum(k.time_ms
                       for k in stealing_expansion_cost(w, SPEC))
        cl = classify_frontiers(frontier, g.out_degrees, SPEC)
        wb_kernels = [cl.classify_cost] + [
            expansion_kernel(g.out_degrees[m], QUEUE_GRANULARITY[name],
                             SPEC)
            for name, m in cl.queues.items() if m.size
        ]
        wb_ms = overlap_kernels(wb_kernels, SPEC).elapsed_ms
        assert wb_ms < steal_ms

