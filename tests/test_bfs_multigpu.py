"""Multi-GPU Enterprise (§4.4): correctness, partition, communication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import (
    enterprise_bfs,
    multigpu_enterprise_bfs,
    partition_bounds,
    validate_result,
)
from repro.faults.plan import FaultPlan
from repro.gpu import DeviceGroup
from repro.graph import load, powerlaw_graph
from repro.metrics import random_sources


class TestPartition:
    def test_bounds_cover_everything(self):
        b = partition_bounds(100, 4)
        assert b[0] == 0 and b[-1] == 100
        assert np.all(np.diff(b) > 0)

    def test_near_equal_shares(self):
        """'each GPU is responsible for an equal number of vertices'."""
        b = partition_bounds(1000, 8)
        sizes = np.diff(b)
        assert sizes.max() - sizes.min() <= 1

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            partition_bounds(10, 0)


class TestCorrectness:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
    def test_matches_single_gpu_levels(self, small_powerlaw, num_gpus):
        src = int(np.argmax(small_powerlaw.out_degrees))
        single = enterprise_bfs(small_powerlaw, src)
        multi = multigpu_enterprise_bfs(small_powerlaw, src, num_gpus)
        validate_result(multi.result, small_powerlaw)
        assert np.array_equal(multi.result.levels, single.levels)

    def test_directed_graph(self, small_directed_powerlaw):
        src = int(np.argmax(small_directed_powerlaw.out_degrees))
        multi = multigpu_enterprise_bfs(small_directed_powerlaw, src, 2)
        validate_result(multi.result, small_directed_powerlaw)

    def test_mesh_graph(self, small_mesh):
        multi = multigpu_enterprise_bfs(small_mesh, 0, 2)
        validate_result(multi.result, small_mesh)

    def test_source_out_of_range(self, small_powerlaw):
        with pytest.raises(ValueError):
            multigpu_enterprise_bfs(small_powerlaw, 99_999, 2)

    def test_group_size_mismatch(self, small_powerlaw):
        with pytest.raises(ValueError):
            multigpu_enterprise_bfs(small_powerlaw, 0, 3,
                                    group=DeviceGroup(2))


class TestCommunication:
    def test_single_gpu_no_comm(self, small_powerlaw):
        m = multigpu_enterprise_bfs(small_powerlaw, 0, 1)
        assert m.communication_ms == 0.0
        assert m.bytes_exchanged == 0

    def test_ballot_compression_ratio(self, small_powerlaw):
        """§4.4: '[reduces] the size of communication data by 90%' —
        1 bit vs 1 byte = 87.5%."""
        src = int(np.argmax(small_powerlaw.out_degrees))
        m = multigpu_enterprise_bfs(small_powerlaw, src, 2)
        assert m.compression_ratio == pytest.approx(0.875, abs=0.01)

    def test_comm_grows_with_gpus(self):
        g = load("GO", "tiny")
        src = int(random_sources(g, 1, 3)[0])
        m2 = multigpu_enterprise_bfs(g, src, 2)
        m8 = multigpu_enterprise_bfs(g, src, 8)
        assert m8.communication_ms > m2.communication_ms

    def test_computation_plus_comm_is_total(self, small_powerlaw):
        src = int(np.argmax(small_powerlaw.out_degrees))
        for plan in (None, FaultPlan(stragglers={0: 4.0}),
                     FaultPlan(stragglers={1: 2.5}, bandwidth_factor=0.5)):
            m = multigpu_enterprise_bfs(small_powerlaw, src, 2,
                                        group=DeviceGroup(2, fault_plan=plan))
            assert m.result.time_ps == \
                m.computation_ps + m.communication_ps


class TestScaling:
    def test_two_gpus_speed_up_large_graph(self):
        """Fig. 15 strong scaling: 2 GPUs beat 1 on a big enough graph."""
        g = load("KR2", "small")
        src = int(random_sources(g, 1, 3)[0])
        t1 = multigpu_enterprise_bfs(g, src, 1).time_ms
        t2 = multigpu_enterprise_bfs(g, src, 2).time_ms
        assert t2 < t1

    def test_teps_metric(self, small_powerlaw):
        src = int(np.argmax(small_powerlaw.out_degrees))
        m = multigpu_enterprise_bfs(small_powerlaw, src, 2)
        assert m.teps > 0
