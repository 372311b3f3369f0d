"""Multi-GPU substrate: ballot compression, interconnect, device groups."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    DeviceGroup,
    InterconnectSpec,
    PCIE_GEN3_X16,
    ballot_compress,
    ballot_decompress,
)


class TestBallot:
    def test_roundtrip(self):
        mask = np.array([True, False, True, True, False, False, True, False,
                         True])
        bits = ballot_compress(mask)
        back = ballot_decompress(bits, mask.size)
        assert np.array_equal(back, mask)

    def test_compression_ratio(self):
        """§4.4: '[reduces] the size of communication data by 90%' —
        1 bit per vertex instead of a 1-byte status entry (87.5%)."""
        mask = np.zeros(8000, dtype=bool)
        bits = ballot_compress(mask)
        assert bits.nbytes == 1000
        assert 1 - bits.nbytes / mask.size == pytest.approx(0.875)

    def test_non_multiple_of_eight(self):
        mask = np.array([True] * 13)
        back = ballot_decompress(ballot_compress(mask), 13)
        assert back.size == 13 and back.all()

    @pytest.mark.parametrize("count", [1, 7, 9, 63, 65, 1001])
    def test_odd_count_roundtrips(self, count):
        rng = np.random.default_rng(count)
        mask = rng.random(count) < 0.3
        back = ballot_decompress(ballot_compress(mask), count)
        assert back.size == count
        assert np.array_equal(back, mask)

    def test_empty_mask(self):
        mask = np.zeros(0, dtype=bool)
        bits = ballot_compress(mask)
        assert bits.size == 0
        back = ballot_decompress(bits, 0)
        assert back.size == 0 and back.dtype == bool

    def test_all_visited_mask(self):
        for count in (8, 21, 64):
            mask = np.ones(count, dtype=bool)
            back = ballot_decompress(ballot_compress(mask), count)
            assert back.size == count and back.all()

    def test_none_visited_mask(self):
        back = ballot_decompress(ballot_compress(np.zeros(21, dtype=bool)),
                                 21)
        assert back.size == 21 and not back.any()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ballot_decompress(np.array([255], dtype=np.uint8), -1)


class TestInterconnect:
    def test_transfer_time_positive(self):
        t = PCIE_GEN3_X16.transfer_ms(1 << 20)
        assert t > 0

    def test_zero_bytes_free(self):
        assert PCIE_GEN3_X16.transfer_ms(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PCIE_GEN3_X16.transfer_ms(-1)

    def test_bandwidth_term(self):
        link = InterconnectSpec("test", bandwidth_gbps=1.0, latency_us=0.0)
        assert link.transfer_ms(10 ** 9) == pytest.approx(1000.0)


class TestDeviceGroup:
    def test_size_and_spec(self):
        g = DeviceGroup(4)
        assert len(g) == 4
        assert g.spec.name == "K40"

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            DeviceGroup(0)

    def test_barrier_takes_slowest(self):
        g = DeviceGroup(3)
        wall = g.barrier_level([10**9, 5 * 10**9, 2 * 10**9])
        assert wall == g.elapsed_ps == 5 * 10**9

    def test_barrier_device_count_checked(self):
        g = DeviceGroup(2)
        with pytest.raises(ValueError):
            g.barrier_level([10**9])

    def test_allgather_single_device_free(self):
        g = DeviceGroup(1)
        assert g.allgather_ps(10 ** 6) == 0

    def test_allgather_nearly_constant_in_n(self):
        """Ring allgather: per-level cost grows only as 2 (N-1)/N."""
        t2 = DeviceGroup(2).allgather_ps(1 << 20)
        t8 = DeviceGroup(8).allgather_ps(1 << 20)
        assert t8 < 2.5 * t2

    def test_communication_tracked(self):
        g = DeviceGroup(2)
        g.allgather_ps(4096)
        assert g.communication_ps > 0
        assert g.elapsed_ps == g.communication_ps

    def test_reset(self):
        g = DeviceGroup(2)
        g.barrier_level([10**9, 10**9])
        g.allgather_ps(1024)
        g.reset()
        assert g.elapsed_ps == 0 and g.communication_ps == 0

    def test_fault_plan_wires_stragglers_and_link(self):
        from repro.faults import profile

        plan = profile("chaos")  # device 2 is a 4x straggler, link x0.5
        g = DeviceGroup(3, fault_plan=plan)
        assert g.fault_plan is plan
        assert g.devices[0].slowdown == 1.0
        assert g.devices[2].slowdown == 4.0
        clean = DeviceGroup(3)
        assert g.interconnect.bandwidth_gbps == pytest.approx(
            clean.interconnect.bandwidth_gbps * 0.5)
        # Same transfer, degraded link: strictly slower.
        assert g.interconnect.transfer_ms(1 << 20) > \
            clean.interconnect.transfer_ms(1 << 20)

    def test_utilization_matches_dispatch_stats(self):
        # DeviceGroup's busy/utilization view and the dispatcher's
        # DispatchStats.busy_ms_per_device must describe the same run
        # identically (the serving dashboard draws from both).
        from repro.graph import powerlaw_graph
        from repro.serve import ServeConfig, WaveDispatcher

        graph = powerlaw_graph(300, 5.0, 2.1, 32, seed=8)
        group = DeviceGroup(3)
        d = WaveDispatcher(graph, group, ServeConfig())
        d.run_wave(np.array([1, 2, 3]), now_ms=0.0)
        d.run_wave(np.array([4, 5]), now_ms=0.0)
        d.run_wave(np.array([6]), now_ms=0.0)
        busy = group.busy_ms()
        for stat_ms, device_ms in zip(d.stats.busy_ms_per_device, busy):
            assert stat_ms == pytest.approx(device_ms)
        peak = max(busy)
        for frac, device_ms in zip(group.utilization(), busy):
            assert frac == pytest.approx(device_ms / peak)


@given(bits=st.lists(st.booleans(), min_size=0, max_size=500))
@settings(max_examples=80, deadline=None)
def test_ballot_roundtrip_property(bits):
    mask = np.array(bits, dtype=bool)
    back = ballot_decompress(ballot_compress(mask), mask.size)
    assert np.array_equal(back, mask)


@given(groups=st.integers(0, 40), tail=st.integers(1, 7),
       seed=st.integers(0, 1 << 16))
@settings(max_examples=80, deadline=None)
def test_ballot_roundtrip_at_ragged_counts(groups, tail, seed):
    """Counts that are *not* a multiple of 8: the trailing partial byte
    must zero-pad, occupy exactly one extra byte, and round-trip without
    bleeding padding bits into the mask."""
    count = 8 * groups + tail
    rng = np.random.default_rng(seed)
    mask = rng.random(count) < 0.5
    bits = ballot_compress(mask)
    assert bits.nbytes == groups + 1  # ceil(count / 8)
    # Padding bits beyond ``count`` are zero (MSB-first packing).
    trailing = int(bits[-1]) & ((1 << (8 - tail)) - 1)
    assert trailing == 0
    assert np.array_equal(ballot_decompress(bits, count), mask)
