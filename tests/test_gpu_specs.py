"""Device specifications and Table 2 regeneration."""

from __future__ import annotations

import pytest

from repro.gpu import (
    DeviceSpec,
    FERMI_C2070,
    KEPLER_K20,
    KEPLER_K40,
    XEON_E7_4860,
    table2_rows,
)


class TestK40:
    """§2.2's K40 description, field by field."""

    def test_smx_and_cores(self):
        assert KEPLER_K40.sm_count == 15
        assert KEPLER_K40.cores_per_sm == 192
        assert KEPLER_K40.total_cores == 2880

    def test_warp_structure(self):
        assert KEPLER_K40.warp_size == 32
        assert KEPLER_K40.max_warps_per_sm == 64
        assert KEPLER_K40.warp_schedulers_per_sm == 4

    def test_registers(self):
        assert KEPLER_K40.registers_per_sm == 65_536
        assert KEPLER_K40.max_registers_per_thread == 255

    def test_shared_memory_configs(self):
        """'one can allocate 16, 32, or 48 KB of the shared memory at the
        program runtime' out of 64 KB per SMX."""
        assert KEPLER_K40.shared_mem_per_sm_bytes == 64 * 1024
        assert KEPLER_K40.shared_mem_configs_bytes == \
            (16 * 1024, 32 * 1024, 48 * 1024)

    def test_l2_and_global(self):
        assert KEPLER_K40.l2_bytes == 1536 * 1024
        assert KEPLER_K40.global_mem_bytes == 12 * 1024 ** 3

    def test_transactions(self):
        """'a data block that contains 32, 64 or 128 bytes'."""
        assert KEPLER_K40.transaction_bytes == (32, 64, 128)
        assert KEPLER_K40.max_transaction_bytes == 128

    def test_bandwidth(self):
        """'close to 300GB/s DRAM bandwidth'."""
        assert 250 < KEPLER_K40.peak_bandwidth_gbps < 300

    def test_global_latency_in_table2_band(self):
        assert 200 <= KEPLER_K40.global_latency <= 400

    def test_shared_order_of_magnitude_faster(self):
        """'at least an order of magnitude faster than the global
        memory'."""
        assert KEPLER_K40.global_latency >= 10 * KEPLER_K40.shared_latency

    def test_resident_threads(self):
        assert KEPLER_K40.max_resident_threads == 15 * 64 * 32


class TestOtherDevices:
    def test_k20_smaller(self):
        assert KEPLER_K20.sm_count < KEPLER_K40.sm_count
        assert KEPLER_K20.peak_bandwidth_gbps < KEPLER_K40.peak_bandwidth_gbps

    def test_fermi_no_hyperq(self):
        assert FERMI_C2070.hyperq_queues == 1
        assert KEPLER_K40.hyperq_queues > 1


class TestValidation:
    def test_rejects_zero_sm(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad", sm_count=0, cores_per_sm=1, warp_size=32,
                max_warps_per_sm=1, warp_schedulers_per_sm=1,
                clock_mhz=100.0, registers_per_sm=1,
                max_registers_per_thread=1, shared_mem_per_sm_bytes=1024,
                shared_mem_configs_bytes=(1024,), l2_bytes=1,
                global_mem_bytes=1, transaction_bytes=(32,),
                peak_bandwidth_gbps=1.0,
            )


class TestTable2:
    def test_rows_complete(self):
        rows = table2_rows()
        names = [r["memory"] for r in rows]
        assert names == ["Register", "L1 cache / shared", "L2 cache",
                         "L3 cache", "DRAM"]

    def test_gpu_has_no_l3(self):
        rows = {r["memory"]: r for r in table2_rows()}
        assert rows["L3 cache"]["gpu_size"] == 0

    def test_cpu_numbers(self):
        """Table 2's CPU column (Xeon E7-4860)."""
        assert XEON_E7_4860.l1_latency == 4
        assert XEON_E7_4860.l2_latency == 10
        assert XEON_E7_4860.l3_latency == 40
        assert XEON_E7_4860.l3_bytes == 24 * 1024 * 1024

    def test_bfs_structure_placement(self):
        """Table 2 maps the hub cache to shared memory and the big BFS
        structures to DRAM."""
        rows = {r["memory"]: r for r in table2_rows()}
        assert "Hub Cache" in rows["L1 cache / shared"]["bfs_structures"]
        dram = rows["DRAM"]["bfs_structures"]
        for structure in ("Status Array", "Frontier Queue", "Adjacency List"):
            assert structure in dram

    def test_memory_levels_ordering(self):
        levels = KEPLER_K40.memory_levels()
        latencies = [lvl.latency_cycles for lvl in levels]
        assert latencies == sorted(latencies)
