"""Device specifications for the simulated GPUs.

The paper evaluates Enterprise on three NVIDIA devices — Kepler K40, Kepler
K20 and Fermi C2070 (§5) — and anchors its analysis in the memory-hierarchy
numbers of Table 2.  This module encodes those devices as immutable
:class:`DeviceSpec` records that the execution model (``repro.gpu``)
consumes.  All latencies are in device clock cycles, matching the units of
Table 2 of the paper.

Nothing in the model reads global state: every simulated device is
constructed from one of these specs (or a custom one), so tests can build
tiny deterministic devices.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeviceSpec",
    "MemoryLevel",
    "KEPLER_K40",
    "KEPLER_K20",
    "FERMI_C2070",
    "XEON_E7_4860",
    "CpuSpec",
    "table2_rows",
]


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the device memory hierarchy.

    Attributes
    ----------
    name:
        Human-readable level name ("register", "shared", "l2", "global").
    size_bytes:
        Capacity in bytes.  ``0`` means "not present" (e.g. L3 on GPUs).
    latency_cycles:
        Access latency in device cycles.  The paper's Table 2 reports
        200–400 cycles for GPU global memory and notes registers/shared
        memory are "at least an order of magnitude faster"; we use the
        conventional Kepler figures.
    """

    name: str
    size_bytes: int
    latency_cycles: int


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated GPU.

    The fields mirror §2.2 of the paper (K40 numbers in parentheses):
    streaming-processor count (15 SMX), CUDA cores per SMX (192), warp
    width (32), max warps per SMX (64), warp schedulers per SMX (4),
    configurable shared memory (16/32/48 KB out of 64 KB), L2 (1.5 MB) and
    global memory (12 GB) with 32/64/128-byte transactions and ~300 GB/s
    peak bandwidth when fully coalesced.
    """

    name: str
    sm_count: int
    cores_per_sm: int
    warp_size: int
    max_warps_per_sm: int
    warp_schedulers_per_sm: int
    clock_mhz: float
    registers_per_sm: int
    max_registers_per_thread: int
    shared_mem_per_sm_bytes: int
    shared_mem_configs_bytes: tuple[int, ...]
    l2_bytes: int
    global_mem_bytes: int
    transaction_bytes: tuple[int, ...]
    peak_bandwidth_gbps: float
    # Latencies (cycles).  Shared/register figures follow the paper's
    # observation that they are >=10x faster than global memory.
    register_latency: int = 1
    shared_latency: int = 8
    l2_latency: int = 80
    global_latency: int = 300
    # Power model (Fig. 16d): idle floor plus utilisation-proportional
    # dynamic power up to the board TDP.
    idle_power_w: float = 25.0
    tdp_w: float = 235.0
    # Hyper-Q: number of hardware work queues for concurrent kernels.
    hyperq_queues: int = 32

    def __post_init__(self) -> None:
        if self.sm_count <= 0 or self.cores_per_sm <= 0:
            raise ValueError("device must have at least one SMX and core")
        if self.warp_size <= 0:
            raise ValueError("warp_size must be positive")
        if self.shared_mem_per_sm_bytes < max(
            self.shared_mem_configs_bytes, default=0
        ):
            raise ValueError("shared memory config exceeds physical size")

    @property
    def total_cores(self) -> int:
        return self.sm_count * self.cores_per_sm

    @property
    def max_resident_threads(self) -> int:
        return self.sm_count * self.max_warps_per_sm * self.warp_size

    @property
    def max_transaction_bytes(self) -> int:
        return max(self.transaction_bytes)

    def memory_levels(self) -> tuple[MemoryLevel, ...]:
        """The hierarchy in Table 2 order (fastest first)."""
        return (
            MemoryLevel("register", self.registers_per_sm * 4 * self.sm_count,
                        self.register_latency),
            MemoryLevel("shared", self.shared_mem_per_sm_bytes * self.sm_count,
                        self.shared_latency),
            MemoryLevel("l2", self.l2_bytes, self.l2_latency),
            MemoryLevel("global", self.global_mem_bytes, self.global_latency),
        )


KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: NVIDIA Kepler K40 (§2.2, Table 2) — the headline device of the paper.
KEPLER_K40 = DeviceSpec(
    name="K40",
    sm_count=15,
    cores_per_sm=192,
    warp_size=32,
    max_warps_per_sm=64,
    warp_schedulers_per_sm=4,
    clock_mhz=745.0,
    registers_per_sm=65_536,
    max_registers_per_thread=255,
    shared_mem_per_sm_bytes=64 * KIB,
    shared_mem_configs_bytes=(16 * KIB, 32 * KIB, 48 * KIB),
    l2_bytes=1536 * KIB,
    global_mem_bytes=12 * GIB,
    transaction_bytes=(32, 64, 128),
    peak_bandwidth_gbps=288.0,
    idle_power_w=25.0,
    tdp_w=235.0,
)

#: NVIDIA Kepler K20.
KEPLER_K20 = DeviceSpec(
    name="K20",
    sm_count=13,
    cores_per_sm=192,
    warp_size=32,
    max_warps_per_sm=64,
    warp_schedulers_per_sm=4,
    clock_mhz=706.0,
    registers_per_sm=65_536,
    max_registers_per_thread=255,
    shared_mem_per_sm_bytes=64 * KIB,
    shared_mem_configs_bytes=(16 * KIB, 32 * KIB, 48 * KIB),
    l2_bytes=1280 * KIB,
    global_mem_bytes=5 * GIB,
    transaction_bytes=(32, 64, 128),
    peak_bandwidth_gbps=208.0,
    idle_power_w=22.0,
    tdp_w=225.0,
)

#: NVIDIA Fermi C2070 (previous generation: fewer, wider SMs, no Hyper-Q).
FERMI_C2070 = DeviceSpec(
    name="C2070",
    sm_count=14,
    cores_per_sm=32,
    warp_size=32,
    max_warps_per_sm=48,
    warp_schedulers_per_sm=2,
    clock_mhz=575.0,
    registers_per_sm=32_768,
    max_registers_per_thread=63,
    shared_mem_per_sm_bytes=64 * KIB,
    shared_mem_configs_bytes=(16 * KIB, 48 * KIB),
    l2_bytes=768 * KIB,
    global_mem_bytes=6 * GIB,
    transaction_bytes=(32, 64, 128),
    peak_bandwidth_gbps=144.0,
    idle_power_w=30.0,
    tdp_w=238.0,
    hyperq_queues=1,  # Fermi serialises kernels from one stream queue.
)


@dataclass(frozen=True)
class CpuSpec:
    """The CPU column of Table 2 (Xeon E7-4860), kept for the table bench."""

    name: str
    register_count: int
    register_latency: int
    l1_bytes: int
    l1_latency: int
    l2_bytes: int
    l2_latency: int
    l3_bytes: int
    l3_latency: int
    dram_bytes: int
    dram_latency: int


XEON_E7_4860 = CpuSpec(
    name="Xeon E7-4860",
    register_count=12,
    register_latency=1,
    l1_bytes=64 * KIB,
    l1_latency=4,
    l2_bytes=256 * KIB,
    l2_latency=10,
    l3_bytes=24 * MIB,
    l3_latency=40,
    dram_bytes=2 * 1024 * GIB,
    dram_latency=55,
)

#: Which BFS data structure Enterprise places at each GPU memory level
#: (Table 2, rightmost column).
BFS_STRUCTURE_PLACEMENT = {
    "register": "Status Array (working element)",
    "shared": "Hub Cache",
    "l2": "-",
    "global": "Status Array, Frontier Queue, Adjacency List",
}


def table2_rows(cpu: CpuSpec = XEON_E7_4860,
                gpu: DeviceSpec = KEPLER_K40) -> list[dict[str, object]]:
    """Regenerate Table 2: CPU vs GPU memory size and access latency.

    Returns one dict per memory level with the CPU and GPU columns and the
    BFS data structures Enterprise maps onto the GPU level.
    """
    gpu_levels = {lvl.name: lvl for lvl in gpu.memory_levels()}
    rows = [
        {
            "memory": "Register",
            "cpu_size": cpu.register_count,
            "cpu_latency": cpu.register_latency,
            "gpu_size": gpu.registers_per_sm,
            "gpu_latency": gpu.register_latency,
            "bfs_structures": BFS_STRUCTURE_PLACEMENT["register"],
        },
        {
            "memory": "L1 cache / shared",
            "cpu_size": cpu.l1_bytes,
            "cpu_latency": cpu.l1_latency,
            "gpu_size": gpu.shared_mem_per_sm_bytes,
            "gpu_latency": gpu.shared_latency,
            "bfs_structures": BFS_STRUCTURE_PLACEMENT["shared"],
        },
        {
            "memory": "L2 cache",
            "cpu_size": cpu.l2_bytes,
            "cpu_latency": cpu.l2_latency,
            "gpu_size": gpu.l2_bytes,
            "gpu_latency": gpu.l2_latency,
            "bfs_structures": BFS_STRUCTURE_PLACEMENT["l2"],
        },
        {
            "memory": "L3 cache",
            "cpu_size": cpu.l3_bytes,
            "cpu_latency": cpu.l3_latency,
            "gpu_size": 0,
            "gpu_latency": 0,
            "bfs_structures": "-",
        },
        {
            "memory": "DRAM",
            "cpu_size": cpu.dram_bytes,
            "cpu_latency": cpu.dram_latency,
            "gpu_size": gpu.global_mem_bytes,
            "gpu_latency": gpu.global_latency,
            "bfs_structures": BFS_STRUCTURE_PLACEMENT["global"],
        },
    ]
    return rows
