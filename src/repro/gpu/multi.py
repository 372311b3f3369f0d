"""Multi-GPU substrate: device groups, interconnect, ballot compression.

§4.4: Enterprise distributes the graph with a 1-D partition, and at every
level "all the GPUs communicate their private status arrays to get the
global view of most recently visited vertices.  In this step, each GPU
uses a CUDA instruction __ballot() to compress the private status array
into a bitwise array where a single bit is used to indicate whether one
vertex is just visited.  This compression reduces the size of
communication data by 90%."

This module provides the pieces: :func:`ballot_compress` /
:func:`ballot_decompress` (the __ballot() equivalent, via
``np.packbits``), an :class:`InterconnectSpec` PCIe-like cost model, and
:class:`DeviceGroup`, a set of simulated devices whose per-level times
combine as ``max(device work) + allgather(communication)`` in integer
picosecond ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock import ticks
from .device import GPUDevice
from .specs import DeviceSpec, KEPLER_K40

__all__ = [
    "InterconnectSpec",
    "PCIE_GEN3_X16",
    "ballot_compress",
    "ballot_decompress",
    "DeviceGroup",
]


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point link model between devices (PCIe switch fabric)."""

    name: str
    bandwidth_gbps: float
    latency_us: float

    def transfer_ms(self, bytes_moved: int) -> float:
        if bytes_moved < 0:
            raise ValueError("cannot transfer a negative byte count")
        if bytes_moved == 0:
            return 0.0
        return self.latency_us * 1e-3 + bytes_moved / (self.bandwidth_gbps * 1e9) * 1e3


#: PCIe 3.0 x16 — the fabric of the paper's multi-GPU node era.  The
#: per-message latency is scaled down with the same factor as the kernel
#: launch overhead (graphs here are ~2^8 smaller than the paper's but
#: level counts are not, so fixed per-level costs must shrink with the
#: per-level payload to preserve the compute:communication ratio).
PCIE_GEN3_X16 = InterconnectSpec("PCIe3 x16", bandwidth_gbps=12.0,
                                 latency_us=0.05)


def ballot_compress(just_visited: np.ndarray) -> np.ndarray:
    """Compress a per-vertex "visited this level" mask to a bit array.

    Equivalent to a warp-wide ``__ballot()`` sweep: every 8 one-byte
    status entries pack into 1 byte, one bit per vertex, MSB-first (a
    trailing group shorter than 8 is zero-padded).  For the paper's
    1-byte status entries this is an 87.5% (~"90%") size reduction.
    """
    mask = np.asarray(just_visited, dtype=bool)
    return np.packbits(mask)

def ballot_decompress(bits: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`ballot_compress` for ``count`` vertices."""
    if count < 0:
        raise ValueError("vertex count cannot be negative")
    unpacked = np.unpackbits(np.asarray(bits, dtype=np.uint8), count=count)
    return unpacked.astype(bool)


class DeviceGroup:
    """N simulated devices plus the interconnect between them.

    The group tracks wall-clock time for bulk-synchronous level execution:
    every level, each device works independently (time = slowest device)
    and then the group allgathers the compressed status arrays.
    """

    def __init__(
        self,
        count: int,
        spec: DeviceSpec = KEPLER_K40,
        interconnect: InterconnectSpec = PCIE_GEN3_X16,
        *,
        fault_plan=None,
    ):
        if count <= 0:
            raise ValueError("a device group needs at least one GPU")
        if fault_plan is not None:
            interconnect = fault_plan.scale_interconnect(interconnect)
            self.devices = [
                GPUDevice(spec, slowdown=fault_plan.slowdown_for(i))
                for i in range(count)
            ]
        else:
            self.devices = [GPUDevice(spec) for _ in range(count)]
        #: The :class:`~repro.faults.plan.FaultPlan` in force, if any.
        self.fault_plan = fault_plan
        self.interconnect = interconnect
        # Integer picosecond ticks (repro.gpu.clock).
        self._comm_ps = 0
        self._elapsed_ps = 0

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def spec(self) -> DeviceSpec:
        return self.devices[0].spec

    def barrier_level(self, per_device_ps: list[int]) -> int:
        """Record one bulk-synchronous level from each device's ticks;
        returns its wall time, the slowest device's."""
        if len(per_device_ps) != len(self.devices):
            raise ValueError("need one time per device")
        wall = max(per_device_ps) if per_device_ps else 0
        self._elapsed_ps += wall
        return wall

    def allgather_ps(self, total_bytes: int) -> int:
        """Bandwidth-optimal ring allreduce/allgather of a ``total_bytes``
        array: every device ships ~2 (N-1)/N of the array over its link,
        all links active concurrently — the standard ring schedule, so
        the per-level exchange cost is nearly independent of N.  Charged
        and returned in ticks."""
        n = len(self.devices)
        if n == 1:
            return 0
        per_link = -(-total_bytes // n)
        ps = ticks(2 * (n - 1) * self.interconnect.transfer_ms(per_link))
        self._comm_ps += ps
        self._elapsed_ps += ps
        return ps

    @property
    def elapsed_ps(self) -> int:
        return self._elapsed_ps

    @property
    def communication_ps(self) -> int:
        return self._comm_ps

    # ------------------------------------------------------------------
    # Replicated-serving helpers (repro.serve): devices as independent
    # workers rather than partitions of one traversal.
    # ------------------------------------------------------------------
    def busy_ms(self) -> list[float]:
        """Per-device accumulated kernel time."""
        return [d.elapsed_ms for d in self.devices]

    def utilization(self) -> list[float]:
        """Per-device busy fraction of the busiest device's span —
        the load-balance view a serving dashboard wants."""
        busy = self.busy_ms()
        peak = max(busy)
        if peak <= 0:
            return [0.0] * len(busy)
        return [b / peak for b in busy]

    def reset(self) -> None:
        for d in self.devices:
            d.reset()
        self._comm_ps = 0
        self._elapsed_ps = 0
