"""Roofline model against :class:`~repro.gpu.specs.DeviceSpec` peaks.

Williams et al.'s roofline methodology (PAPERS.md) bounds a kernel's
attainable instruction throughput by two device ceilings: the compute
roof (peak issue rate) and the bandwidth roof scaled by the kernel's
*operational intensity* (work per byte moved).  A point far under its
roof is limited by neither ceiling — on this simulator that means the
memory-*latency* axis (outstanding-request throughput), exactly the
resource the paper's techniques attack (§4: "BFS is heavily memory
access bound, which is largely affected by the latency of the global
memory access").

The execution model already charges every kernel along explicit resource
axes (``issue`` / ``dram`` / ``latency``, see
:mod:`repro.gpu.kernels`), so classification here does not guess from
achieved rates alone: when axis demands are available the *binding* axis
decides the verdict, and the roofline percentages quantify how close the
level ran to each ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids the gpu <-> observ cycle
    from ..gpu.specs import DeviceSpec

__all__ = [
    "BOUND_KINDS",
    "RooflinePoint",
    "ridge_intensity",
    "peak_instr_per_s",
    "roofline_point",
]

#: The possible verdicts, in the order reports list them.
BOUND_KINDS = ("memory-bound", "compute-bound", "latency-bound", "idle")


def peak_instr_per_s(spec: "DeviceSpec") -> float:
    """Compute roof: one instruction per core per cycle."""
    return spec.total_cores * spec.clock_mhz * 1e6


def ridge_intensity(spec: "DeviceSpec") -> float:
    """Operational intensity (instructions/byte) where the bandwidth
    roof meets the compute roof; below it a kernel *cannot* reach peak
    issue even with perfect coalescing."""
    return peak_instr_per_s(spec) / (spec.peak_bandwidth_gbps * 1e9)


@dataclass(frozen=True)
class RooflinePoint:
    """One workload placed under the device's rooflines."""

    name: str
    #: Operational intensity, instructions per byte; ``inf`` when the
    #: workload moved no bytes, ``0.0`` when it retired no instructions.
    intensity: float
    achieved_instr_per_s: float
    achieved_gbps: float
    peak_instr_per_s: float
    peak_gbps: float
    #: The attainable roof at this intensity:
    #: ``min(compute roof, intensity * bandwidth roof)``.
    roof_instr_per_s: float
    #: Achieved fraction of the attainable roof, in [0, 1].
    pct_of_roof: float
    #: Achieved fraction of peak DRAM bandwidth, in [0, 1].
    pct_of_bandwidth: float
    #: One of :data:`BOUND_KINDS`.
    bound: str

    def describe(self) -> str:
        if self.bound == "idle":
            return f"{self.name}: idle"
        return (f"{self.name}: {self.bound} at {self.pct_of_roof:.0%} of "
                f"the attainable roof (intensity "
                f"{self.intensity:.2f} instr/B, ridge "
                f"{self.peak_instr_per_s / max(self.peak_gbps * 1e9, 1.0):.2f})")


def roofline_point(
    name: str,
    spec: "DeviceSpec",
    *,
    instructions: float,
    bytes_moved: float,
    elapsed_ms: float,
    issue_ms: float | None = None,
    dram_ms: float | None = None,
    latency_ms: float | None = None,
) -> RooflinePoint:
    """Place one workload (a level, a kernel class, a whole run) under
    the device rooflines and classify its binding resource.

    When the per-axis demands of the execution model are supplied
    (``issue_ms`` / ``dram_ms`` / ``latency_ms``), the largest demand is
    the binding axis and decides the verdict directly — DRAM bandwidth
    ⇒ memory-bound, instruction issue ⇒ compute-bound, request
    throughput ⇒ latency-bound.  Without them the verdict falls back to
    the classic roofline test: intensity below the ridge ⇒ memory-bound
    if near the bandwidth roof, else latency-bound; above the ridge ⇒
    compute-bound.

    Degenerate inputs are well-defined, never NaN: zero elapsed time or
    zero work classifies as ``"idle"`` with all rates zero; zero bytes
    with nonzero instructions yields infinite intensity (compute roof
    applies); zero instructions with nonzero bytes yields intensity 0.
    """
    peak_i = peak_instr_per_s(spec)
    peak_bw = spec.peak_bandwidth_gbps * 1e9
    instructions = max(0.0, float(instructions))
    bytes_moved = max(0.0, float(bytes_moved))

    # A subnormal elapsed_ms can underflow to exactly 0.0 seconds, so the
    # idle guard tests the product actually divided by.
    seconds = elapsed_ms * 1e-3
    if seconds <= 0 or (instructions == 0 and bytes_moved == 0):
        return RooflinePoint(name, 0.0, 0.0, 0.0, peak_i,
                             spec.peak_bandwidth_gbps, 0.0, 0.0, 0.0,
                             "idle")

    achieved_i = instructions / seconds
    achieved_bw = bytes_moved / seconds
    if bytes_moved == 0:
        intensity = math.inf
        roof = peak_i
    else:
        intensity = instructions / bytes_moved
        roof = min(peak_i, intensity * peak_bw)
    pct_roof = min(1.0, achieved_i / roof) if roof > 0 else 0.0
    pct_bw = min(1.0, achieved_bw / peak_bw)

    if issue_ms is not None or dram_ms is not None or latency_ms is not None:
        axes = {
            "compute-bound": issue_ms or 0.0,
            "memory-bound": dram_ms or 0.0,
            "latency-bound": latency_ms or 0.0,
        }
        # Stable tie-break: BOUND_KINDS order (memory first — ties on a
        # BFS-shaped workload almost always mean the memory system).
        bound = max(BOUND_KINDS[:3], key=lambda k: axes[k])
        if axes[bound] <= 0.0:
            bound = "latency-bound" if intensity < ridge_intensity(spec) \
                else "compute-bound"
    elif intensity >= ridge_intensity(spec):
        bound = "compute-bound"
    elif pct_bw >= 0.5:
        bound = "memory-bound"
    else:
        bound = "latency-bound"

    return RooflinePoint(name, intensity, achieved_i, achieved_bw,
                         peak_i, spec.peak_bandwidth_gbps, roof,
                         pct_roof, pct_bw, bound)
