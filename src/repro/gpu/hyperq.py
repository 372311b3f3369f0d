"""Hyper-Q concurrent-kernel timeline model.

§2.2: "Kepler introduces Hyper-Q to support concurrent kernel execution
... when several kernels are executed on the same GPU, Hyper-Q is able to
schedule them to run on different SMXs in parallel to fully utilize all
GPU resources."  Enterprise launches its Thread/Warp/CTA/Grid queue
kernels concurrently (§4.2, Fig. 9), and Fig. 8(c) shows the resulting
overlap: Thread 63.5 ms, Warp 17.8 ms and CTA 10.5 ms kernels complete in
76.5 ms total rather than 91.8 ms end-to-end.

The model packs concurrent kernels on the device's *resource axes*.
Each kernel carries its demand on instruction issue, DRAM bandwidth, and
memory-request slots (``KernelCost.issue/dram/latency_time_ms``); kernels
bound by different resources overlap almost fully, kernels bound by the
same resource queue on it.  Concurrent elapsed time is bounded below by
the longest kernel and by each axis's total demand:

    elapsed >= max_i(t_i)                        (critical kernel)
    elapsed >= sum_i(axis_r(i))   for each r     (axis conservation)

and the model charges the max of those bounds — optimal packing, which
Hyper-Q approaches with enough queues.  Devices without Hyper-Q (Fermi,
``hyperq_queues == 1``) serialise: ``elapsed = sum_i(t_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observ.registry import get_registry
from .kernels import KernelCost
from .specs import DeviceSpec

__all__ = ["OverlapResult", "overlap_kernels", "serialize_kernels"]

#: Buckets for the overlap-speedup histogram: 1x (no overlap) up to the
#: Hyper-Q queue count; Fig. 8(c)'s observed win sits around 1.2x.
_SPEEDUP_BUCKETS = (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0)


def _observe_overlap(result: "OverlapResult", kernels: int) -> "OverlapResult":
    registry = get_registry()
    if registry.enabled and result.serial_ms > 0:
        registry.counter("repro.hyperq.launches").inc()
        registry.counter("repro.hyperq.kernels").inc(kernels)
        registry.counter("repro.hyperq.saved_ms").inc(
            max(0.0, result.serial_ms - result.elapsed_ms))
        registry.histogram("repro.hyperq.overlap_speedup",
                           buckets=_SPEEDUP_BUCKETS).observe(
            result.overlap_speedup)
    return result


@dataclass(frozen=True)
class OverlapResult:
    """Timeline of a set of kernels launched together."""

    elapsed_ms: float
    serial_ms: float
    #: Per-kernel (name, time_ms, device_fraction) for timeline rendering.
    segments: tuple[tuple[str, float, float], ...]

    @property
    def overlap_speedup(self) -> float:
        if self.elapsed_ms <= 0:
            return 1.0
        return self.serial_ms / self.elapsed_ms


def _device_fraction(kernel: KernelCost, spec: DeviceSpec) -> float:
    if kernel.threads_launched <= 0:
        return 0.0
    return min(1.0, kernel.threads_launched / spec.max_resident_threads)


def overlap_kernels(kernels: list[KernelCost], spec: DeviceSpec) -> OverlapResult:
    """Elapsed time of kernels launched concurrently under Hyper-Q.

    One pass accumulates every per-axis sum in the same left-to-right
    order the obvious per-axis reductions would, so the packed times are
    bit-identical to summing each axis separately.
    """
    serial = 0.0
    longest = 0.0
    issue = dram = latency = 0.0
    segments = []
    for k in kernels:
        t = k.time_ms
        if t <= 0:
            continue
        serial += t
        if t > longest:
            longest = t
        issue += k.issue_time_ms
        dram += k.dram_time_ms
        latency += k.latency_time_ms
        segments.append((k.name, t, _device_fraction(k, spec)))
    if not segments:
        return OverlapResult(0.0, 0.0, ())
    if spec.hyperq_queues <= 1:
        return _observe_overlap(OverlapResult(serial, serial,
                                              tuple(segments)),
                                len(segments))
    # Concurrency is limited by the hardware queue count as well.
    batches = -(-len(segments) // spec.hyperq_queues)
    elapsed = max(longest, issue, dram, latency) * batches
    return _observe_overlap(OverlapResult(min(elapsed, serial), serial,
                                          tuple(segments)), len(segments))


def serialize_kernels(kernels: list[KernelCost]) -> float:
    """Elapsed time of kernels launched back-to-back in one stream."""
    return sum(k.time_ms for k in kernels)
