"""Simulated GPU device: a launch recorder over the execution model.

BFS implementations express their work as :class:`~repro.gpu.kernels.KernelCost`
records (built by the cost constructors in :mod:`repro.gpu.kernels`) and
submit them to a :class:`GPUDevice`, which keeps the running timeline and
exposes nvprof-style counters.  The device itself holds no algorithmic
state — graphs and status arrays live in plain NumPy arrays, standing in
for global memory, with their *access costs* charged through the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observ.tracer import TID_STREAM, get_tracer
from .clock import PS_PER_MS, ticks
from .counters import CounterSet, aggregate_counters
from .hyperq import OverlapResult, overlap_kernels
from .kernels import KernelCost
from .specs import DeviceSpec, KEPLER_K40

__all__ = ["GPUDevice", "LaunchRecord"]


@dataclass(frozen=True)
class LaunchRecord:
    """One entry in the device timeline."""

    label: str
    kernels: tuple[KernelCost, ...]
    #: Time the entry added to the device clock, in picosecond ticks.
    elapsed_ps: int
    concurrent: bool

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ps / PS_PER_MS


class GPUDevice:
    """A single simulated GPU.

    The device clock is an integer count of picosecond ticks
    (:mod:`repro.gpu.clock`); ``elapsed_ms`` is derived from it.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's K40.
    slowdown:
        Multiplier applied to every launch's elapsed time (a fault-plan
        straggler; 1.0 = healthy).  Kernel *counters* are unaffected — a
        straggler does the same work, just slower.
    """

    def __init__(self, spec: DeviceSpec = KEPLER_K40, *,
                 slowdown: float = 1.0):
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        self.spec = spec
        self.slowdown = slowdown
        self._records: list[LaunchRecord] = []
        self._elapsed_ps = 0

    # ------------------------------------------------------------------
    # Launch API
    # ------------------------------------------------------------------
    def _record(self, label: str, kernels: tuple[KernelCost, ...],
                healthy_ps: float, concurrent: bool) -> int:
        """Append one timeline entry: ``healthy_ps`` stretched by the
        straggler factor, then rounded to a tick.  Returns the clock
        before it."""
        ps = round(healthy_ps * self.slowdown)
        begin = self._elapsed_ps
        self._records.append(LaunchRecord(label, kernels, ps, concurrent))
        self._elapsed_ps = begin + ps
        return begin

    def launch(self, kernel: KernelCost, *, label: str | None = None) -> KernelCost:
        """Run one kernel to completion (its own stream, no overlap)."""
        begin = self._record(label or kernel.name, (kernel,),
                             kernel.time_ps, False)
        tracer = get_tracer()
        if tracer.enabled:
            self._trace_kernel(tracer, kernel, begin / PS_PER_MS, TID_STREAM,
                               label=label)
        return kernel

    def launch_concurrent(
        self, kernels: list[KernelCost], *, label: str = "concurrent"
    ) -> OverlapResult:
        """Run kernels together under Hyper-Q (§4.2's four queue kernels)."""
        result = overlap_kernels(kernels, self.spec)
        begin = self._record(label, tuple(kernels), result.elapsed_ps, True)
        tracer = get_tracer()
        if tracer.enabled:
            # One track per Hyper-Q stream: concurrent kernels render
            # side by side inside the level window, as in nvvp.
            stream = TID_STREAM
            for k in kernels:
                if k.time_ps <= 0:
                    continue
                self._trace_kernel(tracer, k, begin / PS_PER_MS, stream)
                stream += 1
        return result

    def _trace_kernel(self, tracer, kernel: KernelCost, begin_ms: float,
                      tid: int, *, label: str | None = None) -> None:
        tracer.record_span(
            label or kernel.name, begin_ms, kernel.time_ms * self.slowdown,
            cat="kernel", tid=tid,
            args={
                "granularity": (kernel.granularity.value
                                if kernel.granularity else "n/a"),
                "threads": kernel.threads_launched,
                "gld_transactions": kernel.access.transactions,
                "simt_efficiency": round(kernel.simt_efficiency, 4),
            },
        )

    def charge(self, label: str, elapsed_ms: float) -> None:
        """Charge non-kernel device time (e.g. storage reads)."""
        if elapsed_ms < 0:
            raise ValueError("elapsed time cannot be negative")
        begin = self._record(label, (), elapsed_ms * PS_PER_MS, False)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(label, begin / PS_PER_MS,
                               (self._elapsed_ps - begin) / PS_PER_MS,
                               cat="transfer", tid=TID_STREAM)

    def truncate_to(self, elapsed_ms: float) -> float:
        """Cancel everything recorded past ``elapsed_ms``; returns the
        cancelled time.

        Used by the dispatcher's timeout path: a sweep killed at its
        deadline must not leave the device's timeline claiming the full
        sweep ran.  Whole records that fit are kept; the record spanning
        the cut is replaced by a kernel-free ``<label>:cancelled`` stub
        covering only the part that ran; later records are dropped.
        """
        if elapsed_ms < 0:
            raise ValueError("elapsed time cannot be negative")
        cut = ticks(elapsed_ms)
        total = self._elapsed_ps
        if total <= cut:
            return 0.0
        kept: list[LaunchRecord] = []
        acc = 0
        for record in self._records:
            if acc + record.elapsed_ps <= cut:
                kept.append(record)
                acc += record.elapsed_ps
                continue
            if cut > acc:
                kept.append(LaunchRecord(
                    f"{record.label}:cancelled", (), cut - acc, False))
                acc = cut
            break
        self._records = kept
        self._elapsed_ps = acc
        return (total - cut) / PS_PER_MS

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def elapsed_ps(self) -> int:
        """The device clock, in picosecond ticks."""
        return self._elapsed_ps

    @property
    def elapsed_ms(self) -> float:
        return self._elapsed_ps / PS_PER_MS

    @property
    def records(self) -> tuple[LaunchRecord, ...]:
        return tuple(self._records)

    def kernels(self) -> list[KernelCost]:
        return [k for r in self._records for k in r.kernels]

    def counters(self) -> CounterSet:
        """nvprof-style aggregate over everything launched so far."""
        return aggregate_counters(
            self.kernels(), self.spec, elapsed_ms=self.elapsed_ms
        )

    def timeline(self) -> list[tuple[str, float]]:
        """(label, elapsed_ms) pairs in launch order — Fig. 8 rendering."""
        return [(r.label, r.elapsed_ms) for r in self._records]

    def reset(self) -> None:
        self._records.clear()
        self._elapsed_ps = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GPUDevice({self.spec.name}, launches={len(self._records)}, "
                f"elapsed={self.elapsed_ms:.3f} ms)")
