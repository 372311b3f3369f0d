"""Hardware performance counters and the power model.

§2.2 ("GPU Hardware Performance Counters"): the paper profiles its kernels
with nvprof/nvvp and reports ``ldst_fu_utilization`` (memory load/store
function-unit utilisation), ``stall_data_request`` (stall percentage on
data requests), ``gld_transactions`` (global-memory load transactions),
IPC and power.  Figure 16 tracks all five across the BL -> TS -> WB -> HC
ablation; Figure 12 reports hub-cache transaction savings straight from
``gld_transactions``.

The execution model in :mod:`repro.gpu.kernels` already produces every
per-kernel ingredient; this module aggregates them over a run (or a level)
into the same named metrics, plus a utilisation-driven power model used
for the GreenGraph-style TEPS/Watt numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import KernelCost
from .specs import DeviceSpec

__all__ = ["CounterSet", "aggregate_counters", "power_watts"]


@dataclass(frozen=True)
class CounterSet:
    """nvprof-style counters aggregated over a set of kernels."""

    gld_transactions: int
    ldst_fu_utilization: float
    stall_data_request: float
    ipc: float
    power_w: float
    elapsed_ms: float
    instructions: int
    useful_lane_steps: int
    wasted_lane_steps: int

    @property
    def simt_efficiency(self) -> float:
        total = self.useful_lane_steps + self.wasted_lane_steps
        return self.useful_lane_steps / total if total else 1.0

    @property
    def energy_j(self) -> float:
        return self.power_w * self.elapsed_ms * 1e-3


def power_watts(
    spec: DeviceSpec,
    *,
    resident_fill: float,
    ldst_utilization: float,
    issue_utilization: float,
) -> float:
    """Board power from activity factors.

    The dominant dynamic-power term is the *resident thread pressure*:
    scheduled warps — running or parked on memory — keep the schedulers,
    register files and pipelines switching.  The BL baseline keeps the
    device saturated with one CTA per vertex every level ("fewer idle GPU
    threads in the system" is how §5.3 explains the 14.5 W the paper's TS
    saves on Twitter); Enterprise's queue-driven kernels only schedule
    threads that have work.  Load/store activity and useful instruction
    issue add smaller terms.  Calibrated so a saturated, memory-busy
    device draws ~TDP and an empty one the idle floor.
    """
    resident_fill = min(1.0, max(0.0, resident_fill))
    ldst_utilization = min(1.0, max(0.0, ldst_utilization))
    issue_utilization = min(1.0, max(0.0, issue_utilization))
    activity = (0.55 * resident_fill + 0.3 * ldst_utilization
                + 0.15 * issue_utilization)
    return spec.idle_power_w + (spec.tdp_w - spec.idle_power_w) * activity


def aggregate_counters(
    kernels: list[KernelCost],
    spec: DeviceSpec,
    *,
    elapsed_ms: float | None = None,
) -> CounterSet:
    """Roll per-kernel costs up into one :class:`CounterSet`.

    ``elapsed_ms`` overrides the serial sum when the kernels overlapped
    under Hyper-Q (their utilisations then stack within the shorter wall
    time, exactly as nvprof would observe).
    """
    # One pass over the kernels; every accumulator adds in the same
    # left-to-right order the per-field reductions would, so the rolled-up
    # figures are bit-identical to summing each field separately.
    serial_ms = 0.0
    gld = instructions = useful = wasted = 0
    memory_ms = stall_ms = issue_ms = fill_ms = 0.0
    max_resident = spec.max_resident_threads
    for k in kernels:
        t = k.time_ms
        if t <= 0:
            continue
        serial_ms += t
        gld += k.access.transactions
        instructions += k.instructions
        useful += k.useful_lane_steps
        wasted += k.wasted_lane_steps
        memory_ms += k.memory_time_ms
        stall_ms += k.stall_time_ms
        issue_ms += k.issue_time_ms
        fill_ms += min(1.0, k.threads_launched / max_resident) * t
    wall_ms = elapsed_ms if elapsed_ms is not None else serial_ms
    if wall_ms <= 0 or serial_ms <= 0:
        # Degenerate aggregations (no kernels, all-zero kernel times)
        # are well-defined zeros, never NaN: an idle device over
        # whatever wall time the caller observed.
        return CounterSet(gld, 0.0, 0.0, 0.0, spec.idle_power_w,
                          max(wall_ms, 0.0), instructions, useful, wasted)
    # Utilisation vs the wall time: Hyper-Q overlap compresses the wall,
    # so the same memory work shows as higher ldst utilisation — the
    # Fig. 16(a) effect.
    ldst = min(1.0, memory_ms / wall_ms)
    # Stall ratio is a per-cycle fraction; aggregate it over the kernels'
    # own execution (it cannot be inflated by concurrency).
    stall = min(1.0, stall_ms / serial_ms)
    clock_hz = spec.clock_mhz * 1e6
    # IPC counts productive instructions (idle divergent lanes issue only
    # their predicated-off slot, which retires nothing useful).
    useful_instructions = instructions - wasted
    ipc = useful_instructions / (wall_ms * 1e-3 * clock_hz)
    issue_util = min(1.0, issue_ms / wall_ms)
    # Resident thread pressure, time-weighted over the run.
    fill = min(1.0, fill_ms / wall_ms)
    power = power_watts(spec, resident_fill=fill, ldst_utilization=ldst,
                        issue_utilization=issue_util)
    return CounterSet(gld, ldst, stall, ipc, power, wall_ms,
                      instructions, useful, wasted)
