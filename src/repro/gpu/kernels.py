"""Kernel execution model: granularity, divergence and cycle accounting.

A *kernel* here is one GPU launch: a number of thread groups, each of a
parallel granularity from §2.2 — a single **Thread**, a **Warp** (32), a
**CTA** (thread block, here 256) or the whole **Grid**.  The model charges
each launch along four axes and takes the binding one:

* **issue** — instructions retired over the device's cores; idle lanes in
  divergent or underfilled groups still occupy issue slots.
* **DRAM bandwidth** — coalesced transactions at peak bandwidth.
* **memory-request throughput** — the axis the paper's techniques live
  on.  A resident warp can keep roughly one memory instruction in flight
  per global-latency round trip, so the device retires about
  ``resident_warps`` warp-steps per ``global_latency`` cycles.  A warp
  whose lanes are mostly idle issues just as many *steps* but far fewer
  useful transactions — which is exactly why the paper's BL baseline
  ("one CTA per vertex, frontier or not") crawls, why WB's
  granularity-matched kernels raise ``ldst_fu_utilization`` by 24 %
  (Fig. 16a), and why the hub cache, by serving lookups from shared
  memory, cuts ``stall_data_request`` from 4.8 % to 2.9 % (Fig. 16b).
* **critical path** — the most loaded group serialises its loop
  iterations ("if one CTA were assigned to inspect [a 2.5 M-edge vertex],
  it would require more than 10,000 iterations", §4.2); iterations
  overlap up to a memory-level-parallelism factor.

Absolute times are scaled for graphs ~256x smaller than the paper's, so
the per-launch overhead is scaled down equally (see
:data:`KERNEL_LAUNCH_US`); all Figure 13/14 claims are ratios, which the
scaling preserves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .. import accel
from ..observ.registry import get_registry
from .clock import PS_PER_MS, ticks
from .memory import AccessPattern, EMPTY_ACCESS
from .specs import DeviceSpec

__all__ = [
    "Granularity",
    "KernelCost",
    "group_size",
    "expansion_kernel",
    "sweep_kernel",
    "prefix_sum_kernel",
    "atomic_enqueue_kernel",
    "KERNEL_LAUNCH_US",
    "INSTR_PER_EDGE",
    "INSTR_PER_SCAN",
    "CTA_THREADS",
    "GRID_THREADS",
]

#: Per-kernel dispatch overhead, microseconds.  Real Kepler launches cost
#: ~5 us; the reproduction runs graphs ~2^8 smaller than the paper's, so
#: the overhead is scaled by the same factor to keep the work:overhead
#: ratio (and therefore every reported speedup ratio) intact.
KERNEL_LAUNCH_US = 0.02

#: Instructions charged per inspected edge (index arithmetic, status
#: compare, conditional store).
INSTR_PER_EDGE = 12

#: Instructions charged per status-array element scanned.
INSTR_PER_SCAN = 5

#: CTA width used by the model for CTA-granularity kernels.
CTA_THREADS = 256

#: Grid width used for ExtremeQueue frontiers (§4.2: "Enterprise may even
#: assign all threads on one GPU to a frontier").
GRID_THREADS = 256 * 256

#: Memory-level parallelism: outstanding loads one warp keeps in flight
#: across dependent loop iterations (inspect-then-branch loops leave
#: little room; Kepler sustains ~2 for BFS-style gathers).
MLP = 2

#: Cycles one SMX spends scheduling each thread block it launches.  This
#: is the per-CTA dispatch cost that makes "one CTA per vertex" launches
#: (the BL baseline and the Fig. 1(c) status-array method) expensive even
#: when the CTA finds no work.
BLOCK_DISPATCH_CYCLES = 40


class Granularity(enum.Enum):
    """Parallel granularity assigned to one work item (frontier)."""

    THREAD = "thread"
    WARP = "warp"
    CTA = "cta"
    GRID = "grid"


def group_size(gran: Granularity, spec: DeviceSpec) -> int:
    """Number of threads one group of this granularity contains."""
    if gran is Granularity.THREAD:
        return 1
    if gran is Granularity.WARP:
        return spec.warp_size
    if gran is Granularity.CTA:
        return CTA_THREADS
    return GRID_THREADS


@dataclass
class KernelCost:
    """Accounting record for one simulated kernel launch."""

    name: str
    granularity: Granularity | None
    groups: int
    threads_launched: int
    #: Lane-steps that did useful work (one edge / one element each).
    useful_lane_steps: int
    #: Lane-steps burned by idle lanes inside divergent/underfilled groups.
    wasted_lane_steps: int
    instructions: int
    access: AccessPattern
    #: Elapsed device time in picosecond ticks (:mod:`repro.gpu.clock`).
    time_ps: int
    #: Time the DRAM/load-store pipeline is the binding resource.
    memory_time_ms: float
    #: Time attributable to unhidden memory latency (request-throughput
    #: bound in excess of what issue alone would take).
    stall_time_ms: float
    #: Demand on each device resource axis (ms): instruction issue, DRAM
    #: bandwidth, memory-request slots.  Used by the Hyper-Q overlap
    #: model — concurrent kernels pack until one axis saturates.
    issue_time_ms: float = 0.0
    dram_time_ms: float = 0.0
    latency_time_ms: float = 0.0
    _spec_clock_mhz: float = field(default=745.0, repr=False)

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS

    @property
    def lane_steps(self) -> int:
        return self.useful_lane_steps + self.wasted_lane_steps

    @property
    def simt_efficiency(self) -> float:
        """Fraction of occupied lane-slots doing useful work."""
        total = self.lane_steps
        return self.useful_lane_steps / total if total else 1.0

    @property
    def ldst_utilization(self) -> float:
        """Share of elapsed time the load/store function unit is busy —
        the ``ldst_fu_utilization`` metric of Fig. 16(a)."""
        if self.time_ms <= 0:
            return 0.0
        return min(1.0, self.memory_time_ms / self.time_ms)

    @property
    def stall_data_request(self) -> float:
        """Share of elapsed time stalled on outstanding data requests —
        ``stall_data_request`` of Fig. 16(b)."""
        if self.time_ms <= 0:
            return 0.0
        return min(1.0, self.stall_time_ms / self.time_ms)

    @property
    def ipc(self) -> float:
        """Device-wide achieved instructions per cycle, Fig. 16(c)."""
        if self.time_ms <= 0:
            return 0.0
        return self.instructions / (self.time_ms * 1e-3 *
                                    self._spec_clock_mhz * 1e6)


def _observe_cost(cost: KernelCost) -> KernelCost:
    """Feed a freshly built kernel into the metrics registry (if one is
    collecting): per-granularity launch counts, transactions and
    lane-step efficiency — the raw series behind Figs. 12 and 16."""
    registry = get_registry()
    if registry.enabled and cost.time_ps > 0:
        gran = cost.granularity.value if cost.granularity else "none"
        registry.counter("repro.kernels.launched", granularity=gran).inc()
        registry.counter("repro.kernels.gld_transactions",
                         granularity=gran).inc(cost.access.transactions)
        registry.counter("repro.kernels.useful_lane_steps",
                         granularity=gran).inc(cost.useful_lane_steps)
        registry.counter("repro.kernels.wasted_lane_steps",
                         granularity=gran).inc(cost.wasted_lane_steps)
        registry.histogram("repro.kernels.time_ms",
                           granularity=gran).observe(cost.time_ms)
    return cost


def _empty_cost(name: str, gran: Granularity | None,
                spec: DeviceSpec) -> KernelCost:
    return KernelCost(name, gran, 0, 0, 0, 0, 0, EMPTY_ACCESS,
                      0, 0.0, 0.0, _spec_clock_mhz=spec.clock_mhz)


# ----------------------------------------------------------------------
# Cost-object interning
#
# Every constructor below is a pure function of its arguments, and the
# returned KernelCost records are never mutated (the golden suites would
# catch it), so they are memoized: the same launch shape returns the
# same shared record.  A memo hit costs one dict lookup instead of a
# construction; a miss runs the builder.  The registry observation fires
# exactly once per call either way (inside the builder on a miss,
# explicitly on a hit), so Figs. 12/16 launch counters count calls.
# ----------------------------------------------------------------------

_cost_table = accel.intern_table("kernel_cost")

#: Process-unique token per DeviceSpec instance — avoids hashing all
#: ~20 spec fields on every memo probe (see accel.instance_token).
_spec_token = accel.instance_token


def _resident_warps(threads_launched: int, spec: DeviceSpec) -> int:
    """Warps concurrently resident across all SMXs for this launch."""
    if threads_launched <= 0:
        return 0
    launched = -(-threads_launched // spec.warp_size)
    return max(1, min(launched, spec.sm_count * spec.max_warps_per_sm))


def _elapsed(
    spec: DeviceSpec,
    instructions: int,
    access: AccessPattern,
    lane_steps: int,
    threads_launched: int,
    critical_path_steps: int,
    step_instr: int,
    shared_accesses: int = 0,
) -> tuple[int, float, float, float, float, float]:
    """Combine the four cost axes.

    Returns ``(time, memory, stall, issue, dram, latency)``: the elapsed
    time rounded to picosecond ticks, the rest in ms — the last three
    are the per-axis demands the Hyper-Q model packs on.
    """
    clock_hz = spec.clock_mhz * 1e6
    issue_s = instructions / (spec.total_cores * clock_hz)
    dram_s = access.bytes_moved / (spec.peak_bandwidth_gbps * 1e9)
    # Request-throughput: total warp-steps, each holding its warp for one
    # global-memory round trip, spread over the warps the launch keeps
    # resident.  Shared-memory accesses pay the (10x+ cheaper) shared
    # latency instead — the hub-cache saving.
    warps = _resident_warps(threads_launched, spec)
    warp_steps = -(-lane_steps // spec.warp_size) if lane_steps else 0
    latency_s = (warp_steps * spec.global_latency / MLP
                 + shared_accesses * spec.shared_latency / spec.warp_size
                 ) / (warps * clock_hz) if warps else 0.0
    critical_s = critical_path_steps * (
        step_instr + spec.global_latency / MLP) / clock_hz
    # Thread-block scheduling: each CTA dispatched costs the SMX that
    # receives it some cycles, paid even by empty blocks.
    blocks = -(-threads_launched // CTA_THREADS) if threads_launched else 0
    dispatch_s = blocks * BLOCK_DISPATCH_CYCLES / (spec.sm_count * clock_hz)
    launch_s = KERNEL_LAUNCH_US * 1e-6
    body_s = max(issue_s, dram_s, latency_s, critical_s) + dispatch_s
    stall_s = max(0.0, min(body_s, latency_s) - issue_s)
    memory_s = min(body_s, max(dram_s, latency_s))
    return (ticks((body_s + launch_s) * 1e3), memory_s * 1e3, stall_s * 1e3,
            (issue_s + dispatch_s) * 1e3, dram_s * 1e3, latency_s * 1e3)


def _thread_granularity_steps(
    workloads: np.ndarray, warp_size: int
) -> tuple[int, int]:
    """Warp formation for Thread-granularity kernels.

    32 consecutive queue entries share one warp; SIMT executes the union
    of their loops, so the warp runs ``max(workload)`` steps and every
    lane occupies a slot for all of them (branch divergence, §2.2).
    Returns ``(lane_steps, critical_steps)``.
    """
    n = workloads.size
    pad = (-n) % warp_size
    padded = np.concatenate([workloads, np.zeros(pad, dtype=workloads.dtype)]) \
        if pad else workloads
    per_warp_max = padded.reshape(-1, warp_size).max(axis=1)
    per_warp_max = np.maximum(per_warp_max, 1)
    lane_steps = int(per_warp_max.sum()) * warp_size
    return lane_steps, int(per_warp_max.max())


# Per-(spec, element_bytes) lookup tables of the per-workload adjacency
# figures, and per-group-size tables of the loop-step counts.  Entry w
# holds the figure for a workload of w, so a gather + sum gives the
# per-frontier reductions (all-integer arithmetic, so exact); the tables
# grow geometrically with the largest workload seen.
_adj_tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_steps_tables: dict[int, np.ndarray] = {}


def _adj_table(spec: DeviceSpec, element_bytes: int,
               wmax: int) -> tuple[np.ndarray, np.ndarray]:
    key = (accel.instance_token(spec), element_bytes)
    entry = _adj_tables.get(key)
    if entry is None or entry[0].size <= wmax:
        old = entry[0].size if entry is not None else 0
        size = max(wmax + 1, 2 * old, 512)
        w = np.arange(size, dtype=np.int64)
        seg = spec.max_transaction_bytes
        small_seg = min(spec.transaction_bytes)
        bytes_needed = w * element_bytes
        tx = np.maximum(1, -(-bytes_needed // seg))
        b = np.minimum(
            tx * seg,
            -(-np.maximum(bytes_needed, 1) // small_seg) * small_seg,
        )
        entry = _adj_tables[key] = (tx, b)
    return entry


def _steps_table(g: int, wmax: int) -> np.ndarray:
    t = _steps_tables.get(g)
    if t is None or t.size <= wmax:
        old = t.size if t is not None else 0
        size = max(wmax + 1, 2 * old, 512)
        w = np.arange(size, dtype=np.int64)
        t = _steps_tables[g] = np.maximum(1, -(-w // g))
    return t


def _expansion_build(
    workloads: np.ndarray,
    granularity: Granularity,
    spec: DeviceSpec,
    *,
    name: str = "expand",
    edge_access: AccessPattern | None = None,
    element_bytes: int = 8,
    neighbor_locality: float = 0.0,
    shared_hits: int = 0,
) -> KernelCost:
    """Builder behind :func:`expansion_kernel`.  Per-workload figures
    come from lookup-table gathers (``ceil`` and ``max`` are monotonic,
    so the critical path is the table entry at the largest workload)."""
    groups = int(workloads.size)
    if groups == 0:
        return _empty_cost(name, granularity, spec)
    g = group_size(granularity, spec)
    useful = int(workloads.sum())
    wmax = int(workloads.max())
    if granularity is Granularity.THREAD:
        lane_steps, critical = _thread_granularity_steps(
            workloads, spec.warp_size)
        threads_launched = groups
    else:
        steps_t = _steps_table(g, wmax)
        lane_steps = int(steps_t[workloads].sum()) * g
        critical = int(steps_t[wmax])
        threads_launched = groups * g
    wasted = lane_steps - useful

    shared_hits = int(min(shared_hits, useful))
    global_lookups = useful - shared_hits
    if edge_access is None:
        seg = spec.max_transaction_bytes
        small_seg = min(spec.transaction_bytes)
        # Adjacency-list reads: contiguous per list.  A list (or the
        # early-terminated prefix of one) shorter than a full line is
        # served at the minimum transaction size.
        tx_t, bytes_t = _adj_table(spec, element_bytes, wmax)
        indep_tx = int(tx_t[workloads].sum())
        indep_bytes = int(bytes_t[workloads].sum())
        # Queue sortedness (the §4.1 direction-switching workflow's win):
        # consecutive queue entries with consecutive vertex IDs read
        # adjacent CSR ranges, so their list loads merge into shared
        # full-line transactions instead of one small transaction each.
        total_adj = useful * element_bytes
        merged_tx = max(1, -(-total_adj // seg)) if total_adj else 0
        merged_bytes = merged_tx * seg
        # Merging can only help: the independent small-transaction path
        # is an upper bound (a lone short list gains nothing from a
        # full-line fetch).
        adj_tx = min(indep_tx,
                     int((1.0 - neighbor_locality) * indep_tx
                         + neighbor_locality * merged_tx))
        adj_bytes = min(indep_bytes,
                        int((1.0 - neighbor_locality) * indep_bytes
                            + neighbor_locality * merged_bytes))
        # Per-edge status lookups: `neighbor_locality` of them coalesce
        # with warp-mates into full lines, the rest are scattered 32 B
        # transactions.
        coalesced = int(global_lookups * neighbor_locality)
        scattered = global_lookups - coalesced
        coal_tx = -(-coalesced * element_bytes // seg)
        # Same bound as adjacency: coalescing a handful of lookups into a
        # full line must not cost more than leaving them scattered.  The
        # byte bound holds line by line: a trailing partial line is
        # charged a full line or its lookups' scattered transactions,
        # whichever is less, so more locality never moves more bytes.
        status_tx = min(global_lookups, scattered + coal_tx)
        full_lines, tail = divmod(coalesced * element_bytes, seg)
        status_bytes = min(global_lookups * small_seg,
                           full_lines * seg
                           + min(seg, -(-tail // element_bytes) * small_seg)
                           + scattered * small_seg)
        tx = adj_tx + status_tx
        bytes_moved = adj_bytes + status_bytes
        edge_access = AccessPattern(useful + global_lookups, tx, bytes_moved)

    instructions = useful * INSTR_PER_EDGE + wasted
    time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms = _elapsed(
        spec, instructions, edge_access, lane_steps, threads_launched,
        critical, INSTR_PER_EDGE, shared_accesses=shared_hits,
    )
    return _observe_cost(KernelCost(
        name, granularity, groups, threads_launched, useful, wasted,
        instructions, edge_access, time_ps, mem_ms, stall_ms,
        issue_ms, dram_ms, lat_ms, _spec_clock_mhz=spec.clock_mhz,
    ))


def expansion_kernel(
    workloads: np.ndarray,
    granularity: Granularity,
    spec: DeviceSpec,
    *,
    name: str = "expand",
    edge_access: AccessPattern | None = None,
    element_bytes: int = 8,
    neighbor_locality: float = 0.0,
    shared_hits: int = 0,
) -> KernelCost:
    """Cost of expanding/inspecting frontiers with ``workloads[i]`` edges.

    One group of ``granularity`` threads is assigned per frontier.  For
    WARP/CTA/GRID groups the group iterates ``ceil(w / g)`` steps with all
    ``g`` lanes occupied; for THREAD granularity, 32 consecutive frontiers
    share a warp and diverge to the slowest lane.  Idle lane-slots are the
    waste WB eliminates.

    Parameters
    ----------
    workloads:
        Out-degrees (edges to inspect) of each frontier handled here.
    edge_access:
        Pre-computed memory pattern.  If omitted, adjacency-list reads are
        contiguous per list and per-edge status lookups are random, except
        for a ``neighbor_locality`` fraction that coalesces (the ordered
        queue produced by the direction-switching workflow).
    shared_hits:
        Edge inspections served by the shared-memory hub cache instead of
        a global status lookup (HC, §4.3) — they are excluded from the
        global-access pattern and charged at shared-memory latency.
    """
    workloads = np.asarray(workloads, dtype=np.int64)
    key = ("x", _spec_token(spec), name, granularity, workloads.tobytes(),
           edge_access, element_bytes, neighbor_locality, shared_hits)
    cached = _cost_table.get(key)
    if cached is not None:
        return _observe_cost(cached)
    return _cost_table.put(key, _expansion_build(
        workloads, granularity, spec, name=name, edge_access=edge_access,
        element_bytes=element_bytes, neighbor_locality=neighbor_locality,
        shared_hits=shared_hits))


def _sweep_build(
    elements: int,
    access: AccessPattern,
    spec: DeviceSpec,
    *,
    name: str = "sweep",
    instr_per_element: int = INSTR_PER_SCAN,
    useful_elements: int | None = None,
    group: int = 1,
) -> KernelCost:
    if elements <= 0:
        return _empty_cost(name, None, spec)
    useful = elements if useful_elements is None else int(useful_elements)
    lane_steps = elements * group
    wasted = lane_steps - useful
    threads = lane_steps
    instructions = useful * instr_per_element + wasted
    critical = 1
    time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms = _elapsed(
        spec, instructions, access, lane_steps, threads, critical,
        instr_per_element,
    )
    return _observe_cost(KernelCost(
        name, None, elements, threads, useful, wasted, instructions, access,
        time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms,
        _spec_clock_mhz=spec.clock_mhz,
    ))


def sweep_kernel(
    elements: int,
    access: AccessPattern,
    spec: DeviceSpec,
    *,
    name: str = "sweep",
    instr_per_element: int = INSTR_PER_SCAN,
    useful_elements: int | None = None,
    group: int = 1,
) -> KernelCost:
    """Cost of a data-parallel sweep over ``elements`` items.

    Covers status-array scans, queue copies and classification passes
    (``group=1``, every lane useful) as well as the BL baseline's
    one-CTA-per-vertex status sweep (``group=CTA_THREADS``,
    ``useful_elements`` of them doing real work) — the paper's Fig. 1(c)
    picture where "the gray threads that are assigned to non-frontier
    vertices would idle with no work".
    """
    key = ("s", _spec_token(spec), name, elements,
           access.requests, access.transactions, access.bytes_moved,
           instr_per_element, useful_elements, group)
    cached = _cost_table.get(key)
    if cached is not None:
        return _observe_cost(cached)
    return _cost_table.put(key, _sweep_build(
        elements, access, spec, name=name,
        instr_per_element=instr_per_element,
        useful_elements=useful_elements, group=group))


def _prefix_sum_build(bins: int, spec: DeviceSpec,
                      *, name: str = "prefix-sum") -> KernelCost:
    if bins <= 0:
        return _empty_cost(name, None, spec)
    seg = spec.max_transaction_bytes
    tx = 2 * -(-bins * 8 // seg)  # up-sweep + down-sweep, sequential
    access = AccessPattern(2 * bins, tx, tx * seg)
    instructions = 4 * bins
    # The work-efficient scan is two bandwidth-bound passes; within a
    # pass the tree levels pipeline through shared memory, so the
    # critical path is the two pass traversals, not log2(n) dependent
    # global round trips.
    time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms = _elapsed(
        spec, instructions, access, 2 * bins, bins, 2, 4,
    )
    return _observe_cost(KernelCost(
        name, None, bins, bins, bins, 0, instructions, access,
        time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms,
        _spec_clock_mhz=spec.clock_mhz,
    ))


def prefix_sum_kernel(bins: int, spec: DeviceSpec,
                      *, name: str = "prefix-sum") -> KernelCost:
    """Cost of the work-efficient parallel prefix sum over thread bins
    (§4.1, citing [34, 22]): O(n) work over 2*log2(n) sweeps."""
    key = ("p", _spec_token(spec), name, bins)
    cached = _cost_table.get(key)
    if cached is not None:
        return _observe_cost(cached)
    return _cost_table.put(key, _prefix_sum_build(bins, spec, name=name))


def _atomic_enqueue_build(
    attempts: int,
    unique: int,
    spec: DeviceSpec,
    *,
    name: str = "atomic-enqueue",
) -> KernelCost:
    if attempts <= 0:
        return _empty_cost(name, None, spec)
    seg = spec.max_transaction_bytes
    # An atomic RMW is an uncoalescable transaction plus a serialisation
    # penalty: duplicates of one vertex retry in sequence.
    tx = attempts
    access = AccessPattern(attempts, tx, tx * seg)
    conflicts = attempts - unique
    instructions = attempts * 6 + conflicts * 12
    # Serialised retries extend the critical path.
    dup_ratio = attempts / max(unique, 1)
    critical = int(dup_ratio * 4)
    time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms = _elapsed(
        spec, instructions, access, attempts, attempts, critical, 6,
    )
    return _observe_cost(KernelCost(
        name, None, attempts, attempts, unique, conflicts, instructions,
        access, time_ps, mem_ms, stall_ms, issue_ms, dram_ms, lat_ms,
        _spec_clock_mhz=spec.clock_mhz,
    ))


def atomic_enqueue_kernel(
    attempts: int,
    unique: int,
    spec: DeviceSpec,
    *,
    name: str = "atomic-enqueue",
) -> KernelCost:
    """Cost of atomicCAS-based frontier enqueue (Fig. 1(b), [30]).

    Every enqueue attempt performs an atomic read-modify-write on the
    queue tail / status word; conflicting attempts on the same vertex
    serialise.  ``attempts - unique`` is the duplicated work atomics must
    reject.  §2.1: "for GPUs such operations can lead to expensive
    overhead among a large quantity of GPU threads."
    """
    key = ("a", _spec_token(spec), name, attempts, unique)
    cached = _cost_table.get(key)
    if cached is not None:
        return _observe_cost(cached)
    return _cost_table.put(
        key, _atomic_enqueue_build(attempts, unique, spec, name=name))
