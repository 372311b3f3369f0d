"""Two-tier cluster fabric: nodes of GPUs, NVLink inside, InfiniBand out.

The §4.4 multi-GPU substrate (:mod:`repro.gpu.multi`) stops at one
node's PCIe switch.  This module generalizes :class:`DeviceGroup` into a
:class:`Fabric`: ``num_nodes`` :class:`NodeGroup`\\ s of ``gpus_per_node``
devices each, with *two* interconnect tiers — an NVLink-class link
between the GPUs of a node and an InfiniBand/PCIe-class link between
nodes — each an :class:`~repro.gpu.multi.InterconnectSpec` with its own
latency and bandwidth, charged separately.

Collectives are hierarchy-aware, following the NCCL/Buluç recipe:

1. **intra-node reduce** — the G devices of every node ring
   reduce-scatter their contributions over the fast link (all nodes
   concurrent);
2. **inter-node ring** — one ring per shard across the N node leaders
   over the slow link (G shard rings concurrent);
3. **intra-node broadcast** — every node's leader ring-broadcasts the
   merged result back over the fast link.

Because each phase only ever moves a shard of the payload over its own
tier, the hierarchical schedule never costs more than a flat ring over
the slow link at equal device count whenever the intra-node link is at
least as fast as the inter-node link (both in latency and bandwidth) —
a property :mod:`tests.test_fabric` checks with hypothesis.

Observability
-------------
The fabric is instrumented end to end.  Every collective charges
per-tier ``repro.fabric.*`` registry counters (bytes and milliseconds,
labelled ``tier=intra``/``tier=inter``), and when a collective is given
a simulated-clock timestamp (``at_ms``), the tracer gets one
``collective``-category span per participating node (pid = node index)
plus ``s``/``t``/``f`` flow events that render the collective as hops
across the node tracks in Perfetto.  Ledgers are *per run*:
:meth:`Fabric.reset_ledgers` zeroes the communication ledgers without
touching the devices, and :func:`repro.bfs.cluster.cluster_enterprise_bfs`
calls it on entry so a reused fabric never reports inflated per-run
communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observ.registry import get_registry
from ..observ.tracer import TID_RUN, get_tracer
from .device import GPUDevice
from .multi import DeviceGroup, InterconnectSpec
from .specs import DeviceSpec, KEPLER_K40

__all__ = [
    "NVLINK",
    "INFINIBAND_EDR",
    "CollectiveCost",
    "NodeGroup",
    "Fabric",
    "ring_ms",
    "broadcast_ms",
]


#: NVLink-class intra-node mesh.  Bandwidth and latency keep the same
#: relative position to :data:`~repro.gpu.multi.PCIE_GEN3_X16` that real
#: hardware has (~6x the bandwidth, lower per-message latency), with the
#: same global scale-down the PCIe spec documents.
NVLINK = InterconnectSpec("NVLink", bandwidth_gbps=72.0, latency_us=0.02)

#: InfiniBand EDR-class inter-node link: similar wire rate to PCIe 3 x16
#: but with the network hop's extra per-message latency.
INFINIBAND_EDR = InterconnectSpec("InfiniBand EDR", bandwidth_gbps=10.0,
                                  latency_us=0.4)


def ring_ms(link: InterconnectSpec, group: int, nbytes: int) -> float:
    """Ring allreduce/allgather of ``nbytes`` within a communicator of
    ``group`` devices over ``link`` (0 for a trivial group or payload)."""
    if group <= 1 or nbytes <= 0:
        return 0.0
    per_link = -(-nbytes // group)
    return 2 * (group - 1) * link.transfer_ms(per_link)


def broadcast_ms(link: InterconnectSpec, group: int, nbytes: int) -> float:
    """Pipelined ring broadcast of ``nbytes`` to a ``group`` (0 when
    trivial)."""
    if group <= 1 or nbytes <= 0:
        return 0.0
    per_link = -(-nbytes // group)
    return (group - 1) * link.transfer_ms(per_link)


@dataclass(frozen=True)
class CollectiveCost:
    """Per-tier cost of one hierarchical collective."""

    intra_ms: float
    inter_ms: float
    bytes_intra: int
    bytes_inter: int

    @property
    def total_ms(self) -> float:
        return self.intra_ms + self.inter_ms


class NodeGroup(DeviceGroup):
    """One node of a :class:`Fabric`: a :class:`DeviceGroup` whose
    interconnect is the fabric's intra-node (NVLink-class) tier."""

    def __init__(
        self,
        index: int,
        count: int,
        spec: DeviceSpec = KEPLER_K40,
        interconnect: InterconnectSpec = NVLINK,
        *,
        fault_plan=None,
    ):
        super().__init__(count, spec, interconnect, fault_plan=fault_plan)
        #: Position of this node in the fabric.
        self.index = index


class Fabric:
    """``num_nodes`` x ``gpus_per_node`` simulated GPUs behind a two-tier
    interconnect, with hierarchy-aware collectives charged per tier."""

    def __init__(
        self,
        num_nodes: int,
        gpus_per_node: int,
        spec: DeviceSpec = KEPLER_K40,
        *,
        intra: InterconnectSpec = NVLINK,
        inter: InterconnectSpec = INFINIBAND_EDR,
        fault_plan=None,
    ):
        if num_nodes <= 0:
            raise ValueError("a fabric needs at least one node")
        if gpus_per_node <= 0:
            raise ValueError("each node needs at least one GPU")
        self.intra = intra
        #: A fault plan's ``bandwidth_factor`` degrades the *inter-node*
        #: tier: cross-node cables and switches are the fabric component
        #: the degraded-link/chaos profiles model, while NVLink lives on
        #: the board.  Device-level faults (stragglers) apply per node.
        self.inter = (fault_plan.scale_interconnect(inter)
                      if fault_plan is not None else inter)
        self.fault_plan = fault_plan
        self.nodes = [NodeGroup(i, gpus_per_node, spec, intra,
                                fault_plan=fault_plan)
                      for i in range(num_nodes)]
        self._intra_ms = 0.0
        self._inter_ms = 0.0
        self._bytes_intra = 0
        self._bytes_inter = 0
        #: Collectives charged since the last ledger reset (also the
        #: flow-id seed for the per-collective trace arrows).
        self._collectives = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def gpus_per_node(self) -> int:
        return len(self.nodes[0])

    @property
    def size(self) -> int:
        """Total device count across all nodes."""
        return self.num_nodes * self.gpus_per_node

    @property
    def spec(self) -> DeviceSpec:
        return self.nodes[0].spec

    def device(self, node: int, slot: int) -> GPUDevice:
        return self.nodes[node].devices[slot]

    def device_grid(self) -> list[list[GPUDevice]]:
        """Devices as a ``num_nodes x gpus_per_node`` matrix (node i's
        devices are row i — the layout cluster BFS maps the 2-D grid
        onto)."""
        return [list(node.devices) for node in self.nodes]

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def allreduce_ms(self, nbytes: int, *, at_ms: float | None = None,
                     level: int | None = None) -> CollectiveCost:
        """Hierarchical allreduce of ``nbytes``: intra-node ring
        reduce-scatter, inter-node shard rings, intra-node broadcast.

        Every tier is charged to its own ledger; the returned
        :class:`CollectiveCost` carries the split.  Byte counts follow
        the same convention as the 2-D exchange ledger: each concurrent
        ring's payload is counted once.

        ``at_ms`` places the collective on the simulated clock: when
        tracing is enabled, every participating node (pid = node index)
        gets a ``collective`` span of the collective's total duration
        starting at ``at_ms``, and with more than one node a chain of
        ``s``/``t``/``f`` flow events hops across the node tracks so
        Perfetto draws the inter-node ring as arrows between nodes.
        ``level`` labels the spans (``cluster:L<level>:allreduce``).
        """
        if nbytes < 0:
            raise ValueError("cannot reduce a negative byte count")
        n, g = self.num_nodes, self.gpus_per_node
        if nbytes == 0 or self.size == 1:
            return CollectiveCost(0.0, 0.0, 0, 0)
        shard = -(-nbytes // g) if g > 1 else nbytes
        intra = 0.0
        bytes_intra = 0
        if g > 1:
            # Reduce-scatter + (after the inter phase) allgather: the
            # payload crosses the fast tier twice in every node.
            intra = 2 * (g - 1) * self.intra.transfer_ms(shard)
            bytes_intra = 2 * nbytes * n
        inter = 0.0
        bytes_inter = 0
        if n > 1:
            chunk = -(-shard // n)
            inter = 2 * (n - 1) * self.inter.transfer_ms(chunk)
            bytes_inter = nbytes
        cost = CollectiveCost(intra, inter, bytes_intra, bytes_inter)
        self._charge(cost)
        self._observe(cost, nbytes, at_ms=at_ms, level=level)
        return cost

    def flat_ring_ms(self, nbytes: int) -> float:
        """The comparator: one flat ring over *all* devices on the
        inter-node link — what a hierarchy-blind fabric would pay."""
        return ring_ms(self.inter, self.size, nbytes)

    def _charge(self, cost: CollectiveCost) -> None:
        self._intra_ms += cost.intra_ms
        self._inter_ms += cost.inter_ms
        self._bytes_intra += cost.bytes_intra
        self._bytes_inter += cost.bytes_inter
        self._collectives += 1

    def _observe(self, cost: CollectiveCost, nbytes: int, *,
                 at_ms: float | None, level: int | None) -> None:
        """Per-tier ``repro.fabric.*`` metrics, plus — when the caller
        supplies a simulated-clock timestamp — one ``collective`` span
        per node and a cross-node flow chain."""
        registry = get_registry()
        if registry.enabled:
            registry.counter("repro.fabric.allreduces").inc(1.0)
            if cost.intra_ms or cost.bytes_intra:
                registry.counter("repro.fabric.ms",
                                 tier="intra").inc(cost.intra_ms)
                registry.counter("repro.fabric.bytes",
                                 tier="intra").inc(float(cost.bytes_intra))
            if cost.inter_ms or cost.bytes_inter:
                registry.counter("repro.fabric.ms",
                                 tier="inter").inc(cost.inter_ms)
                registry.counter("repro.fabric.bytes",
                                 tier="inter").inc(float(cost.bytes_inter))
        tracer = get_tracer()
        if not tracer.enabled or at_ms is None:
            return
        n = self.num_nodes
        name = (f"cluster:L{level}:allreduce" if level is not None
                else "fabric:allreduce")
        dur = cost.total_ms
        args = {"bytes": nbytes, "intra_ms": cost.intra_ms,
                "inter_ms": cost.inter_ms}
        for node in range(n):
            tracer.record_span(name, at_ms, dur, cat="collective",
                               pid=node, tid=TID_RUN, args=args)
        if n > 1:
            # One flow per collective, hopping node 0 -> 1 -> ... -> n-1
            # (the inter-node ring direction).  Each hop sits at the
            # midpoint of its share of the span — strictly inside it, so
            # the microsecond rounding on export can never push an
            # endpoint hop past the slice Perfetto binds the arrow to.
            flow_id = 1_000_000 + self._collectives
            for node in range(n):
                phase = "s" if node == 0 else ("f" if node == n - 1
                                               else "t")
                ts = at_ms + dur * (node + 0.5) / n
                tracer.record_flow(name, flow_id, ts, phase=phase,
                                   cat="collective", pid=node,
                                   tid=TID_RUN,
                                   args={"hop": node})

    # ------------------------------------------------------------------
    # Ledgers
    # ------------------------------------------------------------------
    @property
    def intra_ms(self) -> float:
        return self._intra_ms

    @property
    def inter_ms(self) -> float:
        return self._inter_ms

    @property
    def communication_ms(self) -> float:
        return self._intra_ms + self._inter_ms

    @property
    def bytes_intra(self) -> int:
        return self._bytes_intra

    @property
    def bytes_inter(self) -> int:
        return self._bytes_inter

    @property
    def collectives(self) -> int:
        """Collectives charged since the last ledger reset."""
        return self._collectives

    def busy_ms(self) -> list[float]:
        """Per-device accumulated kernel time, node-major."""
        return [d.elapsed_ms for node in self.nodes for d in node.devices]

    def reset_ledgers(self) -> None:
        """Zero the communication ledgers without touching the devices.

        The ledgers otherwise accumulate for the fabric's lifetime, so a
        second BFS on a reused fabric would report the first run's
        traffic on top of its own.  Per-run consumers
        (:func:`repro.bfs.cluster.cluster_enterprise_bfs`) call this on
        entry; callers who *want* lifetime totals simply never reset.
        """
        self._intra_ms = 0.0
        self._inter_ms = 0.0
        self._bytes_intra = 0
        self._bytes_inter = 0
        self._collectives = 0

    def reset(self) -> None:
        for node in self.nodes:
            node.reset()
        self.reset_ledgers()
