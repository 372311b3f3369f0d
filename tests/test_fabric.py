"""Cost-model properties of the two-tier cluster fabric.

The headline property (checked with hypothesis): the hierarchical
allreduce — intra-node reduce-scatter, inter-node shard rings,
intra-node broadcast — never costs more than one flat ring over every
device priced at the slow inter-node link, as long as the intra-node
link is at least as fast in both bandwidth and latency.  Plus the small
invariants the cluster ledger leans on: trivial groups and empty
payloads are free, costs are monotone in payload size, and the fabric's
ledgers account exactly for what its collectives charged.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    Fabric,
    INFINIBAND_EDR,
    InterconnectSpec,
    NVLINK,
    broadcast_ms,
    ring_ms,
)
from repro.gpu.clock import ticks

SETTINGS = dict(max_examples=100, deadline=None)

links = st.builds(
    InterconnectSpec,
    st.just("link"),
    st.floats(min_value=0.5, max_value=200.0),   # bandwidth_gbps
    st.floats(min_value=0.0, max_value=5.0),     # latency_us
)


# ----------------------------------------------------------------------
# Ring / broadcast primitives
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fn", [ring_ms, broadcast_ms])
def test_trivial_groups_and_payloads_are_free(fn):
    assert fn(NVLINK, 1, 4096) == 0.0
    assert fn(NVLINK, 0, 4096) == 0.0
    assert fn(NVLINK, 8, 0) == 0.0
    assert fn(NVLINK, 8, -3) == 0.0


@given(link=links, group=st.integers(2, 64),
       a=st.integers(1, 1 << 20), b=st.integers(0, 1 << 20))
@settings(**SETTINGS)
def test_ring_cost_monotone_in_bytes(link, group, a, b):
    lo, hi = min(a, a + b), max(a, a + b)
    assert ring_ms(link, group, lo) <= ring_ms(link, group, hi)
    assert broadcast_ms(link, group, lo) <= broadcast_ms(link, group, hi)


@given(link=links, group=st.integers(2, 64), nbytes=st.integers(1, 1 << 20))
@settings(**SETTINGS)
def test_broadcast_is_half_a_ring(link, group, nbytes):
    """A pipelined broadcast is one pass around the ring; allreduce is
    two (reduce-scatter + allgather)."""
    assert broadcast_ms(link, group, nbytes) == pytest.approx(
        ring_ms(link, group, nbytes) / 2)


def test_ring_cost_positive_and_scales_with_group():
    one = ring_ms(INFINIBAND_EDR, 2, 1024)
    many = ring_ms(INFINIBAND_EDR, 16, 1024)
    assert one > 0.0
    # More hops, smaller chunks: latency term grows with the group.
    assert many > one


# ----------------------------------------------------------------------
# Hierarchical allreduce
# ----------------------------------------------------------------------

@given(
    nodes=st.integers(1, 8),
    gpus=st.integers(1, 8),
    nbytes=st.integers(0, 1 << 20),
    inter=links,
    intra_bw_boost=st.floats(min_value=1.0, max_value=20.0),
    intra_lat_cut=st.floats(min_value=0.0, max_value=1.0),
)
@settings(**SETTINGS)
def test_hierarchical_never_beats_flat_backwards(nodes, gpus, nbytes, inter,
                                                 intra_bw_boost,
                                                 intra_lat_cut):
    """Hierarchical <= flat whenever the intra link dominates the inter
    link in both bandwidth and latency (the premise of two-tier
    fabrics)."""
    intra = InterconnectSpec(
        "intra",
        bandwidth_gbps=inter.bandwidth_gbps * intra_bw_boost,
        latency_us=inter.latency_us * intra_lat_cut,
    )
    fabric = Fabric(nodes, gpus, intra=intra, inter=inter)
    cost = fabric.allreduce_ms(nbytes)
    assert cost.intra_ps + cost.inter_ps <= \
        ticks(fabric.flat_ring_ms(nbytes) + 1e-12)


def test_allreduce_degenerate_shapes():
    assert Fabric(1, 1).allreduce_ms(4096).total_ms == 0.0
    assert Fabric(4, 2).allreduce_ms(0).total_ms == 0.0
    # Single node: everything rides the intra tier.
    c = Fabric(1, 4).allreduce_ms(4096)
    assert c.inter_ms == 0.0 and c.bytes_inter == 0
    assert c.intra_ms > 0.0
    # One GPU per node: everything rides the inter tier.
    c = Fabric(4, 1).allreduce_ms(4096)
    assert c.intra_ms == 0.0 and c.bytes_intra == 0
    assert c.inter_ms > 0.0


def test_allreduce_rejects_negative_bytes():
    with pytest.raises(ValueError):
        Fabric(2, 2).allreduce_ms(-1)


@given(nbytes=st.integers(1, 1 << 16), reps=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_fabric_ledger_accounts_for_every_collective(nbytes, reps):
    fabric = Fabric(2, 2)
    total = 0
    for _ in range(reps):
        cost = fabric.allreduce_ms(nbytes)
        total += cost.intra_ps + cost.inter_ps
    assert ticks(fabric.communication_ms) == total
    assert fabric.intra_ms > 0.0 and fabric.inter_ms > 0.0
    fabric.reset()
    assert fabric.communication_ms == 0.0
    assert fabric.bytes_intra == 0 and fabric.bytes_inter == 0


# ----------------------------------------------------------------------
# Ledger reset + fault-plan degradation
# ----------------------------------------------------------------------

def test_reset_ledgers_only_zeroes_the_ledgers():
    fabric = Fabric(2, 2)
    first = fabric.allreduce_ms(4096).total_ms
    assert fabric.collectives == 1
    fabric.reset_ledgers()
    assert (fabric.communication_ms, fabric.bytes_intra,
            fabric.bytes_inter, fabric.collectives) == (0.0, 0, 0, 0)
    # The cost model is untouched: a repeat charge prices identically.
    assert fabric.allreduce_ms(4096).total_ms == first
    assert fabric.collectives == 1


def test_fault_plan_degrades_only_the_inter_tier():
    from repro.faults import profile as fault_profile

    plan = fault_profile("degraded-link")
    clean = Fabric(4, 2)
    degraded = Fabric(4, 2, fault_plan=plan)
    assert degraded.intra.bandwidth_gbps == clean.intra.bandwidth_gbps
    assert degraded.inter.bandwidth_gbps < clean.inter.bandwidth_gbps
    a, b = clean.allreduce_ms(1 << 16), degraded.allreduce_ms(1 << 16)
    assert b.intra_ms == a.intra_ms
    assert b.inter_ms > a.inter_ms


def test_allreduce_charges_fabric_metrics():
    from repro.observ import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        cost = Fabric(2, 2).allreduce_ms(4096)
    finally:
        set_registry(previous)
    series = {(m["name"], m["labels"].get("tier")): m["value"]
              for m in registry.collect()}
    assert series[("repro.fabric.allreduces", None)] == 1.0
    assert series[("repro.fabric.ms", "intra")] == cost.intra_ms
    assert series[("repro.fabric.ms", "inter")] == cost.inter_ms
    assert series[("repro.fabric.bytes", "intra")] == cost.bytes_intra
    assert series[("repro.fabric.bytes", "inter")] == cost.bytes_inter


def test_timestamped_allreduce_emits_spans_and_flow_chain():
    from repro.observ import tracing

    with tracing() as tracer:
        Fabric(3, 2).allreduce_ms(4096, at_ms=1.5, level=2)
    spans = [s for s in tracer.spans() if s.cat == "collective"]
    assert len(spans) == 3  # one per node
    assert {s.pid for s in spans} == {0, 1, 2}
    assert all(s.name == "cluster:L2:allreduce" for s in spans)
    assert all(s.ts_ms == 1.5 for s in spans)
    flows = sorted(tracer.flows(), key=lambda f: f.ts_ms)
    assert [f.ph for f in flows] == ["s", "t", "f"]
    assert [f.pid for f in flows] == [0, 1, 2]
    assert len({f.flow_id for f in flows}) == 1


def test_untimestamped_allreduce_emits_no_trace():
    from repro.observ import tracing

    with tracing() as tracer:
        Fabric(3, 2).allreduce_ms(4096)
    assert not tracer.spans() and not tracer.flows()


# ----------------------------------------------------------------------
# Shape plumbing
# ----------------------------------------------------------------------

def test_fabric_shape_and_device_grid():
    fabric = Fabric(3, 2)
    assert (fabric.num_nodes, fabric.gpus_per_node, fabric.size) == (3, 2, 6)
    grid = fabric.device_grid()
    assert len(grid) == 3 and all(len(row) == 2 for row in grid)
    assert grid[1][0] is fabric.device(1, 0)
    assert fabric.nodes[2].index == 2
    assert len(set(id(d) for row in grid for d in row)) == 6


@pytest.mark.parametrize("nodes,gpus", [(0, 2), (2, 0), (-1, 1)])
def test_fabric_rejects_empty_shapes(nodes, gpus):
    with pytest.raises(ValueError):
        Fabric(nodes, gpus)


def test_default_tiers_are_ordered():
    """The shipped NVLink spec dominates the shipped InfiniBand spec —
    the premise the hierarchy-advantage comparison relies on."""
    assert NVLINK.bandwidth_gbps > INFINIBAND_EDR.bandwidth_gbps
    assert NVLINK.latency_us < INFINIBAND_EDR.latency_us
