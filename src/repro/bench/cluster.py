"""Fig-15-style weak scaling for the multi-node fabric.

Weak scaling holds per-node work fixed: the R-MAT scale grows by one per
node-count doubling (``scale = base_scale + log2(nodes)``), so node
count 8 at the default base scale traverses an R-MAT scale-18 graph that
no single simulated node's cache could hold.  Efficiency is
``T(1 node) / T(N nodes)`` — 1.0 is perfect weak scaling; the acceptance
bar is >= 0.7 at 8 nodes.

Each row optionally carries an ``exact`` flag (1/0) checking the cluster
traversal's levels against the single-GPU Enterprise reference and the
exchange-ledger invariant — the same bit-identity bar the differential
suite enforces, available to CI via ``cluster weak --check``.

Every row also carries the run's per-tier wall-time columns
(``compute_ms`` … ``staging_ms``, sums of the level records' ticks that
exactly partition ``time_ms`` — see :mod:`repro.observ.clusterprof`),
which is what lets ``report --cluster`` turn the efficiency number into
a per-tier waterfall.  Pass
``return_results=True`` to also get the raw
:class:`~repro.bfs.cluster.ClusterBFSResult` per node count for
profile-building.
"""

from __future__ import annotations

import numpy as np

from ..bfs.cluster import ClusterBFSResult, cluster_enterprise_bfs
from ..bfs.enterprise import enterprise_bfs
from ..gpu.clock import PS_PER_MS
from ..graph.generators import rmat_graph

__all__ = ["run_weak_scaling"]


def run_weak_scaling(
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    *,
    gpus_per_node: int = 2,
    base_scale: int = 15,
    edge_factor: int = 16,
    seed: int = 1,
    parts_per_node: int = 64,
    check: bool = False,
    return_results: bool = False,
) -> (list[dict[str, object]]
      | tuple[list[dict[str, object]], list[ClusterBFSResult]]):
    """One row per node count at fixed per-node work."""
    rows: list[dict[str, object]] = []
    results: list[ClusterBFSResult] = []
    base_time = None
    for nodes in node_counts:
        scale = base_scale + int(round(np.log2(nodes)))
        g = rmat_graph(scale, edge_factor, seed=seed,
                       name=f"cluster-weak-{nodes}n")
        source = int(np.argmax(g.out_degrees))
        res = cluster_enterprise_bfs(
            g, source, nodes, gpus_per_node, parts_per_node=parts_per_node)
        if base_time is None:
            base_time = res.time_ms
        tiers = {t: ps / PS_PER_MS for t, ps in res.tier_totals().items()}
        row: dict[str, object] = {
            "nodes": nodes,
            "gpus": nodes * gpus_per_node,
            "scale": scale,
            "time_ms": res.time_ms,
            "gteps": res.result.teps / 1e9,
            "efficiency": (base_time / res.time_ms
                           if res.time_ms else 0.0),
            "compute_ms": tiers["compute"],
            "row_exchange_ms": tiers["row_exchange"],
            "col_exchange_ms": tiers["col_exchange"],
            "allreduce_intra_ms": tiers["allreduce_intra"],
            "allreduce_inter_ms": tiers["allreduce_inter"],
            "staging_ms": tiers["staging"],
            "intra_ms": res.intra_ms,
            "inter_ms": res.inter_ms,
            "io_ms": res.io_ms,
            "bytes_intra": res.bytes_intra,
            "bytes_inter": res.bytes_inter,
            "bytes_read": res.bytes_read,
            "hierarchy_advantage": (res.hierarchy_advantage
                                    if np.isfinite(res.hierarchy_advantage)
                                    else 0.0),
        }
        if check:
            ref = enterprise_bfs(g, source)
            row["exact"] = int(
                np.array_equal(res.result.levels, ref.levels)
                and res.bytes_exchanged == sum(res.charged_payloads))
        rows.append(row)
        if return_results:
            results.append(res)
    if return_results:
        return rows, results
    return rows
