"""Graph statistics behind the paper's analysis figures.

* Figure 5 — the out-degree CDF at the paper's anchor degrees 32 and
  256 (the SmallQueue / MiddleQueue boundaries of §4.2).
* Figure 6 — how much edge mass the top hub vertices own ("330 hub
  vertices (0.03% of total vertices) contribute to 10% of the total
  edges" for YouTube).
* Figure 4 — per-level frontier percentages from BFS traces, overall and
  split by traversal direction.
* Hub-vertex selection: the τ threshold of the Hub Vertex definition in
  Challenge #3, derived from a target hub population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = [
    "fraction_below",
    "top_hub_edge_share",
    "hub_threshold",
    "hub_mask",
    "FrontierLevel",
    "frontier_statistics",
]


def fraction_below(graph: CSRGraph, threshold: int) -> float:
    """Share of vertices with out-degree strictly below ``threshold``
    (the "86.7% of the vertices have fewer than 32 edges" numbers)."""
    if graph.num_vertices == 0:
        return 0.0
    return float(np.count_nonzero(graph.out_degrees < threshold)
                 / graph.num_vertices)


def top_hub_edge_share(graph: CSRGraph, hub_count: int) -> float:
    """Edge share owned by the ``hub_count`` highest-out-degree vertices
    (Fig. 6(b)'s zoom: a few hundred hubs own 10-20% of all edges)."""
    if hub_count <= 0 or graph.num_edges == 0:
        return 0.0
    degs = graph.out_degrees
    hub_count = min(hub_count, degs.size)
    top = np.partition(degs, degs.size - hub_count)[-hub_count:]
    return float(top.sum() / graph.num_edges)


def hub_threshold(graph: CSRGraph, target_hubs: int) -> int:
    """Degree threshold τ that classifies ~``target_hubs`` vertices as hubs.

    Challenge #3 defines a hub vertex by out-degree > τ with τ graph
    specific; Enterprise sizes the hub population to what the shared-memory
    cache can hold (§4.3), so τ is derived from the cache capacity rather
    than hand-tuned per graph.
    """
    degs = graph.out_degrees
    if degs.size == 0:
        return 0
    target_hubs = int(np.clip(target_hubs, 1, degs.size))
    # τ = degree of the (target_hubs)-th largest vertex; vertices with
    # out-degree strictly greater are hubs.
    kth = np.partition(degs, degs.size - target_hubs)[degs.size - target_hubs]
    return int(max(kth, 1))


def hub_mask(graph: CSRGraph, tau: int) -> np.ndarray:
    """Boolean mask of hub vertices (out-degree > τ)."""
    return graph.out_degrees > tau


@dataclass(frozen=True)
class FrontierLevel:
    """Per-level frontier record extracted from a BFS trace (Fig. 4)."""

    level: int
    direction: str  # "top-down" | "bottom-up" | "switch"
    frontier_count: int
    num_vertices: int

    @property
    def percentage(self) -> float:
        return 100.0 * self.frontier_count / self.num_vertices \
            if self.num_vertices else 0.0


def frontier_statistics(levels: list[FrontierLevel]) -> dict[str, float]:
    """Aggregate Fig. 4 statistics over a BFS trace.

    Returns mean/max/std of per-level frontier percentage overall plus the
    per-direction means and the switch-level percentage ("the queue for
    the level when switching from top-down to bottom-up has most frontiers
    at 52% on average").
    """
    if not levels:
        return {"mean": 0.0, "max": 0.0, "std": 0.0, "p25": 0.0,
                "median": 0.0, "p75": 0.0, "top_down_mean": 0.0,
                "bottom_up_mean": 0.0, "switch_pct": 0.0}
    pct = np.array([lv.percentage for lv in levels])
    td = np.array([lv.percentage for lv in levels
                   if lv.direction == "top-down"])
    bu = np.array([lv.percentage for lv in levels
                   if lv.direction == "bottom-up"])
    sw = [lv.percentage for lv in levels if lv.direction == "switch"]
    q25, q50, q75 = np.percentile(pct, [25, 50, 75])
    return {
        "mean": float(pct.mean()),
        "max": float(pct.max()),
        "std": float(pct.std()),
        "p25": float(q25),
        "median": float(q50),
        "p75": float(q75),
        "top_down_mean": float(td.mean()) if td.size else 0.0,
        "bottom_up_mean": float(bu.mean()) if bu.size else 0.0,
        "switch_pct": float(sw[0]) if sw else 0.0,
    }
