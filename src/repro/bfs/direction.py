"""Direction-switching policies: classic α/β and Enterprise's γ.

§2.1 (Fig. 2): hybrid BFS switches top-down → bottom-up when
``α = m_u / m_f`` falls below a tuned threshold, where ``m_u`` is the
unexplored edge count and ``m_f`` the edges to be checked from the
top-down direction; it switches back when ``β = n / n_f`` (total vertices
over frontier count) exceeds another threshold.  "Currently the thresholds
are heuristically determined" — and Fig. 10 shows α fluctuating between 2
and 200 across graphs, making tuning cumbersome.

§4.3 replaces α with γ, "the ratio of hub vertices in the frontier
queue": γ = F_h / T_h × 100 %, where F_h counts hub vertices in the
frontier queue this level and T_h is the total number of hub vertices
(computed once, before traversal).  "All graphs should switch direction
when γ ∈ (30, 40)%" — one stable threshold.  Enterprise switches *once*
and never back: "Switching from bottom-up to top-down is done in the
final stages of BFS to avoid the long tail in the graphs, which we find
is neither necessary nor beneficial for Enterprise."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import accel
from ..graph.csr import CSRGraph
from ..graph.stats import hub_threshold

__all__ = ["AlphaBetaPolicy", "GammaPolicy", "DEFAULT_GAMMA_THRESHOLD"]

# (graph, target_hubs) -> (tau, hub_mask, total_hubs).  The hub set is a
# pure function of the immutable graph that every traversal re-derives
# (a degree partition plus a full-n mask); the memoized mask is shared
# across runs and only ever read.
_gamma_setup_table = accel.intern_table("gamma_setup")

#: §4.3: "we set the direction-switching condition as γ being larger
#: than 30" (percent).
DEFAULT_GAMMA_THRESHOLD = 30.0


@dataclass
class AlphaBetaPolicy:
    """Beamer-style heuristic from prior work [10].

    Parameters follow the direction-optimizing BFS paper's defaults; they
    are the knobs Fig. 10 shows needing per-graph tuning.
    """

    alpha: float = 14.0
    beta: float = 24.0
    #: Per-level α values observed (Fig. 10 series).
    history: list[float] = field(default_factory=list)

    def setup(self, graph: CSRGraph) -> None:
        self._num_vertices = graph.num_vertices
        self._num_edges = graph.num_edges

    def should_switch_down_up(
        self,
        graph: CSRGraph,
        frontier: np.ndarray,
        status: np.ndarray,
        unexplored_edges: int,
    ) -> bool:
        """Top-down → bottom-up when m_u / m_f drops below α."""
        m_f = int(graph.out_degrees[frontier].sum())
        if m_f == 0:
            self.history.append(float("inf"))
            return False
        alpha_value = unexplored_edges / m_f
        self.history.append(alpha_value)
        return alpha_value < self.alpha

    def should_switch_up_down(self, num_vertices: int,
                              frontier_count: int) -> bool:
        """Bottom-up → top-down when n / n_f exceeds β (the long tail)."""
        if frontier_count == 0:
            return True
        return num_vertices / frontier_count > self.beta


@dataclass
class GammaPolicy:
    """Enterprise's hub-vertex ratio indicator (§4.3, Eq. 1).

    ``setup`` computes the hub set once ("T_h ... can be calculated very
    quickly at the first level"); ``observe`` evaluates γ for a frontier
    queue.  The switch is one-time: after it fires the policy stays in
    bottom-up mode for the rest of the traversal.
    """

    threshold_pct: float = DEFAULT_GAMMA_THRESHOLD
    #: Upper bound on the indicator's hub population.  τ "is graph
    #: specific" (Challenge #3); the effective population scales with the
    #: graph (~n/256, the paper's ~1K hubs for ~16.8M vertices) so the
    #: pre-explosion frontier can meaningfully cover 30% of it at any
    #: graph scale.
    target_hubs: int = 1024
    history: list[float] = field(default_factory=list)
    switched: bool = False

    def setup(self, graph: CSRGraph) -> None:
        hubs = min(self.target_hubs,
                   max(32, graph.num_vertices // 256))
        key = (accel.instance_token(graph), hubs)
        memo = _gamma_setup_table.get(key)
        if memo is None:
            tau = hub_threshold(graph, hubs)
            mask = graph.out_degrees > tau
            memo = _gamma_setup_table.put(
                key, (tau, mask, max(1, int(np.count_nonzero(mask)))))
        self.tau, self.hub_mask, self.total_hubs = memo

    def observe(self, frontier: np.ndarray) -> float:
        """γ for this level's frontier queue, in percent."""
        f_h = int(np.count_nonzero(self.hub_mask[frontier]))
        gamma = 100.0 * f_h / self.total_hubs
        self.history.append(gamma)
        return gamma

    def should_switch_down_up(self, frontier: np.ndarray) -> bool:
        if self.switched:
            return False
        gamma = self.observe(frontier)
        if gamma > self.threshold_pct:
            self.switched = True
            return True
        return False

    def should_switch_up_down(self, num_vertices: int,
                              frontier_count: int) -> bool:
        """Never — the one-time switch of §4.3."""
        return False
