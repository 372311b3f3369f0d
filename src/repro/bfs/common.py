"""Shared BFS machinery: status array, traces, results, validation and
the level loop of the top-down-only variants.

Every BFS variant in this package (top-down queue, status-array baseline,
α/β hybrid, Enterprise and the four external-system baselines) operates on
the same *status array* representation from §2.1: "a byte array indexed by
the vertex ID.  The status of a vertex can be unvisited, frontier or
visited (represented by its BFS level)."  In the reproduction the status
array is an ``int32`` array with :data:`UNVISITED` (-1) for unvisited
vertices and the BFS level otherwise; the frontier role is implicit in
"status == current level".

Results carry per-level :class:`LevelTrace` records — frontier counts,
directions, edges inspected, queue-generation vs expansion split, memory
transactions — which are the raw material for Figures 4, 8, 10, 12 and 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..accel import shared_arange
from ..gpu.clock import PS_PER_MS
from ..gpu.device import GPUDevice
from ..gpu.kernels import KernelCost
from ..graph.csr import CSRGraph
from ..graph.stats import FrontierLevel

__all__ = [
    "UNVISITED",
    "LevelTrace",
    "BFSResult",
    "BottomUpOutcome",
    "reference_bfs_levels",
    "validate_result",
    "start_traversal",
    "charge_level",
    "finish_traversal",
    "expand_frontier",
    "topdown_traversal",
    "bottom_up_inspect",
]

#: Status-array value for a vertex not yet visited.
UNVISITED = -1

#: Sentinel for "no hit" position reductions (hoisted so the hot paths
#: skip the per-call ``np.iinfo`` lookup).
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class LevelTrace:
    """Everything one BFS level did, for figures and assertions."""

    level: int
    direction: str  # "top-down" | "bottom-up" | "switch"
    frontier_count: int
    newly_visited: int
    edges_checked: int
    #: Queue generation and expansion time, in picosecond ticks.
    queue_gen_ps: int = 0
    expand_ps: int = 0
    gld_transactions: int = 0
    hub_cache_hits: int = 0
    hub_cache_lookups: int = 0
    #: Diagnostic detail of the kernels launched this level.
    kernel_names: tuple[str, ...] = ()
    #: Direction-switching indicator values observed at this level.
    alpha: float = 0.0
    gamma: float = 0.0

    @property
    def queue_gen_ms(self) -> float:
        return self.queue_gen_ps / PS_PER_MS

    @property
    def expand_ms(self) -> float:
        return self.expand_ps / PS_PER_MS

    @property
    def time_ms(self) -> float:
        return (self.queue_gen_ps + self.expand_ps) / PS_PER_MS


@dataclass
class BFSResult:
    """Outcome of one BFS run on one (simulated) device."""

    algorithm: str
    graph_name: str
    source: int
    levels: np.ndarray
    parents: np.ndarray
    traces: list[LevelTrace] = field(default_factory=list)
    #: The run's simulated time, in picosecond ticks.
    time_ps: int = 0
    #: Queue-generation ticks charged after the last trace: the scan or
    #: filter that found the next queue empty, or the queue that
    #: ``max_levels`` left unexpanded (0 when there was none).  In an
    #: ``enterprise_bfs`` run, in memory or out of core without
    #: prefetch, the traces' ticks plus these are ``time_ps``.
    tail_queue_gen_ps: int = 0
    #: Populated by enterprise_bfs: the HubCachePolicy of the run (None
    #: when the configuration disabled HC) and the per-level indicator
    #: series behind Fig. 10.
    hub_cache: object | None = None
    gamma_history: list[float] = field(default_factory=list)
    alpha_history: list[float] = field(default_factory=list)

    @property
    def time_ms(self) -> float:
        return self.time_ps / PS_PER_MS

    @property
    def depth(self) -> int:
        reached = self.levels[self.levels != UNVISITED]
        return int(reached.max()) if reached.size else 0

    @property
    def visited(self) -> int:
        return int(np.count_nonzero(self.levels != UNVISITED))

    @property
    def edges_traversed(self) -> int:
        """Directed edges traversed by the search — the Graph 500 ``m``
        (§5: counting multiple edges and self-loops): every out-edge of
        every visited vertex."""
        return self._edges_traversed

    _edges_traversed: int = 0

    def set_edges_traversed(self, graph: CSRGraph) -> None:
        visited = np.flatnonzero(self.levels != UNVISITED)
        self._edges_traversed = int(graph.out_degrees[visited].sum())

    @property
    def teps(self) -> float:
        """Traversed edges per second against simulated device time."""
        if self.time_ps <= 0:
            return 0.0
        return self.edges_traversed / (self.time_ms * 1e-3)

    def frontier_levels(self, num_vertices: int) -> list[FrontierLevel]:
        """Adapter to the Fig. 4 statistics helpers."""
        return [FrontierLevel(t.level, t.direction, t.frontier_count,
                              num_vertices) for t in self.traces]


# ----------------------------------------------------------------------
# Reference implementation + validation
# ----------------------------------------------------------------------

def reference_bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Min-hop distances by plain level-synchronous BFS (ground truth)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    levels = np.full(n, UNVISITED, dtype=np.int32)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        _, neighbors = graph.gather_neighbors(frontier)
        fresh = np.unique(neighbors[levels[neighbors] == UNVISITED])
        depth += 1
        levels[fresh] = depth
        frontier = fresh
    return levels


def validate_result(result: BFSResult, graph: CSRGraph,
                    *, check_parents: bool = True) -> None:
    """Assert ``result`` is a correct BFS of ``graph`` from its source.

    Checks (raising ``AssertionError`` with a diagnostic on failure):

    1. levels equal the true min-hop distances for every vertex;
    2. the visited set is exactly the reachable set;
    3. each non-source visited vertex has a parent that is a real
       in-neighbor sitting exactly one level above it (any of the paper's
       "multiple valid BFS trees" passes).
    """
    expected = reference_bfs_levels(graph, result.source)
    if not np.array_equal(result.levels, expected):
        bad = np.flatnonzero(result.levels != expected)[:5]
        raise AssertionError(
            f"{result.algorithm}: levels mismatch at vertices {bad.tolist()} "
            f"(got {result.levels[bad].tolist()}, "
            f"want {expected[bad].tolist()})"
        )
    if not check_parents:
        return
    parents = result.parents
    levels = result.levels
    visited = np.flatnonzero(levels != UNVISITED)
    others = visited[visited != result.source]
    if others.size == 0:
        return
    p = parents[others]
    if np.any(p == UNVISITED):
        bad = others[p == UNVISITED][:5]
        raise AssertionError(
            f"{result.algorithm}: visited vertices {bad.tolist()} lack parents")
    if not np.array_equal(levels[p], levels[others] - 1):
        bad = others[levels[p] != levels[others] - 1][:5]
        raise AssertionError(
            f"{result.algorithm}: parents of {bad.tolist()} are not one "
            f"level above")
    # Parent edges must exist: parent -> child in the (directed) graph.
    src, dst = graph.edges()
    n = np.int64(graph.num_vertices)
    edge_keys = src.astype(np.int64) * n + dst
    tree_keys = p.astype(np.int64) * n + others
    present = np.isin(tree_keys, edge_keys)
    if not np.all(present):
        bad = others[~present][:5]
        raise AssertionError(
            f"{result.algorithm}: tree edges into {bad.tolist()} are not "
            f"graph edges")


# ----------------------------------------------------------------------
# Level primitives shared by the variants
# ----------------------------------------------------------------------

def start_traversal(graph: CSRGraph,
                    source: int) -> tuple[np.ndarray, np.ndarray]:
    """The status and parent arrays of a search from ``source``: every
    vertex unvisited and parentless except the source, at level 0."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    status = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, UNVISITED, dtype=np.int64)
    status[source] = 0
    return status, parents


def charge_level(device: GPUDevice, level: int, direction: str,
                 kernels: list[KernelCost], *, frontier_count: int,
                 newly_visited: int, edges_checked: int,
                 **extra) -> LevelTrace:
    """Launch a level's kernels in turn, each labelled
    ``L<level>:<name>``, and record the level.  Its expansion time is
    the device clock's advance across the launches, so a straggler's
    traces still add up to its clock; ``extra`` sets further
    :class:`LevelTrace` fields."""
    begin = device.elapsed_ps
    for k in kernels:
        device.launch(k, label=f"L{level}:{k.name}")
    return LevelTrace(
        level=level, direction=direction,
        frontier_count=frontier_count, newly_visited=newly_visited,
        edges_checked=edges_checked,
        expand_ps=device.elapsed_ps - begin,
        gld_transactions=sum(k.access.transactions for k in kernels),
        kernel_names=tuple(k.name for k in kernels),
        **extra,
    )


def finish_traversal(algorithm: str, graph: CSRGraph, source: int,
                     status: np.ndarray, parents: np.ndarray,
                     traces: list[LevelTrace],
                     device: GPUDevice) -> BFSResult:
    """The result of a search that left ``status`` and ``parents``,
    timed by the device clock."""
    result = BFSResult(algorithm=algorithm, graph_name=graph.name,
                       source=source, levels=status, parents=parents,
                       traces=traces, time_ps=device.elapsed_ps)
    result.set_edges_traversed(graph)
    return result


def expand_frontier(
    graph: CSRGraph,
    frontier: np.ndarray,
    status: np.ndarray,
    level: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Top-down expansion of ``frontier`` at ``level``.

    Marks every unvisited neighbor with ``level + 1`` and a parent, in
    frontier order — matching the status-array semantics where "whoever
    finishes last becomes the parent" (§2.1); with NumPy's last-write-wins
    fancy assignment the effect is identical and deterministic.

    Returns ``(newly_visited, their_parents, edges_checked, attempts)``
    where ``attempts`` counts edge endpoints found unvisited — i.e. the
    enqueue attempts an atomic-queue implementation would issue, of which
    ``attempts - len(newly_visited)`` are duplicates.
    """
    if frontier.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                0, 0)
    sources, neighbors = graph.gather_neighbors(frontier)
    edges_checked = int(neighbors.size)
    unvisited = status[neighbors] == UNVISITED
    cand = neighbors[unvisited]
    cand_src = sources[unvisited]
    if cand.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                edges_checked, 0)
    n = status.size
    if cand.size * 8 < n:
        # Tiny candidate set on a big status array: scanning all n
        # vertices would dominate, so dedup by stamping the candidates.
        # Every candidate is UNVISITED, so after a ramp store each vertex
        # holds the index of its last writer (its parent); the
        # candidates that read their own index back are the unique set,
        # sorted by vertex and then stamped over with level + 1.
        ramp = np.arange(cand.size, dtype=status.dtype)
        status[cand] = ramp
        last = np.flatnonzero(status[cand] == ramp)
        uniq = cand[last]
        order = uniq.argsort()
        uniq = uniq[order]
        status[uniq] = level + 1
        return uniq, cand_src[last[order]], edges_checked, int(cand.size)
    # Dedup by marking: level+1 has never been assigned, so after the
    # fancy store the marked positions are exactly the distinct
    # candidates, ascending, and a scratch fancy-assignment of the
    # sources keeps the last writer of each vertex as its parent.
    status[cand] = level + 1
    uniq = np.flatnonzero(status == level + 1).astype(np.int64, copy=False)
    scratch = np.empty(n, dtype=np.int64)
    scratch[cand] = cand_src
    return uniq, scratch[uniq], edges_checked, int(cand.size)


def topdown_traversal(graph: CSRGraph, source: int, device: GPUDevice,
                      algorithm: str, level_kernels: Callable, *,
                      max_levels: int,
                      expand: Callable = expand_frontier) -> BFSResult:
    """The level loop of every top-down-only traversal.

    Each level runs ``expand(graph, frontier, status, level)``, which
    marks and returns the newly visited vertices as
    :func:`expand_frontier` does, then charges the kernels that
    ``level_kernels(frontier, newly, edges, attempts)`` returns along
    with the edges checked to report.  The newly visited vertices,
    ascending, are the next level's frontier.
    """
    status, parents = start_traversal(graph, source)
    traces: list[LevelTrace] = []
    frontier = np.array([source], dtype=np.int64)
    for level in range(max_levels):
        if frontier.size == 0:
            break
        newly, their_parents, edges, attempts = expand(
            graph, frontier, status, level)
        parents[newly] = their_parents
        kernels, edges_checked = level_kernels(frontier, newly, edges,
                                               attempts)
        traces.append(charge_level(
            device, level, "top-down", kernels,
            frontier_count=frontier.size, newly_visited=newly.size,
            edges_checked=edges_checked))
        frontier = newly
    return finish_traversal(algorithm, graph, source, status, parents,
                            traces, device)


@dataclass
class BottomUpOutcome:
    """Result of one bottom-up inspection level."""

    #: Vertices discovered this level (now carrying ``level + 1``).
    found: np.ndarray
    #: Parent of each found vertex (a neighbor visited at ``level``).
    parents: np.ndarray
    #: Global status lookups actually performed, per frontier (aligned
    #: with the ``unvisited`` input) — cache-served frontiers show 0.
    lookups: np.ndarray
    #: Lookups a cache-less run would have performed, per frontier.
    lookups_nocache: np.ndarray
    #: Frontiers whose inspection was terminated by the hub cache.
    cache_hits: int

    @property
    def edges_checked(self) -> int:
        return int(self.lookups.sum()) + self.cache_hits


def _first_hits(
    graph: CSRGraph,
    unvisited: np.ndarray,
    degs: np.ndarray,
    marked: np.ndarray,
) -> np.ndarray:
    """Within-list position of each candidate's first neighbor set in
    the vertex mask ``marked`` (``_INT64_MAX`` for none).

    Two routes give the same positions; the one with less to read runs.
    When the marked vertices own under half as many incidence-transpose
    slots as the candidates own adjacency slots, they are walked from
    their side (:func:`_scatter_first_hits`); otherwise the candidates'
    lists are scanned with early exit (:func:`_scan_first_hits`).
    """
    sources = np.flatnonzero(marked)
    source_slots = int(graph.incidence_transpose.degrees[sources].sum())
    if source_slots * 2 < int(degs.sum()):
        return _scatter_first_hits(graph, unvisited, sources)
    return _scan_first_hits(graph, unvisited, degs, marked)


def _scan_first_hits(
    graph: CSRGraph,
    unvisited: np.ndarray,
    degs: np.ndarray,
    marked: np.ndarray,
) -> np.ndarray:
    """Candidate-side route of :func:`_first_hits`: scan the lists in
    rounds of doubling width, dropping a candidate at its first hit or
    at the end of its list.

    Every candidate still active has scanned the same prefix, so a round
    is one rectangular gather: row ``i`` holds the next ``width`` slots
    of candidate ``i``, clipped to its last slot (a repeated last
    neighbor cannot move a first hit).  A candidate that stops at its
    ``s``-th edge has touched fewer than ``2 s`` slots, so host work
    follows the edges a GPU thread inspects, not whole lists.
    """
    first = np.full(unvisited.size, _INT64_MAX, dtype=np.int64)
    active = np.flatnonzero(degs)
    starts = graph.offsets[unvisited[active]]
    last = starts + degs[active] - 1
    done, width, shift = 0, 1, 0
    while active.size:
        slots = starts[:, None] + shared_arange(width)
        np.minimum(slots, last[:, None], out=slots)
        hits = np.flatnonzero(marked[graph.targets[slots]])
        # Hits come in row-major order: a row's first hit is where the
        # row number changes.
        rows = hits >> shift
        lead = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=lead[1:])
        rows = rows[lead]
        first[active[rows]] = done + (hits[lead] & (width - 1))
        starts += width
        alive = starts <= last
        alive[rows] = False
        active, starts, last = active[alive], starts[alive], last[alive]
        done += width
        width <<= 1
        shift += 1
    return first


def _scatter_first_hits(
    graph: CSRGraph,
    unvisited: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Marked-side route of :func:`_first_hits`: scatter-min the
    within-list positions of the incidence-transpose pairs of the
    marked vertices ``sources`` into the candidates.  Vertices that are
    not candidates land in a spare last cell that is dropped."""
    n_front = unvisited.size
    index = np.full(graph.num_vertices, n_front, dtype=np.int64)
    index[unvisited] = shared_arange(n_front)
    tr = graph.incidence_transpose
    first = np.full(n_front + 1, _INT64_MAX, dtype=np.int64)
    slots = graph.gather_slots(sources, tr.offsets, tr.degrees[sources])
    np.minimum.at(first, index[tr.owners[slots]], tr.positions[slots])
    return first[:n_front]


def bottom_up_inspect(
    graph: CSRGraph,
    unvisited: np.ndarray,
    status: np.ndarray,
    level: int,
    *,
    cached_parents: np.ndarray | None = None,
) -> BottomUpOutcome:
    """Bottom-up inspection: each unvisited vertex scans its neighbor
    list for a parent visited at ``level`` and stops at the first hit
    (§2.1, Fig. 1(d)).

    ``graph`` must supply the *in*-neighbors (pass ``graph.reverse`` for
    directed graphs).  ``cached_parents`` is an optional boolean mask over
    vertex IDs marking hub vertices currently in the shared-memory cache:
    a frontier whose neighbor list contains a cached vertex visited last
    level terminates via the cache without any global status lookups
    (§4.3, Fig. 11).  Mutates ``status`` for the discovered vertices.

    Two questions are answered with :func:`_first_hits`: where each
    candidate's list first holds a vertex at ``level``, and, for the
    cache check, where it first holds a *cached* vertex at ``level``.
    Each answer comes from an early-exit scan of the candidates' lists
    or from a scatter-min over the marked vertices' incidence transpose,
    whichever has fewer slots to read; both give exactly the positions a
    list-by-list walk finds, so every output equals that walk's.
    ``unvisited`` must not contain duplicate vertex IDs (no caller
    produces any).
    """
    n_front = unvisited.size
    empty = np.empty(0, dtype=np.int64)
    if n_front == 0:
        return BottomUpOutcome(empty, empty, empty.copy(), empty.copy(), 0)
    INF = _INT64_MAX
    degs = graph.out_degrees[unvisited]
    at_level = status == level
    first_hit = _first_hits(graph, unvisited, degs, at_level)
    lookups_nocache = np.where(first_hit != INF, first_hit + 1, degs)

    cache_hits = 0
    lookups = lookups_nocache
    if cached_parents is not None:
        # A cached neighbor visited at `level` anywhere in a candidate's
        # list serves it with zero global lookups and becomes its parent.
        first_cached = _first_hits(graph, unvisited, degs,
                                   at_level & cached_parents)
        served_by_cache = first_cached != INF
        cache_hits = int(np.count_nonzero(served_by_cache))
        first_hit = np.where(served_by_cache, first_cached, first_hit)
        lookups = np.where(served_by_cache, 0, lookups_nocache)

    found_mask = first_hit != INF
    found = unvisited[found_mask]
    parents = graph.targets[graph.offsets[found] + first_hit[found_mask]]
    status[found] = level + 1
    return BottomUpOutcome(found, parents, lookups, lookups_nocache,
                           cache_hits)
