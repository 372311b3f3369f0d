"""Weighted SSSP by delta-stepping on the Enterprise substrate.

§1 lists single-source shortest path among the workloads BFS underpins;
for *weighted* graphs the GPU-friendly algorithm is delta-stepping
(Meyer & Sanders): distances are settled in buckets of width Δ, light
edges (w ≤ Δ) relax iteratively inside the current bucket, heavy edges
relax once when the bucket settles.  Each relaxation wave is exactly a
frontier expansion, so it reuses the WB-balanced kernel accounting.

Weights ride next to the CSR adjacency (one weight per directed edge,
aligned with ``targets``); :func:`random_weights` attaches a uniform
deterministic weighting to any catalog graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.device import GPUDevice
from ..gpu.kernels import Granularity, expansion_kernel
from ..graph.csr import CSRGraph

__all__ = ["WeightedGraph", "random_weights", "DeltaSteppingResult",
           "delta_stepping", "reconstruct_weighted_path",
           "save_weighted", "load_weighted"]


@dataclass(frozen=True)
class WeightedGraph:
    """A CSR graph plus per-edge weights (aligned with ``targets``)."""

    graph: CSRGraph
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.graph.num_edges,):
            raise ValueError("need exactly one weight per directed edge")
        if not np.isfinite(w).all():
            raise ValueError("delta-stepping requires finite weights")
        if w.size and w.min() < 0:
            raise ValueError("delta-stepping requires non-negative weights")

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def mean_weight(self) -> float:
        return float(self.weights.mean()) if self.weights.size else 0.0


def random_weights(
    graph: CSRGraph,
    low: float = 1.0,
    high: float = 10.0,
    *,
    seed: int = 7,
    symmetric: bool = True,
) -> WeightedGraph:
    """Uniform random weights.

    For undirected graphs ``symmetric=True`` gives both orientations of
    an edge the same weight (hash-derived from the endpoint pair), so
    shortest paths are symmetric too.
    """
    if low < 0 or high < low:
        raise ValueError("need 0 <= low <= high")
    src, dst = graph.edges()
    if symmetric and not graph.directed:
        # Weight from a symmetric, seed-salted hash of the endpoints.
        a = np.minimum(src, dst).astype(np.uint64)
        b = np.maximum(src, dst).astype(np.uint64)
        mix = (a * np.uint64(2654435761) ^ b * np.uint64(40503)
               ^ np.uint64(seed * 7919))
        mix ^= mix >> np.uint64(16)
        mix *= np.uint64(2246822519)
        mix ^= mix >> np.uint64(13)
        frac = (mix % np.uint64(1 << 24)).astype(np.float64) / (1 << 24)
    else:
        rng = np.random.default_rng(seed)
        frac = rng.random(graph.num_edges)
    return WeightedGraph(graph, low + frac * (high - low))


@dataclass
class DeltaSteppingResult:
    source: int
    distances: np.ndarray
    parents: np.ndarray
    delta: float
    buckets_processed: int
    relaxation_waves: int
    time_ms: float

    def reachable(self) -> np.ndarray:
        return np.flatnonzero(np.isfinite(self.distances))


def _relax(
    wg: WeightedGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    parents: np.ndarray,
    *,
    light: bool,
    delta: float,
) -> np.ndarray:
    """One relaxation wave over ``frontier``'s light or heavy edges.

    Returns the vertices whose distance improved.
    """
    g = wg.graph
    srcs, nbrs = g.gather_neighbors(frontier)
    if srcs.size == 0:
        return np.empty(0, dtype=np.int64)
    # Edge positions to recover weights.
    degs = g.out_degrees[frontier]
    starts = g.offsets[frontier]
    ramp = np.arange(srcs.size, dtype=np.int64)
    resets = np.repeat(np.cumsum(degs) - degs, degs)
    positions = starts.repeat(degs) + (ramp - resets)
    w = wg.weights[positions]
    sel = w <= delta if light else w > delta
    if not np.any(sel):
        return np.empty(0, dtype=np.int64)
    srcs, nbrs, w = srcs[sel], nbrs[sel], w[sel]
    cand = dist[srcs] + w
    better = cand < dist[nbrs]
    if not np.any(better):
        return np.empty(0, dtype=np.int64)
    nbrs, srcs, cand = nbrs[better], srcs[better], cand[better]
    # Per-target minimum (ties: first writer) via lexsort reduction.
    order = np.lexsort((cand, nbrs))
    nbrs, srcs, cand = nbrs[order], srcs[order], cand[order]
    first = np.ones(nbrs.size, dtype=bool)
    first[1:] = nbrs[1:] != nbrs[:-1]
    tgt, best_src, best = nbrs[first], srcs[first], cand[first]
    improved = best < dist[tgt]
    tgt, best_src, best = tgt[improved], best_src[improved], best[improved]
    dist[tgt] = best
    parents[tgt] = best_src
    return tgt


def delta_stepping(
    wg: WeightedGraph,
    source: int,
    *,
    delta: float | None = None,
    device: GPUDevice | None = None,
    max_buckets: int = 10_000_000,
) -> DeltaSteppingResult:
    """Delta-stepping SSSP; distances validated against Dijkstra in the
    test suite.

    ``delta`` defaults to the mean edge weight — the standard heuristic
    (Δ≈Θ(1/avg-degree·max-weight) variants exist; mean weight behaves
    well on the catalog graphs).
    """
    g = wg.graph
    n = g.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    device = device or GPUDevice()
    spec = device.spec
    if delta is None:
        delta = max(wg.mean_weight(), 1e-9)
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")

    dist = np.full(n, np.inf)
    parents = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    buckets_processed = 0
    waves = 0
    bucket_idx = 0

    while bucket_idx < max_buckets:
        in_bucket = np.flatnonzero(
            np.isfinite(dist)
            & (dist >= bucket_idx * delta)
            & (dist < (bucket_idx + 1) * delta)).astype(np.int64)
        if in_bucket.size == 0:
            finite = np.isfinite(dist)
            if not np.any(finite & (dist >= (bucket_idx + 1) * delta)):
                break
            bucket_idx += 1
            continue
        buckets_processed += 1
        settled = in_bucket
        # Light-edge fixpoint within the bucket.
        active = in_bucket
        while active.size:
            waves += 1
            device.launch(expansion_kernel(
                g.out_degrees[active], Granularity.WARP, spec,
                name=f"ds-light-b{bucket_idx}"))
            improved = _relax(wg, active, dist, parents, light=True,
                              delta=delta)
            active = improved[(dist[improved] >= bucket_idx * delta)
                              & (dist[improved] < (bucket_idx + 1) * delta)]
            if active.size:
                settled = np.union1d(settled, active)
        # Heavy edges once per settled bucket.
        waves += 1
        device.launch(expansion_kernel(
            g.out_degrees[settled], Granularity.WARP, spec,
            name=f"ds-heavy-b{bucket_idx}"))
        _relax(wg, settled, dist, parents, light=False, delta=delta)
        bucket_idx += 1

    return DeltaSteppingResult(
        source=source,
        distances=dist,
        parents=parents,
        delta=float(delta),
        buckets_processed=buckets_processed,
        relaxation_waves=waves,
        time_ms=device.elapsed_ms,
    )


def reconstruct_weighted_path(result: DeltaSteppingResult,
                              target: int) -> list[int]:
    """Walk the shortest-path tree from ``target`` back to the source.

    Returns the vertex sequence source..target, or ``[]`` if ``target``
    is unreachable.
    """
    if not 0 <= target < result.distances.size:
        raise ValueError("target out of range")
    if not np.isfinite(result.distances[target]):
        return []
    path = [target]
    v = target
    while v != result.source:
        v = int(result.parents[v])
        if v < 0:  # pragma: no cover - guarded by tree invariants
            raise RuntimeError("broken parent chain")
        path.append(v)
        if len(path) > result.distances.size:
            raise RuntimeError("parent cycle detected")
    path.reverse()
    return path


def save_weighted(wg: WeightedGraph, path) -> None:
    """Persist a weighted graph (CSR + aligned weights) as ``.npz``."""
    np.savez_compressed(
        path,
        offsets=wg.graph.offsets,
        targets=wg.graph.targets,
        weights=wg.weights,
        directed=np.array(wg.graph.directed),
        name=np.array(wg.graph.name),
    )


def load_weighted(path) -> WeightedGraph:
    """Reload a :func:`save_weighted` snapshot."""
    from ..graph.csr import CSRGraph
    with np.load(path) as data:
        graph = CSRGraph(data["offsets"], data["targets"],
                         directed=bool(data["directed"]),
                         name=str(data["name"]))
        return WeightedGraph(graph, data["weights"])
