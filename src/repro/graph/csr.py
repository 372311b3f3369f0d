"""Compressed Sparse Row graph container.

§5: "All the graphs are represented by compressed sparse row (CSR) format.
The datasets that provide edge tuples are transformed into the CSR format,
with the sequence of the edge tuples preserved. ... We do not perform
pre-processing such as removing duplicate edges or self-loops."

:class:`CSRGraph` follows the same conventions: duplicate edges and
self-loops are kept, adjacency order preserves insertion order, and for a
directed graph an (optional, lazily built) reverse CSR provides the
in-edges that bottom-up BFS inspects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..accel import shared_arange

__all__ = ["CSRGraph", "IncidenceTranspose", "from_edges"]


class IncidenceTranspose(NamedTuple):
    """CSR over *edge slots* grouped by target vertex.

    For every vertex ``u``, ``owners[offsets[u]:offsets[u+1]]`` lists the
    vertices whose adjacency contains ``u`` and ``positions[...]`` the
    index of that occurrence inside the owner's list — i.e. the graph's
    incidence relation transposed, with within-list positions attached.
    Within one ``u`` the pairs are ordered by (owner, position).  This is
    what lets bottom-up inspection answer "where does a list first hold
    one of these vertices" from the vertices' side: for a small
    just-visited frontier, and for the hub-cache check over the cached
    vertices.
    """

    offsets: np.ndarray
    owners: np.ndarray
    positions: np.ndarray
    degrees: np.ndarray


@dataclass(frozen=True)
class CSRGraph:
    """An immutable CSR graph.

    Attributes
    ----------
    offsets:
        ``int64[num_vertices + 1]`` — adjacency-list boundaries.
    targets:
        ``int64[num_edges]`` — concatenated adjacency lists.
    directed:
        Whether the edge set is directed.  Undirected inputs are stored
        with both orientations materialised (the paper counts "each edge
        as two directed edges", §2.3).
    name:
        Optional label used by the dataset catalog and benches.
    """

    offsets: np.ndarray
    targets: np.ndarray
    directed: bool = False
    name: str = "graph"

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        targets = np.ascontiguousarray(self.targets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "targets", targets)
        if offsets.ndim != 1 or targets.ndim != 1:
            raise ValueError("offsets and targets must be 1-D")
        if offsets.size == 0:
            raise ValueError("offsets must have at least one entry")
        if offsets[0] != 0 or offsets[-1] != targets.size:
            raise ValueError("offsets must start at 0 and end at num_edges")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        n = offsets.size - 1
        if targets.size and (targets.min() < 0 or targets.max() >= n):
            raise ValueError("edge target out of range")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def num_edges(self) -> int:
        """Directed edge count (undirected edges counted twice)."""
        return int(self.targets.size)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def mean_degree(self) -> float:
        n = self.num_vertices
        return self.num_edges / n if n else 0.0

    @property
    def max_degree(self) -> int:
        return int(self.out_degrees.max()) if self.num_vertices else 0

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency list of ``v`` (a view into ``targets``)."""
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    def gather_neighbors(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated adjacency of ``vertices``.

        Returns ``(sources, neighbors)`` where ``sources[k]`` is the
        vertex whose list contributed ``neighbors[k]`` — the vectorised
        equivalent of a frontier-expansion kernel's per-edge loop.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        degs = self.out_degrees[vertices]
        slots = self.gather_slots(vertices, self.offsets, degs)
        return np.repeat(vertices, degs), self.targets[slots]

    def gather_slots(self, vertices: np.ndarray,
                     offsets: np.ndarray,
                     degs: np.ndarray) -> np.ndarray:
        """Edge-slot indices of every adjacency entry of ``vertices``
        under the given (offsets, degrees) CSR indexing.

        Built without loops: a ramp 0..total-1 plus each vertex's list
        start less its exclusive degree prefix, repeated over its list —
        one edge-sized repeat, added into in place.  Expansion, MS-BFS
        waves, the grid's column blocks and the scatter-min inspection
        all gather through this one formula.
        """
        total = int(degs.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        slots = np.repeat(offsets[vertices] - (np.cumsum(degs) - degs), degs)
        slots += shared_arange(total)
        return slots

    @cached_property
    def incidence_transpose(self) -> IncidenceTranspose:
        """Edge slots grouped by target, with within-list positions.

        Built once per graph (O(E) counting sort) and cached; the perf
        harness's untimed warm-up pays for it.  Read-only by convention.
        """
        n = self.num_vertices
        e = self.num_edges
        order = np.argsort(self.targets, kind="stable")
        degs = self.out_degrees
        owners = np.repeat(np.arange(n, dtype=np.int64), degs)[order]
        within = (np.arange(e, dtype=np.int64)
                  - np.repeat(self.offsets[:-1], degs))[order]
        counts = np.bincount(self.targets, minlength=n).astype(np.int64) \
            if e else np.zeros(n, dtype=np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return IncidenceTranspose(offsets, owners, within, counts)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def column_blocks(self, bounds: np.ndarray) -> tuple["CSRGraph", ...]:
        """The graph split by target range, one block per range.

        Block ``j`` keeps, for every vertex, the entries of its list
        whose target lies in ``[bounds[j], bounds[j + 1])``, in list
        order: the edge block a 2-D grid column stores.  Built once per
        ``bounds`` and cached on the graph, like :attr:`reverse`.
        """
        key = tuple(int(b) for b in bounds)
        blocks = self._column_blocks.get(key)
        if blocks is None:
            built = []
            for lo, hi in zip(key[:-1], key[1:]):
                slots = np.flatnonzero((self.targets >= lo)
                                       & (self.targets < hi))
                # A block offset counts the kept slots before the list.
                built.append(CSRGraph(np.searchsorted(slots, self.offsets),
                                      self.targets[slots],
                                      directed=self.directed,
                                      name=f"{self.name}[{lo}:{hi}]"))
            blocks = self._column_blocks[key] = tuple(built)
        return blocks

    @cached_property
    def _column_blocks(self) -> dict[tuple[int, ...], tuple["CSRGraph", ...]]:
        return {}

    @cached_property
    def reverse(self) -> "CSRGraph":
        """The transpose graph (in-edges); identity for undirected CSR."""
        if not self.directed:
            return self
        n = self.num_vertices
        sources = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees)
        order = np.argsort(self.targets, kind="stable")
        rev_targets = sources[order]
        counts = np.bincount(self.targets, minlength=n)
        rev_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=rev_offsets[1:])
        return CSRGraph(rev_offsets, rev_targets, directed=True,
                        name=f"{self.name}^T")

    def undirected_view(self) -> "CSRGraph":
        """Symmetrised copy (used when treating directed data as a
        traversal substrate for bottom-up inspection of both directions)."""
        if not self.directed:
            return self
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees)
        all_src = np.concatenate([src, self.targets])
        all_dst = np.concatenate([self.targets, src])
        return from_edges(all_src, all_dst, n, directed=False,
                          symmetrize=False, name=f"{self.name}+sym")

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) arrays of all directed edges."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), self.out_degrees)
        return src, self.targets.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
                f"E={self.num_edges}, directed={self.directed})")


def from_edges(
    sources: np.ndarray,
    targets: np.ndarray,
    num_vertices: int | None = None,
    *,
    directed: bool = False,
    symmetrize: bool = True,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from edge tuples, preserving tuple order.

    For undirected graphs (``directed=False``) with ``symmetrize=True``
    each input edge is materialised in both orientations, matching the
    paper's edge accounting.  Duplicates and self-loops are preserved.
    """
    sources = np.asarray(sources, dtype=np.int64).ravel()
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if sources.size != targets.size:
        raise ValueError("sources and targets must have equal length")
    if sources.size and (sources.min() < 0 or targets.min() < 0):
        raise ValueError("vertex IDs must be non-negative")
    if num_vertices is None:
        num_vertices = int(max(sources.max(initial=-1),
                               targets.max(initial=-1)) + 1)
    if sources.size and max(sources.max(), targets.max()) >= num_vertices:
        raise ValueError("vertex ID exceeds num_vertices")

    if not directed and symmetrize:
        sources, targets = (np.concatenate([sources, targets]),
                            np.concatenate([targets, sources]))

    counts = np.bincount(sources, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(sources, kind="stable")  # stable keeps tuple order
    csr_targets = targets[order]
    return CSRGraph(offsets, csr_targets, directed=directed, name=name)
