"""Induced subgraphs.

Extract the subgraph induced by a vertex set, with the old→new ID
mapping — a common pre-processing step before running the heavier
algorithms on a region of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph, from_edges

__all__ = ["InducedSubgraph", "induced_subgraph"]


@dataclass(frozen=True)
class InducedSubgraph:
    """A subgraph plus the ID mappings to/from its parent graph."""

    graph: CSRGraph
    #: Parent vertex ID of each subgraph vertex (new -> old).
    old_id: np.ndarray
    #: Subgraph ID of each parent vertex (-1 if excluded; old -> new).
    new_id: np.ndarray

    def to_parent(self, vertices: np.ndarray) -> np.ndarray:
        return self.old_id[np.asarray(vertices, dtype=np.int64)]

    def from_parent(self, vertices: np.ndarray) -> np.ndarray:
        mapped = self.new_id[np.asarray(vertices, dtype=np.int64)]
        if np.any(mapped < 0):
            raise ValueError("a vertex is not in the subgraph")
        return mapped


def induced_subgraph(graph: CSRGraph, vertices: np.ndarray,
                     *, name_suffix: str = "+sub") -> InducedSubgraph:
    """Subgraph induced by ``vertices`` (edges with both endpoints in).

    Duplicate edges and self-loops inside the set are preserved (the §5
    no-preprocessing convention); vertex order follows the sorted input.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    n = graph.num_vertices
    if vertices.size and (vertices[0] < 0 or vertices[-1] >= n):
        raise ValueError("vertex out of range")
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[vertices] = np.arange(vertices.size)
    src, dst = graph.edges()
    keep = (new_id[src] >= 0) & (new_id[dst] >= 0)
    sub = from_edges(new_id[src[keep]], new_id[dst[keep]], vertices.size,
                     directed=graph.directed, symmetrize=False,
                     name=f"{graph.name}{name_suffix}")
    return InducedSubgraph(graph=sub, old_id=vertices, new_id=new_id)

