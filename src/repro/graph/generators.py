"""Graph generators: Kronecker, R-MAT, Chung–Lu power-law, road meshes.

§2.3 of the paper: "we utilize two widely used graph generators, Kronecker
[1] and Recursive MATrix (R-MAT) algorithm [13][3].  Both generators take
four possibilities A, B, C and D = 1.0 − A − B − C.  The Kronecker
generator produces the Kron-Scale-EdgeFactor graphs that have 2^scale
number of vertices with the average out-degree of EdgeFactor.  In this
work, we use (A, B, C) of (0.57, 0.19, 0.19) for Kronecker, and
(0.45, 0.15, 0.15) for R-MAT graphs."

The Kronecker generator follows the Graph 500 reference: each edge is
placed by ``scale`` recursive quadrant choices drawn from (A,B,C,D), with
the Graph 500 noise-free formulation.  R-MAT is the same recursion with
its own parameters.  :func:`powerlaw_graph` (Chung–Lu) builds the
real-world stand-ins of the dataset catalog from a target degree sequence,
and :func:`road_mesh` builds the long-diameter graphs of Fig. 14
(roadCA / europe.osm analogues).

All generators take an explicit ``seed`` and are deterministic.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, from_edges

__all__ = [
    "KRONECKER_ABC",
    "RMAT_ABC",
    "banded_mesh",
    "kronecker_edges",
    "kronecker_graph",
    "rmat_graph",
    "powerlaw_degrees",
    "powerlaw_graph",
    "road_mesh",
]

#: Graph 500 initiator used for Kron-Scale-EdgeFactor graphs (§2.3).
KRONECKER_ABC = (0.57, 0.19, 0.19)

#: GTgraph R-MAT initiator used for the RM graph (§2.3).
RMAT_ABC = (0.45, 0.15, 0.15)


def kronecker_edges(
    scale: int,
    edge_factor: int,
    abc: tuple[float, float, float] = KRONECKER_ABC,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``edge_factor * 2**scale`` edge tuples by the stochastic
    Kronecker recursion.

    Vectorised over all edges at once: for each of the ``scale`` bit
    levels every edge independently picks a quadrant, setting one bit of
    the source and one bit of the target.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if edge_factor <= 0:
        raise ValueError("edge_factor must be positive")
    a, b, c = abc
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise ValueError("initiator probabilities must lie in [0, 1]")
    m = edge_factor << scale
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Quadrant thresholds: P(src bit)=a+b, P(dst bit | src bit) differs.
    ab = a + b
    for bit in range(scale):
        u = rng.random(m)
        v = rng.random(m)
        src_bit = u >= ab
        # Conditional probability the destination bit is set:
        #   src bit 0 -> quadrants (a | b): P(dst=1) = b / (a+b)
        #   src bit 1 -> quadrants (c | d): P(dst=1) = d / (c+d)
        p_dst = np.where(src_bit, d / max(c + d, 1e-12), b / max(ab, 1e-12))
        dst_bit = v < p_dst
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    # Graph 500 permutes vertex labels so locality is not an artefact of
    # the recursion.
    perm = rng.permutation(1 << scale).astype(np.int64)
    return perm[src], perm[dst]


def kronecker_graph(
    scale: int,
    edge_factor: int,
    abc: tuple[float, float, float] = KRONECKER_ABC,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """Kron-Scale-EdgeFactor graph as an undirected CSR (Graph 500 treats
    the generated tuples as undirected)."""
    src, dst = kronecker_edges(scale, edge_factor, abc, seed)
    label = name or f"Kron-{scale}-{edge_factor}"
    return from_edges(src, dst, 1 << scale, directed=False, name=label)


def rmat_graph(
    scale: int,
    edge_factor: int,
    seed: int = 1,
    name: str | None = None,
) -> CSRGraph:
    """GTgraph-style R-MAT graph with the paper's (0.45, 0.15, 0.15)."""
    src, dst = kronecker_edges(scale, edge_factor, RMAT_ABC, seed)
    label = name or f"R-MAT-{scale}-{edge_factor}"
    return from_edges(src, dst, 1 << scale, directed=False, name=label)


def powerlaw_degrees(
    num_vertices: int,
    mean_degree: float,
    exponent: float,
    max_degree: int,
    seed: int = 1,
) -> np.ndarray:
    """Draw a truncated-Pareto degree sequence scaled to a target mean.

    Used to match each real-world dataset's published degree profile
    (mean, max, tail exponent) when building its stand-in.
    """
    if num_vertices <= 0:
        raise ValueError("need at least one vertex")
    if mean_degree <= 0 or max_degree < 1:
        raise ValueError("degrees must be positive")
    rng = np.random.default_rng(seed)
    raw = (1.0 - rng.random(num_vertices)) ** (-1.0 / (exponent - 1.0))
    raw = np.minimum(raw, max_degree)
    scale = mean_degree / raw.mean()
    degrees = np.maximum(1, np.round(raw * scale)).astype(np.int64)
    return np.minimum(degrees, max_degree)


def powerlaw_graph(
    num_vertices: int,
    mean_degree: float,
    exponent: float = 2.1,
    max_degree: int | None = None,
    *,
    directed: bool = False,
    seed: int = 1,
    name: str = "powerlaw",
) -> CSRGraph:
    """Chung–Lu graph from a power-law degree sequence.

    Endpoints of each edge are sampled proportionally to vertex weights,
    which reproduces the expected degree sequence — the standard model for
    social-network stand-ins.  Duplicates/self-loops are kept, as §5
    specifies no pre-processing.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    max_degree = max_degree or max(int(num_vertices * 0.02), 32)
    degrees = powerlaw_degrees(num_vertices, mean_degree, exponent,
                               max_degree, seed)
    rng = np.random.default_rng(seed + 1)
    num_edges = int(degrees.sum()) // (1 if directed else 2)
    p = degrees / degrees.sum()
    src = rng.choice(num_vertices, size=num_edges, p=p).astype(np.int64)
    dst = rng.choice(num_vertices, size=num_edges, p=p).astype(np.int64)
    return from_edges(src, dst, num_vertices, directed=directed, name=name)


def road_mesh(
    side: int,
    *,
    diagonal_fraction: float = 0.05,
    seed: int = 1,
    name: str = "road-mesh",
) -> CSRGraph:
    """Long-diameter road-network analogue: a 2-D grid with sparse
    shortcut diagonals.

    Matches the properties Fig. 14's high-diameter graphs rely on: tiny
    maximum out-degree (<= 8), mean ~2-4, and O(side) BFS depth — the
    regime where Enterprise "runs slightly slower on europe.osm because
    this graph has very small out-degrees".
    """
    if side < 2:
        raise ValueError("side must be at least 2")
    n = side * side
    idx = np.arange(n, dtype=np.int64).reshape(side, side)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=0)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=0)
    src = np.concatenate([right[0], down[0]])
    dst = np.concatenate([right[1], down[1]])
    if diagonal_fraction > 0:
        rng = np.random.default_rng(seed)
        extra = int(diagonal_fraction * src.size)
        diag_src = idx[:-1, :-1].ravel()
        pick = rng.choice(diag_src.size, size=min(extra, diag_src.size),
                          replace=False)
        src = np.concatenate([src, diag_src[pick]])
        dst = np.concatenate([dst, diag_src[pick] + side + 1])
    return from_edges(src, dst, n, directed=False, name=name)


def banded_mesh(
    num_vertices: int,
    bandwidth: int,
    *,
    name: str = "banded-mesh",
) -> CSRGraph:
    """Banded-matrix graph: vertex ``i`` connects to ``i±1 .. i±bandwidth``.

    Stand-in for finite-element stiffness matrices like audikw1 (Fig. 14):
    high, uniform degree (~2*bandwidth), strong locality, and a moderate
    diameter of ``~n/bandwidth`` — the work-dominated high-diameter regime
    where load balancing matters but direction switching does not.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    if bandwidth < 1:
        raise ValueError("bandwidth must be at least 1")
    src_parts = []
    dst_parts = []
    base = np.arange(num_vertices, dtype=np.int64)
    for off in range(1, bandwidth + 1):
        src_parts.append(base[:-off])
        dst_parts.append(base[off:])
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    return from_edges(src, dst, num_vertices, directed=False, name=name)
