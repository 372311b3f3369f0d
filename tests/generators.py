"""Input-graph generators that only the tests build graphs with:
preferential attachment, small worlds and G(n, m)."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, from_edges

__all__ = ["barabasi_albert_graph", "uniform_random_graph",
           "watts_strogatz_graph"]


def barabasi_albert_graph(
    num_vertices: int,
    attach: int,
    *,
    seed: int = 1,
    name: str = "barabasi-albert",
) -> CSRGraph:
    """Preferential-attachment graph (Barabási–Albert).

    Each new vertex attaches ``attach`` edges to existing vertices with
    probability proportional to their degree — the classic generative
    model for the power-law degree distributions of §2.3.  Implemented
    with the repeated-nodes trick (attachment targets drawn uniformly
    from the edge-endpoint multiset).
    """
    if attach < 1:
        raise ValueError("attach must be at least 1")
    if num_vertices <= attach:
        raise ValueError("need more vertices than attachments")
    rng = np.random.default_rng(seed)
    # Seed clique endpoints so early draws have targets.
    endpoints = list(range(attach))
    src_list = []
    dst_list = []
    for v in range(attach, num_vertices):
        targets = set()
        while len(targets) < attach:
            targets.add(int(endpoints[rng.integers(0, len(endpoints))]))
        for t in targets:
            src_list.append(v)
            dst_list.append(t)
            endpoints.append(v)
            endpoints.append(t)
    return from_edges(np.array(src_list), np.array(dst_list),
                      num_vertices, directed=False, name=name)


def watts_strogatz_graph(
    num_vertices: int,
    k: int,
    rewire_p: float,
    *,
    seed: int = 1,
    name: str = "watts-strogatz",
) -> CSRGraph:
    """Small-world ring lattice with random rewiring (Watts–Strogatz).

    Useful as a *non*-power-law small-world comparison point: high
    clustering, short paths, but no hubs — the regime where the hub
    cache and γ switching have nothing to grab (tests assert exactly
    that).
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    if not 0.0 <= rewire_p <= 1.0:
        raise ValueError("rewire_p must be a probability")
    if num_vertices <= k:
        raise ValueError("need more vertices than the lattice degree")
    rng = np.random.default_rng(seed)
    base = np.arange(num_vertices, dtype=np.int64)
    src_parts, dst_parts = [], []
    for off in range(1, k // 2 + 1):
        src_parts.append(base)
        dst_parts.append((base + off) % num_vertices)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    rewire = rng.random(src.size) < rewire_p
    dst = dst.copy()
    dst[rewire] = rng.integers(0, num_vertices,
                               size=int(rewire.sum()))
    return from_edges(src, dst, num_vertices, directed=False, name=name)


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    *,
    directed: bool = False,
    seed: int = 1,
    name: str = "uniform",
) -> CSRGraph:
    """Erdős–Rényi-style G(n, m) graph (test fixture workhorse)."""
    if num_vertices <= 0:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return from_edges(src, dst, num_vertices, directed=directed, name=name)
