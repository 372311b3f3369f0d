"""Answer checks against an independent reference (SciPy).

They run after the timed rounds and are not timed.  Each checker
returns a list of error strings, one per wrong operation; an empty
list means every answer is right.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.bfs.common import UNVISITED
from repro.serve.query import UNREACHABLE, QueryKind

#: Sources per SciPy call, to bound the (sources x vertices) matrix.
_CHUNK = 64


def reference_levels(graph, sources) -> dict[int, np.ndarray]:
    """source -> hop distance of every vertex (``UNVISITED`` when
    unreachable), from SciPy's unweighted shortest paths."""
    n = graph.num_vertices
    matrix = csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int8), graph.targets,
         graph.offsets), shape=(n, n))
    distinct = sorted({int(s) for s in sources})
    out = {}
    for start in range(0, len(distinct), _CHUNK):
        chunk = distinct[start:start + _CHUNK]
        dist = shortest_path(matrix, directed=graph.directed,
                             unweighted=True, indices=chunk)
        for s, row in zip(chunk, np.atleast_2d(dist)):
            levels = np.full(n, UNVISITED, dtype=np.int32)
            finite = np.isfinite(row)
            levels[finite] = row[finite]
            out[s] = levels
    return out


def edge_keys(graph) -> np.ndarray:
    """Sorted ``u * n + v`` key of every directed edge ``u -> v``."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
    return np.sort(src * n + graph.targets)


def check_traversal(levels, parents, source: int, reference: np.ndarray,
                    keys: np.ndarray) -> str | None:
    """Levels equal the reference and the parents form a BFS tree: every
    visited non-source vertex has a parent, joined to it by a graph edge,
    one level closer to the source.  Returns None when all hold."""
    if not np.array_equal(levels, reference):
        bad = np.flatnonzero(levels != reference)[:3].tolist()
        return f"source {source}: levels differ at vertices {bad}"
    n = reference.size
    others = np.flatnonzero(reference != UNVISITED)
    others = others[others != source]
    p = parents[others]
    if np.any((p < 0) | (p >= n)):
        return f"source {source}: a visited vertex has no parent"
    tree = p * n + others
    pos = np.minimum(np.searchsorted(keys, tree), keys.size - 1)
    if not np.array_equal(keys[pos], tree):
        return f"source {source}: a parent edge is not a graph edge"
    if not np.array_equal(reference[p], reference[others] - 1):
        return f"source {source}: a parent is not one level closer"
    return None


def check_answers(results, trace,
                  reference: dict[int, np.ndarray]) -> list[str]:
    """Every query of ``trace`` answered, exactly as the reference
    distances say."""
    answered = {r.query.qid for r in results}
    errors = [f"query {q.qid}: unanswered" for q in trace
              if q.qid not in answered]
    for r in results:
        q = r.query
        if not r.ok:
            errors.append(f"query {q.qid}: {r.served_by}")
            continue
        row = reference[q.source]
        if q.kind is QueryKind.SPTREE:
            if r.levels is None or not np.array_equal(r.levels, row):
                errors.append(f"query {q.qid}: SP-tree levels differ")
            continue
        d = int(row[q.target])
        if r.reachable != (d != UNVISITED):
            errors.append(f"query {q.qid}: reachability differs")
        elif q.kind is QueryKind.DISTANCE and r.distance != (
                d if d != UNVISITED else UNREACHABLE):
            errors.append(f"query {q.qid}: distance {r.distance} != {d}")
    return errors


def answer_key(result) -> tuple:
    """What a query answered, without how or when it was served."""
    levels = None if result.levels is None else result.levels.tobytes()
    return (result.query.qid, result.ok, result.distance, result.reachable,
            levels)


def check_same_answers(results, twin) -> list[str]:
    """Each query answered exactly as in the fault-free twin run."""
    expected = {r.query.qid: answer_key(r) for r in twin}
    return [f"query {r.query.qid}: differs from the fault-free twin"
            for r in results if expected.get(r.query.qid) != answer_key(r)]
