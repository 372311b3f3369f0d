import dataclasses

import numpy as np
import pytest

from repro.bfs.common import UNVISITED
from repro.bfs.enterprise import enterprise_bfs
from repro.graph.generators import rmat_graph
from repro.serve import ServeConfig, ServeEngine, TraceConfig, replay, \
    synthetic_trace
from repro.serve.query import QueryKind

from checks import (check_answers, check_same_answers, check_traversal,
                    edge_keys, reference_levels)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=5)


@pytest.fixture(scope="module")
def traversal(graph):
    source = int(np.argmax(graph.out_degrees))
    result = enterprise_bfs(graph, source)
    reference = reference_levels(graph, [source])[source]
    return result, reference, edge_keys(graph)


def test_traversal_passes(traversal):
    result, reference, keys = traversal
    assert check_traversal(result.levels, result.parents, result.source,
                           reference, keys) is None


def test_corrupted_level_rejected(traversal):
    result, reference, keys = traversal
    levels = result.levels.copy()
    v = int(np.flatnonzero(levels > 1)[0])
    levels[v] += 1
    assert "levels differ" in check_traversal(
        levels, result.parents, result.source, reference, keys)


def test_parent_off_the_graph_rejected(traversal, graph):
    result, reference, keys = traversal
    parents = result.parents.copy()
    v = int(np.flatnonzero(reference == 2)[0])
    neighbours = set(graph.neighbors(v).tolist())
    parents[v] = next(u for u in np.flatnonzero(reference == 1)
                      if int(u) not in neighbours)
    assert "not a graph edge" in check_traversal(
        result.levels, parents, result.source, reference, keys)


def test_parent_at_wrong_level_rejected(traversal, graph):
    result, reference, keys = traversal
    parents = result.parents.copy()
    # A same-level neighbour is a graph edge but not one level closer.
    for v in np.flatnonzero(reference == 2):
        peers = [u for u in graph.neighbors(v) if reference[u] == 2]
        if peers:
            parents[v] = peers[0]
            break
    else:
        pytest.skip("no same-level edge in this graph")
    assert "one level closer" in check_traversal(
        result.levels, parents, result.source, reference, keys)


def test_missing_parent_rejected(traversal):
    result, reference, keys = traversal
    parents = result.parents.copy()
    parents[int(np.flatnonzero(reference == 1)[0])] = UNVISITED
    assert "no parent" in check_traversal(
        result.levels, parents, result.source, reference, keys)


@pytest.fixture(scope="module")
def served(graph):
    trace = synthetic_trace(graph, TraceConfig(num_queries=96,
                                               rate_per_ms=64.0, seed=2))
    results = replay(ServeEngine(graph, ServeConfig(num_gpus=2)), trace)
    reference = reference_levels(graph, [q.source for q in trace])
    return trace, results, reference


def test_served_answers_pass(served):
    trace, results, reference = served
    assert check_answers(results, trace, reference) == []
    assert check_same_answers(results, results) == []


def _corrupt(results, kind, **change):
    out = list(results)
    i = next(i for i, r in enumerate(out)
             if r.query.kind is kind and r.ok and r.reachable is not False)
    out[i] = dataclasses.replace(out[i], **change)
    return out


def test_wrong_distance_rejected(served):
    trace, results, reference = served
    bad = _corrupt(results, QueryKind.DISTANCE, distance=10**6)
    errors = check_answers(bad, trace, reference)
    assert len(errors) == 1 and "distance" in errors[0]
    assert len(check_same_answers(bad, results)) == 1


def test_wrong_reachability_rejected(served):
    trace, results, reference = served
    bad = _corrupt(results, QueryKind.REACHABILITY, reachable=False)
    assert "reachability" in check_answers(bad, trace, reference)[0]


def test_unanswered_and_shed_queries_rejected(served):
    trace, results, reference = served
    shed = _corrupt(results, QueryKind.DISTANCE, served_by="shed")
    assert "shed" in check_answers(shed, trace, reference)[0]
    assert "unanswered" in check_answers(results[1:], trace, reference)[0]
