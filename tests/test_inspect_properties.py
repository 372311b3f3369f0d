"""Direct differential tests for bottom-up inspection.

:func:`repro.bfs.common.bottom_up_inspect` asks where each candidate's
list first holds a vertex visited at ``level`` and, for the hub-cache
check, where it first holds a cached one.  Each answer comes from one of
two routes: an early-exit scan of the candidates' lists, or a
scatter-min over the marked vertices' incidence transpose.  Every output
must equal what a list-by-list walk of the definition returns: the found
set and its order, the parents, both lookup arrays, the cache hits and
the mutated status array.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import common
from repro.bfs.common import UNVISITED, bottom_up_inspect
from repro.graph.csr import from_edges

INF = np.iinfo(np.int64).max


@st.composite
def inspect_cases(draw):
    """(graph, candidates, status, level, cached) for one inspection.

    Multigraphs: drawn edges plus repeats of some of them and self-loops,
    with spare vertex IDs that no edge touches (degree 0).  Statuses span
    several levels; candidates are any duplicate-free vertex set, sorted
    or in drawn order; the cache mask may mark vertices at any level.
    """
    core = draw(st.integers(1, 20))
    n = core + draw(st.integers(0, 4))
    vertex = st.integers(0, core - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=20))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=6))]
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    graph = from_edges(src, dst, n, directed=draw(st.booleans()))

    level = draw(st.integers(0, 3))
    status = np.array(draw(st.lists(st.integers(UNVISITED, 4),
                                    min_size=n, max_size=n)),
                      dtype=np.int32)
    candidates = draw(st.lists(st.integers(0, n - 1), unique=True,
                               max_size=n))
    if draw(st.booleans()):
        candidates = sorted(candidates)
    cached = None
    if draw(st.booleans()):
        cached = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), dtype=bool)
    return (graph, np.array(candidates, dtype=np.int64), status, level,
            cached)


def _list_walk(graph, candidates, status, level, cached):
    """Bottom-up inspection by definition, one list at a time (§2.1,
    §4.3).  A candidate reads its list up to its first neighbor at
    ``level``; that neighbor is its parent and the slots read are its
    lookups.  With a cache, a cached neighbor at ``level`` anywhere in
    the list serves the candidate with no global lookup and becomes its
    parent instead.  Returns the outcome's array fields, its cache hits
    and the status array the inspection leaves behind."""
    found, parents, lookups, nocache, hits = [], [], [], [], 0
    after = status.copy()
    for v in candidates:
        parent, cost = None, graph.out_degrees[v]
        for i, u in enumerate(graph.neighbors(v)):
            if status[u] == level:
                parent, cost = u, i + 1
                break
        nocache.append(cost)
        if cached is not None:
            for u in graph.neighbors(v):
                if status[u] == level and cached[u]:
                    parent, cost = u, 0
                    hits += 1
                    break
        lookups.append(cost)
        if parent is not None:
            found.append(v)
            parents.append(parent)
            after[v] = level + 1
    fields = {"found": found, "parents": parents, "lookups": lookups,
              "lookups_nocache": nocache}
    return ({name: np.array(values, dtype=np.int64)
             for name, values in fields.items()}, hits, after)


def _assert_same_as_list_walk(graph, candidates, status, level, cached):
    """Inspect a copy of ``status``; assert every outcome field and the
    status left behind equal the list walk's, and return the outcome."""
    want, want_hits, want_status = _list_walk(graph, candidates, status,
                                              level, cached)
    got_status = status.copy()
    got = bottom_up_inspect(graph, candidates, got_status, level,
                            cached_parents=cached)
    for name, b in want.items():
        a = getattr(got, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.cache_hits == want_hits
    np.testing.assert_array_equal(got_status, want_status)
    return got


def _first_marked(graph, candidates, marked):
    """Within-list position of each candidate's first neighbor set in
    ``marked``, one list at a time (INF for none)."""
    first = []
    for v in candidates:
        hits = np.flatnonzero(marked[graph.neighbors(v)])
        first.append(hits[0] if hits.size else INF)
    return np.array(first, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(inspect_cases())
def test_vectorized_matches_scalar(case):
    """Every output equals the list-by-list walk's."""
    _assert_same_as_list_walk(*case)


@settings(max_examples=200, deadline=None)
@given(inspect_cases())
def test_each_first_hit_route_matches_list_walk(case):
    """Whichever route the dispatch picks, both must find the first
    frontier vertex, and the first cached one, in every list."""
    graph, candidates, status, level, cached = case
    degs = graph.out_degrees[candidates]
    at_level = status == level
    masks = [at_level] if cached is None else [at_level, at_level & cached]
    for marked in masks:
        want = _first_marked(graph, candidates, marked)
        scan = common._scan_first_hits(graph, candidates, degs, marked)
        np.testing.assert_array_equal(scan, want)
        scatter = common._scatter_first_hits(graph, candidates,
                                             np.flatnonzero(marked))
        np.testing.assert_array_equal(scatter, want)


@pytest.fixture
def route_calls(monkeypatch):
    """Count calls of each first-hit route during one inspection."""
    calls = {"scan": 0, "scatter": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(common, "_scan_first_hits",
                        spy("scan", common._scan_first_hits))
    monkeypatch.setattr(common, "_scatter_first_hits",
                        spy("scatter", common._scatter_first_hits))
    return calls


def _expect_routes(calls, **counts):
    """The inspection ran exactly these routes."""
    assert calls == counts


def _fan_in(target: int, first_source: int, count: int):
    """Edges from ``count`` fresh vertices into ``target``: they give
    ``target`` that many incidence-transpose slots without touching any
    candidate's list."""
    sources = np.arange(first_source, first_source + count)
    return sources, np.full(count, target)


class TestPinnedRoutes:
    def test_hub_whose_only_hit_is_its_last_neighbor(self, route_calls):
        """Ten scan rounds of doubling width (1 to 512 slots) before the
        hub's 1000th neighbor ends it."""
        deg = 1000
        hub, far = deg, deg + 1
        src = [np.full(deg, hub)]
        dst = [np.arange(deg)]
        # `far` sits at the level too, with enough fan-in that the
        # frontier owns more transpose slots than half the hub's list.
        fs, fd = _fan_in(far, deg + 2, 600)
        graph = from_edges(np.concatenate(src + [fs]),
                           np.concatenate(dst + [fd]), deg + 602,
                           directed=True)
        status = np.full(graph.num_vertices, UNVISITED, dtype=np.int32)
        status[:deg - 1] = 0
        status[deg - 1] = 1
        status[far] = 1
        got = _assert_same_as_list_walk(graph, np.array([hub]), status, 1,
                                     None)
        _expect_routes(route_calls, scan=1, scatter=0)
        assert got.found.tolist() == [hub]
        assert got.parents.tolist() == [deg - 1]
        assert got.lookups.tolist() == [deg]

    def test_candidates_that_all_miss(self, route_calls):
        """Every candidate scans its whole list and finds nothing, with
        and without a cache."""
        rng = np.random.default_rng(3)
        src = rng.integers(0, 40, 400)
        dst = rng.integers(0, 40, 400)
        fs, fd = _fan_in(40, 41, 800)
        graph = from_edges(np.concatenate([src, fs]),
                           np.concatenate([dst, fd]), 841, directed=True)
        status = np.full(graph.num_vertices, UNVISITED, dtype=np.int32)
        status[40] = 2          # the only vertex at the level
        status[41:] = 1
        candidates = np.arange(40)
        cached = np.zeros(graph.num_vertices, dtype=bool)
        cached[[5, 40]] = True
        for mask in (None, cached):
            got = _assert_same_as_list_walk(graph, candidates, status, 2, mask)
            assert got.found.size == 0
            np.testing.assert_array_equal(
                got.lookups, graph.out_degrees[candidates])
        _expect_routes(route_calls, scan=3, scatter=0)

    def test_cached_hit_after_an_uncached_one(self, route_calls):
        """The cached vertex is the parent and the candidate costs no
        global lookup, though an uncached hit comes first."""
        # Candidate 0's list: [1 (unvisited), 2 (uncached, at level),
        # 3 (cached, at level)].
        src, dst = [0, 0, 0], [1, 2, 3]
        fs, fd = _fan_in(2, 4, 10)
        graph = from_edges(np.concatenate([src, fs]),
                           np.concatenate([dst, fd]), 14, directed=True)
        status = np.full(14, UNVISITED, dtype=np.int32)
        status[[2, 3]] = 1
        cached = np.zeros(14, dtype=bool)
        cached[3] = True
        got = _assert_same_as_list_walk(graph, np.array([0]), status, 1,
                                     cached)
        _expect_routes(route_calls, scan=1, scatter=1)
        assert got.parents.tolist() == [3]
        assert got.lookups.tolist() == [0]
        assert got.lookups_nocache.tolist() == [2]
        assert got.cache_hits == 1

    def test_one_vertex_frontier_against_nearly_full_candidates(
            self, route_calls):
        """Pure bottom-up's first level: the source's few transpose
        slots drive the inspection, not every candidate's list."""
        rng = np.random.default_rng(5)
        n = 300
        graph = from_edges(rng.integers(0, n, 3000),
                           rng.integers(0, n, 3000), n)
        source = 7
        status = np.full(n, UNVISITED, dtype=np.int32)
        status[source] = 0
        candidates = np.flatnonzero(status == UNVISITED)
        cached = np.zeros(n, dtype=bool)
        cached[[source, 11]] = True
        for mask in (None, cached):
            got = _assert_same_as_list_walk(graph, candidates, status, 0, mask)
            assert np.all(got.parents == source)
            assert got.found.size == np.unique(
                graph.neighbors(source)[graph.neighbors(source)
                                        != source]).size
        _expect_routes(route_calls, scan=0, scatter=3)
