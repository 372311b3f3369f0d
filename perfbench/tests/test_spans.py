import pytest

from repro.bfs import enterprise
from repro.graph.generators import rmat_graph

import spans
from spans import (LAYER_ENTRY_POINTS, SPAN_NAMES, SpanRecorder,
                   layer_totals, recording, self_times)


def _id(name):
    return SPAN_NAMES.index(name)


def op_self_sums(rows):
    """op id -> (sum of its spans' self times, its root span's time)."""
    sums = {}
    for row, own in zip(rows, self_times(rows)):
        total, root = sums.get(row[4], (0.0, 0.0))
        sums[row[4]] = (total + own,
                        root + (row[2] - row[1] if row[3] < 0 else 0.0))
    return sums


def test_self_time_nested_and_siblings():
    rows = [
        [_id("bfs.enterprise"), 0.0, 10.0, -1, 0],
        [_id("bfs.scan"), 1.0, 4.0, 0, 0],          # child of the root
        [_id("gpu.kernel_cost"), 2.0, 3.0, 1, 0],   # grandchild
        [_id("bfs.expand"), 5.0, 9.0, 0, 0],        # sibling of bfs.scan
        [_id("bfs.enterprise"), 12.0, 13.5, -1, 1],  # second op, no child
    ]
    assert self_times(rows) == [3.0, 2.0, 1.0, 4.0, 1.5]
    totals, calls, roots = layer_totals(rows)
    assert totals["bfs.enterprise"] == 4.5
    assert calls["bfs.enterprise"] == 2
    assert roots == 11.5
    assert op_self_sums(rows) == {0: (10.0, 10.0), 1: (1.5, 1.5)}


def test_recorder_links_parents_and_ops():
    recorder = SpanRecorder()
    inner = recorder.wrap("gpu.kernel_cost", lambda: 1)
    outer = recorder.wrap("bfs.scan", lambda: inner() + inner())
    assert outer() == 2
    assert outer() == 2
    parents = [row[3] for row in recorder.spans]
    ops = [row[4] for row in recorder.spans]
    assert parents == [-1, 0, 0, -1, 3, 3]
    assert ops == [0, 0, 0, 1, 1, 1]
    assert all(row[1] <= row[2] for row in recorder.spans)


def test_recorder_closes_span_when_call_raises():
    recorder = SpanRecorder()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("bfs.expand", fail)()
    assert recorder.spans[0][2] >= recorder.spans[0][1] > 0
    recorder.wrap("bfs.expand", lambda: None)()
    assert recorder.spans[1][3] == -1


def test_entry_points_resolve_once_each():
    keys = [(module, attr) for module, attr, _ in LAYER_ENTRY_POINTS]
    assert len(keys) == len(set(keys))
    for module, attr, _ in LAYER_ENTRY_POINTS:
        owner, leaf = spans._owner(module, attr)
        assert callable(vars(owner)[leaf]), (module, attr)
    assert set(spans.ENTRY_SPANS) <= set(SPAN_NAMES)


def _bindings():
    out = []
    for module, attr, _ in LAYER_ENTRY_POINTS:
        owner, leaf = spans._owner(module, attr)
        out.append(vars(owner)[leaf])
    return out


def test_recording_restores_every_binding():
    before = _bindings()
    with recording(SpanRecorder()):
        during = _bindings()
    assert all(w is not b for w, b in zip(during, before))
    assert _bindings() == before


def test_traced_traversal_self_times_sum_to_op_time():
    graph = rmat_graph(9, 8, seed=3)
    recorder = SpanRecorder()
    with recording(recorder):
        for source in (1, 2):
            enterprise.enterprise_bfs(
                graph, source, config=enterprise.ABLATION_CONFIGS["HC"])
    names = {SPAN_NAMES[row[0]] for row in recorder.spans}
    assert {"bfs.enterprise", "bfs.expand", "bfs.scan", "bfs.classify",
            "gpu.kernel_cost", "gpu.launch", "gpu.hyperq"} <= names
    sums = op_self_sums(recorder.spans)
    assert sorted(sums) == [0, 1]
    for own, root in sums.values():
        assert own == pytest.approx(root, rel=1e-9, abs=1e-12)
