"""The one artifact path: every versioned layout, written and loaded
through :mod:`repro.observ.artifact`.

Each of the five layouts comes from a tiny real run.  A write must load
back as the same document and repeat byte for byte; a non-object, a
wrong tag or a malformed field must be refused on write (leaving no
file) and on load; and a file of one layout never loads as another.
"""

from __future__ import annotations

import json

import pytest

from repro.bfs import enterprise_bfs
from repro.faults.plan import profile
from repro.gpu import GPUDevice
from repro.graph import rmat_graph
from repro.observ import (
    CLUSTER_PROFILE_SCHEMA,
    FINDINGS_SCHEMA,
    PROFILE_SCHEMA,
    SERIES_SCHEMA,
    SNAPSHOT_SCHEMA,
    load_artifact,
    write_artifact,
)
from repro.observ.clusterprof import cluster_to_json, profile_cluster_run
from repro.observ.monitor import LiveMonitor, MonitorConfig
from repro.observ.profiler import profile_run, to_json
from repro.observ.snapshot import run_snapshot
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import TraceConfig, replay, synthetic_trace

TAGS = (SNAPSHOT_SCHEMA, PROFILE_SCHEMA, CLUSTER_PROFILE_SCHEMA,
        SERIES_SCHEMA, FINDINGS_SCHEMA)


#: One malformed field per layout, each caught by its shape check.
MALFORM = {
    SNAPSHOT_SCHEMA: lambda d: d["metrics"].__setitem__("time_ms", "fast"),
    PROFILE_SCHEMA: lambda d: d.__setitem__("levels", {}),
    CLUSTER_PROFILE_SCHEMA: lambda d: d.__setitem__("time_ps",
                                                    d["time_ps"] + 1),
    SERIES_SCHEMA: lambda d: d.__setitem__("cadence_ms", 0.0),
    FINDINGS_SCHEMA: lambda d: d["events"][0].__setitem__("severity", 1.5),
}


@pytest.fixture(scope="module")
def straggler():
    """A calibrated live monitor that watched a straggler run."""
    graph = rmat_graph(8, 8, seed=3)
    trace = synthetic_trace(graph, TraceConfig(num_queries=200,
                                               rate_per_ms=64.0, seed=5))
    config = ServeConfig(num_gpus=4, timeout_ms=2.0)
    monitor_config = MonitorConfig.for_trace(trace)
    reference = LiveMonitor(monitor_config)
    replay(ServeEngine(graph, config, monitor=reference), trace)
    live = LiveMonitor(monitor_config)
    live.calibrate(reference)
    replay(ServeEngine(graph, config, monitor=live,
                       fault_plan=profile("straggler",
                                          seed=config.fault_seed)), trace)
    assert live.bank.anomalies, "the straggler run fired no anomaly"
    return live


@pytest.fixture(scope="module")
def docs(straggler):
    """One document per layout, each from a tiny real run."""
    graph = rmat_graph(6, 8, seed=1)
    device = GPUDevice()
    result = enterprise_bfs(graph, 0, device=device)
    return {
        SNAPSHOT_SCHEMA: run_snapshot(result, device=device),
        PROFILE_SCHEMA: to_json(profile_run(graph, 0, seed=7)),
        CLUSTER_PROFILE_SCHEMA: cluster_to_json(
            profile_cluster_run(graph, 0, 2, 1)),
        SERIES_SCHEMA: straggler.board.to_json(),
        FINDINGS_SCHEMA: straggler.bus.to_json(),
    }


def _copy(doc) -> dict:
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("tag", TAGS)
def test_write_then_load_round_trips_byte_for_byte(docs, tag, tmp_path):
    doc = docs[tag]
    assert doc["schema"] == tag
    first = write_artifact(tmp_path / "a.json", doc)
    assert load_artifact(first, tag) == _copy(doc)
    second = write_artifact(tmp_path / "b.json", doc)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("spoil", ["non-object", "wrong tag", "field"])
def test_invalid_documents_are_refused(docs, tag, spoil, tmp_path):
    doc = _copy(docs[tag])
    if spoil == "non-object":
        doc = [doc]
    elif spoil == "wrong tag":
        doc["schema"] = "repro.nothing/v1"
    else:
        MALFORM[tag](doc)
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        write_artifact(path, doc)
    assert not path.exists()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_artifact(path, tag)


@pytest.mark.parametrize("source", ["slo", "profiler", "cluster", "user"])
def test_findings_refuse_a_source_nothing_writes(docs, source, tmp_path):
    doc = _copy(docs[FINDINGS_SCHEMA])
    doc["events"][0]["source"] = source
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="unknown source"):
        write_artifact(path, doc)
    assert not path.exists()


@pytest.mark.parametrize("tag", TAGS)
def test_a_layout_never_loads_as_another(docs, tag, tmp_path):
    for other in TAGS:
        if other != tag:
            path = write_artifact(tmp_path / "other.json", docs[other])
            with pytest.raises(ValueError, match="schema"):
                load_artifact(path, tag)


def test_the_bus_is_a_view_of_the_bank(straggler):
    # Ticks fire in time order, so the bank's firing order is the bus's
    # stream order: the same anomaly objects, no copies.
    anomalies = straggler.bank.anomalies
    events = straggler.bus.events()
    assert len(straggler.bus) == len(events) == len(anomalies)
    assert all(e is a for e, a in zip(events, anomalies))
