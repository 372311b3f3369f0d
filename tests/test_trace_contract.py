"""The trace, snapshot and metrics artifact contract, end to end through
the CLI.

Trace one Enterprise BFS on the KR0 stand-in (``tiny`` profile) to a
Chrome trace, a run snapshot and an NDJSON metrics file.  The trace must
validate and carry the run, level and kernel tracks and the frontier and
γ counters; the snapshot must be a run with device counters whose queue
generation and expansion add up to its time; the metrics must hold the
per-level series; and a re-run diffed against the snapshot must come
back clean.  CI's trace-smoke job runs this module with ``--basetemp``
and uploads what it wrote.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.gpu.clock import ticks
from repro.observ import SNAPSHOT_SCHEMA, load_artifact, validate_trace


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The trace, snapshot and metrics of one run, written once."""
    out = tmp_path_factory.mktemp("trace-smoke", numbered=False)
    assert main(["trace", "KR0", "--profile", "tiny",
                 "--out", str(out / "run.trace.json"),
                 "--snapshot", str(out / "run.snap.json"),
                 "--metrics", str(out / "run.metrics.ndjson")]) == 0
    return out


def test_trace_has_run_level_and_kernel_tracks(smoke):
    doc = json.loads((smoke / "run.trace.json").read_text())
    assert validate_trace(doc) > 0
    cats = {e.get("cat") for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert {"run", "level", "kernel"} <= cats, cats
    counters = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "C"}
    assert {"frontier size", "gamma (%)"} <= counters, counters


def test_snapshot_is_a_run_with_device_counters(smoke):
    snap = load_artifact(smoke / "run.snap.json", SNAPSHOT_SCHEMA)
    assert snap["kind"] == "run"
    metrics = snap["metrics"]
    assert metrics["gld_transactions"] > 0
    assert len(snap["levels"]) == metrics["levels"] > 0
    # Every tick is a level's or the trailing queue generation's.
    assert ticks(metrics["queue_gen_ms"]) + ticks(metrics["expand_ms"]) == \
        ticks(metrics["time_ms"])


def test_metrics_carry_the_level_series(smoke):
    lines = (smoke / "run.metrics.ndjson").read_text().strip().splitlines()
    names = {json.loads(line)["name"] for line in lines}
    assert "repro.bfs.levels" in names, names


def test_rerun_diff_is_clean(smoke):
    assert main(["trace", "KR0", "--profile", "tiny",
                 "--out", str(smoke / "run2.trace.json"),
                 "--diff", str(smoke / "run.snap.json")]) == 0
