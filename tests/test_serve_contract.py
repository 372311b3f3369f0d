"""The serve-bench snapshot contract, end to end through the CLI.

Serve 512 queries on R-MAT-12 through the batched engine and the
one-traversal-per-query baseline, with every answer checked, and write
the latency snapshot.  The snapshot must be the ``serve_bench`` figure
with all 512 queries served, a batched speedup of at least 5x and an
ordered tail; a re-run diffed against it must come back clean.  CI's
serve-smoke job runs this module with ``--basetemp`` and uploads what it
wrote.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.observ import SNAPSHOT_SCHEMA, load_artifact

ARGV = ["serve", "--rmat-scale", "12", "--queries", "512", "--bench"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The snapshot of one checked serve bench, written once."""
    out = tmp_path_factory.mktemp("serve-smoke", numbered=False)
    assert main([*ARGV, "--check",
                 "--snapshot", str(out / "serve.snap.json")]) == 0
    return out


def test_snapshot_is_the_serve_bench(smoke):
    snap = load_artifact(smoke / "serve.snap.json", SNAPSHOT_SCHEMA)
    assert snap["kind"] == "bench"
    assert snap["meta"]["figure"] == "serve_bench"
    metrics = snap["metrics"]
    assert metrics["rows.batched.served"] == 512
    assert metrics["rows.batched.speedup"] >= 5.0
    assert metrics["rows.batched.p99_ms"] >= metrics["rows.batched.p50_ms"]


def test_rerun_diff_is_clean(smoke):
    assert main([*ARGV, "--diff", str(smoke / "serve.snap.json")]) == 0
