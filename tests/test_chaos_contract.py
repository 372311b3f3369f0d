"""The chaos-matrix snapshot contract, end to end through the CLI.

Replay 1,500 queries on R-MAT-9 under every fault profile, sized so that
transient failures, hedges and the device loss all fire, and write the
matrix snapshot.  Every profile's answers must be exact, the chaos
profile must lose a device and fail over, the fault-free row must see no
wave failure, and a re-run diffed against the snapshot must come back
clean.  CI's chaos-smoke job runs this module with ``--basetemp`` and
uploads what it wrote.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.faults import PROFILES
from repro.observ import SNAPSHOT_SCHEMA, load_artifact

ARGV = ["chaos", "--rmat-scale", "9", "--queries", "1500", "--rate", "64",
        "--timeout-ms", "2.0", "--hedge-ms", "1.5", "--max-pending", "128",
        "--priorities", "3"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The snapshot of one chaos matrix, written once."""
    out = tmp_path_factory.mktemp("chaos-smoke", numbered=False)
    assert main([*ARGV, "--snapshot", str(out / "chaos.snap.json")]) == 0
    return out


def test_every_profile_is_exact(smoke):
    snap = load_artifact(smoke / "chaos.snap.json", SNAPSHOT_SCHEMA)
    assert snap["kind"] == "bench"
    metrics = snap["metrics"]
    for name in PROFILES:
        assert metrics[f"rows.{name}.exact"] == 1, name


def test_chaos_loses_a_device_and_fails_over(smoke):
    metrics = load_artifact(smoke / "chaos.snap.json",
                            SNAPSHOT_SCHEMA)["metrics"]
    assert metrics["rows.chaos.devices_lost"] >= 1
    assert metrics["rows.chaos.failovers"] >= 1
    assert metrics["rows.none.wave_failures"] == 0


def test_rerun_diff_is_clean(smoke):
    assert main([*ARGV, "--diff", str(smoke / "chaos.snap.json")]) == 0
