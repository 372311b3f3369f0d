"""The ``repro.profile/v2`` artifact contract, end to end through the CLI.

Generate an R-MAT-12 graph, profile it under BL and under HC (the
second compared with the first, with a text and an HTML report), and
write one artifact per ablation row.  The artifacts must validate,
carry integer ticks whose partitions hold under ``==``, attribute the
BL -> HC GTEPS delta, and re-profile byte for byte.  CI's profile-smoke
job runs this module with ``--basetemp`` and uploads what it wrote.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.bfs.enterprise import ABLATION_CONFIGS
from repro.cli import main
from repro.graph import load_csr
from repro.observ import diff_profiles, load_artifact, profile_run
from repro.observ.profiler import PROFILE_SCHEMA, from_json, to_json


def load_profile(path):
    return from_json(load_artifact(path, PROFILE_SCHEMA))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The graph and the BL artifact, written once."""
    out = tmp_path_factory.mktemp("profile-smoke", numbered=False)
    graph = str(out / "rmat12.npz")
    assert main(["generate", "rmat", graph, "--scale", "12",
                 "--edge-factor", "8", "--seed", "1"]) == 0
    assert main(["profile", "--file", graph, "--config", "BL",
                 "-o", str(out / "bl.profile.json")]) == 0
    return out


@pytest.fixture(scope="module")
def report(smoke):
    """``profile --config HC --compare`` output, as CI tees it."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["profile", "--file", str(smoke / "rmat12.npz"),
                     "--config", "HC", "-o", str(smoke / "hc.profile.json"),
                     "--compare", str(smoke / "bl.profile.json"),
                     "--html", str(smoke / "profile-report.html")]) == 0
    (smoke / "profile-report.txt").write_text(text.getvalue())
    return text.getvalue()


def test_artifacts_carry_exact_integer_ticks(smoke, report):
    for name in ("bl", "hc"):
        doc = json.loads((smoke / f"{name}.profile.json").read_text())
        assert doc["schema"] == PROFILE_SCHEMA == "repro.profile/v2"
        profile = load_profile(smoke / f"{name}.profile.json")
        assert isinstance(profile.time_ps, int) and profile.time_ps > 0
        assert sum(profile.cells().values()) == profile.time_ps
        assert sum(lvl.queue_gen_ps + lvl.expand_ps
                   for lvl in profile.levels) + profile.other_ps == \
            profile.time_ps
        for lvl in profile.levels:
            if lvl.classes:
                assert sum(c.attributed_ps for c in lvl.classes) == \
                    lvl.expand_ps


def test_diff_attributes_the_delta(smoke, report):
    diff = diff_profiles(load_profile(smoke / "bl.profile.json"),
                         load_profile(smoke / "hc.profile.json"))
    assert diff.gteps_delta != 0.0
    assert diff.coverage >= 0.95, diff.coverage


def test_reprofile_is_byte_identical(smoke, report):
    again = profile_run(load_csr(str(smoke / "rmat12.npz")),
                        config=ABLATION_CONFIGS["HC"], seed=7)
    stored = json.loads((smoke / "hc.profile.json").read_text())
    assert json.dumps(to_json(again), sort_keys=True) == \
        json.dumps(stored, sort_keys=True)


def test_reports_have_their_sections(smoke, report):
    for section in ("-- levels --", "-- findings --",
                    "-- differential profile --"):
        assert section in report, section
    html = (smoke / "profile-report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<h2>Findings</h2>" in html
    assert "Differential" in html


def test_bench_matrix_one_artifact_per_row(smoke):
    rows = smoke / "profiles"
    assert main(["profile", "--file", str(smoke / "rmat12.npz"),
                 "--bench-dir", str(rows)]) == 0
    paths = sorted(rows.glob("*.profile.json"))
    assert len(paths) == len(ABLATION_CONFIGS), paths
    for path in paths:
        assert load_profile(path).levels, path
