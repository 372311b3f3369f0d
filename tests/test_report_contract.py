"""The serve report and query-flow trace contract, end to end through
the CLI.

Serve 1,500 queries on R-MAT-9 over three GPUs under a straggler with a
5 ms SLO: once as a checked, traced bench, and once as ``report
--serve`` with its text on stdout and its HTML in a file.  The report
must carry its four sections, the SLO verdict and the phase-sum line,
the HTML must render the sections as headings, and the trace must
validate with query flows that hop between tracks.  CI's report-smoke
job runs this module with ``--basetemp`` and uploads what it wrote.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.observ import validate_trace

WORKLOAD = ["--rmat-scale", "9", "--queries", "1500", "--rate", "64",
            "--gpus", "3", "--timeout-ms", "2.0", "--hedge-ms", "1.5",
            "--faults", "straggler", "--slo-ms", "5.0"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The traced bench's trace and the report, written once; the report
    text is stdout, kept as CI tees it."""
    out = tmp_path_factory.mktemp("report-smoke", numbered=False)
    assert main(["serve", *WORKLOAD, "--bench", "--check",
                 "--trace-out", str(out / "serve.trace.json")]) == 0
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["report", "--serve", *WORKLOAD,
                     "-o", str(out / "serve-report.html")]) == 0
    (out / "serve-report.txt").write_text(text.getvalue())
    return out


def test_report_text_has_every_section(smoke):
    text = (smoke / "serve-report.txt").read_text()
    for section in ("-- summary --", "-- phase breakdown --",
                    "-- SLO --", "-- devices --"):
        assert section in text, section
    assert "SLO 99.900%" in text
    assert "max |sum(phases) - latency|" in text


def test_report_html_renders_sections_as_headings(smoke):
    html = (smoke / "serve-report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "-- SLO --" not in html
    assert "<h2>SLO</h2>" in html


def test_trace_has_query_flows_across_tracks(smoke):
    doc = json.loads((smoke / "serve.trace.json").read_text())
    assert validate_trace(doc) > 0
    flows: dict[object, set] = {}
    for event in doc["traceEvents"]:
        if event.get("ph") in ("s", "t", "f"):
            flows.setdefault(event["id"], set()).add(
                (event.get("pid"), event.get("tid")))
    assert flows, "no flow events in the serve trace"
    assert any(len(tracks) >= 2 for tracks in flows.values())
