"""Command-line interface."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cli import ALGORITHMS, build_parser, main


@pytest.fixture(scope="module")
def good_profile(tmp_path_factory) -> Path:
    """A valid ``repro.profile/v2`` artifact, written once."""
    path = tmp_path_factory.mktemp("baseline") / "good.profile.json"
    assert main(["profile", "GO", "--profile", "tiny", "-o", str(path)]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bfs", "--algorithm", "nope"])

    def test_all_algorithms_registered(self):
        for name in ("enterprise", "bl", "ts", "wb", "topdown",
                     "status-array", "hybrid", "b40c", "gunrock",
                     "mapgraph", "graphbig"):
            assert name in ALGORITHMS

    @pytest.mark.parametrize("argv", [
        ["bfs", "--graph", "NOPE"],
        ["app", "sssp", "--graph", "NOPE"],
        ["trace", "NOPE"],
        ["trace", "--graph", "NOPE"],
        ["profile", "NOPE"],
        ["serve", "--graph", "NOPE"],
        ["chaos", "--graph", "NOPE"],
        ["monitor", "--graph", "NOPE"],
        ["cluster", "bfs", "--graph", "NOPE"],
        ["summarize", "--graph", "NOPE"],
        ["report", "--graph", "NOPE"],
    ])
    def test_unknown_graph_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error:" in err
        assert "unknown graph 'NOPE'" in err
        assert "GO" in err and "KR0" in err and "ROADCA" in err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        with pytest.raises(SystemExit) as exc:
            main(["bfs", "--file", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro bfs: error: argument --file: no such file" in err
        assert str(missing) in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--rmat-scale", "8", "--queries", "0"],
        ["serve", "--rmat-scale", "8", "--queries", "64", "--rate", "0"],
        ["serve", "--rmat-scale", "0", "--queries", "8"],
        ["serve", "--rmat-scale", "8", "--queries", "64", "--gpus", "0"],
        ["cluster", "bfs", "--graph", "GO", "--profile", "tiny",
         "--nodes", "0"],
        ["monitor", "--rmat-scale", "8", "--queries", "0"],
        ["monitor", "--rmat-scale", "8", "--queries", "40",
         "--cadence-ms", "0"],
        ["monitor", "--rmat-scale", "8", "--queries", "40",
         "--cadence-ms", "-1"],
        ["monitor", "--rmat-scale", "8", "--queries", "40",
         "--cadence-ms", "nan"],
        ["monitor", "--rmat-scale", "8", "--queries", "40",
         "--samples", "0"],
        ["monitor", "--rmat-scale", "8", "--queries", "40",
         "--samples", "-5"],
        ["chaos", "--rmat-scale", "8", "--queries", "40",
         "--profiles", "bogus"],
        ["bench", "fig05_degree_cdf", "--profile", "tiny",
         "--diff", "MISSING"],
        ["trace", "KR0", "--profile", "tiny", "--diff", "MISSING"],
        ["profile", "GO", "--profile", "tiny", "--compare", "MISSING"],
        ["serve", "--rmat-scale", "8", "--queries", "64",
         "--snapshot", "OUT"],
        ["serve", "--rmat-scale", "8", "--queries", "64",
         "--diff", "EXISTING"],
        ["cluster", "bfs", "--graph", "GO", "--profile", "tiny",
         "--snapshot", "OUT"],
        ["cluster", "bfs", "--graph", "GO", "--profile", "tiny",
         "--diff", "EXISTING"],
        ["perf"],
        ["cluster", "bfs", "--rmat-scale", "8", "--gpus-per-node", "0"],
        ["cluster", "bfs", "--rmat-scale", "8", "--edge-factor", "0"],
        ["cluster", "bfs", "--rmat-scale", "8", "--parts-per-node", "0"],
        ["cluster", "bfs", "--rmat-scale", "8", "--parts-per-node", "-5"],
        ["cluster", "weak", "--base-scale", "0"],
        ["cluster", "weak", "--base-scale", "8", "--node-counts", "1,0"],
        ["cluster", "weak", "--base-scale", "8", "--node-counts", "a"],
        ["report", "--cluster", "--base-scale", "0"],
        ["report", "--cluster", "--base-scale", "8", "--node-counts", "1,0"],
        ["report", "--cluster", "--base-scale", "8", "--node-counts", "a"],
        ["report", "--cluster", "--base-scale", "8", "--gpus-per-node", "0"],
        ["report", "--cluster", "--base-scale", "8", "--edge-factor", "0"],
        ["report", "--cluster", "--base-scale", "8",
         "--parts-per-node", "0"],
        ["profile", "--cluster", "--graph", "GO", "--profile", "tiny",
         "--gpus-per-node", "0"],
        ["profile", "--cluster", "--graph", "GO", "--profile", "tiny",
         "--parts-per-node", "0"],
        *(["serve", "--rmat-scale", "6", "--queries", "16", *bad]
          for bad in (["--batch", "0"], ["--batch", "65"],
                      ["--max-retries", "-1"], ["--landmarks", "-1"],
                      ["--priorities", "0"], ["--deadline-ms", "-1"],
                      ["--zipf", "0.5"], ["--max-pending", "0"],
                      ["--timeout-ms", "0"], ["--hedge-ms", "-1"],
                      ["--slo-ms", "-1"],
                      ["--slo-ms", "5", "--slo-availability", "2"],
                      ["--edge-factor", "0"])),
        *([*verb, "--rmat-scale", "6", "--queries", "16", *bad]
          for verb in (["chaos"], ["monitor"])
          for bad in (["--batch", "0"], ["--edge-factor", "0"])),
        ["report", "--serve", "--rmat-scale", "6", "--queries", "16",
         "--batch", "0"],
        ["serve", "--rmat-scale", "6", "--queries", "64", "--gpus", "3",
         "--nodes", "2"],
        ["serve", "--rmat-scale", "6", "--queries", "64", "--gpus", "3",
         "--nodes", "2", "--locality"],
        ["generate", "rmat", "OUT", "--scale", "4", "--edge-factor", "0"],
        ["generate", "rmat", "OUT", "--scale", "0"],
        ["generate", "mesh", "OUT", "--scale", "1"],
        ["bfs", "--graph", "KR0", "--profile", "tiny", "--gpus", "0"],
        ["bfs", "--graph", "KR0", "--profile", "tiny", "--gpus", "-3"],
        ["trace", "KR0", "--profile", "tiny", "--diff", "EXISTING"],
        ["profile", "KR0", "--profile", "tiny", "--compare", "BAD_PROFILE"],
        ["generate", "powerlaw", "OUT", "--scale", "0"],
        *(["profile", "--cluster", "--graph", "GO", "--profile", "tiny",
           *bad]
          for bad in (["--compare", "GOOD_PROFILE"], ["--bench-dir", "DIR"],
                      ["--config", "HC"])),
    ])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys,
                                        monkeypatch, good_profile):
        existing = tmp_path / "old.snap.json"
        existing.write_text("{}")
        bad_profile = tmp_path / "old.profile.json"
        bad_profile.write_text('{"schema": "repro.profile/v2"}')
        paths = {"MISSING": str(tmp_path / "missing.json"),
                 "OUT": str(tmp_path / "new.snap.json"),
                 "EXISTING": str(existing),
                 "BAD_PROFILE": str(bad_profile),
                 "GOOD_PROFILE": str(good_profile),
                 "DIR": str(tmp_path / "profiles")}
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([paths.get(arg, arg) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] \
            == [err.splitlines()[-1]]
        # Rejected before any work: nothing written (a trace run's
        # default output lands in the working directory).
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["old.profile.json", "old.snap.json"]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "K40" in out and "enterprise" in out

    def test_datasets(self, capsys):
        assert main(["datasets", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "KR0" in out and "TW" in out

    def test_bfs_validates(self, capsys):
        assert main(["bfs", "--graph", "GO", "--profile", "tiny",
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validation: OK" in out
        assert "simulated ms" in out

    def test_bfs_trace(self, capsys):
        assert main(["bfs", "--graph", "YT", "--profile", "tiny",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "L0" in out

    def test_bfs_every_algorithm(self, capsys):
        for name in ("bl", "topdown", "hybrid", "b40c", "graphbig"):
            assert main(["bfs", "--graph", "GO", "--profile", "tiny",
                         "--algorithm", name, "--validate"]) == 0

    def test_bfs_multigpu(self, capsys):
        assert main(["bfs", "--graph", "GO", "--profile", "tiny",
                     "--gpus", "2", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "ballot compression" in out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "g.npz"
        assert main(["generate", "kron", str(out_file), "--scale", "8",
                     "--edge-factor", "4"]) == 0
        assert out_file.exists()
        assert main(["bfs", "--file", str(out_file), "--validate"]) == 0

    def test_generate_edge_list(self, tmp_path):
        out_file = tmp_path / "g.txt"
        assert main(["generate", "powerlaw", str(out_file), "--scale",
                     "8"]) == 0
        text = out_file.read_text()
        assert any(line and not line.startswith("#")
                   for line in text.splitlines())

    @pytest.mark.parametrize("app", ["sssp", "components", "scc",
                                     "diameter", "kcore", "pagerank"])
    def test_apps(self, app, capsys):
        assert main(["app", app, "--graph", "YT", "--profile",
                     "tiny"]) == 0
        assert capsys.readouterr().out.strip()

    def test_app_bc_and_closeness(self, capsys):
        assert main(["app", "bc", "--graph", "GO", "--profile", "tiny",
                     "--samples", "4"]) == 0
        assert main(["app", "closeness", "--graph", "GO", "--profile",
                     "tiny", "--samples", "4"]) == 0

    def test_bench_known_figure(self, capsys):
        assert main(["bench", "fig05_degree_cdf", "--profile",
                     "tiny"]) == 0

    def test_bench_unknown_figure(self, capsys):
        assert main(["bench", "fig99_nope"]) == 2


class TestNewCommands:
    def test_summarize(self, capsys):
        from repro.cli import main
        assert main(["summarize", "--graph", "YT", "--profile",
                     "tiny"]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out and "assortativity" in out

    def test_occupancy_default(self, capsys):
        from repro.cli import main
        assert main(["occupancy"]) == 0
        out = capsys.readouterr().out
        assert "blocks/SMX" in out and "occupancy" in out

    def test_occupancy_shared_limited(self, capsys):
        from repro.cli import main
        assert main(["occupancy", "--shared", "24576",
                     "--shared-config", "48"]) == 0
        out = capsys.readouterr().out
        assert "shared-memory" in out

    def test_bfs_bottomup_algorithm(self, capsys):
        from repro.cli import main
        assert main(["bfs", "--graph", "GO", "--profile", "tiny",
                     "--algorithm", "bottomup", "--validate"]) == 0


class TestTraceCommand:
    def _trace(self, tmp_path, *extra):
        out = tmp_path / "run.trace.json"
        argv = ["trace", "KR0", "--profile", "tiny", "--out", str(out),
                *extra]
        return out, main(argv)

    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json
        from repro.observ import validate_trace
        out, code = self._trace(tmp_path)
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_trace(doc) > 0
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") == "X"}
        assert {"run", "level", "kernel"} <= cats
        counters = {e["name"] for e in doc["traceEvents"]
                    if e.get("ph") == "C"}
        assert "frontier size" in counters and "gamma (%)" in counters
        assert "perfetto" in capsys.readouterr().out

    def test_positional_overrides_graph_flag(self, tmp_path, capsys):
        out, code = self._trace(tmp_path)
        assert code == 0
        assert "KR0" in capsys.readouterr().out

    def test_metrics_ndjson(self, tmp_path, capsys):
        import json
        ndjson = tmp_path / "run.metrics.ndjson"
        _, code = self._trace(tmp_path, "--metrics", str(ndjson))
        assert code == 0
        lines = ndjson.read_text().strip().splitlines()
        assert lines
        names = {json.loads(line)["name"] for line in lines}
        assert "repro.bfs.levels" in names

    def test_snapshot_then_clean_diff(self, tmp_path, capsys):
        from repro.observ import SNAPSHOT_SCHEMA, load_artifact
        snap = tmp_path / "run.snap.json"
        _, code = self._trace(tmp_path, "--snapshot", str(snap))
        assert code == 0
        doc = load_artifact(snap, SNAPSHOT_SCHEMA)
        assert doc["kind"] == "run"
        # A deterministic re-run diffs clean against its own snapshot.
        _, code = self._trace(tmp_path, "--diff", str(snap))
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_diff_fails_on_injected_regression(self, tmp_path, capsys):
        import json
        snap = tmp_path / "run.snap.json"
        self._trace(tmp_path, "--snapshot", str(snap))
        doc = json.loads(snap.read_text())
        doc["metrics"]["gld_transactions"] /= 1.10  # new run looks +10%
        snap.write_text(json.dumps(doc))
        _, code = self._trace(tmp_path, "--diff", str(snap))
        assert code == 1
        assert "[REG] gld_transactions" in capsys.readouterr().out

    def test_leaves_globals_restored(self, tmp_path):
        from repro.observ import NullTracer, get_registry, get_tracer
        self._trace(tmp_path)
        assert isinstance(get_tracer(), NullTracer)
        assert not get_registry().enabled

    def test_other_algorithm(self, tmp_path, capsys):
        _, code = self._trace(tmp_path, "--algorithm", "hybrid")
        assert code == 0
        assert "hybrid" in capsys.readouterr().out


class TestBenchSnapshot:
    def test_snapshot_and_diff_roundtrip(self, tmp_path, capsys):
        snap = tmp_path / "bench.snap.json"
        assert main(["bench", "fig05_degree_cdf", "--profile", "tiny",
                     "--snapshot", str(snap)]) == 0
        assert snap.exists()
        assert main(["bench", "fig05_degree_cdf", "--profile", "tiny",
                     "--diff", str(snap)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out


class TestProfileCommand:
    def test_text_report(self, capsys):
        assert main(["profile", "--graph", "GO", "--profile",
                     "tiny"]) == 0
        out = capsys.readouterr().out
        assert "-- levels --" in out
        assert "-- findings --" in out

    def test_artifact_and_html(self, tmp_path, capsys):
        art = tmp_path / "run.profile.json"
        html = tmp_path / "run.html"
        assert main(["profile", "--graph", "GO", "--profile", "tiny",
                     "-o", str(art), "--html", str(html)]) == 0
        from repro.observ import PROFILE_SCHEMA, load_artifact
        from repro.observ.profiler import from_json
        prof = from_json(load_artifact(art, PROFILE_SCHEMA))
        assert prof.levels and prof.gteps > 0
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<h2>Findings</h2>" in text

    def test_compare_attributes_delta(self, tmp_path, capsys):
        art = tmp_path / "bl.profile.json"
        assert main(["profile", "--graph", "GO", "--profile", "tiny",
                     "--config", "BL", "-o", str(art)]) == 0
        capsys.readouterr()
        assert main(["profile", "--graph", "GO", "--profile", "tiny",
                     "--config", "HC", "--compare", str(art)]) == 0
        out = capsys.readouterr().out
        assert "-- differential profile --" in out
        assert "attributed" in out

    def test_coverage_gate_can_fail(self, tmp_path, capsys):
        # An impossible threshold (>100%) must trip the exit-1 gate.
        art = tmp_path / "bl.profile.json"
        assert main(["profile", "--graph", "GO", "--profile", "tiny",
                     "--config", "BL", "-o", str(art)]) == 0
        assert main(["profile", "--graph", "GO", "--profile", "tiny",
                     "--config", "HC", "--compare", str(art),
                     "--min-coverage", "1.01"]) == 1
        assert "coverage" in capsys.readouterr().err

    def test_bench_dir_matrix(self, tmp_path, capsys):
        assert main(["profile", "--graph", "GO", "--profile", "tiny",
                     "--bench-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        arts = sorted(tmp_path.glob("*.profile.json"))
        from repro.bfs.enterprise import ABLATION_CONFIGS
        assert len(arts) == len(ABLATION_CONFIGS)


class TestClusterCommand:
    def test_bfs_verb_with_check(self, capsys):
        assert main(["cluster", "bfs", "--graph", "GO", "--profile",
                     "tiny", "--nodes", "2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "enterprise-cluster[2n x 2g]" in out
        assert "hierarchy advantage" in out
        assert "check: OK" in out

    def test_bfs_verb_trace_and_profile_out(self, tmp_path, capsys):
        import json
        from repro.observ import (
            CLUSTER_PROFILE_SCHEMA,
            load_artifact,
            validate_trace,
        )

        trace = tmp_path / "c.trace.json"
        prof = tmp_path / "c.prof.json"
        argv = ["cluster", "bfs", "--graph", "GO", "--profile", "tiny",
                "--nodes", "4", "--trace-out", str(trace),
                "--profile-out", str(prof)]
        assert main(argv) == 0
        doc = json.loads(trace.read_text())
        assert validate_trace(doc, expect_cluster=4) > 0
        assert load_artifact(
            prof, CLUSTER_PROFILE_SCHEMA)["num_nodes"] == 4
        out = capsys.readouterr().out
        assert "node tracks" in out and "cluster profile" in out
        # Same argv, same bytes: the artifact is deterministic.
        first = prof.read_bytes()
        assert main(argv) == 0
        assert prof.read_bytes() == first

    def test_bfs_verb_faults_degrade_the_run(self, capsys):
        assert main(["cluster", "bfs", "--graph", "GO", "--profile",
                     "tiny", "--nodes", "2", "--faults",
                     "degraded-link", "--check"]) == 0
        # Degraded fabric still answers exactly.
        assert "check: OK" in capsys.readouterr().out

    def test_profile_cluster_mode(self, tmp_path, capsys):
        from repro.observ import CLUSTER_PROFILE_SCHEMA, load_artifact

        prof = tmp_path / "p.json"
        html = tmp_path / "p.html"
        assert main(["profile", "--cluster", "--graph", "GO",
                     "--profile", "tiny", "--nodes", "2",
                     "-o", str(prof), "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "tiers (whole run)" in out
        assert load_artifact(
            prof, CLUSTER_PROFILE_SCHEMA)["num_nodes"] == 2
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_report_cluster_mode(self, tmp_path, capsys):
        import json
        from repro.observ import validate_trace

        html = tmp_path / "cluster.html"
        trace = tmp_path / "cw.trace.json"
        assert main(["report", "--cluster", "--node-counts", "1,2",
                     "--base-scale", "9", "-o", str(html),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "weak scaling waterfall" in out
        assert "tiers (whole run)" in out
        page = html.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "waterfall" in page
        doc = json.loads(trace.read_text())
        assert validate_trace(doc, expect_cluster=2) > 0

    def test_weak_verb_snapshot_then_clean_diff(self, tmp_path, capsys):
        snap = str(tmp_path / "cluster.json")
        base = ["cluster", "weak", "--node-counts", "1,2",
                "--base-scale", "10", "--check"]
        assert main(base + ["--snapshot", snap]) == 0
        out = capsys.readouterr().out
        assert "efficiency" in out and "wrote" in out
        assert main(base + ["--diff", snap]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_serve_locality_flags(self, capsys):
        assert main(["serve", "--graph", "GO", "--profile", "tiny",
                     "--queries", "64", "--gpus", "4", "--nodes", "2",
                     "--locality"]) == 0
        out = capsys.readouterr().out
        assert "locality (2 nodes)" in out

    def test_bench_fig15_cluster(self, capsys):
        assert main(["bench", "fig15_cluster", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "weak_node" in out and "efficiency" in out


class TestMonitor:
    ARGS = ["monitor", "--rmat-scale", "8", "--edge-factor", "8",
            "--queries", "200", "--rate", "64", "--gpus", "4",
            "--seed", "5"]

    def test_dashboard_fault_free(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "monitor:" in out
        assert "serve.qps" in out and "serve.device_util" in out
        assert "anomalies: 0" in out

    def test_fail_on_anomaly_gates(self, capsys):
        assert main(self.ARGS + ["--fail-on-anomaly"]) == 0
        assert main(self.ARGS + ["--faults", "straggler",
                                 "--fail-on-anomaly"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err

    def test_snapshot_then_clean_diff(self, tmp_path, capsys):
        snap = str(tmp_path / "monitor.json")
        assert main(self.ARGS + ["--snapshot", snap]) == 0
        assert main(self.ARGS + ["--diff", snap]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

#: The option strings and parsed defaults of the verbs whose flags are
#: declared by shared helpers, as recorded before the helpers existed:
#: sharing a declaration must not add, drop or re-default a flag.
SURFACE = {
    ("serve",): (
        ("--batch", "--bench", "--check", "--deadline-ms", "--diff",
         "--directed", "--edge-factor", "--faults", "--file", "--gpus",
         "--graph", "--hedge-ms", "--help", "--landmarks", "--locality",
         "--max-pending", "--max-retries", "--no-cache", "--no-shed",
         "--nodes", "--priorities", "--profile", "--queries", "--rate",
         "--rmat-scale", "--seed", "--slo-availability", "--slo-ms",
         "--snapshot", "--timeout-ms", "--tolerance", "--trace-out", "--zipf",
         "-h"),
        {"batch": 64, "bench": False, "check": False, "command": "serve",
         "deadline_ms": 2.0, "diff": None, "directed": False, "edge_factor":
         16, "faults": "none", "file": None, "gpus": 1, "graph": "GO",
         "hedge_ms": None, "landmarks": 16, "locality": False, "max_pending":
         4096, "max_retries": 2, "no_cache": False, "no_shed": False, "nodes":
         1, "priorities": 1, "profile": "small", "queries": 1024, "rate":
         512.0, "rmat_scale": None, "seed": 7, "slo_availability": 0.999,
         "slo_ms": None, "snapshot": None, "timeout_ms": None, "tolerance":
         0.05, "trace_out": None, "zipf": 1.3}),
    ("chaos",): (
        ("--batch", "--deadline-ms", "--diff", "--directed", "--edge-factor",
         "--file", "--gpus", "--graph", "--hedge-ms", "--help", "--landmarks",
         "--max-pending", "--max-retries", "--no-cache", "--priorities",
         "--profile", "--profiles", "--queries", "--rate", "--rmat-scale",
         "--seed", "--slo-availability", "--slo-ms", "--snapshot",
         "--timeout-ms", "--tolerance", "--zipf", "-h"),
        {"batch": 64, "command": "chaos", "deadline_ms": 2.0, "diff": None,
         "directed": False, "edge_factor": 16, "file": None, "gpus": 3,
         "graph": "GO", "hedge_ms": None, "landmarks": 16, "max_pending": 4096,
         "max_retries": 2, "no_cache": False, "priorities": 1, "profile":
         "small", "profiles": None, "queries": 1024, "rate": 512.0,
         "rmat_scale": None, "seed": 7, "slo_availability": 0.999, "slo_ms":
         None, "snapshot": None, "timeout_ms": None, "tolerance": 0.05, "zipf":
         1.3}),
    ("monitor",): (
        ("--batch", "--cadence-ms", "--deadline-ms", "--diff", "--directed",
         "--edge-factor", "--fail-on-anomaly", "--faults", "--file", "--gpus",
         "--graph", "--hedge-ms", "--help", "--html", "--landmarks",
         "--max-pending", "--max-retries", "--no-cache", "--out",
         "--priorities", "--profile", "--queries", "--rate", "--rmat-scale",
         "--samples", "--seed", "--series-out", "--slo-availability",
         "--slo-ms", "--snapshot", "--timeout-ms", "--tolerance",
         "--trace-out", "--whatif", "--zipf", "-h"),
        {"batch": 64, "cadence_ms": None, "command": "monitor", "deadline_ms":
         2.0, "diff": None, "directed": False, "edge_factor": 16,
         "fail_on_anomaly": False, "faults": "none", "file": None, "gpus": 3,
         "graph": "GO", "hedge_ms": None, "html": None, "landmarks": 16,
         "max_pending": 4096, "max_retries": 2, "no_cache": False, "out": None,
         "priorities": 1, "profile": "small", "queries": 1024, "rate": 512.0,
         "rmat_scale": None, "samples": 256, "seed": 7, "series_out": None,
         "slo_availability": 0.999, "slo_ms": None, "snapshot": None,
         "timeout_ms": None, "tolerance": 0.05, "trace_out": None, "whatif":
         False, "zipf": 1.3}),
    ("report",): (
        ("--base-scale", "--batch", "--cluster", "--deadline-ms", "--directed",
         "--edge-factor", "--faults", "--file", "--gpus", "--gpus-per-node",
         "--graph", "--hedge-ms", "--help", "--max-retries", "--node-counts",
         "--output", "--parts-per-node", "--priorities", "--profile",
         "--profile-out", "--queries", "--rate", "--rmat-scale", "--seed",
         "--serve", "--slo-availability", "--slo-ms", "--timeout-ms",
         "--trace-out", "-h", "-o"),
        {"base_scale": 12, "batch": 64, "cluster": False, "command": "report",
         "deadline_ms": 2.0, "directed": False, "edge_factor": 16, "faults":
         "none", "file": None, "gpus": 3, "gpus_per_node": 2, "graph": "GO",
         "hedge_ms": None, "max_retries": 2, "node_counts": (1, 2, 4, 8),
         "output": None, "parts_per_node": 32, "priorities": 1, "profile":
         "small", "profile_out": None, "queries": 1024, "rate": 512.0,
         "rmat_scale": None, "seed": 7, "serve": False, "slo_availability":
         0.999, "slo_ms": None, "timeout_ms": None, "trace_out": None}),
    ("cluster", "bfs"): (
        ("--base-scale", "--check", "--diff", "--directed", "--edge-factor",
         "--faults", "--file", "--gpus-per-node", "--graph", "--help",
         "--node-counts", "--nodes", "--parts-per-node", "--profile",
         "--profile-out", "--rmat-scale", "--seed", "--snapshot", "--source",
         "--tolerance", "--trace-out", "-h"),
        {"base_scale": 15, "check": False, "command": "cluster", "diff": None,
         "directed": False, "edge_factor": 16, "faults": "none", "file": None,
         "gpus_per_node": 2, "graph": "GO", "node_counts": (1, 2, 4, 8),
         "nodes": 2, "parts_per_node": 32, "profile": "small", "profile_out":
         None, "rmat_scale": None, "seed": 7, "snapshot": None, "source": None,
         "tolerance": 0.05, "trace_out": None, "verb": "bfs"}),
    ("profile",): (
        ("--bench-dir", "--cluster", "--compare", "--config", "--device",
         "--directed", "--faults", "--file", "--findings", "--gpus-per-node",
         "--graph", "--help", "--html", "--min-coverage", "--nodes", "--out",
         "--parts-per-node", "--profile", "--seed", "--source", "--top", "-h",
         "-o"),
        {"bench_dir": None, "cluster": False, "command": "profile", "compare":
         None, "config": "enterprise", "device": "k40", "directed": False,
         "faults": "none", "file": None, "findings": 8, "gpus_per_node": 2,
         "graph": "GO", "graph_arg": None, "html": None, "min_coverage": 0.95,
         "nodes": 4, "out": None, "parts_per_node": 32, "profile": "small",
         "seed": 7, "source": None, "top": 10}),
    ("trace",): (
        ("--algorithm", "--device", "--diff", "--directed", "--file",
         "--graph", "--help", "--metrics", "--out", "--profile", "--seed",
         "--snapshot", "--source", "--tolerance", "-h", "-o"),
        {"algorithm": "enterprise", "command": "trace", "device": "k40",
         "diff": None, "directed": False, "file": None, "graph": "GO",
         "graph_arg": None, "metrics": None, "out": None, "profile": "small",
         "seed": 7, "snapshot": None, "source": None, "tolerance": 0.05}),
}


@pytest.mark.parametrize("argv", list(SURFACE), ids=" ".join)
def test_parser_surface_is_unchanged(argv):
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    options = tuple(sorted(option for action in sub.choices[argv[0]]._actions
                           for option in action.option_strings))
    assert (options, vars(parser.parse_args(list(argv)))) == SURFACE[argv]


def _documented_commands() -> list:
    """Every ``python -m repro …`` command in README.md and
    docs/TUTORIAL.md, with its place: code-block lines (continuations
    joined, prompts and comments dropped) and inline code spans; a
    command with a ``…`` placeholder is skipped."""
    root = Path(__file__).resolve().parents[1]
    commands = []
    for name in ("README.md", "docs/TUTORIAL.md"):
        lines = (root / name).read_text().splitlines()
        for number, line in enumerate(lines, 1):
            texts = re.findall(r"`(python -m repro [^`]*)`", line)
            if line.lstrip("$ ").startswith("python -m repro"):
                text, following = line.lstrip("$ "), iter(lines[number:])
                while text.endswith("\\"):
                    text = text[:-1] + next(following)
                texts = [text]
            commands += [pytest.param(shlex.split(text, comments=True)[3:],
                                      id=f"{name}:{number}")
                         for text in texts if "…" not in text]
    return commands


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_command_parses(argv, tmp_path, monkeypatch):
    """Each documented command is accepted by the parser, run from a
    directory where the files it reads exist."""
    monkeypatch.chdir(tmp_path)
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--diff", "--compare", "--file"):
            (tmp_path / value).touch()
    build_parser().parse_args(argv)
