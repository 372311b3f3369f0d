"""Command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import ALGORITHMS, build_parser, main


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
        ["perf"],
    ])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        existing = tmp_path / "old.snap.json"
        existing.write_text("{}")
        paths = {"MISSING": str(tmp_path / "missing.json"),
                 "OUT": str(tmp_path / "new.snap.json"),
                 "EXISTING": str(existing)}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(arg, arg) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] \
            == [err.splitlines()[-1]]


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
        from repro.observ import load_snapshot
        snap = tmp_path / "run.snap.json"
        _, code = self._trace(tmp_path, "--snapshot", str(snap))
        assert code == 0
        doc = load_snapshot(snap)
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
        from repro.observ import load_profile
        prof = load_profile(art)
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
        from repro.observ import validate_trace
        from repro.observ.clusterprof import load_cluster_profile

        trace = tmp_path / "c.trace.json"
        prof = tmp_path / "c.prof.json"
        argv = ["cluster", "bfs", "--graph", "GO", "--profile", "tiny",
                "--nodes", "4", "--trace-out", str(trace),
                "--profile-out", str(prof)]
        assert main(argv) == 0
        doc = json.loads(trace.read_text())
        assert validate_trace(doc, expect_cluster=4) > 0
        assert load_cluster_profile(prof).num_nodes == 4
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
        from repro.observ.clusterprof import load_cluster_profile

        prof = tmp_path / "p.json"
        html = tmp_path / "p.html"
        assert main(["profile", "--cluster", "--graph", "GO",
                     "--profile", "tiny", "--nodes", "2",
                     "-o", str(prof), "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "tiers (whole run)" in out
        assert load_cluster_profile(prof).num_nodes == 2
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

    def test_artifacts_and_determinism(self, tmp_path, capsys):
        import json

        from repro.observ import (
            load_findings,
            load_series,
            load_snapshot,
            validate_trace,
        )

        def run(tag: str) -> dict:
            paths = {kind: tmp_path / f"{tag}.{kind}"
                     for kind in ("findings", "series", "html", "trace",
                                  "snap")}
            assert main(self.ARGS + [
                "--faults", "straggler", "--whatif",
                "--out", str(paths["findings"]),
                "--series-out", str(paths["series"]),
                "--html", str(paths["html"]),
                "--trace-out", str(paths["trace"]),
                "--snapshot", str(paths["snap"])]) == 0
            return paths

        a, b = run("a"), run("b")
        out = capsys.readouterr().out
        assert "what-if: predicted knob impacts" in out

        findings = load_findings(a["findings"])
        assert findings["events"], "straggler produced no findings"
        assert a["findings"].read_bytes() == b["findings"].read_bytes()
        assert a["series"].read_bytes() == b["series"].read_bytes()

        series = load_series(a["series"])
        assert "serve.device_util" in series["series"]
        page = a["html"].read_text()
        assert page.startswith("<!DOCTYPE html>") and "<svg" in page
        assert validate_trace(json.loads(a["trace"].read_text())) > 0
        snap = load_snapshot(a["snap"])
        assert any(key.endswith(".anomalies")
                   for key in snap["metrics"])

    def test_snapshot_then_clean_diff(self, tmp_path, capsys):
        snap = str(tmp_path / "monitor.json")
        assert main(self.ARGS + ["--snapshot", snap]) == 0
        assert main(self.ARGS + ["--diff", snap]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out
