"""BENCHMARK.json, run.py and README.md agree with each other."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import run_workload
from workloads import WORKLOADS, BFSWorkload

PERFBENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name):
    """The workload at a size that runs in well under a second."""
    workload = WORKLOADS[name]
    if isinstance(workload, BFSWorkload):
        size = 24 if workload.graph == "road" else 9
        return dataclasses.replace(workload, size=size, sources=2)
    return dataclasses.replace(workload, scale=9, queries=96)


@pytest.fixture(scope="module")
def results():
    return {(name, trace): run_workload(tiny(name), 3, 0.0, trace)
            for name in WORKLOADS for trace in (False, True)}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    names = [w["name"] for w in SPEC["workloads"]] + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_every_run_is_correct(results):
    for (name, trace), result in results.items():
        assert result.correct, (name, trace, result.errors[:3])
        assert result.failed == 0 and result.attempted > 0


def test_declared_metrics_are_exactly_the_computed_ones(results):
    computed = set().union(*(r.metrics for r in results.values()))
    assert computed == set(END_TO_END) | set(PER_LAYER)
    for (name, trace), result in results.items():
        for metric in END_TO_END:
            assert result.metrics[metric][0] > 0, (name, metric)


def test_run_prints_every_declared_metric(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, "serve", tiny("serve"))
    monkeypatch.setattr(run, "ARTIFACTS", tmp_path)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        code = run.main(["--workload", "serve", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        printed = [line.split() for line in lines[:-1]]
        assert [(p[1], p[3]) for p in printed] == \
            [(m["name"], m["unit"]) for m in declared]
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert list(last["metrics"]) == [m["name"] for m in declared]
    assert (tmp_path / "serve.spans.json").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert "{" not in child.stdout


def _layer_table():
    """Rows of README.md's layer table as lists of backticked names."""
    text = (PERFBENCH / "README.md").read_text()
    section = text.split("## Layers", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, "README.md has no layer table"
    return [[re.findall(r"`([^`]+)`", cell)
             for cell in row.strip("|").split("|")] for row in rows]


def test_layer_table_names_real_metrics_and_workloads():
    workloads = {w["name"] for w in SPEC["workloads"]}
    listed = set()
    for _, metrics, moves, mostly, little in _layer_table():
        listed.update(metrics)
        assert set(metrics) <= set(PER_LAYER)
        assert set(moves) <= set(END_TO_END)
        assert set(mostly) | set(little) <= workloads
    assert listed == set(PER_LAYER)
