#!/usr/bin/env python3
"""perfbench: the Enterprise reproduction's benchmark, on both clocks.

One workload (the form BENCHMARK.json's command takes)::

    python3 perfbench/run.py --workload bfs-rmat --seed 7 --seconds 10 --trace 0

Every workload, each in its own fresh child process, one after another::

    python3 perfbench/run.py --seed 7 [--trace 1] [--out run.json]

A run prints one ``workload metric value unit`` line per metric and then
one JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones; README.md
defines both.  Records go to ``artifacts/perfbench/``.  The exit code is
0 only when every answer was checked and right.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "artifacts" / "perfbench"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record_path(workload: str, trace: int) -> Path:
    return ARTIFACTS / f"{workload}.trace{trace}.json"


def select(metrics: dict, spec: dict, trace: int) -> dict:
    """The metrics this mode reports, with their units.  A declared
    per-layer metric a workload does not exercise reads 0."""
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: (*metrics.get(m["name"], (0.0, 0.0)), m["unit"])
            for m in chosen}


def run_one(args, spec: dict) -> int:
    from harness import run_workload
    from spans import write_spans
    from workloads import WORKLOADS

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    metrics = select(result.metrics, spec, args.trace)
    for error in result.errors[:20]:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    record = {
        "schema": "perfbench.run/v1", "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "workloads": {args.workload: {
            "correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "errors": result.errors[:20],
            "metrics": {name: {"value": float(v), "unit": u, "spread": s}
                        for name, (v, s, u) in metrics.items()}}},
    }
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    record_path(args.workload, args.trace).write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(ARTIFACTS / f"{args.workload}.spans.json", result.spans,
                    workload=args.workload, seed=args.seed)
    for name, (value, _, unit) in metrics.items():
        print(f"{args.workload} {name} {float(value)!r} {unit}")
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, _, u) in metrics.items()}}))
    return 0 if result.correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh child process; merges their records."""
    merged = None
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        path = record_path(workload, args.trace)
        path.unlink(missing_ok=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        ok = ok and child.returncode == 0 and path.exists()
        if not path.exists():
            continue
        record = json.loads(path.read_text())
        if merged is None:
            merged = record
        else:
            merged["workloads"].update(record["workloads"])
    if merged is None:
        return 1
    out = args.out or ARTIFACTS / f"run-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(merged))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Benchmark the Enterprise reproduction.")
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec["workloads"]]
                        + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed phase length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        help="merged record of an all-workload run")
    args = parser.parse_args(argv)
    # One BLAS/OpenMP thread, set before NumPy loads: the load stays
    # within one core per process.
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
