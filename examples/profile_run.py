#!/usr/bin/env python
"""Profile an Enterprise BFS run with the observability layer.

Runs the full TS + WB + HC traversal on a Kronecker graph with the span
tracer and metrics registry enabled, then exports everything a profiler
session would produce:

* ``<name>.trace.json`` — Chrome trace-event timeline (open in
  chrome://tracing or https://ui.perfetto.dev): run → level → kernel
  spans plus counter tracks for frontier size, γ, α and power.
* ``<name>.snap.json`` — versioned counter snapshot.  Re-run later and
  compare with ``diff_snapshots`` (or ``python -m repro trace --diff``)
  to catch performance regressions mechanically.

Usage::

    python examples/profile_run.py [scale] [edge_factor] [outdir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import GPUDevice, enterprise_bfs, kronecker_graph
from repro.metrics import format_gteps
from repro.observ import (
    collecting,
    diff_snapshots,
    run_snapshot,
    tracing,
    validate_trace,
    write_artifact,
    write_chrome_trace,
)


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    edge_factor = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    outdir = Path(sys.argv[3]) if len(sys.argv) > 3 else Path(".")

    graph = kronecker_graph(scale, edge_factor, seed=1)
    source = int(graph.out_degrees.argmax())
    print(f"Profiling enterprise BFS on {graph.name} "
          f"({graph.num_vertices:,} vertices) from hub {source} ...")

    device = GPUDevice()
    with tracing() as tracer, collecting() as registry:
        result = enterprise_bfs(graph, source, device=device)

    # --- timeline ------------------------------------------------------
    trace_path = outdir / f"{graph.name}.trace.json"
    write_chrome_trace(trace_path, tracer, meta={
        "algorithm": result.algorithm, "graph": graph.name,
        "source": source,
    })
    import json
    n_events = validate_trace(json.loads(trace_path.read_text()))
    spans = tracer.spans()
    print(f"\nTimeline: wrote {trace_path} "
          f"({n_events} duration events, {len(tracer.counters())} counter "
          f"samples)")
    for cat in ("run", "level", "kernel", "transfer"):
        n = sum(1 for s in spans if s.cat == cat)
        if n:
            print(f"  {cat:<9} spans  {n:>4}")
    print("  open in chrome://tracing or https://ui.perfetto.dev")

    # --- counter snapshot ---------------------------------------------
    snap = run_snapshot(result, device=device, registry=registry)
    snap_path = write_artifact(outdir / f"{graph.name}.snap.json", snap)
    print(f"\nSnapshot: wrote {snap_path} "
          f"({len(snap['metrics'])} metrics, {len(snap['levels'])} levels)")
    for key in ("time_ms", "teps", "gld_transactions", "power_w",
                "simt_efficiency"):
        print(f"  {key:<20} {snap['metrics'][key]:g}")

    # --- regression gate demo -----------------------------------------
    # A second run of the same deterministic experiment diffs clean ...
    device2 = GPUDevice()
    result2 = enterprise_bfs(graph, source, device=device2)
    again = run_snapshot(result2, device=device2)
    diff = diff_snapshots(snap, again)
    print(f"\nRe-run vs snapshot: {'OK' if diff.ok else 'REGRESSED'} "
          f"({len(diff.regressions)} regression(s))")

    # ... while an injected 10% gld_transactions increase is flagged.
    worse = json.loads(json.dumps(again))
    worse["metrics"]["gld_transactions"] *= 1.10
    diff = diff_snapshots(snap, worse)
    print("Injected +10% gld_transactions:")
    for delta in diff.regressions:
        print(f"  {delta.line()}")

    print(f"\n{result.algorithm}: visited {result.visited:,} in "
          f"{result.time_ms:.4f} simulated ms, {format_gteps(result.teps)}")


if __name__ == "__main__":
    main()
