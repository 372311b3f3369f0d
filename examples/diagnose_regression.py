#!/usr/bin/env python
"""Chase a GTEPS regression from the headline number to its cause.

Simulates the workflow the profiler exists for: a "known-good" run
(full Enterprise) against a "regressed" build (here: workload balancing
accidentally disabled — a realistic one-flag regression).  The script

1. profiles both runs into ``repro.profile/v2`` artifacts,
2. prints the ranked bottleneck findings for the regressed run, and
3. uses ``diff_profiles`` to attribute the whole GTEPS drop to named
   levels / kernel classes / counters — no eyeballing of raw traces.

Usage::

    python examples/diagnose_regression.py [scale] [edge_factor] [outdir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import kronecker_graph
from repro.bfs.enterprise import EnterpriseConfig
from repro.observ import (
    diff_profiles,
    format_diff,
    format_profile,
    profile_run,
    write_artifact,
)
from repro.observ.profiler import to_json


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    edge_factor = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    outdir = Path(sys.argv[3]) if len(sys.argv) > 3 else Path(".")

    graph = kronecker_graph(scale, edge_factor, seed=1)
    print(f"Profiling {graph.name} ({graph.num_vertices:,} vertices, "
          f"{graph.num_edges:,} edges) ...\n")

    good = profile_run(graph, config=EnterpriseConfig(), seed=7)
    # The "regression": someone turned workload balancing off.
    regressed = profile_run(
        graph, config=EnterpriseConfig(workload_balancing=False), seed=7)

    good_path = write_artifact(outdir / f"{graph.name}.good.profile.json",
                               to_json(good))
    bad_path = write_artifact(outdir / f"{graph.name}.bad.profile.json",
                              to_json(regressed))
    print(f"Baseline  {good.config:12s} {good.gteps:8.4f} GTEPS "
          f"-> {good_path}")
    print(f"Regressed {regressed.config:12s} {regressed.gteps:8.4f} GTEPS "
          f"-> {bad_path}\n")

    print("=== What is the regressed run doing? ===")
    print(format_profile(regressed, max_findings=4))

    print("\n=== Where did the GTEPS go? ===")
    diff = diff_profiles(good, regressed)
    print(format_diff(diff, top=6))
    print(f"\nattribution coverage: {diff.coverage:.1%} "
          f"(every cell above is a named level / kernel class)")


if __name__ == "__main__":
    main()
