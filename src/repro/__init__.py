"""repro — reproduction of "Enterprise: Breadth-First Graph Traversal on
GPUs" (Liu & Huang, SC '15) on a simulated GPU execution model.

Quickstart::

    from repro import enterprise_bfs, kronecker_graph

    graph = kronecker_graph(scale=14, edge_factor=16)
    result = enterprise_bfs(graph, source=0)
    print(result.depth, result.teps)

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.graph` — CSR graphs, generators, the Table-1 dataset
  catalog, degree/hub statistics, I/O.
* :mod:`repro.gpu` — the simulated GPU: device specs, memory coalescing,
  kernel cost model, Hyper-Q, shared-memory hub cache, counters, power,
  multi-GPU interconnect.
* :mod:`repro.bfs` — Enterprise (TS + WB + HC with γ switching), its
  ablation ladder, and the classic variants it is built from.
* :mod:`repro.baselines` — B40C / Gunrock / MapGraph / GraphBIG strategy
  re-implementations (Fig. 14).
* :mod:`repro.apps` — SSSP, connected components, betweenness
  centrality, diameter estimation on top of Enterprise.
* :mod:`repro.metrics` — TEPS / TEPS-per-watt trial harness (§5).
* :mod:`repro.observ` — observability: span tracer, Chrome/Perfetto
  trace export, metrics registry, counter snapshots + regression diffs
  (the simulated analogue of nvprof/nvvp).
* :mod:`repro.bench` — per-figure/table regeneration used by the
  ``benchmarks/`` suite.
"""

from .bfs import (
    ABLATION_CONFIGS,
    BFSResult,
    EnterpriseConfig,
    enterprise_bfs,
    hybrid_bfs,
    multigpu_enterprise_bfs,
    status_array_bfs,
    topdown_atomic_bfs,
    validate_result,
)
from .graph import (
    CSRGraph,
    from_edges,
    kronecker_graph,
    load,
    powerlaw_graph,
    rmat_graph,
)
from .gpu import GPUDevice, KEPLER_K40
from .metrics import TrialStats, run_trials, teps
from .observ import (
    MetricsRegistry,
    Tracer,
    diff_snapshots,
    get_tracer,
    run_snapshot,
    tracing,
    write_chrome_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ABLATION_CONFIGS",
    "BFSResult",
    "CSRGraph",
    "EnterpriseConfig",
    "GPUDevice",
    "KEPLER_K40",
    "MetricsRegistry",
    "Tracer",
    "TrialStats",
    "__version__",
    "diff_snapshots",
    "enterprise_bfs",
    "from_edges",
    "get_tracer",
    "hybrid_bfs",
    "kronecker_graph",
    "load",
    "multigpu_enterprise_bfs",
    "powerlaw_graph",
    "rmat_graph",
    "run_snapshot",
    "run_trials",
    "status_array_bfs",
    "teps",
    "topdown_atomic_bfs",
    "tracing",
    "validate_result",
    "write_chrome_trace",
]
