"""Benchmark harness: per-figure regeneration and report plumbing."""

from .figures import (
    DEFAULT_FIGURE_GRAPHS,
    fig04_frontier_share,
    fig05_degree_cdf,
    fig06_hub_edges,
    fig08_timeline,
    fig10_switching_parameters,
    fig12_hub_cache_savings,
    fig13_ablation,
    fig14_comparison,
    fig15_cluster,
    fig15_scaling,
    fig16_counters,
)
from .cluster import run_weak_scaling
from .runner import (
    PaperClaim,
    claims_report,
    format_table,
    run_profiled_bench,
)

__all__ = [
    "DEFAULT_FIGURE_GRAPHS",
    "PaperClaim",
    "claims_report",
    "run_profiled_bench",
    "fig04_frontier_share",
    "fig05_degree_cdf",
    "fig06_hub_edges",
    "fig08_timeline",
    "fig10_switching_parameters",
    "fig12_hub_cache_savings",
    "fig13_ablation",
    "fig14_comparison",
    "fig15_cluster",
    "fig15_scaling",
    "fig16_counters",
    "run_weak_scaling",
    "format_table",
]
