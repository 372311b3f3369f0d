"""Graph substrate: CSR container, generators, datasets, statistics, I/O."""

from .csr import CSRGraph, from_edges
from .datasets import (
    DatasetSpec,
    HIGH_DIAMETER_ABBRS,
    POWER_LAW_ABBRS,
    SIZE_PROFILES,
    catalog,
    load,
    table1_rows,
)
from .generators import (
    KRONECKER_ABC,
    RMAT_ABC,
    kronecker_edges,
    kronecker_graph,
    powerlaw_degrees,
    powerlaw_graph,
    rmat_graph,
    road_mesh,
)
from .io import load_csr, read_edge_list, save_csr, write_edge_list
from .reorder import Relabeling, apply_relabeling, bfs_order, degree_order
from .properties import (
    GraphSummary,
    average_clustering,
    clustering_coefficient,
    degree_assortativity,
    simple_undirected,
    summarize,
    triangle_counts,
)
from .subgraph import InducedSubgraph, induced_subgraph
from .stats import (
    FrontierLevel,
    fraction_below,
    frontier_statistics,
    hub_mask,
    hub_threshold,
    top_hub_edge_share,
)

__all__ = [
    "CSRGraph",
    "DatasetSpec",
    "FrontierLevel",
    "GraphSummary",
    "HIGH_DIAMETER_ABBRS",
    "InducedSubgraph",
    "KRONECKER_ABC",
    "POWER_LAW_ABBRS",
    "RMAT_ABC",
    "Relabeling",
    "SIZE_PROFILES",
    "apply_relabeling",
    "average_clustering",
    "bfs_order",
    "catalog",
    "clustering_coefficient",
    "degree_assortativity",
    "degree_order",
    "fraction_below",
    "from_edges",
    "frontier_statistics",
    "hub_mask",
    "hub_threshold",
    "induced_subgraph",
    "kronecker_edges",
    "kronecker_graph",
    "load",
    "load_csr",
    "powerlaw_degrees",
    "powerlaw_graph",
    "read_edge_list",
    "rmat_graph",
    "road_mesh",
    "save_csr",
    "simple_undirected",
    "summarize",
    "table1_rows",
    "top_hub_edge_share",
    "triangle_counts",
    "write_edge_list",
]
