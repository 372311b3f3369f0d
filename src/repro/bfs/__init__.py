"""BFS algorithms: Enterprise and the variants it is built from/compared to."""

from .bottomup import bottomup_bfs
from .cluster import (
    ClusterBFSResult,
    balanced_bounds,
    cluster_enterprise_bfs,
    shard_bounds,
)
from .classify import (
    QUEUE_BOUNDS,
    QUEUE_GRANULARITY,
    ClassifiedFrontier,
    classify_frontiers,
)
from .common import (
    BFSResult,
    BottomUpOutcome,
    LevelTrace,
    UNVISITED,
    bottom_up_inspect,
    expand_frontier,
    reference_bfs_levels,
    validate_result,
)
from .direction import (
    AlphaBetaPolicy,
    DEFAULT_GAMMA_THRESHOLD,
    GammaPolicy,
)
from .enterprise import ABLATION_CONFIGS, EnterpriseConfig, enterprise_bfs
from .frontier import (
    bottomup_filter_workflow,
    queue_contiguity,
    switch_workflow,
    topdown_workflow,
)
from .hubcache import HubCachePolicy
from .hybrid import hybrid_bfs
from .msbfs import MSBFSResult, ms_bfs
from .multigpu import MultiGPUResult, multigpu_enterprise_bfs, partition_bounds
from .partition2d import Grid2D, MultiGPU2DResult, multigpu2d_enterprise_bfs
from .statusarray import baseline_bfs, status_array_bfs
from .stealing import stealing_expansion_cost
from .topdown import topdown_atomic_bfs

__all__ = [
    "ABLATION_CONFIGS",
    "AlphaBetaPolicy",
    "BFSResult",
    "BottomUpOutcome",
    "ClassifiedFrontier",
    "ClusterBFSResult",
    "DEFAULT_GAMMA_THRESHOLD",
    "EnterpriseConfig",
    "GammaPolicy",
    "Grid2D",
    "MultiGPU2DResult",
    "HubCachePolicy",
    "LevelTrace",
    "MSBFSResult",
    "MultiGPUResult",
    "QUEUE_BOUNDS",
    "QUEUE_GRANULARITY",
    "UNVISITED",
    "balanced_bounds",
    "baseline_bfs",
    "bottomup_bfs",
    "bottom_up_inspect",
    "bottomup_filter_workflow",
    "classify_frontiers",
    "cluster_enterprise_bfs",
    "enterprise_bfs",
    "expand_frontier",
    "hybrid_bfs",
    "ms_bfs",
    "multigpu2d_enterprise_bfs",
    "multigpu_enterprise_bfs",
    "partition_bounds",
    "queue_contiguity",
    "reference_bfs_levels",
    "shard_bounds",
    "status_array_bfs",
    "stealing_expansion_cost",
    "switch_workflow",
    "topdown_atomic_bfs",
    "topdown_workflow",
    "validate_result",
]
