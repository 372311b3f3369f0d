"""Golden records for the 2-D grid and the cluster traversal.

:mod:`tests.test_golden_runs` freezes single-GPU Enterprise runs; these
fixtures freeze the multi-GPU layouts that share the block helpers of
:mod:`repro.bfs.partition2d`: ``multigpu2d_enterprise_bfs`` and
``cluster_enterprise_bfs`` on an undirected R-MAT-10 and a directed
power-law graph.  Each case takes the γ switch, so both top-down block
expansion and bottom-up block inspection run.  Pinned per case:

* SHA-256 of the level and parent byte arrays;
* the simulated times, down to the last float bit (``float.hex``);
* the per-level ``edges_checked``;
* the exchange ledger (``charged_payloads``) and, for the cluster, the
  bytes read from simulated storage;
* the summed kernel ticks of every device, in row-major grid order;
* per level, the grid loop's six tier ticks and bytes (in
  ``CLUSTER_TIERS`` order) and its per-node compute and staging ticks.

Regenerating the literals is deliberately manual (run the module with
``python -m tests.test_golden_cluster``): a golden update must be a
reviewed decision, never a side effect.
"""

from __future__ import annotations

import hashlib
import textwrap
from unittest import mock

import numpy as np
import pytest

from repro.bfs import cluster, partition2d
from repro.bfs.cluster import cluster_enterprise_bfs
from repro.gpu.fabric import Fabric
from repro.graph.generators import powerlaw_graph, rmat_graph

GRAPHS = {
    "rmat10": lambda: rmat_graph(10, 16, seed=3),
    "powerlaw-directed": lambda: powerlaw_graph(
        1024, 6.0, 2.2, 120, directed=True, seed=4),
}

#: (layout, graph, rows, cols): the cluster runs at 4x2 and 2x3
#: (nodes x GPUs per node, 8 storage partitions per node), the 2-D grid
#: at 2x2 and 3x2 on both graphs.
CASES = [
    ("cluster", "rmat10", 4, 2),
    ("cluster", "powerlaw-directed", 2, 3),
    ("grid", "rmat10", 2, 2),
    ("grid", "rmat10", 3, 2),
    ("grid", "powerlaw-directed", 2, 2),
    ("grid", "powerlaw-directed", 3, 2),
]


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _device_ps(devices) -> list[int]:
    return [sum(k.time_ps for k in d.kernels()) for d in devices]


def _observe(layout: str, graph_name: str, rows: int, cols: int) -> dict:
    graph = GRAPHS[graph_name]()
    source = int(np.argmax(graph.out_degrees))
    levels = []
    grid_bfs = cluster._grid_bfs

    def recorded_grid_bfs(*args, **kwargs):
        out = grid_bfs(*args, **kwargs)
        levels.extend(out[1])
        return out

    with mock.patch.object(cluster, "_grid_bfs", recorded_grid_bfs):
        run, devices, times, extra = _run(layout, graph, source, rows, cols)
    traces = run.result.traces
    return {
        "switched": any(t.direction == "switch" for t in traces),
        "levels_sha": _sha(run.result.levels),
        "parents_sha": _sha(run.result.parents),
        "times": {name: getattr(run, name).hex() for name in times},
        "edges_checked": [t.edges_checked for t in traces],
        "charged_payloads": list(run.charged_payloads),
        **extra,
        "device_ps": _device_ps(devices),
        "tier_ps": [[s.time_ps for s in lvl.tiers] for lvl in levels],
        "tier_bytes": [[s.nbytes for s in lvl.tiers] for lvl in levels],
        "node_compute_ps": [list(lvl.node_compute_ps) for lvl in levels],
        "node_staging_ps": [list(lvl.node_staging_ps) for lvl in levels],
    }


def _run(layout: str, graph, source: int, rows: int, cols: int):
    """One traversal: the run, its devices in row-major grid order, the
    time fields to pin and any extra ledger entries."""
    if layout == "cluster":
        fabric = Fabric(rows, cols)
        run = cluster_enterprise_bfs(graph, source, rows, cols,
                                     fabric=fabric, parts_per_node=8)
        devices = [fabric.device(i, j)
                   for i in range(rows) for j in range(cols)]
        times = ("time_ms", "computation_ms", "intra_ms", "inter_ms",
                 "io_ms")
        extra = {"bytes_read": run.bytes_read}
    else:
        devices = []

        class Recorded(partition2d.GPUDevice):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                devices.append(self)

        with mock.patch.object(partition2d, "GPUDevice", Recorded):
            run = partition2d.multigpu2d_enterprise_bfs(graph, source,
                                                        rows, cols)
        times = ("time_ms", "computation_ms", "communication_ms")
        extra = {}
    return run, devices, times, extra


#: Frozen 2026-10 and re-recorded when simulated charges became whole
#: picosecond ticks; the per-level tier keys were recorded from the ms
#: level costs, before the grid loop began keeping tick records.  Every
#: literal below is an *observed* value, not a derived one.
GOLDENS = {
    ("cluster", "rmat10", 4, 2): {
        "levels_sha":
            "ef11281584b3fd317d9a6f77597d2e54865c0647a661b041b19630b9696e4d3a",
        "parents_sha":
            "df9acaf5c76d60eee4b1c2a199ef29dff4329939fcd05258efd21328b4d50328",
        "times": {"time_ms": "0x1.e803c7b5b6b0bp-5", "computation_ms":
            "0x1.21f71c67d0daep-7", "intra_ms": "0x1.51ee92cdd614dp-12",
            "inter_ms": "0x1.3b3dc3afed98fp-6", "io_ms":
            "0x1.fe86833c6002ap-6"},
        "edges_checked": [212, 7695, 179, 1],
        "charged_payloads": [33, 32, 34, 30, 64, 64, 33, 32, 34, 30, 64, 64,
            33, 32, 34, 30, 64, 64, 30, 64],
        "bytes_read": 270592,
        "device_ps": [7738210, 4887785, 6868412, 4670335, 5563713, 5105235,
            7955660, 5998613],
        "tier_ps": [[690112, 40472, 2409600, 40111, 2400600, 3700000],
            [6343803, 40472, 2409600, 40111, 2400600, 27460000], [1342461,
            40472, 2409600, 40111, 2400600, 0], [472662, 40417, 2409600, 40111,
            2400600, 0]],
        "tier_bytes": [[0, 129, 128, 0, 0, 9240], [0, 129, 128, 0, 0, 261352],
            [0, 129, 128, 0, 0, 0], [0, 30, 64, 0, 0, 0]],
        "node_compute_ps": [[690112, 690112, 690112, 690112], [5908904,
            5256555, 3951857, 6343803], [907561, 907561, 907561, 1342461],
            [231633, 231633, 231633, 472662]],
        "node_staging_ps": [[0, 3700000, 0, 0], [27460000, 23591429, 27428572,
            27260001], [0, 0, 0, 0], [0, 0, 0, 0]],
    },
    ("cluster", "powerlaw-directed", 2, 3): {
        "levels_sha":
            "c96f172248b66d6adf3915a1d81b7b8a704f776569952e5633eee61cf5b8b201",
        "parents_sha":
            "d6fe3fb602cad35b7dd8b4ee9859cb62de0510aae489206667f6bb35dedabd4b",
        "times": {"time_ms": "0x1.f689cb2b9e24bp-6", "computation_ms":
            "0x1.819a8e250b162p-8", "intra_ms": "0x1.d11a28391df2ap-11",
            "inter_ms": "0x1.21286eb412c1ap-7", "io_ms":
            "0x1.ee0c3e0d121d7p-7"},
        "edges_checked": [139, 2422, 360, 26, 4, 3],
        "charged_payloads": [64, 65, 43, 43, 43, 64, 65, 43, 43, 43, 64, 65,
            43, 43, 43, 64, 65, 43, 43, 43, 64, 43],
        "bytes_read": 59936,
        "device_ps": [4314541, 4579149, 3203713, 4555570, 5666397, 3421162],
        "tier_ps": [[907561, 81222, 804400, 80167, 800400, 1722857], [2650738,
            81222, 804400, 80167, 800400, 13354286], [907561, 81222, 804400,
            80167, 800400, 0], [472662, 81222, 804400, 80167, 800400, 0],
            [472662, 81222, 804400, 80167, 800400, 0], [472662, 0, 0, 80167,
            800400, 0]],
        "tier_bytes": [[0, 129, 129, 0, 0, 3704], [0, 129, 129, 0, 0, 56232],
            [0, 129, 129, 0, 0, 0], [0, 129, 129, 0, 0, 0], [0, 64, 43, 0, 0,
            0], [0, 0, 0, 0, 0, 0]],
        "node_compute_ps": [[907561, 907561], [2215839, 2650738], [690112,
            907561], [472662, 472662], [472662, 472662], [472662, 472662]],
        "node_staging_ps": [[1722857, 0], [13128571, 13354286], [0, 0], [0, 0],
            [0, 0], [0, 0]],
    },
    ("grid", "rmat10", 2, 2): {
        "levels_sha":
            "ef11281584b3fd317d9a6f77597d2e54865c0647a661b041b19630b9696e4d3a",
        "parents_sha":
            "df9acaf5c76d60eee4b1c2a199ef29dff4329939fcd05258efd21328b4d50328",
        "times": {"time_ms": "0x1.4bf21be6bb607p-7", "computation_ms":
            "0x1.305554bd93ec2p-7", "communication_ms":
            "0x1.b9cc729277441p-11"},
        "edges_checked": [212, 7695, 179, 1],
        "charged_payloads": [64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64,
            64, 64],
        "device_ps": [8176688, 5108813, 8611587, 6002192],
        "tier_ps": [[1125011, 105333, 105333, 0, 0, 0], [6347382, 105333,
            105333, 0, 0, 0], [1342461, 105333, 105333, 0, 0, 0], [472662,
            105333, 105333, 0, 0, 0]],
        "tier_bytes": [[0, 128, 128, 0, 0, 0], [0, 128, 128, 0, 0, 0], [0, 128,
            128, 0, 0, 0], [0, 64, 64, 0, 0, 0]],
        "node_compute_ps": [[1125011, 1125011], [5912483, 6347382], [907561,
            1342461], [231633, 472662]],
        "node_staging_ps": [[0, 0], [0, 0], [0, 0], [0, 0]],
    },
    ("grid", "rmat10", 3, 2): {
        "levels_sha":
            "ef11281584b3fd317d9a6f77597d2e54865c0647a661b041b19630b9696e4d3a",
        "parents_sha":
            "df9acaf5c76d60eee4b1c2a199ef29dff4329939fcd05258efd21328b4d50328",
        "times": {"time_ms": "0x1.51f8a8145315ap-7", "computation_ms":
            "0x1.29353a6bd90e7p-7", "communication_ms":
            "0x1.461b6d43d0397p-10"},
        "edges_checked": [212, 7695, 179, 1],
        "charged_payloads": [43, 43, 43, 64, 64, 43, 43, 43, 64, 64, 43, 43,
            43, 64, 64, 43, 64],
        "device_ps": [7741789, 4891364, 7089440, 4673914, 8394137, 6002192],
        "tier_ps": [[907561, 103667, 207333, 0, 0, 0], [6347382, 103667,
            207333, 0, 0, 0], [1342461, 103667, 207333, 0, 0, 0], [472662,
            103667, 207333, 0, 0, 0]],
        "tier_bytes": [[0, 129, 128, 0, 0, 0], [0, 129, 128, 0, 0, 0], [0, 129,
            128, 0, 0, 0], [0, 43, 64, 0, 0, 0]],
        "node_compute_ps": [[690112, 907561, 907561], [5912483, 5260134,
            6347382], [907561, 907561, 1342461], [231633, 231633, 472662]],
        "node_staging_ps": [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
    },
    ("grid", "powerlaw-directed", 2, 2): {
        "levels_sha":
            "c96f172248b66d6adf3915a1d81b7b8a704f776569952e5633eee61cf5b8b201",
        "parents_sha":
            "ce7acd00f7705f3fe20a49c66bf74a5f4e254aaf6337c8137bb3e6835652df54",
        "times": {"time_ms": "0x1.c6a2845770b2dp-8", "computation_ms":
            "0x1.819a92708e103p-8", "communication_ms":
            "0x1.141fc79b8a8a9p-10"},
        "edges_checked": [139, 2107, 327, 26, 4, 3],
        "charged_payloads": [64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64,
            64, 64, 64, 64, 64, 64],
        "device_ps": [4990469, 4120670, 5883847, 3903221],
        "tier_ps": [[907561, 105333, 105333, 0, 0, 0], [2868188, 105333,
            105333, 0, 0, 0], [690112, 105333, 105333, 0, 0, 0], [472662,
            105333, 105333, 0, 0, 0], [472662, 105333, 105333, 0, 0, 0],
            [472662, 0, 0, 0, 0, 0]],
        "tier_bytes": [[0, 128, 128, 0, 0, 0], [0, 128, 128, 0, 0, 0], [0, 128,
            128, 0, 0, 0], [0, 128, 128, 0, 0, 0], [0, 64, 64, 0, 0, 0], [0, 0,
            0, 0, 0, 0]],
        "node_compute_ps": [[907561, 907561], [2215839, 2868188], [690112,
            690112], [472662, 472662], [472662, 472662], [472662, 472662]],
        "node_staging_ps": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
    },
    ("grid", "powerlaw-directed", 3, 2): {
        "levels_sha":
            "c96f172248b66d6adf3915a1d81b7b8a704f776569952e5633eee61cf5b8b201",
        "parents_sha":
            "ce7acd00f7705f3fe20a49c66bf74a5f4e254aaf6337c8137bb3e6835652df54",
        "times": {"time_ms": "0x1.d942f43dcc60cp-8", "computation_ms":
            "0x1.735a62189b4ecp-8", "communication_ms":
            "0x1.97a24894c447cp-10"},
        "edges_checked": [139, 2107, 327, 26, 4, 3],
        "charged_payloads": [43, 43, 43, 64, 64, 43, 43, 43, 64, 64, 43, 43,
            43, 64, 64, 43, 43, 43, 64, 64, 43, 64],
        "device_ps": [4773020, 3638612, 4796599, 3903221, 5184340, 3903221],
        "tier_ps": [[690112, 103667, 207333, 0, 0, 0], [2868188, 103667,
            207333, 0, 0, 0], [690112, 103667, 207333, 0, 0, 0], [472662,
            103667, 207333, 0, 0, 0], [472662, 103667, 207333, 0, 0, 0],
            [472662, 0, 0, 0, 0, 0]],
        "tier_bytes": [[0, 129, 128, 0, 0, 0], [0, 129, 128, 0, 0, 0], [0, 129,
            128, 0, 0, 0], [0, 129, 128, 0, 0, 0], [0, 43, 64, 0, 0, 0], [0, 0,
            0, 0, 0, 0]],
        "node_compute_ps": [[690112, 690112, 690112], [2215839, 1998389,
            2868188], [690112, 690112, 690112], [472662, 472662, 472662],
            [472662, 472662, 472662], [231633, 472662, 472662]],
        "node_staging_ps": [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0,
            0], [0, 0, 0]],
    },
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-"
                         f"{c[2]}x{c[3]}")
def test_golden_multi_gpu_run(case):
    got = _observe(*case)
    want = GOLDENS[case]
    assert got["switched"], f"{case}: no switch level; bottom-up not run"
    for key, value in want.items():
        assert got[key] == value, f"{case}: {key} changed"


def _regenerate() -> None:  # pragma: no cover - manual tool
    print("GOLDENS = {")
    for case in CASES:
        observed = _observe(*case)
        del observed["switched"]
        print(f"    {case!r}: {{".replace("'", '"'))
        for key, value in observed.items():
            print(textwrap.fill(f"{key!r}: {value!r},".replace("'", '"'),
                                79, initial_indent=" " * 8,
                                subsequent_indent=" " * 12,
                                break_long_words=False))
        print("    },")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
