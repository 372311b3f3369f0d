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
* the summed kernel time of every device, in row-major grid order.

Regenerating the literals is deliberately manual (run the module with
``python -m tests.test_golden_cluster``): a golden update must be a
reviewed decision, never a side effect.
"""

from __future__ import annotations

import hashlib
import math
import textwrap
from unittest import mock

import numpy as np
import pytest

from repro.bfs import partition2d
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


def _device_ms(devices) -> list[str]:
    # fsum: correctly rounded, so the literal does not depend on the
    # interpreter's float sum() order.
    return [math.fsum(k.time_ms for k in d.kernels()).hex() for d in devices]


def _observe(layout: str, graph_name: str, rows: int, cols: int) -> dict:
    graph = GRAPHS[graph_name]()
    source = int(np.argmax(graph.out_degrees))
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
    traces = run.result.traces
    return {
        "switched": any(t.direction == "switch" for t in traces),
        "levels_sha": _sha(run.result.levels),
        "parents_sha": _sha(run.result.parents),
        "times": {name: getattr(run, name).hex() for name in times},
        "edges_checked": [t.edges_checked for t in traces],
        "charged_payloads": list(run.charged_payloads),
        **extra,
        "device_ms": _device_ms(devices),
    }


#: Frozen 2026-10.  Every literal below is an *observed* value, not a
#: derived one.
GOLDENS = {
    ("cluster", "rmat10", 4, 2): {
        "levels_sha":
            "ef11281584b3fd317d9a6f77597d2e54865c0647a661b041b19630b9696e4d3a",
        "parents_sha":
            "df9acaf5c76d60eee4b1c2a199ef29dff4329939fcd05258efd21328b4d50328",
        "times": {"time_ms": "0x1.e803c824ea48dp-5", "computation_ms":
            "0x1.21f71c7908bd9p-7", "intra_ms": "0x1.51eec840a5caap-12",
            "inter_ms": "0x1.3b3dc3afed990p-6", "io_ms":
            "0x1.fe86833c6002cp-6"},
        "edges_checked": [212, 7695, 179, 1],
        "charged_payloads": [33, 32, 34, 30, 64, 64, 33, 32, 34, 30, 64, 64,
            33, 32, 34, 30, 64, 64, 30, 64],
        "bytes_read": 270592,
        "device_ms": ["0x1.fb21a020f0e58p-8", "0x1.40536dbbd7fa1p-8",
            "0x1.c220d356f4baap-8", "0x1.32133a8958ef5p-8",
            "0x1.6c9fa027fa7a2p-8", "0x1.4e93a0ee5704dp-8",
            "0x1.04b0e9a9b7f83p-7", "0x1.8920068cf88fap-8"],
    },
    ("cluster", "powerlaw-directed", 2, 3): {
        "levels_sha":
            "c96f172248b66d6adf3915a1d81b7b8a704f776569952e5633eee61cf5b8b201",
        "parents_sha":
            "d6fe3fb602cad35b7dd8b4ee9859cb62de0510aae489206667f6bb35dedabd4b",
        "times": {"time_ms": "0x1.f689cc1355302p-6", "computation_ms":
            "0x1.819a963251f49p-8", "intra_ms": "0x1.d11a09ae5e1d1p-11",
            "inter_ms": "0x1.21286eb412c1ap-7", "io_ms":
            "0x1.ee0c3dbe88c27p-7"},
        "edges_checked": [139, 2422, 360, 26, 4, 3],
        "charged_payloads": [64, 65, 43, 43, 43, 64, 65, 43, 43, 43, 64, 65,
            43, 43, 43, 64, 65, 43, 43, 43, 64, 43],
        "bytes_read": 59936,
        "device_ms": ["0x1.1ac1fe278de9cp-8", "0x1.2c19630357b43p-8",
            "0x1.a3eacaacdaa87p-9", "0x1.2a8dca2eb2545p-8",
            "0x1.735a62ffd2e9ep-8", "0x1.c06b3111d8bdfp-9"],
    },
    ("grid", "rmat10", 2, 2): {
        "levels_sha":
            "ef11281584b3fd317d9a6f77597d2e54865c0647a661b041b19630b9696e4d3a",
        "parents_sha":
            "df9acaf5c76d60eee4b1c2a199ef29dff4329939fcd05258efd21328b4d50328",
        "times": {"time_ms": "0x1.4bf2234cbec95p-7", "computation_ms":
            "0x1.30555669935d0p-7", "communication_ms":
            "0x1.b9ccce32b6c4ep-11"},
        "edges_checked": [212, 7695, 179, 1],
        "charged_payloads": [64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64,
            64, 64],
        "device_ms": ["0x1.0bef0a0103122p-7", "0x1.4ecfae6a6e2e1p-8",
            "0x1.1a2f3d33821cfp-7", "0x1.895c14090fb8ep-8"],
    },
    ("grid", "rmat10", 3, 2): {
        "levels_sha":
            "ef11281584b3fd317d9a6f77597d2e54865c0647a661b041b19630b9696e4d3a",
        "parents_sha":
            "df9acaf5c76d60eee4b1c2a199ef29dff4329939fcd05258efd21328b4d50328",
        "times": {"time_ms": "0x1.51f8aa78cddecp-7", "computation_ms":
            "0x1.29353cd053d7ap-7", "communication_ms":
            "0x1.461b6d43d0397p-10"},
        "edges_checked": [212, 7695, 179, 1],
        "charged_payloads": [43, 43, 43, 64, 64, 43, 43, 43, 64, 64, 43, 43,
            43, 64, 64, 43, 64],
        "device_ms": ["0x1.fb5dad9d080edp-8", "0x1.408f7b37ef235p-8",
            "0x1.d09d14058aeeap-8", "0x1.324f480570189p-8",
            "0x1.130f239a42979p-7", "0x1.895c14090fb8ep-8"],
    },
    ("grid", "powerlaw-directed", 2, 2): {
        "levels_sha":
            "c96f172248b66d6adf3915a1d81b7b8a704f776569952e5633eee61cf5b8b201",
        "parents_sha":
            "ce7acd00f7705f3fe20a49c66bf74a5f4e254aaf6337c8137bb3e6835652df54",
        "times": {"time_ms": "0x1.c6a2966a3e837p-8", "computation_ms":
            "0x1.819a963251f49p-8", "communication_ms":
            "0x1.142000dfb23b1p-10"},
        "edges_checked": [139, 2107, 327, 26, 4, 3],
        "charged_payloads": [64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64,
            64, 64, 64, 64, 64, 64],
        "device_ms": ["0x1.470e3093b069dp-8", "0x1.0e0d63c9b43eep-8",
            "0x1.819a963251f4ap-8", "0x1.ff9a612e6a683p-9"],
    },
    ("grid", "powerlaw-directed", 3, 2): {
        "levels_sha":
            "c96f172248b66d6adf3915a1d81b7b8a704f776569952e5633eee61cf5b8b201",
        "parents_sha":
            "ce7acd00f7705f3fe20a49c66bf74a5f4e254aaf6337c8137bb3e6835652df54",
        "times": {"time_ms": "0x1.d942f52503fbbp-8", "computation_ms":
            "0x1.735a62ffd2e9dp-8", "communication_ms":
            "0x1.97a24894c447dp-10"},
        "edges_checked": [139, 2107, 327, 26, 4, 3],
        "charged_payloads": [43, 43, 43, 64, 64, 43, 43, 43, 64, 64, 43, 43,
            43, 64, 64, 43, 43, 43, 64, 64, 43, 64],
        "device_ms": ["0x1.38cdfd61315f1p-8", "0x1.dceb9776d6d37p-9",
            "0x1.3a599635d6befp-8", "0x1.ff9a612e6a683p-9",
            "0x1.53c2caf18a14cp-8", "0x1.ff9a612e6a683p-9"],
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
