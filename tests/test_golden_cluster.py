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
* the summed kernel ticks of every device, in row-major grid order.

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


def _device_ps(devices) -> list[int]:
    return [sum(k.time_ps for k in d.kernels()) for d in devices]


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
        "device_ps": _device_ps(devices),
    }


#: Frozen 2026-10 and re-recorded when simulated charges became whole
#: picosecond ticks.  Every literal below is an *observed* value, not a
#: derived one.
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
