"""Golden-record regression tests: frozen, byte-identical run snapshots.

Two kinds of record pin the simulator to history:

* ``GOLDENS`` freezes three Enterprise runs field by field: SHA-256 of
  the level and parent byte arrays, the simulated wall time down to the
  last float bit (``float.hex`` literals), traversed-edge counts and the
  per-run global-load-transaction total.
* ``DIGESTS`` holds one SHA-256 per case of
  :mod:`tests.test_vectorized_differential` (every BFS variant over the
  pathological corpus, the BL/TS/WB/HC matrix, the switch
  configurations, MS-BFS waves, counters and TEPS, the chaos fault
  matrix, cluster runs and serve answers) and per run of the four
  Fig. 14 comparison systems, the 1-D multi-GPU traversal and the
  out-of-core traversals below.  A digest covers the :func:`canonical`
  encoding of everything its case observes.

If any future change shifts a single byte of any of these, the diff
shows up here by name rather than as a silent drift in a figure.

Regenerating the literals is deliberately manual (run the module with
``python -m tests.test_golden_runs`` from the repository root): a golden
update must be a reviewed decision, never a side effect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.baselines import COMPARISON_SYSTEMS
from repro.bfs import ABLATION_CONFIGS, enterprise_bfs, multigpu_enterprise_bfs
from repro.gpu import GPUDevice
from repro.graph import powerlaw_graph, rmat_graph
from repro.storage import ooc_enterprise_bfs

from .test_differential import chain, disconnected, star


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


class Golden:
    """One frozen run: graph builder, source, and expected observables."""

    def __init__(self, name, build, source, levels_sha, parents_sha,
                 time_ms_hex, edges, visited, depth, gld_total, traces):
        self.name = name
        self.build = build
        self.source = source
        self.levels_sha = levels_sha
        self.parents_sha = parents_sha
        self.time_ms_hex = time_ms_hex
        self.edges = edges
        self.visited = visited
        self.depth = depth
        self.gld_total = gld_total
        self.traces = traces


#: Frozen 2026-08: star = one explosion level, chain = maximum depth with
#: width-1 frontiers, islands = disconnected directed cliques (partial
#: reachability).  Every literal below is an *observed* value, not a
#: derived one.
GOLDENS = [
    Golden(
        name="star", build=lambda: star(64), source=0,
        levels_sha="9ca2b8eeef03882aecfa06b484322a2c90015bda832922f3b3"
                   "4089c816e89987",
        parents_sha="ee9c9b6861ea75efcae93304b084a5fbaa5615dfc262b7ad5f"
                    "49e35e82ba4c78",
        time_ms_hex="0x1.f333242ae8c81p-10",
        edges=126, visited=64, depth=1, gld_total=84, traces=2,
    ),
    Golden(
        name="chain", build=lambda: chain(40), source=0,
        levels_sha="11c971161d650650a9fb22fe9d403b1547a67855e266a350a5"
                   "5451378323a672",
        parents_sha="246a12e7930781d1db01caa3160de6b7a30a382cbbb016efa3"
                    "272dfc49eb08b5",
        time_ms_hex="0x1.e165669d541f8p-5",
        edges=78, visited=40, depth=39, gld_total=158, traces=40,
    ),
    Golden(
        name="islands", build=lambda: disconnected(45), source=1,
        levels_sha="2b509ccb965deeaf41b0644c175c05ad5e292d47701f71a590"
                   "962a4254db6ca5",
        parents_sha="0e312394db81918296ba543b047c9debaafb2088fdc3caef3c"
                    "b7fe0e9f7b945e",
        time_ms_hex="0x1.ccefc3830843dp-8",
        edges=210, visited=15, depth=1, gld_total=50, traces=2,
    ),
]


def _check(golden: Golden) -> None:
    result = enterprise_bfs(golden.build(), golden.source)
    assert _sha(result.levels) == golden.levels_sha, (
        f"{golden.name}: distance array changed byte-for-byte")
    assert _sha(result.parents) == golden.parents_sha, (
        f"{golden.name}: parent tree changed byte-for-byte")
    assert result.time_ms == float.fromhex(golden.time_ms_hex), (
        f"{golden.name}: simulated time drifted "
        f"({result.time_ms.hex()} != {golden.time_ms_hex})")
    assert result.edges_traversed == golden.edges
    assert result.visited == golden.visited
    assert result.depth == golden.depth
    assert sum(t.gld_transactions for t in result.traces) == \
        golden.gld_total
    assert len(result.traces) == golden.traces


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: g.name)
def test_golden_run_vectorized(golden):
    _check(golden)


def test_levels_dtype_and_layout_frozen():
    """The byte identity above is only meaningful if the array layout is
    pinned too: int32 little-endian levels, int64 parents, C-contiguous."""
    result = enterprise_bfs(star(64), 0)
    assert result.levels.dtype == np.dtype("<i4")
    assert result.parents.dtype == np.dtype("<i8")
    assert result.levels.flags.c_contiguous
    assert result.parents.flags.c_contiguous


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def canonical(value):
    """``value`` as plain JSON data that reads the same on every
    supported Python and NumPy: arrays as dtype, shape and the SHA-256 of
    their bytes, integers through ``int()``, floats through ``float.hex``
    (never the ``repr`` of a NumPy scalar, whose text changed in NumPy
    2), mappings as item lists and dataclasses field by field."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return ["float", float(value).hex()]
    if isinstance(value, np.ndarray):
        return ["array", value.dtype.str, list(value.shape), _sha(value)]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [f.name, canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)]
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of the canonical encoding of ``value``."""
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(result) -> dict:
    """Everything observable about a BFS result."""
    return {
        "levels": result.levels,
        "parents": result.parents,
        "time_ms": result.time_ms,
        "edges_traversed": result.edges_traversed,
        "teps": result.teps,
        "traces": [
            (t.level, t.direction, t.frontier_count, t.newly_visited,
             t.edges_checked, t.queue_gen_ms, t.expand_ms,
             t.gld_transactions, t.hub_cache_hits, t.hub_cache_lookups,
             t.kernel_names, t.alpha, t.gamma)
            for t in result.traces],
        "gamma_history": result.gamma_history,
        "alpha_history": result.alpha_history,
    }


def _as_ms(name: str) -> str:
    """A tick field's ``*_ms`` property: the digests encode the ms
    value, as they did when the records stored ms."""
    return name[:-3] + "_ms" if name.endswith("_ps") else name


def run_snapshot(run) -> dict:
    """A multi-device run: its BFS result as in :func:`snapshot`, then
    every other field in declaration order, a tick field as its ms."""
    return {_as_ms(f.name): (snapshot(run.result) if f.name == "result"
                             else getattr(run, _as_ms(f.name)))
            for f in dataclasses.fields(run)}


#: Filled instead of checked while ``_regenerate`` re-records.
_recorded: dict[str, str] | None = None


def check_digest(request, value, part: str = "") -> None:
    """Assert ``value`` matches the digest recorded for this test case
    (``request.node.name``, e.g. ``test_golden_multigpu_run``, plus
    ``part`` when a case pins more than one value)."""
    name = request.node.name + part
    got = digest(value)
    if _recorded is not None:
        _recorded[name] = got
        return
    assert got == DIGESTS[name], f"{name}: observed run changed"


def _comparison_graph():
    return rmat_graph(9, edge_factor=8, seed=5)


@pytest.mark.parametrize("system", sorted(COMPARISON_SYSTEMS))
def test_golden_comparison_system(system, request):
    """Each Fig. 14 comparison system, one run on R-MAT-9."""
    check_digest(request, snapshot(
        COMPARISON_SYSTEMS[system](_comparison_graph(), 0)))


def test_golden_multigpu_run(request):
    """1-D multi-GPU Enterprise on two devices."""
    check_digest(request, run_snapshot(
        multigpu_enterprise_bfs(_comparison_graph(), 0, 2)))


OOC_GRAPHS = {
    "powerlaw": lambda: powerlaw_graph(2048, 8.0, 2.1, 200, seed=8,
                                       name="ooc"),
    "powerlaw-directed": lambda: powerlaw_graph(
        1024, 5.0, 2.2, 100, directed=True, seed=3, name="ooc-dir"),
    "rmat10": lambda: rmat_graph(10, 16, seed=3),
}

#: (graph, config, compression, prefetch): WB and HC, raw and varint
#: partitions, serial and overlapped staging.
OOC_CASES = [
    pytest.param(graph, config, compression, prefetch,
                 id=(f"{graph}-{config}-{compression or 'raw'}-"
                     f"{'prefetch' if prefetch else 'serial'}"))
    for graph in OOC_GRAPHS for config in ("WB", "HC")
    for compression in (None, "varint") for prefetch in (False, True)
]


def ooc_snapshot(run, device: GPUDevice) -> dict:
    """An out-of-core run: the result, the I/O ledger, the device
    timeline and, per level, the counts, both time columns, the hub
    cache hits and γ on top-down levels (γ after the switch, the
    indicator series, transactions, kernel names and α are left out)."""
    result = run.result
    return {
        "levels": result.levels,
        "parents": result.parents,
        "time_ms": result.time_ms,
        "edges_traversed": result.edges_traversed,
        "ledger": [getattr(run, _as_ms(f.name))
                   for f in dataclasses.fields(run) if f.name != "result"],
        "timeline": [ms for _, ms in device.timeline()],
        "traces": [
            (t.level, t.direction, t.frontier_count, t.newly_visited,
             t.edges_checked, t.queue_gen_ms, t.expand_ms,
             t.hub_cache_hits,
             t.gamma if t.direction == "top-down" else None)
            for t in result.traces],
    }


@pytest.mark.parametrize("graph_name,config,compression,prefetch",
                         OOC_CASES)
def test_golden_ooc_run(graph_name, config, compression, prefetch,
                        request):
    """Out-of-core Enterprise over 8 partitions from the highest-degree
    source."""
    graph = OOC_GRAPHS[graph_name]()
    device = GPUDevice()
    run = ooc_enterprise_bfs(
        graph, int(np.argmax(graph.out_degrees)), num_partitions=8,
        device=device, config=ABLATION_CONFIGS[config],
        compression=compression, prefetch=prefetch)
    check_digest(request, ooc_snapshot(run, device))


#: Recorded 2026-10, when the seed's scalar implementations still ran
#: beside the vectorized hot paths and gave the same digest on every
#: case; re-recorded when every simulated charge became a whole
#: picosecond tick (each float moved by under 1e-4 relative, every
#: non-float observable unchanged); the four ``rmat10-*-prefetch``
#: out-of-core cases re-recorded when prefetched runs began charging
#: the queue generated after the last level (896,242 ticks each); the
#: four Fig. 14 systems' corpus cases recorded from their hand-written
#: level loops, before those became recipes over ``topdown_traversal``;
#: the six ``test_cluster_profile_bit_identical`` run digests and
#: ``test_weak_scaling_rows_bit_identical`` re-recorded when
#: ``ClusterBFSResult`` began storing its levels as tick records and
#: deriving its totals (the six ``:document`` digests did not move).
#: Every literal below is an *observed* value.
DIGESTS: dict[str, str] = {
    "test_ablation_matrix_bit_identical[BL]":
        "b504c409a8263cd88820391f39ac9c9e71fbb50689feaa36a014bfd989870dd4",
    "test_ablation_matrix_bit_identical[HC]":
        "c95c688bb8e70779a40fb949835c6b816c3c59d2bbac56838135c5382c759edf",
    "test_ablation_matrix_bit_identical[TS]":
        "ee90d7476c7880c5a919a162325946ff75e4f1630dac73758472995b0adfa8b3",
    "test_ablation_matrix_bit_identical[WB]":
        "c75d737fc1f9dfb887dac96447309b1c374a775dc7fe480b8a023bef923ffa19",
    "test_chaos_matrix_bit_identical":
        "e205598232c62205a94cbd09d8ca1559f423087f43dc1efee039eff0f3da1fbc",
    "test_cluster_profile_bit_identical[chain]":
        "fff1d38306b87091649b78625025aa28e978e83890ed8ec7e6a98e360bcbf30f",
    "test_cluster_profile_bit_identical[chain]:document":
        "a6c729d3b402e9de69ed706cab143b05428ddb93f92c2b88aaaf4795236baf8d",
    "test_cluster_profile_bit_identical[fuzz-31]":
        "bfd6b7c16d120093d5fab85773fc314e6a03e15514b75122a620de98b49efcca",
    "test_cluster_profile_bit_identical[fuzz-31]:document":
        "345c33516313c567061c2951715bb5fd0a88de3f3d187bc88bce04663d8efb93",
    "test_cluster_profile_bit_identical[fuzz-32]":
        "093ce23aec9c74fdf6ffb9865985692c94ed357341fae9c40ff4cc169ffc8a15",
    "test_cluster_profile_bit_identical[fuzz-32]:document":
        "86c57b11437f8be628dd295e5e5b0ea261776920f0551ac7924a6cc62200e5a5",
    "test_cluster_profile_bit_identical[islands]":
        "b7aacfec26123561a1cbb54664cd8facd1ad753dff67308eaf9cb4fcbe2a4dae",
    "test_cluster_profile_bit_identical[islands]:document":
        "db4355321fb7fba3c82a79bd0d92c2d960cddc2fa25b82dff4be0c9bd0158fa7",
    "test_cluster_profile_bit_identical[sink-hub]":
        "e5279a940ccc05d6276553c1074a25895519d6b84477bbefdab29a789fb53871",
    "test_cluster_profile_bit_identical[sink-hub]:document":
        "d860c584123026df0e3c4bddf59d32df11f9755f2ec0371d11fd18b75e6c3f9a",
    "test_cluster_profile_bit_identical[star]":
        "8e7d841bb855fd5890a5601d4c31194a86b7a03c0716b3f4ef563d3d891d45ec",
    "test_cluster_profile_bit_identical[star]:document":
        "453fccab68b5b964de7c4b04ca09aba4722ab43425ca1a4ce1f9b750df38cd56",
    "test_counters_and_teps_bit_identical":
        "e3ddf416c554fc7214162096ceade7d766b09912ea388b486037b22677ce0ce4",
    "test_golden_comparison_system[B40C]":
        "6eb45e8119033f338d3da246db9dc9716d2ab73b1c383e29f36a0b0d99a01eaf",
    "test_golden_comparison_system[GraphBIG]":
        "6b12b40bc13d4397b1ca6fac3bdcf255771c8d39768b69bafad2f7ef3598a600",
    "test_golden_comparison_system[Gunrock]":
        "1aa42d21347c393817e06cd62d9d237ba1b520189f663ef906f826803fc693a1",
    "test_golden_comparison_system[MapGraph]":
        "cb6214837828600a25ae5c79a50f7140bfe7ac5633a5eedac5a0420abf97836f",
    "test_golden_multigpu_run":
        "7970b924eb27d859d3417ac6573eb378254fbca0efa1280a5e67ecc56cccd0a4",
    "test_golden_ooc_run[powerlaw-HC-raw-prefetch]":
        "8a0d4f24b4cbfd811004b29db1fe6ebaf5801d341a2ba225866a147ba6dcb0ae",
    "test_golden_ooc_run[powerlaw-HC-raw-serial]":
        "ecf7b3117522b2c1ecd224b676e815e9bdac97a84b9061b538a2002dfcb48f2e",
    "test_golden_ooc_run[powerlaw-HC-varint-prefetch]":
        "e267adca741afbb6dacbb644ecc2edb56e282c6b1171e5479490361d21026211",
    "test_golden_ooc_run[powerlaw-HC-varint-serial]":
        "2fa5b44e9733f92e9c11bb0776864527d1e7a401f6e456a5d0c3489f319eae22",
    "test_golden_ooc_run[powerlaw-WB-raw-prefetch]":
        "bdb1ec1911a44fb94c270de2caea05ff759abda8152881e5775d29e5a33cf740",
    "test_golden_ooc_run[powerlaw-WB-raw-serial]":
        "8eae6ecb4da2a11f43e0af2b88c80920ae25988b1f2edc31776116b36c455f88",
    "test_golden_ooc_run[powerlaw-WB-varint-prefetch]":
        "ca015603d5a7cf999c166a465522f8bbb32f05648e6a281aac7c5157d5481553",
    "test_golden_ooc_run[powerlaw-WB-varint-serial]":
        "1b1ac2be05c3f555c7d0af2bf14628137eb34386221afb4758dbe0c2c20ab20c",
    "test_golden_ooc_run[powerlaw-directed-HC-raw-prefetch]":
        "a69b0ac54dcf3409f1491a4c17d840ff7175a779a076c06e1a41228231fdcb83",
    "test_golden_ooc_run[powerlaw-directed-HC-raw-serial]":
        "d7906a3d3d3d74dbde0043f433d8da75d7c932f0a2c8d1458994586d8f982b37",
    "test_golden_ooc_run[powerlaw-directed-HC-varint-prefetch]":
        "d78b72f672fb042fc2895166aa844b2842b0f5a3e96996a86d3418f66cff48bf",
    "test_golden_ooc_run[powerlaw-directed-HC-varint-serial]":
        "8dcff83325db44353f5a56960417820be6b8004db43842487a9e79c4d8987858",
    "test_golden_ooc_run[powerlaw-directed-WB-raw-prefetch]":
        "45e9508c53d8457003d887e58d16f449537b78efb12e8bae66e4f80400100c1e",
    "test_golden_ooc_run[powerlaw-directed-WB-raw-serial]":
        "fa4de7070c66065412d72dcd268ebe9f49009d5c9012e3fe12b33ff776babd1a",
    "test_golden_ooc_run[powerlaw-directed-WB-varint-prefetch]":
        "e79ff11a8d4d9bb97a66b05c1356c5d0f2410aeea71b8ecadd7eca60b861d1de",
    "test_golden_ooc_run[powerlaw-directed-WB-varint-serial]":
        "28dca59b10119b0d31e5b30cf23ff5879aa86dbfe55c0fe084aad94eb4410776",
    "test_golden_ooc_run[rmat10-HC-raw-prefetch]":
        "3fc2102fb8a75911e625589101e049cd3eb1983c5d10ce071fd62a158f04b77a",
    "test_golden_ooc_run[rmat10-HC-raw-serial]":
        "6bb56743b7a1f6faeab78af659d8336c0f29019ea1817d5b9be7c938085bc4bc",
    "test_golden_ooc_run[rmat10-HC-varint-prefetch]":
        "9cd2dc573425dd0607f252053d21de43fda560121ecc9bdf6440ff163b942283",
    "test_golden_ooc_run[rmat10-HC-varint-serial]":
        "7e781886e0bd9815959b066798f27a6f94ddf4856eb62ec4288a5613073c3e93",
    "test_golden_ooc_run[rmat10-WB-raw-prefetch]":
        "99fa6dffe6f9ac6cad6c1cac1642ffe8e942048684f809a780ca2371243fc9c1",
    "test_golden_ooc_run[rmat10-WB-raw-serial]":
        "cd42c062043f362c90c9b4ee95bea133363b37076a35e0469c001b8c7da617df",
    "test_golden_ooc_run[rmat10-WB-varint-prefetch]":
        "6ab128bf7204cb62f995b71fe9d36925a9f192bab98c427ee8db5698a0dfd315",
    "test_golden_ooc_run[rmat10-WB-varint-serial]":
        "38fdb74c49e3e8accbf758c3a9e3198c6f5bc9e1cade627df3a8ad58a58a1e09",
    "test_msbfs_waves_bit_identical[chain]":
        "b7b899520fa3ff6617d9acff9c18f7beabad918c5222eb82cfffdfd5a850e537",
    "test_msbfs_waves_bit_identical[fuzz-31]":
        "8cfa9bb95109cd130378fb5917dc146ac421555eebaae1f1e63c4052e13f1adb",
    "test_msbfs_waves_bit_identical[fuzz-32]":
        "1ed184e8f37064ea9d8b302c30cee9a37784f3b678688f9587b8fb6d8a3d21f9",
    "test_msbfs_waves_bit_identical[islands]":
        "a50e1c1159ef7c1431e7ffe6b760e2d5446cbc8b6dd259450f46164de98d653a",
    "test_msbfs_waves_bit_identical[sink-hub]":
        "32dd709df20db6bb255ae06e9a8a8e4bd9807c8379e41ecc373869a98a6dc59c",
    "test_msbfs_waves_bit_identical[star]":
        "fe8a13bf0fc1f115fe605b0dbe94df2669eaaa122ae2cc96386fed30dddd4008",
    "test_serve_stack_bit_identical[fuzz-55]":
        "27a3cf1ea2b9847a9537cbb1a7bad1c90079413a186ee58a737ff9896b355d68",
    "test_serve_stack_bit_identical[islands]":
        "026f9e5c82a6c65c896ed298e362022975ec79f4a04743bd571c23bc2c4949bf",
    "test_serve_stack_bit_identical[star]":
        "0207fc794fb004dbe01fd60dc1ca92df1c99a0f174e0abba832555ee8e55f103",
    "test_switch_configs_bit_identical[switch_policy=alpha,switch_scan=interleaved]":
        "dcc09ad5ebb958bcf9c6bd941ed690fa02f25e18474a4ae8891b60ec32669f1e",
    "test_switch_configs_bit_identical[switch_policy=alpha]":
        "11d021b1050ae5eef8d453dbcf07d8328bbcc5c140b12bbd56697384351fc98e",
    "test_switch_configs_bit_identical[switch_scan=interleaved]":
        "bdb4e542b2d6b815da70b71131cfca1cbf74b6a49dbb84cf5ea6eebec8415511",
    "test_variant_bit_identical_on_corpus[b40c-chain]":
        "ead92a012b96df29da19ee975d49cab4a6671e3ae53e8d433c5e4086d170f837",
    "test_variant_bit_identical_on_corpus[b40c-dup-chain]":
        "dbd953ebccee38257b73cc37765b0087b4b1d4c557b23173fc8af202ff3565b9",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-0]":
        "d3a6fb1c69be8342c1925f666ab898802a7aff2b916bf76386fb9382d20e2da3",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-10]":
        "77a1dbc99b5859fc305682e94f771cd1fd81d4bb93c05634a7458dfb0c09900f",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-11]":
        "8edfc944c745c2d830275dd399ef1a955c4a757f2ce4269276b6366f8832d134",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-1]":
        "2432fef4137aac15d0be1753df505fba3979728cda5416afc4c469bf4c25376d",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-2]":
        "4f04e8067cae1687c9d341856c1ddbc35759dc76cf89b77f8de0ee9657771516",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-3]":
        "9e8533d05039b070f57bab70dd077b2e926869e36e982d91c032a9c0a5af16f4",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-4]":
        "16e5c5ed4008a45f95d9d1164dbad4f9c73b653b1e902687e280340d7577f61b",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-5]":
        "018996693dec1dade629e3431d6f7d87321b64ea4527a249557f98eca9ce75b2",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-6]":
        "278949145aa1b9be65dcf2ac2f8e45dcc347512c10bfeb36586f5aa0b7396d08",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-7]":
        "5fc838d88d3dbb78cc210caa6459dcbffdf7659e7e6a827ee3c6892fad0c3284",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-8]":
        "d3a977f1450845f60b3b590fc1c3763fb882170fc78652352a38d9d9c6a15c81",
    "test_variant_bit_identical_on_corpus[b40c-fuzz-9]":
        "c7bc85a2789cf2f727b85860546684c7b477f0c0ff84e472a9611649cc18c2c0",
    "test_variant_bit_identical_on_corpus[b40c-islands]":
        "17b19aeb6c89a13fe821058203f7886a65810cf6b437c584ae0c029951c17ce2",
    "test_variant_bit_identical_on_corpus[b40c-loops]":
        "ab0f13bea8eebbc7ad122661638646d2c799d6e8498c65787fbb3bc3057c9850",
    "test_variant_bit_identical_on_corpus[b40c-sink-hub]":
        "1d460ca07409e4eafa8c59e9ed502c4f631a42fe749d1139dfaacf1047f4a2cd",
    "test_variant_bit_identical_on_corpus[b40c-star]":
        "f91051380a1be97ebdeab9485597e8f6776b87f71acb7ecddd3d741c8980853d",
    "test_variant_bit_identical_on_corpus[bottomup-chain]":
        "cd1e6b36d4815f8871b844bba052cbe476ea455c7d67a4670e4b59639dcf05bd",
    "test_variant_bit_identical_on_corpus[bottomup-dup-chain]":
        "e6920c27c225cb235268a61399f6e9c6bed93a8629b763ebff95b901d17e08b4",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-0]":
        "d31f7e8b58ac28a4a832bb941a61b0356a1566771acf968982e33fc4c4a99662",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-10]":
        "415b601522665bab8d9d672bab78e81077844447487f841dc3e86d3898fd6082",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-11]":
        "8b8210cd5a200eeddb93244fdb48a84cdafa51cea34c7b3bdcaee5b5d5f198ec",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-1]":
        "8042782e913671be6a1771a07b5c75a47dece843419e0ee2ff24f521a8c3f487",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-2]":
        "c7addbaf639e53bba1a8cdebd9c70d3f055701b73571b92fffd70a46281a0144",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-3]":
        "1a3e8d3d131ceeda7d80a7eba14466db2649796c415629dbd596f332587e978b",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-4]":
        "3a2e6635415a7058d183fc214a4b67f15b1c2bcd2a7053fb6892ecec83aba5ff",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-5]":
        "08ee8e4c455dbae0fa87cefff039d75d75c432b6040dae1995ffe2597441b731",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-6]":
        "698c9c5034815ca5e23eaa8b295c60af491d9be8f3a5939c7f89f1b5b026f2f7",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-7]":
        "1fba900f21fb5183a096d9808b4b6effcf38e1c42d9fcf2f705f6ee612be4435",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-8]":
        "b6c59fab087a3d7ea5e2b19106f0e29fe105d8ada97afeb2f2030d2be15edd40",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-9]":
        "e661e24b434438784db0a155827efc915506a7fd97c40301c3414fcb456b3a4d",
    "test_variant_bit_identical_on_corpus[bottomup-islands]":
        "b204f161f8b6a34fefda83a967c504b54154fd4a81bd846f45cb34fd09f7ea1a",
    "test_variant_bit_identical_on_corpus[bottomup-loops]":
        "2d14097b859c85f98d99228f31a98e5246ed6ff2af38a3057b44951c237d2c5e",
    "test_variant_bit_identical_on_corpus[bottomup-sink-hub]":
        "0eba975e9b5040bf339b821a0b37fb96e17f91a775bb742f608f313a684c74b5",
    "test_variant_bit_identical_on_corpus[bottomup-star]":
        "fe01563409ccce5cb6f880d02f8e84180371694b354f02f80833c09ccb07b4b0",
    "test_variant_bit_identical_on_corpus[enterprise-chain]":
        "bb7847b707b26bc2d6ecef424251c34788d3ff5affc98d492234b39062567ba8",
    "test_variant_bit_identical_on_corpus[enterprise-dup-chain]":
        "ebeb5fe1728f2122d703dc90f2429add85e1730611b3348781f78517c16f4caf",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-0]":
        "e506a8f20d3b617873b9241371f2c778f3f9a463371d42a2f633673d31409d10",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-10]":
        "de0390095b5cce1b8f2fcf63c970ca992ad36a24af36aedeb67dfbd72e8106d7",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-11]":
        "42338bc9d8be6a24fc470065770277969ad50390fdcc167c9131a0dcb30e7e82",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-1]":
        "09865220f6df722cd46ae24623afc4d2188e9193cb38b6b039fd330d6209d6f0",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-2]":
        "ceef46967ea8f6cbc9d4d5ac1c9fbaafd01e742de91fd57a2fca92da54b958de",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-3]":
        "93fdc8e35d5cfa9b5ba3d60a07745bfeae991b61463f7e22d3e61dc70a117cb1",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-4]":
        "b9e12dd8f482a9320be50e8ad1d57a42394219583869bf14e7a6c3389ed2df54",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-5]":
        "8bb2433e3cc5eb1fbeabb74dc16dc2efc47cddf8107941431ed3379cca40386f",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-6]":
        "54fc1c50a8d12bc3a181e03bfa6d3a1b53c2d1a7123971809791dac6dae8a116",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-7]":
        "2735da87174885b3ef674c5cb5e53e4ed2005f940ebe5a932ad5f18e139f03ed",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-8]":
        "8cf024df35e08bfa9511d80185e6c62b6b721801061294640415924a83c239d4",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-9]":
        "0d31027f3bd76016c972863fb513df1081dae61a15e71450877e1f08f5394199",
    "test_variant_bit_identical_on_corpus[enterprise-islands]":
        "cd1cc55c00708c0e7a687c8a08157f5efb4b62bba0dac78768d4ad4230ba7554",
    "test_variant_bit_identical_on_corpus[enterprise-loops]":
        "76b96f19a8c412ff06d7dc51841539967cd9b4b9cfc2210cadc75302526e07a7",
    "test_variant_bit_identical_on_corpus[enterprise-sink-hub]":
        "c46437272fdc812eb2c125dba93f6090593ace614ec689b772bf2801b49610d6",
    "test_variant_bit_identical_on_corpus[enterprise-star]":
        "5b742625a893d5c12f186d366de5e88e04a82b687bc4ad81aa27de921d7b79fc",
    "test_variant_bit_identical_on_corpus[graphbig-chain]":
        "1005e19433819b2ee440c5f3b1a3c09f47ee28f74824c47b96909e30da313341",
    "test_variant_bit_identical_on_corpus[graphbig-dup-chain]":
        "8659dd64cdc7c8834b8770f63374b3077e59c545f3a3159bac3d5dacbb7698cc",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-0]":
        "d6fc2b842a24de02f1be427c7e6c2082dd6ae45dd06ea2814a43b201f5db8d6d",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-10]":
        "5ec98bff212c48fb00b2127b2a35411f03bfe5ab3ed2d3bf3cc9399d0993d62c",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-11]":
        "6cdb226ef6162dee986ae462eeba748048b7bb8512a9f721b4efd1ff9d06ac87",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-1]":
        "b202e114be4d1456fd3714a4fbf21b4a5a66c0cf80ed0f5e3860d50c59d4ae89",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-2]":
        "a9a0556cfb953a93ecb27d957907d9c9318501c4bcdaa468dd25d5fe5a552ee4",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-3]":
        "36e148e0238b94f24e29967618aabcc5ab1443fceb4b468a15b3fc842fd9dd58",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-4]":
        "764d1cdad0f2a26129a354d49c694d962ad6849c333b321bb9d228a9224fe8c9",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-5]":
        "2fa41fc6fac504fc3d852fd13c7159d05a62ce35336db546a28199ec9cce7fda",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-6]":
        "cd98b378616604b524febf0afb31cebaf56b2941755a4a345320a1d36a4df464",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-7]":
        "bec9438eba9418b6df341d95d4b54c991f430359ff52a7a31f2b41c6c96ecf0d",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-8]":
        "0578fb4ca3593a1f86b0b4e31c08a7e0488ba86642d624e1ee6bf2889afdfb9d",
    "test_variant_bit_identical_on_corpus[graphbig-fuzz-9]":
        "185f36c15b9d72ab54420bbc9346be23f268ef553d5726569d6167615e384987",
    "test_variant_bit_identical_on_corpus[graphbig-islands]":
        "318e3620e7f5676acdcc2da2144cbda8e2dca21b342efdaba2e93c2756b0e3e6",
    "test_variant_bit_identical_on_corpus[graphbig-loops]":
        "3dd99ff47a10e3a27717998f89535e3dcebbb374a805ea1e4ef3fcbf9a86fcd7",
    "test_variant_bit_identical_on_corpus[graphbig-sink-hub]":
        "193eb5ac803d6f317c5afb965c81afb1e36eddebce26a9567321e90725e1a15b",
    "test_variant_bit_identical_on_corpus[graphbig-star]":
        "5257739c5ff8e0ffcd9ba7f458db3e6cbd102c01dbdcea6a7a1536e5cfa1f1d4",
    "test_variant_bit_identical_on_corpus[gunrock-chain]":
        "1db88f9dbe27b4d14199fbb8153874cd324a22c9fea2fc94324e4d87fdd9a95c",
    "test_variant_bit_identical_on_corpus[gunrock-dup-chain]":
        "757c6df48848441f845a6729ce48217b96c7e317de8eb54fee2ea0a27994a8ad",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-0]":
        "00c02bc2cc963e050c4d969dd699355e074b2bfe2af022b8fe104214f5e0cede",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-10]":
        "53749961c09e6ea43094d820206e9cbd9c4275ebf2351ee7866c8086fb099a2f",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-11]":
        "c9ce877d07dcc539779ca82c6cafc0924e5131fe8be2da3b0d362f36fa978854",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-1]":
        "0b9e681b310bbac43da6213023b6fd34d33261f2ba7d3a954742d5863f2f1519",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-2]":
        "f00e80f4ce07d0bf10327119a62b351119902cbdb224ceb08219a461a91e080e",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-3]":
        "35dfa53bc28abc0584bb5811167dc56b4e206f0096c7c2e2adc73e0edcc62991",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-4]":
        "aa1368fc4b456736be27cb18fba30f61e43df19d13cf944899cafd87b31ece3c",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-5]":
        "051cf3ea4450b2ea20f0f8783bd9c2bbaa2cb80faf36594877dd22f14712c781",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-6]":
        "7f98c89185b4bc33735d5dd67b404433b1463535f5e6a0937a4d7b8c67c6778c",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-7]":
        "76f0a19d280d1a2285612f53bda17911fc3dc88cecac38cbae3a516448a828be",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-8]":
        "9679b28c0a4660798e1c1128c20774798c60242cb392c1ae9b08a1b216f2531a",
    "test_variant_bit_identical_on_corpus[gunrock-fuzz-9]":
        "9739a5bafc65c638e0aee990335b37e6f2bb9ade05551111ea1f6c55aa1479bd",
    "test_variant_bit_identical_on_corpus[gunrock-islands]":
        "ad73fc16bd48f0e8325e790ee67d4dadb6adbba0b7f0d2fe5518a200eca30456",
    "test_variant_bit_identical_on_corpus[gunrock-loops]":
        "06e44264ccc75335b90db1f7bf15e4439b63a30c5c27248e852e371f37ab9132",
    "test_variant_bit_identical_on_corpus[gunrock-sink-hub]":
        "74b77631f2f259a93ffe0b35f2c1b827618574a767920cfeae663c58660991aa",
    "test_variant_bit_identical_on_corpus[gunrock-star]":
        "60b6e4ffd90bbc51f36d18772e8b4a756d6b382764c9fbd80ba24b73f5d87ae8",
    "test_variant_bit_identical_on_corpus[hybrid-chain]":
        "909069f55e06f883878c868173bdbbaf642abe2b135334098f6cdaacd07a3788",
    "test_variant_bit_identical_on_corpus[hybrid-dup-chain]":
        "e6acf0f2025311026b3a5f3d40fd317223d7b4c32b79439775137e31975dfe88",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-0]":
        "d0cd94d08423466d144239a4a68ed065a30c33b5ec555b05e9f9e745f2239158",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-10]":
        "864d62ed4f9751f3040bd3bd0887d3c0863aca7fd6d799f19379121b8b1cbd33",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-11]":
        "37ec0223ea4903118d52783cf207adaac6f358d4e4e7b44e26c25808263ab16b",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-1]":
        "f0e25fabeb350efec3844138706c0f9d989a6bc220d35e9a9b1942238eff0a43",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-2]":
        "ad3ff3132d230e45249301bedb7cd515e510ca000f27dfe789a84d8004c939c4",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-3]":
        "c68f24ff90925ddbbba5c802a10129ce77624e7724260faa8cc49fa0f8a7d983",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-4]":
        "a736b6653b73e11b9cecd9e4b2b9a3a153d56dcf8b31531acfe1073008d9d4da",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-5]":
        "830ac88c15240b4a160899beb7277376c1a45ea641ccde8d0118327450d568aa",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-6]":
        "7d8370fdc614e5048a97f9274c49f1491fc54dcd2e71240e1f281a4bdd2f30b5",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-7]":
        "4b16d575a425a421e6923cc8558bfa473e91d59711d8b6226c6a49a46538596c",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-8]":
        "2dc34c68c806e534be095b4f6b03df78da0b871a275061d6b1028df9e1be4773",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-9]":
        "3cce4e82192a9f0412e3edfd14d013596e83c7c980ae8b17dbbd6a4bb3a177e3",
    "test_variant_bit_identical_on_corpus[hybrid-islands]":
        "a29ead687c51af374eb874f078e5b875895ebbab0b9ff20bc6f2859daeff871b",
    "test_variant_bit_identical_on_corpus[hybrid-loops]":
        "1031c9df0b6ad4f49b28cdcf2cce602a5db9227861f2a1326dc3890e9d7223c4",
    "test_variant_bit_identical_on_corpus[hybrid-sink-hub]":
        "0c97e03b3593740e6a6891b41ee205e09ab57bdb5a5278f73b2dc1b41d0016aa",
    "test_variant_bit_identical_on_corpus[hybrid-star]":
        "8909fc4c75a9214faee089642d14e12dcd4d5cc360365f32740980f38602be52",
    "test_variant_bit_identical_on_corpus[mapgraph-chain]":
        "08fd03b0c293955c2b5e0ceec6eae1512a31ac720622172857eeb109d70a56e7",
    "test_variant_bit_identical_on_corpus[mapgraph-dup-chain]":
        "5950b612cd962be92f23c55f97f7b61d204faf529697424fc578fb35145fc937",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-0]":
        "f736dd0716e4581194f034edaff84ef383c8e1a43b682f9a869b5d77da676e0a",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-10]":
        "49d6e690109b52c74ce6952a8285564ba94b33088bd3505b9f9d80b0bf4c0710",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-11]":
        "e6c5c5e8ef39a054b2140ce6cff456ec97cda3c33e1696f1fea743398143178d",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-1]":
        "09043c6a62e41070fe91d1282b4742aa52932407d10e66d1506c4cb832f1acf0",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-2]":
        "515e231e17efcc5244af747b4678b0e70594b4cba3a750d5d5b83b794ce73aa3",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-3]":
        "3b27118547a765615430d7b300e522192264e2905b773303be566bc8b7f970d8",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-4]":
        "6e17df865e9b0db20f25c916c4d7733588638d86e9103ebb3c9dfb0c7a6aba02",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-5]":
        "8d84a64a55bafd9eeaee9e9f89e99f2910d22a672f0d5dd598fb4b119124596a",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-6]":
        "fcab1e7932725058be985931f6c823b44715ba2327d6ed21a5acc36a4031136a",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-7]":
        "74c58a93d7d7e6d5633189c2f53e2954b7ccceecf183d3f340201808ebf05c97",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-8]":
        "f658737efce0a5def912a2ee4376b8ad46c8446055975115ecdead03f6710394",
    "test_variant_bit_identical_on_corpus[mapgraph-fuzz-9]":
        "17a54cf51dd71de24834d93d1a185992333bd922e4c5f936c6511ff3b24a7811",
    "test_variant_bit_identical_on_corpus[mapgraph-islands]":
        "29434c6636cf6b3ed8d45d3427500dd1e0158adfabddc9ca473a9c6537610968",
    "test_variant_bit_identical_on_corpus[mapgraph-loops]":
        "ed28d5718c8cf1212744b3f18a501faa12ca6733b3ed1a889e40417a6bde9fd9",
    "test_variant_bit_identical_on_corpus[mapgraph-sink-hub]":
        "178d5f6df47a8e1d91bbd6ab30bddbc5479eb3c5ef9d01475ee1a76bb78cd5b2",
    "test_variant_bit_identical_on_corpus[mapgraph-star]":
        "1ab2082316d728f75888b51996eb962c3cee94626e9a7c6d1399a5a608e9f358",
    "test_variant_bit_identical_on_corpus[statusarray-chain]":
        "4e941ef1a11666818d118d660c79d5bb723d04079a79f58c5432180c96b353e5",
    "test_variant_bit_identical_on_corpus[statusarray-dup-chain]":
        "08e3f673edf13cd0864f01189b8e34ea3621ae5be6b4ea987d466202d85d8f65",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-0]":
        "e6a148fc76e7ddd751832cc01a101b6192baaecd6f9497129054ed67c263ae6d",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-10]":
        "84e9c539758fa2748c7d5eb17dc37dad93c2f241717c1f5abfc3ec4cd2ac57a8",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-11]":
        "0814b99d82236b7f0a34b1ab145fd7b2ed2d1191ddcbfe9825d5eb6101fc72e1",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-1]":
        "b92bb8c4e952f0a2101d1912ba7213b3eebbfa913969242e9461239f1dcee116",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-2]":
        "1f2fadf58e9df59e69c078a6c69d2f09a6e42b25c69dbc23d1ed6208c2bcbb5a",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-3]":
        "d0855a19be36b70da13b17162f6d7c871d6ca755a4c37211b42f6ee8ba35c9bd",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-4]":
        "b47079772f0c218257cf66a5dc0c0c42c27d38ad60aca8729ac1ff992c57c52b",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-5]":
        "83e01e4ca623afc92de0f33f41759618743db4506d3dec1bcf0892e22aa02174",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-6]":
        "da9ed3f282e3c13d3605cebc2812d342c27968a83ef168c9a6650e248a263d1c",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-7]":
        "b604f3d6901a2195fdae39c44fab8553c62149b57a6790d5a55e4c69bfabf411",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-8]":
        "3bd9a873032e5391ca69e30f3d9d42b3724a61ef33a5335b7883c4d020fcd823",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-9]":
        "3279ca5b4de773d82e04318d468f544840bdbd6d3507c5559293cb74f0f41283",
    "test_variant_bit_identical_on_corpus[statusarray-islands]":
        "97415943a8b82b2443bf410a98099215fe49ccc9118267848e3555e138adacbc",
    "test_variant_bit_identical_on_corpus[statusarray-loops]":
        "a72f5e06968bca29e37682bdf96725f930b5ac26a8ccdf72c1ccb410e2a4ee82",
    "test_variant_bit_identical_on_corpus[statusarray-sink-hub]":
        "96f7964bc44c1ae7ea562802babd5aaaea85a36e3b9a09890a7e1dcee357525d",
    "test_variant_bit_identical_on_corpus[statusarray-star]":
        "bd44ce7f2528705b8b61ff74825ae99ff8bdb433f55d69021bc2abd055cd065b",
    "test_variant_bit_identical_on_corpus[topdown-chain]":
        "cf70ad1dac0931909a4d057f8a5809c5243c01dd6715291a2d87cab4acdc2bca",
    "test_variant_bit_identical_on_corpus[topdown-dup-chain]":
        "b66900ed69d60a5b340a40e718d90c1f46c63898c2befa35261a5c039a43cc91",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-0]":
        "b602bb7e9979584624637c086639e49c853a1fabb6c4cb71f52ed3075153f906",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-10]":
        "0a22d12591561224112c11fc074aa5638db232a879fef46819e9116e64302b69",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-11]":
        "70730ac7c3364aeaa28b2ac50322d576c1b053cd02e7ff5fda99b97d3f512820",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-1]":
        "70d7e9be622d1df2893c1d51426b9e487c5d48527dd411e78f661b6aee7ba6ff",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-2]":
        "5ab88f07d906496e2084163b58be6ca4402f1c4ca97aff9ee31c9c8f8a31c229",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-3]":
        "682df2267716429f477040ed4002518115b83b82928359036df21e4ec6462035",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-4]":
        "f63a2dd0e11216659a2e42f40978b4130b8ef4d56b9cc9f64b339d0cdd62f16b",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-5]":
        "ce1a45ce0c5f9c47b8618b895d35780a328d9c68b2e09a5092e29c5f03156269",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-6]":
        "b1d4f67f5267ab269910496c50213a3a42d4fca52ea56f04c1dbeada3f89b7e7",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-7]":
        "c8ad6dca38b672f7f3a198acca797ee7a56607599df5f766ea5babe15afa42fd",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-8]":
        "8effbe7134d86b1541921cfa43d6055cd7923e0ce0f4b3f645d5705fb1f39ed4",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-9]":
        "9cb6dc6039f268fb8ec4d84f1f1811cfa3689261d2291367414195fcbbae9526",
    "test_variant_bit_identical_on_corpus[topdown-islands]":
        "b403fe7f0bfdd98d295df9ff72fceca5587364bd634051f038a1c65b18e21bab",
    "test_variant_bit_identical_on_corpus[topdown-loops]":
        "dc0579ef19b2be774ec911b9c101fbaf9b7df5b3e51a4024e1d419391e2711d4",
    "test_variant_bit_identical_on_corpus[topdown-sink-hub]":
        "3ee30b906a148b344bcaa53bcd69993bc045672b92b2440f9112a5c0e96aef5d",
    "test_variant_bit_identical_on_corpus[topdown-star]":
        "54af17b753c9d8a88bcbd05eaee55c5580ea322045faea5712acb4b0d016e79b",
    "test_weak_scaling_rows_bit_identical":
        "f4938e58aacee411fb4b5953825f1a2d9e2f64b5176b05b961efbc95afe274da",
}


def _regenerate() -> None:  # pragma: no cover - manual tool
    for golden in GOLDENS:
        result = enterprise_bfs(golden.build(), golden.source)
        print(f"{golden.name}: levels_sha={_sha(result.levels)}")
        print(f"{golden.name}: parents_sha={_sha(result.parents)}")
        print(f"{golden.name}: time_ms_hex={result.time_ms.hex()}")
        print(f"{golden.name}: edges={result.edges_traversed} "
              f"visited={result.visited} depth={result.depth} "
              f"gld={sum(t.gld_transactions for t in result.traces)} "
              f"traces={len(result.traces)}")
    # Run the digest cases under pytest, recording instead of checking,
    # in the module object pytest imports.
    from tests import test_golden_runs as module
    module._recorded = {}
    pytest.main(["-q", "-p", "no:cacheprovider",
                 "tests/test_vectorized_differential.py",
                 "tests/test_golden_runs.py"])
    print("DIGESTS: dict[str, str] = {")
    for name, sha in sorted(module._recorded.items()):
        print(f"    {name!r}:\n        {sha!r},".replace("'", '"'))
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
