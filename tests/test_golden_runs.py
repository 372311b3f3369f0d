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
        time_ms_hex="0x1.f333182d21c26p-10",
        edges=126, visited=64, depth=1, gld_total=84, traces=2,
    ),
    Golden(
        name="chain", build=lambda: chain(40), source=0,
        levels_sha="11c971161d650650a9fb22fe9d403b1547a67855e266a350a5"
                   "5451378323a672",
        parents_sha="246a12e7930781d1db01caa3160de6b7a30a382cbbb016efa3"
                    "272dfc49eb08b5",
        time_ms_hex="0x1.e16560bfa588cp-5",
        edges=78, visited=40, depth=39, gld_total=158, traces=40,
    ),
    Golden(
        name="islands", build=lambda: disconnected(45), source=1,
        levels_sha="2b509ccb965deeaf41b0644c175c05ad5e292d47701f71a590"
                   "962a4254db6ca5",
        parents_sha="0e312394db81918296ba543b047c9debaafb2088fdc3caef3c"
                    "b7fe0e9f7b945e",
        time_ms_hex="0x1.ccefc0a60647dp-8",
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


def run_snapshot(run) -> dict:
    """A multi-device run: its BFS result as in :func:`snapshot`, then
    every other field in declaration order."""
    return {f.name: (snapshot(run.result) if f.name == "result"
                     else getattr(run, f.name))
            for f in dataclasses.fields(run)}


#: Filled instead of checked while ``_regenerate`` re-records.
_recorded: dict[str, str] | None = None


def check_digest(request, value) -> None:
    """Assert ``value`` matches the digest recorded for this test case
    (``request.node.name``, e.g. ``test_golden_multigpu_run``)."""
    name = request.node.name
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
        "ledger": [getattr(run, f.name) for f in dataclasses.fields(run)
                   if f.name != "result"],
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
#: case.  Every literal below is an *observed* value.
DIGESTS: dict[str, str] = {
    "test_ablation_matrix_bit_identical[BL]":
        "ed7e0eacc2e0a5a698b68b2bce12491c847eafe8d3c61f8d0b5bc4b979ddc087",
    "test_ablation_matrix_bit_identical[HC]":
        "ed0f1de1ced8664f4a8cef02b61c2a5ed6de724df80b246d3c5ca279ab1a83a6",
    "test_ablation_matrix_bit_identical[TS]":
        "71d92039cb6233b76fe0a7f05d49c423ef5fb860701e206c3658062363e969fc",
    "test_ablation_matrix_bit_identical[WB]":
        "e6e7faa550a598e5ccf6b26506674bc12edc17e875e1f9a480b9ab28cedeaf46",
    "test_chaos_matrix_bit_identical":
        "e205598232c62205a94cbd09d8ca1559f423087f43dc1efee039eff0f3da1fbc",
    "test_cluster_profile_bit_identical[chain]":
        "cc0ec2ad174ecf837459f0d70869a0377ef74ca542c7e2426f7a3972ab50eae8",
    "test_cluster_profile_bit_identical[fuzz-31]":
        "c0040ff00f691b51681056cced82ca89dbe147780ed75e5dcfb8c5911e7d4916",
    "test_cluster_profile_bit_identical[fuzz-32]":
        "1bbad7a6c3a1a76ba2d0b531fb70de774a1f764d6133c2fb5bb4e639b8be4c5d",
    "test_cluster_profile_bit_identical[islands]":
        "8e8ec854bf27bb2f3ec46a7c46e4ab8131afc34def74c49d96d71fd838291d26",
    "test_cluster_profile_bit_identical[sink-hub]":
        "c1129c60fbc0d7fc7ce0659045c6a5effce0a1ba99d14b1f88edec49884b0e7d",
    "test_cluster_profile_bit_identical[star]":
        "9f8d1a9db7bd371d5c8b4d452c14a25de496541f6d96f8af5bd87397e17db4ea",
    "test_counters_and_teps_bit_identical":
        "f101425c5b6da59d263d04c6ca09ca30e67ae8cd7f96e2ff4d458e0942e4fa0c",
    "test_golden_comparison_system[B40C]":
        "f89f5b12adbb583d4cdbb1921f46ca47736c61a4a02226b5439b7fee90cb82a4",
    "test_golden_comparison_system[GraphBIG]":
        "391c362eb173dabf41dd5cbcd9c756778bc13fd7b3b5d5c6e3e864cca876d86a",
    "test_golden_comparison_system[Gunrock]":
        "265522d9898351ea29ebb899cfb78cd5352868b0c1f81138d8a1d96d15c2fe8e",
    "test_golden_comparison_system[MapGraph]":
        "acf9c66be3d74a69a8040069aab2960dca3b1ab94620535abeb016506783abf7",
    "test_golden_multigpu_run":
        "ba59c6eb4731dad824c8b021290c57886ce73f8220ae8b34c4459c20aade37d6",
    "test_golden_ooc_run[powerlaw-HC-raw-prefetch]":
        "563a130a22186e678c2819e0c8d9206a59d62b221653c0bb9b8c1018819f2a48",
    "test_golden_ooc_run[powerlaw-HC-raw-serial]":
        "0f6cc59e1bc3e426631ae0da4f942c13486bdeaa83d27efe12b101877e52e04f",
    "test_golden_ooc_run[powerlaw-HC-varint-prefetch]":
        "5a29aee418170cbef8962d12567cb2909ef958964273f7f93cdf9a6bfc7c95b5",
    "test_golden_ooc_run[powerlaw-HC-varint-serial]":
        "8863a36083ff9fbf532aad6845a110790da65f7a127d93bb942acded565d4124",
    "test_golden_ooc_run[powerlaw-WB-raw-prefetch]":
        "9f6759e447f3b7be79bdb49ef8ffe83f699352606d9a7852e02443c519c024ef",
    "test_golden_ooc_run[powerlaw-WB-raw-serial]":
        "ca9db9bc1b0cc9e78a1802658012056d8839a3e119507746a69987e3a1498e85",
    "test_golden_ooc_run[powerlaw-WB-varint-prefetch]":
        "3aa64bdf700a0058579533e2e8f68e1ee81fa9192cd1f600927e17f431f5f0f3",
    "test_golden_ooc_run[powerlaw-WB-varint-serial]":
        "885c2cd80c92789ca17666e71232a3baa144a6da9e0a5e93312b5a862f5c9f7f",
    "test_golden_ooc_run[powerlaw-directed-HC-raw-prefetch]":
        "0738cac972ed43f7dba38c532ee9f8f047f5720ec77a18394a1a02df6281db3e",
    "test_golden_ooc_run[powerlaw-directed-HC-raw-serial]":
        "678b9e1274b16fb9b2d01f926c8545cc8a8439c1dc8bff1679b0e2c06f9cd14a",
    "test_golden_ooc_run[powerlaw-directed-HC-varint-prefetch]":
        "0aa0231a7d4c2cb2bec67a8fc6deda6484c7a289afa4af57550b0c8b0e266739",
    "test_golden_ooc_run[powerlaw-directed-HC-varint-serial]":
        "1f9c450791faf4a30660e77bee600ddd377efd1f41af135da5f32f9a991adffd",
    "test_golden_ooc_run[powerlaw-directed-WB-raw-prefetch]":
        "51bed1887e282429b2b31803f91e49da1eda57663acfef3040a2972f8b24c2a9",
    "test_golden_ooc_run[powerlaw-directed-WB-raw-serial]":
        "01e3c1461a02addc124aea3cdab41edae195137989121cae47b49b889ac215ca",
    "test_golden_ooc_run[powerlaw-directed-WB-varint-prefetch]":
        "1a65eec392a230e934ebfaf34175971feb9425bdef1e02f2880181bac5db8cc2",
    "test_golden_ooc_run[powerlaw-directed-WB-varint-serial]":
        "c537906bcb8c6da01fbbfe9e195a65964b7aae0efcec28f6d1622b25c745b795",
    "test_golden_ooc_run[rmat10-HC-raw-prefetch]":
        "c8a0993a2c711aab4aee189b822834f453a77fda7faa31e1dd90fbfc5a64771b",
    "test_golden_ooc_run[rmat10-HC-raw-serial]":
        "9d0f76d5a2fcab127b0a882af01a573c362358b023142dd99b58020933f95063",
    "test_golden_ooc_run[rmat10-HC-varint-prefetch]":
        "419f0a04daffcb47e3c6266003e9996fd263faa6bb1a1d78a21e3c36935d9a71",
    "test_golden_ooc_run[rmat10-HC-varint-serial]":
        "fbf8097ba03fdb5acfe98bac6cbd0ba11d0fa3f84078e510f88c4563988c158d",
    "test_golden_ooc_run[rmat10-WB-raw-prefetch]":
        "845cb4ed31818a2836140a791acd1a81177123a2b56cdfdd43d8494d1ac17c96",
    "test_golden_ooc_run[rmat10-WB-raw-serial]":
        "8390ffffb98636eec556599fa966e48dbc5c2252ea5ff7325a343d208bd881c1",
    "test_golden_ooc_run[rmat10-WB-varint-prefetch]":
        "cd161441458a8775eb44cd076683e9d6bc2c8566d16c3a099c5125c286ad1cca",
    "test_golden_ooc_run[rmat10-WB-varint-serial]":
        "6c92eeb6660d9adb4965f3f0fd69a99bf655a32125b6840d44313dd64eeef6fd",
    "test_msbfs_waves_bit_identical[chain]":
        "3f0f3fbd445ef1e17068e37d213bfe08d0ae20d6dd8c447c398274cf311c6785",
    "test_msbfs_waves_bit_identical[fuzz-31]":
        "362ac76755a54837ef189aa8f4ff931d77ca24ff269717c40b35ceb23477e237",
    "test_msbfs_waves_bit_identical[fuzz-32]":
        "a8e111894bcf585858c0e971ce49c25e0d0205de2ceb4dab70d7b915339bc81a",
    "test_msbfs_waves_bit_identical[islands]":
        "86a0db3a801b5d929b1142ea0f004d5479f6f6f9916cb5e7a3d2bd86252dfa64",
    "test_msbfs_waves_bit_identical[sink-hub]":
        "03c36938e0d56db52ccfd06803f3f305e83caa0b52d8819928723bc759741245",
    "test_msbfs_waves_bit_identical[star]":
        "11030054575ac4373ae2b4d52ac211fd86672542ff599cd6acee3f9adbda2469",
    "test_serve_stack_bit_identical[fuzz-55]":
        "2e6ca787e1b3606f01ea56ccfe91fc35e4204072226a40a418dec8869b0f0df1",
    "test_serve_stack_bit_identical[islands]":
        "8fae57ebf9803e3b63a3c8b284bda8cf3b89ed36a2aeed66502aa77a83b10f92",
    "test_serve_stack_bit_identical[star]":
        "c605cd4f4c06a8bbf07ba6261eb2da3a72ec4138fe81c827169d883fb502ffd0",
    "test_switch_configs_bit_identical[switch_policy=alpha,switch_scan=interleaved]":
        "dba322a1a288366f70f6e06d83e3e4a40a2907b1c89f0445f61a0ab01d741604",
    "test_switch_configs_bit_identical[switch_policy=alpha]":
        "96a8c7ce4b18bdcf84a8209266d2590db7a2e85867561ec6bcceb596648eb059",
    "test_switch_configs_bit_identical[switch_scan=interleaved]":
        "7ec42a5a13a5fcf32f14015ca7ccbc5f8bddcbd76af225603889698e361af7d6",
    "test_variant_bit_identical_on_corpus[bottomup-chain]":
        "72edff6c9464984de7d5c5f0e738acec0228895bfe1e49dc0dec11bfab8b59a3",
    "test_variant_bit_identical_on_corpus[bottomup-dup-chain]":
        "63691bd63271338251337d81840bf7044497df48137a7db0fa5681d877e4ab22",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-0]":
        "f0bb0499cc9888158cb4b1560cb53e8dccef26e3911ab32d96a442e994e31e1c",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-10]":
        "eea480d70d400c7546f66b6461ffc375421fb0df7ed7a85d3ddf9605bbc6afab",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-11]":
        "d6fbd08e518d0a087d6c338dbb48238ddc4fc8cba816cdb84ef330a428e28ec3",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-1]":
        "17c2447c06f85b9755de7de4b5971c1d5ebeb00dd96660553fe727eed55ed723",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-2]":
        "c6a2e814244d22c672bf8cc34903fb611c15f8868825706973eb2745b9b5d0bf",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-3]":
        "4ded86db860536db1830706ff513b74a05e42bade8d3d9157ef878adeac059e2",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-4]":
        "a866832c4d9c5d7b2ee618b4e0f2301e4545390f5b29ee49bcc044872b0d4861",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-5]":
        "cd988b8a5510bf871f732e1413a9fae2b7964586433e3b3b56cf4871e001891b",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-6]":
        "94fab55d7c646c1388b47f7e29ecc52b15ca5cc79febfe4b59ee212d396b7f82",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-7]":
        "570a73d94d270987cab1b13853bdcbb19fedc98f6f8c7e8b597c9c4a9c609348",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-8]":
        "641ce1c82cce47a1c5a7f7f4b8dc194810895983bc03eb42c8f8285b2806ea65",
    "test_variant_bit_identical_on_corpus[bottomup-fuzz-9]":
        "589586fe7e16740727ba08bc674396b4f823078ce03fdf54d12944cd81d390db",
    "test_variant_bit_identical_on_corpus[bottomup-islands]":
        "83efd1c75a53bb9352a821f90f5dbfd5bfedafd942b9a880e161082b278c8f1d",
    "test_variant_bit_identical_on_corpus[bottomup-loops]":
        "21f6593673d4e0ebf1cfa33d72a7b71e7d136fa9aaae63941d305e6ffa2acd94",
    "test_variant_bit_identical_on_corpus[bottomup-sink-hub]":
        "ace70c7164510981343b40b88d27f81dfac2a8de7496d5c2b5377d8dbca8cf01",
    "test_variant_bit_identical_on_corpus[bottomup-star]":
        "78d0cf8d4216e49c246eeb12f3ac6e614a553981d30f204bb10dab9c1c3868fc",
    "test_variant_bit_identical_on_corpus[enterprise-chain]":
        "d852705485a11f792b0bfacec5b52c92845d22a1c2a1c6842e36873765647ba7",
    "test_variant_bit_identical_on_corpus[enterprise-dup-chain]":
        "f4e51d37187d8d66e6cfbdb5cd819b6360c65209768e356334280d3ac79d8b66",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-0]":
        "16d00b9b19c2a2d74728a78d818689e7beeadea555c44072bb94e23921a5b8e7",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-10]":
        "54d052873cde4c5b1cf4a2d87fb7bd2178b9238d402866606a65b66564a666a0",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-11]":
        "1f39b7ed3e45ed892b12bf2d4455f5c99a3d5ad362937e58c867f6b46865985f",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-1]":
        "3fbabdb4bb74e589b8f236aff7972df5f9b148ccb2ca01b34d61b945841e6afd",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-2]":
        "4d3d40bfa5d728d7432dbf02f5f0d706206b572aaa4a82b0bc6a845001a454e2",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-3]":
        "a1ce1d39744d2eaa043283d05e503b6ee4983e6e82db474274c0b00a123ff77b",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-4]":
        "71807e94b62554dbfa837a66c7554af491d1c8e1cd81fcef896c5bc2bf192de5",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-5]":
        "cff5243eb9e9669b0ffcef257fb89e9539afde9fd1fbdf02d72ff237b41890a2",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-6]":
        "97e135f1db73ddc120f5f628b89afa2dc44b3cd4c28f0326855af252b3b15488",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-7]":
        "dd05f8f4f50a3bd44cc376359fc6b9bd6b33594e86e7b36ecd27d37829f9419d",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-8]":
        "0044da8e5e1ff3e7ca6cdf0036e9a452e8e4e1f95d370e243489684572b4967f",
    "test_variant_bit_identical_on_corpus[enterprise-fuzz-9]":
        "56176e45ee83255944818c1cf263f57b2317e40aea8295736581e782d32434d6",
    "test_variant_bit_identical_on_corpus[enterprise-islands]":
        "4630050b112b32246c69e799920cbec1f6529d599045b0c1010b2f978364abab",
    "test_variant_bit_identical_on_corpus[enterprise-loops]":
        "67f54c69c7b13b97ab0505a22a852e31500116dbe2da1dd07939a63e82ebd026",
    "test_variant_bit_identical_on_corpus[enterprise-sink-hub]":
        "f6d040be3b88d1ad1639be4c0661ef1d610f245374a406151c51a586ef9cd720",
    "test_variant_bit_identical_on_corpus[enterprise-star]":
        "c976b00b25dccce5e91472d00368c5a3098c94417583d77508742bd86536d3ed",
    "test_variant_bit_identical_on_corpus[hybrid-chain]":
        "85c3472978b2bb7b81a79aa518fad04c665b96ef50a7223c306431a00b7a1fb1",
    "test_variant_bit_identical_on_corpus[hybrid-dup-chain]":
        "661b54dd25c62daef4a2ee7ae7c936838afe6add8fadea5f6a8199f13195b95f",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-0]":
        "8afd87f9fb134f73cef4b64aaeb81cd0218d4ca17775376e89e9f5ca772276f9",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-10]":
        "fca08b62af85aff2e6a608a604bbfc7a831073b56380314fe45bdb5e17cb33f4",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-11]":
        "f57b078b76d7e712d4009b940118b4c7c08d48b3acfbcfc933d616603604acd6",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-1]":
        "dabddb430d3494cd8124dfc42fc65271765b4b2bc1dc4b549ee168c2c4f2eb6f",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-2]":
        "876a7527762fdde11179070423d0530f82fc7736ea26941ec59cd072ef08cc8b",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-3]":
        "9f4ae1b65a6cbeeb561a6d5ed09841fc7b33916e1ae29d2fb5ac48f407f5527f",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-4]":
        "9726513c4b0f95d7c33a92db6e1904d254834e1cdc591aa1da9550a48a6ef606",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-5]":
        "719b67ccc640fdf8da9d50f2c1575231752b8b5526b4d369b3c91d3f1fdb1ed7",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-6]":
        "b1c167b91b976442baed6c537206752878f361c35d440449d470f8f5f60ca827",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-7]":
        "b822b37ea5b0613eaf950e15d05eed72c90f19e3bcf90891ead6185a39cf6c23",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-8]":
        "fd0c58c40ba739b0274f15a6c1c083a20b3a6ae6b6cba26587943206a79cffb1",
    "test_variant_bit_identical_on_corpus[hybrid-fuzz-9]":
        "39b96f01de22e80ae0592b5c8083e13af35e16656a7d76aee541d50c9be25a16",
    "test_variant_bit_identical_on_corpus[hybrid-islands]":
        "e3a531b5cd7b3b63dcc23accc856f10f57801dec51eb4dfaaf30adc8717a1a8b",
    "test_variant_bit_identical_on_corpus[hybrid-loops]":
        "ed627e45604c4770a6e555fbf38f32d6cb8d66aac37fee0d533d9fd2fd28b63f",
    "test_variant_bit_identical_on_corpus[hybrid-sink-hub]":
        "dfa4687dac1a783c9bf48a4dd94a2b4dd050bdad551327cf58aac24da5588b32",
    "test_variant_bit_identical_on_corpus[hybrid-star]":
        "65011df51e743b7f836e97e75fdca135ac2050a8991fb22be2e5663e40586d2c",
    "test_variant_bit_identical_on_corpus[statusarray-chain]":
        "c1dc4f4d49719884fa316306f9b22e79df658de6baaaf4467dc38a2e710c146a",
    "test_variant_bit_identical_on_corpus[statusarray-dup-chain]":
        "aa9b793bfab271d936d7bbf01686e583bc388e93424b9f9da2569a6bf464322f",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-0]":
        "ecdff771e591d49d3fe0d71c71284fe19a632961ca3f54e2c06711e145ab77ef",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-10]":
        "1d5c3b23453626942edd5018af2991e107b5e533f26557f65549c523c5b7daef",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-11]":
        "ac7f572daf7df0410da991a67bdc2d3797a33bb157c17945330a35832077ccb4",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-1]":
        "2de32eb19e9f0dfbc9543404cf26cc3a487b5f585312f2962c79732bbbcccc6b",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-2]":
        "1521e05074a60e17b7a60ba6722a6cade121569e8f8a776bfb664695f7b22e51",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-3]":
        "530a2b81b23025793e439afd6aa42c6308c8bc5fa63dda1496b6df357c7fdf8c",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-4]":
        "3f4c3bf8391dd04b7c0ada45803a64d7f9c629cbff3ac75e64446564d5967cfd",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-5]":
        "6e2e8c2ed9fbddef6e07268c9ebee60b74c832e22b8c179377b952d105d6eee4",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-6]":
        "c184198a47d4b8aa18133b6de3b73307301b21a50e4648b52391b9445e53553c",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-7]":
        "96a61acd4702e9f1e521e2866b9771fd87f9a868db79280dd1b517a811b770a9",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-8]":
        "782b826e650f62761a80f60f4073f04de9ec48de27f25d14047e67f14e3ec2dd",
    "test_variant_bit_identical_on_corpus[statusarray-fuzz-9]":
        "89651fba2fdc819b337e9967ac5da07881352d9f027849795ec6b4053c48fd1a",
    "test_variant_bit_identical_on_corpus[statusarray-islands]":
        "d3a83f7782016619edd54b81180fc1c68a325d72866f80dcca4be357e573f766",
    "test_variant_bit_identical_on_corpus[statusarray-loops]":
        "f11bfcebfe3b174aaf4ff5a9c45db44a9b9eea833092d97c0070f31238c79748",
    "test_variant_bit_identical_on_corpus[statusarray-sink-hub]":
        "1c708f38e7a30e4908bfc32d8c1f7cbc61d7882a9e8366843b96561a81c09d75",
    "test_variant_bit_identical_on_corpus[statusarray-star]":
        "b24cc00f497c88c61574f62548a802546ba43341cd28c7fd527004d7d9571237",
    "test_variant_bit_identical_on_corpus[topdown-chain]":
        "898ed6746eb1edd22072d1afadd28633cf6ff12ebefa34c30c0bf1e53fad2973",
    "test_variant_bit_identical_on_corpus[topdown-dup-chain]":
        "4957aed0cb4a9cac2ea76120b3d2003f80b76b1eea4314ca6025a5f27b2570d2",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-0]":
        "64b6819861c5de57b3335080f5593655b3f52229b3acfa33fd639a48e760a7c9",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-10]":
        "72b1090980372650db1ae21817f1fdcbb488a390ea29c468ad75a04a0603601d",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-11]":
        "8ea3e54c340c464e268cdaec5a383848f999fe66d33311ff64ba0311453a152d",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-1]":
        "24c80a2844f1d148a6b4a62835cbc062b8796fef57263e489649bbbec5f209a4",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-2]":
        "7fe9f4bf2727f99835fa729254f6016275ad1fa53ae00576e0e6ea03ed0a26eb",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-3]":
        "af6230bc4ff8f6535356070480267c0aca77e72aad7a0e02ff70dd951568e1b0",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-4]":
        "c5932b4eadc7e066a1e746febf45db6f0495c058d3fbcf5b183e0e865f885cea",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-5]":
        "7253ecf5c41580519e66e954b064a5a0bc8bdd4325dc3aedc352e6b8ba9bbf3e",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-6]":
        "34947f6471268052a252caf97de68c0c6e54df1abb459c2dcc59d89b9391a245",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-7]":
        "41e767fbef035b94857825d552de4ffe69cfa633fbee1fc4a30478cf31b30b23",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-8]":
        "7d70b363d3a45595419385faf6095cb9aa4ab7e159d65ff1bf30b1a73f8c07b6",
    "test_variant_bit_identical_on_corpus[topdown-fuzz-9]":
        "0747d4b44f7724b0f8376a9c17a77d5138225964443d407f5baf66340fd77575",
    "test_variant_bit_identical_on_corpus[topdown-islands]":
        "f88955fde7e54e0db05e7763b102d846463358db922f02a51d6826916a4e585e",
    "test_variant_bit_identical_on_corpus[topdown-loops]":
        "8c29070b6a73bc372c699ae11b8621ed2898257f2dd50f1dc28e205bc94d4864",
    "test_variant_bit_identical_on_corpus[topdown-sink-hub]":
        "2ed058c7915266338f64ac93df967761d76d002ffc89aa638346ff3afff14337",
    "test_variant_bit_identical_on_corpus[topdown-star]":
        "6b5d375fe1f9cedd24c90ac22958d211cca34e65c778e797a5541b3eb990148c",
    "test_weak_scaling_rows_bit_identical":
        "5346c3b88d4c2ad02168d45e63b387a8c3474cb4adf7f9f6776c78033df92241",
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
