"""Layer spans recorded from outside the simulator.

The traced run wraps the entry points of each layer *as the calling
module binds them* (``repro.bfs.enterprise.bottom_up_inspect``, not the
definition in ``repro.bfs.common``), so no file of the program changes.
Every call of a wrapped entry point becomes one in-memory span row::

    [name_id, start_s, end_s, parent_index, op_id]

A span opened with no enclosing span is the root of a new op (one
traversal, one served query, or an engine construction); its children
inherit that op id.  A span's *self time* is its duration minus the time
its child spans cover, so the self times of one op's spans sum to the
op's root duration.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: (module, attribute, span name).  A dotted attribute patches a class
#: attribute, which every instance and caller sees; a plain name patches
#: the binding in that module only.
LAYER_ENTRY_POINTS = (
    # bfs: single-GPU Enterprise, per level and per edge
    ("repro.bfs.enterprise", "enterprise_bfs", "bfs.enterprise"),
    ("repro.bfs.enterprise", "expand_frontier", "bfs.expand"),
    ("repro.bfs.enterprise", "bottom_up_inspect", "bfs.inspect"),
    ("repro.bfs.enterprise", "topdown_workflow", "bfs.scan"),
    ("repro.bfs.enterprise", "switch_workflow", "bfs.scan"),
    ("repro.bfs.enterprise", "bottomup_filter_workflow", "bfs.scan"),
    ("repro.bfs.enterprise", "queue_contiguity", "bfs.scan"),
    ("repro.bfs.enterprise", "classify_frontiers", "bfs.classify"),
    ("repro.bfs.direction", "GammaPolicy.setup", "bfs.direction"),
    ("repro.bfs.direction", "GammaPolicy.observe", "bfs.direction"),
    ("repro.bfs.direction", "AlphaBetaPolicy.setup", "bfs.direction"),
    ("repro.bfs.hubcache", "HubCachePolicy.__init__", "bfs.hubcache"),
    ("repro.bfs.hubcache", "HubCachePolicy.refresh", "bfs.hubcache"),
    ("repro.bfs.hubcache", "HubCachePolicy.record_level", "bfs.hubcache"),
    # gpu: the kernel cost model (kernels + memory access patterns),
    # launches onto the device timeline, Hyper-Q packing
    ("repro.bfs.enterprise", "expansion_kernel", "gpu.kernel_cost"),
    ("repro.bfs.enterprise", "sweep_kernel", "gpu.kernel_cost"),
    ("repro.bfs.frontier", "sweep_kernel", "gpu.kernel_cost"),
    ("repro.bfs.frontier", "prefix_sum_kernel", "gpu.kernel_cost"),
    ("repro.bfs.frontier", "sequential_transactions", "gpu.kernel_cost"),
    ("repro.bfs.frontier", "strided_transactions", "gpu.kernel_cost"),
    ("repro.bfs.classify", "sweep_kernel", "gpu.kernel_cost"),
    ("repro.bfs.classify", "sequential_transactions", "gpu.kernel_cost"),
    ("repro.bfs.partition2d", "expansion_kernel", "gpu.kernel_cost"),
    ("repro.bfs.cluster", "sweep_kernel", "gpu.kernel_cost"),
    ("repro.bfs.cluster", "sequential_transactions", "gpu.kernel_cost"),
    ("repro.bfs.msbfs", "expansion_kernel", "gpu.kernel_cost"),
    ("repro.bfs.msbfs", "sweep_kernel", "gpu.kernel_cost"),
    ("repro.bfs.msbfs", "sequential_transactions", "gpu.kernel_cost"),
    ("repro.gpu.device", "GPUDevice.launch", "gpu.launch"),
    ("repro.gpu.device", "GPUDevice.launch_concurrent", "gpu.launch"),
    ("repro.gpu.device", "overlap_kernels", "gpu.hyperq"),
    # cluster BFS over the fabric, with out-of-core shards
    ("repro.bfs.cluster", "cluster_enterprise_bfs", "cluster.bfs"),
    ("repro.bfs.cluster", "_expand_topdown_blocks", "cluster.compute"),
    ("repro.bfs.cluster", "_inspect_bottomup_blocks", "cluster.compute"),
    ("repro.bfs.cluster", "_segment_payloads", "cluster.exchange"),
    ("repro.bfs.cluster", "ring_ms", "cluster.exchange"),
    ("repro.gpu.fabric", "Fabric.allreduce_ms", "fabric.allreduce"),
    ("repro.gpu.fabric", "Fabric.flat_ring_ms", "fabric.allreduce"),
    ("repro.bfs.cluster", "balanced_bounds", "storage.shard"),
    ("repro.bfs.cluster", "shard_bounds", "storage.shard"),
    ("repro.storage.partitioned", "PartitionedCSR.__init__",
     "storage.shard"),
    ("repro.storage.partitioned", "PartitionedCSR.partitions_touched",
     "storage.stage"),
    ("repro.storage.partitioned", "PartitionCache.load", "storage.stage"),
    # serve: intake (submit, cache, batcher, answers) and dispatch
    ("repro.serve.engine", "ServeEngine.__init__", "serve.engine"),
    ("repro.serve.engine", "ServeEngine.submit", "serve.submit"),
    ("repro.serve.engine", "ServeEngine.drain", "serve.drain"),
    ("repro.serve.cache", "LandmarkCache.__init__", "serve.cache"),
    ("repro.serve.cache", "LandmarkCache.lookup", "serve.cache"),
    ("repro.serve.cache", "LandmarkCache.admit", "serve.cache"),
    ("repro.serve.batcher", "AdaptiveBatcher.add", "serve.batcher"),
    ("repro.serve.batcher", "AdaptiveBatcher.shed_lowest", "serve.batcher"),
    ("repro.serve.batcher", "AdaptiveBatcher.wave_ready", "serve.batcher"),
    ("repro.serve.batcher", "AdaptiveBatcher.next_deadline",
     "serve.batcher"),
    ("repro.serve.batcher", "AdaptiveBatcher.due", "serve.batcher"),
    ("repro.serve.batcher", "AdaptiveBatcher.pop_wave", "serve.batcher"),
    ("repro.serve.engine", "answer_from_levels", "serve.answer"),
    ("repro.serve.cache", "answer_from_levels", "serve.answer"),
    ("repro.serve.dispatcher", "WaveDispatcher.run_wave", "serve.dispatch"),
    ("repro.serve.dispatcher", "ms_bfs", "serve.msbfs"),
    ("repro.apps.landmarks", "ms_bfs", "serve.msbfs"),
    # observ: the live monitor in the serve loop
    ("repro.observ.monitor", "LiveMonitor.advance", "observ.monitor"),
    ("repro.observ.monitor", "LiveMonitor.observe_result", "observ.monitor"),
)

#: Spans that open an op.  Their metric is ``<span>.self_ms``; every
#: other layer's is ``<span>.host_ms``.  Both are self time per op.
ENTRY_SPANS = ("bfs.enterprise", "cluster.bfs", "serve.engine",
               "serve.submit", "serve.drain")

#: Every span name, in table order.
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in LAYER_ENTRY_POINTS))


def span_metric(span: str) -> str:
    """Name of the per-layer metric carrying ``span``'s self time."""
    return f"{span}.self_ms" if span in ENTRY_SPANS else f"{span}.host_ms"


class SpanRecorder:
    """In-memory span rows for the calls made while wrappers are in."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0

    def clear(self) -> None:
        self.spans = []
        self._ops = 0

    def wrap(self, span: str, fn):
        """``fn`` recording one span named ``span`` per call."""
        name_id = SPAN_NAMES.index(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack:
                parent = stack[-1]
                op = self.spans[parent][4]
            else:
                parent = -1
                op = self._ops
                self._ops += 1
            row = [name_id, 0.0, 0.0, parent, op]
            stack.append(len(self.spans))
            self.spans.append(row)
            row[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()

        return wrapper


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def recording(recorder: SpanRecorder):
    """Install a wrapper on every entry point; restore them on exit."""
    installed = []
    try:
        for module, attribute, span in LAYER_ENTRY_POINTS:
            owner, leaf = _owner(module, attribute)
            original = vars(owner)[leaf]
            setattr(owner, leaf, recorder.wrap(span, original))
            installed.append((owner, leaf, original))
        yield recorder
    finally:
        for owner, leaf, original in reversed(installed):
            setattr(owner, leaf, original)


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the children's durations."""
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] >= 0:
            own[row[3]] -= row[2] - row[1]
    return own


def layer_totals(spans: list[list]) -> tuple[dict[str, float],
                                             dict[str, int], float]:
    """(self seconds per span name, calls per span name, root seconds)."""
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for row, own in zip(spans, self_times(spans)):
        name = SPAN_NAMES[row[0]]
        totals[name] += own
        calls[name] += 1
    roots = sum(row[2] - row[1] for row in spans if row[3] < 0)
    return dict(totals), dict(calls), roots


def write_spans(path: Path, spans: list[list], *, workload: str,
                seed: int) -> None:
    """Write one traced round's spans, times in µs from its first span."""
    origin = spans[0][1] if spans else 0.0
    rows = [[name, round((start - origin) * 1e6, 3),
             round((end - origin) * 1e6, 3), parent, op]
            for name, start, end, parent, op in spans]
    doc = {"schema": "perfbench.spans/v1", "workload": workload,
           "seed": seed, "names": list(SPAN_NAMES),
           "columns": ["name", "start_us", "end_us", "parent", "op"],
           "spans": rows}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
