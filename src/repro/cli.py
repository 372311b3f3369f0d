"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the library's day-to-day entry points:

* ``info`` — package, device and catalog summary.
* ``datasets`` — the Table-1 catalog with stand-in sizes.
* ``generate`` — build a graph (kron / rmat / powerlaw / mesh) and save
  it as a binary CSR snapshot or SNAP edge list.
* ``bfs`` — traverse a catalog graph or a saved file with any algorithm
  in the library and print the per-level trace + counters.
* ``app`` — run a downstream analytic (sssp / components / scc / bc /
  closeness / diameter / kcore / pagerank).
* ``trace`` — run a traversal with the observability layer on and
  export a Chrome/Perfetto trace (plus optional counter snapshot and
  regression diff).
* ``serve`` — replay a synthetic query trace through the batched
  MS-BFS serving engine; ``--bench`` adds the one-traversal-per-query
  baseline and reports throughput + latency percentiles; ``--faults``
  injects a named fault profile (stragglers, transient failures,
  device loss, degraded links) and ``--check`` verifies answers stay
  exact under it.
* ``cluster`` — BFS over a simulated multi-node fabric: ``bfs`` runs
  one traversal with the tiered NVLink/InfiniBand/storage cost ledger,
  ``weak`` sweeps the Fig-15-style weak-scaling matrix; ``--check``
  asserts bit-identity against the single-GPU reference;
  ``--trace-out``/``--profile-out`` export a per-node Perfetto trace
  (cross-node flow arrows per collective) and the
  ``repro.clusterprofile/v2`` per-tier attribution artifact;
  ``--faults`` degrades the fabric with a named fault profile.
* ``profile`` — kernel-level profile with ranked bottleneck findings;
  ``--cluster`` profiles a multi-node run instead: per-tier fabric
  attribution, straggler findings, cluster HTML report.
* ``chaos`` — the fault-matrix differential harness: every fault
  profile replayed over one trace, each answer verified against clean
  ground truth; ``--snapshot``/``--diff`` gate the resilience metrics.
* ``bench`` — regenerate one of the paper's figures/tables as a table;
  ``--snapshot``/``--diff`` turn it into a perf regression gate.
* ``report`` — the whole evaluation as one markdown document;
  ``--serve`` renders a serving-run report instead; ``--cluster``
  renders the weak-scaling sweep with the per-tier efficiency-gap
  waterfall (text, or self-contained HTML with a per-node Gantt).
* ``summarize`` — structural profile (triangles, clustering, ...).
* ``occupancy`` — the CUDA occupancy calculator behind §4.3.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import COMPARISON_SYSTEMS
from .bfs import (
    ABLATION_CONFIGS,
    bottomup_bfs,
    enterprise_bfs,
    hybrid_bfs,
    multigpu_enterprise_bfs,
    status_array_bfs,
    topdown_atomic_bfs,
    validate_result,
)
from .gpu import FERMI_C2070, GPUDevice, KEPLER_K20, KEPLER_K40
from .graph import (
    catalog,
    kronecker_graph,
    load,
    load_csr,
    powerlaw_graph,
    read_edge_list,
    rmat_graph,
    road_mesh,
    save_csr,
    table1_rows,
    write_edge_list,
)
from .metrics import format_gteps, random_sources

DEVICES = {"k40": KEPLER_K40, "k20": KEPLER_K20, "c2070": FERMI_C2070}

ALGORITHMS = {
    "enterprise": enterprise_bfs,
    "bl": lambda g, s, device=None: enterprise_bfs(
        g, s, device=device, config=ABLATION_CONFIGS["BL"]),
    "ts": lambda g, s, device=None: enterprise_bfs(
        g, s, device=device, config=ABLATION_CONFIGS["TS"]),
    "wb": lambda g, s, device=None: enterprise_bfs(
        g, s, device=device, config=ABLATION_CONFIGS["WB"]),
    "topdown": topdown_atomic_bfs,
    "bottomup": bottomup_bfs,
    "status-array": status_array_bfs,
    "hybrid": hybrid_bfs,
    **{name.lower(): fn for name, fn in COMPARISON_SYSTEMS.items()},
}


def _load_graph(args) -> "CSRGraph":
    """The graph the flags name: ``--rmat-scale``'s R-MAT graph, else
    ``--file``, else the catalog graph (a positional one first)."""
    if getattr(args, "rmat_scale", None) is not None:
        return rmat_graph(args.rmat_scale, args.edge_factor, seed=args.seed)
    if args.file:
        path = Path(args.file)
        if path.suffix == ".npz":
            return load_csr(path)
        return read_edge_list(path, directed=args.directed)
    return load(getattr(args, "graph_arg", None) or args.graph,
                args.profile, args.seed)


def _source(args, g) -> int:
    """``--source``, else a seeded random vertex of ``g``."""
    if args.source is not None:
        return args.source
    return int(random_sources(g, 1, args.seed)[0])


def _serve_workload(args, **extra):
    """The ``(ServeConfig, TraceConfig)`` the serve-workload flags of
    :func:`_add_serve_args` describe; ``extra`` sets further
    ``ServeConfig`` fields.  The engine's range checks run here, once
    (the cache's only when it is on, the SLO's only with a latency
    target), and a value out of range is a usage error."""
    from .serve import ServeConfig, TraceConfig

    fields = dict(batch_sources=args.batch, deadline_ms=args.deadline_ms,
                  timeout_ms=args.timeout_ms, max_retries=args.max_retries,
                  num_gpus=args.gpus, hedge_threshold_ms=args.hedge_ms,
                  slo_latency_ms=args.slo_ms,
                  slo_availability=args.slo_availability, **extra)
    shape = dict(num_queries=args.queries, rate_per_ms=args.rate,
                 seed=args.seed, priority_levels=args.priorities)
    if hasattr(args, "zipf"):  # report --serve keeps the engine defaults
        fields.update(max_pending=args.max_pending,
                      cache=not args.no_cache, num_landmarks=args.landmarks)
        shape["zipf_a"] = args.zipf
    try:
        config = ServeConfig(**fields)
        trace_config = TraceConfig(**shape)
        config.batcher_config()
        config.dispatch_config()
        config.resilience_config()
        config.slo_config()
        if config.cache:
            config.cache_config()
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from None
    return config, trace_config


def _write_trace(path, tracer, *, nodes: int = 0, **meta) -> None:
    """Write ``tracer`` as a validated Chrome/Perfetto trace carrying
    ``meta`` (a cluster run's also names its ``nodes``, one pid each)
    and say where."""
    from .observ import write_chrome_trace

    if nodes:
        meta["nodes"] = nodes
    doc = write_chrome_trace(path, tracer, meta=meta, expect_cluster=nodes)
    tracks = f", {nodes} node tracks" if nodes else ""
    print(f"wrote {path} ({len(doc['traceEvents'])} events{tracks}) — "
          f"open in chrome://tracing or https://ui.perfetto.dev")


def _catalog_name(name: str) -> str:
    """argparse type: a Table-1 abbreviation, else a usage error that
    lists the catalog."""
    names = sorted(catalog())
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"unknown graph {name!r} (choose from {', '.join(names)})")
    return name


def _existing_file(path: str) -> str:
    """argparse type: a path to an existing file."""
    if not Path(path).is_file():
        raise argparse.ArgumentTypeError(f"no such file: {path!r}")
    return path


def _positive(kind):
    """argparse type: a ``kind`` (int or float) greater than zero."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # "invalid int value" on non-numbers
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


def _positive_ints(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated positive ints, e.g. ``1,2,4,8``."""
    try:
        return tuple(_positive_int(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive integers, got {text!r}"
        ) from None


def _fault_profiles(text: str) -> list[str]:
    """argparse type: comma-separated fault profile names."""
    from .faults import PROFILES
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name not in PROFILES:
            raise argparse.ArgumentTypeError(
                f"unknown fault profile {name!r} "
                f"(choose from {', '.join(sorted(PROFILES))})")
    return names


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default="GO", type=_catalog_name,
                   help="catalog abbreviation (Table 1), default GO")
    p.add_argument("--file", type=_existing_file,
                   help="load a .npz CSR snapshot or edge list "
                        "instead of a catalog graph")
    p.add_argument("--directed", action="store_true",
                   help="treat an edge-list file as directed")
    p.add_argument("--profile", default="small",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--seed", type=int, default=7)


def _add_serve_args(p: argparse.ArgumentParser, *, gpus: int,
                    tuning: bool = True) -> None:
    """The graph flags plus the serve workload of ``serve``, ``chaos``,
    ``monitor`` and ``report --serve`` (see :func:`_serve_workload`).
    ``tuning=False`` leaves out ``--zipf``, ``--max-pending``,
    ``--landmarks`` and ``--no-cache``, which ``report`` keeps at the
    engine's defaults."""
    _add_graph_args(p)
    g = p.add_argument_group("serve workload")
    g.add_argument("--rmat-scale", type=_positive_int,
                   help="serve an R-MAT graph of this scale instead of "
                        "the catalog graph")
    g.add_argument("--edge-factor", type=_positive_int, default=16,
                   help="edge factor for --rmat-scale (default 16)")
    g.add_argument("--queries", type=_positive_int, default=1024,
                   help="synthetic trace length (default 1024)")
    g.add_argument("--rate", type=_positive_float, default=512.0,
                   help="mean arrivals per simulated ms (default 512)")
    g.add_argument("--batch", type=int, default=64,
                   help="max sources per MS-BFS wave (default 64)")
    g.add_argument("--deadline-ms", type=float, default=2.0,
                   help="max simulated wait before a wave flush")
    g.add_argument("--timeout-ms", type=float,
                   help="per-wave timeout (simulated ms)")
    g.add_argument("--max-retries", type=int, default=2,
                   help="split-retries per timed-out wave (default 2)")
    g.add_argument("--gpus", type=_positive_int, default=gpus,
                   help=f"simulated device count (default {gpus})")
    g.add_argument("--hedge-ms", type=float,
                   help="hedge waves stuck past this many simulated ms")
    g.add_argument("--priorities", type=int, default=1,
                   help="distinct query priority classes in the trace "
                        "(default 1)")
    g.add_argument("--slo-ms", type=float,
                   help="latency SLO target (simulated ms); enables "
                        "error-budget and burn-rate monitoring")
    g.add_argument("--slo-availability", type=float, default=0.999,
                   help="SLO availability target (default 0.999)")
    if tuning:
        g.add_argument("--zipf", type=float, default=1.3,
                       help="source-popularity Zipf exponent (default 1.3)")
        g.add_argument("--max-pending", type=int, default=4096,
                       help="pending-query bound (backpressure)")
        g.add_argument("--landmarks", type=int, default=16,
                       help="landmark count for the distance cache")
        g.add_argument("--no-cache", action="store_true",
                       help="disable the landmark/hub-row cache")


def cmd_info(args) -> int:
    print(f"repro {__version__} — Enterprise BFS reproduction (SC '15)")
    print("\nSimulated devices:")
    for key, spec in DEVICES.items():
        print(f"  {key:6s} {spec.name:6s} {spec.sm_count:>3} SMs, "
              f"{spec.total_cores:>5} cores, "
              f"{spec.peak_bandwidth_gbps:.0f} GB/s, "
              f"Hyper-Q={'yes' if spec.hyperq_queues > 1 else 'no'}")
    print(f"\nAlgorithms: {', '.join(sorted(ALGORITHMS))}")
    print("Dataset catalog: run `python -m repro datasets`")
    return 0


def cmd_datasets(args) -> int:
    from .bench import format_table
    print(format_table(table1_rows(args.profile, args.seed)))
    return 0


def cmd_generate(args) -> int:
    try:
        if args.kind == "kron":
            g = kronecker_graph(args.scale, args.edge_factor,
                                seed=args.seed)
        elif args.kind == "rmat":
            g = rmat_graph(args.scale, args.edge_factor, seed=args.seed)
        elif args.kind == "powerlaw":
            g = powerlaw_graph(1 << args.scale, args.mean_degree,
                               args.exponent, seed=args.seed)
        else:
            g = road_mesh(1 << (args.scale // 2), seed=args.seed)
    except ValueError as exc:  # the generators' own range checks
        raise argparse.ArgumentError(None, str(exc)) from None
    out = Path(args.output)
    if out.suffix == ".npz":
        save_csr(g, out)
    else:
        write_edge_list(g, out)
    print(f"wrote {g.num_vertices:,} vertices / {g.num_edges:,} edges "
          f"to {out}")
    return 0


def cmd_bfs(args) -> int:
    g = _load_graph(args)
    source = _source(args, g)
    timeline_text = None
    if args.gpus > 1:
        m = multigpu_enterprise_bfs(g, source, args.gpus)
        result = m.result
        extra = (f"  comm {m.communication_ms:.4f} ms, "
                 f"ballot compression {m.compression_ratio:.1%}")
    else:
        device = GPUDevice(DEVICES[args.device])
        result = ALGORITHMS[args.algorithm](g, source, device=device)
        c = device.counters()
        extra = (f"  ldst {c.ldst_fu_utilization:.1%}, "
                 f"stall {c.stall_data_request:.1%}, "
                 f"power {c.power_w:.0f} W, "
                 f"gld_transactions {c.gld_transactions:,}")
        if args.timeline:
            from .bench.timeline import render_device_timeline
            timeline_text = render_device_timeline(device)
    if args.validate:
        validate_result(result, g)
        print("validation: OK (levels exact, tree legal)")
    print(f"{result.algorithm} on {g.name}: source {source}, "
          f"visited {result.visited:,}/{g.num_vertices:,}, "
          f"depth {result.depth}")
    print(f"  {result.time_ms:.4f} simulated ms, "
          f"{format_gteps(result.teps)}")
    print(extra)
    if args.trace:
        for t in result.traces:
            print(f"  L{t.level:<3} {t.direction:<9} "
                  f"frontier {t.frontier_count:>8,} "
                  f"edges {t.edges_checked:>9,} "
                  f"time {t.time_ms:8.4f} ms")
    if timeline_text is not None:
        print(timeline_text, end="")
    return 0


def cmd_app(args) -> int:
    from .apps import (
        betweenness_centrality,
        closeness_centrality,
        connected_components,
        double_sweep,
        strongly_connected_components,
        unweighted_sssp,
    )
    g = _load_graph(args)
    if args.app == "sssp":
        source = _source(args, g)
        r = unweighted_sssp(g, source)
        reach = r.reachable()
        print(f"sssp from {source}: {reach.size:,} reachable, "
              f"max distance {int(r.distances.max())}, "
              f"{r.time_ms:.4f} ms")
    elif args.app == "components":
        r = connected_components(g)
        print(f"{r.count:,} components; largest {r.largest:,} "
              f"({r.time_ms:.4f} ms)")
    elif args.app == "scc":
        r = strongly_connected_components(g)
        print(f"{r.count:,} strongly connected components; "
              f"largest {r.largest:,}")
    elif args.app == "bc":
        r = betweenness_centrality(g, sources=min(args.samples,
                                                  g.num_vertices))
        top = np.argsort(r.scores)[-5:][::-1]
        print("top betweenness:", ", ".join(
            f"{int(v)} ({r.scores[v]:.1f})" for v in top))
    elif args.app == "kcore":
        from .apps import k_core_decomposition
        r = k_core_decomposition(g)
        print(f"max core {r.max_core}; {r.core_members(r.max_core).size:,} "
              f"vertices in the innermost core "
              f"({r.peeling_rounds} peeling rounds)")
    elif args.app == "pagerank":
        from .apps import pagerank
        r = pagerank(g)
        top = r.top(5)
        print("top pagerank:", ", ".join(
            f"{int(v)} ({r.scores[v]:.5f})" for v in top))
    elif args.app == "closeness":
        r = closeness_centrality(g, sources=min(args.samples,
                                                g.num_vertices))
        top = r.top(5)
        print("top closeness:", ", ".join(
            f"{int(v)} ({r.scores[v]:.3f})" for v in top))
    else:  # diameter
        est = double_sweep(g)
        print(f"diameter lower bound {est.lower_bound} "
              f"(endpoints {est.endpoint_a} / {est.endpoint_b}, "
              f"{est.time_ms:.4f} ms)")
    return 0


def cmd_summarize(args) -> int:
    from .bench import format_table
    from .graph import summarize
    g = _load_graph(args)
    s = summarize(g)
    print(format_table([dict(s.rows())], floatfmt=".4f"))
    return 0


def cmd_occupancy(args) -> int:
    from .gpu import KernelResources, occupancy
    r = occupancy(
        KernelResources(threads_per_block=args.threads,
                        registers_per_thread=args.registers,
                        shared_bytes_per_block=args.shared),
        DEVICES[args.device],
        shared_config_bytes=args.shared_config * 1024
        if args.shared_config else None,
    )
    print(f"{DEVICES[args.device].name}: {r.blocks_per_sm} blocks/SMX, "
          f"{r.warps_per_sm} warps/SMX, occupancy {r.occupancy:.0%} "
          f"(limited by {r.limiter})")
    return 0


def _load_baselines(args) -> None:
    """Replace the ``--diff`` and ``--compare`` paths with the documents
    they hold, validated before any work; a malformed one is a usage
    error."""
    from .observ import PROFILE_SCHEMA, SNAPSHOT_SCHEMA, load_artifact

    for flag, tag in (("diff", SNAPSHOT_SCHEMA),
                      ("compare", PROFILE_SCHEMA)):
        path = getattr(args, flag, None)
        if path:
            try:
                setattr(args, flag, load_artifact(path, tag))
            except ValueError as exc:
                raise argparse.ArgumentError(
                    None, f"--{flag} {path}: {exc}") from None


def _emit_snapshot(args, label: str, build) -> int:
    """The shared ``--snapshot``/``--diff`` path: write the snapshot
    ``build()`` returns, then gate it against the ``--diff`` snapshot
    (loaded by :func:`_load_baselines`).  Returns 1 when the gate finds
    a regression, else 0."""
    if not (args.snapshot or args.diff):
        return 0
    from .observ import diff_snapshots, write_artifact

    snap = build()
    if args.snapshot:
        write_artifact(args.snapshot, snap)
        print(f"wrote {args.snapshot} ({label}, "
              f"{len(snap['metrics'])} metrics)")
    if not args.diff:
        return 0
    diff = diff_snapshots(args.diff, snap, rel_tol=args.tolerance)
    print(diff.format())
    return 0 if diff.ok else 1


def cmd_trace(args) -> int:
    from .observ import collecting, run_snapshot, tracing

    g = _load_graph(args)
    source = _source(args, g)
    with tracing() as tracer, collecting() as registry:
        device = GPUDevice(DEVICES[args.device])
        result = ALGORITHMS[args.algorithm](g, source, device=device)
    print(f"{result.algorithm} on {g.name}: source {source}, "
          f"visited {result.visited:,}/{g.num_vertices:,}, "
          f"{result.time_ms:.4f} simulated ms, {format_gteps(result.teps)}")
    _write_trace(Path(args.out or f"{g.name}.trace.json"), tracer,
                 algorithm=result.algorithm, graph=g.name, source=source,
                 device=DEVICES[args.device].name)
    if args.metrics:
        path = registry.write_ndjson(args.metrics)
        print(f"wrote {path} ({len(registry)} metric series, NDJSON)")
    return _emit_snapshot(args, "counter snapshot", lambda: run_snapshot(
        result, device=device, registry=registry))


def _cmd_profile_cluster(args) -> int:
    """``profile --cluster``: one profiled cluster-BFS run."""
    from .observ import write_artifact
    from .observ.clusterprof import (
        cluster_to_json,
        diagnose_cluster,
        format_cluster_profile,
        profile_cluster_run,
        render_cluster_html,
    )

    g = _load_graph(args)
    faults = None if args.faults == "none" else args.faults
    prof = profile_cluster_run(
        g, args.source, args.nodes, args.gpus_per_node,
        parts_per_node=args.parts_per_node, seed=args.seed,
        faults=faults, spec=DEVICES[args.device])
    print(format_cluster_profile(prof, max_findings=args.findings))
    if args.out:
        write_artifact(args.out, cluster_to_json(prof))
        print(f"wrote {args.out} (cluster profile artifact, "
              f"{len(prof.levels)} levels, "
              f"{len(diagnose_cluster(prof))} findings)")
    if args.html:
        Path(args.html).write_text(render_cluster_html(prof))
        print(f"wrote {args.html} (self-contained HTML report)")
    return 0


def cmd_profile(args) -> int:
    from .observ import write_artifact
    from .observ.profiler import (
        diff_profiles,
        format_diff,
        format_profile,
        from_json,
        profile_run,
        render_html,
        to_json,
    )

    if args.cluster:
        return _cmd_profile_cluster(args)
    g = _load_graph(args)

    if args.bench_dir:
        # Continuous profiling: the Fig. 13 ablation ladder, one
        # artifact per row (what the CI job uploads).
        from .bench import format_table
        from .bench.runner import run_profiled_bench
        rows, paths = run_profiled_bench(
            [g], spec=DEVICES[args.device], seed=args.seed,
            out_dir=args.bench_dir)
        print(format_table([{k: v for k, v in row.items()
                             if k != "profile"} for row in rows],
                           floatfmt=".4f"))
        print(f"wrote {len(paths)} profile artifacts to {args.bench_dir}/")
        return 0

    config = None if args.config == "enterprise" \
        else ABLATION_CONFIGS[args.config]
    prof = profile_run(g, args.source, config=config,
                       spec=DEVICES[args.device], seed=args.seed)
    print(format_profile(prof, max_findings=args.findings))

    diff = None
    if args.compare:
        before = from_json(args.compare)
        diff = diff_profiles(before, prof)
        print()
        print(format_diff(diff, top=args.top))

    if args.out:
        write_artifact(args.out, to_json(prof))
        print(f"wrote {args.out} (profile artifact, "
              f"{len(prof.levels)} levels)")
    if args.html:
        Path(args.html).write_text(render_html(prof, diff=diff))
        print(f"wrote {args.html} (self-contained HTML report)")

    if diff is not None and diff.coverage < args.min_coverage:
        print(f"attribution coverage {diff.coverage:.1%} below "
              f"{args.min_coverage:.0%}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    from .observ import Tracer, tracing
    from .serve import (
        ServeEngine,
        format_latency_ms,
        replay,
        run_serve_bench,
        synthetic_trace,
    )

    config, trace_config = _serve_workload(
        args, num_nodes=args.nodes, locality=args.locality,
        faults=args.faults, fault_seed=args.seed,
        shed_overload=not args.no_shed)
    g = _load_graph(args)
    tracer = Tracer() if args.trace_out else None

    if args.bench or args.check:
        # --check without --bench still needs the clean baseline as
        # ground truth, so it takes the bench path too.
        report = run_serve_bench(g, trace_config=trace_config,
                                 config=config, check=args.check,
                                 tracer=tracer)
        print(report.summary())
        if report.batched.slo is not None:
            print(report.batched.slo.summary())
        if tracer is not None:
            _write_trace(args.trace_out, tracer, graph=g.name, mode="serve")
        return _emit_snapshot(args, "serve bench snapshot",
                              report.snapshot)

    with tracing(tracer) if tracer is not None else nullcontext():
        engine = ServeEngine(g, config)
        replay(engine, synthetic_trace(g, trace_config))
    s = engine.stats()
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(s.by_kind.items()))
    print(f"served {s.served:,} queries on {g.name} ({kinds})")
    print(f"  {s.dispatch.waves} waves, mean width "
          f"{s.dispatch.mean_wave_width:.1f}, "
          f"{s.coalesced_queries} coalesced, "
          f"cache hit rate {s.cache.hit_rate:.1%} "
          f"({s.cache.row_hits} row / {s.cache.landmark_hits} landmark)")
    print(f"  throughput {s.qps:,.1f} q/s, p50 "
          f"{format_latency_ms(s.latency_percentile(50))} ms, p95 "
          f"{format_latency_ms(s.latency_percentile(95))} ms, p99 "
          f"{format_latency_ms(s.latency_percentile(99))} ms")
    print(f"  warmup {s.warmup_ms:.4f} ms, makespan {s.makespan_ms:.4f} "
          f"ms, {s.dispatch.timeouts} timeouts, {s.dispatch.retries} "
          f"retries, {s.rejected} rejected, {s.shed} shed")
    if args.locality:
        print(f"  locality ({args.nodes} nodes): "
              f"{s.dispatch.locality_hits} waves on the owning node, "
              f"{s.dispatch.locality_misses} spilled elsewhere")
    if args.faults != "none":
        print(f"  faults '{args.faults}': "
              f"{s.dispatch.wave_failures} wave failures, "
              f"{s.dispatch.failovers} failovers, "
              f"{s.dispatch.hedges} hedges, "
              f"{s.quarantines} quarantines, "
              f"{s.dispatch.devices_lost} device(s) lost")
    if s.slo is not None:
        print(s.slo.summary())
    if tracer is not None:
        _write_trace(args.trace_out, tracer, graph=g.name, mode="serve")
    return 0


def cmd_chaos(args) -> int:
    from .faults import PROFILES, profile
    from .faults.harness import run_chaos_matrix

    config, trace_config = _serve_workload(args)
    g = _load_graph(args)
    plans = [profile(name, seed=args.seed)
             for name in args.profiles or PROFILES]
    report = run_chaos_matrix(g, plans, trace_config=trace_config,
                              config=config)
    print(report.summary())
    status = _emit_snapshot(args, "chaos matrix snapshot", report.snapshot)
    return max(status, 0 if report.ok else 1)


def cmd_monitor(args) -> int:
    """``monitor``: watch a serving run live — calibrated anomaly
    detection, text dashboard, optional HTML timeline and findings
    export.  A fault-free twin of the same workload runs first to
    calibrate reference bands, so a clean run reports zero anomalies
    and a faulted one reports a deterministic timeline."""
    from .faults.plan import profile
    from .observ import collecting, tracing, write_artifact
    from .observ.monitor import (
        LiveMonitor,
        MonitorConfig,
        render_dashboard,
        render_html,
    )
    from .observ.snapshot import bench_snapshot
    from .observ.whatif import suggest_serve_mutations
    from .serve import ServeEngine, replay, synthetic_trace

    config, trace_config = _serve_workload(args)
    g = _load_graph(args)
    trace = synthetic_trace(g, trace_config)
    monitor_config = MonitorConfig.for_trace(trace, samples=args.samples) \
        if args.cadence_ms is None else \
        MonitorConfig(cadence_ms=args.cadence_ms)

    # Both runs under a scoped registry/tracer: the dashboard must be a
    # pure function of the workload, not of earlier commands.
    with collecting(), \
            (tracing() if args.trace_out else nullcontext()) as tracer:
        reference = LiveMonitor(monitor_config)
        replay(ServeEngine(g, config, fault_plan=profile("none"),
                           monitor=reference), trace)
        live = LiveMonitor(monitor_config)
        live.calibrate(reference)
        plan = profile(args.faults, seed=args.seed)
        engine = ServeEngine(g, config, fault_plan=plan, monitor=live)
        replay(engine, trace)
        stats = engine.stats()

    title = f"{g.name} ({args.queries} queries, faults '{args.faults}')"
    print(render_dashboard(live, title=title))

    if args.whatif:
        print("\n-- what-if: predicted knob impacts --")
        predictions = suggest_serve_mutations(stats, config)
        if predictions:
            for prediction in predictions:
                print("  " + prediction.line())
        else:
            print("  (no bounded mutation available for this config)")

    anomalies = live.anomalies()
    if args.out:
        write_artifact(args.out, live.bus.to_json())
        print(f"wrote {args.out} ({len(live.bus)} findings)")
    if args.series_out:
        write_artifact(args.series_out, live.board.to_json())
        print(f"wrote {args.series_out} "
              f"({len(live.board.names())} series, "
              f"{live.board.ticks} ticks)")
    if args.html:
        Path(args.html).write_text(render_html(live, title=title))
        print(f"wrote {args.html} "
              f"({Path(args.html).stat().st_size:,} bytes)")
    if args.trace_out:
        _write_trace(args.trace_out, tracer, graph=g.name, mode="serve")

    def snapshot() -> dict:
        rows = []
        for name in live.board.names():
            series = live.board.series(name)
            values = series.values()
            if not values:
                continue
            rows.append({
                "series": name,
                "mean": sum(values) / len(values),
                "last": series.last,
                "anomalies": sum(1 for a in anomalies
                                 if a.series == name),
            })
        return bench_snapshot("monitor", rows)

    status = _emit_snapshot(args, "monitor snapshot", snapshot)
    if args.fail_on_anomaly and anomalies:
        print(f"FAIL: {len(anomalies)} anomalies "
              f"(--fail-on-anomaly)", file=sys.stderr)
        status = max(status, 1)
    return status


def cmd_report(args) -> int:
    if args.serve:
        return _cmd_report_serve(args)
    if args.cluster:
        return _cmd_report_cluster(args)
    from .bench.report import write_report
    path = write_report(args.output or "report.md",
                        profile=args.profile, seed=args.seed)
    print(f"wrote {path} ({path.stat().st_size:,} bytes)")
    return 0


def _cmd_report_cluster(args) -> int:
    """``report --cluster``: weak-scaling sweep over ``--node-counts``,
    per-tier profiles at every node count, the efficiency-gap waterfall
    decomposition, and ranked cluster findings.  Text to stdout; ``-o``
    writes HTML (per-node Gantt + waterfall) when the path ends in
    ``.html``, text otherwise; ``--trace-out`` re-runs the largest
    configuration traced and exports the validated per-node timeline."""
    from .bench.cluster import run_weak_scaling
    from .observ import write_artifact
    from .observ.clusterprof import (
        build_cluster_profile,
        cluster_to_json,
        decompose_weak_scaling,
        format_cluster_profile,
        format_weak_scaling,
        render_cluster_html,
    )

    counts = args.node_counts
    rows, results = run_weak_scaling(
        counts, gpus_per_node=args.gpus_per_node,
        base_scale=args.base_scale, edge_factor=args.edge_factor,
        seed=args.seed, parts_per_node=args.parts_per_node,
        return_results=True)
    profiles = [build_cluster_profile(r) for r in results]
    decomp = decompose_weak_scaling(profiles)
    focus = profiles[-1]
    print(format_weak_scaling(decomp))
    print()
    print(format_cluster_profile(focus))
    if args.trace_out:
        from .bfs import cluster_enterprise_bfs
        from .observ import tracing

        # Re-run the largest configuration with the tracer installed
        # (same graph/source construction as run_weak_scaling).
        scale = args.base_scale + int(round(np.log2(counts[-1])))
        g = rmat_graph(scale, args.edge_factor, seed=args.seed,
                       name=f"cluster-weak-{counts[-1]}n")
        source = int(np.argmax(g.out_degrees))
        with tracing() as tracer:
            cluster_enterprise_bfs(g, source, counts[-1],
                                   args.gpus_per_node,
                                   parts_per_node=args.parts_per_node)
        _write_trace(args.trace_out, tracer, nodes=counts[-1],
                     graph=g.name, mode="cluster")
    if args.profile_out:
        write_artifact(args.profile_out, cluster_to_json(focus))
        print(f"wrote {args.profile_out} (cluster profile, "
              f"{len(focus.levels)} levels at {focus.num_nodes} nodes)")
    if args.output:
        path = Path(args.output)
        if path.suffix == ".html":
            path.write_text(render_cluster_html(
                focus, decomposition=decomp,
                title=f"cluster report — weak scaling to "
                      f"{counts[-1]} nodes"))
        else:
            path.write_text(format_weak_scaling(decomp) + "\n\n"
                            + format_cluster_profile(focus) + "\n")
        print(f"wrote {path} ({path.stat().st_size:,} bytes)")
    return 0


def _cmd_report_serve(args) -> int:
    """``report --serve``: run a deterministic serving workload and
    render the phase-breakdown / SLO / device report (text to stdout,
    or text/HTML to ``-o``)."""
    from .observ import collecting, tracing
    from .serve import ServeEngine, ServeReport, replay, synthetic_trace

    config, trace_config = _serve_workload(args, faults=args.faults,
                                           fault_seed=args.seed)
    g = _load_graph(args)
    with collecting(), \
            (tracing() if args.trace_out else nullcontext()) as tracer:
        engine = ServeEngine(g, config)
        replay(engine, synthetic_trace(g, trace_config))
        report = ServeReport.from_engine(
            engine, title=f"serve report — {g.name} "
                          f"({args.queries} queries, "
                          f"faults '{args.faults}')")

    print(report.to_text())
    if args.output:
        path = report.write(args.output)
        print(f"wrote {path} ({path.stat().st_size:,} bytes)")
    if args.trace_out:
        _write_trace(args.trace_out, tracer, graph=g.name, mode="serve")
    return 0


def cmd_bench(args) -> int:
    from .bench import figures, format_table
    fn = getattr(figures, args.figure, None)
    if fn is None:
        names = [n for n in dir(figures) if n.startswith("fig")]
        print(f"unknown figure {args.figure!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    data = fn(profile=args.profile)
    if isinstance(data, dict):
        for key, rows in data.items():
            print(f"-- {key}")
            print(format_table(rows) if isinstance(rows, list)
                  else rows)
    else:
        print(format_table(data))
    from .observ import bench_snapshot
    return _emit_snapshot(args, "bench snapshot",
                          lambda: bench_snapshot(args.figure, data))


def cmd_cluster(args) -> int:
    if args.verb == "weak":
        return _cmd_cluster_weak(args)
    return _cmd_cluster_bfs(args)


def _cmd_cluster_bfs(args) -> int:
    from .bfs import cluster_enterprise_bfs
    from .gpu.fabric import Fabric
    from .observ import tracing

    g = _load_graph(args)
    source = _source(args, g)
    plan = None
    if args.faults != "none":
        from .faults.plan import profile as fault_profile
        plan = fault_profile(args.faults, seed=args.seed)
    fabric = Fabric(args.nodes, args.gpus_per_node, fault_plan=plan)
    with (tracing() if args.trace_out else nullcontext()) as tracer:
        r = cluster_enterprise_bfs(g, source, args.nodes,
                                   gpus_per_node=args.gpus_per_node,
                                   fabric=fabric,
                                   parts_per_node=args.parts_per_node)
    res = r.result
    print(f"{res.algorithm} on {g.name}: source {source}, "
          f"visited {res.visited:,}/{g.num_vertices:,}, "
          f"depth {res.depth}")
    print(f"  {r.time_ms:.4f} simulated ms, {format_gteps(r.teps)}")
    print(f"  compute {r.computation_ms:.4f} ms, "
          f"intra {r.intra_ms:.4f} ms, inter {r.inter_ms:.4f} ms, "
          f"io {r.io_ms:.4f} ms, collectives {r.collective_ms:.4f} ms")
    print(f"  bytes: NVLink {r.bytes_intra:,}, "
          f"fabric {r.bytes_inter:,}, storage {r.bytes_read:,} "
          f"(largest node shard {max(r.shard_bytes):,} of "
          f"{r.total_adjacency_bytes:,} adjacency)")
    adv = r.hierarchy_advantage
    adv_text = f"{adv:.2f}x" if np.isfinite(adv) else "inf"
    print(f"  hierarchy advantage {adv_text} vs flat inter-node rings")
    if args.trace_out:
        _write_trace(args.trace_out, tracer, nodes=args.nodes,
                     graph=g.name, mode="cluster")
    if args.profile_out:
        from .observ import write_artifact
        from .observ.clusterprof import (
            build_cluster_profile,
            cluster_to_json,
        )
        prof = build_cluster_profile(
            r, fabric=fabric,
            meta={"seed": args.seed, "faults": args.faults,
                  "source": source})
        write_artifact(args.profile_out, cluster_to_json(prof))
        print(f"wrote {args.profile_out} (cluster profile, "
              f"{len(prof.levels)} levels)")
    if args.check:
        ref = enterprise_bfs(g, source)
        exact = np.array_equal(res.levels, ref.levels)
        ledger = r.bytes_exchanged == sum(r.charged_payloads)
        if exact and ledger:
            print("check: OK (levels match single-GPU reference, "
                  "exchange ledger exact)")
            return 0
        if not exact:
            print("check: FAIL — levels diverge from the single-GPU "
                  "reference", file=sys.stderr)
        if not ledger:
            print(f"check: FAIL — ledger mismatch "
                  f"({r.bytes_exchanged:,} != "
                  f"{sum(r.charged_payloads):,})", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_weak(args) -> int:
    from .bench import format_table, run_weak_scaling

    rows = run_weak_scaling(args.node_counts,
                            gpus_per_node=args.gpus_per_node,
                            base_scale=args.base_scale,
                            edge_factor=args.edge_factor,
                            seed=args.seed,
                            parts_per_node=args.parts_per_node,
                            check=args.check)
    print(format_table(rows))
    code = 0
    if args.check and any(not row.get("exact", 0) for row in rows):
        print("check: FAIL — a cluster run diverged from its "
              "single-GPU reference", file=sys.stderr)
        code = 1
    from .observ import bench_snapshot
    return max(code, _emit_snapshot(
        args, "cluster snapshot",
        lambda: bench_snapshot("fig15_cluster", {"weak_node": rows})))


def build_parser() -> argparse.ArgumentParser:
    from .faults import PROFILES as _FAULT_PROFILES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Enterprise GPU BFS reproduction (SC '15)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # --snapshot/--diff/--tolerance, shared by every verb that writes a
    # versioned snapshot (see _emit_snapshot).
    snapshot = argparse.ArgumentParser(add_help=False)
    snapshot.add_argument("--snapshot",
                          help="also write the results as a versioned "
                               "snapshot JSON")
    snapshot.add_argument("--diff", metavar="OLD_SNAPSHOT",
                          type=_existing_file,
                          help="compare against a previous snapshot; "
                               "exit 1 on regression")
    snapshot.add_argument("--tolerance", type=float, default=0.05,
                          help="relative tolerance for --diff "
                               "(default 0.05)")

    sub.add_parser("info", help="package and device summary")

    p = sub.add_parser("datasets", help="print the Table-1 catalog")
    p.add_argument("--profile", default="small",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("generate", help="generate and save a graph")
    p.add_argument("kind", choices=("kron", "rmat", "powerlaw", "mesh"))
    p.add_argument("output", help=".npz snapshot or edge-list path")
    p.add_argument("--scale", type=int, default=14)
    p.add_argument("--edge-factor", type=int, default=16)
    p.add_argument("--mean-degree", type=float, default=16.0)
    p.add_argument("--exponent", type=float, default=2.1)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("bfs", help="run a traversal")
    _add_graph_args(p)
    p.add_argument("--algorithm", default="enterprise",
                   choices=sorted(ALGORITHMS))
    p.add_argument("--device", default="k40", choices=sorted(DEVICES))
    p.add_argument("--source", type=int)
    p.add_argument("--gpus", type=_positive_int, default=1)
    p.add_argument("--trace", action="store_true",
                   help="print the per-level trace")
    p.add_argument("--timeline", action="store_true",
                   help="render the device launch timeline (Fig. 8 style)")
    p.add_argument("--validate", action="store_true",
                   help="check against the reference BFS")

    p = sub.add_parser("app", help="run a downstream analytic")
    _add_graph_args(p)
    p.add_argument("app", choices=("sssp", "components", "scc", "bc",
                                   "closeness", "diameter", "kcore",
                                   "pagerank"))
    p.add_argument("--source", type=int)
    p.add_argument("--samples", type=int, default=16)

    p = sub.add_parser("trace", parents=[snapshot],
                       help="export a Chrome/Perfetto trace of one run")
    p.add_argument("graph_arg", nargs="?", metavar="graph",
                   type=_catalog_name,
                   help="catalog abbreviation (same as --graph)")
    _add_graph_args(p)
    p.add_argument("--algorithm", default="enterprise",
                   choices=sorted(ALGORITHMS))
    p.add_argument("--device", default="k40", choices=sorted(DEVICES))
    p.add_argument("--source", type=int)
    p.add_argument("-o", "--out",
                   help="trace JSON path (default <graph>.trace.json)")
    p.add_argument("--metrics",
                   help="also write the metrics registry as NDJSON")

    p = sub.add_parser("profile",
                       help="kernel-level profile: roofline verdicts, "
                            "ranked bottleneck findings, differential "
                            "GTEPS attribution")
    p.add_argument("graph_arg", nargs="?", metavar="graph",
                   type=_catalog_name,
                   help="catalog abbreviation (same as --graph)")
    _add_graph_args(p)
    p.add_argument("--config", default="enterprise",
                   choices=("enterprise", *sorted(ABLATION_CONFIGS)),
                   help="ablation rung to profile (default: full "
                        "Enterprise)")
    p.add_argument("--device", default="k40", choices=sorted(DEVICES))
    p.add_argument("--source", type=int)
    p.add_argument("-o", "--out",
                   help="write the repro.profile/v2 JSON artifact")
    p.add_argument("--html", metavar="PATH",
                   help="write a self-contained HTML flame-style report")
    p.add_argument("--compare", metavar="PROFILE_JSON",
                   type=_existing_file,
                   help="differential profile against a previous "
                        "artifact (that run is 'before'); exit 1 if "
                        "attribution coverage < --min-coverage")
    p.add_argument("--min-coverage", type=float, default=0.95,
                   help="required --compare attribution coverage "
                        "(default 0.95)")
    p.add_argument("--top", type=int, default=10,
                   help="attribution cells to print (default 10)")
    p.add_argument("--findings", type=int, default=8,
                   help="max ranked findings (default 8)")
    p.add_argument("--bench-dir", metavar="DIR",
                   help="continuous profiling: run the ablation ladder "
                        "on the graph, one profile artifact per row")
    p.add_argument("--cluster", action="store_true",
                   help="profile a multi-node cluster BFS instead: "
                        "per-tier fabric attribution (compute / "
                        "exchanges / allreduce / staging), straggler "
                        "findings, repro.clusterprofile/v2 artifact")
    p.add_argument("--nodes", type=_positive_int, default=4,
                   help="cluster nodes for --cluster (default 4)")
    p.add_argument("--gpus-per-node", type=_positive_int, default=2,
                   help="GPUs per node for --cluster (default 2)")
    p.add_argument("--parts-per-node", type=_positive_int, default=32,
                   help="out-of-core partitions per node for --cluster "
                        "(default 32)")
    p.add_argument("--faults", default="none",
                   choices=sorted(_FAULT_PROFILES),
                   help="fault profile degrading the --cluster fabric "
                        "(default none)")

    p = sub.add_parser("bench", parents=[snapshot],
                       help="regenerate a paper figure")
    p.add_argument("figure", help="e.g. fig13_ablation, fig05_degree_cdf")
    p.add_argument("--profile", default="small",
                   choices=("tiny", "small", "medium"))

    p = sub.add_parser("serve", parents=[snapshot],
                       help="batched BFS query serving (MS-BFS waves + "
                            "landmark cache); --snapshot/--diff need "
                            "--bench or --check")
    _add_serve_args(p, gpus=1)
    p.add_argument("--nodes", type=_positive_int, default=1,
                   help="simulated nodes the --gpus devices are spread "
                        "over (default 1; --gpus must divide evenly)")
    p.add_argument("--locality", action="store_true",
                   help="route each wave to the node owning the "
                        "majority of its sources' partitions")
    p.add_argument("--faults", default="none", choices=_FAULT_PROFILES,
                   help="inject a named fault profile (default none)")
    p.add_argument("--no-shed", action="store_true",
                   help="reject at the batcher bound instead of shedding "
                        "lowest-priority queries under overload")
    p.add_argument("--trace-out",
                   help="export a Chrome/Perfetto trace of the serving "
                        "run (query flow events across device tracks)")
    p.add_argument("--bench", action="store_true",
                   help="also run the one-traversal-per-query baseline "
                        "and report the speedup")
    p.add_argument("--check", action="store_true",
                   help="assert batched answers equal a clean "
                        "one-traversal-per-query baseline's, query by "
                        "query (implies the --bench path)")

    p = sub.add_parser("chaos", parents=[snapshot],
                       help="fault-matrix differential harness: verify "
                            "exact answers under every fault profile")
    _add_serve_args(p, gpus=3)
    p.add_argument("--profiles", type=_fault_profiles,
                   help="comma-separated fault profiles (default: all)")

    p = sub.add_parser("monitor", parents=[snapshot],
                       help="watch a serving run live: calibrated "
                            "anomaly detection, text dashboard, HTML "
                            "timeline, findings export")
    _add_serve_args(p, gpus=3)
    p.add_argument("--faults", default="none", choices=_FAULT_PROFILES,
                   help="inject a named fault profile into the watched "
                        "run (the calibration twin is always fault-free)")
    p.add_argument("--cadence-ms", type=_positive_float,
                   help="sampling cadence in simulated ms (default: "
                        "scaled so the run spans ~--samples ticks)")
    p.add_argument("--samples", type=_positive_int, default=256,
                   help="target tick count when --cadence-ms is unset")
    p.add_argument("--whatif", action="store_true",
                   help="also print predicted knob-impact suggestions")
    p.add_argument("--out",
                   help="write the repro.findings/v1 event stream "
                        "(byte-deterministic JSON)")
    p.add_argument("--series-out",
                   help="write the repro.timeseries/v1 sample board")
    p.add_argument("--html",
                   help="write a self-contained HTML timeline")
    p.add_argument("--trace-out",
                   help="export a Chrome/Perfetto trace with anomaly "
                        "instant markers")
    p.add_argument("--fail-on-anomaly", action="store_true",
                   help="exit 1 if any anomaly fired (CI gate)")

    p = sub.add_parser("cluster", parents=[snapshot],
                       help="BFS over a simulated multi-node fabric "
                            "(two-tier NVLink + InfiniBand, out-of-core "
                            "shards per node); --snapshot/--diff need "
                            "the weak verb")
    p.add_argument("verb", choices=("bfs", "weak"),
                   help="bfs: one cluster traversal with the tiered "
                        "cost ledger; weak: the Fig-15-style "
                        "weak-scaling matrix across node counts")
    _add_graph_args(p)
    p.add_argument("--rmat-scale", type=_positive_int,
                   help="with bfs: traverse an R-MAT graph of this "
                        "scale instead of the catalog graph")
    p.add_argument("--edge-factor", type=_positive_int, default=16,
                   help="R-MAT edge factor (default 16)")
    p.add_argument("--source", type=int,
                   help="with bfs: source vertex (default: random)")
    p.add_argument("--nodes", type=_positive_int, default=2,
                   help="with bfs: simulated node count (default 2)")
    p.add_argument("--node-counts", type=_positive_ints, default="1,2,4,8",
                   help="with weak: comma-separated node counts "
                        "(default 1,2,4,8)")
    p.add_argument("--gpus-per-node", type=_positive_int, default=2,
                   help="GPUs per simulated node (default 2)")
    p.add_argument("--base-scale", type=_positive_int, default=15,
                   help="with weak: R-MAT scale at 1 node; grows "
                        "log2(nodes) with the node count (default 15)")
    p.add_argument("--parts-per-node", type=_positive_int, default=32,
                   help="out-of-core partitions per node shard "
                        "(default 32)")
    p.add_argument("--check", action="store_true",
                   help="verify levels are bit-identical to the "
                        "single-GPU reference and the exchange ledger "
                        "is exact; exit 1 otherwise")
    p.add_argument("--trace-out",
                   help="with bfs: export a validated Chrome/Perfetto "
                        "trace (pid = node, cross-node flow arrows per "
                        "collective)")
    p.add_argument("--profile-out",
                   help="with bfs: write the repro.clusterprofile/v2 "
                        "per-tier attribution artifact")
    p.add_argument("--faults", default="none",
                   choices=sorted(_FAULT_PROFILES),
                   help="with bfs: degrade the fabric with a named "
                        "fault profile (default none)")

    p = sub.add_parser("summarize",
                       help="structural profile of a graph")
    _add_graph_args(p)

    p = sub.add_parser("occupancy",
                       help="CUDA occupancy calculator (§4.3 arithmetic)")
    p.add_argument("--threads", type=int, default=256)
    p.add_argument("--registers", type=int, default=32)
    p.add_argument("--shared", type=int, default=0,
                   help="shared bytes per block")
    p.add_argument("--shared-config", type=int, choices=(16, 32, 48),
                   help="SMX shared-memory split in KB")
    p.add_argument("--device", default="k40", choices=sorted(DEVICES))

    p = sub.add_parser("report",
                       help="regenerate the full evaluation as markdown, "
                            "(--serve) render a serving-run report, or "
                            "(--cluster) the weak-scaling waterfall + "
                            "per-tier cluster report")
    p.add_argument("-o", "--output",
                   help="output path (markdown mode default: report.md; "
                        "--serve/--cluster modes: .html for an HTML "
                        "report, anything else for text)")
    p.add_argument("--serve", action="store_true",
                   help="serving-run report instead of the evaluation "
                        "markdown")
    p.add_argument("--cluster", action="store_true",
                   help="cluster report: weak-scaling sweep, per-tier "
                        "time attribution, efficiency-gap waterfall, "
                        "ranked findings")
    p.add_argument("--node-counts", type=_positive_ints, default="1,2,4,8",
                   help="with --cluster: comma-separated node counts "
                        "(default 1,2,4,8)")
    p.add_argument("--base-scale", type=_positive_int, default=12,
                   help="with --cluster: R-MAT scale at 1 node; grows "
                        "log2(nodes) with the node count (default 12)")
    p.add_argument("--gpus-per-node", type=_positive_int, default=2,
                   help="with --cluster: GPUs per simulated node "
                        "(default 2)")
    p.add_argument("--parts-per-node", type=_positive_int, default=32,
                   help="with --cluster: out-of-core partitions per "
                        "node shard (default 32)")
    p.add_argument("--profile-out",
                   help="with --cluster: also write the largest node "
                        "count's repro.clusterprofile/v2 artifact")
    _add_serve_args(p, gpus=3, tuning=False)
    p.add_argument("--faults", default="none", choices=_FAULT_PROFILES,
                   help="with --serve: inject a named fault profile")
    p.add_argument("--trace-out",
                   help="with --serve/--cluster: also export a validated "
                        "Chrome/Perfetto trace of the run (--cluster: "
                        "the largest node count, pid = node)")
    return parser


COMMANDS = {
    "info": cmd_info,
    "datasets": cmd_datasets,
    "generate": cmd_generate,
    "bfs": cmd_bfs,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "app": cmd_app,
    "bench": cmd_bench,
    "cluster": cmd_cluster,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "monitor": cmd_monitor,
    "report": cmd_report,
    "summarize": cmd_summarize,
    "occupancy": cmd_occupancy,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    snapshot = getattr(args, "snapshot", None) or getattr(args, "diff", None)
    if snapshot and args.command == "serve" \
            and not (args.bench or args.check):
        parser.error("serve: --snapshot and --diff need --bench or --check")
    if snapshot and args.command == "cluster" and args.verb != "weak":
        parser.error("cluster: --snapshot and --diff need the weak verb")
    if args.command == "profile" and args.cluster:
        for flag, given in (("--compare", args.compare),
                            ("--bench-dir", args.bench_dir),
                            ("--config", args.config != "enterprise")):
            if given:
                parser.error(f"profile: {flag} does not apply to --cluster")
    try:
        _load_baselines(args)
        return COMMANDS[args.command](args)
    except argparse.ArgumentError as exc:
        # A malformed baseline file, or a range only a config checks.
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
