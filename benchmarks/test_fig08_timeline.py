"""Figure 8 — execution timeline at the Facebook explosion level.

Paper story: the baseline spends 490 ms on expansion+inspection; TS
invests 23.6 ms of queue generation to cut expansion to 419 ms; WB's
classification (~5 ms more) then collapses it to 76.5 ms, with the
Thread (63.5 ms), Warp (17.8 ms) and CTA (10.5 ms) kernels overlapping
under Hyper-Q.  §4.1 adds that queue generation is ~11% of total runtime.
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.bench import PaperClaim, fig08_timeline, format_table
from repro.bfs import ABLATION_CONFIGS, enterprise_bfs
from repro.graph import load
from repro.metrics import random_sources


def test_fig08(benchmark, report):
    out = run_once(benchmark, fig08_timeline, "FB", profile="small")
    rows = [{"config": k, "queue_gen_ms": v.queue_gen_ms,
             "expand_ms": v.expand_ms, "total_ms": v.total_ms}
            for k, v in out.items()]
    emit("Figure 8: explosion-level timeline on FB", format_table(rows))
    emit("Figure 8(c): WB kernel breakdown",
         format_table([{"kernel": k, "time_ms": v}
                       for k, v in out["WB"].kernel_breakdown.items()]))

    bl, ts, wb = out["BL"], out["TS"], out["WB"]
    report.append(PaperClaim(
        "Fig. 8", "queue generation pays for itself at the explosion level",
        "BL 490 ms -> TS 419 ms despite 23.6 ms of queue gen",
        f"BL {bl.total_ms:.3f} ms -> TS {ts.total_ms:.3f} ms "
        f"(queue gen {ts.queue_gen_ms:.4f} ms)",
        ts.total_ms < bl.total_ms and ts.queue_gen_ms > 0,
    ))
    report.append(PaperClaim(
        "Fig. 8", "WB collapses the explosion level",
        "419 ms -> 76.5 ms (5.5x)",
        f"TS {ts.total_ms:.3f} ms -> WB {wb.total_ms:.3f} ms "
        f"({ts.total_ms / wb.total_ms:.1f}x)",
        wb.total_ms < 0.7 * ts.total_ms,
    ))
    # The WB level splits across multiple granularity kernels.
    expand_kernels = [k for k in wb.kernel_breakdown
                      if k.startswith(("td-", "bu-"))]
    report.append(PaperClaim(
        "Fig. 8c", "the level runs as concurrent Thread/Warp/CTA kernels",
        "three overlapping kernels",
        f"{sorted(expand_kernels)}",
        len(expand_kernels) >= 2,
    ))

    # §4.1: queue generation share of the whole traversal.
    g = load("FB", "small")
    src = int(random_sources(g, 1, 7)[0])
    full = enterprise_bfs(g, src, config=ABLATION_CONFIGS["WB"])
    qgen = sum(t.queue_gen_ms for t in full.traces)
    share = qgen / full.time_ms
    report.append(PaperClaim(
        "§4.1", "queue generation is a minority share of runtime",
        "~11% of the overall BFS runtime",
        f"{share:.1%}",
        0.005 < share < 0.45,
        deviation=1,
    ))
