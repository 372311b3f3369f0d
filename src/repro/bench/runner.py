"""Experiment plumbing: plain-text tables and paper-vs-measured records.

The benchmark suite regenerates every table and figure of the paper's
evaluation as *rows of numbers* (this is a headless reproduction — the
"figures" are their data series).  This module holds the shared
formatting and the :class:`PaperClaim` record used to print
paper-vs-measured lines into ``EXPERIMENTS.md`` and the bench output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "PaperClaim", "claims_report",
           "run_profiled_bench"]


def format_table(rows: Sequence[Mapping[str, object]],
                 *, floatfmt: str = ".3f") -> str:
    """Render dict-rows as an aligned plain-text table.

    Columns are the union of keys across all rows in first-seen order,
    so ragged rows (e.g. workloads reporting different metrics) render
    every key instead of silently dropping whatever ``rows[0]`` lacks.
    """
    if not rows:
        return "(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))

    def cell(value: object) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    rendered = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths))
                     for r in rendered)
    return f"{header}\n{rule}\n{body}"


@dataclass(frozen=True)
class PaperClaim:
    """One qualitative claim from the paper, checked against measurement.

    ``holds`` is evaluated by the bench that produced the record; the
    claim text quotes the paper, ``measured`` summarises what this
    reproduction observed.  ``deviation`` is the number of the
    EXPERIMENTS.md "Known deviations" entry that explains a claim which
    does not hold; the benchmark suite fails on any other such claim.
    """

    experiment: str
    claim: str
    paper_value: str
    measured: str
    holds: bool
    deviation: int | None = None

    def line(self) -> str:
        mark = "OK " if self.holds else "DEV"
        tag = (f" | EXPERIMENTS.md deviation {self.deviation}"
               if self.deviation is not None else "")
        return (f"[{mark}] {self.experiment}: {self.claim} | "
                f"paper: {self.paper_value} | measured: {self.measured}"
                f"{tag}")


def claims_report(claims: Iterable[PaperClaim]) -> str:
    """Multi-line paper-vs-measured report."""
    return "\n".join(c.line() for c in claims)


def run_profiled_bench(
    graphs: Sequence,
    configs: Mapping[str, object] | None = None,
    *,
    spec=None,
    seed: int = 7,
    out_dir: str | Path = "profiles",
) -> tuple[list[dict], list[Path]]:
    """Continuous profiling: run a graph x config matrix and emit one
    ``repro.profile/v1`` artifact per bench row.

    ``configs`` defaults to the Fig. 13 ablation ladder
    (:data:`~repro.bfs.enterprise.ABLATION_CONFIGS`).  Returns the bench
    rows (each naming its artifact) and the artifact paths, both in
    deterministic order; the rows carry the headline numbers plus the
    top ranked bottleneck finding so a regression in the table can be
    chased straight into its profile.
    """
    from ..bfs.enterprise import ABLATION_CONFIGS
    from ..observ.profiler import diagnose, profile_run, write_profile

    configs = dict(configs) if configs else dict(ABLATION_CONFIGS)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    paths: list[Path] = []
    for graph in graphs:
        for label, config in configs.items():
            prof = profile_run(graph, config=config, spec=spec, seed=seed,
                               meta={"bench": True, "config_key": label})
            slug = f"{graph.name}.{label}".replace("/", "-")
            path = write_profile(out / f"{slug}.profile.json", prof)
            findings = diagnose(prof, max_findings=1)
            rows.append({
                "graph": graph.name,
                "config": label,
                "gteps": prof.gteps,
                "time_ms": prof.time_ms,
                "depth": prof.depth,
                "bottleneck": findings[0].title if findings else "-",
                "profile": str(path),
            })
            paths.append(path)
    return rows, paths
