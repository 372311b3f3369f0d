#!/usr/bin/env python3
"""Compare two perfbench records, workload by workload.

    python3 perfbench/compare.py A.json B.json

A and B are records ``run.py`` wrote (one workload, or a merged run of
all of them).  For every workload both hold and every end-to-end metric,
B's verdict against A is ``better`` or ``worse`` when it moved past the
metric's BENCHMARK.json bound in that direction, ``same`` within the
bound, and ``unresolved`` when the spread inside either run exceeds the
bound.  ``failed_frac`` (failed / attempted operations) allows no change
at all.  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    gain = change if better == "higher" else -change
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def failed_frac(entry: dict) -> float:
    return entry["failed"] / entry["attempted"]


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """(workload, metric, A value, B value, verdict) rows."""
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        fa, fb = failed_frac(entry_a), failed_frac(entry_b)
        rows.append((workload, "failed_frac", fa, fb,
                     "worse" if fb > fa else "better" if fb < fa
                     else "same"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in entry_a["metrics"] and name in entry_b["metrics"]:
                ma, mb = entry_a["metrics"][name], entry_b["metrics"][name]
                rows.append((workload, name, ma["value"], mb["value"],
                             verdict(ma, mb, metric["bound"],
                                     metric["better"])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline record")
    parser.add_argument("b", type=Path, help="record to judge against A")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows = compare(json.loads(args.a.read_text()),
                   json.loads(args.b.read_text()), spec)
    for workload, name, va, vb, word in rows:
        change = f"{(vb - va) / va:+.2%}" if va else ""
        note = " (identical)" if va == vb else ""
        print(f"{workload:<13} {name:<15} {va:>14.6g} {vb:>14.6g} "
              f"{change:>8} {word}{note}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
