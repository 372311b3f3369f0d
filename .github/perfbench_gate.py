#!/usr/bin/env python3
"""CI gate over two perfbench records.

    python3 .github/perfbench_gate.py A.json B.json

Prints every row of ``perfbench/compare.py A.json B.json``, then exits
1 when ``failed_frac`` reads ``worse``, when a simulated metric
(``sim_*``) differs between A and B in any bit, or when a BENCHMARK.json
workload is missing from either record.  Every other row is printed,
not gated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import compare  # noqa: E402

#: The one metric gated on its ``worse`` verdict.
GATED = "failed_frac"


def main(argv: list[str]) -> int:
    a, b = argv
    compare.main([a, b])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare.compare(json.loads(Path(a).read_text()),
                           json.loads(Path(b).read_text()), spec)
    blocking = [f"{workload} {metric}: {verdict}, {va!r} -> {vb!r}"
                for workload, metric, va, vb, verdict in rows
                if (metric == GATED and verdict == "worse")
                or (metric.startswith("sim_") and va != vb)]
    missing = sorted({w["name"] for w in spec["workloads"]}
                     - {row[0] for row in rows})
    blocking += [f"{workload}: missing from a record"
                 for workload in missing]
    for line in blocking:
        print(f"BLOCK {line}")
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
