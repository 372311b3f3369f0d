"""ASCII execution timelines — Fig. 8 as text.

Renders a :class:`~repro.gpu.device.GPUDevice` launch record (or a
BFS result's per-level trace) as a proportional text Gantt chart, the
headless equivalent of the paper's execution-trace figure:

```
L0:td             |####                       | 0.0022 ms
L1:qgen           |#                          | 0.0005 ms
L1:switch         |############               | 0.0061 ms
...
```
"""

from __future__ import annotations

import io

from ..gpu.device import GPUDevice

__all__ = ["render_device_timeline"]


def _bar(value: float, maximum: float, width: int) -> str:
    if maximum <= 0:
        return ""
    filled = int(round(width * value / maximum))
    return "#" * max(filled, 1 if value > 0 else 0)


def render_device_timeline(
    device: GPUDevice,
    *,
    width: int = 40,
    min_share: float = 0.005,
) -> str:
    """One row per launch record, bar length ∝ elapsed time.

    Records below ``min_share`` of the total are folded into a single
    "(other)" row so deep traversals stay readable.
    """
    records = device.records
    total = device.elapsed_ms
    if not records or total <= 0:
        return "(empty timeline)"
    longest = max(r.elapsed_ms for r in records)
    out = io.StringIO()
    folded = 0.0
    folded_count = 0
    label_w = min(24, max(len(r.label) for r in records))
    for r in records:
        if r.elapsed_ms < min_share * total:
            folded += r.elapsed_ms
            folded_count += 1
            continue
        tag = " (Hyper-Q)" if r.concurrent else ""
        out.write(f"{r.label[:label_w]:<{label_w}} "
                  f"|{_bar(r.elapsed_ms, longest, width):<{width}}| "
                  f"{r.elapsed_ms:9.4f} ms{tag}\n")
    if folded_count:
        out.write(f"{'(other: ' + str(folded_count) + ' launches)':<{label_w}} "
                  f"|{_bar(folded, longest, width):<{width}}| "
                  f"{folded:9.4f} ms\n")
    out.write(f"{'total':<{label_w}}  {'':<{width}}  {total:9.4f} ms\n")
    return out.getvalue()

