"""The findings bus — one ordered ``repro.findings/v1`` stream.

A :class:`FindingsBus` is a view of the anomaly list a
:class:`~repro.observ.detect.DetectorBank` owns: it keeps no copy, so
every anomaly the bank fires is on the bus at once.  The bus puts them
in one deterministic total order and renders the findings document.
Each exported event is rendered from its anomaly: ``source`` is
``"detect"``, ``seq`` is the event's position in the stream, and
``data`` carries the full ``repro.anomaly/v1`` record.

Ordering: events sort by simulated time, ties by firing order.  Firing
order is deterministic (everything upstream runs on the simulated
clock), so the export is too.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .artifact import register_artifact
from .detect import Anomaly

__all__ = [
    "FINDINGS_SCHEMA",
    "FindingsBus",
]

FINDINGS_SCHEMA = "repro.findings/v1"

#: Sources a v1 event may carry: the live monitor's detectors are the
#: only writer.
SOURCES = ("detect",)


def _event_doc(seq: int, anomaly: Anomaly) -> dict:
    return {
        "seq": seq,
        "ts_ms": round(anomaly.ts_ms, 6),
        "source": "detect",
        "kind": anomaly.kind,
        "severity": round(anomaly.severity, 6),
        "title": anomaly.title,
        "detail": (f"value {anomaly.value:.6g} vs baseline "
                   f"{anomaly.baseline:.6g} ({anomaly.detector})"),
        "data": anomaly.to_doc(),
    }


class FindingsBus:
    """Ordered view of a detector bank's anomalies."""

    def __init__(self, anomalies: Sequence[Anomaly]):
        self._anomalies = anomalies

    def events(self) -> list[Anomaly]:
        """The stream in its total order: time, then firing order."""
        return sorted(self._anomalies, key=lambda a: a.ts_ms)

    def ranked(self, *, limit: int | None = None) -> list[Anomaly]:
        """Anomalies by descending severity (ties by stream order)."""
        ordered = sorted(self._anomalies,
                         key=lambda a: (-a.severity, a.ts_ms))
        return ordered[:limit] if limit is not None else ordered

    def __len__(self) -> int:
        return len(self._anomalies)

    def to_json(self) -> dict:
        return {"schema": FINDINGS_SCHEMA,
                "events": [_event_doc(seq, a)
                           for seq, a in enumerate(self.events())]}


@register_artifact(FINDINGS_SCHEMA)
def _check_findings(doc: Mapping) -> None:
    """Raise ``ValueError`` unless ``doc`` has the v1 findings shape."""
    events = doc.get("events")
    if not isinstance(events, list):
        raise ValueError("findings document lacks an events array")
    previous: tuple[float, int] | None = None
    seen_seq: set[int] = set()
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"events[{i}] is not an object")
        for key in ("seq", "ts_ms", "source", "kind", "severity",
                    "title", "detail", "data"):
            if key not in event:
                raise ValueError(f"events[{i}] lacks {key!r}")
        if event["source"] not in SOURCES:
            raise ValueError(
                f"events[{i}] has unknown source {event['source']!r}")
        ts = event["ts_ms"]
        if not isinstance(ts, (int, float)) or not math.isfinite(ts):
            raise ValueError(f"events[{i}] has bad ts_ms {ts!r}")
        severity = event["severity"]
        if not isinstance(severity, (int, float)) \
                or not 0.0 <= severity <= 1.0:
            raise ValueError(
                f"events[{i}] severity {severity!r} outside [0, 1]")
        seq = event["seq"]
        if not isinstance(seq, int) or seq < 0 or seq in seen_seq:
            raise ValueError(f"events[{i}] has bad/duplicate seq {seq!r}")
        seen_seq.add(seq)
        key = (float(ts), seq)
        if previous is not None and key < previous:
            raise ValueError(
                f"events[{i}] out of (ts_ms, seq) order: {key} after "
                f"{previous}")
        previous = key
