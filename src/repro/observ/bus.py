"""The findings bus — one ordered ``repro.findings/v1`` stream.

The live monitor publishes every :class:`~repro.observ.detect.Anomaly`
it detects to a :class:`FindingsBus`, which keeps them in one
deterministic total order and exports byte-identical JSON.  Each
exported event is rendered from its anomaly: ``source`` is
``"detect"``, ``seq`` is the event's position in the stream, and
``data`` carries the full ``repro.anomaly/v1`` record.

Ordering: events sort by simulated time, ties by publish order.
Publication order is deterministic (everything upstream runs on the
simulated clock), so the export is too.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from .detect import Anomaly
from .registry import get_registry

__all__ = [
    "FINDINGS_SCHEMA",
    "FindingsBus",
    "write_findings",
    "load_findings",
    "validate_findings",
]

FINDINGS_SCHEMA = "repro.findings/v1"

#: Sources a v1 event may carry.  The live monitor publishes ``detect``
#: events only; the validator accepts the whole v1 vocabulary.
SOURCES = ("detect", "slo", "profiler", "cluster", "user")


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
    """Ordered sink for the anomalies a live monitor detects."""

    def __init__(self):
        self._anomalies: list[Anomaly] = []

    def publish_anomaly(self, anomaly: Anomaly) -> None:
        if not math.isfinite(anomaly.ts_ms):
            raise ValueError(
                f"event needs a finite ts_ms, got {anomaly.ts_ms!r}")
        self._anomalies.append(anomaly)
        get_registry().counter("repro.findings.published",
                               source="detect").inc()

    def events(self) -> list[Anomaly]:
        """The stream in its total order: time, then publish order."""
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


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def write_findings(path: str | Path, bus: FindingsBus) -> Path:
    """Byte-deterministic export: sorted keys, fixed rounding, ordered
    events — identical runs produce identical bytes."""
    path = Path(path)
    path.write_text(json.dumps(bus.to_json(), sort_keys=True) + "\n")
    return path


def load_findings(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    validate_findings(doc)
    return doc


def validate_findings(doc: object) -> None:
    """Raise ``ValueError`` unless ``doc`` is a v1 findings stream."""
    if not isinstance(doc, Mapping):
        raise ValueError("findings document must be a JSON object")
    if doc.get("schema") != FINDINGS_SCHEMA:
        raise ValueError(f"schema must be {FINDINGS_SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
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
