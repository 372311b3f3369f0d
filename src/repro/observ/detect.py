"""Deterministic anomaly detection against a fault-free reference run.

A :class:`DetectorBank` consumes ``(series, ts_ms, value)`` samples —
normally fed from a :class:`~repro.observ.timeseries.Board` — and emits
versioned :class:`Anomaly` records.  Everything runs on the simulated
clock with no randomness, so identical runs yield identical anomaly
timelines (the property the chaos harness and CI smoke rely on).

Detection is **reference-calibrated**: each series carries a
:class:`ReferenceBandDetector` whose band comes from a *fault-free run
of the same workload* (:func:`reference_band`).  A faulted run deviating
from its clean twin fires; the clean run replayed against its own band
stays inside by construction (the band contains every clean sample with
positive slack), which is what guarantees **zero anomalies
fault-free**.  A self-calibrating detector, which learns its baseline
from the stream itself, cannot see a fault present from t=0 (a
straggler device slows the stream before any baseline exists);
reference calibration is how the live monitor catches those.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from .registry import get_registry

__all__ = [
    "ANOMALY_SCHEMA",
    "Anomaly",
    "ReferenceBandDetector",
    "reference_band",
    "DetectorBank",
]

ANOMALY_SCHEMA = "repro.anomaly/v1"

#: Reference-band padding as a fraction of the clean span.
MARGIN = 0.5
#: Reference-band padding floor as a fraction of magnitude.
REL_FLOOR = 0.10
#: Absolute padding floor, so even a constant reference has slack.
ABS_FLOOR = 1e-6


@dataclass(frozen=True)
class Anomaly:
    """One versioned detection: what changed, where, and by how much."""

    #: Series the detector was watching (e.g. ``serve.p95_ms``).
    series: str
    #: Detector that fired (``reference-band``).
    detector: str
    #: Direction of the band exit: ``band-high`` or ``band-low``.
    kind: str
    #: Simulated time of the sample that fired.
    ts_ms: float
    #: The offending sample value.
    value: float
    #: The band edge the value was judged against.
    baseline: float
    #: ``value - baseline`` — signed distance from normal.
    deviation: float
    #: Bounded score in [0, 1]; 1.0 saturates (ranking key on the bus).
    severity: float
    #: Attribution hooks — whatever context the bank's attributor added
    #: at firing time (device/node, dominant phase, trace-id exemplars,
    #: window aggregates).
    attribution: Mapping[str, object] = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "schema": ANOMALY_SCHEMA,
            "series": self.series,
            "detector": self.detector,
            "kind": self.kind,
            "ts_ms": round(self.ts_ms, 6),
            "value": round(self.value, 9),
            "baseline": round(self.baseline, 9),
            "deviation": round(self.deviation, 9),
            "severity": round(self.severity, 6),
            "attribution": dict(self.attribution),
        }

    @property
    def title(self) -> str:
        """The title of this anomaly's event on the findings bus."""
        return f"{self.series} {self.kind}"

    def line(self) -> str:
        return (f"[{self.ts_ms:9.3f} ms] {self.series}: {self.kind} "
                f"({self.detector}) value {self.value:.4g} vs baseline "
                f"{self.baseline:.4g}, severity {self.severity:.2f}")


class ReferenceBandDetector:
    """Band detector calibrated from a fault-free reference stream.

    Fires once per excursion outside ``[lo, hi]`` and re-arms on
    re-entry.  Built via :func:`reference_band`, the band contains every
    reference sample with positive slack, so replaying the reference
    stream itself can never fire — the zero-anomalies-fault-free
    guarantee.  Severity is the distance past the band edge relative to
    the band's span, saturating at 1.
    """

    name = "reference-band"

    def __init__(self, lo: float, hi: float):
        if hi < lo:
            raise ValueError("band upper bound below lower bound")
        self.lo = lo
        self.hi = hi
        self._outside = False

    def observe(self, ts_ms: float, value: float) -> Anomaly | None:
        """The anomaly ``value`` raises at ``ts_ms``, or ``None``; the
        series field is left for the bank to stamp."""
        ts_ms, value = float(ts_ms), float(value)
        if self.lo <= value <= self.hi:
            self._outside = False
            return None
        if self._outside:
            return None
        self._outside = True
        high = value > self.hi
        baseline = self.hi if high else self.lo
        span = max(self.hi - self.lo, abs(baseline) * 0.25, 1e-9)
        deviation = value - baseline
        return Anomaly(series="", detector=self.name,
                       kind="band-high" if high else "band-low",
                       ts_ms=ts_ms, value=value, baseline=baseline,
                       deviation=deviation,
                       severity=min(1.0, abs(deviation) / span))


def reference_band(samples: Iterable[float]) -> tuple[float, float]:
    """The ``[lo, hi]`` acceptance band for a clean reference stream.

    Pads ``[min, max]`` of the samples by the largest of :data:`MARGIN`
    × the observed span, :data:`REL_FLOOR` × the magnitude, and
    :data:`ABS_FLOOR` — so even a constant reference yields a band with
    positive slack.  Only the extremes matter, so ``(min, max)`` of a
    stream gives the same band as the stream itself.
    """
    samples = list(samples)
    if not samples:
        return (-ABS_FLOOR, ABS_FLOOR)
    lo = min(samples)
    hi = max(samples)
    pad = max(MARGIN * (hi - lo), REL_FLOOR * max(abs(lo), abs(hi)),
              ABS_FLOOR)
    return (lo - pad, hi + pad)


class DetectorBank:
    """Routes board samples into per-series reference bands and collects
    the anomaly timeline in :attr:`anomalies`, the one list a
    :class:`~repro.observ.bus.FindingsBus` views.

    Every bank tracks each series' running ``[min, max]`` as samples
    arrive, so a finished fault-free bank can :meth:`calibrate` another
    from its whole stream, however long.

    ``attributor`` — optional ``Callable[[Anomaly], Mapping]`` invoked at
    firing time; whatever it returns becomes the anomaly's attribution
    (the hook the live monitor uses to attach device, dominant phase and
    trace-id exemplars).  Every firing also bumps the
    ``repro.detect.anomalies`` registry counter (labelled by series and
    kind), which the snapshot gate tracks as lower-is-better.
    """

    def __init__(self, *, attributor:
                 Callable[[Anomaly], Mapping[str, object]] | None = None):
        self._bands: dict[str, ReferenceBandDetector] = {}
        #: Series name -> running ``[min, max]`` (empty until sampled).
        self._extents: dict[str, list[float]] = {}
        self._attributor = attributor
        self.anomalies: list[Anomaly] = []

    def bind(self, board) -> None:
        """Subscribe this bank to a
        :class:`~repro.observ.timeseries.Board`'s sample stream."""
        for name in board.names():
            self._extents.setdefault(name, [])
        board.subscribe(self.observe)

    def calibrate(self, reference: "DetectorBank") -> None:
        """Install one :class:`ReferenceBandDetector` per series from the
        sample ranges of a finished fault-free bank."""
        for name, extent in reference._extents.items():
            self._bands[name] = ReferenceBandDetector(
                *reference_band(extent))

    def observe(self, series: str, ts_ms: float, value: float) -> None:
        extent = self._extents.get(series)
        if not extent:
            self._extents[series] = [value, value]
        elif value < extent[0]:
            extent[0] = value
        elif value > extent[1]:
            extent[1] = value
        band = self._bands.get(series)
        anomaly = band.observe(ts_ms, value) if band is not None else None
        if anomaly is None:
            return
        # Stamp the series first: attributors key off it (e.g. the
        # live monitor's window-aggregate lookup).
        anomaly = replace(anomaly, series=series)
        if self._attributor is not None:
            anomaly = replace(anomaly,
                              attribution=dict(self._attributor(anomaly)))
        get_registry().counter("repro.detect.anomalies",
                               series=series, kind=anomaly.kind).inc()
        self.anomalies.append(anomaly)
