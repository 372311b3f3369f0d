"""Fixed-cadence streaming time-series on the simulated clock.

The post-mortem instruments (profiler, SLO burn, clusterprof) explain a
run after it ends; this module is the *live* half of the observability
layer.  A :class:`Board` owns a set of named probes — zero-argument-ish
callables reading engine state — and polls every one of them together at
a fixed simulated cadence, appending into bounded ring buffers
(:class:`Series`).  Because ticks are driven by the engine's simulated
clock, the stream is a pure function of the workload: two identical runs
produce byte-identical series, which is what lets the detector layer
(:mod:`repro.observ.detect`) promise deterministic anomaly timelines.

Sampling semantics: the engine calls :meth:`Board.advance` as its clock
moves; every cadence boundary the clock crosses emits one sample per
probe, evaluated against the engine state *at the crossing*.  Probes are
polled in registration order and subscribers are notified per sample in
that same order — the total order every downstream consumer sees.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from .artifact import register_artifact

__all__ = [
    "SERIES_SCHEMA",
    "WindowStats",
    "Series",
    "Board",
]

SERIES_SCHEMA = "repro.timeseries/v1"


@dataclass(frozen=True)
class WindowStats:
    """Aggregates over one trailing window of a series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    last: float

    @classmethod
    def empty(cls) -> "WindowStats":
        return cls(count=0, mean=0.0, minimum=0.0, maximum=0.0, last=0.0)


class Series:
    """One bounded ring buffer of ``(ts_ms, value)`` samples.

    Timestamps must be strictly increasing — samples come from one
    simulated clock, so a tie or regression is a caller bug, not data.
    """

    __slots__ = ("name", "unit", "_ts", "_values")

    def __init__(self, name: str, *, unit: str = "", capacity: int = 4096):
        if capacity < 1:
            raise ValueError("series capacity must be positive")
        self.name = name
        self.unit = unit
        self._ts: deque[float] = deque(maxlen=capacity)
        self._values: deque[float] = deque(maxlen=capacity)

    def append(self, ts_ms: float, value: float) -> None:
        if self._ts and ts_ms <= self._ts[-1]:
            raise ValueError(
                f"series {self.name!r}: ts {ts_ms} not after {self._ts[-1]}")
        # A non-finite probe reading (e.g. a percentile of zero samples)
        # is stored as 0.0: detectors and JSON export need finite floats.
        self._ts.append(float(ts_ms))
        self._values.append(float(value) if math.isfinite(value) else 0.0)

    def __len__(self) -> int:
        return len(self._ts)

    @property
    def last(self) -> float:
        return self._values[-1] if self._values else 0.0

    @property
    def last_ts(self) -> float:
        return self._ts[-1] if self._ts else 0.0

    def timestamps(self) -> list[float]:
        return list(self._ts)

    def values(self) -> list[float]:
        return list(self._values)

    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self._ts, self._values))

    def window(self, window_ms: float,
               now_ms: float | None = None) -> WindowStats:
        """Aggregates over samples with ``now - window < ts <= now``."""
        if not self._ts:
            return WindowStats.empty()
        now = self.last_ts if now_ms is None else now_ms
        cutoff = now - window_ms
        total = 0.0
        count = 0
        lo = math.inf
        hi = -math.inf
        last = 0.0
        # Windows are short relative to capacity; scan from the right.
        for ts, value in zip(reversed(self._ts), reversed(self._values)):
            if ts > now:
                continue
            if ts <= cutoff:
                break
            if count == 0:
                last = value
            count += 1
            total += value
            lo = min(lo, value)
            hi = max(hi, value)
        if count == 0:
            return WindowStats.empty()
        return WindowStats(count=count, mean=total / count, minimum=lo,
                           maximum=hi, last=last)

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "ts_ms": [round(t, 6) for t in self._ts],
            "values": [round(v, 9) for v in self._values],
        }


class Board:
    """Polls a set of probes together at a fixed simulated cadence.

    A probe is ``Callable[[float], float]``: it receives the tick's
    simulated timestamp and returns the current reading.  Subscribers
    (``Callable[[str, float, float], None]`` taking ``(series, ts_ms,
    value)``) see every sample in probe-registration order — the hook the
    detector bank attaches to.
    """

    def __init__(self, *, cadence_ms: float = 0.5, capacity: int = 4096,
                 start_ms: float = 0.0):
        if cadence_ms <= 0:
            raise ValueError("cadence must be positive")
        self.cadence_ms = float(cadence_ms)
        self.capacity = int(capacity)
        self.start_ms = float(start_ms)
        self._probes: dict[str, Callable[[float], float]] = {}
        self._series: dict[str, Series] = {}
        self._listeners: list[Callable[[str, float, float], None]] = []
        self._tick = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, name: str, probe: Callable[[float], float],
            *, unit: str = "") -> Series:
        if name in self._probes:
            raise ValueError(f"duplicate series {name!r}")
        self._probes[name] = probe
        series = Series(name, unit=unit, capacity=self.capacity)
        self._series[name] = series
        return series

    def subscribe(self, listener: Callable[[str, float, float], None]) \
            -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def ticks(self) -> int:
        return self._tick

    @property
    def next_tick_ms(self) -> float:
        return self.start_ms + (self._tick + 1) * self.cadence_ms

    def advance(self, now_ms: float) -> int:
        """Emit every tick the clock crossed; returns ticks emitted."""
        emitted = 0
        while self.next_tick_ms <= now_ms:
            ts = self.next_tick_ms
            self._tick += 1
            emitted += 1
            for name, probe in self._probes.items():
                value = float(probe(ts))
                if not math.isfinite(value):
                    value = 0.0
                self._series[name].append(ts, value)
                for listener in self._listeners:
                    listener(name, ts, value)
        return emitted

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return list(self._series)

    def series(self, name: str) -> Series:
        return self._series[name]

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def to_json(self) -> dict:
        return {
            "schema": SERIES_SCHEMA,
            "cadence_ms": self.cadence_ms,
            "start_ms": self.start_ms,
            "ticks": self._tick,
            "series": {name: s.to_doc() for name, s in
                       self._series.items()},
        }


@register_artifact(SERIES_SCHEMA)
def _check_series(doc: Mapping) -> None:
    """Raise ``ValueError`` unless ``doc`` has the v1 time-series
    export shape."""
    if not isinstance(doc.get("cadence_ms"), (int, float)) \
            or doc["cadence_ms"] <= 0:
        raise ValueError("cadence_ms must be a positive number")
    series = doc.get("series")
    if not isinstance(series, Mapping):
        raise ValueError("series document lacks a series mapping")
    for name, body in series.items():
        if not isinstance(body, Mapping):
            raise ValueError(f"series {name!r} body is not an object")
        ts = body.get("ts_ms")
        values = body.get("values")
        if not isinstance(ts, list) or not isinstance(values, list):
            raise ValueError(f"series {name!r} lacks ts_ms/values arrays")
        if len(ts) != len(values):
            raise ValueError(
                f"series {name!r} has {len(ts)} timestamps for "
                f"{len(values)} values")
        for t in ts:
            if not isinstance(t, (int, float)) or not math.isfinite(t):
                raise ValueError(f"series {name!r} has bad ts {t!r}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"series {name!r} timestamps not increasing")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(v):
                raise ValueError(f"series {name!r} has bad value {v!r}")
