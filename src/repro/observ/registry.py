"""Metrics registry: named counters, gauges and fixed-bucket histograms.

The nvprof half of the observability layer records *timelines*
(:mod:`repro.observ.tracer`); this module records *aggregates* — the
``gld_transactions``-style totals the paper quotes per configuration.
Metrics carry labels (``algorithm``, ``graph``, ``direction``,
``queue_class``, ...) so one registry can hold, say, the per-queue
frontier counts behind Fig. 9 next to the Hyper-Q overlap histogram.

The process-global default registry is *disabled*: ``counter()`` /
``gauge()`` / ``histogram()`` on a disabled registry return shared no-op
metrics, so instrumentation sites cost one method call when metrics
collection is off.  Enable collection with the :func:`collecting` context
manager.

Samples export as NDJSON (one sample per line, the append-friendly
format ``trace --metrics`` writes); a run snapshot embeds them as rows
(:func:`~repro.observ.snapshot.run_snapshot`).
"""

from __future__ import annotations

import bisect
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "collecting",
]

#: Default histogram bucket upper bounds: a decade ladder wide enough for
#: both sub-millisecond kernel times and 10^6-scale transaction counts.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-3, 7))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> dict:
        return {"value": self._value}


class Gauge:
    """Last-written value (e.g. current occupancy, overlap speedup)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> dict:
        return {"value": self._value}


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending tuple")
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the bucket
        counts by linear interpolation — percentiles without retaining
        raw samples.

        Error bound: the true quantile lies in the same bucket as the
        estimate, so the estimate is off by at most that bucket's width
        (with the decade-ladder :data:`DEFAULT_BUCKETS`, a factor of 10
        at worst).  Observations beyond the last finite bucket collapse
        onto it: a quantile that falls in the ``+inf`` bucket is
        reported as the largest finite bound.  Returns NaN when the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return float("nan")
        rank = q * total
        cumulative = 0
        lower = 0.0
        for i, upper in enumerate(self.buckets):
            count = counts[i]
            if count > 0 and cumulative + count >= rank:
                fraction = max(rank - cumulative, 0.0) / count
                return lower + (upper - lower) * fraction
            cumulative += count
            lower = upper
        return self.buckets[-1]

    def sample(self) -> dict:
        labels = [f"le_{b:g}" for b in self.buckets] + ["le_inf"]
        return {
            "buckets": dict(zip(labels, self._counts)),
            "sum": self._sum,
            "count": self._count,
        }


class _NullMetric:
    """Shared no-op stand-in returned by a disabled registry."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def sample(self) -> dict:
        return {}


_NULL_METRIC = _NullMetric()

_Key = tuple[str, tuple[tuple[str, str], ...]]


class MetricsRegistry:
    """Get-or-create store of labelled metrics.

    A metric identity is its name plus the sorted label set; asking for
    an existing identity with a different type raises ``ValueError``.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[_Key, tuple[str, object]] = {}

    # ------------------------------------------------------------------
    # Metric accessors
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict[str, str],
             factory) -> object:
        if not self.enabled:
            return _NULL_METRIC
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            entry = self._metrics.get(key)
            if entry is None:
                metric = factory()
                self._metrics[key] = (kind, metric)
                return metric
            found_kind, metric = entry
            if found_kind != kind:
                raise ValueError(
                    f"metric {name!r} with labels {dict(key[1])} already "
                    f"registered as a {found_kind}, not a {kind}")
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get("histogram", name, labels,
                         lambda: Histogram(buckets))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def collect(self) -> list[dict]:
        """All samples as plain dict rows, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._metrics.items())
        rows = []
        for (name, labels), (kind, metric) in items:
            row = {"name": name, "type": kind, "labels": dict(labels)}
            row.update(metric.sample())
            rows.append(row)
        return rows

    def to_ndjson(self) -> str:
        """One compact JSON object per line — append/diff-friendly."""
        return "\n".join(json.dumps(row, sort_keys=True)
                         for row in self.collect())

    def write_ndjson(self, path: str | Path) -> Path:
        path = Path(path)
        text = self.to_ndjson()
        path.write_text(text + "\n" if text else "")
        return path

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry (disabled until enabled)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def collecting(registry: MetricsRegistry | None = None) \
        -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (or a fresh enabled one);
    restores after.  As with :func:`~repro.observ.tracer.tracing`, an
    empty registry is still the one installed."""
    active = MetricsRegistry(enabled=True) if registry is None else registry
    previous = set_registry(active)
    try:
        yield active
    finally:
        set_registry(previous)
