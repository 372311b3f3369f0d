"""Span tracer — the reproduction's stand-in for the nvprof timeline.

The paper's whole evaluation is narrated through profiler output: Fig. 8
is an nvvp execution trace, Figs. 10/12/16 are counter series sampled per
level or per configuration.  This module provides the recording half of
that toolchain: a zero-dependency, thread-safe span tracer with a
context-manager API, nestable run → level → kernel spans, and explicit
counter samples (frontier size, γ, α, power) that export to Chrome
trace-event JSON via :mod:`repro.observ.events`.

Time domains
------------
The simulated device keeps its own clock (``GPUDevice.elapsed_ms``), so
spans can be recorded in *simulated* milliseconds — either explicitly
(:meth:`Tracer.record_span`) or by passing a ``clock`` callable to
:meth:`Tracer.span`.  Without a clock, spans measure wall time relative
to the tracer's construction.  ``offset_ms`` shifts subsequently recorded
events, which is how :func:`repro.metrics.run_trials` lays successive
trials end-to-end on one timeline instead of stacking them all at t=0.

Cost when off
-------------
The process-global default tracer is a :class:`NullTracer`: ``enabled``
is ``False``, every method is a no-op and :meth:`NullTracer.span` returns
one shared null context manager, so instrumented code pays a dict lookup
and an attribute check per site — effectively nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

__all__ = [
    "SpanRecord",
    "CounterRecord",
    "FlowRecord",
    "InstantRecord",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "TID_RUN",
    "TID_STREAM",
    "TID_HARNESS",
    "TID_SERVE",
    "FLOW_PHASES",
    "INSTANT_SCOPES",
]

#: Timeline track ("thread id" in Chrome-trace terms) conventions.
TID_RUN = 0        #: algorithm-level spans: whole runs and BFS levels.
TID_STREAM = 1     #: first device stream; concurrent kernels use 1 + i.
TID_SERVE = 98     #: serving intake track (per-query submit/complete).
TID_HARNESS = 99   #: measurement-harness spans (per-trial records).

#: Phases a :class:`FlowRecord` may carry: Chrome flow events
#: (``s``\ tart / ``t``\ step / ``f``\ inish bind a logical id to the
#: enclosing slice on their track) and async events (``b``\ egin /
#: ``e``\ nd delimit an id-scoped interval independent of any track).
FLOW_PHASES = ("s", "t", "f", "b", "e")

#: Scopes an :class:`InstantRecord` may carry: ``g``\ lobal (whole
#: trace), ``p``\ rocess (one pid), ``t``\ hread (one ``(pid, tid)``
#: track) — Perfetto draws them as full-height, process-height or
#: track-local markers respectively.
INSTANT_SCOPES = ("g", "p", "t")


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (a Chrome ``ph: "X"`` duration event)."""

    name: str
    cat: str
    ts_ms: float
    dur_ms: float
    pid: int = 0
    tid: int = TID_RUN
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end_ms(self) -> float:
        return self.ts_ms + self.dur_ms


@dataclass(frozen=True)
class CounterRecord:
    """One counter sample (a Chrome ``ph: "C"`` event): a named track
    holding one or more numeric series at a point in time."""

    name: str
    ts_ms: float
    values: Mapping[str, float]
    pid: int = 0


@dataclass(frozen=True)
class FlowRecord:
    """One flow or async event — the trace-context half of the tracer.

    Flow phases (``s``/``t``/``f``) stitch one logical request across
    timeline tracks: Perfetto draws an arrow from each flow event to the
    next one sharing ``flow_id``, and each event binds to the enclosing
    duration span on its ``(pid, tid)`` track.  Async phases
    (``b``/``e``) delimit the request's whole lifetime (arrival to
    completion) on an id-scoped track of their own.
    """

    name: str
    cat: str
    ph: str           #: one of :data:`FLOW_PHASES`.
    flow_id: int
    ts_ms: float
    pid: int = 0
    tid: int = TID_RUN
    args: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class InstantRecord:
    """One instant marker (a Chrome ``ph: "i"`` event) — a zero-width
    annotation such as an anomaly-detection firing."""

    name: str
    cat: str
    ts_ms: float
    scope: str        #: one of :data:`INSTANT_SCOPES`.
    pid: int = 0
    tid: int = TID_RUN
    args: Mapping[str, object] = field(default_factory=dict)


class Tracer:
    """Collects spans and counter samples; thread-safe, append-only.

    Parameters
    ----------
    clock:
        Default time source for :meth:`span`, returning milliseconds.
        Defaults to wall time relative to construction.  Individual
        ``span()`` calls may override it (e.g. with a simulated device
        clock).
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], float] | None = None):
        epoch = time.perf_counter()
        self._clock = clock or (lambda: (time.perf_counter() - epoch) * 1e3)
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._counters: list[CounterRecord] = []
        self._flows: list[FlowRecord] = []
        self._instants: list[InstantRecord] = []
        self._tids: dict[int, int] = {}
        #: Shift applied to every subsequently recorded event — lets a
        #: harness lay independent runs end-to-end on one timeline.
        self.offset_ms = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        begin_ms: float,
        dur_ms: float,
        *,
        cat: str = "span",
        tid: int = TID_RUN,
        pid: int = 0,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a completed span at an explicit (local-clock) time."""
        record = SpanRecord(name, cat, begin_ms + self.offset_ms,
                            max(0.0, dur_ms), pid, tid, dict(args or {}))
        with self._lock:
            self._spans.append(record)

    def record_counter(
        self,
        name: str,
        ts_ms: float,
        values: Mapping[str, float],
        *,
        pid: int = 0,
    ) -> None:
        """Record one sample of a counter track (e.g. frontier size)."""
        record = CounterRecord(name, ts_ms + self.offset_ms,
                               {k: float(v) for k, v in values.items()}, pid)
        with self._lock:
            self._counters.append(record)

    def record_flow(
        self,
        name: str,
        flow_id: int,
        ts_ms: float,
        *,
        phase: str = "t",
        cat: str = "flow",
        tid: int = TID_RUN,
        pid: int = 0,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record one flow (``s``/``t``/``f``) or async (``b``/``e``)
        event carrying ``flow_id`` — the trace-context propagation
        primitive.  A flow event should coincide with a duration span on
        the same ``(pid, tid)`` track, which it binds to."""
        if phase not in FLOW_PHASES:
            raise ValueError(
                f"flow phase must be one of {FLOW_PHASES}, got {phase!r}")
        record = FlowRecord(name, cat, phase, int(flow_id),
                            ts_ms + self.offset_ms, pid, tid,
                            dict(args or {}))
        with self._lock:
            self._flows.append(record)

    def record_instant(
        self,
        name: str,
        ts_ms: float,
        *,
        scope: str = "t",
        cat: str = "instant",
        tid: int = TID_RUN,
        pid: int = 0,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record one zero-width marker (Perfetto ``ph: "i"``) — e.g. an
        anomaly-detection firing pinned to the instant it happened."""
        if scope not in INSTANT_SCOPES:
            raise ValueError(
                f"instant scope must be one of {INSTANT_SCOPES}, "
                f"got {scope!r}")
        record = InstantRecord(name, cat, ts_ms + self.offset_ms, scope,
                               pid, tid, dict(args or {}))
        with self._lock:
            self._instants.append(record)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "span",
        tid: int | None = None,
        args: Mapping[str, object] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> Iterator[dict]:
        """Context manager timing its body with ``clock`` (or the
        tracer's default).  Yields a mutable dict merged into the span's
        ``args`` on exit, so the body can attach results::

            with tracer.span("run", clock=lambda: dev.elapsed_ms) as a:
                ...
                a["visited"] = result.visited
        """
        read = clock or self._clock
        extra: dict = {}
        begin = read()
        try:
            yield extra
        finally:
            merged = dict(args or {})
            merged.update(extra)
            self.record_span(name, begin, read() - begin, cat=cat,
                             tid=self._thread_tid() if tid is None else tid,
                             args=merged)

    def _thread_tid(self) -> int:
        """Stable small track id per OS thread (main thread gets 0)."""
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def counters(self) -> list[CounterRecord]:
        with self._lock:
            return list(self._counters)

    def flows(self) -> list[FlowRecord]:
        with self._lock:
            return list(self._flows)

    def instants(self) -> list[InstantRecord]:
        with self._lock:
            return list(self._instants)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._flows.clear()
            self._instants.clear()
        self.offset_ms = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans) + len(self._counters) \
                + len(self._flows) + len(self._instants)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(spans={len(self._spans)}, "
                f"counters={len(self._counters)})")


_NULL_CONTEXT = nullcontext({})


class NullTracer(Tracer):
    """A tracer that records nothing — the default when tracing is off."""

    enabled = False

    def __init__(self):
        super().__init__(clock=lambda: 0.0)

    def record_span(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def record_counter(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def record_flow(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def record_instant(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def span(self, *args, **kwargs):  # noqa: D102
        return _NULL_CONTEXT


_default_tracer: Tracer = NullTracer()


def get_tracer() -> Tracer:
    """The process-global tracer (a :class:`NullTracer` unless enabled)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` (or a fresh one); restores after.

    ``None``, not falsiness, asks for a fresh tracer: an empty tracer has
    length 0 and is still the one installed."""
    active = Tracer() if tracer is None else tracer
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
