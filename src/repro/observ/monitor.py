"""Live serve-loop monitoring: board + detector bank + findings bus.

:class:`LiveMonitor` is the glue the serve engine drives: it owns a
:class:`~repro.observ.timeseries.Board` of standard serving probes (QPS,
p50/p95 latency, queue depth, device utilization, cache hit rate), a
:class:`~repro.observ.detect.DetectorBank`, and a
:class:`~repro.observ.bus.FindingsBus` viewing the bank's anomalies.
The engine calls :meth:`observe_result` per completion and
:meth:`advance` as its simulated clock moves; the monitor delivers
completions to its trailing window *in completion-time order* before
each cadence tick fires, so the sampled stream is causal and — because
everything is simulated — byte-deterministic across identical runs.

Calibration: run the same workload fault-free first, then
:meth:`calibrate` the live monitor from it.  Reference bands contain
every clean sample with positive slack, so a fault-free run monitored
against its own twin yields **zero** anomalies, while a fault profile
deviating anywhere yields a deterministic anomaly timeline.

Rendering: :func:`render_dashboard` (terminal text with sparklines) and
:func:`render_html` (self-contained SVG timeline, no external assets).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from html import escape
from typing import Mapping

from .bus import FindingsBus
from .detect import Anomaly, DetectorBank
from .timeseries import Board
from .tracer import TID_SERVE, get_tracer

__all__ = [
    "MonitorConfig",
    "LiveMonitor",
    "render_dashboard",
    "render_html",
]

#: Samples each series' ring buffer keeps for display and export.
CAPACITY = 16384
#: Completions kept for windowed percentiles and attribution.
WINDOW_KEEP = 4096


@dataclass(frozen=True)
class MonitorConfig:
    """Sampling cadence for a live monitor.

    The default suits multi-millisecond serve runs; small simulated
    workloads finish in well under a millisecond, so prefer
    :meth:`for_span` / :meth:`for_trace`, which scale the cadence to
    the workload instead of sampling past it.
    """

    #: Simulated ms between samples.
    cadence_ms: float = 0.5

    def __post_init__(self) -> None:
        if not self.cadence_ms > 0:
            raise ValueError("cadence must be positive")

    @property
    def window_ms(self) -> float:
        """Trailing window for QPS / percentile probes: 16 ticks."""
        return 16 * self.cadence_ms

    @classmethod
    def for_span(cls, span_ms: float, *,
                 samples: int = 256) -> "MonitorConfig":
        """A config whose cadence yields ~``samples`` ticks over a run
        expected to span ``span_ms`` simulated milliseconds."""
        if not span_ms > 0 or samples < 1:
            raise ValueError("span and samples must be positive")
        return cls(cadence_ms=max(span_ms / samples, 1e-6))

    @classmethod
    def for_trace(cls, trace, *, samples: int = 256) -> "MonitorConfig":
        """A config scaled to a query trace's arrival span (plus slack
        for the trailing waves to drain)."""
        if not trace:
            raise ValueError("trace is empty")
        span = max(q.arrival_ms for q in trace)
        return cls.for_span(max(span, 1e-3) * 1.25, samples=samples)


class _Completion:
    """One delivered query completion, for window stats/attribution."""

    __slots__ = ("completed_ms", "latency_ms", "ok", "trace_id", "phases")

    def __init__(self, completed_ms: float, latency_ms: float, ok: bool,
                 trace_id: int, phases: Mapping[str, float]):
        self.completed_ms = completed_ms
        self.latency_ms = latency_ms
        self.ok = ok
        self.trace_id = trace_id
        self.phases = dict(phases)


class LiveMonitor:
    """Streaming sampler + detector + bus for one serve run."""

    def __init__(self, config: MonitorConfig | None = None):
        self.config = config or MonitorConfig()
        self.bank = DetectorBank(attributor=self._attribute)
        self.bus = FindingsBus(self.bank.anomalies)
        self.board: Board | None = None
        self._engine = None
        self._tracer = get_tracer()
        #: Completions not yet delivered to the window (min-heap on
        #: completion time; the counter breaks ties deterministically).
        self._pending: list[tuple[float, int, _Completion]] = []
        self._pushed = 0
        #: Delivered completions, trimmed to the trailing window.
        self._window: list[_Completion] = []

    # ------------------------------------------------------------------
    # Engine binding
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Attach to a serve engine (duck-typed: ``batcher``, ``cache``,
        ``group``, ``now_ms``) and register the standard probes.  Ticks
        start at the engine's current clock (post-warmup)."""
        if self.board is not None:
            raise ValueError("monitor is already bound to an engine")
        self._engine = engine
        # Busy time accrued before binding (cache warmup) is startup
        # cost, not serving load — utilization reads relative to this.
        self._busy_at_bind = list(engine.group.busy_ms())
        self.board = Board(cadence_ms=self.config.cadence_ms,
                           capacity=CAPACITY, start_ms=float(engine.now_ms))
        self.board.add("serve.qps", self._probe_qps, unit="1/s")
        self.board.add("serve.p50_ms", lambda ts: self._probe_pct(50.0),
                       unit="ms")
        self.board.add("serve.p95_ms", lambda ts: self._probe_pct(95.0),
                       unit="ms")
        self.board.add("serve.queue_depth",
                       lambda ts: float(engine.batcher.pending_queries))
        self.board.add("serve.cache_hit_rate",
                       lambda ts: float(engine.cache.stats.hit_rate)
                       if engine.cache is not None else 0.0)
        self.board.add("serve.device_util", self._probe_util)
        self.bank.bind(self.board)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def _probe_qps(self, ts_ms: float) -> float:
        cutoff = ts_ms - self.config.window_ms
        n = sum(1 for c in self._window
                if c.ok and c.completed_ms > cutoff)
        return n / (self.config.window_ms * 1e-3)

    def _probe_pct(self, q: float) -> float:
        lat = sorted(c.latency_ms for c in self._window if c.ok)
        if not lat:
            return 0.0
        # Nearest-rank on the sorted window — cheap and deterministic.
        rank = max(0, math.ceil(q / 100.0 * len(lat)) - 1)
        return lat[rank]

    def _probe_util(self, ts_ms: float) -> float:
        busy = self._engine.group.busy_ms()
        if not busy:
            return 0.0
        since_bind = sum(b - b0 for b, b0 in
                         zip(busy, self._busy_at_bind))
        span = max(ts_ms - self.board.start_ms, self.config.cadence_ms)
        return max(since_bind, 0.0) / (len(busy) * span)

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def observe_result(self, result) -> None:
        """Queue one completion (its completion time may be ahead of the
        engine clock; it enters the window when ticks catch up)."""
        completion = _Completion(
            completed_ms=float(result.completed_ms),
            latency_ms=float(result.latency_ms),
            ok=bool(result.ok),
            trace_id=int(getattr(result, "trace_id", -1)),
            phases=result.phases or {})
        heapq.heappush(self._pending,
                       (completion.completed_ms, self._pushed, completion))
        self._pushed += 1

    def advance(self, now_ms: float) -> None:
        """Emit every cadence tick up to ``now_ms``, delivering pending
        completions in completion-time order first; each anomaly a tick
        fires gets an instant marker on the serve track."""
        if self.board is None:
            return
        while self.board.next_tick_ms <= now_ms:
            tick = self.board.next_tick_ms
            self._deliver(tick)
            fired = len(self.bank.anomalies)
            self.board.advance(tick)
            for anomaly in self.bank.anomalies[fired:]:
                self._tracer.record_instant(
                    f"anomaly:{anomaly.series}", anomaly.ts_ms, scope="t",
                    cat="detect", tid=TID_SERVE,
                    args={"kind": anomaly.kind, "detector": anomaly.detector,
                          "severity": round(anomaly.severity, 6)})

    def _deliver(self, up_to_ms: float) -> None:
        while self._pending and self._pending[0][0] <= up_to_ms:
            self._window.append(heapq.heappop(self._pending)[2])
        cutoff = up_to_ms - self.config.window_ms
        if len(self._window) > WINDOW_KEEP or (
                self._window and self._window[0].completed_ms <= cutoff):
            self._window = [c for c in self._window
                            if c.completed_ms > cutoff]

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, reference: "LiveMonitor") -> None:
        """Install reference bands derived from every sample of a
        finished fault-free run of the same workload."""
        if reference.board is None:
            raise ValueError("reference monitor was never bound")
        self.bank.calibrate(reference.bank)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _attribute(self, anomaly: Anomaly) -> Mapping[str, object]:
        """Attribution hook: device/node, dominant phase, trace-id
        exemplars and window aggregates at firing time."""
        out: dict[str, object] = {}
        engine = self._engine
        if engine is None:
            return out
        busy = engine.group.busy_ms()
        if busy:
            device = max(range(len(busy)), key=lambda i: (busy[i], -i))
            out["device"] = device
            nodes = getattr(engine.config, "num_nodes", 1)
            if nodes > 1:
                out["node"] = device // (len(busy) // nodes)
        phases: dict[str, float] = {}
        for c in self._window:
            for name, ms in c.phases.items():
                phases[name] = phases.get(name, 0.0) + ms
        if phases:
            out["dominant_phase"] = max(
                phases.items(), key=lambda kv: (kv[1], kv[0]))[0]
        slowest = sorted((c for c in self._window if c.ok),
                         key=lambda c: (-c.latency_ms, c.trace_id))[:3]
        if slowest:
            out["exemplar_trace_ids"] = [c.trace_id for c in slowest]
        if self.board is not None and anomaly.series in self.board:
            window = self.board.series(anomaly.series).window(
                self.config.window_ms)
            out["window_ms"] = self.config.window_ms
            out["window_mean"] = round(window.mean, 9)
        return out

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def anomalies(self) -> list[Anomaly]:
        return list(self.bank.anomalies)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], width: int = 40) -> str:
    if not values:
        return ""
    if len(values) > width:
        # Bucket means keep the shape at terminal width.
        step = len(values) / width
        values = [
            sum(values[int(i * step):max(int(i * step) + 1,
                                         int((i + 1) * step))])
            / max(1, len(values[int(i * step):max(int(i * step) + 1,
                                                  int((i + 1) * step))]))
            for i in range(width)]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(_SPARK[min(len(_SPARK) - 1,
                              int((v - lo) / span * len(_SPARK)))]
                   for v in values)


def render_dashboard(monitor: LiveMonitor, *, title: str = "serve",
                     top: int = 8) -> str:
    """Terminal dashboard: per-series aggregates + sparkline, the
    anomaly timeline, and the ranked findings stream."""
    board = monitor.board
    lines = [f"monitor: {title}"]
    if board is None:
        return lines[0] + "\n  (never bound to an engine)"
    lines.append(f"  cadence {board.cadence_ms:g} ms, "
                 f"{board.ticks} ticks, window "
                 f"{monitor.config.window_ms:g} ms")
    lines.append(f"  {'series':<22} {'last':>10} {'mean':>10} "
                 f"{'min':>10} {'max':>10}")
    for name in board.names():
        series = board.series(name)
        values = series.values()
        if values:
            mean = sum(values) / len(values)
            lines.append(
                f"  {name:<22} {series.last:>10.4g} {mean:>10.4g} "
                f"{min(values):>10.4g} {max(values):>10.4g}  "
                f"{_sparkline(values)}")
        else:
            lines.append(f"  {name:<22} {'-':>10}")
    anomalies = monitor.anomalies()
    lines.append(f"  anomalies: {len(anomalies)}")
    for anomaly in anomalies:
        lines.append("    " + anomaly.line())
    events = monitor.bus.ranked(limit=top)
    if events:
        lines.append(f"  top findings (of {len(monitor.bus)}):")
        for event in events:
            lines.append(f"    [{event.ts_ms:9.3f} ms] detect/{event.kind} "
                         f"(sev {event.severity:.2f}): {event.title}")
    return "\n".join(lines)


def render_html(monitor: LiveMonitor, *, title: str = "serve run") -> str:
    """Self-contained HTML timeline: one inline SVG per series with
    anomaly markers, plus the findings table.  No external assets."""
    board = monitor.board
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>repro monitor — {escape(title)}</title>",
        "<style>",
        "body{font-family:monospace;background:#111;color:#ddd;"
        "margin:2em}",
        "h1{font-size:1.2em}h2{font-size:1em;margin:0.4em 0 0.2em}",
        ".chart{margin-bottom:0.8em}",
        "svg{background:#1b1b1b;border:1px solid #333}",
        "table{border-collapse:collapse;font-size:0.85em}",
        "td,th{border:1px solid #333;padding:2px 8px;text-align:left}",
        ".anom{color:#f66}",
        "</style></head><body>",
        f"<h1>repro monitor — {escape(title)}</h1>",
    ]
    if board is None:
        parts.append("<p>never bound to an engine</p></body></html>")
        return "\n".join(parts)
    anomalies = monitor.anomalies()
    by_series: dict[str, list] = {}
    for anomaly in anomalies:
        by_series.setdefault(anomaly.series, []).append(anomaly)
    width, height, pad = 640.0, 80.0, 4.0
    for name in board.names():
        series = board.series(name)
        ts = series.timestamps()
        values = series.values()
        parts.append(f"<div class='chart'><h2>{escape(name)}"
                     + (f" ({escape(series.unit)})" if series.unit
                        else "") + "</h2>")
        if len(ts) < 2:
            parts.append("<p>(no samples)</p></div>")
            continue
        t0, t1 = ts[0], ts[-1]
        lo, hi = min(values), max(values)
        span_t = max(t1 - t0, 1e-9)
        span_v = max(hi - lo, 1e-9)

        def sx(t: float) -> float:
            return pad + (t - t0) / span_t * (width - 2 * pad)

        def sy(v: float) -> float:
            return height - pad - (v - lo) / span_v * (height - 2 * pad)

        points = " ".join(f"{sx(t):.1f},{sy(v):.1f}"
                          for t, v in zip(ts, values))
        parts.append(
            f"<svg width='{width:g}' height='{height:g}' "
            f"viewBox='0 0 {width:g} {height:g}'>"
            f"<polyline fill='none' stroke='#6cf' stroke-width='1' "
            f"points='{points}'/>")
        for anomaly in by_series.get(name, ()):
            parts.append(
                f"<circle cx='{sx(anomaly.ts_ms):.1f}' "
                f"cy='{sy(anomaly.value):.1f}' r='3' fill='#f66'>"
                f"<title>{escape(anomaly.line())}</title></circle>")
        parts.append("</svg>"
                     f"<div>last {series.last:.4g} · min {lo:.4g} · "
                     f"max {hi:.4g} · {len(values)} samples · "
                     f"<span class='anom'>"
                     f"{len(by_series.get(name, ()))} anomalies"
                     f"</span></div></div>")
    parts.append("<h2>findings</h2>")
    events = monitor.bus.events()
    if events:
        parts.append("<table><tr><th>ts (ms)</th><th>source</th>"
                     "<th>kind</th><th>severity</th><th>title</th></tr>")
        for event in events:
            parts.append(
                f"<tr><td>{event.ts_ms:.3f}</td>"
                "<td>detect</td>"
                f"<td>{escape(event.kind)}</td>"
                f"<td>{event.severity:.2f}</td>"
                f"<td>{escape(event.title)}</td></tr>")
        parts.append("</table>")
    else:
        parts.append("<p>none — the run tracked its reference.</p>")
    parts.append("</body></html>")
    return "\n".join(parts)
