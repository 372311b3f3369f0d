"""Chrome trace-event export — the nvvp timeline as a JSON artifact.

Converts a :class:`~repro.observ.tracer.Tracer`'s spans and counter
samples into the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and https://ui.perfetto.dev.  A run
exported this way is a live Figure 8: one track of run/level spans, one
track per simulated stream of kernel spans (concurrent Hyper-Q kernels
appear side by side), and counter tracks for frontier size, γ, α and
power.

Timestamps: the tracer records milliseconds (simulated or wall); the
trace-event format wants microseconds, so every ``ts``/``dur`` here is
``ms * 1000``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from .tracer import INSTANT_SCOPES, TID_HARNESS, TID_RUN, TID_SERVE, \
    Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_trace",
]

#: Human-readable names for the timeline-track conventions of the tracer.
_TRACK_NAMES = {TID_RUN: "run / levels", TID_HARNESS: "trial harness",
                TID_SERVE: "serve intake"}


def _track_name(tid: int) -> str:
    return _TRACK_NAMES.get(tid, f"stream {tid}")


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """Flatten a tracer into a sorted ``traceEvents`` list."""
    spans = tracer.spans()
    counters = tracer.counters()
    flows = tracer.flows()
    instants = tracer.instants()
    pids = ({s.pid for s in spans} | {c.pid for c in counters}
            | {f.pid for f in flows} | {m.pid for m in instants}) or {0}
    events: list[dict] = []
    for pid in sorted(pids):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"repro simulated GPU {pid}"}})
    for pid in sorted(pids):
        for tid in sorted({s.tid for s in spans if s.pid == pid}):
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": _track_name(tid)}})
    body: list[dict] = []
    for s in spans:
        body.append({
            "name": s.name,
            "cat": s.cat or "span",
            "ph": "X",
            "ts": round(s.ts_ms * 1e3, 3),
            "dur": round(s.dur_ms * 1e3, 3),
            "pid": s.pid,
            "tid": s.tid,
            "args": dict(s.args),
        })
    for c in counters:
        body.append({
            "name": c.name,
            "cat": "counter",
            "ph": "C",
            "ts": round(c.ts_ms * 1e3, 3),
            "pid": c.pid,
            "args": dict(c.values),
        })
    for f in flows:
        event = {
            "name": f.name,
            "cat": f.cat,
            "ph": f.ph,
            "id": f.flow_id,
            "ts": round(f.ts_ms * 1e3, 3),
            "pid": f.pid,
            "tid": f.tid,
            "args": dict(f.args),
        }
        if f.ph in ("s", "t", "f"):
            # Bind to the *enclosing* slice, not just one starting at ts.
            event["bp"] = "e"
        body.append(event)
    for m in instants:
        body.append({
            "name": m.name,
            "cat": m.cat,
            "ph": "i",
            "s": m.scope,
            "ts": round(m.ts_ms * 1e3, 3),
            "pid": m.pid,
            "tid": m.tid,
            "args": dict(m.args),
        })
    # Stable render order: by start time, longer (enclosing) spans first
    # (a flow event then follows the span it binds to at the same ts).
    body.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
    return events + body


def to_chrome_trace(tracer: Tracer,
                    *, meta: Mapping[str, object] | None = None) -> dict:
    """The full JSON-object trace document."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_chrome_trace(path: str | Path, tracer: Tracer,
                       *, meta: Mapping[str, object] | None = None,
                       expect_cluster: int | bool = False) -> dict:
    """Export ``tracer`` to ``path``; returns the document written.

    The document is checked with :func:`validate_trace` (passing
    ``expect_cluster`` through) before anything is written, so a
    malformed trace raises ``ValueError`` and leaves ``path`` alone."""
    doc = to_chrome_trace(tracer, meta=meta)
    validate_trace(doc, expect_cluster=expect_cluster)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")
    return doc


def validate_trace(doc: object, *,
                   expect_cluster: int | bool = False) -> int:
    """Structurally validate a trace document; returns the number of
    duration (``ph: "X"``) events.

    Raises ``ValueError`` on the first malformed element — the check the
    CI smoke run applies to an exported trace before declaring it
    Perfetto-loadable.  Beyond per-event shape, three cross-event
    invariants are enforced:

    * **async pairing** — every async end (``ph: "e"``) closes an open
      async begin (``ph: "b"``) with the same ``(cat, id)``, and no pair
      is left open at the end of the document;
    * **flow binding** — every flow event (``ph: "s"/"t"/"f"``) carries
      an ``id`` and lands inside an existing duration span on its
      ``(pid, tid)`` track (the slice Perfetto binds the arrow to);
    * **track monotonicity** — per ``(pid, tid)`` track, timestamped
      events appear with non-decreasing ``ts``;
    * **counter tracks** — every counter sample (``ph: "C"``) carries
      only finite, non-negative numeric values (a negative or NaN
      sample renders as garbage area in Perfetto), and per
      ``(pid, name)`` counter track timestamps are non-decreasing
      (counter events carry no ``tid``, so the per-track check above
      does not cover them);
    * **instant markers** — every instant event (``ph: "i"``/``"I"``,
      e.g. an anomaly marker) carries a valid scope (``s`` one of
      ``g``/``p``/``t``), lands on an existing track (thread-scoped
      markers need a duration span somewhere on their ``(pid, tid)``
      track; process-scoped ones an event on their pid), and has a
      timestamp inside the run window spanned by the other events.

    ``expect_cluster`` switches on the multi-node conventions of
    :mod:`repro.bfs.cluster` (**pid = node index**): pass the node count
    (or ``True`` to infer it from the largest pid) to additionally
    require

    * **contiguous node pids** — duration spans populate every pid in
      ``0 .. nodes-1`` and no others;
    * **flow chains** — every flow id forms an ``s`` → ``t``\\* → ``f``
      chain in timestamp order, and (with more than one node) at least
      one chain hops across two or more node tracks — the arrows that
      render collectives as inter-node traffic.

    Per-node monotone timestamps come free: node tracks are ordinary
    ``(pid, tid)`` tracks, so the track-monotonicity check covers them.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace must be a JSON object, got {type(doc)}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace lacks a traceEvents array")
    duration_events = 0
    #: (pid, tid) -> list of (ts, end_ts) duration spans, for binding.
    spans: dict[tuple, list[tuple[float, float]]] = {}
    flow_events: list[tuple[int, dict]] = []
    instant_events: list[tuple[int, dict]] = []
    open_async: dict[tuple, int] = {}
    last_ts: dict[tuple, float] = {}
    #: (pid, counter name) -> last ts on that counter track.
    last_counter_ts: dict[tuple, float] = {}
    #: pids carrying at least one timestamped non-instant event.
    event_pids: set = set()
    #: Run window spanned by the non-instant timestamped events.
    run_lo = math.inf
    run_hi = -math.inf
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if ph not in ("X", "C", "M", "B", "E", "i", "I",
                      "s", "t", "f", "b", "e"):
            raise ValueError(f"traceEvents[{i}] has unknown phase {ph!r}")
        if "name" not in event:
            raise ValueError(f"traceEvents[{i}] lacks a name")
        if ph in ("X", "C", "s", "t", "f", "b", "e"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{i}] has bad ts {ts!r}")
            if not isinstance(event.get("args", {}), dict):
                raise ValueError(f"traceEvents[{i}] args is not an object")
            event_pids.add(event.get("pid", 0))
            run_lo = min(run_lo, ts)
            run_hi = max(run_hi, ts)
            if ph != "C":
                # Counter samples live on (pid, name) tracks, not thread
                # tracks — they get their own monotonicity check below.
                track = (event.get("pid", 0), event.get("tid", 0))
                if ts < last_ts.get(track, 0.0):
                    raise ValueError(
                        f"traceEvents[{i}] goes backwards on track "
                        f"{track}: ts {ts} after {last_ts[track]}")
                last_ts[track] = ts
        if ph == "C":
            values = event.get("args", {})
            for key, value in values.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    raise ValueError(
                        f"traceEvents[{i}] counter {event['name']!r} "
                        f"series {key!r} has non-numeric value {value!r}")
                if math.isnan(value) or math.isinf(value) or value < 0:
                    raise ValueError(
                        f"traceEvents[{i}] counter {event['name']!r} "
                        f"series {key!r} has bad value {value!r} "
                        f"(must be finite and >= 0)")
            ctrack = (event.get("pid", 0), event["name"])
            if ts < last_counter_ts.get(ctrack, 0.0):
                raise ValueError(
                    f"traceEvents[{i}] counter track {ctrack} goes "
                    f"backwards: ts {ts} after {last_counter_ts[ctrack]}")
            last_counter_ts[ctrack] = ts
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] has bad dur {dur!r}")
            track = (event.get("pid", 0), event.get("tid", 0))
            spans.setdefault(track, []).append((ts, ts + dur))
            run_hi = max(run_hi, ts + dur)
            duration_events += 1
        if ph in ("i", "I"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{i}] has bad ts {ts!r}")
            if not isinstance(event.get("args", {}), dict):
                raise ValueError(f"traceEvents[{i}] args is not an object")
            scope = event.get("s")
            if scope not in INSTANT_SCOPES:
                raise ValueError(
                    f"traceEvents[{i}] instant event has invalid scope "
                    f"{scope!r} (must be one of {INSTANT_SCOPES})")
            instant_events.append((i, event))
        if ph in ("s", "t", "f", "b", "e"):
            if not isinstance(event.get("id"), (int, str)):
                raise ValueError(f"traceEvents[{i}] ({ph}) lacks an id")
            if ph in ("s", "t", "f"):
                flow_events.append((i, event))
            else:
                key = (event.get("cat"), event["id"])
                if ph == "b":
                    open_async[key] = open_async.get(key, 0) + 1
                else:
                    if open_async.get(key, 0) < 1:
                        raise ValueError(
                            f"traceEvents[{i}] async end without a "
                            f"matching begin for {key}")
                    open_async[key] -= 1
    dangling = [key for key, n in open_async.items() if n]
    if dangling:
        raise ValueError(f"async begin(s) never ended: {dangling}")
    for i, event in flow_events:
        track = (event.get("pid", 0), event.get("tid", 0))
        ts = event["ts"]
        if not any(begin <= ts <= end for begin, end
                   in spans.get(track, ())):
            raise ValueError(
                f"traceEvents[{i}] flow event (id {event['id']!r}) binds "
                f"to no duration span on track {track} at ts {ts}")
    for i, event in instant_events:
        ts = event["ts"]
        scope = event["s"]
        if not run_lo <= ts <= run_hi:
            raise ValueError(
                f"traceEvents[{i}] instant marker at ts {ts} lies "
                f"outside the run window [{run_lo}, {run_hi}]")
        if scope == "t":
            track = (event.get("pid", 0), event.get("tid", 0))
            if track not in spans:
                raise ValueError(
                    f"traceEvents[{i}] thread-scoped instant marker "
                    f"lands on track {track}, which has no duration "
                    f"spans")
        elif scope == "p":
            if event.get("pid", 0) not in event_pids:
                raise ValueError(
                    f"traceEvents[{i}] process-scoped instant marker "
                    f"names pid {event.get('pid', 0)}, which carries no "
                    f"events")
    if duration_events == 0:
        raise ValueError("trace contains no duration (ph=X) events")
    if expect_cluster:
        span_pids = {pid for (pid, _tid) in spans}
        nodes = (max(span_pids) + 1 if expect_cluster is True
                 else int(expect_cluster))
        expected_pids = set(range(nodes))
        if span_pids != expected_pids:
            raise ValueError(
                f"cluster trace should populate node pids "
                f"{sorted(expected_pids)}, got {sorted(span_pids)}")
        chains: dict[object, list[tuple[float, int, str]]] = {}
        for _i, event in flow_events:
            chains.setdefault(event["id"], []).append(
                (event["ts"], event.get("pid", 0), event["ph"]))
        cross_node = 0
        for fid in sorted(chains, key=str):
            hops = sorted(chains[fid])
            phases = [ph for _ts, _pid, ph in hops]
            bad = (phases[0] != "s"
                   or (len(phases) > 1 and phases[-1] != "f")
                   or any(ph != "t" for ph in phases[1:-1]))
            if bad:
                raise ValueError(
                    f"flow {fid!r} is not an s->t*->f chain in "
                    f"timestamp order: {phases}")
            if len({pid for _ts, pid, _ph in hops}) >= 2:
                cross_node += 1
        if nodes > 1 and cross_node == 0:
            raise ValueError(
                "cluster trace has no flow chain hopping across node "
                "tracks (expected one per collective)")
    return duration_events
