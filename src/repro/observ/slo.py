"""SLO monitoring: error budgets and multi-window burn-rate alerts.

The serve stack reports latency percentiles, but a production deployment
is judged against a *service-level objective* — "99.9 % of queries
answer within 10 ms" — and operators page on how fast the error budget
is burning, not on raw counts.  This module implements the SRE-practice
version of that machinery on the repository's simulated clock:

* the **targets** — a latency target plus an availability target.  A
  request is *bad* when it fails outright (rejected / shed) or completes
  slower than the latency target; the error budget is the fraction of
  requests (``1 - availability``) allowed to be bad.
* :data:`BURN_RULES` — the multi-window burn-rate alerts: an alert fires
  only while *both* a long window and a short window burn the budget
  faster than its threshold (the long window gives significance, the
  short window makes the alert reset quickly once the incident ends).
  The pair mirrors the classic page/ticket split, scaled to
  simulated-millisecond serving runs.
* :class:`SLOMonitor` — consumes ``(completed_ms, bad)`` events, and
  :meth:`SLOMonitor.evaluate` replays them in completion order to
  produce a deterministic :class:`SLOStatus`: totals, budget
  consumption, and the fired/cleared :class:`Alert` timeline.

Everything is request-driven and evaluated on the simulated clock, so a
chaos profile (:mod:`repro.faults`) replayed over the same trace yields
a bit-identical alert timeline — the property the chaos harness and the
``report`` CLI rely on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

__all__ = ["Alert", "SLOStatus", "SLOMonitor", "BURN_RULES"]

#: The fast (page) and slow (ticket) burn-rate rules, scaled to the
#: few-to-hundreds-of-ms makespans of simulated serving runs: (name,
#: long significance window ms, short reset window ms, burn-rate
#: threshold).  The burn rate is a window's bad fraction over the
#: budget fraction; the short window is 1/12 the long one.
BURN_RULES = (("page", 12.0, 1.0, 10.0), ("ticket", 48.0, 4.0, 2.5))


@dataclass(frozen=True)
class Alert:
    """One burn-rate alert interval on the simulated timeline."""

    rule: str
    fired_ms: float
    #: Simulated time the condition stopped holding; NaN while still
    #: active at the end of the run.
    cleared_ms: float
    #: Burn rates observed at the firing instant.
    long_burn: float
    short_burn: float

    @property
    def active(self) -> bool:
        return math.isnan(self.cleared_ms)

    def line(self) -> str:
        cleared = ("still active" if self.active
                   else f"cleared {self.cleared_ms:9.3f} ms")
        return (f"[{self.rule}] fired {self.fired_ms:9.3f} ms, {cleared} "
                f"(burn {self.long_burn:.1f}x long / "
                f"{self.short_burn:.1f}x short)")


@dataclass
class SLOStatus:
    """End-of-run SLO verdict: budget accounting plus alert timeline."""

    #: A request slower than this (simulated ms) is budget-burning.
    latency_target_ms: float
    #: Fraction of requests that must be good (0.999 = "three nines").
    availability: float
    total: int = 0
    bad: int = 0
    alerts: list[Alert] = field(default_factory=list)

    @property
    def budget_fraction(self) -> float:
        """Fraction of requests allowed to be bad."""
        return 1.0 - self.availability

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total else 0.0

    @property
    def budget_consumed(self) -> float:
        """Error budget consumed, as a fraction of the whole budget
        (1.0 = fully spent; above 1.0 = SLO blown)."""
        if self.total == 0:
            return 0.0
        return self.bad_fraction / self.budget_fraction

    @property
    def budget_remaining(self) -> float:
        """Remaining budget fraction; negative once overspent."""
        return 1.0 - self.budget_consumed

    @property
    def met(self) -> bool:
        return self.budget_consumed <= 1.0

    def summary(self) -> str:
        verdict = "met" if self.met else "BLOWN"
        lines = [
            f"SLO {self.availability:.3%} within "
            f"{self.latency_target_ms:g} ms: {verdict} — "
            f"{self.bad}/{self.total} bad "
            f"({self.bad_fraction:.4%}), budget consumed "
            f"{self.budget_consumed:.1%}",
        ]
        if self.alerts:
            lines += ["  " + a.line() for a in self.alerts]
        else:
            lines.append("  no burn-rate alerts")
        return "\n".join(lines)


class SLOMonitor:
    """Accumulates request outcomes and evaluates burn-rate alerts.

    Feed it with :meth:`observe` (an explicit good/bad verdict) or
    :meth:`observe_latency` (the verdict derived from the latency
    target); call :meth:`evaluate` at end of run.  Events may
    arrive out of completion order — evaluation sorts them — so wave
    completions interleaved with cache hits need no care at the call
    sites.
    """

    def __init__(self, latency_target_ms: float, availability: float):
        self.latency_target_ms = latency_target_ms
        self.availability = availability
        #: (completed_ms, bad) pairs, unsorted.
        self._events: list[tuple[float, bool]] = []

    def observe(self, completed_ms: float, *, bad: bool) -> None:
        self._events.append((completed_ms, bad))

    def observe_latency(self, completed_ms: float, latency_ms: float,
                        *, ok: bool = True) -> bool:
        """Record one served request and return whether it was bad:
        failed outright or slower than the latency target."""
        bad = (not ok) or latency_ms > self.latency_target_ms
        self._events.append((completed_ms, bad))
        return bad

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _sorted(self) -> tuple[list[float], list[int]]:
        """Event times sorted, plus a bad-count prefix sum over them."""
        events = sorted(self._events)
        times = [ts for ts, _ in events]
        prefix = [0]
        for _, bad in events:
            prefix.append(prefix[-1] + int(bad))
        return times, prefix

    def _burn(self, times: list[float], prefix: list[int],
              window_ms: float, at_ms: float) -> float:
        lo = bisect.bisect_right(times, at_ms - window_ms)
        hi = bisect.bisect_right(times, at_ms)
        total = hi - lo
        if total == 0:
            return 0.0
        bad = prefix[hi] - prefix[lo]
        return (bad / total) / (1.0 - self.availability)

    def burn_rate(self, window_ms: float, at_ms: float) -> float:
        """Burn rate over the window ``(at_ms - window_ms, at_ms]``:
        the window's bad fraction divided by the budget fraction.
        Zero-traffic windows burn nothing."""
        times, prefix = self._sorted()
        return self._burn(times, prefix, window_ms, at_ms)

    def evaluate(self) -> SLOStatus:
        """Replay the event stream and derive the deterministic alert
        timeline: per rule, an alert fires at the first event where both
        windows exceed the threshold and clears at the first event where
        either drops back."""
        times, prefix = self._sorted()
        status = SLOStatus(self.latency_target_ms, self.availability,
                           total=len(times), bad=prefix[-1])
        for name, long_ms, short_ms, threshold in BURN_RULES:
            active: Alert | None = None
            for ts in times:
                long_burn = self._burn(times, prefix, long_ms, ts)
                short_burn = self._burn(times, prefix, short_ms, ts)
                firing = (long_burn >= threshold
                          and short_burn >= threshold)
                if firing and active is None:
                    active = Alert(name, ts, float("nan"),
                                   long_burn, short_burn)
                elif not firing and active is not None:
                    status.alerts.append(Alert(
                        active.rule, active.fired_ms, ts,
                        active.long_burn, active.short_burn))
                    active = None
            if active is not None:
                status.alerts.append(active)
        status.alerts.sort(key=lambda a: (a.fired_ms, a.rule))
        return status
