"""Resilience policy for the serving path: device health and backoff.

The dispatcher's reliability story (timeout + split-retry) assumed every
device eventually answers; with the fault layer (:mod:`repro.faults`)
that stops being true, so placement needs a memory:

* the **backoff constants** — a failure quarantines its device for
  :data:`BACKOFF_BASE_MS`, multiplied by :data:`BACKOFF_FACTOR` per
  consecutive failure up to :data:`BACKOFF_MAX_MS`, and a wave fails
  over at most :data:`MAX_FAILOVERS` times in a row.
* :class:`DeviceHealth` — per-device failure tracking.  Each failure
  doubles the quarantine window (capped); a success resets the streak;
  a permanently lost device leaves the placement pool for good.  The
  dispatcher prefers healthy devices but falls back to quarantined ones
  rather than stalling when nothing else is alive.
"""

from __future__ import annotations

__all__ = ["DeviceHealth", "BACKOFF_BASE_MS", "BACKOFF_FACTOR",
           "BACKOFF_MAX_MS", "MAX_FAILOVERS"]

#: First quarantine window after a failure (simulated ms).
BACKOFF_BASE_MS = 1.0
#: Multiplier per consecutive failure (exponential backoff).
BACKOFF_FACTOR = 2.0
#: Quarantine window ceiling (simulated ms).
BACKOFF_MAX_MS = 64.0
#: Max consecutive failure re-dispatches per wave before the next
#: attempt is accepted unconditionally (guards against a pathological
#: failure streak starving a wave forever).
MAX_FAILOVERS = 4


class DeviceHealth:
    """Per-device failure streaks, quarantine windows, and losses."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("need at least one device")
        self._consecutive = [0] * count
        self._quarantined_until = [0.0] * count
        self._lost = [False] * count
        #: Total quarantine windows opened (for metrics).
        self.quarantines = 0

    def __len__(self) -> int:
        return len(self._consecutive)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report_failure(self, idx: int, now_ms: float) -> float:
        """Record a failure; returns the quarantine window opened."""
        self._consecutive[idx] += 1
        window = min(BACKOFF_BASE_MS * BACKOFF_FACTOR
                     ** (self._consecutive[idx] - 1), BACKOFF_MAX_MS)
        self._quarantined_until[idx] = max(
            self._quarantined_until[idx], now_ms + window)
        self.quarantines += 1
        return window

    def report_success(self, idx: int) -> None:
        """A completed sweep resets the device's failure streak."""
        self._consecutive[idx] = 0

    def mark_lost(self, idx: int) -> None:
        """Remove the device from the placement pool permanently."""
        self._lost[idx] = True

    # ------------------------------------------------------------------
    # Placement queries
    # ------------------------------------------------------------------
    def is_lost(self, idx: int) -> bool:
        return self._lost[idx]

    def quarantined(self, idx: int, now_ms: float) -> bool:
        return not self._lost[idx] and now_ms < self._quarantined_until[idx]

    def consecutive_failures(self, idx: int) -> int:
        return self._consecutive[idx]

    def device_rows(self, now_ms: float) -> list[dict[str, object]]:
        """Per-device health summary rows for reports.

        One dict per device: index, state (``lost`` / ``quarantined`` /
        ``healthy``), consecutive-failure streak, and quarantine-window
        end."""
        rows: list[dict[str, object]] = []
        for idx in range(len(self._consecutive)):
            if self._lost[idx]:
                state = "lost"
            elif self.quarantined(idx, now_ms):
                state = "quarantined"
            else:
                state = "healthy"
            rows.append({
                "device": idx,
                "state": state,
                "consecutive_failures": self._consecutive[idx],
                "quarantined_until_ms": self._quarantined_until[idx],
            })
        return rows

    def alive(self) -> list[int]:
        """Indices still in the pool (lost devices never rejoin)."""
        return [i for i, lost in enumerate(self._lost) if not lost]

    def placement_pool(self, now_ms: float) -> list[int]:
        """Devices eligible for new work: healthy first, quarantined as
        a fallback (serving never stalls while something is alive)."""
        alive = self.alive()
        healthy = [i for i in alive if not self.quarantined(i, now_ms)]
        return healthy or alive
