"""Resilience policy for the serving path: health, backoff, hedging.

The dispatcher's reliability story (timeout + split-retry) assumed every
device eventually answers; with the fault layer (:mod:`repro.faults`)
that stops being true, so placement needs a memory:

* :class:`ResilienceConfig` — the policy knobs: exponential-backoff
  quarantine for sick devices, the hedging threshold past which a wave
  gets a backup dispatch on a second device, a cap on consecutive
  failovers per wave, and whether the engine sheds lowest-priority
  queries under overload instead of rejecting outright.
* :class:`DeviceHealth` — per-device failure tracking.  Each failure
  doubles the quarantine window (capped); a success resets the streak;
  a permanently lost device leaves the placement pool for good.  The
  dispatcher prefers healthy devices but falls back to quarantined ones
  rather than stalling when nothing else is alive.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceConfig", "DeviceHealth"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Failure-handling policy knobs (engine- and dispatcher-level)."""

    #: First quarantine window after a failure (simulated ms).
    backoff_base_ms: float = 1.0
    #: Multiplier per consecutive failure (exponential backoff).
    backoff_factor: float = 2.0
    #: Quarantine window ceiling.
    backoff_max_ms: float = 64.0
    #: Duplicate a wave on a second device once its sweep runs past this
    #: many simulated ms; the earlier completion wins.  None disables.
    hedge_threshold_ms: float | None = None
    #: Max consecutive failure re-dispatches per wave before the next
    #: attempt is accepted unconditionally (guards against a pathological
    #: failure streak starving a wave forever).
    max_failovers: int = 4
    #: Shed the lowest-priority pending query under overload instead of
    #: rejecting the incoming one at the batcher bound.
    shed_overload: bool = True

    def __post_init__(self) -> None:
        if self.backoff_base_ms <= 0:
            raise ValueError("backoff base must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.backoff_max_ms < self.backoff_base_ms:
            raise ValueError("backoff ceiling below its base")
        if self.hedge_threshold_ms is not None \
                and self.hedge_threshold_ms <= 0:
            raise ValueError("hedge threshold must be positive (or None)")
        if self.max_failovers < 0:
            raise ValueError("max_failovers cannot be negative")

    def backoff_ms(self, consecutive_failures: int) -> float:
        """Quarantine window after the Nth consecutive failure."""
        if consecutive_failures < 1:
            return 0.0
        window = self.backoff_base_ms * (
            self.backoff_factor ** (consecutive_failures - 1))
        return min(window, self.backoff_max_ms)


class DeviceHealth:
    """Per-device failure streaks, quarantine windows, and losses."""

    def __init__(self, count: int, config: ResilienceConfig | None = None):
        if count < 1:
            raise ValueError("need at least one device")
        self.config = config or ResilienceConfig()
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
        window = self.config.backoff_ms(self._consecutive[idx])
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
