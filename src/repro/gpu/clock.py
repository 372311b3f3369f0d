"""The simulated clock's unit: integer picosecond ticks.

Every charge (kernel, Hyper-Q launch, ring, collective, storage read)
is rounded to a tick once, where it is made; one 745 MHz cycle is about
1342 ps.  Clocks and ledgers then add integers, so they conserve under
plain ``==`` in any order.  Milliseconds are derived for display.
"""

from __future__ import annotations

__all__ = ["PS_PER_MS", "apportion", "ticks"]

#: Picosecond ticks per simulated millisecond.
PS_PER_MS = 10**9


def ticks(ms: float) -> int:
    """``ms`` rounded to a tick; exact on ``ps / PS_PER_MS`` for any
    ``ps`` below 2**50 (about 18 simulated minutes)."""
    return round(ms * PS_PER_MS)


def apportion(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` ticks in proportion to integer ``weights`` by
    largest remainder (floor shares, then one tick each to the largest
    remainders, earlier parts first on ties).  The parts sum to
    ``total`` whenever a weight is positive; zero weights get nothing."""
    whole = sum(weights)
    if whole <= 0:
        return [0] * len(weights)
    shares = [divmod(total * w, whole) for w in weights]
    parts = [q for q, _ in shares]
    order = sorted(range(len(parts)), key=lambda i: -shares[i][1])
    for i in order[:total - sum(parts)]:
        parts[i] += 1
    return parts
