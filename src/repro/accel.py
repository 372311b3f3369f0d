"""Vectorized fast paths: the interning caches and shared read-only ramps.

Every per-vertex hot path in the simulator has one implementation: a
batched whole-frontier NumPy formulation.  Golden digests pin each one
to the output of the seed code it replaced — every distance array,
counter snapshot, GTEPS figure and simulated millisecond, byte for byte
(``tests/test_golden_runs.py``; ``python -m tests.test_golden_runs``
regenerates the digests).  Single-function references (the list-walk
inspection, the masked-compress classification, the two-key ``lexsort``
bin order) live on as oracles in the property tests.

Interning: the cost constructors in :mod:`repro.gpu.kernels` and the
transaction counters in :mod:`repro.gpu.memory` are referentially
transparent, so they are memoized in bounded :class:`InternTable`
caches, as are the per-graph hub-set and hub-cache set-ups of
:mod:`repro.bfs.direction` and :mod:`repro.bfs.hubcache`.  Cached
objects are shared — callers must treat
:class:`~repro.gpu.kernels.KernelCost` records as frozen (the code base
already does; the golden suites would catch a mutation).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InternTable",
    "intern_table",
    "clear_intern_tables",
    "intern_stats",
    "instance_token",
    "shared_arange",
]


# ----------------------------------------------------------------------
# Interning tables
# ----------------------------------------------------------------------

class InternTable:
    """A bounded memo dict for referentially transparent constructors.

    The bound is a safety valve, not an eviction policy: when ``limit``
    entries accumulate (a long serve session over many graphs) the table
    is cleared wholesale, which only costs the next few constructions.
    Hit/miss counts are kept for the cache-behaviour tests.
    """

    __slots__ = ("table", "limit", "hits", "misses")

    def __init__(self, limit: int = 65536):
        self.table: dict = {}
        self.limit = limit
        self.hits = 0
        self.misses = 0

    def get(self, key):
        value = self.table.get(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key, value):
        if len(self.table) >= self.limit:
            self.table.clear()
        self.misses += 1
        self.table[key] = value
        return value

    def clear(self) -> None:
        self.table.clear()
        self.hits = 0
        self.misses = 0


_tables: dict[str, InternTable] = {}


def intern_table(name: str, *, limit: int = 65536) -> InternTable:
    """The named process-global intern table (created on first use)."""
    table = _tables.get(name)
    if table is None:
        table = _tables[name] = InternTable(limit)
    return table


def clear_intern_tables() -> None:
    """Drop every interned object (tests; never needed for correctness)."""
    for table in _tables.values():
        table.clear()


def intern_stats() -> dict[str, tuple[int, int, int]]:
    """name -> (entries, hits, misses) for every table."""
    return {name: (len(t.table), t.hits, t.misses)
            for name, t in sorted(_tables.items())}


# ----------------------------------------------------------------------
# Instance tokens
# ----------------------------------------------------------------------

_token_counter = 0


def instance_token(obj) -> int:
    """A process-unique small int identifying ``obj`` — a cheap stand-in
    for hashing a many-field (frozen) dataclass on every memo probe.

    The token is stored in the instance ``__dict__``, so its lifetime
    matches the object's: two equal-valued instances get distinct tokens
    and simply populate separate memo entries, which only costs a few
    redundant constructions, never a wrong hit.
    """
    tok = obj.__dict__.get("_intern_token")
    if tok is None:
        global _token_counter
        _token_counter += 1
        tok = obj.__dict__["_intern_token"] = _token_counter
    return tok


# ----------------------------------------------------------------------
# Shared read-only arange
# ----------------------------------------------------------------------

_arange = np.empty(0, dtype=np.int64)


def shared_arange(n: int) -> np.ndarray:
    """A read-only ``arange(n, dtype=int64)`` view from a growing pool.

    The ramp arrays used by gather/segment arithmetic are identical
    every call; this returns a slice of one cached buffer instead of
    re-materialising ``np.arange`` per frontier.
    """
    global _arange
    if _arange.size < n:
        _arange = np.arange(max(n, 2 * _arange.size, 1024), dtype=np.int64)
        _arange.setflags(write=False)
    return _arange[:n]
