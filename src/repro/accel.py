"""Vectorized fast paths: the mode switch and the interning caches.

The simulator keeps two implementations of every per-vertex hot path:

* the **scalar reference** — the original, straight-line NumPy code,
  kept verbatim as ``*_scalar`` functions next to each fast path; and
* the **vectorized** path — batched whole-frontier formulations plus
  interned (pooled) cost objects, which is what runs by default.

Both must produce **bit-identical** results: every distance array,
counter snapshot, GTEPS figure and perfbench ``sim_*`` metric is the
same object-for-object value under either mode.  The differential
test layer (``tests/test_vectorized_differential.py``) enforces this by
running both modes on pathological graphs, every BFS variant, MS-BFS
waves, the chaos fault matrix and the serve stack.

Selecting the scalar reference:

* environment — ``REPRO_SCALAR=1`` before interpreter start;
* runtime — :func:`set_scalar_mode` / the :func:`scalar_reference`
  context manager (what the differential tests use).

Interning: the cost constructors in :mod:`repro.gpu.kernels` and the
transaction counters in :mod:`repro.gpu.memory` are referentially
transparent, so the vectorized mode memoizes them in bounded
:class:`InternTable` caches.  Cached objects are shared — callers must
treat :class:`~repro.gpu.kernels.KernelCost` records as frozen (the
code base already does; the golden and differential suites would catch
a mutation).  Scalar mode bypasses every table, so the reference path
constructs each object from scratch exactly as the seed code did.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "scalar_mode",
    "set_scalar_mode",
    "scalar_reference",
    "InternTable",
    "intern_table",
    "clear_intern_tables",
    "intern_stats",
    "instance_token",
    "shared_arange",
]

_scalar = os.environ.get("REPRO_SCALAR", "").strip() not in ("", "0")


def scalar_mode() -> bool:
    """True when the scalar reference implementations are selected."""
    return _scalar


def set_scalar_mode(enabled: bool) -> bool:
    """Select scalar (True) or vectorized (False) mode; returns the
    previous setting.  Takes effect on the next hot-path call — there is
    no per-run state to invalidate."""
    global _scalar
    previous = _scalar
    _scalar = bool(enabled)
    return previous


@contextmanager
def scalar_reference(enabled: bool = True) -> Iterator[None]:
    """Run the body under the scalar reference implementations."""
    previous = set_scalar_mode(enabled)
    try:
        yield
    finally:
        set_scalar_mode(previous)


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
