"""A no-op stand-in for the removed in-code host profiler.

Host time is measured from outside the program: ``perfbench/run.py
--trace 1`` wraps each layer's entry points and reports their self time
per op, so no module of the simulator carries timing scopes.  This one
name stays only because ``perfbench/harness.py`` imports it to time its
``observ.hostprof_overhead`` round, which now reads about 1.0.  Delete
the module together with that import.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["profiling_host"]


@contextmanager
def profiling_host() -> Iterator[None]:
    """Run the body unchanged; see the module docstring."""
    yield
