"""Shared helpers for the per-figure benchmark suite.

Every file in this directory regenerates one table or figure of the
paper's evaluation (DESIGN.md §4 maps them).  Tests use the
``pytest-benchmark`` fixture to time the regeneration itself, print the
regenerated rows, and check the paper's *qualitative* claims (ordering,
factor bands) as :class:`~repro.bench.PaperClaim` records; a claim that
does not hold fails its test unless it names the EXPERIMENTS.md
deviation that explains it.  EXPERIMENTS.md records paper-vs-measured
outcomes.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.bench import PaperClaim, claims_report, format_table


def emit(title: str, body: str) -> None:
    print(f"\n=== {title} ===\n{body}")


@pytest.fixture
def report() -> list[PaperClaim]:
    """The PaperClaims a test collects; see :func:`pytest_runtest_call`."""
    return []


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Print the claims a test collected in ``report`` and fail the test
    if one does not hold, unless it is tagged with the EXPERIMENTS.md
    deviation that explains it."""
    result = yield
    claims = getattr(item, "funcargs", {}).get("report")
    if claims:
        print("\n" + claims_report(claims))
        untagged = [c for c in claims if not c.holds and c.deviation is None]
        if untagged:
            pytest.fail("paper claims do not hold:\n"
                        + claims_report(untagged), pytrace=False)
    return result


def run_once(benchmark, fn, *args, **kwargs):
    """Time one regeneration pass (the data is deterministic; more
    rounds would only re-run identical work)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
