"""SLO error-budget and burn-rate alerting: units, properties,
determinism.

The property tests pin the math the report CLI and chaos harness rely
on: budget consumption is monotone in the error count, burn rates are
window-invariant for constant error rates, and the alert timeline is a
pure function of the (trace, fault plan) pair — fault-free serving
never alerts, a device-loss run on a saturated group always does, and
identically so on every replay.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import profile
from repro.observ.slo import BURN_RULES, Alert, SLOMonitor, SLOStatus
from repro.serve import ServeConfig, ServeEngine, TraceConfig, replay, \
    synthetic_trace


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------

class TestValidation:
    def test_config_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            ServeConfig(slo_latency_ms=0.0)
        with pytest.raises(ValueError):
            ServeConfig(slo_latency_ms=10.0, slo_availability=1.0)
        with pytest.raises(ValueError):
            ServeConfig(slo_latency_ms=10.0, slo_availability=0.0)
        # Without a latency target nothing is monitored or checked.
        ServeConfig(slo_availability=1.5)

    def test_budget_fraction(self):
        assert SLOStatus(10.0, 0.999).budget_fraction == \
            pytest.approx(0.001)

    def test_default_rules_are_page_and_ticket(self):
        assert [rule[0] for rule in BURN_RULES] == ["page", "ticket"]


class TestMonitorBasics:
    def test_empty_monitor_is_clean(self):
        status = SLOMonitor(10.0, 0.999).evaluate()
        assert status.total == 0
        assert status.bad == 0
        assert status.alerts == []
        assert status.met
        assert status.budget_consumed == 0.0
        assert status.budget_remaining == 1.0

    def test_zero_traffic_window_burns_nothing(self):
        monitor = SLOMonitor(10.0, 0.999)
        monitor.observe(5.0, bad=True)
        assert monitor.burn_rate(1.0, 100.0) == 0.0

    def test_observe_latency_classification(self):
        monitor = SLOMonitor(2.0, 0.999)
        assert not monitor.observe_latency(1.0, 1.0)          # fast: good
        assert monitor.observe_latency(2.0, 5.0)              # slow: bad
        assert monitor.observe_latency(3.0, 1.0, ok=False)    # failed: bad
        status = monitor.evaluate()
        assert (status.total, status.bad) == (3, 2)

    def test_alert_active_and_line(self):
        active = Alert("page", 1.0, float("nan"), 12.0, 15.0)
        cleared = Alert("page", 1.0, 2.0, 12.0, 15.0)
        assert active.active and not cleared.active
        assert "still active" in active.line()
        assert "cleared" in cleared.line()

    def test_hand_built_alert_timeline(self):
        # budget 0.1, page threshold 10 => the page alert fires iff both
        # of its windows (12 ms, 1 ms) are 100% bad.  Good traffic more
        # than 12 ms before a bad burst, then a good event to clear; the
        # 16 good events keep the ticket's 48 ms window under 25% bad.
        monitor = SLOMonitor(1.0, 0.9)
        for i in range(16):
            monitor.observe(0.5 * i, bad=False)
        for t in (20.0, 20.5, 21.0, 21.5):
            monitor.observe(t, bad=True)
        monitor.observe(22.2, bad=False)
        alerts = monitor.evaluate().alerts
        assert len(alerts) == 1
        assert alerts[0].rule == "page"
        assert alerts[0].fired_ms == pytest.approx(20.0)
        assert alerts[0].cleared_ms == pytest.approx(22.2)

    def test_dangling_alert_stays_active(self):
        # budget 0.25: all-bad traffic burns 4x, past the ticket's 2.5
        # and short of the page's 10.
        monitor = SLOMonitor(10.0, 0.75)
        monitor.observe(1.0, bad=True)
        alerts = monitor.evaluate().alerts
        assert len(alerts) == 1 and alerts[0].active
        assert alerts[0].rule == "ticket"


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

_TIMES = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)


class TestProperties:
    @given(times=_TIMES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_budget_consumption_monotone_in_error_count(self, times,
                                                        data):
        """Flipping additional events from good to bad never lowers
        budget consumption."""
        n = len(times)
        base = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        extra = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        first = SLOMonitor(10.0, 0.999)
        second = SLOMonitor(10.0, 0.999)
        for i, t in enumerate(times):
            first.observe(t, bad=i in base)
            second.observe(t, bad=i in base or i in extra)
        a, b = first.evaluate(), second.evaluate()
        assert b.bad >= a.bad
        assert b.budget_consumed >= a.budget_consumed - 1e-12
        assert b.budget_remaining <= a.budget_remaining + 1e-12

    @given(times=_TIMES,
           window=st.floats(min_value=0.1, max_value=1000.0),
           all_bad=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_burn_rate_window_invariant_for_constant_rates(
            self, times, window, all_bad):
        """A constant error rate burns identically through any window:
        all-bad traffic burns 1/budget regardless of window size,
        all-good burns zero."""
        monitor = SLOMonitor(10.0, 0.999)
        for t in times:
            monitor.observe(t, bad=all_bad)
        expected = (1.0 / (1.0 - monitor.availability)) if all_bad \
            else 0.0
        for t in times:
            assert monitor.burn_rate(window, t) == pytest.approx(expected)

    @given(times=_TIMES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_window_burn_matches_overall_bad_fraction(self, times,
                                                           data):
        n = len(times)
        bad = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        monitor = SLOMonitor(10.0, 0.999)
        for i, t in enumerate(times):
            monitor.observe(t, bad=i in bad)
        status = monitor.evaluate()
        span = max(times) + 1.0
        got = monitor.burn_rate(span, max(times))
        want = status.bad_fraction / status.budget_fraction
        assert got == pytest.approx(want)


# ----------------------------------------------------------------------
# End-to-end determinism on the serving stack
# ----------------------------------------------------------------------

def _loss_run(graph, faults: str):
    """A capacity-sensitive serving run: 2 devices, cache off, traffic
    past the single-device knee, so losing a device degrades latency."""
    config = ServeConfig(num_gpus=2, cache=False, faults=faults,
                         slo_latency_ms=2.0)
    plan = profile(faults, seed=7)
    engine = ServeEngine(graph, config, fault_plan=plan)
    trace = synthetic_trace(graph, TraceConfig(
        num_queries=9216, rate_per_ms=768.0, seed=7))
    replay(engine, trace)
    return engine.stats()


class TestServingDeterminism:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph import rmat_graph
        return rmat_graph(14, 16, seed=7)

    def test_fault_free_run_never_alerts(self, graph):
        stats = _loss_run(graph, "none")
        assert stats.slo is not None
        assert stats.slo.bad == 0
        assert stats.slo.alerts == []
        assert stats.slo.met

    def test_device_loss_fires_deterministic_alerts(self, graph):
        first = _loss_run(graph, "device-loss")
        assert first.slo is not None
        assert len(first.slo.alerts) >= 1
        assert first.slo.bad > 0
        second = _loss_run(graph, "device-loss")

        def key(alerts):
            # cleared_ms is NaN while still active; NaN != NaN, so map
            # it to None for the equality check.
            return [(a.rule, a.fired_ms,
                     None if a.active else a.cleared_ms,
                     a.long_burn, a.short_burn) for a in alerts]

        assert key(first.slo.alerts) == key(second.slo.alerts)
        assert first.slo.bad == second.slo.bad

    def test_slo_rides_stats_rows(self, graph):
        stats = _loss_run(graph, "device-loss")
        row = stats.rows()
        assert row["slo_bad"] == stats.slo.bad
        assert row["slo_alerts"] == len(stats.slo.alerts)
        assert math.isfinite(row["slo_budget_left"])
