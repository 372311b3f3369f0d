"""Profiler: exact time partition, determinism, diagnosis, and the
differential GTEPS attribution properties the CI gate relies on."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bfs.enterprise import ABLATION_CONFIGS, enterprise_bfs
from repro.gpu import GPUDevice
from repro.graph import powerlaw_graph
from repro.observ.artifact import (
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.observ.profiler import (
    KERNEL_CLASSES,
    PROFILE_SCHEMA,
    ClassProfile,
    LevelProfile,
    RunProfile,
    build_profile,
    diagnose,
    diff_profiles,
    format_diff,
    format_profile,
    from_json,
    profile_run,
    render_html,
    to_json,
)
from repro.observ.roofline import BOUND_KINDS


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(512, 8.0, 2.1, 64, seed=3, name="pl-512")


@pytest.fixture(scope="module")
def bl_profile(graph):
    return profile_run(graph, config=ABLATION_CONFIGS["BL"], seed=7)


@pytest.fixture(scope="module")
def hc_profile(graph):
    return profile_run(graph, config=ABLATION_CONFIGS["HC"], seed=7)


# ----------------------------------------------------------------------
# Building: the profile is an exact partition of the run
# ----------------------------------------------------------------------

class TestBuild:
    def test_cells_partition_run_time_exactly(self, hc_profile):
        cells = hc_profile.cells()
        assert sum(cells.values()) == hc_profile.time_ps

    def test_level_times_partition_run_time(self, hc_profile):
        total = sum(lvl.queue_gen_ps + lvl.expand_ps
                    for lvl in hc_profile.levels) + hc_profile.other_ps
        assert total == hc_profile.time_ps

    def test_class_attribution_partitions_expansion(self, hc_profile):
        for lvl in hc_profile.levels:
            if lvl.classes:
                assert sum(c.attributed_ps for c in lvl.classes) == \
                    lvl.expand_ps

    @pytest.mark.parametrize("slowdown", [1.5, 2.5, 4.0])
    def test_straggler_cells_partition_device_clock(self, graph, slowdown):
        device = GPUDevice(slowdown=slowdown)
        profile = build_profile(enterprise_bfs(graph, 0, device=device),
                                device)
        assert sum(profile.cells().values()) == profile.time_ps == \
            device.elapsed_ps
        for lvl in profile.levels:
            if lvl.classes:
                assert sum(c.attributed_ps for c in lvl.classes) == \
                    lvl.expand_ps

    def test_levels_sorted_and_classified(self, hc_profile):
        levels = [lvl.level for lvl in hc_profile.levels]
        assert levels == sorted(levels)
        for lvl in hc_profile.levels:
            assert lvl.bound in BOUND_KINDS
            assert 0.0 <= lvl.pct_of_roof <= 1.0
            for c in lvl.classes:
                assert c.kernel_class in KERNEL_CLASSES

    def test_matches_trace_metadata(self, graph, hc_profile):
        # The profile carries the run's own numbers, not re-derived ones.
        assert hc_profile.graph == graph.name
        assert hc_profile.visited > 0
        assert hc_profile.gteps > 0
        assert hc_profile.config == "BL+TS+WB+HC"

    def test_counters_finite(self, hc_profile):
        for value in hc_profile.counters.values():
            assert math.isfinite(float(value))
        for lvl in hc_profile.levels:
            for v in (lvl.ldst_fu_utilization, lvl.stall_data_request,
                      lvl.ipc, lvl.power_w):
                assert math.isfinite(v)

    def test_class_totals_merge(self, hc_profile):
        totals = {c.kernel_class: c for c in hc_profile.class_totals()}
        for name, merged in totals.items():
            assert merged.launches == sum(
                c.launches for lvl in hc_profile.levels
                for c in lvl.classes if c.kernel_class == name)


# ----------------------------------------------------------------------
# Serialization: versioned, deterministic, round-trippable
# ----------------------------------------------------------------------

class TestSerialization:
    def test_same_seed_byte_identical_json(self, graph):
        a = profile_run(graph, config=ABLATION_CONFIGS["HC"], seed=7)
        b = profile_run(graph, config=ABLATION_CONFIGS["HC"], seed=7)
        dump = lambda p: json.dumps(to_json(p), sort_keys=True)  # noqa: E731
        assert dump(a) == dump(b)

    def test_roundtrip(self, hc_profile, tmp_path):
        path = write_artifact(tmp_path / "p.profile.json",
                              to_json(hc_profile))
        loaded = from_json(load_artifact(path, PROFILE_SCHEMA))
        assert to_json(loaded) == to_json(hc_profile)
        assert loaded.levels[0].classes == hc_profile.levels[0].classes

    def test_schema_stamped(self, hc_profile):
        assert to_json(hc_profile)["schema"] == PROFILE_SCHEMA

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="repro.profile/v0"),
        lambda d: d.pop("levels"),
        lambda d: d.update(levels={}),
        lambda d: d.update(levels=[{"nope": 1}]),
    ])
    def test_validate_rejects(self, hc_profile, mutate):
        doc = to_json(hc_profile)
        mutate(doc)
        with pytest.raises(ValueError):
            validate_artifact(doc, PROFILE_SCHEMA)

    def test_validate_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_artifact([1, 2], PROFILE_SCHEMA)

    def test_from_json_validates(self, hc_profile):
        doc = to_json(hc_profile)
        doc["schema"] = "bogus"
        with pytest.raises(ValueError):
            from_json(doc)


# ----------------------------------------------------------------------
# Diagnosis: ranked, deterministic findings
# ----------------------------------------------------------------------

class TestDiagnose:
    def test_deterministic(self, hc_profile):
        assert diagnose(hc_profile) == diagnose(hc_profile)

    def test_ranked_and_bounded(self, hc_profile):
        findings = diagnose(hc_profile, max_findings=3)
        assert 0 < len(findings) <= 3 + 2  # run-wide riders may follow
        assert [f.rank for f in findings] == \
            list(range(1, len(findings) + 1))
        for f in findings:
            assert 0.0 <= f.severity <= 1.0
            assert f.line()

    def test_per_level_findings_sorted_by_time_share(self, hc_profile):
        findings = [f for f in diagnose(hc_profile)
                    if f.kind == "hot-level"]
        shares = [f.severity for f in findings]
        assert shares == sorted(shares, reverse=True)

    def test_bl_flags_simt_waste(self, bl_profile):
        # The BL baseline's one-CTA-per-vertex sweeps waste most lanes —
        # the diagnosis should say so (the waste WB exists to eliminate).
        kinds = {f.kind for f in diagnose(bl_profile)}
        assert "simt" in kinds

    def test_reports_render(self, hc_profile, bl_profile):
        text = format_profile(hc_profile)
        for section in ("-- levels --", "-- findings --",
                        "-- kernel classes (whole run) --"):
            assert section in text
        html = render_html(hc_profile,
                           diff=diff_profiles(bl_profile, hc_profile))
        assert html.startswith("<!DOCTYPE html>")
        assert "Findings" in html and "Differential" in html


# ----------------------------------------------------------------------
# Differential profiling on real runs
# ----------------------------------------------------------------------

class TestDiffRealRuns:
    def test_attributes_at_least_95_percent(self, bl_profile, hc_profile):
        diff = diff_profiles(bl_profile, hc_profile)
        assert diff.gteps_delta != 0.0
        assert diff.coverage >= 0.95

    def test_attributions_sum_to_observed_delta(self, bl_profile,
                                                hc_profile):
        diff = diff_profiles(bl_profile, hc_profile)
        attributed = diff.work_term + sum(a.gteps_delta
                                          for a in diff.attributions)
        assert attributed == pytest.approx(diff.gteps_delta, abs=1e-9)

    def test_work_term_zero_for_same_traversal(self, bl_profile,
                                               hc_profile):
        # Same graph + source: every config traverses the same edges.
        assert bl_profile.edges_traversed == hc_profile.edges_traversed
        assert diff_profiles(bl_profile, hc_profile).work_term == 0.0

    def test_antisymmetric(self, bl_profile, hc_profile):
        fwd = diff_profiles(bl_profile, hc_profile)
        rev = diff_profiles(hc_profile, bl_profile)
        assert rev.gteps_delta == pytest.approx(-fwd.gteps_delta)
        fwd_cells = {(a.level, a.phase, a.kernel_class): a.gteps_delta
                     for a in fwd.attributions}
        rev_cells = {(a.level, a.phase, a.kernel_class): a.gteps_delta
                     for a in rev.attributions}
        assert fwd_cells.keys() == rev_cells.keys()
        for key, value in fwd_cells.items():
            assert rev_cells[key] == pytest.approx(-value, rel=1e-9)

    def test_self_diff_is_empty(self, hc_profile):
        diff = diff_profiles(hc_profile, hc_profile)
        assert diff.gteps_delta == 0.0
        assert diff.attributions == ()
        assert diff.coverage == 1.0

    def test_deterministic_report(self, bl_profile, hc_profile):
        a = format_diff(diff_profiles(bl_profile, hc_profile))
        b = format_diff(diff_profiles(bl_profile, hc_profile))
        assert a == b
        assert "attributed" in a

    def test_ranked_by_magnitude(self, bl_profile, hc_profile):
        mags = [abs(a.gteps_delta) for a in
                diff_profiles(bl_profile, hc_profile).attributions]
        assert mags == sorted(mags, reverse=True)

    def test_zero_time_profile_rejected(self, hc_profile):
        import dataclasses
        broken = dataclasses.replace(hc_profile, time_ps=0)
        with pytest.raises(ValueError, match="no elapsed time"):
            diff_profiles(broken, hc_profile)


# ----------------------------------------------------------------------
# Differential profiling properties on synthetic profiles (hypothesis)
# ----------------------------------------------------------------------

def _cls(name: str, ps: int) -> ClassProfile:
    return ClassProfile(
        kernel_class=name, launches=1, time_ps=ps, attributed_ps=ps,
        gld_transactions=0, bytes_moved=0, instructions=0,
        useful_lane_steps=0, wasted_lane_steps=0, memory_time_ms=0.0,
        stall_time_ms=0.0, issue_time_ms=0.0, dram_time_ms=0.0,
        latency_time_ms=0.0, max_kernel_ps=ps)


def _lvl(i: int, qgen: int, classes: dict[str, int]) -> LevelProfile:
    return LevelProfile(
        level=i, direction="top-down", frontier_count=1, newly_visited=1,
        edges_checked=1, queue_gen_ps=qgen,
        expand_ps=sum(classes.values()), hub_cache_hits=0,
        hub_cache_lookups=0,
        classes=tuple(_cls(n, ps) for n, ps in sorted(classes.items())),
        ldst_fu_utilization=0.0, stall_data_request=0.0, ipc=0.0,
        power_w=0.0, bound="latency-bound", pct_of_roof=0.0,
        intensity=0.0)


def _prof(level_specs, edges: int, other: int = 0,
          label: str = "A") -> RunProfile:
    levels = tuple(_lvl(i, qgen, classes)
                   for i, (qgen, classes) in enumerate(level_specs))
    time_ps = sum(lvl.queue_gen_ps + lvl.expand_ps for lvl in levels) + other
    return RunProfile(
        algorithm="synthetic", config=label, graph="synthetic", source=0,
        device="K40", time_ps=time_ps, edges_traversed=edges, visited=1,
        depth=len(levels), levels=levels, other_ps=other, counters={},
        meta={})


#: Up to 10 simulated ms, in ticks.
_ps = st.integers(0, 10 * 10**9)
_classes = st.dictionaries(st.sampled_from(KERNEL_CLASSES), _ps,
                           min_size=0, max_size=3)
_level_specs = st.lists(st.tuples(_ps, _classes), min_size=1, max_size=4)


class TestDiffProperties:
    @settings(max_examples=150, deadline=None)
    @given(specs_a=_level_specs, specs_b=_level_specs,
           other_a=_ps, other_b=_ps)
    def test_attribution_sums_to_total_delta(self, specs_a, specs_b,
                                             other_a, other_b):
        a = _prof(specs_a, edges=10**6, other=other_a, label="A")
        b = _prof(specs_b, edges=10**6, other=other_b, label="B")
        assume(a.time_ms > 0 and b.time_ms > 0)
        diff = diff_profiles(a, b)
        # The decomposition is exact: the residual is float noise only.
        scale = max(1.0, abs(diff.gteps_before), abs(diff.gteps_after))
        assert abs(diff.residual) <= 1e-9 * scale
        if abs(diff.gteps_delta) > 1e-6 * scale:
            assert diff.coverage >= 0.95

    @settings(max_examples=150, deadline=None)
    @given(specs_a=_level_specs, specs_b=_level_specs)
    def test_antisymmetry_for_equal_work(self, specs_a, specs_b):
        a = _prof(specs_a, edges=10**6, label="A")
        b = _prof(specs_b, edges=10**6, label="B")
        assume(a.time_ms > 0 and b.time_ms > 0)
        fwd = diff_profiles(a, b)
        rev = diff_profiles(b, a)
        fwd_cells = {(x.level, x.phase, x.kernel_class): x.gteps_delta
                     for x in fwd.attributions}
        rev_cells = {(x.level, x.phase, x.kernel_class): x.gteps_delta
                     for x in rev.attributions}
        assert fwd_cells.keys() == rev_cells.keys()
        for key, value in fwd_cells.items():
            assert rev_cells[key] == pytest.approx(-value, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(specs=_level_specs, other=_ps)
    def test_self_diff_always_empty(self, specs, other):
        p = _prof(specs, edges=10**6, other=other)
        assume(p.time_ms > 0)
        diff = diff_profiles(p, p)
        assert diff.attributions == ()
        assert diff.coverage == 1.0
