"""ASCII timeline rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.timeline import render_device_timeline
from repro.bfs import enterprise_bfs
from repro.gpu import GPUDevice, Granularity, expansion_kernel
from repro.graph import powerlaw_graph


@pytest.fixture
def traversed():
    g = powerlaw_graph(256, 6.0, 2.1, 40, seed=23, name="tl")
    device = GPUDevice()
    result = enterprise_bfs(g, int(np.argmax(g.out_degrees)),
                            device=device)
    return device, result


class TestDeviceTimeline:
    def test_contains_labels_and_total(self, traversed):
        device, _ = traversed
        text = render_device_timeline(device)
        assert "total" in text
        assert "ms" in text
        assert "#" in text

    def test_marks_concurrent_launches(self, traversed):
        device, _ = traversed
        text = render_device_timeline(device)
        assert "(Hyper-Q)" in text

    def test_folds_small_records(self, traversed):
        device, _ = traversed
        text = render_device_timeline(device, min_share=0.5)
        assert "(other:" in text

    def test_empty_device(self):
        assert render_device_timeline(GPUDevice()) == "(empty timeline)"

    def test_bar_lengths_proportional(self):
        device = GPUDevice()
        short = expansion_kernel(np.full(10, 4), Granularity.WARP,
                                 device.spec, name="short")
        long = expansion_kernel(np.full(5000, 50), Granularity.WARP,
                                device.spec, name="long")
        device.launch(short, label="short")
        device.launch(long, label="long")
        text = render_device_timeline(device, min_share=0.0)
        lines = {ln.split()[0]: ln for ln in text.splitlines()
                 if ln.startswith(("short", "long"))}
        assert lines["long"].count("#") > lines["short"].count("#")


def test_cli_timeline_flag(capsys):
    from repro.cli import main
    assert main(["bfs", "--graph", "GO", "--profile", "tiny",
                 "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "#" in out
