"""GPUDevice launch recorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import GPUDevice, Granularity, KEPLER_K40, expansion_kernel


def _k(name="k"):
    return expansion_kernel(np.full(1000, 8), Granularity.WARP, KEPLER_K40,
                            name=name)


class TestLaunch:
    def test_sequential_accumulation(self, device: GPUDevice):
        k1, k2 = _k("a"), _k("b")
        device.launch(k1)
        device.launch(k2)
        assert device.elapsed_ps == k1.time_ps + k2.time_ps
        assert len(device.records) == 2

    def test_concurrent_counts_once(self, device: GPUDevice):
        ks = [_k("a"), _k("b"), _k("c")]
        res = device.launch_concurrent(ks)
        assert device.elapsed_ps == res.elapsed_ps
        assert res.elapsed_ms < sum(k.time_ms for k in ks)

    def test_charge_non_kernel_time(self, device: GPUDevice):
        device.charge("transfer", 1.5)
        assert device.elapsed_ps == 1_500_000_000
        assert device.kernels() == []

    def test_charge_negative_rejected(self, device: GPUDevice):
        with pytest.raises(ValueError):
            device.charge("bad", -1.0)

    def test_timeline_labels(self, device: GPUDevice):
        device.launch(_k("alpha"), label="L0:alpha")
        device.charge("comm", 0.1)
        tl = device.timeline()
        assert tl[0][0] == "L0:alpha"
        assert tl[1] == ("comm", 0.1)

    def test_counters_cover_all_kernels(self, device: GPUDevice):
        device.launch(_k())
        device.launch_concurrent([_k(), _k()])
        c = device.counters()
        assert c.gld_transactions == sum(
            k.access.transactions for k in device.kernels())

    def test_reset(self, device: GPUDevice):
        device.launch(_k())
        device.reset()
        assert device.elapsed_ms == 0.0
        assert device.records == ()
