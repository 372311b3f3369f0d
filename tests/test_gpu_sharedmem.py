"""Shared-memory hub cache: hashing, capacity, statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import HubCache, KEPLER_K40, SharedMemoryError, cache_capacity


class TestCapacity:
    def test_paper_arithmetic(self):
        """§4.3: 48 KB config / 8 CTAs -> 6 KB per CTA -> ~1,000 hub
        vertex slots ('around 1,000 hub vertices')."""
        cap = cache_capacity(KEPLER_K40, shared_config_bytes=48 * 1024,
                             ctas_per_sm=8)
        assert 500 <= cap <= 1024

    def test_larger_config_more_slots(self):
        small = cache_capacity(KEPLER_K40, shared_config_bytes=16 * 1024)
        large = cache_capacity(KEPLER_K40, shared_config_bytes=48 * 1024)
        assert large > small

    def test_over_allocation_rejected(self):
        with pytest.raises(SharedMemoryError):
            cache_capacity(KEPLER_K40, shared_config_bytes=128 * 1024)

    def test_zero_ctas_rejected(self):
        with pytest.raises(SharedMemoryError):
            cache_capacity(KEPLER_K40, ctas_per_sm=0)


class TestHubCache:
    def test_insert_and_hit(self):
        hc = HubCache(64)
        # 5, 10 and 70 hash to slots 5, 10 and 6: all three survive.
        survived = hc.refill(np.array([5, 10, 70]))
        assert survived.tolist() == [5, 10, 70]

    def test_collision_overwrite(self):
        """HC[hash(ID)] = ID: the later writer wins the slot (§4.3)."""
        hc = HubCache(16)
        survived = hc.refill(np.array([3, 19]))  # 19 % 16 == 3
        assert survived.tolist() == [19]

    def test_miss_is_safe(self):
        """A collision loses an entry; the loser is never reported as
        cached."""
        hc = HubCache(16)
        assert hc.refill(np.array([19, 3])).tolist() == [3]

    def test_empty_arrays(self):
        hc = HubCache(8)
        assert hc.refill(np.array([], dtype=np.int64)).size == 0

    def test_negative_ids_rejected(self):
        hc = HubCache(8)
        with pytest.raises(ValueError):
            hc.refill(np.array([-1]))

    def test_zero_capacity_rejected(self):
        with pytest.raises(SharedMemoryError):
            HubCache(0)


@given(
    ids=st.lists(st.integers(0, 10_000), min_size=1, max_size=300,
                 unique=True),
    capacity=st.integers(1, 512),
)
@settings(max_examples=60, deadline=None)
def test_cache_soundness(ids, capacity):
    """Every survivor is a refilled ID, and the survivors are exactly the
    last writers of their slots, in refill order."""
    hc = HubCache(capacity)
    # A previous level's contents never leak into the next refill.
    hc.refill(np.arange(10_001, 10_100))
    survived = hc.refill(np.array(ids, dtype=np.int64))
    last_writer = {}
    for v in ids:
        last_writer[v % capacity] = v
    assert survived.tolist() == [v for v in ids
                                 if last_writer[v % capacity] == v]


@given(ids=st.lists(st.integers(0, 1000), min_size=0, max_size=100))
@settings(max_examples=40, deadline=None)
def test_cache_length_bounded_by_capacity(ids):
    hc = HubCache(32)
    survived = hc.refill(np.array(ids, dtype=np.int64))
    assert 0 <= np.unique(survived).size <= 32
