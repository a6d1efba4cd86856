"""The two-tier invariant cache: LRU behaviour and the segment-store
tier."""

import pytest

from repro import Rect, SpatialInstance, invariant
from repro.datasets import fig_1c
from repro.faults import Fault, FaultPlan, inject
from repro.invariant import canonical_hash, instance_key
from repro.pipeline import InvariantCache
from repro.store import SegmentStore


def _inst(i: int) -> SpatialInstance:
    return SpatialInstance({"A": Rect(0, 0, 4 + i, 4)})


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = InvariantCache(maxsize=4)
        key = instance_key(fig_1c())
        assert cache.get(key) is None
        t = invariant(fig_1c())
        cache.put(key, t)
        assert cache.get(key) is t
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = InvariantCache(maxsize=2)
        keys = [instance_key(_inst(i)) for i in range(3)]
        t = invariant(fig_1c())
        cache.put(keys[0], t)
        cache.put(keys[1], t)
        cache.get(keys[0])  # refresh 0; 1 becomes least recent
        cache.put(keys[2], t)
        assert cache.get(keys[0]) is t
        assert cache.get(keys[1]) is None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            InvariantCache(maxsize=0)

    def test_clear(self):
        cache = InvariantCache()
        key = instance_key(fig_1c())
        cache.put(key, invariant(fig_1c()))
        cache.clear()
        assert cache.get(key) is None


class TestStoreTier:
    """The persistent tier is a segment store: entries outlive the
    cache object, a store hit is promoted into memory, torn or corrupt
    records are misses that a recompute heals, and failed writes never
    fail the caller."""

    def test_persists_across_cache_objects(self, tmp_path):
        key = instance_key(fig_1c())
        t = invariant(fig_1c())
        with SegmentStore(tmp_path) as store:
            InvariantCache(store=store).put(key, t)
        with SegmentStore(tmp_path) as store:
            fresh = InvariantCache(store=store)
            loaded = fresh.get(key)
            assert loaded is not None
            assert canonical_hash(loaded) == canonical_hash(t)
            assert fresh.store_hits == 1

    def test_store_hit_promotes_to_memory(self, tmp_path):
        key = instance_key(fig_1c())
        with SegmentStore(tmp_path) as store:
            InvariantCache(store=store).put(key, invariant(fig_1c()))
        with SegmentStore(tmp_path) as store:
            cache = InvariantCache(store=store)
            cache.get(key)
            cache.get(key)
            assert cache.store_hits == 1  # second hit served from memory
            assert cache.hits == 2
            assert len(cache) == 1

    def test_torn_record_is_a_miss(self, tmp_path):
        key = instance_key(fig_1c())
        with SegmentStore(tmp_path) as store:
            cache = InvariantCache(store=store)
            plan = FaultPlan(Fault("store_torn_append", key=key))
            with inject(plan):
                cache.put(key, invariant(fig_1c()))  # must not raise
            assert plan.exhausted()
            assert cache.store_write_failures == 1
        with SegmentStore(tmp_path) as store:
            fresh = InvariantCache(store=store)
            assert fresh.get(key) is None
            assert fresh.misses == 1

    def test_corrupt_record_is_a_miss_and_recompute_heals(self, tmp_path):
        key = instance_key(fig_1c())
        with SegmentStore(tmp_path) as store:
            InvariantCache(store=store).put(key, invariant(fig_1c()))
        with SegmentStore(tmp_path) as store:
            cache = InvariantCache(store=store)
            plan = FaultPlan(Fault("store_read_bitflip", key=key))
            with inject(plan):
                assert cache.get(key) is None
            assert plan.exhausted()
            assert cache.misses == 1
            cache.put(key, invariant(fig_1c()))
        with SegmentStore(tmp_path) as store:
            healed = InvariantCache(store=store).get(key)
            assert canonical_hash(healed) == canonical_hash(
                invariant(fig_1c())
            )

    def test_write_failure_tolerated_and_counted(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.close()  # every put now raises a structured StoreError
        cache = InvariantCache(store=store)
        key = instance_key(fig_1c())
        cache.put(key, invariant(fig_1c()))  # must not raise
        assert cache.store_write_failures == 1
        assert cache.get(key) is not None  # memory tier still serves
