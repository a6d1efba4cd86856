"""Content-addressed invariant caches.

Keys are :func:`repro.invariant.canonical.instance_key` digests — a pure
function of instance geometry — so a cache can never serve a wrong
invariant: equal keys imply identical regions, and the invariant is a
function of the regions.

Two tiers compose:

* an in-memory **LRU** (an ``OrderedDict`` under a lock), bounded by
  ``maxsize`` entries;
* an optional persistent **store** tier: a
  :class:`~repro.store.SegmentStore` (or
  :class:`~repro.store.MirroredStore`) holding binary invariant records
  in checksummed, mmap'd segments, so warm corpora survive process
  restarts.  It is write-through on ``put``; a hit is promoted into
  memory.  Integrity, quarantine and crash recovery are the store's
  (DESIGN.md §14–15): a record that fails its checksum is a miss here
  and is simply recomputed.  A failed store write (torn segment, full
  disk) never fails the caller — the entry stays in memory and the
  ``store_write_failures`` counter ticks.

Invalidation needs no timestamps: a key changes whenever the geometry
changes, and stale entries for geometries never seen again simply age
out of the LRU.

Values are usually :class:`~repro.invariant.TopologicalInvariant`, but
any content-addressed artifact can ride the memory tier — the compiled
query engine caches its disc-region universes this way, keyed by
``instance_key`` plus the enumeration parameters.  Only invariants
belong in the store tier, so such caches are built without one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

__all__ = ["InvariantCache"]


class InvariantCache:
    """LRU + optional segment-store tier mapping content keys to
    artifacts."""

    def __init__(self, maxsize: int = 1024, store=None):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.store = store
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.evictions = 0
        self.store_write_failures = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def get(self, key: str) -> Any | None:
        """The cached artifact for *key*, or None.

        Memory first, then the store tier; a store hit is promoted into
        memory."""
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return hit
        loaded = self._load_store(key)
        with self._lock:
            if loaded is not None:
                self.hits += 1
                self.store_hits += 1
                self._store_memory(key, loaded)
            else:
                self.misses += 1
        return loaded

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._store_memory(key, value)
        if self.store is not None:
            try:
                self.store.put(key, value)
            except Exception:
                # A torn/poisoned segment or a full disk must not fail
                # the batch: memory still serves the entry.
                with self._lock:
                    self.store_write_failures += 1

    def clear(self) -> None:
        """Drop the memory tier (the store tier is left as is)."""
        with self._lock:
            self._memory.clear()

    # -- internals ----------------------------------------------------------

    def _store_memory(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)
            self.evictions += 1

    def _load_store(self, key: str) -> Any | None:
        if self.store is None:
            return None
        try:
            return self.store.get(key)
        except Exception:
            return None
