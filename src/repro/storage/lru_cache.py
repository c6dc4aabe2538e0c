"""Chainable LRU cache provider (§3.6: "memory caching by chaining various
storage providers together, for instance the LRU cache of remote S3 storage
with local in-memory data").

The cache is itself a :class:`StorageProvider`, so arbitrary chains compose:
``LRUCache(MemoryProvider(), LRUCache(LocalProvider(...), S3(...)))``.

Policies
--------
- Reads fill the cache and refresh recency; eviction is strict LRU by
  payload size against ``cache_size`` bytes.
- Ranged reads on uncached keys pass through *without* filling the cache:
  streaming sub-ranges of multi-MB chunks must not thrash the cache.
- Writes go to the cache and are tracked dirty; ``write_through=True``
  (default) also pushes downstream immediately, otherwise :meth:`flush`
  pushes all dirty keys (write-back): what arrived in batches as one
  batch, then each single-key write in the order it was made — a
  dataset's commit point (a manifest or the version tree) is a single
  PUT after the batch it publishes, and stays so downstream.

Concurrency
-----------
All bookkeeping (`_order`, `_dirty`, byte accounting, hit/miss counters)
is guarded by one re-entrant lock, so many reader threads — dataloader
prefetch workers, the Tensor Streaming Server's request handlers — can
share a single cache.  A *miss* releases the lock while fetching from the
slow downstream provider so concurrent hits (and misses on other keys)
proceed in parallel; if two threads race the same miss, both fetch and
one insert wins (the server layer adds single-flight dedup on top when
the duplicate fetch itself is too expensive).  A write generation counter
keeps a fetch that was in flight across a set/delete/invalidate from
installing stale bytes.  Downstream writers (write-through set, delete,
flush write-backs) do their slow I/O outside the bookkeeping lock too;
the one deliberate exception is write-back mode's dirty handling during
eviction/invalidate, which stays under the lock so a thread's own dirty
write can never be observed rolled back mid-write-back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Set

from repro.exceptions import KeyNotFound
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.storage.provider import StorageProvider, clamp_range


class LRUCache(StorageProvider):
    """LRU byte-budgeted cache in front of a slower provider.

    Per-instance ``hits``/``misses``/``evictions`` counters stay exact
    object-level fields (tests and reprs rely on them); every event is
    also recorded into the global registry under ``cache.hits`` /
    ``cache.misses`` / ``cache.evictions`` labeled by the cache's
    ``name``, so fleet-wide hit ratios come from one snapshot.
    """

    def __init__(
        self,
        cache_storage: StorageProvider,
        next_storage: StorageProvider,
        cache_size: int,
        write_through: bool = True,
        name: str = "lru",
    ):
        super().__init__()
        self.cache_storage = cache_storage
        self.next_storage = next_storage
        self.cache_size = int(cache_size)
        self.write_through = write_through
        self.name = name
        self._m_hits = _metrics.counter("cache.hits", cache=name)
        self._m_misses = _metrics.counter("cache.misses", cache=name)
        self._m_evictions = _metrics.counter("cache.evictions", cache=name)
        self._order: "OrderedDict[str, int]" = OrderedDict()  # key -> nbytes
        # dirty key -> whether a single-key write (not a batch) made it,
        # in the order the writes were made
        self._dirty: Dict[str, bool] = {}
        self._lock = threading.RLock()
        # serializes downstream writers (write-through set, delete) with
        # each other — a set/delete interleaving must not leave the cache
        # tier and downstream disagreeing — while keeping their slow
        # downstream I/O outside _lock, so reader hits don't stall
        self._write_lock = threading.Lock()
        # bumped by every set/delete/invalidate: a miss fetch that was in
        # flight across any write must not install its (possibly stale)
        # blob, else a deleted/overwritten key can resurrect in the cache
        self._gen = 0
        self.cache_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # internals (call with self._lock held)
    # ------------------------------------------------------------------ #

    def _touch(self, key: str) -> None:
        self._order.move_to_end(key)

    def _evict_until_fits(self, incoming: int) -> None:
        while self._order and self.cache_used + incoming > self.cache_size:
            old_key, old_size = self._order.popitem(last=False)
            if old_key in self._dirty:
                self.next_storage[old_key] = self.cache_storage._get(
                    old_key, None, None
                )
                del self._dirty[old_key]
            self.cache_storage._delete(old_key)
            self.cache_used -= old_size
            self.evictions += 1
            self._m_evictions.inc()

    def _insert(self, key: str, value: bytes, dirty: bool,
                single: bool = False) -> None:
        if len(value) > self.cache_size:
            # Oversized blobs bypass the cache entirely.
            if dirty:
                self.next_storage[key] = value
            return
        if key in self._order:
            self.cache_used -= self._order.pop(key)
            self.cache_storage._delete(key)
            self._dirty.pop(key, None)
        self._evict_until_fits(len(value))
        self.cache_storage._set(key, value)
        self._order[key] = len(value)
        self.cache_used += len(value)
        if dirty:
            self._dirty[key] = single

    # ------------------------------------------------------------------ #
    # provider interface
    # ------------------------------------------------------------------ #

    def _get(self, key: str, start: Optional[int], end: Optional[int]) -> bytes:
        with self._lock:
            if key in self._order:
                self.hits += 1
                self._m_hits.inc()
                self._touch(key)
                blob = self.cache_storage._get(key, None, None)
                if start is None and end is None:
                    return blob
                s, e = clamp_range(len(blob), start, end)
                return blob[s:e]
            self.misses += 1
            self._m_misses.inc()
            gen = self._gen
        # Miss: fetch downstream without holding the lock so hits (and
        # misses on other keys) are not serialized behind slow I/O.
        if start is not None or end is not None:
            # ranged miss: pass through, do not pollute the cache
            return self.next_storage.get_bytes(key, start, end)
        with _tracing.span("cache.miss_fetch", cache=self.name, key=key):
            value = self.next_storage[key]
        with self._lock:
            if key not in self._order and self._gen == gen:
                self._insert(key, value, dirty=False)
        return value

    def _set(self, key: str, value: bytes) -> None:
        if self.write_through:
            with self._write_lock:
                self.next_storage[key] = value
                with self._lock:
                    self._gen += 1
                    self._insert(key, value, dirty=False)
        else:
            with self._lock:
                self._gen += 1
                self._insert(key, value, dirty=True, single=True)

    def set_many(self, items: Dict[str, bytes]) -> None:
        """Batched write: one downstream ``set_many`` when write-through,
        dirty absorption when write-back (the batch is pushed downstream
        as a batch again at :meth:`flush`)."""
        self.check_writable()
        if not items:
            return
        payload = {key: bytes(value) for key, value in items.items()}
        total = sum(len(v) for v in payload.values())
        with _tracing.span("cache.set_many", cache=self.name,
                           keys=len(payload), nbytes=total):
            if self.write_through:
                with self._write_lock:
                    self.next_storage.set_many(payload)
                    with self._lock:
                        self._gen += 1
                        for key, value in payload.items():
                            self._insert(key, value, dirty=False)
            else:
                with self._lock:
                    self._gen += 1
                    for key, value in payload.items():
                        self._insert(key, value, dirty=True)
        for value in payload.values():
            self.stats.record_put(len(value))

    def _delete(self, key: str) -> None:
        # bookkeeping under _lock, downstream delete outside it (readers
        # don't stall); _write_lock keeps it ordered against write-through
        # sets; the generation bump stops any in-flight miss fetch from
        # refilling the cache with the blob being deleted (resurrection)
        with self._write_lock:
            with self._lock:
                self._gen += 1
                found = key in self._order
                if found:
                    self.cache_used -= self._order.pop(key)
                    self.cache_storage._delete(key)
                    self._dirty.pop(key, None)
            try:
                del self.next_storage[key]
                found = True
            except KeyError:
                pass
        if not found:
            raise KeyNotFound(key)

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """Batched read: cache hits from memory, one downstream call for
        the misses (so a ReadPlan against a cached remote dataset pays at
        most one round trip regardless of how many chunks it touches)."""
        out: Dict[str, bytes] = {}
        missing = []
        with self._lock:
            gen = self._gen
            for key in dict.fromkeys(keys):  # a repeat is one hit or miss
                if key in self._order:
                    self.hits += 1
                    self._m_hits.inc()
                    self._touch(key)
                    out[key] = self.cache_storage._get(key, None, None)
                else:
                    self.misses += 1
                    self._m_misses.inc()
                    missing.append(key)
        for key, data in out.items():
            self.stats.record_get(len(data))
        if missing:
            with _tracing.span("cache.miss_fetch_many", cache=self.name,
                               keys=len(missing)):
                fetched = self.next_storage.get_many(missing)
            with self._lock:
                for key, value in fetched.items():
                    if key not in self._order and self._gen == gen:
                        self._insert(key, value, dirty=False)
            for key, value in fetched.items():
                self.stats.record_get(len(value))
                out[key] = value
        return out

    def _all_keys(self) -> Set[str]:
        with self._lock:
            cached = set(self._order)
        return cached | self.next_storage._all_keys()

    def is_cached(self, key: str) -> bool:
        """True when *key* is resident in the cache tier (no downstream I/O)."""
        with self._lock:
            return key in self._order

    def invalidate(self, key: str) -> bool:
        """Drop *key* from the cache tier only (downstream untouched).

        Dirty entries are written back first.  Returns True if the key was
        cached.  Used by the serving tier after an out-of-band write makes
        a cached blob stale.
        """
        with self._lock:
            self._gen += 1  # suppress in-flight miss inserts of old bytes
            if key not in self._order:
                return False
            if key in self._dirty:
                self.next_storage[key] = self.cache_storage._get(key, None, None)
                del self._dirty[key]
            self.cache_used -= self._order.pop(key)
            self.cache_storage._delete(key)
            return True

    def flush(self) -> None:
        """Write back all dirty keys, then flush downstream: every key a
        batch wrote in ONE downstream ``set_many``, then the single-key
        writes one PUT each, in the order they were made.  A dataset
        publishes with a single PUT after the batch it names (its
        manifest, the version tree), so a crash mid-write-back leaves at
        worst unreferenced keys, as it would without the cache.

        The dirty set is snapshotted under the lock but the downstream
        writes happen outside it, so concurrent reader hits don't stall
        behind a bulk write-back.  (A key evicted mid-flush is written at
        most twice with the same bytes — harmless.)
        """
        with self._lock:
            pending = [
                (key, self.cache_storage._get(key, None, None), single)
                for key, single in self._dirty.items()
            ]
            self._dirty.clear()
        batch = {key: value for key, value, single in pending if not single}
        if batch:
            self.next_storage.set_many(batch)
        for key, value, single in pending:
            if single:
                self.next_storage[key] = value
        self.next_storage.flush()

    def clear_cache(self) -> None:
        """Drop the cache tier (flushing dirty keys first)."""
        self.flush()
        with self._lock:
            for key in list(self._order):
                self.cache_storage._delete(key)
            self._order.clear()
            self.cache_used = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"LRUCache(used={self.cache_used}/{self.cache_size}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"next={self.next_storage!r})"
        )
