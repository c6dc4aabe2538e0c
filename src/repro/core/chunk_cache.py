"""ChunkCache: the one decoded-chunk buffer cache of a dataset handle
("a buffer cache of fetched and unutilized data", §3.5).

A :class:`~repro.core.dataset.Dataset` handle, its views and every engine
they open share one: decoded chunks and chunk headers by storage key
under ONE byte budget, :data:`CACHE_BYTES`, plus the one
:class:`~repro.util.inflight.InFlight` table, so no chunk of the handle
is fetched twice at once.  A chunk is charged its size when put.  A
stored chunk key is write-once — a writer that changes a chunk writes a
copy under a fresh name, and a key it no longer names is deleted when
the commit is sealed, never rewritten — so what the cache holds at a key never goes stale: nothing
is ever dropped but by eviction, and a ``checkout`` keeps the cache
warm.  Further caching is a provider the caller chains (§3.6,
:mod:`repro.storage.lru_cache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.chunk import Chunk, ChunkHeader
from repro.util.inflight import InFlight

#: Decoded bytes one handle's cache may hold, over all its tensors.
CACHE_BYTES = 64 * 1024 * 1024


class ChunkCache:
    """Decoded chunks (LRU) and headers by storage key, and the chunk
    fetches in flight, of one dataset handle (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._chunks: "OrderedDict[str, Tuple[Chunk, int]]" = OrderedDict()
        self.headers: Dict[str, ChunkHeader] = {}
        self.nbytes = 0  # what the held chunks were charged when put
        self.inflight = InFlight()

    def get(self, key: str) -> Optional[Chunk]:
        """The chunk at *key*, now the most recently used, or ``None``."""
        with self._lock:
            entry = self._chunks.get(key)
            if entry is not None:
                self._chunks.move_to_end(key)
            return entry[0] if entry is not None else None

    def put(self, key: str, chunk: Chunk) -> None:
        """Hold *chunk* at *key*, evicting the least recently used until it
        fits; a chunk larger than the whole budget is not held."""
        size = len(chunk.data)
        with self._lock:
            self._pop(key)
            if size > CACHE_BYTES:
                return
            while self._chunks and self.nbytes + size > CACHE_BYTES:
                self._pop(next(iter(self._chunks)))
            self._chunks[key] = (chunk, size)
            self.nbytes += size

    def _pop(self, key: str) -> None:
        entry = self._chunks.pop(key, None)
        if entry is not None:
            self.nbytes -= entry[1]
