"""In-memory storage provider (dict of blobs)."""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from repro.exceptions import KeyNotFound
from repro.storage.provider import StorageProvider, clamp_range


class MemoryProvider(StorageProvider):
    """Thread-safe in-process blob store.

    Used directly for scratch datasets (`mem://`), as the LRU cache tier,
    and as the backing store of the simulated object stores.
    """

    def __init__(self, name: str = ""):
        super().__init__()
        self.name = name
        self._data: Dict[str, bytes] = {}
        self._lock = threading.RLock()

    def _get(self, key: str, start: Optional[int], end: Optional[int]) -> bytes:
        with self._lock:
            try:
                blob = self._data[key]
            except KeyError:
                raise KeyNotFound(key) from None
        if start is None and end is None:
            return blob
        s, e = clamp_range(len(blob), start, end)
        return blob[s:e]

    def _set(self, key: str, value: bytes) -> None:
        with self._lock:
            self._data[key] = value

    def _store_many(self, items) -> None:
        """Install the whole batch under one lock hold (atomic for readers)."""
        with self._lock:
            self._data.update(items)

    def _delete(self, key: str) -> None:
        with self._lock:
            try:
                del self._data[key]
            except KeyError:
                raise KeyNotFound(key) from None

    def _all_keys(self) -> Set[str]:
        with self._lock:
            return set(self._data)

    def nbytes(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._data.values())

    def __repr__(self) -> str:
        return f"MemoryProvider(name={self.name!r}, keys={len(self._data)})"
