"""Abstract storage provider: a flat mutable mapping of key -> bytes.

Every Deep Lake component talks to storage through this interface, so a
dataset can live in memory, on a POSIX filesystem, or on (simulated) object
storage interchangeably (§3.6).  Two capabilities beyond a plain mapping
matter for the paper's access patterns:

- **ranged reads** (:meth:`get_bytes`): the streaming dataloader and the
  tile-pyramid visualizer fetch sub-ranges of 8 MB chunks instead of whole
  blobs ("range-based requests to access sub-elements inside chunks", §3.5);
- **batched reads** (:meth:`get_many`): the ReadPlan layer fetches every
  chunk a batch of samples needs in one call, letting backends amortize
  per-request overhead (one round trip for a served dataset, one charged
  request for simulated object storage);
- **request accounting** (:attr:`stats`): the benchmarks reason about
  request counts and bytes moved, which is what separates the baselines on
  object storage.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, MutableMapping, Optional, Sequence, Set

from repro.exceptions import ReadOnlyStorageError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

#: Per-op latency samples kept by :class:`StorageStats` (newest win).
LATENCY_SAMPLE_CAP = 4096


@dataclass
class StorageStats:
    """Counters of traffic that flowed through a provider.

    Besides aggregate request/byte counts, each operation kind keeps a
    bounded buffer of **per-call latency samples** (real seconds for real
    providers, modelled/virtual seconds for
    :class:`~repro.storage.object_store.SimulatedObjectStore`) so storage
    latency histograms have actual distributions to report, not just
    request totals.
    """

    get_requests: int = 0
    put_requests: int = 0
    delete_requests: int = 0
    list_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    latencies: Dict[str, deque] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_get(self, nbytes: int, seconds: Optional[float] = None) -> None:
        with self._lock:
            self.get_requests += 1
            self.bytes_read += nbytes
        if seconds is not None:
            self.record_latency("get", seconds)

    def record_put(self, nbytes: int, seconds: Optional[float] = None) -> None:
        with self._lock:
            self.put_requests += 1
            self.bytes_written += nbytes
        if seconds is not None:
            self.record_latency("put", seconds)

    def record_delete(self) -> None:
        with self._lock:
            self.delete_requests += 1

    def record_list(self) -> None:
        with self._lock:
            self.list_requests += 1

    def record_latency(self, op: str, seconds: float) -> None:
        """Append one per-call latency sample for *op* (bounded buffer)."""
        with self._lock:
            buf = self.latencies.get(op)
            if buf is None:
                buf = self.latencies[op] = deque(maxlen=LATENCY_SAMPLE_CAP)
            buf.append(float(seconds))

    def latency_samples(self, op: str) -> list:
        with self._lock:
            return list(self.latencies.get(op, ()))

    def latency_percentiles(self, op: str) -> dict:
        """p50/p95/p99 over the retained samples for *op*."""
        return _metrics.percentiles(self.latency_samples(op))

    def reset(self) -> None:
        with self._lock:
            self.get_requests = 0
            self.put_requests = 0
            self.delete_requests = 0
            self.list_requests = 0
            self.bytes_read = 0
            self.bytes_written = 0
            self.latencies.clear()

    def snapshot(self) -> dict:
        with self._lock:
            out = {
                "get_requests": self.get_requests,
                "put_requests": self.put_requests,
                "delete_requests": self.delete_requests,
                "list_requests": self.list_requests,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
            }
            sampled = {op: len(buf) for op, buf in self.latencies.items() if buf}
        if sampled:
            out["latency_samples"] = sampled
        return out


class StorageProvider(ABC, MutableMapping):
    """Flat key/value blob store with ranged reads and traffic stats.

    Every provider also reports into the global metrics registry, labeled
    by provider class — ``storage.get_requests{provider=...}``,
    ``storage.op_seconds{provider=...,op=...}`` — and emits trace spans
    for whole-blob and batched reads when a trace is active, which is how
    a served ``read_batch`` trace reaches all the way down to the object
    store.
    """

    def __init__(self):
        self.read_only = False
        self.stats = StorageStats()
        kind = type(self).__name__
        self._m_gets = _metrics.counter("storage.get_requests", provider=kind)
        self._m_puts = _metrics.counter("storage.put_requests", provider=kind)
        self._m_bytes_read = _metrics.counter(
            "storage.bytes_read", provider=kind
        )
        self._m_bytes_written = _metrics.counter(
            "storage.bytes_written", provider=kind
        )
        self._h_get = _metrics.histogram(
            "storage.op_seconds", provider=kind, op="get"
        )
        self._h_get_many = _metrics.histogram(
            "storage.op_seconds", provider=kind, op="get_many"
        )
        self._h_put = _metrics.histogram(
            "storage.op_seconds", provider=kind, op="put"
        )
        self._h_set_many = _metrics.histogram(
            "storage.op_seconds", provider=kind, op="set_many"
        )

    def _record_read(self, nbytes: int, seconds: float, op: str = "get") -> None:
        """Registry + stats accounting for one read that took *seconds*."""
        self.stats.record_get(nbytes)
        self.stats.record_latency(op, seconds)
        self._m_gets.inc()
        self._m_bytes_read.inc(nbytes)
        (self._h_get_many if op == "get_many" else self._h_get).observe(seconds)

    def _record_write(self, nbytes: int, seconds: float, op: str = "put") -> None:
        """Registry + stats accounting for one write that took *seconds*."""
        self.stats.record_put(nbytes)
        self.stats.record_latency(op, seconds)
        self._m_puts.inc()
        self._m_bytes_written.inc(nbytes)
        (self._h_set_many if op == "set_many" else self._h_put).observe(seconds)

    # -- write protection ------------------------------------------------

    def enable_readonly(self) -> None:
        self.read_only = True

    def disable_readonly(self) -> None:
        self.read_only = False

    def check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyStorageError(
                f"{type(self).__name__} is opened in read-only mode"
            )

    # -- abstract core ----------------------------------------------------

    @abstractmethod
    def _get(self, key: str, start: Optional[int], end: Optional[int]) -> bytes:
        """Fetch *key*, optionally a [start, end) byte range."""

    @abstractmethod
    def _set(self, key: str, value: bytes) -> None:
        ...

    @abstractmethod
    def _delete(self, key: str) -> None:
        ...

    @abstractmethod
    def _all_keys(self) -> Set[str]:
        ...

    # -- mapping interface --------------------------------------------------

    def __getitem__(self, key: str) -> bytes:
        with _tracing.span("storage.get", provider=type(self).__name__,
                           key=key) as sp:
            t0 = time.perf_counter()
            data = self._get(key, None, None)
            self._record_read(len(data), time.perf_counter() - t0)
            sp.set(nbytes=len(data))
        return data

    def get_bytes(
        self, key: str, start: Optional[int] = None, end: Optional[int] = None
    ) -> bytes:
        """Ranged read; ``start``/``end`` follow slice semantics."""
        t0 = time.perf_counter()
        data = self._get(key, start, end)
        self._record_read(len(data), time.perf_counter() - t0)
        return data

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """Fetch several whole blobs at once; missing keys are omitted.

        The base implementation loops, recording one GET per found key so
        request accounting matches N individual fetches.  Backends with a
        cheaper bulk path override this: the LRU cache answers hits from
        memory and forwards only the misses downstream in one call, the
        remote provider ships all keys in a single round trip, and the
        simulated object store charges one request's overhead for the
        whole batch.
        """
        out: Dict[str, bytes] = {}
        with _tracing.span("storage.get_many", provider=type(self).__name__,
                           keys=len(keys)) as sp:
            for key in dict.fromkeys(keys):  # a repeat is one GET
                try:
                    t0 = time.perf_counter()
                    data = self._get(key, None, None)
                except KeyError:
                    continue
                self._record_read(len(data), time.perf_counter() - t0,
                                  op="get_many")
                out[key] = data
            sp.set(found=len(out))
        return out

    def set_many(self, items: Dict[str, bytes]) -> None:
        """Store several whole blobs at once.

        The write mirror of :meth:`get_many`: the base implementation loops
        over ``_set``, recording one PUT per key so request accounting
        matches N individual stores, and backends with a cheaper bulk path
        override it — the LRU cache absorbs the batch as dirty entries (or
        forwards it downstream in one call when write-through), the remote
        provider ships all blobs in a single round trip, and the simulated
        object store charges one request's overhead for the whole upload
        batch.  Iteration order of *items* is preserved, which the flush
        path relies on for crash-consistent key ordering.
        """
        self.check_writable()
        if not items:
            return
        total = 0
        with _tracing.span("storage.set_many", provider=type(self).__name__,
                           keys=len(items)) as sp:
            for key, value in items.items():
                value = bytes(value)
                t0 = time.perf_counter()
                self._set(key, value)
                self._record_write(len(value), time.perf_counter() - t0,
                                   op="set_many")
                total += len(value)
            sp.set(nbytes=total)

    def __setitem__(self, key: str, value: bytes) -> None:
        self.check_writable()
        value = bytes(value)
        t0 = time.perf_counter()
        self._set(key, value)
        self._record_write(len(value), time.perf_counter() - t0)

    def __delitem__(self, key: str) -> None:
        self.check_writable()
        self._delete(key)
        self.stats.record_delete()

    def __iter__(self) -> Iterator[str]:
        self.stats.record_list()
        return iter(sorted(self._all_keys()))

    def __len__(self) -> int:
        return len(self._all_keys())

    def __contains__(self, key) -> bool:
        try:
            self._get(key, 0, 0)
            return True
        except KeyError:
            return False

    # -- convenience ---------------------------------------------------------

    def list_prefix(self, prefix: str) -> list:
        """All keys beginning with *prefix*, sorted."""
        self.stats.record_list()
        return sorted(k for k in self._all_keys() if k.startswith(prefix))

    def clear(self, prefix: str = "") -> None:  # type: ignore[override]
        """Delete every key under *prefix* ('' wipes the store)."""
        self.check_writable()
        for key in list(self._all_keys()):
            if key.startswith(prefix):
                self._delete(key)
                self.stats.record_delete()

    def flush(self) -> None:
        """Push buffered writes downstream (no-op for terminal providers)."""

    def nbytes(self) -> int:
        """Total stored payload size (walks all keys; for tests/reports)."""
        return sum(len(self._get(k, None, None)) for k in self._all_keys())


def clamp_range(
    length: int, start: Optional[int], end: Optional[int]
) -> tuple[int, int]:
    """Resolve slice-style byte range against a blob of *length* bytes."""
    s = 0 if start is None else (start + length if start < 0 else start)
    e = length if end is None else (end + length if end < 0 else end)
    s = max(0, min(s, length))
    e = max(s, min(e, length))
    return s, e
