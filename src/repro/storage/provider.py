"""Abstract storage provider: a flat mutable mapping of key -> bytes.

Every Deep Lake component talks to storage through this interface, so a
dataset can live in memory, on a POSIX filesystem, or on (simulated) object
storage interchangeably (§3.6).  Two capabilities beyond a plain mapping
matter for the paper's access patterns:

- **ranged reads** (:meth:`get_bytes`): the streaming dataloader and the
  tile-pyramid visualizer fetch sub-ranges of 8 MB chunks instead of whole
  blobs ("range-based requests to access sub-elements inside chunks", §3.5);
- **batched reads and writes** (:meth:`get_many` / :meth:`set_many`): the
  ReadPlan layer fetches every chunk a batch of samples needs in one call,
  letting backends amortize per-request overhead (one round trip for a
  served dataset, one charged request for simulated object storage);
- **request accounting** (:attr:`stats`): the benchmarks reason about
  request counts and bytes moved, which is what separates the baselines on
  object storage.

The accounting lives in this base class alone.  ``get_many`` and
``set_many`` are the only batch entry points: they dedupe, check
writability, coerce values, call a provider's hook (:meth:`_fetch_many` /
:meth:`_store_many`, which only moves bytes) and record the call once.
Every count is one of the provider's own registry series
(``storage.*{provider=<class>}``), and :class:`StorageStats` is a
read-only view of them.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, Iterator, MutableMapping, Optional, Sequence, Set

from repro.exceptions import ReadOnlyStorageError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing


class StorageStats:
    """Traffic that flowed through one provider: a read-only view of the
    provider's own series (a disabled registry stops them too).

    Besides request/byte counts, each operation kind (``get``,
    ``get_many``, ``put``, ``set_many``) keeps a latency histogram of one
    observation per call, real seconds; a
    :class:`~repro.storage.object_store.SimulatedObjectStore` also answers
    for its request kinds (``download``, ``upload_batch``, ...) in
    modelled virtual seconds, retry backoff included.
    """

    __slots__ = ("_provider",)

    def __init__(self, provider: "StorageProvider"):
        self._provider = provider

    get_requests = property(lambda s: s._provider._m_gets.value)
    put_requests = property(lambda s: s._provider._m_puts.value)
    delete_requests = property(lambda s: s._provider._m_deletes.value)
    list_requests = property(lambda s: s._provider._m_lists.value)
    bytes_read = property(lambda s: s._provider._m_bytes_read.value)
    bytes_written = property(lambda s: s._provider._m_bytes_written.value)

    def latency_samples(self, op: str) -> list:
        """The retained per-call latency samples of *op*."""
        series = self._provider._latency(op)
        return [] if series is None else series.samples()

    def latency_percentiles(self, op: str) -> dict:
        """p50/p95/p99 over the retained samples for *op*."""
        return _metrics.percentiles(self.latency_samples(op))

    def reset(self) -> None:
        """Zero the provider's own ``storage.*`` series (the registry's
        family series keep counting)."""
        p = self._provider
        for series in (p._m_gets, p._m_puts, p._m_deletes, p._m_lists,
                       p._m_bytes_read, p._m_bytes_written,
                       *map(p._latency, StorageProvider._OPS)):
            series.reset()

    def snapshot(self) -> dict:
        out = {name: getattr(self, name) for name in (
            "get_requests", "put_requests", "delete_requests",
            "list_requests", "bytes_read", "bytes_written")}
        sampled = {op: len(self.latency_samples(op))
                   for op in StorageProvider._OPS}
        sampled = {op: n for op, n in sampled.items() if n}
        if sampled:
            out["latency_samples"] = sampled
        return out


class StorageProvider(ABC, MutableMapping):
    """Flat key/value blob store with ranged reads and traffic stats.

    Every provider reports into the global metrics registry through series
    of its own, labeled by provider class — ``storage.get_requests
    {provider=...}``, ``storage.op_seconds{provider=...,op=...}`` — and
    emits trace spans for whole-blob and batched reads when a trace is
    active, which is how a served ``read_batch`` trace reaches all the way
    down to the object store.
    """

    # the provider's own series, each chained to its provider-labeled
    # family, which is resolved when the provider first records into it
    # (every TQL result builds a provider)
    _m_gets = _metrics.labeled(
        _metrics.Counter, "storage.get_requests", provider="_kind")
    _m_puts = _metrics.labeled(
        _metrics.Counter, "storage.put_requests", provider="_kind")
    _m_deletes = _metrics.labeled(
        _metrics.Counter, "storage.delete_requests", provider="_kind")
    _m_lists = _metrics.labeled(
        _metrics.Counter, "storage.list_requests", provider="_kind")
    _m_bytes_read = _metrics.labeled(
        _metrics.Counter, "storage.bytes_read", provider="_kind")
    _m_bytes_written = _metrics.labeled(
        _metrics.Counter, "storage.bytes_written", provider="_kind")
    # their samples are StorageStats.latency_samples: each keeps them
    _h_get = _metrics.labeled(_metrics.Histogram, "storage.op_seconds",
                              True, provider="_kind", op="_GET")
    _h_get_many = _metrics.labeled(_metrics.Histogram, "storage.op_seconds",
                                   True, provider="_kind", op="_GET_MANY")
    _h_put = _metrics.labeled(_metrics.Histogram, "storage.op_seconds",
                              True, provider="_kind", op="_PUT")
    _h_set_many = _metrics.labeled(_metrics.Histogram, "storage.op_seconds",
                                   True, provider="_kind", op="_SET_MANY")
    #: the ``op`` label values of ``storage.op_seconds``
    _GET, _GET_MANY, _PUT, _SET_MANY = "get", "get_many", "put", "set_many"
    _OPS = (_GET, _GET_MANY, _PUT, _SET_MANY)

    def __init__(self):
        self.read_only = False
        self.stats = StorageStats(self)

    @property
    def _kind(self) -> str:
        """The ``provider`` label of this provider's series."""
        return type(self).__name__

    def _latency(self, op: str) -> Optional[_metrics.Histogram]:
        """This provider's own per-call latency series of *op*."""
        return getattr(self, "_h_" + op) if op in self._OPS else None

    def _record_read(self, count: int, nbytes: int, t0: float,
                     op: str = _GET) -> None:
        """One read call that began at ``time.perf_counter()`` *t0* and
        found *count* blobs of *nbytes* in all."""
        seconds = time.perf_counter() - t0
        self._m_gets.inc(count)
        self._m_bytes_read.inc(nbytes)
        self._latency(op).observe(seconds)

    def _record_write(self, count: int, nbytes: int, t0: float,
                      op: str = _PUT) -> None:
        """One write call that began at *t0* and stored *count* blobs of
        *nbytes* in all."""
        seconds = time.perf_counter() - t0
        self._m_puts.inc(count)
        self._m_bytes_written.inc(nbytes)
        self._latency(op).observe(seconds)

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
            self._record_read(1, len(data), t0)
            sp.set(nbytes=len(data))
        return data

    def get_bytes(
        self, key: str, start: Optional[int] = None, end: Optional[int] = None
    ) -> bytes:
        """Ranged read; ``start``/``end`` follow slice semantics."""
        t0 = time.perf_counter()
        data = self._get(key, start, end)
        self._record_read(1, len(data), t0)
        return data

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """Fetch several whole blobs at once; missing keys are omitted.

        A repeated key is fetched once, and the call is recorded once: one
        GET per blob found, so request accounting matches N individual
        fetches, and one ``get_many`` latency observation.  Backends with
        a cheaper bulk path override :meth:`_fetch_many`: the LRU cache
        answers hits from memory and forwards only the misses downstream
        in one call, the remote provider ships all keys in a single round
        trip, and the simulated object store charges one request's
        overhead for the whole batch.
        """
        keys = list(dict.fromkeys(keys))
        if not keys:
            return {}
        t0 = time.perf_counter()
        out = self._fetch_many(keys)
        self._record_read(len(out), sum(map(len, out.values())), t0,
                          self._GET_MANY)
        return out

    def _fetch_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """The found blobs of distinct *keys*: one ``_get`` each."""
        out: Dict[str, bytes] = {}
        with _tracing.span("storage.get_many", provider=type(self).__name__,
                           keys=len(keys)) as sp:
            for key in keys:
                try:
                    out[key] = self._get(key, None, None)
                except KeyError:
                    continue
            sp.set(found=len(out))
        return out

    def set_many(self, items: Dict[str, bytes]) -> None:
        """Store several whole blobs at once.

        The write mirror of :meth:`get_many`, recorded once: one PUT per
        key and one ``set_many`` latency observation.  Backends with a
        cheaper bulk path override :meth:`_store_many` — the LRU cache
        absorbs the batch as dirty entries (or forwards it downstream in
        one call when write-through), the remote provider ships all blobs
        in a single round trip, and the simulated object store charges one
        request's overhead for the whole upload batch.  Iteration order of
        *items* is preserved, which the flush path relies on for
        crash-consistent key ordering.
        """
        self.check_writable()
        if not items:
            return
        payload = {key: bytes(value) for key, value in items.items()}
        t0 = time.perf_counter()
        self._store_many(payload)
        self._record_write(len(payload), sum(map(len, payload.values())),
                           t0, self._SET_MANY)

    def _store_many(self, items: Dict[str, bytes]) -> None:
        """Install *items* (bytes values, in order): one ``_set`` each."""
        with _tracing.span("storage.set_many", provider=type(self).__name__,
                           keys=len(items)) as sp:
            for key, value in items.items():
                self._set(key, value)
            sp.set(nbytes=sum(map(len, items.values())))

    def __setitem__(self, key: str, value: bytes) -> None:
        self.check_writable()
        value = bytes(value)
        t0 = time.perf_counter()
        self._set(key, value)
        self._record_write(1, len(value), t0)

    def __delitem__(self, key: str) -> None:
        self.check_writable()
        self._delete(key)
        self._m_deletes.inc()

    def __iter__(self) -> Iterator[str]:
        self._m_lists.inc()
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
        self._m_lists.inc()
        return sorted(k for k in self._all_keys() if k.startswith(prefix))

    def clear(self, prefix: str = "") -> None:  # type: ignore[override]
        """Delete every key under *prefix* ('' wipes the store)."""
        self.check_writable()
        for key in list(self._all_keys()):
            if key.startswith(prefix):
                self._delete(key)
                self._m_deletes.inc()

    def flush(self) -> None:
        """Push buffered writes downstream (no-op for terminal providers)."""

    def nbytes(self) -> int:
        """Total stored payload size (walks all keys; for tests/reports)."""
        return sum(len(self._get(k, None, None)) for k in self._all_keys())


def delete_keys(storage: StorageProvider, keys: list[str]) -> None:
    """Delete garbage *keys*, each taken off the list once gone: a delete
    that raises leaves it and the rest listed for the next call."""
    while keys:
        try:
            del storage[keys[-1]]
        except KeyError:
            pass
        keys.pop()


def clamp_range(
    length: int, start: Optional[int], end: Optional[int]
) -> tuple[int, int]:
    """Resolve slice-style byte range against a blob of *length* bytes."""
    s = 0 if start is None else (start + length if start < 0 else start)
    e = length if end is None else (end + length if end < 0 else end)
    s = max(0, min(s, length))
    e = max(s, min(e, length))
    return s, e
