"""DatasetServer: the multi-tenant Tensor Streaming Server.

One server hosts N datasets (each a storage backend) and answers protocol
requests from many concurrent clients.  The design mirrors what turns a
storage *format* into a serving *platform* (§5's streaming engine put
behind a shared front door):

- **Shared chunk cache** — one byte-budgeted LRU across all hosted
  datasets and tenants, so a hot chunk fetched for tenant A is served
  from memory to tenants B..Z.  Keys are namespaced ``dataset\\x00key``
  through a mux provider so the existing :class:`LRUCache` (now
  thread-safe) does the bookkeeping.
- **Single-flight dedup** — every backend blob read, one key or many,
  goes through :meth:`DatasetServer._batched_blobs`: a request leads the
  fetch of the keys nobody is fetching (ONE backend ``get_many`` for all
  of them) and joins the in-flight fetch of the rest instead of issuing
  its own (:mod:`repro.util.inflight`); followers count as *coalesced*.
- **Request coalescing** — byte-range requests are served by caching the
  *full* chunk once and slicing in memory, so a storm of sub-range reads
  against an 8 MB chunk costs one backend GET (blobs larger than the
  cache budget fall back to direct ranged reads).  ``get_many`` batches
  several keys into one round trip.
- **Admission control + per-tenant stats** — in-flight request limits per
  tenant and globally; rejected requests fail fast with
  :class:`~repro.exceptions.AdmissionError` rather than queueing without
  bound.
- **Sample batching** — the ``read_batch`` op serves samples as stored:
  the server opens the hosted dataset once, plans every requested tensor
  through :meth:`~repro.core.chunk_engine.ChunkEngine.plan_reads`,
  executes the plans as one :class:`~repro.core.chunk_engine.FusedReadPlan`
  (one fetch + one decompress per chunk, reading through the shared
  cache), and ships all rows back in a single response: per tensor one
  column of sample payloads (a JPEG tensor's stored bytes, not pixels),
  which the tenant decodes with one codec call on its own thread (§4.6)
  — so each tenant pays for its own decode CPU.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.compression import compress_array
from repro.core.read_plan import FusedReadPlan
from repro.exceptions import (
    AdmissionError,
    KeyNotFound,
    ReadOnlyStorageError,
    ServeError,
    UnknownDatasetError,
    UnknownServerError,
)
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.serve.protocol import OPS, Request, Response, error_response
from repro.serve.transport import (
    InprocTransport,
    ThreadedTransport,
    Transport,
)
from repro.storage.lru_cache import LRUCache
from repro.storage.memory import MemoryProvider
from repro.storage.provider import StorageProvider, clamp_range
from repro.util.inflight import InFlight

_SEP = "\x00"  # dataset/key namespace separator inside the shared cache

DEFAULT_CACHE_BYTES = 128 * 1024 * 1024


def _mux_key(dataset: str, key: str) -> str:
    return f"{dataset}{_SEP}{key}"


class _BackendMux(StorageProvider):
    """Routes namespaced cache misses to the owning dataset's backend."""

    def __init__(self, server: "DatasetServer"):
        super().__init__()
        self.server = server

    def _split(self, key: str):
        dataset, _, raw = key.partition(_SEP)
        return self.server._backend(dataset), raw

    def _get(self, key, start, end):
        backend, raw = self._split(key)
        return backend.get_bytes(raw, start, end)

    def _set(self, key, value):
        backend, raw = self._split(key)
        backend[raw] = value

    def _delete(self, key):
        backend, raw = self._split(key)
        del backend[raw]

    def _all_keys(self):
        keys = set()
        for name, backend in self.server._datasets_snapshot().items():
            keys |= {_mux_key(name, k) for k in backend._all_keys()}
        return keys

    def _fetch_many(self, keys: Sequence[str]):
        """Batched misses: one backend get_many per owning dataset."""
        by_dataset: Dict[str, List[str]] = {}
        for key in keys:
            dataset, _, raw = key.partition(_SEP)
            by_dataset.setdefault(dataset, []).append(raw)
        out: Dict[str, bytes] = {}
        for dataset, raws in by_dataset.items():
            backend = self.server._backend(dataset)
            for raw, blob in backend.get_many(raws).items():
                out[_mux_key(dataset, raw)] = blob
        return out


class _ServeView(StorageProvider):
    """Read-only storage view the server's sample-serving Datasets use.

    Whole-blob reads (chunks, meta, encoders) go through the server's
    shared cache with single-flight dedup; batched reads ride the cache's
    ``get_many`` so a ReadPlan's misses reach the backend in one call;
    ranged reads slice a cached blob when resident and otherwise pass
    through to the backend without polluting the cache.
    """

    def __init__(self, server: "DatasetServer", dataset: str):
        super().__init__()
        self.server = server
        self.dataset = dataset
        self.read_only = True

    def _get(self, key, start, end):
        server = self.server
        cache = server.cache
        ranged = start is not None or end is not None
        if ranged and cache is not None and not cache.is_cached(
            _mux_key(self.dataset, key)
        ):
            # a header probe must not pull a whole chunk into the cache
            return server._backend(self.dataset).get_bytes(key, start, end)
        return server._read_key(self.dataset, key, start, end)[0]

    def _fetch_many(self, keys: Sequence[str]):
        return self.server._batched_blobs(self.dataset, keys)[0]

    def _set(self, key, value):
        raise ReadOnlyStorageError("served dataset views are read-only")

    def _delete(self, key):
        raise ReadOnlyStorageError("served dataset views are read-only")

    def _all_keys(self):
        return self.server._backend(self.dataset)._all_keys()


class TenantStats:
    """Per-tenant serving counters: each field is the tenant's own series
    of ``serve.<field>{server,tenant}``, so ``snapshot()`` stays exact per
    server while the registry sums every server's tenants.
    """

    FIELDS = ("requests", "rejected", "bytes_in", "bytes_out",
              "cache_hits", "cache_misses", "coalesced", "samples_served",
              "chunk_cache_hits", "chunk_cache_misses")

    __slots__ = ("_series",)

    def __init__(self, server: str = "", tenant: str = "default"):
        self._series = {
            f: _metrics.owned(_metrics.Counter, f"serve.{f}",
                              server=server, tenant=tenant)
            for f in self.FIELDS
        }

    def inc(self, name: str, n: int = 1) -> None:
        self._series[name].inc(n)

    def __getattr__(self, name: str) -> int:
        series = object.__getattribute__(self, "_series")
        if name in series:
            return series[name].value
        raise AttributeError(name)

    def snapshot(self) -> dict:
        return {name: self._series[name].value for name in self.FIELDS}


class DatasetServer:
    """Hosts datasets behind the serve protocol (thread-safe)."""

    #: the server's ``serve.prefetch_<field>`` counters, in chunks
    PREFETCH_FIELDS = ("issued", "hits", "wasted")

    def __init__(
        self,
        name: str = "local",
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_inflight_per_tenant: int = 64,
        max_inflight_total: int = 512,
    ):
        self.name = name
        self._datasets: Dict[str, StorageProvider] = {}
        self._datasets_lock = threading.Lock()
        self.cache: Optional[LRUCache] = (
            LRUCache(
                MemoryProvider(f"{name}-serve-cache"),
                _BackendMux(self),
                cache_bytes,
                name=f"{name}-serve",
            )
            if cache_bytes
            else None
        )
        self.max_inflight_per_tenant = int(max_inflight_per_tenant)
        self.max_inflight_total = int(max_inflight_total)
        self._admission_lock = threading.Lock()
        self._inflight_by_tenant: Dict[str, int] = {}
        self._total_inflight = 0
        self._stats_lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}
        self._inflight = InFlight()  # single-flight over the shared cache
        # lazily-opened Dataset views used by the read_batch sample op
        self._served_views: Dict[str, object] = {}
        self._views_lock = threading.Lock()
        self._oversize: Set[str] = set()  # mux keys too big for the cache
        self._transport: Optional[Transport] = None
        self._running = False
        # (op, tenant) -> serve.request_seconds histogram handle
        self._op_hists: Dict[Tuple[str, str], object] = {}
        # server-push prefetch: per-(tenant, dataset, tensors) stride
        # trackers + speculative-fetch accounting (units are chunks)
        self._prefetch_lock = threading.Lock()
        self._prefetch_trackers: Dict[Tuple[str, str, Tuple[str, ...]], dict] = {}
        self._ahead_bytes = 0  # unclaimed read-ahead + tasks' reservations
        self._ticks = 0  # read_batch windows seen: a stream's pace is in these
        self._prefetch_futures: List[object] = []
        # speculation runs on the server's own threads, never a tenant's
        # request thread; created on first use, shut down in stop()
        self._prefetch_pool: Optional[ThreadPoolExecutor] = None
        self._prefetch = {
            f: _metrics.owned(_metrics.Counter, f"serve.prefetch_{f}",
                              server=name)
            for f in self.PREFETCH_FIELDS
        }
        self._prefetch_errors = _metrics.counter(
            "serve.prefetch_errors", server=name)

    # ------------------------------------------------------------------ #
    # hosting / lifecycle
    # ------------------------------------------------------------------ #

    def add_dataset(
        self, name: str, storage: Union[str, StorageProvider]
    ) -> "DatasetServer":
        """Host *storage* (provider or URL) under ``serve://<server>/<name>``."""
        if isinstance(storage, str):
            from repro.storage.router import storage_from_url

            storage = storage_from_url(storage)
        with self._datasets_lock:
            if name in self._datasets:
                raise ServeError(f"dataset {name!r} is already being served")
            self._datasets[name] = storage
        return self

    def remove_dataset(self, name: str) -> None:
        with self._datasets_lock:
            self._datasets.pop(name, None)
        with self._views_lock:
            self._served_views.pop(name, None)
        with self._prefetch_lock:  # its streams' read-ahead is wasted
            for key in [k for k in self._prefetch_trackers if k[1] == name]:
                tr = self._prefetch_trackers.pop(key)
                self._retire(tr, list(tr["outstanding"]), "wasted")
                tr["ahead_end"] = 0  # a task in flight lands as wasted

    def _served_dataset(self, name: str):
        """Dataset view over a hosted backend, reading through the shared
        cache; opened once and reused by every read_batch request."""
        with self._views_lock:
            ds = self._served_views.get(name)
            if ds is None:
                from repro.core.dataset import Dataset

                self._backend(name)  # raise UnknownDatasetError early
                ds = Dataset(_ServeView(self, name), read_only=True)
                self._served_views[name] = ds
            return ds

    def _backend(self, name: str) -> StorageProvider:
        with self._datasets_lock:
            try:
                return self._datasets[name]
            except KeyError:
                raise UnknownDatasetError(
                    f"server {self.name!r} does not host dataset {name!r}; "
                    f"hosted: {sorted(self._datasets)}"
                ) from None

    def _datasets_snapshot(self) -> Dict[str, StorageProvider]:
        with self._datasets_lock:
            return dict(self._datasets)

    def start(self, num_workers: int = 4) -> "DatasetServer":
        """Register in the process-wide server registry and spin up the
        threaded server loop (making ``serve://<name>/...`` resolvable)."""
        if self._running:
            return self
        register_server(self)  # before spawning workers: a duplicate name
        try:                   # must not leak a half-started transport
            self._transport = ThreadedTransport(
                self,
                num_workers=num_workers,
                max_pending=self.max_inflight_total,
            )
        except BaseException:
            unregister_server(self)
            raise
        self._running = True
        return self

    def stop(self) -> None:
        """Unregister and shut the server loop down, cancelling queued
        requests (blocked clients get a ServeError, never a deadlock)."""
        unregister_server(self)
        self._running = False
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        with self._prefetch_lock:
            pool, self._prefetch_pool = self._prefetch_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "DatasetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def connect(
        self,
        dataset: str,
        tenant: str = "default",
        transport: Optional[Transport] = None,
    ):
        """A :class:`RemoteStorageProvider` for one hosted dataset."""
        from repro.serve.client import RemoteStorageProvider

        if transport is None:
            transport = self._transport or InprocTransport(self)
        return RemoteStorageProvider(transport, dataset, tenant=tenant)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    def handle(self, req: Request) -> Response:
        """Serve one request (safe to call from many threads).

        When the request carries a trace context, the whole dispatch is
        recorded as a detached span tree (server → cache → backend) and
        shipped back on ``resp.trace`` for the client to graft — one
        served ``read_batch`` renders as a single stitched trace.
        """
        tenant = self._tenant(req.tenant)
        try:
            self._admit(req.tenant)
        except AdmissionError as e:
            tenant.inc("rejected")
            return error_response(e)
        root = None
        if req.trace_id:
            root = _tracing.remote_child(
                req.trace_id, req.parent_span, f"server.{req.op}",
                server=self.name, tenant=req.tenant, dataset=req.dataset,
            )
            root.__enter__()
        t0 = time.perf_counter()
        try:
            tenant.inc("requests")
            resp = self._dispatch(req, tenant)
        except Exception as e:  # noqa: BLE001 - errors go on the wire
            resp = error_response(e)
        finally:
            self._release(req.tenant)
            if root is not None:
                root.__exit__(None, None, None)
        self._op_histogram(req.op, req.tenant).observe(
            time.perf_counter() - t0
        )
        if root is not None:
            resp.trace = root.to_dict()
        tenant.inc("bytes_out", resp.nbytes())
        tenant.inc("bytes_in", req.nbytes())
        return resp

    def _op_histogram(self, op: str, tenant: str):
        """Per-op/per-tenant request latency histogram handle (cached)."""
        key = (op, tenant)
        h = self._op_hists.get(key)
        if h is None:
            h = self._op_hists[key] = _metrics.histogram(
                "serve.request_seconds", server=self.name, op=op,
                tenant=tenant,
            )
        return h

    def _dispatch(self, req: Request, tenant: TenantStats) -> Response:
        if req.op == "get":
            return Response(data=self._serve_get(req, tenant))
        if req.op == "get_many":
            # batch semantics: missing keys are left out of the reply
            blobs, outcomes = self._batched_blobs(req.dataset, req.keys)
            self._count_outcomes(tenant, outcomes.values())
            return Response(blobs=blobs)
        if req.op == "read_batch":
            return self._serve_read_batch(req, tenant)
        if req.op == "put":
            backend = self._backend(req.dataset)
            backend[req.key] = req.payload
            self._invalidate(req.dataset, req.key)
            return Response()
        if req.op == "put_many":
            backend = self._backend(req.dataset)
            # one backend batch write, in the client's key order (the
            # crash-consistent flush ordering survives the round trip)
            backend.set_many(dict(req.blobs))
            for key in req.blobs:
                self._invalidate(req.dataset, key)
            return Response()
        if req.op == "delete":
            backend = self._backend(req.dataset)
            del backend[req.key]
            self._invalidate(req.dataset, req.key)
            return Response()
        if req.op == "keys":
            backend = self._backend(req.dataset)
            return Response(keys=tuple(backend.list_prefix("")))
        if req.op == "flush":
            self._backend(req.dataset).flush()
            return Response()
        if req.op == "stats":
            return Response(info=self.stats_snapshot())
        if req.op == "ping":
            return Response(info={
                "server": self.name,
                "datasets": sorted(self._datasets_snapshot()),
            })
        raise ServeError(f"unknown op {req.op!r}; expected one of {OPS}")

    # -- GET path ---------------------------------------------------------

    def _serve_get(self, req: Request, tenant: TenantStats) -> bytes:
        """The ``get`` op: :meth:`_read_key` plus tenant accounting.  A
        ranged request for an uncached blob fills the cache with the whole
        blob, so a storm of sub-range reads costs one backend GET."""
        data, outcome = self._read_key(
            req.dataset, req.key, req.start, req.end
        )
        self._count_outcomes(tenant, [outcome])
        return data

    @staticmethod
    def _count_outcomes(tenant: TenantStats, outcomes) -> None:
        """Per-key cache accounting, the same for one key or a batch: a
        follower of someone else's fetch counts as a hit and as
        *coalesced*."""
        counts = Counter(outcomes)
        tenant.inc("cache_hits", counts["hit"] + counts["coalesced"])
        tenant.inc("coalesced", counts["coalesced"])
        tenant.inc("cache_misses", counts["miss"])

    def _read_key(
        self, dataset: str, key: str,
        start: Optional[int] = None, end: Optional[int] = None,
    ) -> Tuple[bytes, str]:
        """``(bytes, outcome)`` for one key, or the ``[start, end)`` range
        of it: the one-key case of :meth:`_batched_blobs`, the range sliced
        from the whole blob in memory.  With no cache tier, or for a blob
        known to be larger than the cache, the (ranged) read goes straight
        to the backend.  A missing key raises ``KeyNotFound``."""
        if self.cache is None or _mux_key(dataset, key) in self._oversize:
            data = self._backend(dataset).get_bytes(key, start, end)
            return data, "miss"
        blobs, outcomes = self._batched_blobs(dataset, [key])
        if key not in blobs:
            raise KeyNotFound(key)
        blob = blobs[key]
        if start is not None or end is not None:
            s, e = clamp_range(len(blob), start, end)
            blob = blob[s:e]
        return blob, outcomes[key]

    def _serve_read_batch(self, req: Request, tenant: TenantStats) -> Response:
        """Samples for many rows in one round trip, as stored.

        The hosted dataset is read through the shared chunk cache, so the
        ReadPlan's chunk fetches land once per chunk server-wide; the
        request's own decoded-chunk hits and misses are surfaced per tenant.
        The tensors' plans are fused so every column's misses reach the
        backend in ONE ``get_many``; each request also feeds the
        per-tenant stride tracker that drives server-push prefetch of the
        next sequential window.  A plain plan of a sample-compressed
        tensor ships its stored payloads undecoded; any other plan the
        values it yields (tiled, padded, linked rows) framed by ``none``.
        """
        ds = self._served_dataset(req.dataset)
        names = tuple(req.tensors)
        rows = list(req.rows)
        # always plan + execute (even for one row): serving wants chunks
        # resident in the shared cache for the tenants that come next
        plans = [(name, engine, engine.plan_reads(rows))
                 for name, engine in zip(names, ds._open_engines(names))]
        fused = FusedReadPlan()
        for _name, engine, plan in plans:
            fused.add(engine, plan)
        # this request's own residency: what it fetched or joined missed,
        # and a joined chunk (another's flight) is also a coalesced hit
        resident = fused._fetch_all()
        misses = len(fused.fetched) + fused.joined
        self._count_outcomes(tenant, ["coalesced"] * fused.joined)
        columns = {}
        for (name, engine, plan), chunks in zip(plans, resident):
            meta = engine.meta
            codec = (plan.plain and not meta.is_link
                     and meta.sample_compression) or None
            values = engine.execute_plan(plan, aslist=True,
                                         decode=codec is None, _chunks=chunks)
            seq = ()
            if plan.seq_spans is not None:  # a row is the list of its items
                seq = ([len(v) for v in values], meta.dtype or "float64")
                values = [item for v in values for item in v]
            if codec is None:
                values = [compress_array(v, None) for v in values]
            columns[name] = (codec or "none", values, *seq)
        tenant.inc("samples_served", len(rows) * len(names))
        tenant.inc("chunk_cache_hits", fused.num_chunks - misses)
        tenant.inc("chunk_cache_misses", misses)
        self._note_read_window(req.tenant, req.dataset, names, rows,
                               plans, ds, fused)
        return Response(columns=columns)

    # -- server-push prefetch ---------------------------------------------

    prefetch_issued = property(lambda s: s._prefetch["issued"].value)
    prefetch_hits = property(lambda s: s._prefetch["hits"].value)
    prefetch_wasted = property(lambda s: s._prefetch["wasted"].value)

    def _prefetch_inc(self, field: str, n: int = 1) -> None:
        if n:
            self._prefetch[field].inc(n)

    def _note_read_window(self, tenant: str, dataset: str,
                          names: Tuple[str, ...], rows: List[int],
                          plans: list, ds, fused) -> None:
        """Feed the stride tracker with one ``read_batch`` window.

        From a tenant's second contiguous ascending window on, its tracker
        keeps ONE task on the prefetch pool reading ahead ``[max(end,
        ahead_end), end + window)``.  The window starts at one request's
        rows, doubles whenever a request claims read-ahead chunks (a
        *hit*), resets when the stride breaks (unclaimed chunks are
        *wasted*), and is capped so that unclaimed read-ahead bytes,
        server-wide, stay within half the shared cache (a row costs the
        densest chunks the stream's own *fused* fetches measured); streams
        that stopped give theirs back (:meth:`_retire_idle`).
        """
        if self.cache is None or not rows:
            return
        start, end = rows[0], rows[-1] + 1
        sequential = rows == list(range(start, end))
        current = {key for _n, _e, plan in plans
                   for key in plan.chunk_keys.values()}
        with self._prefetch_lock:
            self._ticks += 1
            tr = self._prefetch_trackers.setdefault((tenant, dataset, names), {
                "last_end": None, "ahead_end": 0, "window": len(rows),
                "span": 0, "tick": 0, "pace": 1, "row_bytes": 0.0, "slack": 0,
                "outstanding": {},  # read-ahead chunk key -> blob bytes
                "inflight": None,   # bytes reserved by the task in flight
                "taken": set(),     # keys planned while the task flies
            })
            tr["span"], tr["pace"], tr["tick"] = (
                len(rows), self._ticks - tr["tick"], self._ticks)
            if fused.fetched:  # slack: its largest chunk once per tensor
                tr["row_bytes"] = max(tr["row_bytes"], fused.row_bytes)
                tr["slack"] = max(tr["slack"],
                                  max(fused.fetched.values()) * len(names))
            if tr["inflight"] is not None:
                tr["taken"] |= current
            claimed = current.intersection(tr["outstanding"])
            self._retire(tr, claimed, "hits")
            streaming = sequential and tr["last_end"] == start
            if not streaming:
                # stride broke: whatever is still speculatively resident
                # was fetched for a future this tenant abandoned
                self._retire(tr, list(tr["outstanding"]), "wasted")
                tr["window"], tr["ahead_end"] = len(rows), 0
            elif claimed:
                self._grow(tr)
            tr["last_end"] = end if sequential else None
            per_row, slack = tr["row_bytes"], tr["slack"]
            if not streaming or tr["inflight"] is not None or not per_row:
                return
            lo = max(end, tr["ahead_end"])
            hi = min(end + tr["window"],
                     max(engine.num_samples for _n, engine, _p in plans))
            budget = self.cache.cache_size // 2 - slack
            if lo < hi and (hi - lo) * per_row > budget - self._ahead_bytes:
                self._retire_idle()
            hi = min(hi, lo + int((budget - self._ahead_bytes) // per_row))
            if hi <= lo:
                return
            tr["inflight"] = math.ceil((hi - lo) * per_row) + slack
            tr["ahead_end"] = hi
            self._ahead_bytes += tr["inflight"]
            if self._prefetch_pool is None:
                self._prefetch_pool = ThreadPoolExecutor(
                    max_workers=2,
                    thread_name_prefix=f"{self.name}-prefetch",
                )
            fut = self._prefetch_pool.submit(
                self._prefetch_window, tr, ds, names, lo, hi
            )
            self._prefetch_futures = [
                f for f in self._prefetch_futures if not f.done()
            ]
            self._prefetch_futures.append(fut)

    def _retire(self, tr: dict, keys, field: str) -> None:
        """Read-ahead chunks *keys* leave ``outstanding`` as *field*."""
        for key in keys:
            self._ahead_bytes -= tr["outstanding"].pop(key)
        self._prefetch_inc(field, len(keys))

    def _grow(self, tr: dict) -> None:
        """Double the window, within what the budget could ever hold."""
        most = int((self.cache.cache_size // 2 - tr["slack"])
                   // tr["row_bytes"])
        tr["window"] = max(tr["window"], min(2 * tr["window"], most))

    def _retire_idle(self) -> None:
        """Streams that stopped give their read-ahead back: one that has
        missed, at its own pace, more requests than it takes to consume
        what was read ahead for it is wasted, and starts anew."""
        for tr in self._prefetch_trackers.values():
            missed = (self._ticks - tr["tick"]) // tr["pace"] - 1
            if tr["outstanding"] and tr["inflight"] is None and (
                    missed * tr["span"] >= tr["ahead_end"] - tr["last_end"]):
                self._retire(tr, list(tr["outstanding"]), "wasted")
                tr["last_end"] = None

    def _prefetch_window(self, tr: dict, ds, names: Tuple[str, ...],
                         start: int, stop: int) -> None:
        """Speculatively fetch+decode rows ``[start, stop)`` of every
        tensor of *names* with one fused ``get_many`` (runs on the prefetch
        pool).  Speculative work never surfaces errors to tenants: a
        failure is counted in ``serve.prefetch_errors``."""
        fused = FusedReadPlan()
        try:
            with _tracing.span("serve.push_prefetch", server=self.name,
                               rows=stop - start, tensors=len(names)):
                for name in names:
                    engine = ds._engine(name)
                    rows = range(start, min(stop, engine.num_samples))
                    if rows:
                        fused.add(engine, engine.plan_reads(rows))
                fused.prefetch()
        except Exception:  # noqa: BLE001 - speculative: counted, not raised
            self._prefetch_errors.inc()
        finally:
            with self._prefetch_lock:
                issued = fused.fetched
                # fetched again: its first copy left the cache unclaimed
                self._retire(tr, tr["outstanding"].keys() & issued, "wasted")
                tr["outstanding"].update(issued)
                self._ahead_bytes += sum(issued.values()) - tr["inflight"]
                self._prefetch_inc("issued", len(issued))
                # what a request planned while this task flew is claimed
                taken = tr["taken"].intersection(issued)
                tr["inflight"], tr["taken"] = None, set()
                self._retire(tr, taken, "hits")
                if tr["ahead_end"] != stop:  # its stream broke meanwhile
                    self._retire(tr, issued.keys() - taken, "wasted")
                elif taken:
                    self._grow(tr)

    def drain_prefetch(self) -> None:
        """Wait for every in-flight speculative prefetch to settle (test
        hook — makes hit/waste accounting deterministic)."""
        while True:
            with self._prefetch_lock:
                futures, self._prefetch_futures = self._prefetch_futures, []
            if not futures:
                return
            for fut in futures:
                fut.result()

    def _batched_blobs(
        self, dataset: str, keys: Sequence[str]
    ) -> Tuple[Dict[str, bytes], Dict[str, str]]:
        """Whole blobs of *dataset* for many keys, with single-flight
        dedup — the only routine through which the server reads a backend
        blob.  Returns ``(blobs, outcomes)``, both keyed by key.

        Cache hits come from memory (outcome ``"hit"``); this request
        becomes the leader for every key with no fetch in flight and pays
        ONE downstream ``get_many`` for all of them (``"miss"``), while
        keys another request is already fetching are joined as a follower
        (``"coalesced"``) — so N concurrent requests over the same cold
        chunks, ``get`` / ``get_many`` / ``read_batch`` alike, cost one
        backend GET per chunk.  A follower whose flight a put / delete made
        stale fetches again through this routine.  Missing keys are
        omitted from both dicts (``get_many`` semantics).  Without a cache
        tier the batch is one ``backend.get_many``.
        """
        backend = self._backend(dataset)  # unknown dataset: raise, even on a hit
        cache = self.cache
        if cache is None:
            blobs = backend.get_many(keys)
            return blobs, dict.fromkeys(blobs, "miss")
        out: Dict[str, bytes] = {}
        outcomes: Dict[str, str] = {}
        cold: Dict[str, str] = {}  # mux key -> key
        for key in dict.fromkeys(keys):
            mkey = _mux_key(dataset, key)
            if cache.is_cached(mkey):
                try:
                    out[key] = cache[mkey]
                    outcomes[key] = "hit"
                    continue
                except KeyNotFound:
                    pass  # raced an eviction; fetch below
            cold[mkey] = key
        leaders, followers = self._inflight.claim(cold)
        if leaders:
            # a put/delete that raced the fetch leaves the flight stale: the
            # cached bytes predate the write and must not be served again
            with self._inflight.leading(leaders, on_stale=cache.invalidate):
                blobs = cache.get_many(list(leaders))
                for mkey, flight in leaders.items():
                    blob = blobs.get(mkey)
                    if blob is None:
                        flight.exc = KeyNotFound(cold[mkey])
                        continue
                    if len(blob) > cache.cache_size:
                        self._oversize.add(mkey)
                    flight.value = out[cold[mkey]] = blob
                    outcomes[cold[mkey]] = "miss"
        for mkey, flight in followers.items():
            key = cold[mkey]
            flight.event.wait()
            if flight.stale:
                # a write completed while that fetch was in flight; a read
                # issued after the write ack must not see the old bytes
                blobs, again = self._batched_blobs(dataset, [key])
                out.update(blobs)
                outcomes.update(again)
            elif flight.exc is None:
                out[key] = flight.value
                outcomes[key] = "coalesced"
            elif not isinstance(flight.exc, KeyNotFound):
                raise flight.exc
        return out, outcomes

    def _invalidate(self, dataset: str, key: str) -> None:
        # a write makes any opened Dataset view's encoders/meta stale;
        # drop it and let the next read_batch reopen lazily
        with self._views_lock:
            self._served_views.pop(dataset, None)
        mkey = _mux_key(dataset, key)
        self._oversize.discard(mkey)
        self._inflight.mark_stale(mkey)
        if self.cache is not None:
            self.cache.invalidate(mkey)

    # ------------------------------------------------------------------ #
    # admission + stats
    # ------------------------------------------------------------------ #

    def _tenant(self, tenant: str) -> TenantStats:
        with self._stats_lock:
            if tenant not in self._tenants:
                self._tenants[tenant] = TenantStats(self.name, tenant)
            return self._tenants[tenant]

    def _admit(self, tenant: str) -> None:
        with self._admission_lock:
            if self._total_inflight >= self.max_inflight_total:
                raise AdmissionError(
                    f"server {self.name!r} at global in-flight limit "
                    f"({self.max_inflight_total})"
                )
            current = self._inflight_by_tenant.get(tenant, 0)
            if current >= self.max_inflight_per_tenant:
                raise AdmissionError(
                    f"tenant {tenant!r} at in-flight limit "
                    f"({self.max_inflight_per_tenant}) on server {self.name!r}"
                )
            self._inflight_by_tenant[tenant] = current + 1
            self._total_inflight += 1

    def _release(self, tenant: str) -> None:
        with self._admission_lock:
            self._inflight_by_tenant[tenant] -= 1
            self._total_inflight -= 1

    def stats_snapshot(self) -> dict:
        with self._stats_lock:
            tenants = {t: s.snapshot() for t, s in self._tenants.items()}
        info = {
            "server": self.name,
            "datasets": sorted(self._datasets_snapshot()),
            "tenants": tenants,
        }
        if self.cache is not None:
            info["cache"] = {
                "used_bytes": self.cache.cache_used,
                "size_bytes": self.cache.cache_size,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_ratio": round(self.cache.hit_ratio, 4),
            }
        info["prefetch"] = {
            field: counter.value for field, counter in self._prefetch.items()
        }
        return info

    def __repr__(self) -> str:
        return (
            f"DatasetServer(name={self.name!r}, "
            f"datasets={sorted(self._datasets_snapshot())}, "
            f"running={self._running})"
        )


# --------------------------------------------------------------------------- #
# process-wide server registry (what `serve://name/...` resolves against)
# --------------------------------------------------------------------------- #

_SERVERS: Dict[str, DatasetServer] = {}
_REGISTRY_LOCK = threading.Lock()


def register_server(server: DatasetServer) -> None:
    with _REGISTRY_LOCK:
        existing = _SERVERS.get(server.name)
        if existing is not None and existing is not server:
            raise ServeError(
                f"a server named {server.name!r} is already running"
            )
        _SERVERS[server.name] = server


def unregister_server(server: DatasetServer) -> None:
    with _REGISTRY_LOCK:
        if _SERVERS.get(server.name) is server:
            del _SERVERS[server.name]


def get_server(name: str) -> DatasetServer:
    with _REGISTRY_LOCK:
        try:
            return _SERVERS[name]
        except KeyError:
            running: List[str] = sorted(_SERVERS)
            raise UnknownServerError(
                f"no running server named {name!r}; running servers: "
                f"{running or 'none'} (start one with repro.serve(...))"
            ) from None


def clear_servers() -> None:
    """Test hook: stop and forget every running server."""
    with _REGISTRY_LOCK:
        servers = list(_SERVERS.values())
        _SERVERS.clear()
    for server in servers:
        server._running = False
        if server._transport is not None:
            server._transport.close()
            server._transport = None
