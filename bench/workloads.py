"""The five benchmark workloads and every size constant they use.

Each workload drives ``repro`` through its public API, verifies what it
gets back, and reports one dict per timed repeat.  Nothing here reads the
environment: sizes live in :data:`SIZES`, randomness comes from ``seed``.

Why these five (one cell per subsystem, each isolating different layers):

``loader_warm``   CPU-bound read: storage ~0, decode + engine/loader overhead.
``loader_s3``     latency-bound read: real 20 ms round trips, cache < data.
``tql_warm``      query kernels + chunk slicing; storage/decode/loader idle.
``ingest_s3``     the write use of the same engine/codec/storage + commits.
``serve_tenants`` the only path through the serve tier; two unlike tenants.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import tempfile
import threading
import traceback
import zlib
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro.baselines import FFCVLoader, write_beton
from repro.compression import compress_array, decompress_array
from repro.dataloader import default_collate
from repro.serve import (
    DatasetServer,
    RemoteStorageProvider,
    SimNetworkTransport,
    ThreadedTransport,
)
from repro.sim import NETWORK_PRESETS, SimClock
from repro.storage import LRUCache, MemoryProvider, SimulatedObjectStore
from repro.tql import Executor, build_plan, parse
from repro.workloads import smooth_image

from bench.tracing import Recorder, TimedProvider

#: set-ups per run (``setup_s`` is their median) and the fewest timed
#: repeats a run may report a median over
SETUP_REPEATS = 3
MIN_REPEATS = 3

WARMUP_REP = 900  # shuffle-seed slot of the discarded warm-up epoch

WORKERS = 2  # client / loader worker threads: nproc of the reference box

SIZES = {
    "loader_warm": {
        "rows": 768, "hw": 96, "chunk_bytes": 1 << 20, "batch_size": 32,
        "w0_epochs": 3,
    },
    "loader_s3": {
        "rows": 768, "hw": 64, "chunk_bytes": 64 << 10, "batch_size": 32,
        "cache_fraction": 0.25, "time_scale": 1.0,
    },
    "tql_warm": {
        "rows": 16384, "labels": 16, "emb_dim": 32,
        "scalar_chunk_bytes": 8 << 10, "emb_chunk_bytes": 64 << 10,
        "extend_rows": 4096,
    },
    "ingest_s3": {
        "rows": 512, "hw": 64, "emb_dim": 64, "chunk_bytes": 64 << 10,
        "extend_rows": 128, "commit_every": 2, "time_scale": 1.0,
    },
    "serve_tenants": {
        "rows": 1024, "hw": 64, "chunk_bytes": 64 << 10, "window": 16,
        "requests_per_tenant": 100, "cache_fraction": 0.25,
        "zipf_a": 1.3, "zipf_share": 0.7, "server_workers": WORKERS,
        "time_scale": 1.0,
    },
}

#: ``--smoke`` sizes: the same code paths in about a second each, with the
#: simulated round trips slept at a tenth of their length
SMOKE_SIZES = {
    "loader_warm": dict(SIZES["loader_warm"], rows=96, hw=32,
                        chunk_bytes=16 << 10, batch_size=16, w0_epochs=1),
    "loader_s3": dict(SIZES["loader_s3"], rows=96, hw=32,
                      chunk_bytes=8 << 10, batch_size=16, time_scale=0.1),
    "tql_warm": dict(SIZES["tql_warm"], rows=2048,
                     scalar_chunk_bytes=2 << 10, emb_chunk_bytes=16 << 10,
                     extend_rows=1024),
    "ingest_s3": dict(SIZES["ingest_s3"], rows=64, hw=32, extend_rows=16,
                      time_scale=0.1),
    "serve_tenants": dict(SIZES["serve_tenants"], rows=128, hw=32,
                          chunk_bytes=8 << 10, window=8,
                          requests_per_tenant=12, time_scale=0.1),
}

QUERIES = {
    "group_full": "SELECT labels, COUNT() AS cnt, MEAN(score) AS mean_score "
                  "WHERE labels < 12 GROUP BY labels",
    "group_pruned": "SELECT labels, COUNT() AS cnt, MEAN(score) AS mean_score "
                    "WHERE score > 0.9 GROUP BY labels",
    "order_limit": "SELECT * WHERE labels == 3 ORDER BY score DESC LIMIT 100",
    "filter_project": "SELECT emb WHERE labels == 3 AND score < 0.5",
}

_names = itertools.count()


def _unique(prefix: str) -> str:
    """Process-unique provider / server name (registries are global)."""
    return f"bench-{prefix}-{next(_names)}"


def _crc(array) -> int:
    return zlib.crc32(np.ascontiguousarray(array))


def _s3(clock: SimClock, backing) -> SimulatedObjectStore:
    # the preset is passed explicitly: the store's *name* only labels it
    return SimulatedObjectStore(_unique("s3"), network=NETWORK_PRESETS["s3"],
                                clock=clock, backing=backing)


def _image_columns(rng, rows: int, hw: int):
    images = [smooth_image(rng, hw, hw) for _ in range(rows)]
    labels = rng.integers(0, 100, rows).astype(np.int32)
    return images, labels


def _build_image_dataset(storage, images, labels, chunk_bytes: int):
    ds = repro.empty(storage)
    for name, kwargs in (
        ("images", {"htype": "image", "sample_compression": "jpeg"}),
        ("labels", {"dtype": "int32"}),
    ):
        ds.create_tensor(name, max_chunk_size=chunk_bytes,
                         create_shape_tensor=False, create_id_tensor=False,
                         **kwargs)
    for i in range(0, len(images), 128):
        ds.extend({"images": images[i:i + 128],
                   "labels": list(labels[i:i + 128])})
    ds.flush()
    return ds


def _read(obj, *path):
    """``obj.a.b`` / ``obj["a"]["b"]``, or None when a name on the way no
    longer exists: a renamed stats source yields a null metric, not a crash."""
    for name in path:
        try:
            obj = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        except (AttributeError, KeyError):
            return None
    return obj


def _minus(after, before):
    return None if after is None or before is None else after - before


def _total(values):
    values = list(values)
    return None if None in values else sum(values)


def _store_stats(store: SimulatedObjectStore, clock: SimClock) -> dict:
    by_op = _read(store, "requests_by_op")
    return {
        "storage.get_requests": _read(store, "stats", "get_requests"),
        "storage.put_requests": _read(store, "stats", "put_requests"),
        "storage.bytes_read": _read(store, "stats", "bytes_read"),
        "storage.bytes_written": _read(store, "stats", "bytes_written"),
        "storage.round_trips": None if by_op is None else sum(by_op.values()),
        "storage.virtual_s": clock.now(),
        "storage.retries": _read(store, "retries_performed"),
    }


def _cache_stats(cache) -> dict:
    return {f"lru_cache.{name}": _read(cache, name)
            for name in ("hits", "misses", "evictions", "hit_ratio")}


def _chunk_cache(engine) -> tuple:
    return (_read(engine, "chunk_cache_hits"),
            _read(engine, "chunk_cache_misses"))


def _loader_stats(stats, first: float) -> dict:
    return {
        "dataloader.wait_s": _read(stats, "wait_s"),
        "dataloader.stall_fraction": _read(stats, "stall_fraction"),
        "dataloader.first_batch_ms": first * 1e3,
    }


class Checker:
    """Counts attempted and failed operations of one repeat.

    An exception inside :meth:`attempt` is a failed operation, reported on
    stderr with its traceback; the repeat goes on so the count is whole.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def record(self, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += not ok

    def fail(self) -> None:
        """An operation already counted by :meth:`attempt` gave a wrong
        answer: the call and its check are one operation."""
        with self._lock:
            self.failed += 1

    def attempt(self, fn: Callable, *args, **kwargs):
        """Run one operation; returns its result, or None if it raised."""
        try:
            result = fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - any error is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.record(False)
            return None
        self.record(True)
        return result

    def verify(self, fn: Callable[[], bool]) -> None:
        """Run one check; false or an exception is a failed operation."""
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 - a check that cannot run failed
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.record(ok)


class Workload:
    """One workload: ``setup`` (timed as ``setup_s``), ``open`` (what
    outlives a repeat, plus the reference values and warm-up), ``unit``
    (one timed repeat)."""

    name = ""
    item = ""  # what ``items_per_s`` counts
    codecs = ("jpeg", "none")

    def __init__(self, seed: int, sizes: dict, corrupt: Optional[str] = None):
        self.seed = seed
        self.sizes = sizes
        #: fault injected by the contract test to prove the checker is live
        self.corrupt = corrupt
        #: the recorder while a traced repeat runs, else None
        self.rec: Optional[Recorder] = None
        self._opened: dict = {}
        self.user_bytes = 0
        self.stored_bytes = 0

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def timed(self, layer: str, name: str, fn: Callable) -> Callable:
        return self.rec.wrap(layer, name, fn) if self.rec else fn

    def over(self, provider, layer: str):
        if self.rec is None:
            return provider
        return TimedProvider(provider, self.rec, layer)

    @property
    def ds(self):
        """The dataset opened for the current mode (traced or not)."""
        return self._opened[self.rec is not None]

    @ds.setter
    def ds(self, value) -> None:
        self._opened[self.rec is not None] = value

    def start(self, rep: int):
        """Begin the timed region (and, traced, the repeat's root span)."""
        if self.rec:
            self.rec.open_root(rep)
        return process_time(), perf_counter()

    def stop(self, c0: float, t0: float):
        seconds, cpu_s = perf_counter() - t0, process_time() - c0
        if self.rec:
            self.rec.close_root()
        return seconds, cpu_s

    def setup(self) -> None:
        raise NotImplementedError

    def open(self, rec: Optional[Recorder]) -> None:
        self.rec = rec

    def unit(self, rep: int) -> dict:
        raise NotImplementedError

    def extras(self) -> dict:
        """Traced-run-only measurements taken after the timed repeats."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# loaders
# --------------------------------------------------------------------------- #


class _ImageWorkload(Workload):
    """Set-up shared by the workloads that read an (images, labels)
    dataset: generate the pairs and build it on a memory backing."""

    def setup(self) -> None:
        s = self.sizes
        self.images, self.labels = _image_columns(self.rng(0), s["rows"],
                                                  s["hw"])
        self.backing = MemoryProvider(_unique(self.name))
        _build_image_dataset(self.backing, self.images, self.labels,
                             s["chunk_bytes"])
        self.user_bytes = (sum(a.nbytes for a in self.images)
                           + self.labels.nbytes)
        self.stored_bytes = self.backing.nbytes()
        self.reference = None

    def _decoded_crcs(self) -> List[int]:
        """crc of every stored image, decoded through the per-sample read
        path (not the batched one the loader and the server use)."""
        ds = repro.load(self.backing, read_only=True)
        return [_crc(ds.images[i].numpy()) for i in range(len(ds))]


class _LoaderWorkload(_ImageWorkload):
    item = "samples"

    def open(self, rec: Optional[Recorder]) -> None:
        super().open(rec)
        if self.reference is None:  # image crc -> the labels stored with it
            self.reference = {}
            for crc, label in zip(self._decoded_crcs(), self.labels):
                self.reference.setdefault(crc, []).append(int(label))

    def _epoch(self, ds, rep: int, check: Checker, t0: float,
               num_workers: int = WORKERS):
        """Stream one epoch; every batch is checked against the reference
        and the epoch must deliver each row exactly once."""
        loader = ds.dataloader(
            batch_size=self.sizes["batch_size"], shuffle=True,
            seed=self.seed * 1000 + rep, num_workers=num_workers,
            collate=self.timed("dataloader", "collate", default_collate),
        )
        remaining = {crc: list(labels)
                     for crc, labels in self.reference.items()}
        first = None
        samples = 0
        for batch in loader:
            if first is None:
                first = perf_counter() - t0
                if self.corrupt == "batch":
                    batch["images"][0, 0, 0, 0] ^= 0xFF
            ok = True
            for image, label in zip(batch["images"], batch["labels"]):
                left = remaining.get(_crc(image))
                if left and int(label) in left:
                    left.remove(int(label))
                else:
                    ok = False
            samples += len(batch["labels"])
            check.record(ok)
        check.record(samples == self.sizes["rows"]
                     and not any(remaining.values()))
        return samples, first, loader.stats


class LoaderWarm(_LoaderWorkload):
    name = "loader_warm"

    def open(self, rec: Optional[Recorder]) -> None:
        super().open(rec)
        self.ds = repro.load(self.over(self.backing, "storage"),
                             read_only=True)
        self._epoch(self.ds, WARMUP_REP, Checker(), perf_counter())
        self.rates: List[float] = []  # traced epochs and, interleaved
        self.ffcv_rates: List[float] = []  # with them, the yardstick's
        self.tmp = None
        if rec is not None:  # the interleaved yardstick runs traced only
            out = os.path.join(os.path.dirname(__file__), "out")
            os.makedirs(out, exist_ok=True)
            self.tmp = tempfile.mkdtemp(dir=out)
            self.beton = os.path.join(self.tmp, "yardstick.beton")
            write_beton(self.beton, zip(self.images, self.labels), "jpeg")

    def unit(self, rep: int) -> dict:
        check = Checker()
        engine = self.ds.images.engine
        hits0, misses0 = _chunk_cache(engine)
        c0, t0 = self.start(rep)
        samples, first, stats = self._epoch(self.ds, rep, check, t0)
        seconds, cpu_s = self.stop(c0, t0)
        hits, misses = _chunk_cache(engine)
        if self.rec is not None:
            self.rates.append(samples / seconds)
            self.ffcv_rates.append(self._ffcv_epoch(rep, check))
        return {
            "items": samples, "seconds": seconds, "cpu_s": cpu_s,
            "first_result_s": first, "wait_s": stats.wait_s,
            "attempted": check.attempted, "failed": check.failed,
            "counts": {
                **_loader_stats(stats, first),
                "chunk_engine.chunk_cache_hits": _minus(hits, hits0),
                "chunk_engine.chunk_cache_misses": _minus(misses, misses0),
            },
        }

    def _ffcv_epoch(self, rep: int, check: Checker) -> float:
        loader = FFCVLoader(self.beton, num_workers=WORKERS, shuffle=True,
                            seed=self.seed * 1000 + rep)
        t0 = perf_counter()
        samples = sum(len(b["label"])
                      for b in loader.iter_batches(self.sizes["batch_size"]))
        rate = samples / (perf_counter() - t0)
        check.record(samples == self.sizes["rows"])
        return rate

    def extras(self) -> dict:
        rates = []
        for k in range(self.sizes["w0_epochs"]):
            t0 = perf_counter()
            samples, _f, _s = self._epoch(self.ds, WARMUP_REP + 1 + k,
                                          Checker(), t0, num_workers=0)
            rates.append(samples / (perf_counter() - t0))
        ffcv = float(np.median(self.ffcv_rates))
        return {"dataloader.samples_per_s_w0": float(np.median(rates)),
                "dataloader.ffcv_samples_per_s": ffcv,
                "dataloader.samples_per_s_vs_ffcv":
                    float(np.median(self.rates)) / ffcv}

    def close(self) -> None:
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


class LoaderS3(_LoaderWorkload):
    name = "loader_s3"

    def unit(self, rep: int) -> dict:
        check = Checker()
        clock = SimClock(time_scale=self.sizes["time_scale"])
        store = _s3(clock, self.backing)
        cache = LRUCache(
            MemoryProvider(_unique("cache")), self.over(store, "storage"),
            int(self.stored_bytes * self.sizes["cache_fraction"]),
            name=_unique("lru"),
        )
        c0, t0 = self.start(rep)
        ds = repro.load(self.over(cache, "lru_cache"), read_only=True)
        samples, first, stats = self._epoch(ds, rep, check, t0)
        seconds, cpu_s = self.stop(c0, t0)
        hits, misses = _chunk_cache(ds.images.engine)
        return {
            "items": samples, "seconds": seconds, "cpu_s": cpu_s,
            "first_result_s": first, "wait_s": stats.wait_s,
            "attempted": check.attempted, "failed": check.failed,
            "counts": {
                **_store_stats(store, clock), **_cache_stats(cache),
                **_loader_stats(stats, first),
                "chunk_engine.chunk_cache_hits": hits,
                "chunk_engine.chunk_cache_misses": misses,
            },
        }


# --------------------------------------------------------------------------- #
# TQL
# --------------------------------------------------------------------------- #


class TqlWarm(Workload):
    name = "tql_warm"
    item = "rows"
    codecs = ("lz4", "none")

    def setup(self) -> None:
        s = self.sizes
        rng = self.rng(0)
        n = s["rows"]
        self.score = np.arange(n) / n + rng.normal(0, 0.02, n)
        self.labels = rng.integers(0, s["labels"], n).astype(np.int64)
        self.emb = rng.normal(size=(n, s["emb_dim"])).astype(np.float32)
        self.backing = MemoryProvider(_unique(self.name))
        ds = repro.empty(self.backing)
        for name, dtype, chunk in (
            ("score", "float64", s["scalar_chunk_bytes"]),
            ("labels", "int64", s["scalar_chunk_bytes"]),
            ("emb", "float32", s["emb_chunk_bytes"]),
        ):
            ds.create_tensor(name, dtype=dtype, chunk_compression="lz4",
                             max_chunk_size=chunk, create_shape_tensor=False,
                             create_id_tensor=False)
        step = s["extend_rows"]
        for i in range(0, n, step):
            ds.extend({"score": list(self.score[i:i + step]),
                       "labels": list(self.labels[i:i + step]),
                       "emb": list(self.emb[i:i + step])})
        ds.flush()
        self.user_bytes = (self.score.nbytes + self.labels.nbytes
                           + self.emb.nbytes)
        self.stored_bytes = self.backing.nbytes()

    def _expected(self) -> dict:
        """The four queries evaluated with numpy over the generated columns."""
        score, labels, emb = self.score, self.labels, self.emb

        def groups(mask):
            return {
                int(k): (int((mask & (labels == k)).sum()),
                         float(score[mask & (labels == k)].mean()))
                for k in np.unique(labels[mask])
            }

        three = labels == 3
        expected = {
            "group_full": groups(labels < 12),
            "group_pruned": groups(score > 0.9),
            "order_limit": np.sort(score[three])[::-1][:100],
            "filter_project": emb[three & (score < 0.5)],
        }
        if self.corrupt == "reference":
            expected["order_limit"] = expected["order_limit"] + 1.0
        return expected

    @staticmethod
    def _matches(name: str, out, want) -> bool:
        if name.startswith("group"):
            got = {
                int(out["labels"][i].numpy().ravel()[0]): (
                    int(out["cnt"][i].numpy().ravel()[0]),
                    float(out["mean_score"][i].numpy().ravel()[0]))
                for i in range(len(out))
            }
            return got.keys() == want.keys() and all(
                got[k][0] == want[k][0] and abs(got[k][1] - want[k][1]) < 1e-9
                for k in want)
        column = "score" if name == "order_limit" else "emb"
        got = np.asarray(out[column].numpy())
        return got.shape[0] == len(want) and np.array_equal(
            got.reshape(want.shape), want)

    def open(self, rec: Optional[Recorder]) -> None:
        super().open(rec)
        self.expected = self._expected()
        self.ds = repro.load(self.over(self.backing, "storage"),
                             read_only=True)
        self.first_round_s = 0.0
        t0 = perf_counter()
        self.unit(WARMUP_REP)  # the first round decodes every chunk once
        self.first_round_s = perf_counter() - t0

    def unit(self, rep: int) -> dict:
        check = Checker()
        engine = self.ds.score.engine
        hits0, misses0 = _chunk_cache(engine)
        outs, counts, first = {}, {}, None
        counters = {"rows_scanned": [], "cells_fetched": [],
                    "chunks_skipped": []}
        returned = 0
        c0, t0 = self.start(rep)
        for name, text in QUERIES.items():
            q0 = perf_counter()
            ast = self.timed("tql", "parse", parse)(text)
            plan = self.timed("tql", "plan", build_plan)(self.ds, ast)
            executor = Executor(self.ds, plan, seed=self.seed)
            outs[name] = check.attempt(
                self.timed("tql", "execute", executor.run), text)
            counts[f"tql.{name}_ms"] = (perf_counter() - q0) * 1e3
            first = first or perf_counter() - t0
            for counter, seen in counters.items():
                seen.append(_read(executor, counter))
        seconds, cpu_s = self.stop(c0, t0)
        for name, out in outs.items():  # verified outside the timed region
            if out is not None:
                returned += len(out)
                if not self._matches(name, out, self.expected[name]):
                    check.fail()
        scanned = _total(counters["rows_scanned"])
        hits, misses = _chunk_cache(engine)
        counts.update({
            "chunk_engine.chunk_cache_hits": _minus(hits, hits0),
            "chunk_engine.chunk_cache_misses": _minus(misses, misses0),
            "tql.rows_scanned": scanned,
            "tql.cells_fetched": _total(counters["cells_fetched"]),
            "tql.chunks_skipped": _total(counters["chunks_skipped"]),
            "tql.rows_examined_per_row_returned":
                None if scanned is None else scanned / max(returned, 1),
            "tql.first_round_s": self.first_round_s,
        })
        return {
            "items": len(QUERIES) * self.sizes["rows"], "seconds": seconds,
            "cpu_s": cpu_s, "first_result_s": first, "wait_s": 0.0,
            "attempted": check.attempted, "failed": check.failed,
            "counts": counts,
        }


# --------------------------------------------------------------------------- #
# ingest
# --------------------------------------------------------------------------- #


class IngestS3(Workload):
    name = "ingest_s3"
    item = "rows"

    def setup(self) -> None:
        s = self.sizes
        rng = self.rng(0)
        self.images, self.labels = _image_columns(rng, s["rows"], s["hw"])
        self.emb = rng.normal(
            size=(s["rows"], s["emb_dim"])).astype(np.float32)
        self.user_bytes = (sum(a.nbytes for a in self.images)
                           + self.labels.nbytes + self.emb.nbytes)
        self.roundtrip = None

    def open(self, rec: Optional[Recorder]) -> None:
        super().open(rec)
        if self.roundtrip is None:  # what a lossy codec must give back
            self.roundtrip = [
                _crc(decompress_array(compress_array(a, "jpeg"), "jpeg"))
                for a in self.images
            ]

    def unit(self, rep: int) -> dict:
        s = self.sizes
        check = Checker()
        clock = SimClock(time_scale=s["time_scale"])
        backing = MemoryProvider(_unique(self.name))
        store = _s3(clock, backing)
        commits: List[tuple] = []
        c0, t0 = self.start(rep)
        ds = check.attempt(repro.empty, self.over(store, "storage"))
        first = self._write(ds, check, commits, t0) if ds is not None else None
        seconds, cpu_s = self.stop(c0, t0)

        snapshot = {key: backing[key] for key in backing.list_prefix("")}
        self.stored_bytes = sum(len(v) for v in snapshot.values())
        if self.corrupt == "snapshot":
            del snapshot[next(k for k in sorted(snapshot)
                              if "/images/chunks/" in k)]
        self._verify(snapshot, commits, check)
        return {
            "items": s["rows"], "seconds": seconds, "cpu_s": cpu_s,
            "first_result_s": first or seconds, "wait_s": 0.0,
            "attempted": check.attempted, "failed": check.failed,
            "counts": {**_store_stats(store, clock),
                       "version_control.commits": len(commits)},
        }

    def _write(self, ds, check: Checker, commits: list, t0: float):
        """Create, extend in batches, commit every few, flush; returns the
        time at which the first commit was durable."""
        s = self.sizes
        first = None
        for name, kwargs in (
            ("images", {"htype": "image", "sample_compression": "jpeg"}),
            ("labels", {"dtype": "int32"}),
            ("emb", {"dtype": "float32"}),
        ):
            check.attempt(ds.create_tensor, name,
                          max_chunk_size=s["chunk_bytes"], **kwargs)
        step = s["extend_rows"]
        for k, i in enumerate(range(0, s["rows"], step)):
            check.attempt(ds.extend, {
                "images": self.images[i:i + step],
                "labels": list(self.labels[i:i + step]),
                "emb": list(self.emb[i:i + step]),
            })
            if (k + 1) % s["commit_every"] == 0:
                commit_id = check.attempt(ds.commit, f"batch {k}")
                commits.append((commit_id, i + step))
                first = first or perf_counter() - t0
        check.attempt(ds.flush)
        return first

    def _verify(self, snapshot: dict, commits: list, check: Checker) -> None:
        """Reload from a copy of what reached the backing store."""
        copy = MemoryProvider(_unique("copy"))
        copy.set_many(snapshot)
        rows = list(range(self.sizes["rows"]))

        def column(name):
            ds = repro.load(copy, read_only=True)
            return ds.read_rows(rows, [name])[name]

        def same(name, want):
            got = column(name)
            return len(got) == len(want) and all(
                np.array_equal(np.asarray(g).reshape(np.shape(w)), w)
                for g, w in zip(got, want))

        check.verify(lambda: same("labels", self.labels))
        check.verify(lambda: same("emb", self.emb))
        check.verify(
            lambda: [_crc(a) for a in column("images")] == self.roundtrip)
        for commit_id, length in commits:
            def at_commit():
                ds = repro.load(copy, read_only=True)
                ds.checkout(commit_id)
                return len(ds) == length
            check.verify(at_commit)


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #


class ServeTenants(_ImageWorkload):
    name = "serve_tenants"
    item = "requests"
    tensors = ["images", "labels"]

    def open(self, rec: Optional[Recorder]) -> None:
        super().open(rec)
        if self.reference is None:  # per window: (crc sum, label sum)
            w = self.sizes["window"]
            crcs = self._decoded_crcs()
            self.reference = [
                (sum(crcs[i:i + w]), int(self.labels[i:i + w].sum()))
                for i in range(0, len(crcs), w)
            ]

    def _schedule(self, rep: int) -> Dict[str, List[int]]:
        """Closed loop, two tenants: ``seq`` scans windows in order (the
        push-prefetch path); ``zipf`` draws most windows from a skewed hot
        set and the rest uniformly (hot set + cold tail)."""
        s = self.sizes
        n, count = len(self.reference), s["requests_per_tenant"]
        rng = self.rng(1, rep)
        by_rank = rng.permutation(n)
        p = 1.0 / np.arange(1, n + 1) ** s["zipf_a"]
        hot = by_rank[rng.choice(n, size=count, p=p / p.sum())]
        cold = rng.integers(0, n, count)
        zipf = np.where(rng.random(count) < s["zipf_share"], hot, cold)
        return {"seq": [i % n for i in range(count)],
                "zipf": [int(i) for i in zipf]}

    def unit(self, rep: int) -> dict:
        s = self.sizes
        check = Checker()
        clock = SimClock(time_scale=s["time_scale"])
        store = _s3(clock, self.backing)
        server = DatasetServer(
            name=_unique("server"),
            cache_bytes=int(self.stored_bytes * s["cache_fraction"]),
        )
        server.add_dataset("d", self.over(store, "storage"))
        transport = ThreadedTransport(server, num_workers=s["server_workers"])
        latencies: Dict[str, List[float]] = {"seq": [], "zipf": []}
        corrupt_once = [self.corrupt == "payload"]

        def client(tenant: str, windows: List[int]) -> None:
            remote = RemoteStorageProvider(
                SimNetworkTransport(
                    transport, "local",
                    clock=SimClock(time_scale=s["time_scale"])),
                "d", tenant=tenant,
            )
            w = s["window"]
            for win in windows:
                q0 = perf_counter()
                out = check.attempt(remote.read_columns, self.tensors,
                                    list(range(win * w, (win + 1) * w)))
                latencies[tenant].append(perf_counter() - q0)
                if out is None:
                    continue
                if corrupt_once[0] and tenant == "seq":
                    corrupt_once[0] = False
                    out["images"][0][0, 0, 0] ^= 0xFF
                got = (sum(_crc(a) for a in out["images"]),
                       int(sum(int(np.ravel(a)[0]) for a in out["labels"])))
                if got != self.reference[win]:
                    check.fail()

        threads = [threading.Thread(target=client, args=item)
                   for item in self._schedule(rep).items()]
        c0, t0 = self.start(rep)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds, cpu_s = self.stop(c0, t0)
            server.drain_prefetch()
            snap = server.stats_snapshot()
        finally:
            transport.close()
        pooled = np.array(latencies["seq"] + latencies["zipf"])
        tenants = (_read(snap, "tenants") or {}).values()
        issued, hits, wasted = (_read(snap, "prefetch", name)
                                for name in ("issued", "hits", "wasted"))
        done = None if hits is None or wasted is None else hits + wasted
        return {
            "items": len(pooled), "seconds": seconds, "cpu_s": cpu_s,
            "first_result_s": max(latencies["seq"][0], latencies["zipf"][0]),
            "wait_s": float(pooled.sum()) / len(threads),
            "attempted": check.attempted, "failed": check.failed,
            "counts": {
                **_store_stats(store, clock), **_cache_stats(server.cache),
                "serve.client_latency_s": float(pooled.sum()),
                "serve.latency_p50_ms": float(np.percentile(pooled, 50)) * 1e3,
                "serve.latency_p95_ms": float(np.percentile(pooled, 95)) * 1e3,
                "serve.seq_p50_ms": float(np.median(latencies["seq"])) * 1e3,
                "serve.zipf_p50_ms": float(np.median(latencies["zipf"])) * 1e3,
                "serve.cache_hit_ratio": _read(snap, "cache", "hit_ratio"),
                "serve.backend_gets": _read(store, "stats", "get_requests"),
                **{f"serve.{name}": _total(_read(t, name) for t in tenants)
                   for name in ("coalesced", "bytes_out", "rejected")},
                "serve.prefetch_issued": issued,
                "serve.prefetch_hits": hits,
                "serve.prefetch_wasted": wasted,
                "serve.prefetch_useful_ratio":
                    None if done is None else hits / done if done else 0.0,
            },
        }


WORKLOADS = {cls.name: cls for cls in
             (LoaderWarm, LoaderS3, TqlWarm, IngestS3, ServeTenants)}
