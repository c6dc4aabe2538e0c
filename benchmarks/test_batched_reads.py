"""Chunk-granular batched reads: storage GETs and loader throughput.

The Tensor Storage Format exists so one fetch + one decompress amortizes
over many samples (§3.4–3.5).  This benchmark pins that down for the
shared ReadPlan layer:

- a cold-cache full-column TQL filter must issue at most one storage GET
  per *chunk* (the pre-ReadPlan per-row scan paid roughly one ranged GET
  per *sample*);
- the dataloader's group fetch must beat per-sample reads by >= 1.5x
  samples/s on the same simulated-S3 workload (it wins by paying
  per-request network overhead per chunk batch, not per sample).  The
  loader has no per-sample mode, so the yardstick is built here: one
  one-row ``read_batch`` per sample in loader order — the random-access
  entry point, a header probe + ranged GET each.
"""

import time

import numpy as np

import repro
from repro.dataloader import DeepLakeLoader
from repro.sim.clock import SimClock
from repro.storage import MemoryProvider
from repro.storage.object_store import make_object_store

from conftest import bench_record, print_table, scaled


def _image_dataset(storage, rng, n, chunk_size=64 * 1024):
    from repro.workloads import smooth_image

    ds = repro.empty(storage, overwrite=True)
    ds.create_tensor(
        "images", htype="image", sample_compression="jpeg",
        max_chunk_size=chunk_size,
        create_shape_tensor=False, create_id_tensor=False,
    )
    for _ in range(n):
        ds.images.append(smooth_image(rng, 50, 50))
    ds.flush()
    return ds


class TestTQLColumnScanGets:
    def test_filter_issues_at_most_one_get_per_chunk(self, rng):
        n = scaled(160, minimum=24)
        storage = MemoryProvider("tql-batch")
        _image_dataset(storage, rng, n, chunk_size=32 * 1024)

        # batched scan, cold decoded-chunk cache
        cold = repro.load(storage)
        engine = cold._engine("images")
        n_chunks = engine.enc.num_chunks
        assert n_chunks > 1
        storage.stats.reset()
        result = cold.query("select * where MEAN(images) >= 0")
        assert len(result) == n
        batched_gets = storage.stats.get_requests
        assert batched_gets <= n_chunks, (
            f"batched full-column filter issued {batched_gets} GETs for "
            f"{n_chunks} chunks"
        )

        # per-sample baseline: the pre-ReadPlan scan read one cell at a
        # time, which for sample-compressed tensors is a ranged GET per
        # sample (plus one header probe per chunk)
        baseline = repro.load(storage)
        engine = baseline._engine("images")
        storage.stats.reset()
        for i in range(n):
            engine.read_sample(i)
        per_sample_gets = storage.stats.get_requests
        assert per_sample_gets >= n

        print_table(
            "Batched reads: storage GETs for a full-column TQL filter",
            [
                {"path": "per-sample reads", "samples": n,
                 "chunks": n_chunks, "storage_gets": per_sample_gets},
                {"path": "ReadPlan batched", "samples": n,
                 "chunks": n_chunks, "storage_gets": batched_gets},
            ],
            note="cold cache; batched path pays one GET per chunk",
        )


class TestLoaderBatchedThroughput:
    def _epoch_rate(self, ds):
        loader = DeepLakeLoader(ds, batch_size=16, decode=False)
        start = time.perf_counter()
        n = 0
        for batch in loader:
            n += len(batch["images"])
        elapsed = time.perf_counter() - start
        return n / elapsed, loader.stats

    def _per_sample_rate(self, ds):
        """The yardstick: every sample its own one-row read, in the
        sequential order the (unshuffled) loader streams them."""
        engine = ds._engine("images")
        start = time.perf_counter()
        for row in range(engine.num_samples):
            raw = engine.read_batch([row], decode=False)[0]
            np.frombuffer(raw, dtype=np.uint8)  # what the loader hands on
        return engine.num_samples / (time.perf_counter() - start)

    def test_batched_loader_1_5x_over_per_sample(self, rng):
        n = scaled(120, minimum=24)
        clock = SimClock(time_scale=0.1)  # scaled real sleeps: wall clock
        store = make_object_store("s3", clock=clock)
        _image_dataset(store, rng, n, chunk_size=64 * 1024)

        # fresh datasets per run: cold engine caches, same backing bytes
        per_sample_rate = self._per_sample_rate(repro.load(store))
        batched_rate, stats = self._epoch_rate(repro.load(store))
        speedup = batched_rate / per_sample_rate

        print_table(
            "Batched vs per-sample dataloader (simulated S3, raw streaming)",
            [
                {"path": "per-sample", "samples": n,
                 "samples_per_s": round(per_sample_rate, 1)},
                {"path": "ReadPlan batched", "samples": n,
                 "samples_per_s": round(batched_rate, 1),
                 "speedup": f"{speedup:.2f}x",
                 "chunk_cache_misses": stats.chunk_cache_misses},
            ],
            note="per-sample pays network overhead per sample; "
                 "batched pays it per chunk batch",
        )
        assert speedup >= 1.5, (
            f"batched loader only {speedup:.2f}x over per-sample path"
        )

        # perf record for this PR: throughput, backend GETs, and the
        # object store's per-request virtual latency percentiles
        latency = store.latency_percentiles("download_batch")
        if not any(latency.values()):
            latency = store.latency_percentiles("download")
        bench_record("batched_reads", {
            "samples": n,
            "per_sample_samples_per_s": round(per_sample_rate, 1),
            "batched_samples_per_s": round(batched_rate, 1),
            "speedup": round(speedup, 3),
            "backend_get_requests": store.stats.get_requests,
            "backend_bytes_read": store.stats.bytes_read,
            "request_latency_virtual_s": latency,
        })
