"""Fig 7-style: cross-tensor fusion on the read path.

PR 2 made reads chunk-granular (one ``get_many`` per tensor per worker
group); this benchmark pins down the next multiple: fusing every tensor's
plan into ONE backend round trip per group.  The per-tensor yardstick is
built here — a dataset wrapper whose ``read_rows`` calls the real one once
per tensor.  A loader streaming (images, labels, boxes) must

- beat the per-tensor batched path by >= 1.5x samples/s on simulated S3,
- pay one ``download_batch`` per worker group instead of one per tensor,

and the serving tier's sequential-stride prefetcher is measured for hit
rate on a window-scanning tenant.  Results land in
``BENCH_parallel_reads.json``.
"""

import time

import numpy as np

import repro
from repro.dataloader import DeepLakeLoader
from repro.serve.server import DatasetServer
from repro.sim.clock import SimClock
from repro.storage import MemoryProvider
from repro.storage.object_store import make_object_store

from conftest import bench_record, print_table, scaled

TENSORS = ["images", "labels", "boxes"]


class PerTensorReads:
    """The per-tensor yardstick: a dataset whose ``read_rows`` pays one
    call, and so one ``get_many``, per tensor (the PR 2 path)."""

    def __init__(self, ds):
        self._ds = ds

    def __getattr__(self, name):
        return getattr(self._ds, name)

    def read_rows(self, rows, tensors, **kwargs):
        out = {}
        for name in tensors:
            out.update(self._ds.read_rows(rows, [name], **kwargs))
        return out


def _multi_tensor_dataset(storage, rng, n, chunk_size=16 * 1024):
    from repro.workloads import smooth_image

    ds = repro.empty(storage, overwrite=True)
    # chunk sizes chosen so a 16-row worker group misses in every tensor
    # (the paper's steady streaming state, where each window is cold)
    ds.create_tensor(
        "images", htype="image", sample_compression="jpeg",
        max_chunk_size=chunk_size,
        create_shape_tensor=False, create_id_tensor=False,
    )
    ds.create_tensor(
        "labels", dtype="int64", max_chunk_size=256,
        create_shape_tensor=False, create_id_tensor=False,
    )
    ds.create_tensor(
        "boxes", dtype="float32", max_chunk_size=1024,
        create_shape_tensor=False, create_id_tensor=False,
    )
    for i in range(n):
        ds.append({
            "images": smooth_image(rng, 50, 50),
            "labels": np.int64(i % 10),
            "boxes": rng.random((4, 4)).astype(np.float32),
        })
    ds.flush()
    return ds


class TestFusedParallelLoader:
    def _epoch_rate(self, ds, **kwargs):
        for name in TENSORS:  # meta/encoder reads happen outside the timer
            ds._engine(ds._qualify(name))
        # both paths run the identical loader config
        loader = DeepLakeLoader(ds, batch_size=16, **kwargs)
        start = time.perf_counter()
        n = 0
        for batch in loader:
            n += len(batch["labels"])
        elapsed = time.perf_counter() - start
        return n / elapsed, loader.stats

    def test_fused_parallel_1_5x_over_per_tensor_batched(self, rng):
        n = scaled(120, minimum=24)
        clock = SimClock(time_scale=0.5)  # scaled real sleeps: wall clock
        store = make_object_store("s3", clock=clock)
        _multi_tensor_dataset(store, rng, n)

        # fresh datasets per run: cold engine caches, same backing bytes
        batched_rate, _ = self._epoch_rate(PerTensorReads(repro.load(store)))
        fused_rate, stats = self._epoch_rate(repro.load(store))
        speedup = fused_rate / batched_rate

        # round-trip accounting on a virtual-clock twin of the same
        # workload: one worker group touching all three tensors
        rt_store = make_object_store("s3", bucket="fig7-roundtrips")
        _multi_tensor_dataset(rt_store, rng, n)
        group = list(range(16))

        def group_round_trips(wrap):
            cold = repro.load(rt_store)
            for name in TENSORS:  # open engines: meta/encoders read here
                cold._engine(cold._qualify(name))
            before = dict(rt_store.requests_by_op)
            wrap(cold).read_rows(group, TENSORS)
            return (
                rt_store.requests_by_op.get("download_batch", 0)
                - before.get("download_batch", 0)
            )

        batched_trips = group_round_trips(PerTensorReads)
        fused_trips = group_round_trips(lambda ds: ds)

        print_table(
            "Fused vs per-tensor batched loader (simulated S3)",
            [
                {"path": "per-tensor batched (PR 2)", "samples": n,
                 "samples_per_s": round(batched_rate, 1),
                 "group_round_trips": batched_trips},
                {"path": "fused", "samples": n,
                 "samples_per_s": round(fused_rate, 1),
                 "group_round_trips": fused_trips,
                 "speedup": f"{speedup:.2f}x",
                 "chunk_cache_misses": stats.chunk_cache_misses},
            ],
            note="3 tensors per group: fusion folds 3 round trips into 1",
        )
        assert fused_trips == 1, (
            f"fused worker group paid {fused_trips} round trips"
        )
        assert batched_trips == len(TENSORS)
        assert speedup >= 1.5, (
            f"fused loader only {speedup:.2f}x over batched path"
        )

        latency = store.latency_percentiles("download_batch")
        if not any(latency.values()):
            latency = store.latency_percentiles("download")
        bench_record("parallel_reads", {
            "samples": n,
            "tensors": len(TENSORS),
            "batched_samples_per_s": round(batched_rate, 1),
            "fused_parallel_samples_per_s": round(fused_rate, 1),
            "speedup": round(speedup, 3),
            "group_round_trips_batched": batched_trips,
            "group_round_trips_fused": fused_trips,
            "backend_get_requests": store.stats.get_requests,
            "backend_bytes_read": store.stats.bytes_read,
            "request_latency_virtual_s": latency,
        })


class TestServerPushPrefetchHitRate:
    def test_sequential_tenant_hits_prefetched_chunks(self, rng):
        n = scaled(256, minimum=64)
        window = 16
        store = MemoryProvider("fig7-serve")
        _multi_tensor_dataset(store, rng, n, chunk_size=16 * 1024)

        server = DatasetServer(name="fig7-push")
        server.add_dataset("d", store)
        client = server.connect("d", tenant="scanner")
        for i in range(n // window):
            client.read_columns(
                TENSORS, list(range(i * window, (i + 1) * window))
            )
            server.drain_prefetch()

        issued = server.prefetch_issued
        hits = server.prefetch_hits
        print_table(
            "Server-push prefetch on a sequential tenant",
            [{
                "windows": n // window,
                "prefetch_issued_chunks": issued,
                "prefetch_hits": hits,
                "prefetch_wasted": server.prefetch_wasted,
                "hit_rate": f"{hits / issued:.0%}" if issued else "n/a",
            }],
            note="speculative fused plans run on the server's prefetch "
                 "threads into the shared cache; sequential windows claim "
                 "them as hits",
        )
        assert issued > 0
        assert server.prefetch_wasted == 0
        assert hits / issued >= 0.5
