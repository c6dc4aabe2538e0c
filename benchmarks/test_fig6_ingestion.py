"""Fig 6 — serial ingestion of FFHQ-like images into different formats
(seconds, lower is better).

Paper setup: 10,000 uncompressed 1024x1024x3 images (~3 MB each) written
serially into each format on an AWS c5.9xlarge.  Scaled default here:
N=32 at 256x256x3 — same shape of comparison, laptop-sized.  Expected
shape (paper): Deep Lake ~ WebDataset ~ FFCV beton (fast binary writers)
<< Zarr/N5 array stores and Parquet.
"""

import time

import pytest

import repro
from benchmarks.conftest import bench_record, print_table, scaled
from repro.baselines import (
    n5_like,
    parquet_like,
    tfrecord_like,
    webdataset_like,
    zarr_like,
    write_beton,
)
from repro.sim import SimClock
from repro.storage import SimulatedObjectStore, make_object_store
from repro.workloads import ffhq_like

N = scaled(32, minimum=8)
RES = 256
_RESULTS = {}


def _images():
    return ffhq_like(N, seed=0, resolution=RES)


def _labels():
    return ((img, i % 10) for i, img in enumerate(_images()))


def _deeplake(tmp):
    ds = repro.empty(str(tmp / "dl"), overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="none",
                     create_shape_tensor=False, create_id_tensor=False)
    for img in _images():
        ds.images.append(img)
    ds.flush()


def _record(name, benchmark, fn):
    start = time.perf_counter()
    benchmark.pedantic(fn, rounds=1, iterations=1)
    _RESULTS[name] = time.perf_counter() - start


def test_ingest_deeplake(benchmark, tmp_path):
    _record("deeplake", benchmark, lambda: _deeplake(tmp_path))


def test_ingest_webdataset(benchmark, tmp_path):
    _record(
        "webdataset", benchmark,
        lambda: webdataset_like.write_shards(
            str(tmp_path / "wds"), _labels(), samples_per_shard=8,
            compression="none",
        ),
    )


def test_ingest_ffcv_beton(benchmark, tmp_path):
    _record(
        "ffcv", benchmark,
        lambda: write_beton(str(tmp_path / "d.beton"), _labels(),
                            compression=None),
    )


def test_ingest_tfrecord(benchmark, tmp_path):
    _record(
        "tfrecord", benchmark,
        lambda: tfrecord_like.write_records(
            str(tmp_path / "d.tfrec"), _labels(), compression="none"
        ),
    )


def test_ingest_zarr(benchmark, tmp_path):
    _record(
        "zarr", benchmark,
        lambda: zarr_like.write_images(str(tmp_path / "zarr"), _images(), N),
    )


def test_ingest_n5(benchmark, tmp_path):
    _record(
        "n5", benchmark,
        lambda: n5_like.write_images(str(tmp_path / "n5"), _images(), N),
    )


def test_ingest_parquet(benchmark, tmp_path):
    _record(
        "parquet", benchmark,
        lambda: parquet_like.write_images(str(tmp_path / "pq"), _images(), N),
    )


class PerKeyPutStore(SimulatedObjectStore):
    """The serial-write yardstick: the same simulated S3 store with
    ``set_many`` replaced by one PUT per key."""

    def set_many(self, items):
        for key, value in items.items():
            self[key] = value


def test_ingest_pipelined_vs_serial_cloud():
    """Tentpole scoreboard: the batched write path (staged batches, one
    ``set_many`` upload per chunk batch) against a serial yardstick built
    here — the same store paying one PUT per chunk and per bookkeeping
    key — on simulated S3.

    Virtual seconds come from the network cost model, so the speedup
    measures exactly what the write path controls: round trips.  Emits
    ``BENCH_ingestion.json`` — the per-PR perf record CI asserts on.
    """
    images = list(_images())

    def ingest(store):
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor(
            "images", htype="image", sample_compression="none",
            create_shape_tensor=False, create_id_tensor=False,
            max_chunk_size=RES * RES * 3 * 2,  # ~2 images per chunk
        )
        base = dict(store.requests_by_op)
        v0, w0 = store.clock.now(), time.perf_counter()
        ds.images.extend(images)
        ds.flush()
        # write-phase PUT round trips only (dataset creation excluded)
        deltas = {
            op: store.requests_by_op.get(op, 0) - base.get(op, 0)
            for op in ("upload", "upload_batch")
        }
        return store, deltas, store.clock.now() - v0, time.perf_counter() - w0

    _store, serial_ops, serial_virtual, serial_wall = ingest(
        PerKeyPutStore("s3", clock=SimClock())
    )
    _store, pipe_ops, pipe_virtual, pipe_wall = ingest(
        make_object_store("s3", clock=SimClock())
    )

    serial_puts = serial_ops["upload"] + serial_ops["upload_batch"]
    pipe_batches = pipe_ops["upload_batch"]
    pipe_puts = pipe_ops["upload"]
    speedup = serial_virtual / pipe_virtual

    print_table(
        f"Fig 6b | cloud ingest {N} x {RES}x{RES}x3 onto simulated S3 "
        "(virtual seconds, lower=better)",
        [
            {"write path": "serial (one PUT per key)",
             "virtual_s": round(serial_virtual, 3),
             "put_requests": serial_puts, "batches": 0},
            {"write path": "pipelined",
             "virtual_s": round(pipe_virtual, 3),
             "put_requests": pipe_puts, "batches": pipe_batches},
        ],
        note=f"speedup {speedup:.1f}x; batching amortizes per-request "
             "overhead across each flushed chunk batch",
    )
    bench_record("ingestion", {
        "n_images": N,
        "resolution": RES,
        "serial_virtual_s": round(serial_virtual, 6),
        "pipelined_virtual_s": round(pipe_virtual, 6),
        "speedup": round(speedup, 3),
        "serial_put_requests": serial_puts,
        "pipelined_put_requests": pipe_puts,
        "pipelined_upload_batches": pipe_batches,
        "serial_wall_s": round(serial_wall, 6),
        "pipelined_wall_s": round(pipe_wall, 6),
    })

    # acceptance: pipelined >= 2x faster, with fewer backend PUT round trips
    assert pipe_virtual * 2 <= serial_virtual, (
        f"pipelined {pipe_virtual:.3f}s vs serial {serial_virtual:.3f}s"
    )
    assert serial_puts > 0
    assert pipe_batches + pipe_puts < serial_puts


def test_zz_fig6_report(benchmark):
    """Aggregates the per-format timings into the Fig 6 series."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_RESULTS) < 7:
        pytest.skip("run the whole file to get the report")
    rows = [
        {"format": name, "seconds": round(secs, 3),
         "img_per_s": round(N / secs, 1)}
        for name, secs in sorted(_RESULTS.items(), key=lambda kv: kv[1])
    ]
    print_table(
        f"Fig 6 | ingest {N} x {RES}x{RES}x3 raw images, serial write "
        "(lower=better)",
        rows,
        note="paper: 10k x 1024^2; deeplake ~ webdataset/ffcv << zarr/n5/parquet",
    )
    fast = min(_RESULTS["webdataset"], _RESULTS["ffcv"], _RESULTS["tfrecord"])
    # shape assertions: binary-style writers in one league, array stores slower
    assert _RESULTS["deeplake"] < 3.0 * fast
    assert _RESULTS["deeplake"] < _RESULTS["zarr"] * 1.5
    assert _RESULTS["deeplake"] < _RESULTS["n5"] * 1.5
