"""Parallel transforms: @compute, one-to-many, pipelines, scheduler."""

import numpy as np
import pytest

import repro
from repro.exceptions import TransformError
from repro.storage import MemoryProvider
from repro.transform import compose, plan_batches


@repro.compute
def double(sample_in, sample_out, factor=2):
    sample_out.append({"x": sample_in["x"] * factor})


@repro.compute
def fan_out(sample_in, sample_out, copies=3):
    for _ in range(copies):
        sample_out.append({"x": sample_in["x"]})


@repro.compute
def add_one(sample_in, sample_out):
    sample_out.append({"x": sample_in["x"] + 1})


@repro.compute
def boom(sample_in, sample_out):
    raise RuntimeError("kaboom")


@pytest.fixture
def src(rng):
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("x", dtype="int64")
    for i in range(20):
        ds.x.append(np.array([i], dtype=np.int64))
    return ds


def fresh_out():
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("x", dtype="int64")
    return ds


class TestCompute:
    def test_one_to_one(self, src):
        out = fresh_out()
        n = double(factor=3).eval(src, out)
        assert n == 20
        assert int(out.x[4].numpy()[0]) == 12

    def test_one_to_many(self, src):
        out = fresh_out()
        n = fan_out(copies=2).eval(src, out)
        assert n == 40
        assert int(out.x[0].numpy()[0]) == 0
        assert int(out.x[1].numpy()[0]) == 0
        assert int(out.x[2].numpy()[0]) == 1

    def test_parallel_matches_serial(self, src):
        serial = fresh_out()
        parallel = fresh_out()
        double().eval(src, serial, num_workers=0)
        double().eval(src, parallel, num_workers=4)
        for i in range(20):
            assert np.array_equal(
                serial.x[i].numpy(), parallel.x[i].numpy()
            )

    def test_traced_eval_holds_its_workers_spans(self, src):
        from repro import obs

        with obs.trace("eval") as root:
            double().eval(src, fresh_out(), num_workers=2)
        spans = obs.flatten(root)
        assert {s["trace_id"] for s in spans} == {root.trace_id}
        # one engine read per worker batch, each on a worker thread, each
        # under the caller's span (the output's shape sync reads all 20)
        reads = [s for s in spans if s["name"] == "engine.plan_reads"
                 and s["attrs"]["rows"] < 20]
        batches = plan_batches(src, ["x"], 20, num_workers=2)
        assert sorted(s["attrs"]["rows"] for s in reads) == sorted(
            map(len, batches))
        assert {s["parent_id"] for s in reads} == {root.span_id}

    def test_iterable_input(self):
        out = fresh_out()
        items = [{"x": np.array([i], dtype=np.int64)} for i in range(5)]
        n = double().eval(items, out, num_workers=2)
        assert n == 5
        assert int(out.x[4].numpy()[0]) == 8

    def test_in_place_eval(self, src):
        add_one().eval(src, num_workers=2)
        assert [int(src.x[i].numpy()[0]) for i in range(5)] == [1, 2, 3, 4, 5]

    def test_in_place_rejects_one_to_many(self, src):
        with pytest.raises(TransformError):
            fan_out(copies=2).eval(src)

    def test_error_carries_index(self, src):
        out = fresh_out()
        with pytest.raises(TransformError) as err:
            boom().eval(src, out)
        assert err.value.index == 0

    def test_unknown_output_tensor(self, src):
        @repro.compute
        def bad(sample_in, sample_out):
            sample_out.append({"nope": sample_in["x"]})

        out = fresh_out()
        with pytest.raises((KeyError, TransformError)):
            bad().eval(src, out)


@repro.compute
def bump(sample_in, sample_out):
    sample_out.append({"x": sample_in["x"] + 100})


def arange_ds(n, **kwargs):
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("x", dtype="int64", **kwargs)
    ds.x.extend(np.arange(n, dtype=np.int64))
    ds.flush()
    return ds


class TestInPlaceIsABatch:
    """An in-place ``eval`` reads each worker batch with one fused read
    and writes each tensor with one batched update."""

    def test_over_a_view_writes_the_views_rows(self):
        ds = arange_ds(20)
        bump().eval(ds[10:13])
        want = list(range(20))
        want[10:13] = [110, 111, 112]
        assert ds.x.numpy().tolist() == want
        bump().eval(ds[[15, 2]], num_workers=2)
        want[15], want[2] = 115, 102
        assert ds.x.numpy().tolist() == want
        assert ds._engine("_x_shape").num_samples == 20

    def test_a_failed_eval_changes_no_row(self):
        @repro.compute
        def bad(sample_in, sample_out):
            x = sample_in["x"]
            sample_out.append({"x": "oops" if int(x) == 5 else x + 100})

        ds = arange_ds(10)
        with pytest.raises(repro.exceptions.FormatError):
            bad().eval(ds)
        assert ds.x.numpy().tolist() == list(range(10))
        reloaded = repro.load(ds.storage)
        assert reloaded.x.numpy().tolist() == list(range(10))

    @pytest.mark.parametrize("n, max_chunk_size", [(1024, 1 << 20),
                                                   (256, 512)])
    def test_forks_each_chunk_once(self, monkeypatch, n, max_chunk_size):
        """N rows in C chunks of ``x`` and C' of its shape companion make
        C + C' chunk copies (2 for one chunk each), not 2N."""
        from repro.core.chunk import Chunk

        ds = arange_ds(n, max_chunk_size=max_chunk_size)
        chunks = (ds._engine("x").enc.num_chunks
                  + ds._engine("_x_shape").enc.num_chunks)
        copies = []
        copy = Chunk.copy
        monkeypatch.setattr(Chunk, "copy", lambda chunk, *a: copies.append(
            chunk.name) or copy(chunk, *a))
        bump().eval(ds, num_workers=2)
        assert len(copies) == chunks
        assert chunks == (2 if n == 1024 else 5)
        assert ds.x.numpy().tolist() == list(range(100, 100 + n))

    def test_each_worker_batch_is_one_read(self, monkeypatch):
        ds = arange_ds(64, max_chunk_size=128)  # 16 rows per chunk
        calls = []
        read_rows = type(ds).read_rows
        monkeypatch.setattr(type(ds), "read_rows", lambda self, rows, *a, **k:
                            calls.append(list(rows)) or read_rows(
                                self, rows, *a, **k))
        out = fresh_out()
        bump().eval(ds, out)
        assert calls == plan_batches(ds, ["x"], 64, 0)
        assert out.x.numpy().tolist() == list(range(100, 164))


class TestPipeline:
    def test_composed_stages(self, src):
        out = fresh_out()
        pipeline = compose([add_one(), double(factor=2)])
        n = pipeline.eval(src, out)
        assert n == 20
        assert int(out.x[3].numpy()[0]) == (3 + 1) * 2

    def test_fanout_then_map(self, src):
        out = fresh_out()
        pipeline = compose([fan_out(copies=2), add_one()])
        n = pipeline.eval(src, out)
        assert n == 40


class TestScheduler:
    def test_batches_align_to_chunk_boundaries(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="uint8", max_chunk_size=1000,
                         create_shape_tensor=False, create_id_tensor=False)
        for _ in range(20):
            ds.x.append(np.zeros(400, dtype=np.uint8))
        ds.flush()
        batches = plan_batches(ds, ["x"], 20, num_workers=2)
        flat = [i for b in batches for i in b]
        assert flat == list(range(20))
        layout = ds._engine("x").chunk_layout()
        starts = {start for _n, start, _e in layout}
        batch_starts = {b[0] for b in batches}
        assert starts <= batch_starts  # every chunk boundary is a cut

    def test_covers_all_indices_without_chunks(self, src):
        batches = plan_batches(src, ["x"], 20, num_workers=3)
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(20))

    def test_empty_input(self, src):
        assert plan_batches(src, ["x"], 0, 2) == []
