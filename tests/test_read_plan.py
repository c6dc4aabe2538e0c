"""The ReadPlan layer: plan_reads grouping, read identity with a
list-of-arrays model of what was appended (one row and many rows through
the same assertions), batched shapes, cache counters, get_many providers,
Dataset.read_rows, and the consumers riding the plan path."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.compression import compress_array, decompress_array
from repro.core.chunk_engine import ChunkEngine, FusedReadPlan
from repro.core.encoders import ChunkIdEncoder
from repro.core.meta import TensorMeta
from repro.core import read_plan
from repro.core.read_plan import KIND_PRUNED, KIND_TILED, PRUNED
from repro.core.version_state import VersionState
from repro.exceptions import SampleIndexError
from repro.storage import MemoryProvider
from repro.storage.lru_cache import LRUCache


def make_engine(storage=None, **meta_kwargs):
    if storage is None:
        storage = MemoryProvider()
    meta_kwargs.setdefault("htype", "generic")
    meta = TensorMeta(**meta_kwargs)
    return ChunkEngine("t", storage, VersionState(), meta=meta), storage


def fresh_reader(storage) -> ChunkEngine:
    """Cold-cache engine over already-written storage."""
    return ChunkEngine("t", storage, VersionState())


class TestPlanReads:
    def test_rows_group_by_owning_chunk(self):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=1000)
        for _ in range(10):  # 400B samples -> 2 per chunk -> 5 chunks
            engine.append(np.zeros(400, dtype=np.uint8))
        engine.flush()
        plan = engine.plan_reads([0, 1, 2, 3, 9])
        assert plan.num_items == 5
        assert plan.num_chunks == 3  # rows span chunks {0,1}, {2,3}, {9}
        assert len(plan.chunk_keys) == 3  # all stored, none in memory
        per_chunk = np.bincount(plan.chunk_ord, minlength=len(plan.names))
        assert sorted(per_chunk.tolist()) == [1, 2, 2]

    def test_duplicate_and_negative_rows(self):
        engine, _ = make_engine(dtype="int64", max_chunk_size=1 << 20)
        engine.extend([np.arange(4, dtype=np.int64)] * 8)
        engine.flush()
        plan = engine.plan_reads([3, 3, -1])
        assert plan.rows == [3, 3, 7]
        assert plan.num_chunks == 1  # one chunk resolved once

    def test_out_of_range_raises(self):
        engine, _ = make_engine(dtype="int64")
        engine.append(np.arange(3, dtype=np.int64))
        with pytest.raises(SampleIndexError):
            engine.plan_reads([5])

    def test_tiled_sample_pulls_every_tile_chunk(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        engine.append(rng.integers(0, 255, (128, 96, 3), dtype=np.uint8))
        engine.flush()
        assert engine.tile_enc.num_tiled == 1
        plan = engine.plan_reads([0])
        assert plan.kind.tolist() == [KIND_TILED]
        assert plan.num_chunks == len(plan.tiles[0])
        assert plan.num_chunks > 1

    def test_sequence_rows_expand_to_item_spans(self):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int64")
        engine.append([np.arange(2, dtype=np.int64)] * 3)
        engine.append([np.arange(2, dtype=np.int64)] * 2)
        engine.flush()
        plan = engine.plan_reads([1, 0])
        assert plan.seq_spans == [(0, 2), (2, 3)]
        assert plan.num_items == 5


    def test_large_request_plans_without_per_row_lookups(self, monkeypatch):
        """4096 rows over 64 chunks resolve through translate_many: the
        one-row resolver is never reached."""
        engine, _ = make_engine(dtype="int64", max_chunk_size=512)
        engine.extend([np.int64(i) for i in range(4096)])  # 64 per chunk
        engine.flush()
        assert engine.enc.num_chunks == 64

        def per_row(self, sample_index):
            raise AssertionError(f"per-row lookup of {sample_index}")

        monkeypatch.setattr(ChunkIdEncoder, "translate", per_row)
        plan = engine.plan_reads(range(4096))
        assert plan.num_items == 4096 and plan.num_chunks == 64
        assert np.bincount(plan.chunk_ord).tolist() == [64] * 64
        assert plan.local.tolist() == list(range(64)) * 64

    def test_pruned_marks_exactly_the_rows_of_skipped_chunks(self, rng):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.arange(i, i + 4, dtype=np.int64)
                       for i in range(80)])
        engine.flush()
        reader = fresh_reader(storage)
        rows = rng.integers(0, 80, 300).tolist()
        plan = reader.plan_reads(rows, bounds=[(20, 50, False, True)])
        assert plan.skipped_chunks and plan.chunk_keys
        assert not plan.skipped_chunks & set(plan.chunk_keys)
        owner = {
            row: name for name, start, end in reader.chunk_layout()
            for row in range(start, end)
        }
        assert plan.pruned.tolist() == [
            owner[row] in plan.skipped_chunks for row in rows
        ]
        assert not reader.plan_reads(rows).pruned.any()

    def test_pruned_rows_make_no_per_row_call(self, monkeypatch):
        """A row of a chunk statistics pushdown skipped is never visited:
        a list column starts as ``PRUNED`` everywhere — also when *every*
        chunk of the request was skipped — and nothing walks the pruned
        items through the exception-kind operator table."""
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.int64(i) for i in range(512)])
        engine.flush()
        reader = fresh_reader(storage)

        def per_row(engine, plan, pos, chunks, decode):
            raise AssertionError(f"per-row pruned value at {pos}")

        monkeypatch.setitem(read_plan._KIND_VALUE, KIND_PRUNED, per_row)
        rows = list(range(40, 400))
        plan = reader.plan_reads(rows, bounds=[(1000, None, False, False)])
        assert not plan.chunk_keys and len(plan.skipped_chunks) > 1
        assert plan.pruned.all() and len(plan.pruned) == len(rows)
        for aslist in (False, True):
            column = reader.execute_plan(plan, aslist=aslist)
            assert column == [PRUNED] * len(rows)
        # one unpruned chunk in the request: dense column, or the list
        mixed = reader.plan_reads(rows, bounds=[(390, None, False, False)])
        kept = (~mixed.pruned).sum()
        assert 0 < kept < len(rows)
        dense = reader.execute_plan(mixed)
        assert isinstance(dense, np.ndarray)
        assert dense[~mixed.pruned].tolist() == rows[-kept:]
        raw = reader.execute_plan(mixed, decode=False)
        assert raw[:-kept] == [PRUNED] * (len(rows) - kept)
        assert all(isinstance(v, bytes) for v in raw[-kept:])


@pytest.mark.parametrize("layout", ["big_uncompressed", "big_scalar",
                                    "big_padded_tiled", "big_sequence",
                                    "big_pending"])
@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_run_planning_matches_the_unique_path(rng, monkeypatch, layout, order):
    """Ascending rows find their chunks as runs, without a sort; any other
    order goes through ``np.unique``.  Both plan the same items — plain,
    pruned (``big_scalar`` under bounds), padded, tiled, sequence and
    pending (unflushed) layouts alike."""
    reader, model = build_big_layout(layout, rng)
    rows = np.sort(rng.choice(len(model), 2 * len(model) // 3, replace=False))
    if order == "shuffled":
        rng.shuffle(rows)
    bounds = [(150, 420, False, False)] if layout == "big_scalar" else None

    def unsorted(*args, **kwargs):
        raise AssertionError("ascending rows were sorted")

    with monkeypatch.context() as patch:
        if order == "ascending":
            patch.setattr(np, "unique", unsorted)
        plan = reader.plan_reads(rows, bounds=bounds)
    with monkeypatch.context() as patch:
        patch.setattr(read_plan, "_chunk_runs",
                      lambda r: np.unique(r, return_inverse=True))
        want = reader.plan_reads(rows, bounds=bounds)
    assert plan.names == want.names and len(plan.names) > 1
    for field in ("flat", "chunk_ord", "local", "kind"):
        got, ref = getattr(plan, field), getattr(want, field)
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist(), field
    assert plan.skipped_chunks == want.skipped_chunks
    assert bool(plan.skipped_chunks) == (layout == "big_scalar")
    assert plan.tiles == want.tiles
    assert plan.chunk_keys == want.chunk_keys
    assert plan.active_chunks == want.active_chunks


class TestRowsAreIntegers:
    """Rows are input from outside the program: a float must not be
    truncated, a string not parsed, a bool not read as 0 / 1."""

    BAD = [1.7, True, "3", np.float32(2.9), np.bool_(False), None]

    def make(self):
        ds = repro.empty(MemoryProvider("ints"), overwrite=True)
        ds.create_tensor("a", dtype="int64",
                         create_shape_tensor=False, create_id_tensor=False)
        ds.a.extend([np.int64(i) for i in range(6)])
        ds.flush()
        return ds

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_non_integer_rows_raise_naming_the_value(self, bad):
        ds = self.make()
        engine = ds._engine("a")
        for read in (engine.plan_reads, engine.read_batch,
                     engine.read_shapes_batch,
                     lambda rows: ds.read_rows(rows, ["a"]),
                     lambda rows: ds.read_rows(rows, ["a"], physical=True)):
            with pytest.raises(SampleIndexError, match="not an integer") as e:
                read([0, bad, 2])
            if bad is not None:
                assert repr(bad) in str(e.value)

    def test_the_issue_request_raises_instead_of_truncating(self):
        ds = self.make()
        with pytest.raises(SampleIndexError):
            ds.read_rows([1.7, True, "3", np.float32(2.9)], ["a"])
        with pytest.raises(SampleIndexError):
            ds._engine("a").plan_reads([2.5])
        with pytest.raises(SampleIndexError):
            ds._engine("a").plan_reads(np.asarray([1.0, 2.0]))

    @pytest.mark.parametrize("rows", [
        [np.int64(1), 5, np.uint8(0), -1],
        np.asarray([1, 5, 0, -1]),
        np.asarray([1, 5, 0, 5], dtype=np.uint16),
        (1, 5, 0, -1),
        range(1, 5),
        [],
    ], ids=lambda rows: type(rows).__name__ + str(len(rows)))
    def test_integer_rows_resolve(self, rows):
        ds = self.make()
        engine = ds._engine("a")
        want = [int(r) % 6 for r in rows]
        assert engine.plan_reads(rows).rows == want
        assert [int(v) for v in engine.read_batch(rows)] == want
        assert [int(v) for v in ds.read_rows(rows, ["a"])["a"]] == want

    def test_out_of_range_names_the_row_as_given(self):
        engine = self.make()._engine("a")
        with pytest.raises(SampleIndexError, match="index -7 out of range"):
            engine.plan_reads([0, -7, 9])
        with pytest.raises(SampleIndexError, match="index 6 out of range"):
            engine.read_batch(np.asarray([5, 6]))


def jpeg_roundtrip(image):
    """What a lossy-JPEG tensor must read back for an appended *image*."""
    return decompress_array(compress_array(image, "jpeg"), "jpeg")


def assert_reads_match_model(engine, rows, model, aslist=False):
    """``read_batch(rows)`` — and, for one row, ``read_sample`` — against
    *model*: the appended values, ``model[i]`` an array or, for a sequence
    row, the list of its item arrays.  Dtypes must match too."""
    reads = [engine.read_batch(rows, aslist=aslist)]
    if len(rows) == 1:
        reads.append([engine.read_sample(rows[0], aslist=aslist)])
    for values in reads:
        assert len(values) == len(rows)
        for value, row in zip(values, rows):
            want = model[row]
            if not isinstance(want, list):
                assert value.dtype == want.dtype
                assert np.array_equal(value, want)
            elif aslist:
                assert isinstance(value, list) and len(value) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(value, want))
            elif want:  # uniform items stack
                assert np.array_equal(value, np.stack(want))
            else:  # empty span: zero rows of the tensor's own dtype
                assert value.shape == (0,)
                assert value.dtype == np.dtype(engine.meta.dtype)


LAYOUTS = ["uncompressed", "lz4_chunk", "jpeg_sample", "tiled", "sequence",
           "padded", "pending"]

#: the large-request axis: every layout spans >= 8 chunks
BIG_LAYOUTS = ["big_uncompressed", "big_lz4", "big_scalar", "big_ragged",
               "big_jpeg", "big_fixed_then_ragged", "big_padded_tiled",
               "big_sequence", "big_pending", "big_updated"]


def build_big_layout(layout, rng):
    """-> (reader, model) for one layout of the large-request axis."""
    from repro.workloads import smooth_image

    meta = {
        "big_lz4": dict(dtype="float32", chunk_compression="lz4",
                        max_chunk_size=512),
        "big_scalar": dict(dtype="int32", max_chunk_size=64),
        "big_jpeg": dict(htype="image", sample_compression="jpeg",
                         max_chunk_size=2048),
        "big_padded_tiled": dict(dtype="uint8", max_chunk_size=1024),
        "big_sequence": dict(htype="sequence[generic]", dtype="int32",
                             max_chunk_size=128),
    }.get(layout, dict(dtype="int64", max_chunk_size=256))
    engine, storage = make_engine(**meta)
    if layout == "big_lz4":
        values = [rng.random(16).astype(np.float32) for _ in range(96)]
    elif layout == "big_scalar":
        values = [np.int32(i * 3) for i in range(200)]
    elif layout == "big_ragged":
        values = [np.arange(i, i + 1 + i % 6, dtype=np.int64)
                  for i in range(120)]
    elif layout == "big_jpeg":
        values = [smooth_image(rng, 16, 16 + 8 * (i % 2)) for i in range(32)]
    elif layout == "big_fixed_then_ragged":
        values = [np.arange(i, i + 4, dtype=np.int64) for i in range(112)]
        values += [np.arange(i, dtype=np.int64) for i in (2, 6, 3, 5)]
    elif layout == "big_padded_tiled":
        values = [rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
                  for _ in range(170)]
        values.insert(60, rng.integers(0, 255, (64, 48, 3), dtype=np.uint8))
    elif layout == "big_sequence":
        values = [[np.arange(i, i + 3, dtype=np.int32)] * (i % 4)
                  for i in range(60)]  # every fourth row is an empty span
    else:
        values = [np.arange(i, i + 4, dtype=np.int64) for i in range(125)]
    # 8 samples fill a chunk of the default meta: the first extend ends
    # over the upload watermark (its chunks go to storage), the second
    # leaves four chunks in the upload buffer and five rows in the active one
    engine.extend(values[:91])
    engine.extend(values[91:])
    model = [np.asarray(v) if not isinstance(v, list) else v for v in values]
    if layout == "big_jpeg":
        model = [jpeg_roundtrip(v) for v in values]
    if layout == "big_padded_tiled":
        assert engine.tile_enc.num_tiled == 1
        engine.pad_to(len(model) + 9)
        model += [np.zeros((0, 0, 0), dtype=np.uint8)] * 9
    if layout == "big_pending":  # early chunks uploaded at the watermark,
        # the tail still in the upload buffer and the active chunk
        assert engine._active_chunk is not None and engine._pending_chunks
        assert engine.enc.num_chunks >= 8
        return engine, model
    engine.flush()
    reader = fresh_reader(storage)
    assert reader.enc.num_chunks >= 8
    if layout == "big_updated":  # cache every chunk, then update rows
        reader.read_batch(range(len(model)))
        for row in (3, 64, 119):
            model[row] = np.full(4, -row, dtype=np.int64)
            reader.update(row, model[row])
    return reader, model


def raw_payload(layout, want):
    """Stored payload ``decode=False`` must return for model value *want*
    (``None``: a tiled sample has no single payload)."""
    if isinstance(want, list):
        return [raw_payload(layout, item) for item in want]
    if layout == "big_padded_tiled" and want.size > 48:
        return None
    return np.ascontiguousarray(want).tobytes()


@functools.lru_cache(maxsize=None)
def shared_big_layout(layout):
    """One (reader, model) per layout for the property test: reads only."""
    return build_big_layout(layout, np.random.default_rng(11))


def build_layout(layout, rng):
    """-> (cold reader, model) for one storage layout of the matrix."""
    from repro.workloads import smooth_image

    meta = {
        "uncompressed": dict(dtype="int64", max_chunk_size=256),
        "lz4_chunk": dict(dtype="float32", chunk_compression="lz4",
                          max_chunk_size=2048),
        "jpeg_sample": dict(htype="image", sample_compression="jpeg",
                            max_chunk_size=1 << 20),
        "tiled": dict(dtype="uint8", max_chunk_size=4096),
        "sequence": dict(htype="sequence[generic]", dtype="int32",
                         max_chunk_size=256),
        "padded": dict(dtype="float64", max_chunk_size=256),
        "pending": dict(dtype="int64", max_chunk_size=256),
    }[layout]
    engine, storage = make_engine(**meta)
    if layout in ("uncompressed", "pending"):
        values = [np.arange(i, i + 4, dtype=np.int64) for i in range(30)]
    elif layout == "lz4_chunk":
        values = [rng.random(64).astype(np.float32) for _ in range(30)]
    elif layout == "jpeg_sample":
        values = [smooth_image(rng, 40, 40) for _ in range(12)]
    elif layout == "tiled":
        values = [rng.integers(0, 255, shape, dtype=np.uint8)
                  for shape in [(4, 4, 3), (128, 96, 3), (6, 6, 3)]]
    elif layout == "sequence":
        values = [[np.arange(i, i + 3, dtype=np.int32)] * (i % 4)
                  for i in range(12)]  # rows 0, 4, 8 are empty spans
    else:
        values = [np.full(3, float(i)) for i in range(6)]
    engine.extend(values)
    model = list(values)
    if layout == "jpeg_sample":
        model = [jpeg_roundtrip(v) for v in values]
    if layout == "padded":
        engine.pad_to(10)
        model += [np.zeros((0,))] * 4
    if layout == "pending":  # unflushed: active + upload-buffer chunks
        assert engine._active_chunk is not None and engine._pending_chunks
        return engine, model
    engine.flush()
    return fresh_reader(storage), model


@pytest.mark.parametrize("layout", LAYOUTS)
class TestReadsMatchModel:
    """Every layout x {one row, many rows, repeated and negative rows}:
    single-row and multi-row reads pass through the same assertions."""

    def test_one_row_at_a_time(self, rng, layout):
        engine, model = build_layout(layout, rng)
        for row in range(len(model)):  # first touch cold, then warm
            assert_reads_match_model(engine, [row], model)
            assert_reads_match_model(engine, [row], model, aslist=True)

    def test_many_rows(self, rng, layout):
        engine, model = build_layout(layout, rng)
        rows = rng.permutation(len(model)).tolist()
        assert_reads_match_model(engine, rows, model)
        assert_reads_match_model(engine, rows, model, aslist=True)

    def test_repeated_and_negative_rows(self, rng, layout):
        engine, model = build_layout(layout, rng)
        assert_reads_match_model(engine, [2, 2, -1, 0, -2, 1, -1], model)

    def test_one_cold_row_through_every_entry_point(self, layout):
        """Ranged (read_sample / one-row read_batch) and whole-chunk
        (plan + execute) single-row reads agree with the model."""

        def cold():
            return build_layout(layout, np.random.default_rng(7))

        _engine, model = cold()
        for row in (1, len(model) - 1):
            assert_reads_match_model(cold()[0], [row], model)
            engine = cold()[0]
            got = engine.execute_plan(engine.plan_reads([row]), aslist=True)
            want = model[row]
            if isinstance(want, list):
                assert len(got[0]) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got[0], want))
            else:
                assert np.array_equal(got[0], want)


@pytest.mark.parametrize("layout", BIG_LAYOUTS)
class TestLargeRequestsMatchModel:
    """The large-request axis of :class:`TestReadsMatchModel`: 2 000
    unsorted rows with repeats and negatives over >= 8 chunks, through the
    same assertions as one row."""

    def rows(self, rng, model):
        return rng.integers(-len(model), len(model), 2000).tolist()

    @pytest.mark.parametrize("aslist", [False, True])
    def test_decoded(self, rng, layout, aslist):
        engine, model = build_big_layout(layout, rng)
        rows = self.rows(rng, model)
        assert_reads_match_model(engine, rows, model, aslist=aslist)
        # the plan entry point returns the same values as a column
        got = engine.execute_plan(engine.plan_reads(rows), aslist=aslist)
        assert len(got) == len(rows)
        if not isinstance(model[0], list):
            for value, row in zip(got, rows):
                assert np.array_equal(value, model[row])

    def test_raw_payloads(self, rng, layout):
        engine, model = build_big_layout(layout, rng)
        rows = self.rows(rng, model)
        raws = engine.read_batch(rows, decode=False)
        assert len(raws) == len(rows)
        for raw, row in zip(raws, rows):
            want = raw_payload(layout, model[row])
            if layout == "big_jpeg":  # lossy: compare what it decodes to
                assert np.array_equal(decompress_array(raw, "jpeg"),
                                      model[row])
            elif want is None:
                assert isinstance(raw, bytes) and raw
            else:
                assert raw == want

    def test_one_row_at_a_time(self, rng, layout):
        engine, model = build_big_layout(layout, rng)
        for row in rng.permutation(len(model))[:40].tolist():
            assert_reads_match_model(engine, [row], model)
            assert_reads_match_model(engine, [row - len(model)], model,
                                     aslist=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_random_rows_match_model(data):
    """Any request — empty, one row, repeats, negatives — reads
    ``model[row]`` for every row, dtype and shape included."""
    layout = data.draw(st.sampled_from(
        [name for name in BIG_LAYOUTS
         if name not in ("big_pending", "big_updated")]
    ))
    engine, model = shared_big_layout(layout)
    n = len(model)
    rows = data.draw(st.lists(st.integers(-n, n - 1), max_size=48))
    assert_reads_match_model(engine, rows, model)
    assert_reads_match_model(engine, rows, model, aslist=True)


class TestColumns:
    """What the plan entry points return: one dense column when every row
    came out of the gather, and the list contracts one layer up."""

    def lz4(self, rng, n=96):
        engine, storage = make_engine(dtype="float32", max_chunk_size=512,
                                      chunk_compression="lz4")
        model = [rng.random(16).astype(np.float32) for _ in range(n)]
        engine.extend(model)
        engine.flush()
        return fresh_reader(storage), model

    def test_fused_execute_returns_one_writeable_column(self, rng):
        reader, model = self.lz4(rng)
        rows = rng.integers(-96, 96, 500).tolist()
        column = FusedReadPlan().add(
            reader, reader.plan_reads(rows)
        ).execute()[0]
        assert isinstance(column, np.ndarray)
        assert column.shape == (500, 16) and column.dtype == np.float32
        assert np.array_equal(column, np.stack([model[r] for r in rows]))
        assert column.flags.writeable
        cached = [chunk for chunk, _size in reader.cache._chunks.values()]
        assert len(cached) == reader.enc.num_chunks >= 8
        for chunk in cached:  # a gather copies: no view of chunk memory
            assert not np.shares_memory(
                column, chunk.dense(np.dtype("float32"))
            )
        column[:] = -1.0  # a caller's in-place write stays the caller's
        again = reader.execute_plan(reader.plan_reads(rows))
        assert np.array_equal(again, np.stack([model[r] for r in rows]))

    def test_read_batch_is_a_list_of_ndarrays(self, rng):
        reader, model = self.lz4(rng)
        values = reader.read_batch([5, 5, -1])
        assert isinstance(values, list)
        assert all(isinstance(v, np.ndarray) for v in values)
        values[0][:] = 0.0  # rows of one request do not alias each other
        assert np.array_equal(values[1], model[5])
        assert np.array_equal(reader.read_batch([5])[0], model[5])

    def test_scalar_samples_split_into_0d_ndarrays(self):
        engine, storage = make_engine(dtype="int32", max_chunk_size=64)
        engine.extend([np.int32(i) for i in range(100)])
        engine.flush()
        reader = fresh_reader(storage)
        column = reader.execute_plan(reader.plan_reads([7, 99, 0]))
        assert isinstance(column, np.ndarray) and column.shape == (3,)
        assert column.tolist() == [7, 99, 0]
        for entry in (reader.read_batch([7, 99, 0]),
                      reader.execute_plan(reader.plan_reads([7, 99, 0]),
                                          aslist=True),
                      [reader.read_sample(7)], reader.read_items([7])):
            assert all(
                isinstance(v, np.ndarray) and v.shape == () for v in entry
            )
            assert int(entry[0]) == 7

    def test_fixed_and_ragged_chunks_in_one_request_come_back_as_a_list(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        model = [np.arange(i, i + 4, dtype=np.int64) for i in range(16)]
        model += [np.arange(3, dtype=np.int64), np.arange(5, dtype=np.int64)]
        engine.extend(model)
        engine.flush()
        reader = fresh_reader(storage)
        dense = reader.execute_plan(reader.plan_reads([0, 9, 15]))
        assert isinstance(dense, np.ndarray) and dense.shape == (3, 4)
        mixed = reader.execute_plan(reader.plan_reads([0, 17, 15, 16]))
        assert isinstance(mixed, list)
        for value, row in zip(mixed, [0, 17, 15, 16]):
            assert value.dtype == np.int64
            assert np.array_equal(value, model[row])

    def test_execute_plan_span_reports_dense(self, rng):
        from repro import obs

        reader, _model = self.lz4(rng, n=24)
        jpeg, _ = build_layout("jpeg_sample", rng)
        with obs.trace("columns") as root:
            reader.execute_plan(reader.plan_reads([1, 2]))
            jpeg.execute_plan(jpeg.plan_reads([1, 2]))
        spans = [s for s in root.children if s.name == "engine.execute_plan"]
        assert [s.attrs["dense"] for s in spans] == [True, False]
        assert all({"tensor", "rows", "chunks"} <= set(s.attrs) for s in spans)


class TestReadsWhileAppending:
    def test_reader_of_the_tail_never_sees_a_pinned_buffer(self):
        """A reader looping over the last 64 rows while a writer appends
        (sealing and resuming chunks as it flushes) gets every value, and
        the writer never meets ``BufferError`` from a live view."""
        engine, _ = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.full(4, i, dtype=np.int64) for i in range(64)])
        engine.flush()
        errors, reads = [], []
        done = threading.Event()

        def write():
            try:
                for i in range(64, 564):
                    engine.append(np.full(4, i, dtype=np.int64))
                    if i % 37 == 0:
                        engine.flush()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set() or not reads:
                    n = engine.num_samples
                    rows = list(range(n - 64, n))
                    for row, value in zip(rows, engine.read_batch(rows)):
                        assert value.tolist() == [row] * 4
                    reads.append(n)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert engine.num_samples == 564 and reads
        assert engine.read_batch([0, 300, 563])[2].tolist() == [563] * 4


class TestReadBatchIdentity:
    def test_uncompressed_across_chunk_boundaries(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        model = [np.arange(i, i + 4, dtype=np.int64) for i in range(60)]
        for value in model:
            engine.append(value)
        engine.flush()
        assert engine.enc.num_chunks > 1
        assert_reads_match_model(
            fresh_reader(storage), [0, 17, 59, 30, 17], model
        )

    def test_sample_compressed_jpeg(self, rng):
        from repro.workloads import smooth_image

        engine, storage = make_engine(
            htype="image", sample_compression="jpeg", max_chunk_size=1 << 20
        )
        images = [smooth_image(rng, 40, 40) for _ in range(12)]
        for image in images:
            engine.append(image)
        engine.flush()
        assert_reads_match_model(
            fresh_reader(storage), list(range(12)),
            [jpeg_roundtrip(image) for image in images],
        )

    def test_chunk_compressed_lz4(self):
        engine, storage = make_engine(dtype="int64", chunk_compression="lz4")
        model = [np.arange(i, i + 100, dtype=np.int64) for i in range(20)]
        engine.extend(model)
        engine.flush()
        assert_reads_match_model(fresh_reader(storage), [19, 0, 7], model)

    def test_tiled_and_flat_mix(self, rng):
        engine, storage = make_engine(dtype="uint8", max_chunk_size=4096)
        model = [np.zeros((4, 4, 3), dtype=np.uint8),
                 rng.integers(0, 255, (128, 96, 3), dtype=np.uint8)]
        for value in model:
            engine.append(value)
        engine.flush()
        assert engine.tile_enc.num_tiled == 1
        assert_reads_match_model(fresh_reader(storage), [1, 0], model)

    def test_sequences_stack_and_aslist(self):
        engine, storage = make_engine(htype="sequence[generic]", dtype="int64")
        model = [[np.arange(3, dtype=np.int64)] * 2,
                 [np.arange(3, dtype=np.int64)] * 4]
        for value in model:
            engine.append(value)
        engine.flush()
        fresh = fresh_reader(storage)
        assert_reads_match_model(fresh, [1, 0], model)
        assert_reads_match_model(fresh, [1, 0], model, aslist=True)

    def test_padded_rows(self):
        engine, storage = make_engine(dtype="float64")
        engine.append(np.ones(3))
        engine.pad_to(5)
        engine.flush()
        model = [np.ones(3)] + [np.zeros((0,))] * 4
        assert_reads_match_model(fresh_reader(storage), [0, 3, 4], model)

    def test_text(self):
        engine, storage = make_engine(htype="text")
        words = ["alpha", "beta", "gamma"]
        for word in words:
            engine.append(word)
        engine.flush()
        model = [np.frombuffer(w.encode(), dtype=np.uint8) for w in words]
        assert_reads_match_model(fresh_reader(storage), [2, 0, 1], model)

    def test_raw_mode_matches_stored_payload(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        for i in range(20):
            engine.append(np.arange(i, i + 4, dtype=np.int64))
        engine.flush()
        fresh = fresh_reader(storage)
        raws = fresh.read_batch([3, 12], decode=False)
        assert raws[0] == np.arange(3, 7, dtype=np.int64).tobytes()
        assert raws[1] == np.arange(12, 16, dtype=np.int64).tobytes()
        # one row takes the same path and returns the same payload
        assert fresh_reader(storage).read_batch([12], decode=False) == raws[1:]


class TestCopyOnWriteAcrossCommits:
    def test_read_batch_spans_commit_owned_chunks(self):
        ds = repro.empty(MemoryProvider("cow"), overwrite=True)
        ds.create_tensor("x", dtype="int64", max_chunk_size=256,
                         create_shape_tensor=False, create_id_tensor=False)
        for i in range(20):
            ds.x.append(np.full((4,), i, dtype=np.int64))
        first = ds.commit("base")
        # COW update of an ancestor-owned chunk + fresh appends
        ds.x[0] = np.full((4,), 111, dtype=np.int64)
        for i in range(20, 30):
            ds.x.append(np.full((4,), i, dtype=np.int64))
        ds.flush()

        engine = ds._engine("x")
        rows = [0, 5, 19, 25, 29]
        model = [np.full((4,), i, dtype=np.int64) for i in range(30)]
        model[0] = np.full((4,), 111, dtype=np.int64)  # updated at head
        assert_reads_match_model(engine, rows, model)
        assert_reads_match_model(engine, [0], model)
        # time travel still sees the pre-COW bytes
        old = ds._at_commit(first)
        assert old._engine("x").read_batch([0])[0][0] == 0

    def test_plan_resolves_keys_against_owning_commit(self):
        ds = repro.empty(MemoryProvider("cow2"), overwrite=True)
        ds.create_tensor("x", dtype="int64",
                         create_shape_tensor=False, create_id_tensor=False)
        ds.x.append(np.arange(4, dtype=np.int64))
        ds.commit("base")
        ds.x.append(np.arange(4, 8, dtype=np.int64))
        ds.flush()
        engine = ds._engine("x")
        plan = engine.plan_reads([0, 1])
        assert len(plan.chunk_keys) >= 1
        # the resumed chunk is COW-owned by the head commit
        assert any(ds.commit_id in key for key in plan.chunk_keys.values())


class TestCacheCounters:
    def test_cold_misses_then_hits(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        for i in range(40):
            engine.append(np.arange(4, dtype=np.int64))
        engine.flush()
        fresh = fresh_reader(storage)
        fresh.read_batch(list(range(40)))
        assert fresh.chunk_cache_misses == fresh.enc.num_chunks
        assert fresh.full_chunk_reads == fresh.enc.num_chunks
        before_hits = fresh.chunk_cache_hits
        fresh.read_batch(list(range(40)))
        assert fresh.chunk_cache_hits == before_hits + fresh.enc.num_chunks
        assert fresh.full_chunk_reads == fresh.enc.num_chunks

    def test_single_row_batch_keeps_partial_reads(self, rng):
        from repro.workloads import smooth_image

        engine, storage = make_engine(
            htype="image", sample_compression="jpeg", max_chunk_size=1 << 20
        )
        images = [smooth_image(rng, 40, 40) for _ in range(30)]
        engine.extend(images)
        engine.flush()
        fresh = fresh_reader(storage)
        storage.stats.reset()
        batch = fresh.read_batch([17])
        assert np.array_equal(batch[0], jpeg_roundtrip(images[17]))
        # sparse random access must stay a ranged read, not a full chunk
        assert fresh.partial_reads == 1
        assert fresh.full_chunk_reads == 0
        assert storage.stats.bytes_read < 30_000

    def test_one_get_per_chunk_cold(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        for i in range(40):
            engine.append(np.arange(4, dtype=np.int64))
        engine.flush()
        fresh = fresh_reader(storage)
        storage.stats.reset()
        fresh.read_batch(list(range(40)))
        assert storage.stats.get_requests == fresh.enc.num_chunks


class TestReadShapesBatch:
    def test_matches_per_row_and_reads_headers_once(self, rng):
        from repro.workloads import smooth_image

        engine, storage = make_engine(
            htype="image", sample_compression="jpeg", max_chunk_size=1 << 20
        )
        for i in range(10):
            engine.append(smooth_image(rng, 24 + 8 * (i % 3), 32))
        engine.flush()
        fresh = fresh_reader(storage)
        storage.stats.reset()
        shapes = fresh.read_shapes_batch(list(range(10)))
        assert shapes == [engine.read_shape(i) for i in range(10)]
        # header probe(s) only, never payloads
        assert storage.stats.bytes_read < 8192


    def test_two_thousand_shuffled_rows_cold_and_warm(self, rng):
        """Rows resolve in one call and each chunk's shapes are read by
        fancy index: cold from headers alone, warm from cached chunks."""
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        model = [np.zeros((1 + i % 5, 2), dtype=np.int64) for i in range(150)]
        engine.extend(model)
        engine.pad_to(153)
        engine.flush()
        shapes = [v.shape for v in model] + [(0, 0)] * 3
        reader = fresh_reader(storage)
        assert reader.enc.num_chunks >= 8
        rows = rng.integers(-153, 153, 2000).tolist()
        want = [shapes[row] for row in rows]
        assert reader.read_shapes_batch(rows) == want
        assert reader.full_chunk_reads == 0  # headers only
        assert all(type(s) is tuple and all(type(x) is int for x in s)
                   for s in reader.read_shapes_batch(rows))
        reader.read_batch(range(153))  # warm: every chunk cached
        assert reader.read_shapes_batch(rows) == want
        assert reader.read_shape(-1) == (0, 0)

    def test_sequence_shapes(self):
        engine, storage = make_engine(htype="sequence[generic]",
                                      dtype="int32", max_chunk_size=128)
        engine.extend([[np.zeros((3, 2), dtype=np.int32)] * (i % 4)
                       for i in range(40)])
        engine.flush()
        reader = fresh_reader(storage)
        rows = [39, 0, 4, 17, 2, 39]
        assert reader.read_shapes_batch(rows) == [
            (row % 4, 3, 2) if row % 4 else (0,) for row in rows
        ]


class TestGetManyProviders:
    def test_default_get_many_skips_missing(self):
        storage = MemoryProvider()
        storage["a"] = b"xx"
        storage["b"] = b"yyy"
        storage.stats.reset()
        blobs = storage.get_many(["a", "missing", "b"])
        assert blobs == {"a": b"xx", "b": b"yyy"}
        assert storage.stats.get_requests == 2
        assert storage.stats.bytes_read == 5

    def test_lru_cache_get_many_batches_misses(self):
        slow = MemoryProvider("slow")
        for i in range(6):
            slow[f"k{i}"] = bytes([i]) * 10
        cache = LRUCache(MemoryProvider("fast"), slow, cache_size=1 << 20)
        _ = cache["k0"]  # warm one key
        hits0, misses0 = cache.hits, cache.misses
        blobs = cache.get_many([f"k{i}" for i in range(6)])
        assert set(blobs) == {f"k{i}" for i in range(6)}
        assert cache.hits == hits0 + 1
        assert cache.misses == misses0 + 5
        # misses are now resident
        assert all(cache.is_cached(f"k{i}") for i in range(6))

    def test_object_store_charges_batch_once(self):
        from repro.sim.clock import SimClock
        from repro.storage.object_store import make_object_store

        clock = SimClock()
        store = make_object_store("s3", clock=clock)
        for i in range(8):
            store[f"k{i}"] = b"z" * 100
        t0 = clock.now()
        store.get_many([f"k{i}" for i in range(8)])
        batched = clock.now() - t0
        t1 = clock.now()
        for i in range(8):
            _ = store[f"k{i}"]
        looped = clock.now() - t1
        assert batched < looped / 2  # one request overhead, not eight


class TestDatasetReadRows:
    def make_ds(self):
        ds = repro.empty(MemoryProvider("rr"), overwrite=True)
        ds.create_tensor("x", dtype="int64", max_chunk_size=256,
                         create_shape_tensor=False, create_id_tensor=False)
        ds.create_tensor("y", htype="text",
                         create_shape_tensor=False, create_id_tensor=False)
        for i in range(30):
            ds.append({"x": np.full((4,), i, dtype=np.int64), "y": f"s{i}"})
        ds.flush()
        return ds

    def test_view_relative_rows(self):
        ds = self.make_ds()
        view = ds[10:20]
        out = view.read_rows([0, 5, 9], tensors=["x"])
        assert [int(v[0]) for v in out["x"]] == [10, 15, 19]

    def test_physical_rows_and_all_tensors(self):
        ds = self.make_ds()
        out = ds.read_rows([3, 7], physical=True)
        assert set(out) == {"x", "y"}
        assert int(out["x"][1][0]) == 7

    def test_decode_false_returns_payloads(self):
        ds = self.make_ds()
        out = ds.read_rows([2], tensors=["y"], decode=False)
        assert out["y"][0] == b"s2"

    def test_group_qualified_name_wins_over_shadowing_root(self):
        ds = repro.empty(MemoryProvider("shadow"), overwrite=True)
        for name, value in [("labels", 1), ("g/labels", 99)]:
            ds.create_tensor(name, dtype="int64",
                             create_shape_tensor=False, create_id_tensor=False)
            ds._engine(name).append(np.int64(value))
        ds.flush()
        group = ds["g"]
        assert int(group.read_rows([0], ["labels"])["labels"][0]) == 99

    def test_sub_indexed_view_matches_tensor_numpy(self):
        ds = repro.empty(MemoryProvider("subidx"), overwrite=True)
        ds.create_tensor("x", dtype="float64",
                         create_shape_tensor=False, create_id_tensor=False)
        for _ in range(6):
            ds.x.append(np.arange(100, dtype=np.float64).reshape(10, 10))
        ds.flush()
        view = ds[0:4, 2:4]
        batched = view.read_rows([0, 3], ["x"])["x"]
        assert np.array_equal(batched[0], view["x"][0].numpy())
        assert batched[0].shape == (2, 10)


class TestConsumersMatchPerSamplePath:
    def test_loader_batched_equals_per_sample(self, image_ds):
        """Every loader sample is some row's ``ds.images[i].numpy()`` with
        that row's label, and each row is delivered exactly once."""
        from repro.dataloader import DeepLakeLoader

        row_of = {
            image_ds.images[i].numpy().tobytes(): i for i in range(24)
        }
        assert len(row_of) == 24
        seen = []
        for batch in DeepLakeLoader(image_ds, batch_size=5, seed=3,
                                    shuffle=True):
            for image, label in zip(batch["images"], batch["labels"]):
                row = row_of[image.tobytes()]
                assert image.shape == image_ds.images[row].numpy().shape
                assert np.array_equal(label, image_ds.labels[row].numpy())
                seen.append(row)
        assert sorted(seen) == list(range(24))

    def test_loader_stats_expose_chunk_cache_counters(self, image_ds):
        from repro.dataloader import DeepLakeLoader

        cold = repro.load(image_ds.storage)  # fresh engines, cold cache
        loader = DeepLakeLoader(cold, batch_size=8)
        for _ in loader:
            pass
        stats = loader.stats.as_dict()
        assert stats["chunk_cache_misses"] >= 1
        # second epoch runs hot
        for _ in loader:
            pass
        assert loader.stats.as_dict()["chunk_cache_hits"] >= 1

    def test_batch_size_one_streams_whole_chunks(self, image_ds):
        from repro.dataloader import DeepLakeLoader

        cold = repro.load(image_ds.storage)
        engine = cold._engine("images")  # warm state; chunks stay cold
        cold._engine("labels")
        image_ds.storage.stats.reset()
        loader = DeepLakeLoader(cold, batch_size=1, tensors=["images"])
        n = sum(1 for _ in loader)
        assert n == 24
        # single-row groups must keep streaming whole chunks: one GET per
        # chunk, not a header probe + ranged GET per sample
        assert image_ds.storage.stats.get_requests == engine.enc.num_chunks

    def test_tql_filter_one_get_per_chunk(self):
        store = MemoryProvider("tql")
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("v", dtype="float64", max_chunk_size=512,
                         create_shape_tensor=False, create_id_tensor=False)
        for i in range(200):
            ds.v.append(np.float64(i))
        ds.flush()
        cold = repro.load(store)
        engine = cold._engine("v")
        n_chunks = engine.enc.num_chunks
        assert n_chunks > 1
        store.stats.reset()
        result = cold.query("select * where v >= 100")
        assert len(result) == 100
        assert store.stats.get_requests <= n_chunks

    def test_serve_read_batch_identity_and_sequence_error(self):
        from repro.exceptions import ServeError
        from repro.serve.server import DatasetServer

        store = MemoryProvider("served")
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64",
                         create_shape_tensor=False, create_id_tensor=False)
        ds.create_tensor("seq", htype="sequence[generic]", dtype="int64",
                         create_shape_tensor=False, create_id_tensor=False)
        for i in range(10):
            # ragged items within one sequence sample: no single ndarray
            ds.append({"x": np.full((3,), i, dtype=np.int64),
                       "seq": [np.arange(2, dtype=np.int64),
                               np.arange(3, dtype=np.int64)]})
        ds.flush()
        server = DatasetServer("rp-test").add_dataset("d", store)
        client = server.connect("d", tenant="alice")
        values = client.read_batch("x", [9, 0, 4])
        assert [int(v[0]) for v in values] == [9, 0, 4]
        with pytest.raises(ServeError):
            client.read_batch("seq", [0, 1])
        stats = server.stats_snapshot()["tenants"]["alice"]
        assert stats["samples_served"] == 3
        assert stats["chunk_cache_hits"] + stats["chunk_cache_misses"] >= 1

    def test_concurrent_serve_read_batch_dedups_backend_gets(self):
        import threading

        from repro.serve.server import DatasetServer

        store = MemoryProvider("stampede")
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64", max_chunk_size=512,
                         create_shape_tensor=False, create_id_tensor=False)
        for i in range(64):
            ds.x.append(np.full((8,), i, dtype=np.int64))
        ds.flush()
        server = DatasetServer("stampede-test").add_dataset("d", store)
        n_chunks = ds._engine("x").enc.num_chunks
        assert n_chunks > 1
        # warm meta/encoders (engine state); chunk payloads stay cold
        server._served_dataset("d")._engine("x")
        store.stats.reset()

        rows = list(range(64))
        results: dict = {}
        barrier = threading.Barrier(8)

        def storm(i):
            client = server.connect("d", tenant=f"t{i}")
            barrier.wait()
            results[i] = client.read_batch("x", rows)

        threads = [
            threading.Thread(target=storm, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        for values in results.values():
            assert [int(v[0]) for v in values] == list(range(64))
        # single-flight + batched misses: one backend GET per cold chunk,
        # not one per client per chunk
        assert store.stats.get_requests == n_chunks
