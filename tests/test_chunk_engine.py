"""ChunkEngine behaviour: chunking bounds, partial reads, tiling, updates,
sequences, sparse padding, rechunking, state loading, I/O accounting."""

import numpy as np
import pytest

import repro
from repro.core.meta import TensorMeta
from repro.core.tiling import read_region
from repro.core.commit_state import CommitState, open_engine
from repro.exceptions import FormatError, KeyNotFound, SampleIndexError
from repro.storage import MemoryProvider
from repro.util import keys as K
from repro.version_control.tree import pack_manifest, unpack_manifest

from engine_reads import engine_row, engine_rows


def make_engine(storage=None, **meta_kwargs):
    if storage is None:  # NB: empty providers are falsy (len() == 0)
        storage = MemoryProvider()
    meta_kwargs.setdefault("htype", "generic")
    meta = TensorMeta(**meta_kwargs)
    return open_engine(storage, "t", meta), storage


class TestChunkingBounds:
    def test_small_samples_pack_into_one_chunk(self):
        engine, _ = make_engine(dtype="int64", max_chunk_size=1 << 20)
        engine.extend([np.arange(10, dtype=np.int64)] * 50)
        engine.flush()
        assert engine.enc.num_chunks == 1
        assert engine.num_samples == 50

    def test_chunks_split_at_upper_bound(self):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=1000)
        for _ in range(10):
            engine.append(np.zeros(400, dtype=np.uint8))
        engine.flush()
        # 400B samples, 1000B bound -> 2 per chunk
        assert engine.enc.num_chunks == 5

    def test_single_giant_video_not_tiled(self):
        engine, _ = make_engine(
            htype="video", sample_compression="mp4", max_chunk_size=1024
        )
        clip = np.zeros((4, 32, 32, 3), dtype=np.uint8)
        engine.append(clip)
        assert engine.tile_enc.num_tiled == 0
        assert engine_row(engine, 0).shape == clip.shape

    def test_flush_persists_and_reloads(self):
        storage = MemoryProvider()
        engine, _ = make_engine(storage, dtype="float32")
        engine.extend([np.ones((3, 3), dtype=np.float32) * i for i in range(5)])
        engine.flush()
        fresh = open_engine(storage, "t")
        assert fresh.num_samples == 5
        assert np.array_equal(
            engine_row(fresh, 4), np.ones((3, 3), dtype=np.float32) * 4
        )

    def test_ragged_shapes(self):
        engine, _ = make_engine(dtype="int32")
        engine.append(np.zeros((2, 5), dtype=np.int32))
        engine.append(np.zeros((9, 1), dtype=np.int32))
        assert engine.shapes([0])[0] == (2, 5)
        assert engine.shapes([1])[0] == (9, 1)
        assert engine.meta.shape_interval.astuple() == (None, None)

    def test_dtype_mismatch_rejected(self):
        engine, _ = make_engine(dtype="int32")
        engine.append(np.zeros(3, dtype=np.int32))
        with pytest.raises(FormatError):
            engine.append(np.zeros(3, dtype=np.complex128))


class TestPartialReads:
    def make_jpeg_engine(self, rng, n=30, chunk=1 << 20):
        storage = MemoryProvider()
        engine, _ = make_engine(
            storage, htype="image", sample_compression="jpeg",
            max_chunk_size=chunk,
        )
        from repro.workloads import smooth_image

        for _ in range(n):
            engine.append(smooth_image(rng, 40, 40))
        engine.flush()
        return engine, storage

    def test_random_access_uses_ranged_reads(self, rng):
        engine, storage = self.make_jpeg_engine(rng)
        fresh = open_engine(storage, "t")
        storage.stats.reset()
        _ = engine_row(fresh, 17)
        assert fresh.partial_reads == 1
        # header probe + sample range, both far below chunk size
        assert storage.stats.bytes_read < 30_000

    def test_prefer_full_caches_whole_chunk(self, rng):
        engine, storage = self.make_jpeg_engine(rng)
        fresh = open_engine(storage, "t")
        # a single row that should stream: the plan path fetches whole
        _ = fresh.execute_plan(fresh.plan_reads([3]))
        assert fresh.partial_reads == 0
        storage.stats.reset()
        _ = fresh.execute_plan(fresh.plan_reads([4]))  # same chunk: cached
        assert storage.stats.get_requests == 0

    def test_chunk_compressed_never_partial(self):
        storage = MemoryProvider()
        engine, _ = make_engine(storage, dtype="int64",
                                chunk_compression="lz4")
        engine.extend([np.arange(100, dtype=np.int64)] * 20)
        engine.flush()
        fresh = open_engine(storage, "t")
        _ = engine_row(fresh, 10)
        assert fresh.partial_reads == 0

    def test_read_shape_via_header_only(self, rng):
        engine, storage = self.make_jpeg_engine(rng)
        fresh = open_engine(storage, "t")
        storage.stats.reset()
        assert fresh.shapes([5])[0] == (40, 40, 3)
        assert storage.stats.bytes_read < 8192  # header probe only


class TestTiledSamples:
    def test_roundtrip_and_region(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        big = rng.integers(0, 255, (128, 96, 3), dtype=np.uint8)
        engine.append(big)
        assert engine.tile_enc.num_tiled == 1
        assert np.array_equal(engine_row(engine, 0), big)
        region = read_region(engine, 0, (slice(30, 60), slice(10, 20)))
        assert np.array_equal(region, big[30:60, 10:20])

    @pytest.mark.parametrize("shape", [(128, 96, 3), (8, 8, 3)],
                             ids=["tiled", "untiled"])
    def test_region_entries_must_be_slices(self, rng, shape):
        """One error on both paths: an int entry used to crop an untiled
        sample but fail inside the tile intersection on a tiled one."""
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        engine.append(rng.integers(0, 255, shape, dtype=np.uint8))
        assert (0 in engine.tile_enc) == (shape[0] == 128)
        with pytest.raises(SampleIndexError, match="must be slices"):
            read_region(engine, 0, (5, slice(0, 4)))

    def test_tiled_between_normal_samples(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        small1 = rng.integers(0, 255, (10, 10, 3), dtype=np.uint8)
        big = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        small2 = rng.integers(0, 255, (12, 12, 3), dtype=np.uint8)
        engine.append(small1)
        engine.append(big)
        engine.append(small2)
        assert np.array_equal(engine_row(engine, 0), small1)
        assert np.array_equal(engine_row(engine, 1), big)
        assert np.array_equal(engine_row(engine, 2), small2)

    def test_same_shape_update(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        big = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        engine.append(big)
        new = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        engine.update([0], [new])
        assert np.array_equal(engine_row(engine, 0), new)

    def test_shape_changing_tiled_update_rejected(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        engine.append(rng.integers(0, 255, (100, 100, 3), dtype=np.uint8))
        with pytest.raises(FormatError):
            engine.update(
                [0], [rng.integers(0, 255, (50, 50, 3), dtype=np.uint8)])


class TestUpdates:
    def test_update_same_chunk(self):
        engine, _ = make_engine(dtype="int64")
        engine.extend([np.array([i], dtype=np.int64) for i in range(10)])
        engine.update([4], [np.array([99, 100], dtype=np.int64)])
        assert np.array_equal(engine_row(engine, 4), [99, 100])
        assert np.array_equal(engine_row(engine, 5), [5])
        assert engine.commit_diff.updated == set()  # still in added range

    def test_update_out_of_range(self):
        engine, _ = make_engine(dtype="int64")
        engine.append(np.zeros(1, dtype=np.int64))
        with pytest.raises(SampleIndexError):
            engine.update([5], [np.zeros(1, dtype=np.int64)])

    def test_negative_index(self):
        engine, _ = make_engine(dtype="int64")
        engine.extend([np.array([i], dtype=np.int64) for i in range(4)])
        engine.update([-1], [np.array([42], dtype=np.int64)])
        assert engine_row(engine, 3)[0] == 42
        assert np.array_equal(engine_row(engine, -1), [42])


class TestBatchedUpdates:
    """``update(rows, values)`` is the one update path: a batch forks each
    touched chunk once and is all-or-nothing."""

    def three_chunks(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=64)
        engine.extend([np.full(2, i, dtype=np.int64) for i in range(12)])
        engine.flush()  # 4 rows (64 bytes) per chunk
        assert engine.enc.num_chunks == 3
        return engine, storage

    def test_each_touched_chunk_is_forked_once(self, monkeypatch):
        from repro.core.chunk import Chunk

        engine, _ = self.three_chunks()
        copies = []
        copy = Chunk.copy
        monkeypatch.setattr(Chunk, "copy", lambda chunk, *a: copies.append(
            chunk.name) or copy(chunk, *a))
        before = engine_rows(engine, range(12))
        rows = [9, 0, 3, 1, 8, 3, 10]
        values = [np.full(2, -r, dtype=np.int64) for r in rows]
        values[2] = np.arange(3, dtype=np.int64)  # row 3 given twice
        engine.update(rows, values)
        assert len(copies) == len(set(copies)) == 2  # chunks 0 and 2
        want = [np.asarray(v) for v in before]
        for row, value in zip(rows, values):
            want[row] = value  # the last value of a repeated row wins
        assert want[3].tolist() == [-3, -3]
        got = engine_rows(engine, range(12), aslist=True)
        assert all(map(np.array_equal, got, want))
        assert engine.commit_diff.updated == set()  # still the added range

    def test_a_bad_value_changes_nothing(self):
        engine, storage = self.three_chunks()
        engine.begin_new_commit()  # the rows are no longer this commit's
        before = engine_rows(engine, range(12), aslist=True)
        state = (set(engine.chunk_set), list(engine.enc._ids),
                 dict(engine.chunk_stats),
                 engine.meta.shape_interval.astuple())
        keys = set(storage)
        for rows, values in (
            ([0, 5, 9],
             [np.zeros(2, np.int64), "oops", np.zeros(2, np.int64)]),
            ([0, 12], [np.zeros(2, np.int64)] * 2),  # a row out of range
            ([0, 5], [np.zeros(2, np.int64)]),  # one value short
        ):
            with pytest.raises(FormatError):
                engine.update(rows, values)
        assert (set(engine.chunk_set), list(engine.enc._ids),
                dict(engine.chunk_stats),
                engine.meta.shape_interval.astuple()) == state
        assert not engine._pending_chunks and not engine._superseded
        assert engine.commit_diff.updated == set() and not engine._dirty
        assert set(storage) == keys
        got = engine_rows(engine, range(12), aslist=True)
        assert all(map(np.array_equal, got, before))

    def test_touched_chunks_arrive_in_one_fetch(self):
        engine, storage = self.three_chunks()
        cold = open_engine(storage, "t")
        batches = []
        get_many = storage.get_many
        storage.get_many = lambda keys: batches.append(len(keys)) or get_many(
            keys)
        cold.update([0, 4, 8], [np.zeros(1, dtype=np.int64)] * 3)
        assert batches == [3]
        assert [v.tolist() for v in engine_rows(cold, [0, 4, 8], aslist=True)
                ] == [[0]] * 3


class TestSequences:
    def test_sequence_roundtrip(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="float32")
        seqs = [
            [rng.random((2, 2)).astype(np.float32) for _ in range(k)]
            for k in (3, 1, 4)
        ]
        for seq in seqs:
            engine.append(seq)
        assert engine.num_samples == 3
        for i, seq in enumerate(seqs):
            out = engine_row(engine, i, aslist=True)
            assert len(out) == len(seq)
            for a, b in zip(out, seq):
                assert np.array_equal(a, b)

    def test_sequence_stacks_uniform(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.zeros((2,), dtype=np.int32)] * 5)
        out = engine_row(engine, 0)
        assert out.shape == (5, 2)

    def test_sequence_shape(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.zeros((3, 4), dtype=np.int32)] * 2)
        assert engine.shapes([0])[0] == (2, 3, 4)

    def test_sequence_update_unsupported(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.zeros(1, dtype=np.int32)])
        with pytest.raises(FormatError):
            engine.update([0], [[np.zeros(1, dtype=np.int32)]])


class TestSparsePadding:
    def test_pad_then_read_empty(self):
        engine, _ = make_engine(dtype="float64")
        engine.append(np.ones((2, 2)))
        engine.pad_to(5)
        assert engine.num_samples == 5
        assert engine_row(engine, 3).size == 0
        assert engine.pad_enc.num_padded == 4

    def test_update_unpads(self):
        engine, _ = make_engine(dtype="float64")
        engine.append(np.ones((2, 2)))
        engine.pad_to(4)
        engine.update([2], [np.full((2, 2), 7.0)])
        assert not engine.pad_enc.is_padded(2)
        assert engine_row(engine, 2)[0, 0] == 7.0


class TestRechunk:
    def test_rechunk_preserves_data_and_tightens(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=2048)
        values = [np.arange(i % 40, dtype=np.int64) for i in range(120)]
        engine.extend(values)
        for i in range(0, 120, 11):
            values[i] = np.arange(60, dtype=np.int64)
            engine.update([i], [values[i]])
        before_chunks = engine.enc.num_chunks
        engine.rechunk()
        engine.commit_state.seal("rechunk")
        for i, v in enumerate(values):
            assert np.array_equal(engine_row(engine, i), v)
        assert engine.enc.num_samples == 120
        # the chunks the rechunk replaced go with the commit that seals it
        chunk_keys = [k for k in storage if "/chunks/" in k]
        assert len(chunk_keys) == engine.enc.num_chunks == len(
            set(n for n, _s, _e in engine.chunk_layout())
        )

    def test_rechunk_retiles_oversize(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        big = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        engine.append(rng.integers(0, 255, (8, 8, 3), dtype=np.uint8))
        engine.append(big)
        engine.rechunk()
        assert np.array_equal(engine_row(engine, 1), big)
        assert engine.tile_enc.num_tiled == 1

    @pytest.mark.parametrize(
        "layout", ["ragged", "lz4", "tiled", "sequence", "padded", "jpeg"]
    )
    def test_rechunk_writes_what_one_extend_of_the_rows_writes(self, rng,
                                                               layout):
        """After fragmenting appends and updates, ``rechunk()`` lays the
        rows out as one ``extend`` of them into a fresh tensor does — the
        same rows per chunk, the same tile encoder — and every raw
        payload reads back byte for byte, before and after a reload."""
        from repro.compression import compress_array
        from repro.core.sample import Sample
        from repro.workloads import smooth_image

        def jpeg(size):
            image = smooth_image(rng, size, size)
            return Sample(buffer=compress_array(image, "jpeg"),
                          compression="jpeg")

        def ints(n):
            return np.arange(n, dtype=np.int64)

        if layout in ("ragged", "lz4"):
            kwargs = {"dtype": "int64", "max_chunk_size": 512,
                      "sample_compression": "lz4" if layout == "lz4" else None}
            rows = [ints(i % 13) for i in range(60)]
        elif layout == "tiled":
            kwargs = {"dtype": "uint8", "max_chunk_size": 4096}
            rows = [rng.integers(0, 255, (8, 8, 3), dtype=np.uint8)
                    for _ in range(40)]
            rows[5] = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        elif layout == "sequence":  # no update: rechunk at a wider bound
            kwargs = {"htype": "sequence[generic]", "dtype": "int32",
                      "max_chunk_size": 256}
            rows = [[np.arange(i, i + 5, dtype=np.int32)] * (i % 4)
                    for i in range(30)]
        elif layout == "padded":
            kwargs = {"dtype": "float64", "max_chunk_size": 256}
            rows = [np.full(3, float(i)) for i in range(20)]
        else:  # pre-encoded samples, copied into chunks verbatim
            kwargs = {"htype": "image", "sample_compression": "jpeg",
                      "max_chunk_size": 8192}
            rows = [jpeg(24) for _ in range(30)]

        def update(i):  # a row grown past its chunk's room, or shrunk
            big = i % 8
            if layout in ("ragged", "lz4"):
                return ints(40 if big else 1)
            if layout == "tiled":
                return rng.integers(0, 255, (20 if big else 2, 8, 3),
                                    dtype=np.uint8)
            if layout == "padded":
                return np.full(9 if big else 1, -1.0)
            return jpeg(48 if big else 8)

        engine, storage = make_engine(**kwargs)
        third = len(rows) // 3
        for start in (0, third, 2 * third):  # each batch sealed by a flush
            engine.extend(rows[start:start + third])
            engine.flush()
        if layout == "padded":
            engine.pad_to(25)
        if layout == "sequence":
            engine.meta.max_chunk_size *= 4
        else:
            for i in range(0, engine.num_samples, 4):
                engine.update([i], [update(i)])
        every = range(engine.num_samples)
        raw = engine_rows(engine, every, decode=False)

        fresh, _ = make_engine(
            **{**kwargs, "max_chunk_size": engine.meta.max_chunk_size}
        )
        fresh.extend(
            [Sample(buffer=b, compression="jpeg") for b in raw]
            if layout == "jpeg" else engine_rows(engine, every, aslist=True)
        )

        def runs(e):
            return [end - start for _name, start, end in e.chunk_layout()]

        fragmented = runs(engine)
        engine.rechunk()
        assert runs(engine) == runs(fresh) != fragmented
        assert engine.tile_enc.tobytes() == fresh.tile_enc.tobytes()
        assert engine_rows(engine, every, decode=False) == raw
        engine.flush()
        cold = open_engine(storage, "t")
        assert runs(cold) == runs(fresh)
        assert engine_rows(cold, every, decode=False) == raw

    def test_rechunk_tiles_a_row_over_a_lowered_bound(self):
        """A stored row over a lowered ``max_chunk_size`` is tiled by the
        rechunk, as an append at that bound tiles it."""
        values = [np.arange(i * 8, dtype=np.int64) for i in range(1, 9)]
        engine, _ = make_engine(dtype="int64", max_chunk_size=4096)
        engine.extend(values)
        engine.flush()
        engine.meta.max_chunk_size = 256
        engine.rechunk()
        fresh, _ = make_engine(dtype="int64", max_chunk_size=256)
        fresh.extend(values)
        assert engine.tile_enc.num_tiled == 4  # the rows over 256 bytes
        assert engine.tile_enc.tobytes() == fresh.tile_enc.tobytes()
        assert engine.chunk_layout() != fresh.chunk_layout()  # fresh names
        assert [(s, e) for _n, s, e in engine.chunk_layout()] == [
            (s, e) for _n, s, e in fresh.chunk_layout()
        ]
        for got, want in zip(engine_rows(engine, range(8)), values):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("layout", ["flat", "tiled", "sequence", "padded"])
    def test_cold_rechunk_fetches_whole_chunks_and_round_trips(self, rng,
                                                               layout):
        """rechunk() reads through one plan: a cold sample-compressed
        tensor costs one GET per chunk, not a header probe plus a ranged
        GET per sample, the rewritten chunks ride the closing flush's
        batch instead of one PUT each, and every sample survives byte for
        byte."""
        from repro.compression import compress_array, decompress_array
        from repro.sim import SimClock
        from repro.storage import make_object_store
        from repro.workloads import smooth_image

        s3 = make_object_store("s3", clock=SimClock())
        if layout == "flat":
            engine, storage = make_engine(
                s3, htype="image", sample_compression="jpeg",
                max_chunk_size=1 << 20,
            )
            values = [smooth_image(rng, 24, 24) for _ in range(200)]
            model = [
                decompress_array(compress_array(v, "jpeg"), "jpeg")
                for v in values
            ]
        elif layout == "tiled":
            engine, storage = make_engine(
                s3, dtype="uint8", max_chunk_size=4096
            )
            values = [
                rng.integers(0, 255, (8, 8, 3), dtype=np.uint8),
                rng.integers(0, 255, (100, 100, 3), dtype=np.uint8),
                rng.integers(0, 255, (9, 9, 3), dtype=np.uint8),
            ]
            model = values
        elif layout == "sequence":
            engine, storage = make_engine(
                s3, htype="sequence[generic]", dtype="int32",
                max_chunk_size=256,
            )
            values = [
                [np.arange(i, i + 5, dtype=np.int32)] * (i % 4)
                for i in range(30)
            ]
            model = values
        else:
            engine, storage = make_engine(
                s3, dtype="float64", max_chunk_size=256
            )
            values = [np.full(3, float(i)) for i in range(20)]
            model = values + [np.zeros((0,))] * 5
        engine.extend(values)
        if layout == "padded":
            engine.pad_to(25)
        engine.flush()
        rows = list(range(engine.num_samples))
        raw_before = engine_rows(engine, rows, decode=False)

        cold = open_engine(storage, "t")
        n_chunks = len({name for name, _s, _e in cold.chunk_layout()})
        storage.stats.reset()
        single_puts = storage.requests_by_op.get("upload", 0)
        cold.rechunk()
        cold.flush()
        assert storage.stats.get_requests <= n_chunks + 2
        # the one single PUT is the head's manifest, which publishes them
        assert storage.requests_by_op.get("upload", 0) == single_puts + 1
        assert storage.stats.put_requests >= cold.enc.num_chunks  # batched

        after = open_engine(storage, "t")
        assert engine_rows(after, rows, decode=False) == raw_before
        for got, want in zip(engine_rows(after, rows, aslist=True), model):
            if isinstance(want, list):
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestTextJson:
    def test_text_tensor(self):
        engine, _ = make_engine(htype="text")
        engine.append("hello world")
        out = engine_row(engine, 0)
        assert bytes(out.tobytes()).decode() == "hello world"

    def test_json_tensor(self):
        engine, _ = make_engine(htype="json")
        engine.append({"a": [1, 2], "b": "x"})
        from repro.util.json_util import json_loads

        assert json_loads(bytes(engine_row(engine, 0).tobytes())) == {
            "a": [1, 2], "b": "x"
        }


def rewrite_head_state(storage, drop) -> None:
    """Rewrite the first commit's head manifest without the state files
    whose key *drop* accepts: a torn dataset."""
    key = K.head_manifest_key(K.FIRST_COMMIT_ID)
    state = unpack_manifest(storage[key], "")
    storage[key] = pack_manifest(
        {k: v for k, v in state.items() if not drop(k)}, ""
    )


class TestStateLoad:
    def _stored(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.arange(8, dtype=np.int64)] * 16)
        engine.flush()
        return storage

    def test_handed_state_means_no_storage_call(self):
        """An engine opens from the state its commit state already read."""
        storage = self._stored()
        state = CommitState(storage)
        storage.get_many = storage._get = None  # any call would raise
        engine = state.open_engines(["t"])[0]
        assert engine.num_samples == 16

    def test_missing_tensor_meta_is_a_format_error(self):
        storage = self._stored()
        rewrite_head_state(storage, lambda key: key.endswith(
            K.TENSOR_META_FILENAME))
        with pytest.raises(FormatError, match="has no metadata at commit"):
            open_engine(storage, "t")

    def test_chunk_no_chunk_set_places_is_a_format_error(self):
        """An encoder naming a chunk that no commit's chunk set owns is a
        torn dataset: say so, instead of guessing a key that then fails
        as a missing blob."""
        storage = self._stored()
        rewrite_head_state(storage, lambda key: key.endswith(
            K.CHUNK_SET_FILENAME))
        engine = open_engine(storage, "t")
        with pytest.raises(FormatError, match="chunk set of no commit") as err:
            engine_rows(engine, [0])
        assert not isinstance(err.value, KeyNotFound)
        assert "'t'" in str(err.value) and "firstcommit" in str(err.value)
