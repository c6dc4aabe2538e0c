"""ChunkEngine behaviour: chunking bounds, partial reads, tiling, updates,
sequences, sparse padding, rechunking, state loading, I/O accounting."""

import numpy as np
import pytest

import repro
from repro.core.chunk_engine import ChunkEngine
from repro.core.meta import TensorMeta
from repro.core.version_state import VersionState
from repro.exceptions import FormatError, KeyNotFound, SampleIndexError
from repro.storage import MemoryProvider
from repro.util import keys as K


def make_engine(storage=None, **meta_kwargs):
    if storage is None:  # NB: empty providers are falsy (len() == 0)
        storage = MemoryProvider()
    meta_kwargs.setdefault("htype", "generic")
    meta = TensorMeta(**meta_kwargs)
    vs = VersionState()
    return ChunkEngine("t", storage, vs, meta=meta), storage


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
        assert engine.read_sample(0).shape == clip.shape

    def test_flush_persists_and_reloads(self):
        storage = MemoryProvider()
        engine, _ = make_engine(storage, dtype="float32")
        engine.extend([np.ones((3, 3), dtype=np.float32) * i for i in range(5)])
        engine.flush()
        fresh = ChunkEngine("t", storage, VersionState())
        assert fresh.num_samples == 5
        assert np.array_equal(
            fresh.read_sample(4), np.ones((3, 3), dtype=np.float32) * 4
        )

    def test_ragged_shapes(self):
        engine, _ = make_engine(dtype="int32")
        engine.append(np.zeros((2, 5), dtype=np.int32))
        engine.append(np.zeros((9, 1), dtype=np.int32))
        assert engine.read_shape(0) == (2, 5)
        assert engine.read_shape(1) == (9, 1)
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
        fresh = ChunkEngine("t", storage, VersionState())
        storage.stats.reset()
        _ = fresh.read_sample(17)
        assert fresh.partial_reads == 1
        # header probe + sample range, both far below chunk size
        assert storage.stats.bytes_read < 30_000

    def test_prefer_full_caches_whole_chunk(self, rng):
        engine, storage = self.make_jpeg_engine(rng)
        fresh = ChunkEngine("t", storage, VersionState())
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
        fresh = ChunkEngine("t", storage, VersionState())
        _ = fresh.read_sample(10)
        assert fresh.partial_reads == 0

    def test_read_shape_via_header_only(self, rng):
        engine, storage = self.make_jpeg_engine(rng)
        fresh = ChunkEngine("t", storage, VersionState())
        storage.stats.reset()
        assert fresh.read_shape(5) == (40, 40, 3)
        assert storage.stats.bytes_read < 8192  # header probe only


class TestTiledSamples:
    def test_roundtrip_and_region(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        big = rng.integers(0, 255, (128, 96, 3), dtype=np.uint8)
        engine.append(big)
        assert engine.tile_enc.num_tiled == 1
        assert np.array_equal(engine.read_sample(0), big)
        region = engine.read_tiled_region(0, (slice(30, 60), slice(10, 20)))
        assert np.array_equal(region, big[30:60, 10:20])

    def test_tiled_between_normal_samples(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        small1 = rng.integers(0, 255, (10, 10, 3), dtype=np.uint8)
        big = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        small2 = rng.integers(0, 255, (12, 12, 3), dtype=np.uint8)
        engine.append(small1)
        engine.append(big)
        engine.append(small2)
        assert np.array_equal(engine.read_sample(0), small1)
        assert np.array_equal(engine.read_sample(1), big)
        assert np.array_equal(engine.read_sample(2), small2)

    def test_same_shape_update(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        big = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        engine.append(big)
        new = rng.integers(0, 255, (100, 100, 3), dtype=np.uint8)
        engine.update(0, new)
        assert np.array_equal(engine.read_sample(0), new)

    def test_shape_changing_tiled_update_rejected(self, rng):
        engine, _ = make_engine(dtype="uint8", max_chunk_size=4096)
        engine.append(rng.integers(0, 255, (100, 100, 3), dtype=np.uint8))
        with pytest.raises(FormatError):
            engine.update(0, rng.integers(0, 255, (50, 50, 3), dtype=np.uint8))


class TestUpdates:
    def test_update_same_chunk(self):
        engine, _ = make_engine(dtype="int64")
        engine.extend([np.array([i], dtype=np.int64) for i in range(10)])
        engine.update(4, np.array([99, 100], dtype=np.int64))
        assert np.array_equal(engine.read_sample(4), [99, 100])
        assert np.array_equal(engine.read_sample(5), [5])
        assert engine.commit_diff.updated == set()  # still in added range

    def test_update_out_of_range(self):
        engine, _ = make_engine(dtype="int64")
        engine.append(np.zeros(1, dtype=np.int64))
        with pytest.raises(SampleIndexError):
            engine.update(5, np.zeros(1, dtype=np.int64))

    def test_negative_index(self):
        engine, _ = make_engine(dtype="int64")
        engine.extend([np.array([i], dtype=np.int64) for i in range(4)])
        engine.update(-1, np.array([42], dtype=np.int64))
        assert engine.read_sample(3)[0] == 42
        assert np.array_equal(engine.read_sample(-1), [42])


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
            out = engine.read_sample(i, aslist=True)
            assert len(out) == len(seq)
            for a, b in zip(out, seq):
                assert np.array_equal(a, b)

    def test_sequence_stacks_uniform(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.zeros((2,), dtype=np.int32)] * 5)
        out = engine.read_sample(0)
        assert out.shape == (5, 2)

    def test_sequence_shape(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.zeros((3, 4), dtype=np.int32)] * 2)
        assert engine.read_shape(0) == (2, 3, 4)

    def test_sequence_update_unsupported(self, rng):
        engine, _ = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.zeros(1, dtype=np.int32)])
        with pytest.raises(FormatError):
            engine.update(0, [np.zeros(1, dtype=np.int32)])


class TestSparsePadding:
    def test_pad_then_read_empty(self):
        engine, _ = make_engine(dtype="float64")
        engine.append(np.ones((2, 2)))
        engine.pad_to(5)
        assert engine.num_samples == 5
        assert engine.read_sample(3).size == 0
        assert engine.pad_enc.num_padded == 4

    def test_update_unpads(self):
        engine, _ = make_engine(dtype="float64")
        engine.append(np.ones((2, 2)))
        engine.pad_to(4)
        engine.update(2, np.full((2, 2), 7.0))
        assert not engine.pad_enc.is_padded(2)
        assert engine.read_sample(2)[0, 0] == 7.0


class TestRechunk:
    def test_rechunk_preserves_data_and_tightens(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=2048)
        values = [np.arange(i % 40, dtype=np.int64) for i in range(120)]
        engine.extend(values)
        for i in range(0, 120, 11):
            values[i] = np.arange(60, dtype=np.int64)
            engine.update(i, values[i])
        before_chunks = engine.enc.num_chunks
        engine.rechunk()
        for i, v in enumerate(values):
            assert np.array_equal(engine.read_sample(i), v)
        assert engine.enc.num_samples == 120
        # old orphaned chunks removed from storage
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
        assert np.array_equal(engine.read_sample(1), big)
        assert engine.tile_enc.num_tiled == 1

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
        raw_before = engine.read_batch(rows, decode=False)

        cold = ChunkEngine("t", storage, VersionState())
        n_chunks = len({name for name, _s, _e in cold.chunk_layout()})
        storage.stats.reset()
        single_puts = storage.requests_by_op.get("upload", 0)
        cold.rechunk()
        assert storage.stats.get_requests <= n_chunks + 2
        assert storage.requests_by_op.get("upload", 0) == single_puts
        assert storage.stats.put_requests >= cold.enc.num_chunks  # batched

        after = ChunkEngine("t", storage, VersionState())
        assert after.read_batch(rows, decode=False) == raw_before
        for got, want in zip(after.read_batch(rows, aslist=True), model):
            if isinstance(want, list):
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestTextJson:
    def test_text_tensor(self):
        engine, _ = make_engine(htype="text")
        engine.append("hello world")
        out = engine.read_sample(0)
        assert bytes(out.tobytes()).decode() == "hello world"

    def test_json_tensor(self):
        engine, _ = make_engine(htype="json")
        engine.append({"a": [1, 2], "b": "x"})
        from repro.util.json_util import json_loads

        assert json_loads(bytes(engine.read_sample(0).tobytes())) == {
            "a": [1, 2], "b": "x"
        }


class TestStateLoad:
    def _stored(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.arange(8, dtype=np.int64)] * 16)
        engine.flush()
        return storage

    def test_a_bare_engine_fetches_its_state_in_one_batch(self):
        storage = self._stored()
        batches = []

        def get_many(keys, _get_many=storage.get_many):
            batches.append(list(keys))
            return _get_many(keys)

        storage.get_many = get_many
        storage.stats.reset()
        engine = ChunkEngine("t", storage, VersionState())
        assert batches == [K.state_keys([K.FIRST_COMMIT_ID], "t")]
        assert not storage.stats.latency_samples("get")  # no single read
        assert engine.num_samples == 16 and len(engine.chunk_set) > 1

    def test_handed_state_means_no_storage_call(self):
        storage = self._stored()
        blobs = storage.get_many(K.state_keys([K.FIRST_COMMIT_ID], "t"))
        storage.get_many = storage._get = None  # any call would raise
        engine = ChunkEngine("t", storage, VersionState(), state=blobs)
        assert engine.num_samples == 16

    def test_missing_tensor_meta_is_a_format_error(self):
        storage = self._stored()
        del storage[K.tensor_meta_key(K.FIRST_COMMIT_ID, "t")]
        with pytest.raises(FormatError, match="has no metadata at commit"):
            ChunkEngine("t", storage, VersionState())

    def test_chunk_no_chunk_set_places_is_a_format_error(self):
        """An encoder naming a chunk that no commit's chunk set owns is a
        torn dataset: say so, instead of guessing a key that then fails
        as a missing blob."""
        storage = self._stored()
        del storage[K.chunk_set_key(K.FIRST_COMMIT_ID, "t")]
        engine = ChunkEngine("t", storage, VersionState())
        with pytest.raises(FormatError, match="chunk set of no commit") as err:
            engine.read_batch([0])
        assert not isinstance(err.value, KeyNotFound)
        assert "'t'" in str(err.value) and "firstcommit" in str(err.value)
