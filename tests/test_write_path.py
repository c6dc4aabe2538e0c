"""Exception-safe, batched write path.

Covers the `set_many` contract across every storage provider, batch
charging on the simulated object store, the commit point (a batch of keys
nothing durable names, then the one PUT that publishes them), atomic
append/extend under mid-batch failures, the killed-mid-flush reload
guarantee (a failed flush, a failed ``rechunk``, every N-th write across
extend/commit/branch/merge, across ``delete_tensor`` and across
``rechunk`` + commit, and every torn batch), the write path's round-trip budget (a ``commit`` is a batch and
the tree, a flush writes only what changed), the one upload
buffer (finalized, updated and rechunked chunks; sealed chunks upload
under the next call's staging), where the write path's one thread pool
runs, and the streaming ingest-while-serving scenario.
"""

import itertools
import json
import threading
from collections import Counter

import numpy as np
import pytest

import repro
from repro.compression import get_codec
from repro.core import chunk as chunk_module
from repro.core.chunk_engine import _WATERMARK_CHUNKS
from repro.core.encoders import ChunkIdEncoder
from repro.exceptions import (
    ChunkCorruptedError,
    DynamicShapeError,
    FormatError,
    NetworkError,
    ReadOnlyStorageError,
    TensorDoesNotExistError,
)
from repro.ingest.connectors import JSONLSource, ingest_stream
from repro.serve import DatasetServer, clear_servers
from repro.sim import FlakyNetwork, NETWORK_PRESETS, SimClock
from repro.storage import (
    LocalProvider,
    LRUCache,
    MemoryProvider,
    SimulatedObjectStore,
    make_object_store,
)
from repro.util import keys as K
from repro.util.ids import seed_ids
from repro.util.json_util import json_dumps, json_loads
from repro.version_control.tree import unpack_manifest
from repro.workloads import smooth_image

from engine_reads import engine_row, engine_rows


@pytest.fixture(autouse=True)
def _no_leftover_servers():
    clear_servers()
    yield
    clear_servers()


class RecordingProvider(MemoryProvider):
    """Memory store that records every set_many batch's key list and
    every single-key write."""

    def __init__(self):
        super().__init__("recording")
        self.batches = []
        self.singles = []

    def set_many(self, items):
        self.batches.append(list(items))
        super().set_many(items)

    def _set(self, key, value):
        self.singles.append(key)
        super()._set(key, value)


class KillableProvider(MemoryProvider):
    """Memory store that 'dies' after a budget of writes (set_many batches
    and single-key PUTs)."""

    def __init__(self):
        super().__init__("killable")
        self.calls = 0
        self.kill_after = None  # allowed writes before the "kill"

    def _write(self):
        if self.kill_after is not None and self.calls >= self.kill_after:
            raise RuntimeError("simulated process kill mid-flush")
        self.calls += 1

    def _set(self, key, value):
        self._write()
        super()._set(key, value)

    def set_many(self, items):
        self._write()
        super().set_many(items)


class FailsNthWrite(MemoryProvider):
    """Memory store whose writes and deletes all fail from the
    ``fail_at``-th on — a process killed at that storage call."""

    def __init__(self):
        super().__init__("crash")
        self.writes = 0
        self.fail_at = None

    def _tick(self):
        self.writes += 1
        if self.fail_at is not None and self.writes >= self.fail_at:
            raise RuntimeError("killed")

    def _set(self, key, value):
        self._tick()
        super()._set(key, value)

    def _delete(self, key):
        self._tick()
        super()._delete(key)

    def set_many(self, items):
        self._tick()
        super().set_many(items)


def killed_at_every_write(setup, script):
    """Run *script* on ``setup()``'s ``(storage, ds)`` once per storage
    write it makes, the store dying at that write; yields ``(n, storage)``
    for each reload to inspect."""
    storage, ds = setup()
    start = storage.writes
    script(ds)
    total = storage.writes - start
    for n in range(1, total + 1):
        storage, ds = setup()
        storage.fail_at = storage.writes + n
        with pytest.raises(RuntimeError, match="killed"):
            script(ds)
        storage.fail_at = None
        yield n, storage


class TearsBatches(FailsNthWrite):
    """A store that *tears* a batch: its fatal write, when a ``set_many``,
    installs the items at positions ``tear`` of the batch and then dies."""

    def __init__(self):
        super().__init__()
        self.tear = ()
        self.fatal = 0  # size of the batch it died in

    def set_many(self, items):
        try:
            self._tick()
        except RuntimeError:
            keys = list(items)
            self.fatal = len(keys)
            MemoryProvider.set_many(
                self, {keys[i]: items[keys[i]] for i in self.tear}
            )
            raise
        MemoryProvider.set_many(self, items)


def torn_subsets(size, rng):
    """What a torn batch of *size* keys may install, beyond nothing, as
    positions: every subset of a batch of up to 8 keys; every prefix of a
    larger one, plus a seeded sample of its subsets."""
    if size <= 8:
        return [[i for i in range(size) if mask >> i & 1]
                for mask in range(1, 1 << size)]
    return [list(range(i)) for i in range(1, size + 1)] + [
        [i for i in range(size) if rng.random() < 0.5] for _ in range(8)
    ]


def torn_at_every_write(setup, script, seed=0):
    """:func:`killed_at_every_write` over a :class:`TearsBatches` store,
    then — where the fatal write is a batch — once more per subset of it
    the store installs before dying; yields ``(n, storage)``."""
    rng = np.random.default_rng(seed)
    for n, storage in killed_at_every_write(setup, script):
        yield n, storage
        for subset in torn_subsets(storage.fatal, rng):
            storage, ds = setup()
            storage.fail_at = storage.writes + n
            storage.tear = subset
            with pytest.raises(RuntimeError, match="killed"):
                script(ds)
            storage.fail_at = None
            yield n, storage


class Boom:
    """A sample whose serialization always fails."""

    def __array__(self, dtype=None):
        raise ValueError("boom")


class PerKeyPutStore(SimulatedObjectStore):
    """The serial-write yardstick: the same simulated S3 store with
    ``set_many`` issuing one PUT per key."""

    def set_many(self, items):
        for key, value in items.items():
            self[key] = value


def record_writes(store):
    """Record every write reaching *store* (a SimulatedObjectStore):
    -> (times each key was written, keys written by single PUTs,
    key lists of the ``set_many`` batches)."""
    writes, singles, batches = Counter(), [], []
    backing_set, single_set, set_many = (
        store.backing._set, store._set, store.set_many
    )

    def counting_backing_set(key, value):
        writes[key] += 1
        backing_set(key, value)

    def recording_set(key, value):
        singles.append(key)
        single_set(key, value)

    def recording_set_many(items):
        batches.append(list(items))
        set_many(items)

    store.backing._set = counting_backing_set
    store._set = recording_set
    store.set_many = recording_set_many
    return writes, singles, batches


def is_chunk(key):
    return f"/{K.CHUNKS_FOLDER}/" in key


# --------------------------------------------------------------------------- #
# set_many contract (satellite: every provider honors the same semantics)
# --------------------------------------------------------------------------- #


@pytest.fixture(params=["memory", "local", "s3", "lru_wt", "lru_wb", "remote"])
def any_provider(request, tmp_path):
    if request.param == "memory":
        yield MemoryProvider()
    elif request.param == "local":
        yield LocalProvider(str(tmp_path / "store"))
    elif request.param == "s3":
        yield make_object_store("s3", clock=SimClock())
    elif request.param in ("lru_wt", "lru_wb"):
        yield LRUCache(
            MemoryProvider("cache"), MemoryProvider("next"), 10**6,
            write_through=(request.param == "lru_wt"),
        )
    else:
        server = DatasetServer(name="setmany-server")
        server.add_dataset("ds", MemoryProvider("backend"))
        with server:
            yield server.connect("ds")


class TestSetManyContract:
    def test_roundtrip(self, any_provider):
        items = {"a/chunks/x": b"AAA", "b/meta.json": b"BB", "c": b"C"}
        any_provider.set_many(items)
        for key, value in items.items():
            assert any_provider[key] == value

    def test_empty_batch_is_noop(self, any_provider):
        any_provider.set_many({})

    def test_overwrites_existing(self, any_provider):
        any_provider["k"] = b"old"
        any_provider.set_many({"k": b"new"})
        assert any_provider["k"] == b"new"

    def test_read_only_raises(self, any_provider):
        any_provider.read_only = True
        try:
            with pytest.raises(ReadOnlyStorageError):
                any_provider.set_many({"k": b"v"})
        finally:
            any_provider.read_only = False

    def test_put_accounting(self, any_provider):
        before = any_provider.stats.put_requests
        any_provider.set_many({"a": b"12345", "b": b"67890"})
        assert any_provider.stats.put_requests == before + 2


# --------------------------------------------------------------------------- #
# simulated object store: batch charging, retries, atomic failure
# --------------------------------------------------------------------------- #


class TestObjectStoreBatching:
    def test_one_request_per_batch(self):
        store = make_object_store("s3", clock=SimClock())
        store.set_many({f"k{i}": b"x" * 100 for i in range(32)})
        assert store.requests_by_op["upload_batch"] == 1
        assert store.requests_by_op.get("upload") is None

    def test_batch_cheaper_than_individual_puts(self):
        blobs = {f"k{i}": b"x" * 1000 for i in range(20)}
        serial = make_object_store("s3", clock=SimClock())
        for key, value in blobs.items():
            serial[key] = value
        batched = make_object_store("s3", clock=SimClock())
        batched.set_many(blobs)
        assert batched.clock.now() < serial.clock.now() / 2

    def test_individual_put_accounting_parity(self):
        store = make_object_store("s3", clock=SimClock())
        store["k"] = b"payload"
        assert store.requests_by_op["upload"] == 1
        assert store.stats.put_requests == 1

    def test_failed_batch_installs_nothing(self):
        flaky = FlakyNetwork(NETWORK_PRESETS["s3"], failure_rate=1.0, seed=0)
        store = SimulatedObjectStore(
            "s3", network=flaky, clock=SimClock(), max_retries=2
        )
        with pytest.raises(NetworkError):
            store.set_many({"a": b"1", "b": b"2"})
        assert store.backing._all_keys() == set()
        assert "upload_batch" not in store.requests_by_op

    def test_transient_failures_retried_then_batch_lands(self):
        flaky = FlakyNetwork(
            NETWORK_PRESETS["s3"], failure_rate=1.0, seed=0, max_consecutive=2
        )
        store = SimulatedObjectStore("s3", network=flaky, clock=SimClock())
        store.set_many({"a": b"1", "b": b"2"})
        assert store.retries_performed == 2
        assert store["a"] == b"1" and store["b"] == b"2"
        assert store.requests_by_op["upload_batch"] == 1


# --------------------------------------------------------------------------- #
# the commit point: a batch of what nothing durable names, then the one
# single-key PUT that publishes it
# --------------------------------------------------------------------------- #


class TestFlushOrdering:
    def test_chunk_set_goes_down_with_the_encoders(self):
        """A reader places each chunk the encoder names through the chunk
        set, so no flush may publish the encoder without it: both ride
        the head's one manifest, after a batch of chunks only."""
        storage = RecordingProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.extend([np.arange(4, dtype=np.int64)] * 3)
        storage.batches.clear()
        storage.singles.clear()
        ds.flush()
        assert all(is_chunk(key) for batch in storage.batches for key in batch)
        manifest = K.head_manifest_key(ds.commit_id)
        assert storage.singles == [manifest]
        state = unpack_manifest(storage[manifest], "")
        assert {"x/chunk_set.json", "x/chunk_id_encoder"} <= set(state)

    def test_writeback_flush_orders_by_class(self):
        """A write-back cache keeps the commit point downstream: two
        classes of write — the keys that arrived in batches go down as ONE
        batch, then the single-key writes that publish them (a manifest,
        the version tree), in the order they were made."""
        nxt = RecordingProvider()
        cache = LRUCache(MemoryProvider(), nxt, 10**6, write_through=False)
        cache.set_many({"zz/chunks/c1": b"chunk", "aa/chunks/c2": b"chunk"})
        cache["head_manifest"] = b"manifest"
        cache[K.version_control_info_key()] = b"tree"
        cache.set_many({"zz/chunks/c3": b"chunk"})
        cache.flush()
        assert [sorted(batch) for batch in nxt.batches] == [
            ["aa/chunks/c2", "zz/chunks/c1", "zz/chunks/c3"]
        ]
        assert nxt.singles == ["head_manifest", K.version_control_info_key()]

    def test_crash_between_classes_leaves_only_chunks(self):
        class DiesOnSinglePut(MemoryProvider):
            def _set(self, key, value):
                raise RuntimeError("killed")

        nxt = DiesOnSinglePut("dies")
        cache = LRUCache(MemoryProvider(), nxt, 10**6, write_through=False)
        cache.set_many({"t/chunks/c1": b"chunk"})
        cache["head_manifest"] = b"manifest"
        with pytest.raises(RuntimeError):
            cache.flush()
        # the chunk blob is durable, the manifest that references it
        # never made it -- no dangling references downstream
        assert nxt._all_keys() == {"t/chunks/c1"}


# --------------------------------------------------------------------------- #
# atomic append/extend (the bugfix: no torn state on mid-batch failure)
# --------------------------------------------------------------------------- #


def _snapshot(ds, name):
    engine = ds._engine(name)
    links = engine.meta.links
    state = {"rows": engine.num_samples}
    for link_name in links.values():
        state[link_name] = ds._engine(link_name).num_samples
    return state


class TestAtomicExtend:
    def test_stage_failure_leaves_dataset_untouched(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="float32")
        ds.x.extend([np.ones((4, 4), dtype=np.float32)] * 3)
        before = _snapshot(ds, "x")
        with pytest.raises(Exception):
            ds.x.extend([np.zeros((4, 4), dtype=np.float32), Boom()])
        assert _snapshot(ds, "x") == before
        assert np.array_equal(ds.x[2].numpy(), np.ones((4, 4)))

    def test_commit_failure_rolls_back_whole_batch(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.append(np.arange(4).reshape(2, 2))
        before = _snapshot(ds, "x")
        good = np.full((2, 2), 7, dtype=np.int64)
        bad_rank = np.zeros((2, 2, 2), dtype=np.int64)
        with pytest.raises(FormatError):
            ds.x.extend([good, bad_rank])
        # the good sample committed before the bad one must be rolled
        # back too -- extend is all-or-nothing per tensor
        assert _snapshot(ds, "x") == before
        assert np.array_equal(ds.x[0].numpy(), np.arange(4).reshape(2, 2))
        # engine state is coherent: writes keep working afterwards
        ds.x.extend([good, good])
        assert ds.x.num_samples == 3
        assert np.array_equal(ds.x[2].numpy(), good)

    def test_rollback_consistent_after_reload(self):
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64", max_chunk_size=1024)
        rows = [np.arange(64, dtype=np.int64).reshape(8, 8)] * 6
        ds.x.extend(rows)
        with pytest.raises(FormatError):
            ds.x.extend([rows[0], np.zeros((2, 2, 2), dtype=np.int64)])
        ds.flush()
        ds2 = repro.load(storage)
        assert ds2.x.num_samples == 6
        for i in range(6):
            assert np.array_equal(ds2.x[i].numpy(), rows[i])

    def test_encode_pool_failure_leaves_engine_and_storage_identical(
        self, rng
    ):
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("img", htype="image", sample_compression="jpeg")
        images = [smooth_image(rng, 24, 24, 3) for _ in range(8)]
        ds.img.extend(images)
        ds.flush()
        engine = ds._engine("img")

        def state():
            return (_snapshot(ds, "img"), engine._encoder_items(),
                    engine._meta_items(), engine._dirty,
                    {k: storage[k] for k in storage._all_keys()})

        before = state()
        with pytest.raises(ValueError, match="boom"):
            # past the 4-item gate, so Boom is serialized on a pool worker
            ds.img.extend(images[:5] + [Boom()] + images[5:])
        assert state() == before
        ds.img.extend(images)
        assert ds.img.num_samples == 16

    def test_sequence_extend_atomic(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("seq", htype="sequence[generic]", dtype="int64")
        ds.seq.extend([[np.arange(3), np.arange(3)]])
        before = _snapshot(ds, "seq")
        with pytest.raises(Exception):
            ds.seq.extend([[np.arange(3), Boom()]])
        assert _snapshot(ds, "seq") == before
        ds.seq.extend([[np.arange(3)] * 3])
        assert ds.seq.num_samples == 2

    def test_dataset_extend_cross_tensor_stage_atomicity(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("a", dtype="int64")
        ds.create_tensor("b", dtype="int64")
        ds.extend({"a": [np.int64(1)], "b": [np.int64(2)]})
        with pytest.raises(Exception):
            # 'b' has the bad sample; 'a' stages fine but must not commit
            ds.extend({"a": [np.int64(3)], "b": [Boom()]})
        assert ds.a.num_samples == 1
        assert ds.b.num_samples == 1

    def test_dataset_extend_validation(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("a", dtype="int64")
        ds.create_tensor("b", dtype="int64")
        with pytest.raises(FormatError):
            ds.extend({"a": [np.int64(1)], "b": [np.int64(1), np.int64(2)]})
        with pytest.raises(TensorDoesNotExistError):
            ds.extend({"nope": [np.int64(1)]})
        with pytest.raises(FormatError):
            ds.extend({"a": [np.int64(1)]})
        ds.extend({"a": [np.int64(1)]}, append_empty=True)
        assert ds.a.num_samples == 1
        assert ds.b.num_samples == 1

    def test_extend_matches_append_loop(self, rng):
        rows = [
            rng.integers(0, 255, (8, 8), dtype=np.uint8) for _ in range(12)
        ]
        ds_a = repro.empty(MemoryProvider(), overwrite=True)
        ds_a.create_tensor("x", dtype="uint8", max_chunk_size=1024)
        for row in rows:
            ds_a.x.append(row)
        ds_b = repro.empty(MemoryProvider(), overwrite=True)
        ds_b.create_tensor("x", dtype="uint8", max_chunk_size=1024)
        ds_b.x.extend(rows)
        assert ds_b.x.num_samples == len(rows)
        for i in range(len(rows)):
            assert np.array_equal(ds_a.x[i].numpy(), ds_b.x[i].numpy())
        # companions advanced in lockstep
        eng = ds_b._engine("x")
        for link_name in eng.meta.links.values():
            assert ds_b._engine(link_name).num_samples == len(rows)


    # 32-byte rows in 200-byte chunks, the first 5 already written: a
    # wrong-rank row that opens a chunk (rows 0 and 7) fails the tensor's
    # shape interval, one that joins a chunk fails the chunk's rank
    @pytest.mark.parametrize("bad, at, error", [
        *[(np.zeros((2, 2, 2)), at, error) for at, error in (
            (0, DynamicShapeError), (3, ChunkCorruptedError),
            (7, DynamicShapeError))],
        *[(np.zeros((2, 2), dtype=np.complex128), at, FormatError)
          for at in (0, 3, 7)],  # wrong dtype kind
        *[("text", at, FormatError) for at in (0, 3, 7)],
    ])
    def test_bad_row_at_any_position_leaves_everything(self, bad, at, error):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="float64", max_chunk_size=200)
        ds.x.extend(np.ones((5, 2, 2)))
        engine = ds._engine("x")
        companions = [ds._engine(n) for n in engine.meta.links.values()]

        def state():
            # a failed batch may leave a surviving chunk's stats widened
            # (a superset range never mis-prunes): compare which chunks
            # have stats, not their ranges
            return [(e.num_samples, e.chunk_layout(), e._encoder_items(),
                     e.meta.to_json(), sorted(e.chunk_stats))
                    for e in [engine, *companions]]

        before = state()
        rows = [np.full((2, 2), float(i)) for i in range(8)]
        rows[at] = bad
        with pytest.raises(error) as raised:
            ds.x.extend(rows)
        assert type(raised.value) is error
        assert state() == before
        ds.x.extend(rows[:at] + rows[at + 1:])
        assert len(ds.x) == 12


# --------------------------------------------------------------------------- #
# a dense column is one write: extend == N appends, byte for byte
# --------------------------------------------------------------------------- #


def _column(rng, dtype, cell, n):
    dt = np.dtype(dtype)
    if dt.kind == "b":
        return rng.random((n, *cell)) < 0.5
    if dt.kind == "f":
        col = rng.normal(size=(n, *cell)).astype(dt)
        # whole-NaN rows: first, last, every 7th (the first of a chunk
        # at the sizes below) and some between; partly NaN cells too
        for i in [0, n - 1, *range(7, n, 7), *range(3, n, 5)]:
            col[i] = np.nan
        if cell:
            col[2::4, 0] = np.nan
        return col
    info = np.iinfo(dt)
    return rng.integers(info.min, info.max, size=(n, *cell), dtype=dt,
                        endpoint=True)


def _written(ds, name):
    """Everything the engine of *name* persists, each chunk named by its
    place in the layout (chunk names are random)."""
    ds.flush()
    engine = ds._engine(name)
    layout = engine.chunk_layout()
    place = {}
    for chunk, _start, _end in layout:
        place.setdefault(chunk, len(place))
    return {
        "layout": [(place[c], start, end) for c, start, end in layout],
        "blobs": [ds.storage[engine._chunk_storage_key(c)] for c in place],
        "tiles": engine.tile_enc._layouts,
        "stats": {place[c]: v for c, v in engine.chunk_stats.items()},
        "length": engine.meta.length,
        "shape_interval": engine.meta.shape_interval.to_json(),
        "dtype": engine.meta.dtype,
    }


class TestColumnWrite:
    """One ``extend`` of N rows writes what N ``append`` calls write: the
    same chunks (boundaries and bytes), encoders, stats, meta — for the
    tensor and its shape companion."""

    @pytest.mark.parametrize("dtype", [
        "bool", "int8", "int64", "uint64", "float32", "float64",
    ])
    @pytest.mark.parametrize("cell", [(), (3,), (4, 4)])
    def test_extend_equals_append_loop(self, dtype, cell):
        rng = np.random.default_rng(7)
        nbytes = np.dtype(dtype).itemsize * int(np.prod(cell, dtype=int))
        sizes = [7 * nbytes + 3]  # splits every batch inside
        if cell:
            sizes.append(max(1, nbytes // 3))  # every row tiled
        for max_size in sizes:
            for cc in (None, "lz4"):
                for resume in ("fresh", "reload", "commit"):
                    first = _column(rng, dtype, cell, 10)
                    rows = _column(rng, dtype, cell, 30)
                    written = []
                    for how in ("extend", "append"):
                        store = MemoryProvider()
                        ds = repro.empty(store, overwrite=True)
                        ds.create_tensor("x", dtype=dtype,
                                         max_chunk_size=max_size,
                                         chunk_compression=cc)
                        if resume != "fresh":
                            ds.x.extend(list(first))
                            ds.flush()
                            if resume == "reload":
                                ds = repro.load(store)
                            else:
                                ds.commit("first")
                        if how == "extend":
                            ds.x.extend(list(rows))
                        else:
                            for row in rows:
                                ds.x.append(row)
                        shape = ds._engine("x").meta.links["shape"]
                        written.append((_written(ds, "x"),
                                        _written(ds, shape)))
                        got = np.stack(ds.x.numpy(aslist=True))
                        want = rows if resume == "fresh" else np.concatenate(
                            [first, rows])
                        assert got.tobytes() == want.tobytes()
                    case = (max_size, cc, resume)
                    assert written[0] == written[1], case

    def test_signed_zeros_and_nans_keep_append_stats(self):
        # ties keep the first value seen, as N appends do: compare reprs,
        # since -0.0 == 0.0
        rows = np.array([np.nan, -0.0, 0.0, np.nan, 0.0, -0.0, np.nan])
        stats = []
        for how in ("extend", "append"):
            ds = repro.empty(MemoryProvider(), overwrite=True)
            ds.create_tensor("x", dtype="float64", max_chunk_size=24)
            if how == "extend":
                ds.x.extend(rows)
            else:
                for row in rows:
                    ds.x.append(row)
            stats.append(repr(_written(ds, "x")["stats"]))
        assert stats[0] == stats[1]

    def test_ndarray_column_equals_list_of_rows(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=(50, 4)).astype(np.float32)
        written = []
        for values in (col, list(col)):
            ds = repro.empty(MemoryProvider(), overwrite=True)
            ds.create_tensor("x", max_chunk_size=100)
            ds.extend({"x": values})
            written.append(_written(ds, "x"))
        assert written[0] == written[1]

    def test_ragged_batch_commits_by_chunk_runs(self):
        rows = [np.arange(n, dtype=np.int32) for n in (3, 9, 1, 0, 20, 4)]
        written = []
        for how in ("extend", "append"):
            ds = repro.empty(MemoryProvider(), overwrite=True)
            ds.create_tensor("x", max_chunk_size=40)
            if how == "extend":
                ds.x.extend(rows)
            else:
                for row in rows:
                    ds.x.append(row)
            written.append(_written(ds, "x"))
        assert written[0] == written[1]
        assert len(written[0]["tiles"]) == 1  # the 80-byte row

    def test_sequence_rows_commit_by_chunk_runs(self):
        rows = [[np.arange(k, dtype=np.int64) for k in (2, 5)], [],
                [np.arange(3, dtype=np.int64)] * 4, [np.zeros(9, np.int64)]]
        written = []
        for how in ("extend", "append"):
            ds = repro.empty(MemoryProvider(), overwrite=True)
            ds.create_tensor("s", htype="sequence[generic]", dtype="int64",
                             max_chunk_size=48)
            if how == "extend":
                ds.s.extend(rows)
            else:
                for row in rows:
                    ds.s.append(row)
            engine = ds._engine("s")
            written.append((_written(ds, "s"), engine.seq_enc._cum))
        assert written[0] == written[1]
        assert written[0][1] == [2, 2, 6, 7]


# --------------------------------------------------------------------------- #
# killed mid-flush: storage reloads to a consistent committed version
# --------------------------------------------------------------------------- #


class TestKilledMidFlush:
    def test_reload_never_references_missing_chunks(self, rng):
        storage = KillableProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor(
            "x", dtype="uint8", max_chunk_size=2048,
            create_shape_tensor=False, create_id_tensor=False,
        )
        first = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8) for _ in range(8)
        ]
        ds.x.extend(first)
        ds.flush()
        committed_keys = set(storage._all_keys())

        ds.x.extend(
            [rng.integers(0, 255, (16, 16), dtype=np.uint8)
             for _ in range(8)]
        )
        # allow exactly one more write (the chunk batch), then "die"
        # before the manifest that publishes it lands
        storage.kill_after = storage.calls + 1
        with pytest.raises(RuntimeError):
            ds.flush()
        storage.kill_after = None

        new_keys = set(storage._all_keys()) - committed_keys
        assert new_keys, "the chunk batch should have landed before the kill"
        assert all(is_chunk(k) for k in new_keys)

        ds2 = repro.load(storage)
        assert ds2.x.num_samples == len(first)
        for i, row in enumerate(first):
            assert np.array_equal(ds2.x[i].numpy(), row)
        # every chunk the reloaded encoder references exists in storage
        eng = ds2._engine("x")
        for row in range(eng.num_samples):
            engine_row(eng, row)


    @pytest.mark.parametrize(
        "layout", ["flat", "tiled", "sequence", "padded"]
    )
    def test_failed_rechunk_flush_leaves_storage_loadable(self, rng, layout):
        """``rechunk()`` whose chunk batch fails must not have deleted the
        chunks the encoders in storage still name."""
        storage = KillableProvider()
        ds = repro.empty(storage, overwrite=True, strict=False)
        if layout == "sequence":
            ds.create_tensor("x", htype="sequence[generic]", dtype="uint8",
                             max_chunk_size=512)
            model = [
                [rng.integers(0, 255, (10, 10), dtype=np.uint8)
                 for _ in range(1 + i % 3)]
                for i in range(20)
            ]
        else:
            ds.create_tensor("x", dtype="uint8", max_chunk_size=512)
            model = [
                rng.integers(0, 255, (10, 10), dtype=np.uint8)
                for _ in range(40)
            ]
            if layout == "tiled":
                model[7] = rng.integers(0, 255, (40, 40), dtype=np.uint8)
        ds.x.extend(model)
        if layout == "padded":
            ds.x[44] = model[0]
            model += [np.zeros((0, 0), dtype=np.uint8)] * 4 + [model[0]]
        ds.flush()
        assert ds._engine("x").enc.num_chunks >= 8

        storage.kill_after = storage.calls  # the next set_many: the chunks
        with pytest.raises(RuntimeError):
            ds.x.rechunk()
        storage.kill_after = None

        engine = repro.load(storage)._engine("x")
        got = engine_rows(engine, range(len(model)), aslist=True)
        for have, want in zip(got, model):
            if layout == "sequence":
                assert len(have) == len(want)
                assert all(map(np.array_equal, have, want))
            else:
                assert np.array_equal(have, want)

    @pytest.mark.parametrize("crash", ["killed", "torn"])
    def test_a_rechunk_and_commit_killed_at_any_write_reads_the_model(
        self, crash
    ):
        """``ds.rechunk(); ds.commit()`` over a fragmented layout — flat
        rows, a tiled row, padding and updates in three tensors, one of
        them a sequence — killed at every write (the rechunk's chunk batch
        and manifest, the commit's batch and tree, each delete of a
        replaced key) and, for ``torn``, with every subset of a batch
        installed: each reload opens and reads every row as the model
        has it."""
        rng = np.random.default_rng(11)
        images = [rng.integers(0, 255, (10, 10), dtype=np.uint8)
                  for _ in range(20)]
        images[7] = rng.integers(0, 255, (40, 40), dtype=np.uint8)  # tiled
        labels = [np.int64(i) for i in range(20)]
        seqs = [[np.full(6, i, dtype=np.int32)] * (i % 3) for i in range(20)]
        updated = (0, 5, 7, 19)
        new = {i: rng.integers(0, 255, images[i].shape, dtype=np.uint8)
               for i in updated}
        model = {
            "a": [new.get(i, row) for i, row in enumerate(images)]
            + [np.zeros((0, 0), dtype=np.uint8)] * 4 + [images[0]],
            "b": [np.int64(-i) if i in new else v
                  for i, v in enumerate(labels)],
            "s": seqs,
        }

        def setup():
            storage = TearsBatches() if crash == "torn" else FailsNthWrite()
            ds = repro.empty(storage, overwrite=True, strict=False)
            ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64", max_chunk_size=64)
            ds.create_tensor("s", htype="sequence[generic]", dtype="int32",
                             max_chunk_size=64)
            for start in (0, 10):  # two batches, each sealed by a flush
                ds.extend({name: rows[start:start + 10]
                           for name, rows in (("a", images), ("b", labels),
                                              ("s", seqs))})
                ds.flush()
            ds.a[24] = images[0]  # pads rows 20..23
            for i in updated:
                ds.a[i], ds.b[i] = new[i], np.int64(-i)
            ds.flush()
            return storage, ds

        def script(ds):
            ds.rechunk()
            ds.commit("rechunked")

        walk = torn_at_every_write if crash == "torn" else (
            killed_at_every_write
        )
        runs = 0
        for n, storage in walk(setup, script):
            runs += 1
            loaded = repro.load(storage)
            for name, rows in model.items():
                got = loaded[name].numpy(aslist=True)
                assert len(got) == len(rows), (n, name)
                for have, want in zip(got, rows):
                    if name == "s":
                        assert len(have) == len(want), n
                        assert all(map(np.array_equal, have, want)), n
                    else:
                        assert np.array_equal(have, want), (n, name)
        assert runs > 6  # the batches, the publishing PUTs and deletes

    def test_any_failed_write_reloads_to_a_prefix_of_the_commits(self, rng):
        """A store that fails its N-th write, for every N across
        ``extend -> commit -> extend -> commit``: a reload always sees a
        log that is a prefix of the commits made, every commit in it
        complete, and no reference to a missing chunk."""

        class FailsNthWrite(MemoryProvider):
            def __init__(self):
                super().__init__("crash")
                self.writes = 0
                self.fail_at = None

            def _tick(self):
                self.writes += 1
                if self.fail_at is not None and self.writes >= self.fail_at:
                    raise RuntimeError("killed")

            def _set(self, key, value):
                self._tick()
                super()._set(key, value)

            def set_many(self, items):
                self._tick()
                super().set_many(items)

        images = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8) for _ in range(40)
        ]
        labels = [np.int64(i) for i in range(40)]
        commits = {"one": 20, "two": 40}  # message -> rows it seals
        late = {"c", "_c_shape", "_c_id"}  # created after commit "one"

        def setup():
            storage = FailsNthWrite()
            ds = repro.empty(storage, overwrite=True)
            # two rows a chunk: each extend crosses the upload watermark
            ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64")
            ds.flush()
            return storage, ds

        def script(ds):
            ds.extend({"a": images[:20], "b": labels[:20]})
            ds.commit("one")
            ds.create_tensor("c", dtype="int64")
            ds.extend(
                {"a": images[20:], "b": labels[20:], "c": labels[20:]}
            )
            ds.commit("two")

        def check(ds, rows):
            # every tensor the dataset meta names, companions included,
            # opens, has the rows and can read them all: nothing names a
            # tensor or a chunk that is not there
            for name in ds._all_tensor_names():
                want = max(0, rows - 20) if name in late else rows
                assert ds._engine(name).num_samples == want, name
            got = ds.read_rows(range(rows), tensors=["a", "b"])
            assert all(map(np.array_equal, got["a"], images))
            assert [int(v) for v in got["b"]] == list(range(rows))

        storage, ds = setup()
        start = storage.writes
        script(ds)
        total = storage.writes - start
        assert total >= 5  # a batch and a publishing PUT per flush/commit
        for n in range(1, total + 1):
            storage, ds = setup()
            storage.fail_at = storage.writes + n
            with pytest.raises(RuntimeError):
                script(ds)
            storage.fail_at = None
            loaded = repro.load(storage)
            log = [c.message for c in reversed(loaded.log())]
            assert log == list(commits)[:len(log)], (n, log)
            for commit in loaded.log():
                check(loaded._at_commit(commit.commit_id),
                      commits[commit.message])
            head_rows = loaded._engine("a").num_samples
            assert head_rows in (0, 20, 40), (n, head_rows)
            assert head_rows >= (commits[log[-1]] if log else 0)
            check(loaded, head_rows)


    def test_any_failed_write_across_branch_and_merge_reloads_to_a_prefix(
        self, rng
    ):
        """The same enumeration over a script that ends ``checkout("dev",
        create=True) -> extend -> commit -> checkout("main") ->
        merge("dev")``: on either branch a reload sees a prefix of the
        commits made there, every commit in it complete, and no reference
        to a missing chunk."""
        images = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8) for _ in range(40)
        ]
        labels = [np.int64(i) for i in range(40)]
        auto = "auto commit before creating branch 'dev'"
        merged = "merge 'dev' into 'main'"
        commits = {"one": 20, auto: 20, "two": 40, merged: 40}
        logs = {"main": ["one", auto, merged], "dev": ["one", auto, "two"]}

        def setup():
            storage = FailsNthWrite()
            ds = repro.empty(storage, overwrite=True)
            # two rows a chunk: each extend crosses the upload watermark
            ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64")
            ds.flush()
            return storage, ds

        def script(ds):
            ds.extend({"a": images[:20], "b": labels[:20]})
            ds.commit("one")
            ds.checkout("dev", create=True)
            ds.extend({"a": images[20:], "b": labels[20:]})
            ds.commit("two")
            ds.checkout("main")
            ds.merge("dev")

        def check(ds, rows):
            for name in ds._all_tensor_names():
                assert ds._engine(name).num_samples == rows, name
            got = ds.read_rows(range(rows), tensors=["a", "b"])
            assert all(map(np.array_equal, got["a"], images))
            assert [int(v) for v in got["b"]] == list(range(rows))

        seen = set()
        for n, storage in killed_at_every_write(setup, script):
            tree = repro.load(storage)._tree
            for branch, head in tree.branches.items():
                loaded = repro.load(storage)._at_commit(head)
                log = [c.message for c in reversed(loaded.log())]
                assert log == logs[branch][:len(log)], (n, branch, log)
                for commit in loaded.log():
                    check(loaded._at_commit(commit.commit_id),
                          commits[commit.message])
                    if commit.message == merged:
                        assert commit.merge_parent is not None, n
                head_rows = loaded._engine("a").num_samples
                assert head_rows in (0, 20, 40), (n, branch, head_rows)
                assert head_rows >= (commits[log[-1]] if log else 0)
                check(loaded, head_rows)
                seen.add((branch, tuple(log)))
        # the kills landed on both sides of every commit but the merge,
        # which is durable only with the script's last write
        assert {len(log) for branch, log in seen if branch == "main"} == {
            0, 1, 2
        }
        assert ("dev", ("one", auto, "two")) in seen

    def test_a_merge_commit_is_never_durable_without_its_merge_parent(self):
        """A store that fails its N-th write, for every N across a
        ``merge``: a reload either lacks the merge commit or has it with
        ``merge_parent`` set — the tree is written once, not once without
        it and once with."""
        rows = [np.arange(4, dtype=np.int64)] * 6
        dev = []

        def setup():
            storage = FailsNthWrite()
            ds = repro.empty(storage, overwrite=True)
            ds.create_tensor("x", dtype="int64")
            ds.x.extend(rows)
            ds.commit("base")
            ds.checkout("dev", create=True)
            ds.x.extend(rows)
            dev[:] = [ds.commit("dev work")]
            ds.checkout("main")
            return storage, ds

        outcomes = set()
        for n, storage in killed_at_every_write(
            setup, lambda ds: ds.merge("dev")
        ):
            merges = [c for c in repro.load(storage).log()
                      if c.message.startswith("merge")]
            assert [c.merge_parent for c in merges] in ([], dev), n
            outcomes.add(len(merges))
        assert outcomes == {0}  # durable only with the last write, the tree
        storage, ds = setup()
        merged = ds.merge("dev")
        assert repro.load(storage)._tree.node(merged).merge_parent == dev[0]

    def test_delete_tensor_killed_at_any_write_leaves_a_dataset_that_opens(
        self,
    ):
        """``delete_tensor`` stops naming the tensor before it deletes its
        keys: killed after any write or delete, a reload opens, ``len()``
        works and every tensor it names has the dataset's rows."""
        rows = [np.arange(4, dtype=np.int64)] * 5

        def setup():
            storage = FailsNthWrite()
            ds = repro.empty(storage, overwrite=True)
            ds.create_tensor("a", dtype="int64")
            ds.create_tensor("b", dtype="int64")
            ds.extend({"a": rows, "b": rows})
            ds.flush()
            return storage, ds

        named = set()
        for n, storage in killed_at_every_write(
            setup, lambda ds: ds.delete_tensor("b")
        ):
            loaded = repro.load(storage)
            assert len(loaded) == 5, n
            for name in loaded._all_tensor_names():
                assert loaded._engine(name).num_samples == 5, (n, name)
            named.add(tuple(sorted(loaded.tensors)))
        assert named == {("a", "b"), ("a",)}  # killed before and after

    def test_crash_right_after_create_tensor_leaves_an_appendable_dataset(
        self,
    ):
        """``create_tensor`` makes the tensor, its hidden companions and
        the dataset meta that names them durable together: a store
        snapshot taken right after it reloads to a dataset that works."""
        storage = MemoryProvider("created")
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        snapshot = MemoryProvider("snapshot")
        snapshot.set_many({key: storage[key] for key in storage})

        loaded = repro.load(snapshot)
        assert loaded._all_tensor_names() == ["x", "_x_shape", "_x_id"]
        loaded.rechunk()
        loaded.x.append(np.int64(7))
        loaded.flush()
        again = repro.load(snapshot)
        assert [int(v) for v in again.x.numpy()] == [7]
        assert len(again.x.sample_ids()) == 1


    def test_a_torn_batch_never_publishes_anything(self, rng):
        """A store that installs any subset of a batch and then dies, at
        every write of a script that commits, forks a branch, creates a
        tensor there, commits, and merges it back: every reload opens,
        shows a prefix of the commits on both branches, each of them
        complete, and a head whose every tensor reads."""
        images = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8) for _ in range(40)
        ]
        labels = [np.int64(i) for i in range(40)]
        auto = "auto commit before creating branch 'dev'"
        merged = "merge 'dev' into 'main'"
        rows = {"one": 20, auto: 20, "two": 40, merged: 40}
        logs = {"main": ["one", auto, merged], "dev": ["one", auto, "two"]}

        def setup():
            storage = TearsBatches()
            ds = repro.empty(storage, overwrite=True)
            # two rows a chunk: each extend crosses the upload watermark
            ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64")
            ds.flush()
            return storage, ds

        def script(ds):
            ds.extend({"a": images[:20], "b": labels[:20]})
            ds.commit("one")
            ds.checkout("dev", create=True)
            ds.create_tensor("c", dtype="int64")
            ds.extend({"a": images[20:], "b": labels[20:],
                       "c": labels[20:]})
            ds.commit("two")
            ds.checkout("main")
            ds.merge("dev")

        def check(ds, exact=None):
            """Every tensor named opens and reads; *exact* rows of a/b
            (and of c, made 20 rows before the end) for a commit."""
            n = ds._engine("a").num_samples
            assert n == exact if exact is not None else n in (0, 20, 40)
            for name in ds._all_tensor_names():
                have = ds._engine(name).num_samples
                if name.lstrip("_").startswith("c"):
                    assert have <= 20 and (exact is None
                                           or have == exact - 20), name
                else:
                    assert have == n, name
            got = ds.read_rows(range(n), tensors=["a", "b"])
            assert all(map(np.array_equal, got["a"], images))
            assert [int(v) for v in got["b"]] == list(range(n))

        seen, runs, writes = set(), 0, set()
        for n, storage in torn_at_every_write(setup, script):
            runs += 1
            writes.add(n)
            tree = repro.load(storage)._tree
            for branch, head in tree.branches.items():
                loaded = repro.load(storage)._at_commit(head)
                log = [c.message for c in reversed(loaded.log())]
                assert log == logs[branch][:len(log)], (n, branch, log)
                for commit in loaded.log():
                    check(loaded._at_commit(commit.commit_id),
                          rows[commit.message])
                check(loaded)
                seen.add((branch, tuple(log)))
        assert runs > 2 * len(writes)  # batches were torn, not only refused
        # the merge is durable only with the script's last write, the tree
        assert ("main", ("one", auto, merged)) not in seen
        assert ("dev", ("one", auto, "two")) in seen


class FailsOneBatch(MemoryProvider):
    """Memory store whose next ``fail`` batch writes raise."""

    def __init__(self):
        super().__init__("fails-one-batch")
        self.fail = 0

    def _store_many(self, items):
        if self.fail:
            self.fail -= 1
            raise RuntimeError("batch refused")
        super()._store_many(items)


class TestAFailedBatchIsWrittenNext:
    """A flush or commit whose chunk batch fails keeps what it drained
    from the engines: the next flush or commit writes it, chunks before
    the manifest that names them."""

    @staticmethod
    def _refused(first_write):
        store = FailsOneBatch()
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.flush()
        ds.x.extend([np.arange(3, dtype=np.int64) + i for i in range(5)])
        store.fail = 1
        with pytest.raises(RuntimeError, match="batch refused"):
            first_write(ds)
        assert len(ds.x) == 5
        assert len(repro.load(store).x) == 0  # nothing was published
        return store, ds

    @staticmethod
    def _rows(ds):
        return [row.tolist() for row in ds.x.numpy(aslist=True)]

    @pytest.mark.parametrize("first_write", ["flush", "commit"])
    def test_a_flush_writes_it(self, first_write):
        store, ds = self._refused(lambda ds: getattr(ds, first_write)())
        ds.flush()
        want = [[i, i + 1, i + 2] for i in range(5)]
        assert self._rows(repro.load(store)) == want
        store.fail = 1  # nothing is owed any more: no batch to refuse
        ds.flush()
        assert self._rows(repro.load(store)) == want

    @pytest.mark.parametrize("first_write", ["flush", "commit"])
    def test_a_commit_seals_it(self, first_write):
        store, ds = self._refused(lambda ds: getattr(ds, first_write)())
        sealed = ds.commit("retried")
        loaded = repro.load(store)
        assert loaded.log()[0].commit_id == sealed
        assert self._rows(loaded) == [[i, i + 1, i + 2] for i in range(5)]
        loaded.checkout(sealed)
        assert len(loaded.x) == 5


def _int_dataset(store, names, rows=16):
    ds = repro.empty(store, overwrite=True)
    for name in names:
        ds.create_tensor(name, dtype="int64")
    ds.extend({
        name: [np.arange(4, dtype=np.int64)] * rows for name in names
    })
    return ds


class TestCommitRoundTrips:
    """The write path's round-trip budget (docs/observability.md): a
    batch of what no durable object names yet, then one single-key PUT
    that publishes it — none per flush *call*."""

    def test_flush_writes_one_single_key(self, spent):
        """A flush is one batch of chunks and one single PUT: the head's
        manifest, carrying every tensor's state and the dataset meta —
        never the version tree, which already names it."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, ("a", "b", "c"))
        ds._meta.info["note"] = "changed"
        _writes, singles, batches = record_writes(store)
        with spent(store) as reqs:
            ds.flush()  # rows and a dataset meta to write, the same tree
        assert reqs == {"upload_batch": 1, "upload": 1}
        assert all(is_chunk(key) for key in batches[0])
        assert singles == [K.head_manifest_key(ds.commit_id)]
        state = unpack_manifest(store[singles[0]], "")
        assert K.dataset_meta_key(ds.commit_id) in state
        with spent(store) as reqs:
            ds.flush()
        assert reqs == {}  # nothing changed: nothing asked of the store
        ds.commit("c")  # the tree changes: its one PUT, after the batch
        assert singles[-1] == K.version_control_info_key()

    @pytest.mark.parametrize("tensors", [1, 3, 6])
    def test_commit_costs_the_same_at_any_tensor_count(self, tensors, spent):
        """``commit()`` is ONE batch — every tensor's chunks and the sealed
        head's manifest, under a key no durable object names yet — then
        the version tree that names it: two round trips at any tensor
        count, never a batch per tensor, per commit or per flush call."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, [f"t{i}" for i in range(tensors)])
        ds._meta.info["note"] = "changed"  # the head's dataset meta too
        _writes, singles, batches = record_writes(store)
        with spent(store) as reqs:
            sealed = ds.commit("c")
        assert reqs == {"upload": 1, "upload_batch": 1}
        assert singles == [K.version_control_info_key()]
        (batch,) = batches
        manifest = K.commit_manifest_key(sealed)
        assert [key for key in batch if not is_chunk(key)] == [manifest]
        state = unpack_manifest(store[manifest], K.commit_root(sealed))
        assert K.dataset_meta_key(sealed) in state
        assert all(K.tensor_meta_key(sealed, f"t{i}") in state
                   for i in range(tensors))
        with spent(store) as reqs:
            ds.flush()
        assert reqs == {}

    def test_a_rechunk_is_one_batch_and_the_manifest(self, spent):
        """``ds.rechunk()`` of two tensors — six with their companions —
        buffers every rewritten chunk like an append and publishes them
        with ONE flush: one batch and the manifest, not a pair per
        tensor."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, ("a", "b"))
        ds.flush()
        _writes, singles, _batches = record_writes(store)
        with spent(store) as reqs:
            ds.rechunk()
        assert reqs == {"upload_batch": 1, "upload": 1}
        assert singles == [K.head_manifest_key(ds.commit_id)]

    def test_create_tensor_is_one_round_trip(self, spent):
        """The tensor, its companions and the dataset meta naming them
        ride one PUT of the head's manifest: no chunk, the same tree."""
        store = make_object_store("s3", clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        with spent(store) as reqs:
            ds.create_tensor("x", dtype="int64")
        assert reqs == {"upload": 1}

    def test_ingest_script_round_trips(self, rng, spent):
        """The shape of the benchmark's ``ingest_s3`` script: 3 tensors
        with companions, 4 extends that each cross the watermark, a commit
        every 2, a final flush."""
        store = make_object_store("s3", clock=SimClock())
        calls = []

        def call(label, fn, *args, **kwargs):
            with spent(store) as reqs:
                out = fn(*args, **kwargs)
            calls.append((label, sum(reqs.values())))
            return out

        ds = call("empty", repro.empty, store)
        for name, kwargs in (
            ("images", {"htype": "image", "sample_compression": "jpeg"}),
            ("labels", {"dtype": "int32"}),
            ("emb", {"dtype": "float32"}),
        ):
            call("create_tensor", ds.create_tensor, name,
                 max_chunk_size=4096, **kwargs)
        images = [smooth_image(rng, 32, 32, 3) for _ in range(96)]
        for k in range(4):
            call("extend", ds.extend, {
                "images": images,
                "labels": [np.int32(i) for i in range(96)],
                "emb": [np.full(16, i, dtype=np.float32) for i in range(96)],
            })
            assert len(ds._engine("images")._pending_chunks) >= (
                _WATERMARK_CHUNKS
            )
            if k % 2:
                call("commit", ds.commit, f"batch {k}")
        call("flush", ds.flush)
        budget = {"empty": 2, "create_tensor": 1, "extend": 1, "commit": 2,
                  "flush": 0}
        assert all(n <= budget[label] for label, n in calls), calls
        assert sum(n for _label, n in calls) <= 11, calls
        assert len(repro.load(store)) == 4 * 96

    def test_checkout_create_on_a_dirty_head_is_one_commit(self, spent):
        """Forking a branch off a head with unflushed rows seals the head
        and opens both heads in one commit-shaped write: the batch, then
        the tree — not a flush, a commit and another flush."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, ("a", "b"))
        with spent(store) as reqs:
            ds.checkout("dev", create=True)
        assert sum(reqs.values()) <= 2, reqs
        assert ds.branch_name == "dev" and len(ds) == 16
        loaded = repro.load(store)
        assert sorted(loaded.branches) == ["dev", "main"]
        (base,) = loaded.log()
        assert len(loaded._at_commit(base.commit_id)) == 16
        ds.extend({name: [np.arange(4, dtype=np.int64)] for name in "ab"})
        ds.flush()
        dev = repro.load(store)
        dev.checkout("dev")
        assert len(dev) == 17

    def test_a_cold_handles_first_extend_resumes_last_chunks_in_one_batch(
        self, spent
    ):
        """A freshly opened handle's first ``extend`` of N tensors resumes
        each one's (and each companion's) last stored chunk: ONE
        ``get_many`` for all of them, no single GET."""
        backing = MemoryProvider("resume")
        names = [f"t{i}" for i in range(4)]
        _int_dataset(backing, names, rows=5).flush()
        store = SimulatedObjectStore("s3", clock=SimClock(), backing=backing)
        ds = repro.load(store)
        with spent(store) as reqs:
            ds.extend({name: [np.arange(4, dtype=np.int64)] for name in names})
        assert reqs.get("download", 0) == 0
        assert reqs.get("download_batch", 0) <= 1, reqs
        ds.flush()
        again = repro.load(backing)
        for name in names:  # the resumed chunks kept their rows
            assert len(again[name]) == 6
            assert again._engine(name).enc.num_chunks == 1

    def test_the_flush_schedule_changes_no_stored_byte(
        self, rng, monkeypatch
    ):
        """Skipping unchanged writes, sealing a head in one batch and
        uploading sealed chunks late change *when* a key is written, never
        what: the ingest script leaves the same keys and bytes as the same
        script flushing after every call — save the head manifests that
        a later commit superseded, which the tree no longer names, and
        chunk *names*.  After an eager flush the next append resumes a
        stored chunk, which is a copy under a fresh name (stored keys are
        write-once), so names come from a counter of their own here (the
        commit ids drawn after them then match) and each is compared by
        its place: the n-th chunk id the manifests' encoders name."""
        images = [smooth_image(rng, 24, 24, 3) for _ in range(40)]

        def by_place(stored, manifests):
            """*stored* with chunk names by place: ``(chunks, manifests,
            others)``, each manifest as its ``{state key: blob}``."""
            states = {key: unpack_manifest(stored[key],
                                           key.rsplit("/", 1)[0] + "/")
                      for key in sorted(manifests)}
            place = {}
            for state in states.values():
                for key in sorted(state):
                    if key.endswith(K.CHUNK_ID_ENCODER_FILENAME):
                        for cid in ChunkIdEncoder.frombytes(state[key])._ids:
                            place.setdefault(cid, len(place) + 1)

            def rename(name):
                cid = ChunkIdEncoder.id_from_name(name)
                return ChunkIdEncoder.name_from_id(place[cid])

            def rewrite(key, blob):
                if key.endswith(K.CHUNK_ID_ENCODER_FILENAME):
                    enc = ChunkIdEncoder.frombytes(blob)
                    enc._ids = [place[cid] for cid in enc._ids]
                    return enc.tobytes()
                if key.endswith(K.CHUNK_SET_FILENAME):
                    return json_dumps(sorted(map(rename, json_loads(blob))))
                if key.endswith(K.CHUNK_STATS_FILENAME):
                    return json_dumps({rename(name): stats for name, stats
                                       in json_loads(blob).items()})
                return blob

            chunks = {}
            for key, blob in stored.items():
                if is_chunk(key):  # a name no encoder places: KeyError
                    folder, name = key.rsplit("/", 1)
                    chunks[f"{folder}/{rename(name)}"] = blob
            states = {key: {k: rewrite(k, b) for k, b in state.items()}
                      for key, state in states.items()}
            others = {key: blob for key, blob in stored.items()
                      if not is_chunk(key) and key not in manifests}
            return chunks, states, others

        def ingest(eager):
            seed_ids(7)
            names = itertools.count(1)
            monkeypatch.setattr(chunk_module, "new_chunk_name",
                                lambda: f"{next(names):016x}")
            backing = MemoryProvider("bytes")
            ds = repro.empty(backing)
            ds.create_tensor("img", htype="image", sample_compression="jpeg",
                             max_chunk_size=2048)
            ds.create_tensor("label", dtype="int32")
            for k in range(4):
                ds.extend({"img": images,
                           "label": [np.int32(i) for i in range(40)]})
                if eager:
                    ds.flush()
                if k % 2:
                    ds.commit(f"batch {k}")
                    if eager:
                        ds.flush()
            ds.flush()
            stored = {key: backing[key] for key in backing}
            tree = json.loads(stored.pop(K.version_control_info_key()))
            named = {node["manifest"] for node in tree["commits"].values()}
            for node in tree["commits"].values():
                node["commit_time"] = None  # the one wall-clock value
            manifests = {key for key in stored if key in named
                         or key.endswith(K.COMMIT_MANIFEST_FILENAME)}
            superseded = {key for key in stored
                          if key.endswith(K.HEAD_MANIFEST_FILENAME)} - named
            for key in superseded:
                del stored[key]
            return by_place(stored, manifests), tree

        assert ingest(eager=False) == ingest(eager=True)

    def test_failed_writes_are_not_remembered(self):
        """A flush or commit whose manifest / tree PUT raises must not
        record the head's state or the tree as stored: the next flush
        writes them."""

        class Failing(MemoryProvider):
            fail = None  # a predicate over a write's keys

            def _set(self, key, value):
                if self.fail and self.fail([key]):
                    raise RuntimeError("refused")
                super()._set(key, value)

            def set_many(self, items):
                if self.fail and self.fail(list(items)):
                    raise RuntimeError("refused")
                super().set_many(items)

        store = Failing("failing")
        ds = _int_dataset(store, ("a",))
        ds.flush()
        tree_key = K.version_control_info_key()
        stored_tree = store[tree_key]

        ds._meta.info["note"] = "first"
        manifest = K.head_manifest_key(ds.commit_id)
        store.fail = lambda keys: keys == [manifest]
        with pytest.raises(RuntimeError, match="refused"):
            ds.flush()
        store.fail = None
        ds.flush()
        assert repro.load(store)._meta.info["note"] == "first"

        store.fail = lambda keys: keys == [tree_key]
        with pytest.raises(RuntimeError, match="refused"):
            ds.commit("c")
        assert store[tree_key] == stored_tree
        store.fail = None
        ds.flush()  # the tree is still owed
        assert [c.message for c in repro.load(store).log()] == ["c"]

    def test_an_unchanged_handle_leaves_another_handles_commit_alone(self):
        """Two handles on one store: a flush of the one whose tree did not
        change no longer overwrites the other's commit with its stale
        copy."""
        store = MemoryProvider("two-handles")
        stale = _int_dataset(store, ("a",))
        stale.flush()
        other = repro.load(store)
        other.a.extend([np.arange(4, dtype=np.int64)] * 4)
        other.commit("theirs")
        stale.flush()
        with stale:  # __exit__ flushes as well
            assert len(stale.a) == 16
        loaded = repro.load(store)
        assert [c.message for c in loaded.log()] == ["theirs"]
        assert len(loaded._at_commit(loaded.log()[0].commit_id).a) == 20

    def test_a_head_flush_never_rewrites_the_tree(self):
        """Two handles on one store: one extends and flushes on ``main``
        while the other commits on ``dev``.  The flushes publish main's
        manifest and never the version tree, so they cannot drop the
        commit the other handle made."""
        backing = MemoryProvider("two-branches")
        dev = _int_dataset(backing, ("a",))
        dev.commit("base")
        dev.checkout("dev", create=True)
        store = SimulatedObjectStore("s3", clock=SimClock(), backing=backing)
        main = repro.load(store)
        dev.a.extend([np.arange(4, dtype=np.int64)] * 4)
        dev.commit("dev work")
        _writes, singles, _batches = record_writes(store)
        for _ in range(3):
            main.a.extend([np.arange(4, dtype=np.int64)] * 2)
            main.flush()
        assert singles == [K.head_manifest_key(main.commit_id)] * 3
        loaded = repro.load(backing)
        assert len(loaded) == 22
        on_dev = loaded._at_commit(loaded._tree.branches["dev"])
        assert [c.message for c in on_dev.log()][:1] == ["dev work"]
        assert len(on_dev) == 20

    def test_schema_writes_keep_the_dataset_meta_memo_current(self, spent):
        """``create_group`` and ``delete_tensor`` write the dataset meta
        through the function a flush uses, so the flush after them has
        nothing to add — and a deleted-then-recreated tensor is written,
        never skipped as "already stored"."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, ("a", "b"))
        ds.flush()
        ds.create_group("g")
        ds.delete_tensor("b")
        with spent(store) as reqs:
            ds.flush()
        assert reqs == {}
        assert repro.load(store).groups == ["g"]
        ds.create_tensor("b", dtype="int64")
        ds.extend({
            name: [np.arange(4, dtype=np.int64)] * 3 for name in ("a", "b")
        })
        ds.flush()
        loaded = repro.load(store)
        assert (len(loaded.a), len(loaded.b)) == (19, 3)
        assert np.array_equal(loaded.b[2].numpy(), np.arange(4))


def legacy_copy(storage):
    """*storage*'s dataset in the layout written before manifests: every
    state file at its enumerated key, and a tree that names no manifest."""
    tree = json.loads(storage[K.version_control_info_key()])
    out = MemoryProvider("legacy")
    out.set_many({key: storage[key] for key in storage if is_chunk(key)})
    for cid, node in tree["commits"].items():
        key = node.pop("manifest")
        if key in storage:
            out.set_many(unpack_manifest(storage[key], K.commit_root(cid)))
    out[K.version_control_info_key()] = json.dumps(tree).encode()
    return out


class TestLegacyLayout:
    def test_a_dataset_written_before_manifests_opens_extends_commits(
        self, rng
    ):
        """State files at the enumerated keys and a tree naming no
        manifest: the dataset opens, reads byte for byte what the same
        dataset in manifests reads, extends and commits — the new commit
        in a manifest, the old ones left as they were."""
        backing = MemoryProvider("manifests")
        ds = repro.empty(backing)
        ds.create_tensor("img", htype="image", sample_compression="jpeg",
                         max_chunk_size=2048)
        ds.create_tensor("x", dtype="float32", chunk_compression="lz4")
        images = [smooth_image(rng, 16, 16, 3) for _ in range(30)]
        xs = [rng.random(5).astype(np.float32) for _ in range(30)]
        ds.extend({"img": images[:20], "x": xs[:20]})
        one = ds.commit("one")
        ds.extend({"img": images[20:], "x": xs[20:]})
        ds.flush()
        legacy = legacy_copy(backing)
        assert not any(K.HEAD_MANIFEST_FILENAME in key
                       or K.COMMIT_MANIFEST_FILENAME in key for key in legacy)

        old, new = repro.load(legacy), repro.load(backing)
        for commit in (None, one):
            a = old if commit is None else old._at_commit(commit)
            b = new if commit is None else new._at_commit(commit)
            rows = range(len(b))
            assert a.read_rows(rows, ["img", "x"], decode=False) == (
                b.read_rows(rows, ["img", "x"], decode=False)
            )
        old.extend({"img": images[:4], "x": xs[:4]})
        two = old.commit("two")
        again = repro.load(legacy)
        assert [c.message for c in again.log()] == ["two", "one"]
        assert len(again) == 34
        assert np.array_equal(again.x[33].numpy(), xs[3])
        assert again._tree.node(one).manifest is None
        assert again._tree.node(two).manifest == K.commit_manifest_key(two)

    def test_a_dataset_written_before_manifests_opens_in_three_requests(
        self, spent
    ):
        """The tree's GET, then two batches: every commit's dataset meta
        (where a manifest would be), then every tensor's state files at
        their enumerated keys; opening the tensors
        after that asks nothing more of the store."""
        backing = MemoryProvider("manifests")
        ds = repro.empty(backing)
        ds.create_tensor("x", dtype="int64")
        ds.create_tensor("y", dtype="float32")
        rows = {"x": [np.arange(3)] * 4, "y": [np.ones(2, np.float32)] * 4}
        ds.extend(rows)
        ds.commit("one")
        ds.extend(rows)
        ds.flush()
        store = SimulatedObjectStore(
            "s3", clock=SimClock(), backing=legacy_copy(backing)
        )
        with spent(store) as reqs:
            cold = repro.load(store)
            cold._open_engines(cold._meta.tensors)
        assert reqs == {"download": 1, "download_batch": 2}
        assert len(cold) == 8


# --------------------------------------------------------------------------- #
# the upload buffer: buffered reads, batched uploads, the watermark
# --------------------------------------------------------------------------- #


class TestWritePipeline:
    def test_buffered_chunks_readable_before_flush(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="uint8", max_chunk_size=1024)
        rows = [
            rng.integers(0, 255, (12, 12), dtype=np.uint8)
            for _ in range(16)
        ]
        ds.x.extend(rows)
        pending = ds._engine("x")._pending_chunks
        assert 0 < len(pending) < _WATERMARK_CHUNKS  # nothing uploaded yet
        for i in (0, 7, 15):  # spans finalized-but-unflushed chunks
            assert np.array_equal(ds.x[i].numpy(), rows[i])

    def test_pipelined_writes_batch_object_store_puts(self, rng):
        rows = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8)
            for _ in range(24)
        ]

        def ingest(store):
            ds = repro.empty(store, overwrite=True)
            ds.create_tensor(
                "x", dtype="uint8", max_chunk_size=512,
                create_shape_tensor=False, create_id_tensor=False,
            )
            ds.x.extend(rows)
            ds.flush()
            return store

        serial = ingest(PerKeyPutStore("s3", clock=SimClock()))
        pipelined = ingest(make_object_store("s3", clock=SimClock()))
        chunk_uploads = serial.requests_by_op["upload"]
        batches = pipelined.requests_by_op["upload_batch"]
        assert batches < chunk_uploads / 2
        assert pipelined.clock.now() < serial.clock.now()

    def _watermark_dataset(self):
        store = make_object_store("s3", clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor(
            "x", dtype="int64", max_chunk_size=256,
            create_shape_tensor=False, create_id_tensor=False,
        )
        return store, ds, ds._engine("x")

    @staticmethod
    def _rows(n, start=0):
        # 32 bytes a row: 8 rows fill a chunk, so 80 rows finalize 10
        return [np.arange(i, i + 4, dtype=np.int64)
                for i in range(start, start + n)]

    def test_crossing_the_watermark_uploads_one_batch_before_flush(self):
        """The chunks an extend seals go out while the *next* call stages
        (or with the next flush): once, one batch of chunk keys only, and
        nothing stays pending behind it."""
        for drain, rows in (("next extend", 84), ("flush", 80)):
            store, ds, engine = self._watermark_dataset()
            writes, singles, batches = record_writes(store)
            ds.x.extend(self._rows(80))
            assert batches == []  # the extend itself asks nothing of the store
            sealed = list(engine._pending_chunks)
            assert len(sealed) >= _WATERMARK_CHUNKS
            if drain == "next extend":
                ds.x.extend(self._rows(4, start=80))
                assert len(batches) == 1  # before any flush
            else:
                ds.flush()
            assert sorted(batches[0]) == sorted(
                K.chunk_key(ds.commit_id, "x", name) for name in sealed
            )
            assert not set(sealed) & set(engine._pending_chunks)
            ds.flush()
            assert not any(is_chunk(k) for k in singles)
            assert {writes[key] for key in batches[0]} == {1}  # once
            assert not engine._pending_chunks
            assert len(repro.load(store).x) == rows

    def test_an_append_loop_keeps_the_buffer_at_the_watermark(self):
        """Row at a time, the buffer never holds more than
        ``_WATERMARK_CHUNKS`` sealed chunks once a call has returned."""
        store, ds, engine = self._watermark_dataset()
        for row in self._rows(200):
            ds.x.append(row)
            assert len(engine._pending_chunks) <= _WATERMARK_CHUNKS
        assert store.requests_by_op["upload_batch"] >= 3  # pre-flush
        ds.flush()
        assert len(repro.load(store).x) == 200

    def test_chunks_never_upload_mid_commit(self):
        """Staging uploads *before* the commit starts, so a batch that
        fails half-way still rolls back over chunks that are all in
        memory: the engine is exactly as the failed call found it."""
        store, ds, engine = self._watermark_dataset()
        in_commit, drained_in_commit = [], []
        commit, drain = engine.commit_appends, engine._serialize_pending

        def recording_commit(plan):
            in_commit.append(True)
            try:
                return commit(plan)
            finally:
                in_commit.pop()

        def recording_drain():
            drained_in_commit.append(bool(in_commit))
            return drain()

        engine.commit_appends = recording_commit
        engine._serialize_pending = recording_drain
        ds.x.extend(self._rows(80))
        ds.x.extend(self._rows(80, start=80))  # uploads the first 10 chunks
        pending = list(engine._pending_chunks)
        with pytest.raises(FormatError):  # stages, uploads, fails to commit
            ds.x.extend(self._rows(40) + [np.zeros((2, 2), dtype=np.int64)])
        assert drained_in_commit == [False, False]
        assert engine.num_samples == 160
        # nothing the failed batch sealed stays buffered
        assert set(engine._pending_chunks) <= set(pending)
        ds.flush()
        got = repro.load(store).x.numpy()
        assert np.array_equal(got, np.stack(self._rows(160)))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_a_failed_upload_during_staging_registers_nothing(
        self, rng, pooled
    ):
        """An upload error raised while staging abandons the batch — no
        row of it is registered — and leaves the engine as a failed
        watermark upload always has: the drained chunks are gone from the
        buffer, the rows they hold still counted and readable."""
        store = KillableProvider()
        ds = repro.empty(store, overwrite=True)
        if pooled:
            ds.create_tensor("x", htype="image", sample_compression="jpeg",
                             max_chunk_size=1024, create_shape_tensor=False,
                             create_id_tensor=False)
            rows = [smooth_image(rng, 16, 16, 3) for _ in range(40)]
        else:
            ds.create_tensor("x", dtype="int64", max_chunk_size=256,
                             create_shape_tensor=False,
                             create_id_tensor=False)
            rows = self._rows(80)
        engine = ds._engine("x")
        ds.x.extend(rows)
        assert len(engine._pending_chunks) >= _WATERMARK_CHUNKS
        before = (engine.num_samples, engine.enc.tobytes(),
                  engine.meta.to_json(), engine.commit_diff.to_json())
        store.kill_after = store.calls  # the next set_many: the chunks
        with pytest.raises(RuntimeError, match="simulated process kill"):
            ds.x.extend(rows)
        store.kill_after = None
        assert before == (engine.num_samples, engine.enc.tobytes(),
                          engine.meta.to_json(), engine.commit_diff.to_json())
        assert len(engine._pending_chunks) < _WATERMARK_CHUNKS
        assert len(ds.x.numpy(aslist=True)) == len(rows)  # from the cache
        ds.x.extend(rows)  # the engine keeps working
        assert engine.num_samples == 2 * len(rows)


class TestModifiedChunksAreBuffered:
    """A chunk modified by ``update`` or an in-place transform is a copy
    under a fresh key in the same buffer a finalized chunk joins: it is
    uploaded by the next watermark/flush batch, once, however many of its
    rows changed, and the key it replaces is gone once a commit seals
    the head."""

    def _one_chunk_dataset(self, rows=100, **tensor_kwargs):
        store = make_object_store("s3", clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False, **tensor_kwargs)
        ds.x.extend([np.full(128, i, dtype=np.int64) for i in range(rows)])
        ds.flush()
        return store, ds

    def test_updates_to_one_chunk_upload_it_once(self):
        store, ds = self._one_chunk_dataset()  # one ~100 kB chunk
        (old_key,) = [k for k in store.backing._all_keys() if is_chunk(k)]
        written_before = store.stats.bytes_written
        writes, singles, batches = record_writes(store)
        updated = list(range(0, 100, 2)) * 2  # 100 updates, odd rows untouched
        for i in updated:
            ds.x[i] = np.full(128, -i, dtype=np.int64)
        ds.flush()
        (chunk_key,) = [k for k in writes if is_chunk(k)]
        assert chunk_key != old_key  # a copy under a fresh key
        assert writes[chunk_key] == 1
        assert not any(is_chunk(k) for k in singles)
        (chunk_batch,) = [b for b in batches if chunk_key in b]
        assert all(is_chunk(k) for k in chunk_batch)
        # about one chunk's worth of bytes, not one chunk per update
        assert store.stats.bytes_written - written_before < 2 * 100 * 1024
        ds.commit("updated")  # the seal deletes the key the copy replaced
        assert [k for k in store.backing._all_keys() if is_chunk(k)] == [
            chunk_key
        ]
        fresh = repro.load(store)
        for i in range(100):
            want = -i if i % 2 == 0 else i
            assert np.array_equal(fresh.x[i].numpy(),
                                  np.full(128, want, dtype=np.int64))

    def test_updates_keep_the_buffer_bounded(self):
        # 1 kB rows in 2 kB chunks: every second update opens a new chunk
        store, ds = self._one_chunk_dataset(rows=40, max_chunk_size=2048)
        engine = ds._engine("x")
        assert engine.enc.num_chunks > 2 * _WATERMARK_CHUNKS
        before = store.requests_by_op.get("upload_batch", 0)
        for i in range(40):
            ds.x[i] = np.full(128, -i, dtype=np.int64)
            assert len(engine._pending_chunks) < _WATERMARK_CHUNKS
        assert store.requests_by_op["upload_batch"] > before  # pre-flush
        ds.flush()
        fresh = repro.load(store)
        assert np.array_equal(fresh.x[39].numpy(), np.full(128, -39))

    def test_inplace_compute_uploads_each_chunk_once(self):
        store, ds = self._one_chunk_dataset(rows=10, max_chunk_size=2048)
        old_keys = {k for k in store.backing._all_keys() if is_chunk(k)}
        assert 1 < len(old_keys) < _WATERMARK_CHUNKS
        writes, singles, _batches = record_writes(store)

        @repro.compute
        def negate(sample_in, sample_out):
            sample_out.append({"x": -sample_in["x"]})

        assert negate().eval(ds) == 10
        chunk_keys = {k for k in writes if is_chunk(k)}
        assert len(chunk_keys) == len(old_keys)
        assert not chunk_keys & old_keys  # every chunk is a copy
        assert {k: n for k, n in writes.items() if is_chunk(k)} == (
            dict.fromkeys(chunk_keys, 1)
        )
        assert not any(is_chunk(k) for k in singles)
        ds.commit("negated")  # every old key goes with the seal
        assert {k for k in store.backing._all_keys() if is_chunk(k)} == (
            chunk_keys
        )
        fresh = repro.load(store)
        assert np.array_equal(fresh.x[7].numpy(), np.full(128, -7))


class TestStoredChunksAreWriteOnce:
    """Only the write buffer changes: ``update`` and a resumed append
    write a copy of a stored chunk under a fresh key, a key is never PUT
    twice, and the key a copy replaced is deleted only after the commit
    that seals the head: a reader holding an earlier manifest of the
    head keeps reading it."""

    def test_an_update_killed_after_its_chunk_batch_reads_as_published(self):
        storage = KillableProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.extend(np.arange(10, dtype=np.int64))
        ds.flush()
        ds.x[0] = np.int64(99)
        storage.kill_after = storage.calls + 1  # the chunks, not the manifest
        with pytest.raises(RuntimeError, match="simulated process kill"):
            ds.flush()
        storage.kill_after = None
        assert int(repro.load(storage).x[0].numpy()) == 0
        ds.flush()  # the retry publishes it
        assert int(repro.load(storage).x[0].numpy()) == 99

    @pytest.mark.parametrize("crash", ["killed", "torn"])
    def test_updates_killed_at_any_write_read_wholly_old_or_new(self, crash):
        """Updates of flat rows in three chunks and of a tiled row, then
        a flush and a commit, killed at every write (the chunk batch, the
        manifest, the commit's batch and tree, each delete of a
        superseded key) and, for ``torn``, with every subset of a batch
        installed: each reload opens and reads either every old value or
        every new one."""
        rng = np.random.default_rng(5)
        old = [rng.integers(0, 255, (10, 10), dtype=np.uint8)
               for _ in range(20)]
        old[7] = rng.integers(0, 255, (40, 40), dtype=np.uint8)  # tiled
        new = list(old)
        for i in (0, 5, 7, 19):
            new[i] = rng.integers(0, 255, old[i].shape, dtype=np.uint8)
        labels = np.arange(20, dtype=np.int64)

        def setup():
            storage = TearsBatches() if crash == "torn" else FailsNthWrite()
            ds = repro.empty(storage, overwrite=True)
            ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64")
            ds.extend({"a": old, "b": labels})
            ds.flush()
            return storage, ds

        def script(ds):
            for i in (0, 5, 7, 19):
                ds.a[i] = new[i]
                ds.b[i] = -labels[i]
            ds.flush()
            ds.commit("updated")

        walk = torn_at_every_write if crash == "torn" else (
            killed_at_every_write
        )
        deletes = set()
        for n, storage in walk(setup, script):
            loaded = repro.load(storage)
            got = loaded.read_rows(range(20), tensors=["a", "b"])
            shapes = [tuple(s) for s in loaded._engine("_a_shape").read(
                range(20), aslist=True)]
            # write 1 is the chunk batch, write 2 the manifest that
            # publishes it, writes 3 and 4 the commit's batch and tree,
            # and the deletes of superseded keys follow
            want, sign = (new, -1) if n > 2 else (old, 1)
            assert all(map(np.array_equal, got["a"], want)), n
            assert [int(v) for v in got["b"]] == [
                sign * i if i in (0, 5, 7, 19) else i for i in range(20)
            ], n
            assert shapes == [w.shape for w in want], n
            deletes.add(n)
        assert max(deletes) > 5  # a kill landed between two deletes

    @pytest.mark.parametrize("crash", ["killed", "torn"])
    def test_a_batched_update_killed_at_any_write_reads_wholly_old_or_new(
            self, crash):
        """One batched update per tensor — rows in three chunks and a
        tiled row, unsorted, one row twice — then a flush and a commit,
        killed at every write and, for ``torn``, with every subset of a
        batch installed: each reload reads every old value of both
        tensors or every new one, and both outcomes occur."""
        rng = np.random.default_rng(6)
        old = [rng.integers(0, 255, (10, 10), dtype=np.uint8)
               for _ in range(20)]
        old[7] = rng.integers(0, 255, (40, 40), dtype=np.uint8)  # tiled
        rows = [19, 7, 0, 5, 0]
        values = [rng.integers(0, 255, old[i].shape, dtype=np.uint8)
                  for i in rows]
        new = list(old)
        for row, value in zip(rows, values):
            new[row] = value  # row 0 takes its last value
        labels = np.arange(20, dtype=np.int64)

        def setup():
            storage = TearsBatches() if crash == "torn" else FailsNthWrite()
            ds = repro.empty(storage, overwrite=True)
            ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64")
            ds.extend({"a": old, "b": labels})
            ds.flush()
            engine = ds._engine("a")
            assert len({engine.enc.locate(i)[0] for i in (0, 5, 19)}) == 3
            assert 7 in engine.tile_enc
            return storage, ds

        def script(ds):
            ds.a[rows] = values
            ds.b[rows] = -labels[rows]
            ds.flush()
            ds.commit("updated")

        walk = torn_at_every_write if crash == "torn" else (
            killed_at_every_write
        )
        outcomes = set()
        for n, storage in walk(setup, script):
            loaded = repro.load(storage)
            got = loaded.read_rows(range(20), tensors=["a", "b"])
            shapes = [tuple(s) for s in loaded._engine("_a_shape").read(
                range(20), aslist=True)]
            updated = all(map(np.array_equal, got["a"], new))
            assert updated or all(map(np.array_equal, got["a"], old)), n
            assert [int(v) for v in got["b"]] == [
                -i if updated and i in rows else i for i in range(20)
            ], n
            assert shapes == [w.shape for w in old], n
            outcomes.add(updated)
        assert outcomes == {False, True}

    def test_no_key_is_put_twice_and_the_cache_never_changes(self):
        """One script through every write path — extend, flush, a
        resumed append, a flat and a tiled update, commit, branch, merge,
        rechunk and an in-place ``@compute``: no chunk key is PUT twice,
        no chunk the handle's cache holds changes, and after the last
        commit every chunk key in the store is named by a commit's chunk
        set."""
        store = RecordingProvider()
        rng = np.random.default_rng(3)
        rows = [rng.integers(0, 255, (10, 10), dtype=np.uint8)
                for _ in range(12)]
        rows[3] = rng.integers(0, 255, (40, 40), dtype=np.uint8)  # tiled
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("a", dtype="uint8", max_chunk_size=512)
        ds.create_tensor("b", dtype="int64")

        @repro.compute
        def negate(sample_in, sample_out):
            sample_out.append({"a": sample_in["a"], "b": -sample_in["b"]})

        def merge():
            ds.checkout("dev", create=True)
            ds.extend({"a": rows[:2], "b": np.arange(2, dtype=np.int64)})
            ds.b[0] = np.int64(5)
            ds.commit("dev")
            ds.checkout("main")
            ds.merge("dev")

        steps = [
            lambda: ds.extend({"a": rows[:6],
                               "b": np.arange(6, dtype=np.int64)}),
            ds.flush,
            lambda: ds.extend({"a": rows[6:],
                               "b": np.arange(6, 12, dtype=np.int64)}),
            ds.flush,
            lambda: ds.a.__setitem__(1, rows[0]),
            lambda: ds.a.__setitem__(3, rows[3][::-1].copy()),
            ds.flush,
            lambda: ds.commit("one"),
            lambda: ds.a.__setitem__(2, rows[0]),
            lambda: ds.extend({"a": rows[:1], "b": [np.int64(12)]}),
            merge,
            ds.rechunk,
            lambda: negate().eval(ds),
            ds.flush,
            lambda: ds.commit("last"),
        ]
        for step in steps:
            before = {
                key: (chunk, bytes(chunk.data), list(chunk.byte_positions),
                      list(chunk.shapes))
                for key, (chunk, _size) in ds._chunk_cache._chunks.items()
            }
            step()
            for key, (chunk, data, positions, shapes) in before.items():
                assert isinstance(chunk.data, bytes), key
                assert (bytes(chunk.data), chunk.byte_positions,
                        chunk.shapes) == (data, positions, shapes), key
        puts = Counter(
            key for batch in store.batches for key in batch if is_chunk(key)
        ) + Counter(key for key in store.singles if is_chunk(key))
        assert puts and max(puts.values()) == 1
        loaded = repro.load(store)
        named = set()
        for cid in loaded._tree.commits:
            view = loaded._at_commit(cid)
            for name in view._all_tensor_names():
                named |= {
                    K.chunk_key(cid, name, chunk) for chunk in
                    view._engine(name)._chunk_sets.get(cid, ())
                }
        stored = {key for key in store._all_keys() if is_chunk(key)}
        assert stored and stored <= named
        assert stored & set(puts) == stored

    def test_a_failed_batch_that_resumed_a_stored_chunk_replaces_nothing(
        self,
    ):
        """A batch that copies the stored last chunk to resume it and then
        fails rolls the copy back: the chunk keeps its key, nothing is
        deleted, and the next append resumes it as if nothing happened."""
        store = MemoryProvider("resume")
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.x.extend([np.arange(4, dtype=np.int64)] * 3)
        ds.flush()
        (key,) = [k for k in store._all_keys() if is_chunk(k)]
        engine = ds._engine("x")
        before = (engine.enc.tobytes(), set(engine.chunk_set),
                  dict(engine.chunk_stats))
        with pytest.raises(ChunkCorruptedError):  # rank 2 in a rank-1 chunk
            ds.x.extend([np.arange(4, dtype=np.int64),
                         np.zeros((2, 2), dtype=np.int64)])
        assert (engine.enc.tobytes(), engine.chunk_set,
                engine.chunk_stats) == before
        assert engine._active_chunk is None and not engine._pending_chunks
        ds.flush()
        assert [k for k in store._all_keys() if is_chunk(k)] == [key]
        ds.x.extend([np.arange(4, dtype=np.int64)])
        ds.commit("resumed")
        (resumed,) = [k for k in store._all_keys() if is_chunk(k)]
        assert resumed != key
        assert repro.load(store).x.numpy().tolist() == [[0, 1, 2, 3]] * 4

    def _priced(self, ds, store, fn):
        before = dict(store.requests_by_op)
        fn()
        return {op: n - before.get(op, 0)
                for op, n in store.requests_by_op.items()
                if n != before.get(op, 0)}

    def test_an_update_costs_the_batch_the_manifest_and_one_delete(self):
        """An update + flush is the chunk batch and the manifest PUT; the
        key the copy replaced costs one delete at the commit that seals
        the head, none when an ancestor stored it."""
        store = make_object_store("s3", clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.x.extend([np.full(8, i, dtype=np.int64) for i in range(20)])
        ds.flush()

        def update():
            ds.x[3] = np.full(8, -3, dtype=np.int64)
            ds.flush()

        batch_put = {"upload_batch": 1, "upload": 1}  # then the publish
        # a chunk this head stored: its key goes after the commit's tree PUT
        assert self._priced(ds, store, update) == batch_put
        assert self._priced(ds, store, lambda: ds.commit("one")) == {
            **batch_put, "delete": 1,
        }
        # an ancestor's chunk: its key stays the ancestor's
        assert self._priced(ds, store, update) == batch_put
        assert self._priced(ds, store, lambda: ds.commit("two")) == batch_put

    def test_a_checkout_away_and_back_keeps_the_cache_warm(self):
        store = make_object_store("s3", clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.extend([np.full(8, i, dtype=np.int64) for i in range(20)])
        ds.commit("one")
        ds.checkout("dev", create=True)
        ds.x.extend([np.full(8, i, dtype=np.int64) for i in range(5)])
        ds.commit("two")
        want = {"dev": ds.x.numpy()}
        ds.checkout("main")
        want["main"] = ds.x.numpy()
        chunk_gets = []
        backing_get = store.backing._get

        def recording_get(key, start, end):
            if is_chunk(key):
                chunk_gets.append(key)
            return backing_get(key, start, end)

        store.backing._get = recording_get
        for branch in ("dev", "main", "dev"):
            ds.checkout(branch)
            assert np.array_equal(ds.x.numpy(), want[branch])
        assert chunk_gets == []


class TestWhereParallelismLives:
    """The rule: the chunk engine runs on its caller's thread; the one
    pool underneath is the encode pool, taken only when staging a batch
    of a sample-compressed tensor."""

    def test_only_sample_compressed_staging_leaves_the_calling_thread(
        self, rng, monkeypatch
    ):
        codec = get_codec("jpeg")
        # decode: (thread, payloads) per call of the batched entry point
        encode_threads, decode_calls = [], []
        encode, decode = codec.compress, codec.decompress_many

        def recording_encode(*args, **kwargs):
            encode_threads.append(threading.current_thread().name)
            return encode(*args, **kwargs)

        def recording_decode(payloads):
            decode_calls.append(
                (threading.current_thread().name, len(payloads))
            )
            return decode(payloads)

        monkeypatch.setattr(codec, "compress", recording_encode)
        monkeypatch.setattr(codec, "decompress_many", recording_decode)
        here = threading.current_thread().name
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("img", htype="image", sample_compression="jpeg",
                         create_shape_tensor=False, create_id_tensor=False)
        ds.create_tensor("label", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        images = [smooth_image(rng, 24, 24, 3) for _ in range(11)]

        ds.img.extend(images[:8])
        assert len(encode_threads) == 8
        assert all(t.startswith("sample-encode") for t in encode_threads)

        del encode_threads[:]
        ds.img.extend(images[8:])  # under the 4-item gate: inline
        assert encode_threads == [here] * 3

        # everything else stays on the caller, and starts no thread
        threads_before = threading.active_count()
        ds.label.extend([np.int64(i % 3) for i in range(11)])
        values = ds.read_rows(list(range(11)), ["img"])["img"]
        # one plan, one codec call: all 11 rows, on the caller's thread
        assert len(values) == 11 and decode_calls == [(here, 11)]
        groups = ds.query("select label, COUNT() as n group by label")
        assert len(groups) == 3
        ds.flush()
        assert threading.active_count() == threads_before
        assert encode_threads == [here] * 3


# --------------------------------------------------------------------------- #
# transform write side: parallel eval equals serial, in input order
# --------------------------------------------------------------------------- #


class TestTransformParallelWrites:
    def test_parallel_eval_matches_serial(self, rng):
        src = repro.empty(MemoryProvider(), overwrite=True)
        src.create_tensor("x", dtype="int64")
        values = [np.full((4,), i, dtype=np.int64) for i in range(40)]
        src.x.extend(values)

        @repro.compute
        def double(sample_in, sample_out):
            sample_out.append({"y": sample_in["x"] * 2})

        outputs = {}
        for workers in (0, 4):
            out = repro.empty(MemoryProvider(), overwrite=True)
            out.create_tensor("y", dtype="int64")
            n = double().eval(src, out, num_workers=workers)
            assert n == len(values)
            outputs[workers] = out.y.numpy()
        assert np.array_equal(outputs[0], outputs[4])
        assert np.array_equal(outputs[4][5], values[5] * 2)


# --------------------------------------------------------------------------- #
# streaming ingestion against a served dataset
# --------------------------------------------------------------------------- #


class TestStreamingIngest:
    def _write_jsonl(self, tmp_path, n):
        path = tmp_path / "records.jsonl"
        with open(path, "w") as f:
            for i in range(n):
                f.write('{"a": %d, "b": "row%d"}\n' % (i, i))
        return str(path)

    def test_ingest_stream_yields_committed_counts(self, tmp_path):
        path = self._write_jsonl(tmp_path, 23)
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        counts = []
        for count in ingest_stream(JSONLSource(path), ds, batch_size=5):
            counts.append(count)
            # an independent reader opening the same storage between
            # batches sees exactly the committed rows, fully readable
            reader = repro.load(storage, read_only=True)
            assert reader.a.num_samples == count
            assert int(reader.a[count - 1].numpy()) == count - 1
        assert counts == [5, 10, 15, 20, 23]

    def test_a_reader_holding_an_earlier_batch_reads_it(self, tmp_path):
        """Each batch resumes the last stored chunk as a copy under a
        fresh key; the key it replaced stays until a commit seals the
        head, so a handle opened at an earlier batch, its cache cold,
        still reads every row that batch published."""
        path = self._write_jsonl(tmp_path, 23)
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        stream = ingest_stream(JSONLSource(path), ds, batch_size=5)
        assert next(stream) == 5
        reader = repro.load(storage, read_only=True)
        assert [next(stream), next(stream)] == [10, 15]
        assert reader.a.numpy().tolist() == list(range(5))
        assert [reader.b[i].data() for i in range(5)] == [
            f"row{i}" for i in range(5)
        ]
        assert list(stream) == [20, 23]
        sealed = repro.load(storage)._at_commit(ds.commit("ingested"))
        assert sealed.a.numpy().tolist() == list(range(23))
        named = {K.chunk_key(sealed.version_state.commit_id, name, chunk)
                 for name in sealed._all_tensor_names()
                 for chunk in sealed._engine(name).chunk_set}
        # the seal deleted every key a batch's copy replaced
        assert {k for k in storage._all_keys() if is_chunk(k)} == named

    def test_ingest_stream_limit(self, tmp_path):
        path = self._write_jsonl(tmp_path, 23)
        ds = repro.empty(MemoryProvider(), overwrite=True)
        counts = list(
            ingest_stream(JSONLSource(path), ds, batch_size=4, limit=10)
        )
        assert counts[-1] == 10
        assert ds.a.num_samples == 10

    def test_stream_into_served_dataset(self, tmp_path, rng):
        """Writer appends through the serving layer (put_many round trips)
        while a second client reads consistent committed versions."""
        path = self._write_jsonl(tmp_path, 12)
        backend = MemoryProvider("backend")
        server = DatasetServer(name="stream-server")
        server.add_dataset("ds", backend)
        with server:
            writer = repro.empty(server.connect("ds"), overwrite=True)
            for count in ingest_stream(
                JSONLSource(path), writer, batch_size=4
            ):
                reader = repro.load(
                    server.connect("ds", tenant="reader"), read_only=True
                )
                assert reader.a.num_samples == count
                got = [int(reader.a[i].numpy()) for i in range(count)]
                assert got == list(range(count))
            assert count == 12
