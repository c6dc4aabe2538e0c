"""Exception-safe, batched write path.

Covers the `set_many` contract across every storage provider, batch
charging on the simulated object store, crash-consistent flush ordering
(chunks -> encoders -> meta), atomic append/extend under mid-batch
failures, the killed-mid-flush reload guarantee (a failed flush, a failed
``rechunk``, every N-th write across extend/commit/branch/merge and across
``delete_tensor``), the write path's round-trip budget (a ``commit`` is one
coordinated flush, a flush writes only what changed), the one upload
buffer (finalized, updated and rechunked chunks; sealed chunks upload
under the next call's staging), where the write path's one thread pool
runs, and the streaming ingest-while-serving scenario.
"""

import json
import threading
from collections import Counter

import numpy as np
import pytest

import repro
from repro.compression import get_codec
from repro.core.chunk_engine import _WATERMARK_CHUNKS
from repro.exceptions import (
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
from repro.workloads import smooth_image


@pytest.fixture(autouse=True)
def _no_leftover_servers():
    clear_servers()
    yield
    clear_servers()


class RecordingProvider(MemoryProvider):
    """Memory store that records every set_many batch's key list."""

    def __init__(self):
        super().__init__("recording")
        self.batches = []

    def set_many(self, items):
        self.batches.append(list(items))
        super().set_many(items)


class KillableProvider(MemoryProvider):
    """Memory store that 'dies' after a budget of set_many calls."""

    def __init__(self):
        super().__init__("killable")
        self.calls = 0
        self.kill_after = None  # allowed set_many calls before the "kill"

    def set_many(self, items):
        if self.kill_after is not None and self.calls >= self.kill_after:
            raise RuntimeError("simulated process kill mid-flush")
        self.calls += 1
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
    return K.key_class(key) == K.KEY_CLASS_CHUNK


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
# crash-consistent flush ordering (satellite: key classes, not lexicographic)
# --------------------------------------------------------------------------- #


class TestFlushOrdering:
    def test_key_class(self):
        assert K.key_class("images/chunks/0fa3") == K.KEY_CLASS_CHUNK
        assert K.key_class("images/chunk_id_encoder") == K.KEY_CLASS_ENCODER
        assert K.key_class("images/tile_encoder.json") == K.KEY_CLASS_ENCODER
        assert K.key_class("images/tensor_meta.json") == K.KEY_CLASS_META
        assert K.key_class("dataset_meta.json") == K.KEY_CLASS_META

    def test_chunk_set_goes_down_with_the_encoders(self):
        """A reader places each chunk the encoder names through the chunk
        set, so no flush may leave the encoder durable without it."""
        assert K.key_class("images/chunk_set.json") == K.KEY_CLASS_ENCODER
        storage = RecordingProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.extend([np.arange(4, dtype=np.int64)] * 3)
        storage.batches.clear()
        ds.flush()
        batch = next(b for b in storage.batches if "x/chunk_id_encoder" in b)
        assert batch.index("x/chunk_set.json") < batch.index(
            "x/chunk_id_encoder"
        )

    def test_writeback_flush_orders_by_class(self):
        # adversarial tensor name: lexicographically *before* "chunks", so
        # the old sorted() flush would have written meta first
        nxt = RecordingProvider()
        cache = LRUCache(MemoryProvider(), nxt, 10**6, write_through=False)
        cache["aaa/tensor_meta.json"] = b"meta"
        cache["aaa/chunk_id_encoder"] = b"enc"
        cache["aaa/chunks/deadbeef"] = b"chunk"
        cache["dataset_meta.json"] = b"dsmeta"
        cache.flush()
        classes = [
            [K.key_class(k) for k in batch] for batch in nxt.batches if batch
        ]
        flat = [c for batch in classes for c in batch]
        assert flat == sorted(flat), f"unordered flush: {nxt.batches}"
        assert flat[0] == K.KEY_CLASS_CHUNK
        assert flat[-1] == K.KEY_CLASS_META

    def test_crash_between_classes_leaves_only_chunks(self):
        class DiesOnSecondBatch(MemoryProvider):
            def __init__(self):
                super().__init__("dies")
                self.calls = 0

            def set_many(self, items):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("killed")
                super().set_many(items)

        nxt = DiesOnSecondBatch()
        cache = LRUCache(MemoryProvider(), nxt, 10**6, write_through=False)
        cache["t/chunks/c1"] = b"chunk"
        cache["t/chunk_id_encoder"] = b"enc"
        cache["t/tensor_meta.json"] = b"meta"
        with pytest.raises(RuntimeError):
            cache.flush()
        # the chunk blob is durable, the encoder/meta that reference it
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
        # allow exactly one more set_many (the chunk batch), then "die"
        # before the encoder/meta batches land
        storage.kill_after = storage.calls + 1
        with pytest.raises(RuntimeError):
            ds.flush()
        storage.kill_after = None

        new_keys = set(storage._all_keys()) - committed_keys
        assert new_keys, "the chunk batch should have landed before the kill"
        assert all(K.key_class(k) == K.KEY_CLASS_CHUNK for k in new_keys)

        ds2 = repro.load(storage)
        assert ds2.x.num_samples == len(first)
        for i, row in enumerate(first):
            assert np.array_equal(ds2.x[i].numpy(), row)
        # every chunk the reloaded encoder references exists in storage
        eng = ds2._engine("x")
        for row in range(eng.num_samples):
            eng.read_sample(row)


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
        got = engine.read_batch(range(len(model)), aslist=True)
        for have, want in zip(got, model):
            if layout == "sequence":
                assert len(have) == len(want)
                assert all(map(np.array_equal, have, want))
            else:
                assert np.array_equal(have, want)

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
        assert total >= 10
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
    request per dependency class that has something new to say, none per
    flush *call*."""

    def test_flush_writes_one_single_key(self, spent):
        """A flush is one batch per key class — the dataset meta the last
        key of the meta batch, after every tensor meta it names — and at
        most one single PUT: the version tree, last, only when it
        changed."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, ("a", "b", "c"))
        ds._meta.info["note"] = "changed"
        _writes, singles, batches = record_writes(store)
        with spent(store) as reqs:
            ds.flush()  # rows and a dataset meta to write, the same tree
        assert singles == [] and reqs == {"upload_batch": 3}
        assert [{K.key_class(key) for key in batch} for batch in batches] == [
            {K.KEY_CLASS_CHUNK}, {K.KEY_CLASS_ENCODER}, {K.KEY_CLASS_META},
        ]
        assert batches[-1][-1] == K.dataset_meta_key(ds.commit_id)
        with spent(store) as reqs:
            ds.flush()
        assert reqs == {}  # nothing changed: nothing asked of the store
        ds.commit("c")  # the tree changes: its one PUT, after the batches
        assert singles == [K.version_control_info_key()]

    @pytest.mark.parametrize("tensors", [1, 3, 6])
    def test_commit_costs_the_same_at_any_tensor_count(self, tensors, spent):
        """``commit()`` is ONE coordinated flush carrying the sealed head
        and its child: one batch per key class for all tensors and both
        commits together, then the version tree once — never a batch per
        tensor, per commit or per flush call."""
        store = make_object_store("s3", clock=SimClock())
        ds = _int_dataset(store, [f"t{i}" for i in range(tensors)])
        ds._meta.info["note"] = "changed"  # the head's dataset meta too
        _writes, singles, batches = record_writes(store)
        with spent(store) as reqs:
            sealed = ds.commit("c")
        assert reqs == {"upload": 1, "upload_batch": 3}
        assert singles == [K.version_control_info_key()]
        assert [{K.key_class(key) for key in batch} for batch in batches] == [
            {K.KEY_CLASS_CHUNK}, {K.KEY_CLASS_ENCODER}, {K.KEY_CLASS_META},
        ]
        # both commits ride each state batch, both dataset metas last
        child_root = K.commit_root(ds.commit_id)
        for batch in batches[1:]:
            assert {key.startswith(child_root) for key in batch} == {
                True, False
            }
        assert batches[-1][-2:] == [
            K.dataset_meta_key(sealed), K.dataset_meta_key(ds.commit_id),
        ]
        with spent(store) as reqs:
            ds.flush()
        assert reqs == {}

    def test_create_tensor_is_two_round_trips(self, spent):
        """Encoders, then metas (the dataset meta naming the tensor and
        its companions last); the tree did not change."""
        store = make_object_store("s3", clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        with spent(store) as reqs:
            ds.create_tensor("x", dtype="int64")
        assert reqs == {"upload_batch": 2}

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
        budget = {"empty": 3, "create_tensor": 2, "extend": 1, "commit": 4,
                  "flush": 0}
        assert all(n <= budget[label] for label, n in calls), calls
        assert sum(n for _label, n in calls) <= 19, calls  # 32 at PR 23
        assert len(repro.load(store)) == 4 * 96

    def test_the_flush_schedule_changes_no_stored_byte(self, rng):
        """Skipping unchanged writes, merging two commits' batches and
        uploading sealed chunks late change *when* a key is written, never
        what: the ingest script leaves the same keys and bytes as the same
        script flushing after every call — which, like the schedule this
        one replaced, writes every class at every step."""
        images = [smooth_image(rng, 24, 24, 3) for _ in range(40)]

        def ingest(eager):
            seed_ids(7)
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
            for node in tree["commits"].values():
                node["commit_time"] = None  # the one wall-clock value
            return stored, tree

        assert ingest(eager=False) == ingest(eager=True)

    def test_failed_writes_are_not_remembered(self):
        """A flush or commit whose ``set_many`` / tree PUT raises must not
        record the dataset meta or the tree as stored: the next flush
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
        store.fail = lambda keys: any(K.key_class(k) == K.KEY_CLASS_META
                                      for k in keys)
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
    """A chunk modified by ``update`` or an in-place transform joins the
    same buffer a finalized chunk does: it is uploaded by the next
    watermark/flush batch, once, however many of its rows changed."""

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
        (chunk_key,) = [k for k in store.backing._all_keys() if is_chunk(k)]
        written_before = store.stats.bytes_written
        writes, singles, batches = record_writes(store)
        updated = list(range(0, 100, 2)) * 2  # 100 updates, odd rows untouched
        for i in updated:
            ds.x[i] = np.full(128, -i, dtype=np.int64)
        ds.flush()
        assert writes[chunk_key] == 1
        assert not any(is_chunk(k) for k in singles)
        (chunk_batch,) = [b for b in batches if chunk_key in b]
        assert all(is_chunk(k) for k in chunk_batch)
        # about one chunk's worth of bytes, not one chunk per update
        assert store.stats.bytes_written - written_before < 2 * 100 * 1024
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
        chunk_keys = {k for k in store.backing._all_keys() if is_chunk(k)}
        assert 1 < len(chunk_keys) < _WATERMARK_CHUNKS
        writes, singles, _batches = record_writes(store)

        @repro.compute
        def negate(sample_in, sample_out):
            sample_out.append({"x": -sample_in["x"]})

        assert negate().eval(ds) == 10
        assert {k: writes[k] for k in chunk_keys} == dict.fromkeys(
            chunk_keys, 1
        )
        assert not any(is_chunk(k) for k in singles)
        fresh = repro.load(store)
        assert np.array_equal(fresh.x[7].numpy(), np.full(128, -7))


class TestWhereParallelismLives:
    """The rule: the chunk engine runs on its caller's thread; the one
    pool underneath is the encode pool, taken only when staging a batch
    of a sample-compressed tensor."""

    def test_only_sample_compressed_staging_leaves_the_calling_thread(
        self, rng, monkeypatch
    ):
        codec = get_codec("jpeg")
        encode_threads, decode_threads = [], []
        encode, decode = codec.compress, codec.decompress

        def recording_encode(*args, **kwargs):
            encode_threads.append(threading.current_thread().name)
            return encode(*args, **kwargs)

        def recording_decode(*args, **kwargs):
            decode_threads.append(threading.current_thread().name)
            return decode(*args, **kwargs)

        monkeypatch.setattr(codec, "compress", recording_encode)
        monkeypatch.setattr(codec, "decompress", recording_decode)
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
        assert len(values) == 11 and decode_threads == [here] * 11
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
