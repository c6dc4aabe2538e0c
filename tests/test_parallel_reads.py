"""Plan execution, cross-tensor fusion, and server-push prefetch:
byte-identity of plan reads with the appended values across every
compression/layout, fused-plan round-trip accounting against a
one-call-per-tensor yardstick, error propagation out of plan execution,
coordinated multi-tensor flush, and the serving tier's sequential-stride
prefetcher."""

import threading
import time
from collections import Counter

import numpy as np
import pytest

import repro
from repro.core.chunk import Chunk
from repro.core.chunk_engine import PRUNED, ChunkEngine, FusedReadPlan
from repro.core.meta import TensorMeta
from repro.core.version_state import VersionState
from repro.serve.server import DatasetServer
from repro.serve.transport import InprocTransport, SimNetworkTransport
from repro.sim.clock import SimClock
from repro.storage import MemoryProvider, SimulatedObjectStore
from repro.storage.object_store import make_object_store
from repro.util import keys as _keys
from repro.workloads import smooth_image


def make_engine(storage=None, **meta_kwargs):
    if storage is None:
        storage = MemoryProvider()
    meta_kwargs.setdefault("htype", "generic")
    meta = TensorMeta(**meta_kwargs)
    return ChunkEngine("t", storage, VersionState(), meta=meta), storage


def fresh_reader(storage) -> ChunkEngine:
    """Cold-cache engine over already-written storage."""
    return ChunkEngine("t", storage, VersionState())


def assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, list):
            assert isinstance(a, list) and len(a) == len(b)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype
                assert np.array_equal(x, y)
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
        else:
            assert a == b  # PRUNED sentinel / raw bytes


class TestParallelByteIdentity:
    """A cold multi-row read returns exactly what was appended, dtype and
    shape included, in request order."""

    def check(self, storage, rows, model, **kwargs):
        """*model*: the expected value per stored row (``model[row]``)."""
        want = [model[row] for row in rows]
        assert_identical(fresh_reader(storage).read_batch(rows, **kwargs),
                         want)

    def test_uncompressed_many_chunks_randomized(self, rng):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        model = [np.arange(i, i + 4, dtype=np.int64) for i in range(80)]
        engine.extend(model)
        engine.flush()
        rows = rng.permutation(80).tolist() + [3, 3, -1]
        self.check(storage, rows, model)

    def test_jpeg_sample_compression(self, rng):
        from repro.compression import compress_array, decompress_array

        engine, storage = make_engine(
            htype="image", dtype="uint8", sample_compression="jpeg",
            max_chunk_size=16384,
        )
        images = [smooth_image(rng, 40 + (i % 3) * 8, 40, 3)
                  for i in range(12)]
        engine.extend(images)
        engine.flush()
        model = [decompress_array(compress_array(im, "jpeg"), "jpeg")
                 for im in images]
        self.check(storage, rng.permutation(12).tolist(), model)

    def test_lz4_chunk_compression(self, rng):
        engine, storage = make_engine(
            dtype="float32", chunk_compression="lz4", max_chunk_size=2048,
        )
        model = [rng.random(64).astype(np.float32) for _ in range(48)]
        engine.extend(model)
        engine.flush()
        self.check(storage, rng.permutation(48).tolist(), model)

    def test_tiled_samples(self, rng):
        engine, storage = make_engine(dtype="uint8", max_chunk_size=4096)
        model = [rng.integers(0, 255, (128, 96, 3), dtype=np.uint8),
                 rng.integers(0, 255, (64, 64, 3), dtype=np.uint8)]
        engine.extend(model)
        engine.flush()
        self.check(storage, [1, 0, 1], model)

    def test_sequence_rows(self):
        engine, storage = make_engine(
            htype="sequence[generic]", dtype="int64", max_chunk_size=512,
        )
        rows = [[np.arange(i, i + 3, dtype=np.int64)] * (1 + i % 3)
                for i in range(10)]
        engine.extend(rows)
        engine.flush()
        self.check(storage, [9, 0, 4, 4, 7], [np.stack(r) for r in rows])
        self.check(storage, [2, 8, 1], rows, aslist=True)

    def test_padded_rows(self):
        engine, storage = make_engine(dtype="float64")
        engine.append(np.ones(3))
        engine.pad_to(6)
        engine.flush()
        self.check(storage, [0, 3, 5, 0],
                   [np.ones(3)] + [np.zeros((0,))] * 5)

    def test_raw_mode(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        values = [np.arange(i, i + 4, dtype=np.int64) for i in range(30)]
        engine.extend(values)
        engine.flush()
        self.check(storage, [3, 12, 29, 0], [v.tobytes() for v in values],
                   decode=False)

    def test_pruned_cells(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        values = [np.arange(i, i + 4, dtype=np.int64) for i in range(40)]
        engine.extend(values)
        engine.flush()
        reader = fresh_reader(storage)
        rows = [39, 0, 17, 38, 1]
        # value >= 35: only the chunk holding rows 32..39 can match
        plan = reader.plan_reads(rows, bounds=[(35, None, False, False)])
        assert len(plan.skipped_chunks) == 2
        assert plan.pruned.tolist() == [False, True, True, False, True]
        # dense column: the unpruned rows' values, plan.pruned is the truth
        column = reader.execute_plan(plan)
        assert isinstance(column, np.ndarray) and column.shape == (5, 4)
        assert_identical(list(column[~plan.pruned]), [values[39], values[38]])
        assert_identical(reader.execute_plan(plan, aslist=True),
                         [values[39], PRUNED, PRUNED, values[38], PRUNED])


class TestEmptySequenceDtype:
    """Empty sequence spans must come back in the tensor's dtype, not
    float64 (the np.empty((0,)) default)."""

    def test_execute_plan_and_read_sequence_agree(self):
        engine, storage = make_engine(htype="sequence[generic]", dtype="int32")
        engine.append([np.arange(2, dtype=np.int32)] * 2)
        engine.append([])
        engine.flush()
        reader = fresh_reader(storage)
        single = reader.read_sample(1)
        assert single.dtype == np.dtype("int32") and single.shape == (0,)
        batch = reader.read_batch([0, 1])
        assert batch[1].dtype == np.dtype("int32") and batch[1].shape == (0,)


class TestFusedPlanAccounting:
    def _dataset(self, store, n=40):
        ds = repro.Dataset(store)
        ds.create_tensor("a", dtype="uint8", max_chunk_size=4096)
        ds.create_tensor("b", dtype="int64", max_chunk_size=4096)
        ds.create_tensor("c", dtype="float32", max_chunk_size=4096)
        ds.a.extend([np.full((16, 16), i % 250, dtype=np.uint8)
                     for i in range(n)])
        ds.b.extend([np.int64(i) for i in range(n)])
        ds.c.extend([np.full(32, i, dtype=np.float32) for i in range(n)])
        ds.flush()
        return ds

    def test_three_tensors_one_round_trip(self):
        store = make_object_store("s3", bucket="fused-acct")
        self._dataset(store)
        cold = repro.Dataset(store, read_only=True)
        for name in ("a", "b", "c"):  # open engines: meta/encoder reads
            cold._engine(cold._qualify(name))
        before = dict(store.requests_by_op)
        cold.read_rows(list(range(24)), ["a", "b", "c"])
        after = store.requests_by_op
        batches = after.get("download_batch", 0) - before.get(
            "download_batch", 0
        )
        singles = after.get("download", 0) - before.get("download", 0)
        assert batches == 1  # ONE get_many spanning all three tensors
        assert singles == 0

    def test_per_tensor_round_trips_when_disabled(self):
        """The yardstick the fused plan is measured against: the same
        rows read one tensor per call cost one round trip per tensor."""
        store = make_object_store("s3", bucket="fused-acct-off")
        self._dataset(store)
        cold = repro.Dataset(store, read_only=True)
        for name in ("a", "b", "c"):
            cold._engine(cold._qualify(name))
        before = dict(store.requests_by_op)
        for name in ("a", "b", "c"):
            cold.read_rows(list(range(24)), [name])
        after = store.requests_by_op
        batches = after.get("download_batch", 0) - before.get(
            "download_batch", 0
        )
        assert batches == 3

    @pytest.mark.parametrize("consumer", ["serve", "tql"])
    @pytest.mark.parametrize("fused, round_trips", [(True, 1), (False, 3)])
    def test_consumers_share_the_fetch_routine(self, consumer, fused,
                                               round_trips):
        """A served read and a TQL scan window over three tensors are one
        fused fetch; the unfused yardstick is the same rows asked for one
        tensor per call, and shows the same 1-vs-3 for both consumers."""
        store = make_object_store("s3", bucket=f"fused-{consumer}-{fused}")
        self._dataset(store)
        groups = [["a", "b", "c"]] if fused else [["a"], ["b"], ["c"]]
        if consumer == "serve":
            server = DatasetServer(f"fused-{fused}", cache_bytes=0)
            client = server.add_dataset("d", store).connect("d", tenant="t")
            cold = server._served_dataset("d")

            def read():
                for names in groups:
                    client.read_columns(names, list(range(24)))
        else:
            cold = repro.Dataset(store, read_only=True)
            where = {"a": "MEAN(a) >= 0", "b": "b >= 0", "c": "MEAN(c) >= 0"}

            def read():
                for names in groups:
                    cold.query("select * where "
                               + " and ".join(where[n] for n in names))
        for name in ("a", "b", "c"):
            cold._engine(name)
        before = dict(store.requests_by_op)
        read()
        after = store.requests_by_op
        assert after.get("download_batch", 0) - before.get(
            "download_batch", 0
        ) == round_trips
        assert after.get("download", 0) == before.get("download", 0)

    def test_fused_values_match_per_tensor_reads(self, rng):
        store = MemoryProvider("fused-eq")
        ds = self._dataset(store)
        rows = rng.permutation(40).tolist()
        fused = ds.read_rows(rows, ["a", "b", "c"])
        model = {
            "a": [np.full((16, 16), i % 250, dtype=np.uint8) for i in rows],
            "b": [np.array(i, dtype=np.int64) for i in rows],
            "c": [np.full(32, i, dtype=np.float32) for i in rows],
        }
        for name in ("a", "b", "c"):
            assert_identical(fused[name], model[name])
            assert_identical(ds.read_rows(rows, [name])[name], model[name])

    def test_duplicate_tensor_names_share_chunks(self):
        store = MemoryProvider("fused-dup")
        ds = self._dataset(store, n=12)
        engine = ds._engine(ds._qualify("a"))
        fused = FusedReadPlan()
        fused.add(engine, engine.plan_reads([0, 5, 11]))
        fused.add(engine, engine.plan_reads([11, 5, 0]))
        first, second = fused.execute()
        assert np.array_equal(first[0], second[2])
        assert np.array_equal(first[2], second[0])


class TestEngineSingleFlight:
    """Each engine's in-flight table: a chunk another plan is fetching is
    joined, never fetched twice, and a failed fetch fails its joiners."""

    def test_two_worker_epoch_gets_each_chunk_once(self):
        backing = MemoryProvider("single-flight-epoch")
        ds = repro.empty(backing, overwrite=True)
        for name, dtype in (("x", "uint8"), ("y", "int64")):
            ds.create_tensor(name, dtype=dtype, max_chunk_size=16384,
                             create_shape_tensor=False,
                             create_id_tensor=False)
        ds.x.extend([np.full((32, 32), i, dtype=np.uint8) for i in range(96)])
        ds.y.extend([np.int64(i) for i in range(96)])
        ds.flush()
        gets = Counter()
        orig_get = backing._get

        def counting_get(key, start, end):
            if "/chunks/" in key:
                gets[key] += 1
            return orig_get(key, start, end)

        backing._get = counting_get
        # real 5 ms round trips, so the two workers' fetches overlap; the
        # engines' decoded-chunk cache holds the whole dataset
        store = SimulatedObjectStore("single-flight-s3", backing=backing,
                                     clock=SimClock(time_scale=0.25))
        cold = repro.load(store, read_only=True)
        seen = []
        for batch in cold.dataloader(batch_size=16, num_workers=2):
            seen.extend(int(v) for v in np.ravel(batch["y"]))
        assert sorted(seen) == list(range(96))
        num_chunks = sum(cold._engine(name).enc.num_chunks
                         for name in ("x", "y"))
        assert len(gets) == num_chunks > 2
        assert set(gets.values()) == {1}, gets

    def test_failed_leader_hands_its_error_to_followers(self):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.arange(4, dtype=np.int64) + i for i in range(24)])
        engine.flush()
        reader = fresh_reader(storage)
        rows = list(range(24))
        in_fetch, release = threading.Event(), threading.Event()
        boom = OSError("backend down")
        calls = []

        def failing_get_many(keys):
            calls.append(list(keys))
            in_fetch.set()
            release.wait(5)
            raise boom

        orig_get_many = storage.get_many
        storage.get_many = failing_get_many
        errors = {}

        def read(who):
            try:
                reader.read_batch(rows)
            except OSError as e:
                errors[who] = e

        leader = threading.Thread(target=read, args=("leader",))
        leader.start()
        assert in_fetch.wait(5)
        follower = threading.Thread(target=read, args=("follower",))
        follower.start()
        time.sleep(0.1)  # the follower joins every flight of the leader
        release.set()
        leader.join(5)
        follower.join(5)
        assert len(calls) == 1  # the follower fetched nothing itself
        assert errors["leader"] is boom and errors["follower"] is boom
        assert reader._inflight._flights == {}
        retries = []

        def recovered_get_many(keys):  # the backend is back
            retries.append(list(keys))
            return orig_get_many(keys)

        storage.get_many = recovered_get_many
        got = reader.read_batch(rows)
        assert [int(v[0]) for v in got] == rows
        assert retries == calls  # the same chunks, fetched again

    def test_chunk_landed_after_the_residency_check_is_not_fetched(
            self, monkeypatch):
        """Another plan caches the chunks and leaves the table between this
        plan's cache check and its claim: the claim finds them cached."""
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        engine.extend([np.arange(4, dtype=np.int64) + i for i in range(24)])
        engine.flush()
        reader = fresh_reader(storage)
        rows = list(range(24))
        calls = []
        get_many = storage.get_many
        monkeypatch.setattr(storage, "get_many",
                            lambda keys: calls.append(keys) or get_many(keys))
        check, landed = reader._plan_resident_chunks, []

        def check_then_land(plan):
            out = check(plan)
            if not landed:
                landed.append(True)
                reader.read_batch(rows)  # lands every chunk meanwhile
            return out

        monkeypatch.setattr(reader, "_plan_resident_chunks", check_then_land)
        got = reader.read_batch(rows)
        assert [int(v[0]) for v in got] == rows
        assert len(calls) == 1
        assert reader._inflight._flights == {}


class TestDecodeWorkerExceptions:
    def test_corrupt_chunk_raises_same_error_as_serial(self):
        """A corrupt chunk fails a multi-row plan with the error a one-row
        read of that chunk raises."""
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        for i in range(40):
            engine.append(np.arange(i, i + 4, dtype=np.int64))
        engine.flush()
        victim = sorted(k for k in storage._all_keys() if "/chunks/" in k)[1]
        victim_row = next(
            start for name, start, _end in engine.chunk_layout()
            if victim.endswith(name)
        )
        storage[victim] = b"\x00garbage"
        with pytest.raises(Exception) as one_row_exc:
            fresh_reader(storage).read_sample(victim_row)
        with pytest.raises(Exception) as plan_exc:
            fresh_reader(storage).read_batch(list(range(40)))
        assert type(plan_exc.value) is type(one_row_exc.value)

    def test_slicing_error_propagates_from_worker(self, monkeypatch):
        engine, storage = make_engine(dtype="int64", max_chunk_size=256)
        for i in range(40):
            engine.append(np.arange(i, i + 4, dtype=np.int64))
        engine.flush()
        reader = fresh_reader(storage)
        boom = RuntimeError("worker blew up")

        original = Chunk.dense
        calls = []

        def exploding(self, dtype):
            calls.append(self.name)
            if len(calls) == 2:
                raise boom
            return original(self, dtype)

        monkeypatch.setattr(Chunk, "dense", exploding)
        with pytest.raises(RuntimeError, match="worker blew up"):
            reader.read_batch(list(range(40)))


class TestCoordinatedFlush:
    def _record_set_many(self, storage, calls):
        original = storage.set_many

        def recording(items):
            calls.append(sorted(items))
            return original(items)

        storage.set_many = recording

    def test_one_set_many_per_key_class(self):
        storage = MemoryProvider("coflush")
        ds = repro.Dataset(storage)
        ds.create_tensor("x", dtype="int64")
        ds.create_tensor("y", dtype="float32")
        ds.x.extend([np.int64(i) for i in range(8)])
        ds.y.extend([np.float32(i) for i in range(8)])
        calls = []
        self._record_set_many(storage, calls)
        ds.flush()
        assert calls, "coordinated flush must batch through set_many"
        classes = [
            {_keys.key_class(k) for k in batch} for batch in calls
        ]
        # every batch is homogeneous in key class...
        assert all(len(c) == 1 for c in classes)
        order = [c.pop() for c in classes]
        # ...in crash-consistent order: chunks -> encoders -> meta
        assert order == sorted(order)
        assert order[0] == _keys.KEY_CLASS_CHUNK
        # and each class was written ONCE across all engines (x, y and
        # their hidden companions), not once per engine
        assert len(order) == len(set(order)) == 3
        # every engine's chunks landed in the single chunk batch
        chunk_batch = calls[0]
        assert any(k.startswith("x/") for k in chunk_batch)
        assert any(k.startswith("y/") for k in chunk_batch)

    def test_flushed_dataset_reloads_identically(self):
        storage = MemoryProvider("coflush-reload")
        ds = repro.Dataset(storage)
        ds.create_tensor("x", dtype="int64")
        ds.create_tensor("y", dtype="float32")
        ds.x.extend([np.int64(i) for i in range(10)])
        ds.y.extend([np.float32(2 * i) for i in range(10)])
        ds.flush()
        again = repro.Dataset(storage, read_only=True)
        assert np.array_equal(
            np.asarray([v for v in again.x.numpy(aslist=True)]).ravel(),
            np.arange(10),
        )
        assert again.y[7].numpy() == np.float32(14)


class TestServePushPrefetch:
    def _served(self, name, n=256, window=16, labels=None, **server_kwargs):
        store = MemoryProvider(f"{name}-backing")
        ds = repro.Dataset(store)
        ds.create_tensor("images", dtype="uint8", max_chunk_size=4096)
        ds.create_tensor("labels", dtype="int64", max_chunk_size=4096)
        ds.images.extend(
            [np.full((32, 32), i % 250, dtype=np.uint8) for i in range(n)]
        )
        ds.labels.extend([np.int64(i) for i in range(n if labels is None
                                                     else labels)])
        ds.flush()
        server = DatasetServer(name=name, **server_kwargs)
        server.add_dataset("d", store)
        transport = SimNetworkTransport(
            InprocTransport(server), network="s3", clock=SimClock()
        )
        client = server.connect("d", tenant="t1", transport=transport)
        return server, client, window

    def test_sequential_windows_issue_and_hit(self):
        server, client, w = self._served("push-hit")
        for i in range(8):
            client.read_columns(["images", "labels"],
                                list(range(i * w, (i + 1) * w)))
            server.drain_prefetch()
        assert server.prefetch_issued > 0
        assert server.prefetch_hits > 0
        assert server.prefetch_wasted == 0
        # nothing double-counted: every issued chunk is either claimed
        # by a later window or still outstanding
        assert server.prefetch_hits <= server.prefetch_issued

    def test_stride_break_counts_waste(self):
        server, client, w = self._served("push-waste")
        for i in range(4):
            client.read_columns(["images", "labels"],
                                list(range(i * w, (i + 1) * w)))
            server.drain_prefetch()
        issued = server.prefetch_issued
        assert issued > 0
        # jump far away: outstanding speculative chunks are abandoned
        client.read_columns(["images", "labels"], [200, 3, 77])
        server.drain_prefetch()
        assert server.prefetch_wasted > 0
        assert server.prefetch_issued == (
            server.prefetch_hits + server.prefetch_wasted
        )

    def test_random_access_never_prefetches(self):
        server, client, _w = self._served("push-random")
        rng = np.random.default_rng(7)
        for _ in range(6):
            rows = rng.choice(256, size=8, replace=False).tolist()
            client.read_columns(["images", "labels"], rows)
            server.drain_prefetch()
        assert server.prefetch_issued == 0

    def test_server_without_cache_never_speculates(self):
        server, client, w = self._served("push-off", cache_bytes=0)
        for i in range(6):
            client.read_columns(["images", "labels"],
                                list(range(i * w, (i + 1) * w)))
            server.drain_prefetch()
        assert server.prefetch_issued == 0
        assert server._prefetch_pool is None

    def test_prefetched_chunks_resident_in_shared_cache(self):
        server, client, w = self._served("push-resident")
        for i in range(3):
            client.read_columns(["images", "labels"],
                                list(range(i * w, (i + 1) * w)))
            server.drain_prefetch()
        with server._prefetch_lock:
            outstanding = set().union(
                *(t["outstanding"]
                  for t in server._prefetch_trackers.values())
            )
        assert outstanding
        assert all(server.cache.is_cached(f"d\x00{k}") for k in outstanding)

    def test_fused_columns_match_single_tensor_reads(self):
        server, client, w = self._served("push-identity", n=64)
        rows = list(range(10, 30))
        cols = client.read_columns(["images", "labels"], rows)
        imgs = [np.full((32, 32), i % 250, dtype=np.uint8) for i in rows]
        # a scalar sample crosses the wire as one element
        labs = [np.array([i], dtype=np.int64) for i in rows]
        assert_identical(cols["images"], imgs)
        assert_identical(cols["labels"], labs)
        # the single-tensor client call is the one-column form of the same
        assert_identical(client.read_batch("images", rows), imgs)
        assert_identical(client.read_batch("labels", rows), labs)

    def test_stats_snapshot_reports_prefetch(self):
        server, client, w = self._served("push-snap", n=64)
        client.read_columns(["images", "labels"], list(range(w)))
        snap = server.stats_snapshot()
        assert set(snap["prefetch"]) == {"issued", "hits", "wasted"}

    # -- read-ahead window: growth, ledger, bounds ---------------------------

    @staticmethod
    def _read(client, start, count):
        client.read_columns(["images", "labels"],
                            list(range(start, start + count)))

    @staticmethod
    def _tracker(server, tenant="t1"):
        (tracker,) = [t for key, t in server._prefetch_trackers.items()
                      if key[0] == tenant]
        return tracker

    def test_window_doubles_on_hits_and_resets_on_stride_break(self):
        server, client, w = self._served("push-grow")
        steps = []  # (did this request claim read-ahead chunks, window)
        for i in range(6):
            hits = server.prefetch_hits
            self._read(client, i * w, w)
            server.drain_prefetch()
            steps.append((server.prefetch_hits > hits,
                          self._tracker(server)["window"]))
        assert steps[0] == steps[1] == (False, w)  # nothing read ahead yet
        for (hit, window), (_hit, before) in zip(steps[1:], steps):
            assert window == (2 * before if hit else before)
        assert steps[-1][1] == 16 * w
        self._read(client, 200, 8)  # stride break: back to one request
        assert self._tracker(server)["window"] == 8
        self._read(client, 208, 8)  # a new run, nothing claimed yet
        server.drain_prefetch()
        assert self._tracker(server)["window"] == 8

    def test_issued_is_hits_plus_wasted_plus_outstanding(self):
        server, client, w = self._served("push-ledger")

        def balanced() -> bool:
            with server._prefetch_lock:
                outstanding = sum(len(t["outstanding"])
                                  for t in server._prefetch_trackers.values())
                return server.prefetch_issued == (
                    server.prefetch_hits + server.prefetch_wasted
                    + outstanding)

        for window in [0, 1, 2, 3, 4, 9, 10, 11, 12, 2, 3, 4, 15]:
            self._read(client, window * w, w)
            assert balanced()  # a landing task updates all three at once
            server.drain_prefetch()
            assert balanced()
        assert server.prefetch_hits > 0 and server.prefetch_wasted > 0

    def test_read_ahead_never_plans_past_the_tensor_end(self, monkeypatch):
        """Nor past either tensor's end when their lengths differ."""
        server, client, _w = self._served("push-end", n=100, labels=90)
        planned = {}
        plan_reads = ChunkEngine.plan_reads

        def spy(engine, rows, *args, **kwargs):
            planned[engine.tensor] = max(planned.get(engine.tensor, 0),
                                         max(rows))
            return plan_reads(engine, rows, *args, **kwargs)

        monkeypatch.setattr(ChunkEngine, "plan_reads", spy)
        for start in range(0, 90, 10):
            self._read(client, start, 10)
            server.drain_prefetch()
        assert server.prefetch_hits > 0
        assert planned == {"images": 99, "labels": 89}
        assert self._tracker(server)["ahead_end"] == 100
        assert server._prefetch_errors.value == 0

    def test_read_ahead_bytes_stay_within_half_the_cache(self):
        """Two sequential tenants share one read-ahead budget, half the
        cache, whatever their windows would grow to unchecked."""
        budget = 64 * 1024
        server, client, w = self._served("push-budget", n=512,
                                         cache_bytes=2 * budget)
        other = server.connect("d", tenant="t2", transport=SimNetworkTransport(
            InprocTransport(server), network="s3", clock=SimClock()))
        backing = server._backend("d")

        def outstanding_bytes() -> int:
            with server._prefetch_lock:
                assert server._ahead_bytes <= budget
                keys = [key for t in server._prefetch_trackers.values()
                        for key in t["outstanding"]]
            return sum(len(backing[key]) for key in keys)

        for i in range(14):
            self._read(client, i * w, w)
            self._read(other, 256 + i * w, w)
            assert outstanding_bytes() <= budget
            if i % 3 == 2:
                server.drain_prefetch()
                assert outstanding_bytes() <= budget
        server.drain_prefetch()
        assert 0 < outstanding_bytes() <= budget
        assert server.prefetch_hits > 0
        # a row costs over 1 KiB (a 32x32 uint8 image + its label)
        for tenant in ("t1", "t2"):
            assert w < self._tracker(server, tenant)["window"] < budget // 1024

    def test_stopped_stream_frees_its_read_ahead(self):
        """Tenant t1 streams until its read-ahead holds all the budget it
        can and stops; tenant t2's stream then holds more than t1 left."""
        budget = 64 * 1024
        server, client, w = self._served("push-stopped", n=512,
                                         cache_bytes=2 * budget)
        other = server.connect("d", tenant="t2", transport=SimNetworkTransport(
            InprocTransport(server), network="s3", clock=SimClock()))

        def held(tenant) -> int:
            return sum(self._tracker(server, tenant)["outstanding"].values())

        for i in range(12):
            self._read(client, i * w, w)
            server.drain_prefetch()
        # what t1 leaves a stream like it (a task also reserves its slack)
        left = budget - held("t1") - self._tracker(server)["slack"]
        hits = server.prefetch_hits
        assert self._tracker(server)["window"] > w and left < budget // 4
        for i in range(12):
            self._read(other, 256 + i * w, w)
            server.drain_prefetch()
        assert held("t1") == 0 and server.prefetch_wasted > 0
        assert held("t2") > left and server.prefetch_hits > hits
        assert server._ahead_bytes == held("t2")  # the ledger, drained

    def test_task_landing_after_a_stride_break_is_wasted(self):
        server, client, w = self._served("push-late")
        backing, gate = server._backend("d"), threading.Event()
        get_many = backing.get_many

        def held_on_prefetch_threads(keys):
            if threading.current_thread().name.startswith("push-late-"):
                assert gate.wait(5)
            return get_many(keys)

        backing.get_many = held_on_prefetch_threads
        for i in range(2):  # the second window sends a task, held above
            self._read(client, i * w, w)
        self._read(client, 200, 8)  # the stride breaks while it flies
        gate.set()
        server.drain_prefetch()
        assert self._tracker(server)["outstanding"] == {}
        assert server._ahead_bytes == 0
        assert server.prefetch_issued == server.prefetch_wasted > 0

    def test_read_ahead_fetched_again_is_counted_once(self):
        """A read-ahead chunk that left the engine's cache unclaimed and is
        fetched again: its first copy counts as wasted, its bytes once."""
        server, client, w = self._served("push-refetch")
        for i in range(2):
            self._read(client, i * w, w)
            server.drain_prefetch()
        tr, ds = self._tracker(server), server._served_dataset("d")
        first = dict(tr["outstanding"])
        assert first
        for name in ("images", "labels"):
            for key in first:
                ds._engine(name)._cache_drop(key)
        tr["inflight"] = 0  # what the tracker reserves, as for a new task
        server._prefetch_window(tr, ds, ("images", "labels"), 2 * w,
                                tr["ahead_end"])
        assert tr["outstanding"] == first
        assert server._ahead_bytes == sum(first.values())
        assert server.prefetch_wasted == len(first)
        assert server.prefetch_issued == (
            server.prefetch_hits + server.prefetch_wasted + len(first))

    def test_removed_dataset_frees_its_read_ahead(self):
        server, client, w = self._served("push-removed")
        for i in range(4):
            self._read(client, i * w, w)
            server.drain_prefetch()
        assert self._tracker(server)["outstanding"]
        server.remove_dataset("d")
        assert server._prefetch_trackers == {} and server._ahead_bytes == 0
        assert server.prefetch_wasted > 0
        assert server.prefetch_issued == (
            server.prefetch_hits + server.prefetch_wasted)

    def test_failed_speculation_is_counted_not_raised(self):
        server, client, w = self._served("push-error")
        backing = server._backend("d")
        get = backing._get

        def failing_on_prefetch_threads(key, start, end):
            if threading.current_thread().name.startswith("push-error-"):
                raise OSError("backend hiccup")
            return get(key, start, end)

        backing._get = failing_on_prefetch_threads
        for i in range(4):
            self._read(client, i * w, w)
            server.drain_prefetch()  # the error never reaches a caller
        assert server._prefetch_errors.value == 3  # windows 2, 3 and 4
        assert server.prefetch_issued == 0
        assert server._ahead_bytes == 0


class TestLoaderPrioritySweep:
    def test_one_batched_shape_lookup_per_epoch(self, monkeypatch, rng, spent):
        backing = MemoryProvider("prio")
        ds = repro.empty(backing, overwrite=True)
        ds.create_tensor("x", dtype="float64", max_chunk_size=256)
        for i in range(32):  # ragged: priorities differ chunk to chunk
            ds.x.append(rng.random(4 + (i % 5) + i // 8))
        ds.flush()
        store = make_object_store("s3", backing=backing)
        cold = repro.load(store, read_only=True)
        engine = cold._engine(cold._qualify("x"))
        assert engine.enc.num_chunks > 2
        calls = []
        monkeypatch.setattr(
            type(engine), "read_shapes_batch",
            lambda self, rows: calls.append(list(rows)),
        )
        loader = cold.dataloader(batch_size=4, num_workers=2)
        with spent(store) as reqs:
            priority_of = loader._make_priority_fn()
            priorities = [priority_of((row, row + 1)) for row in range(0, 32, 2)]
        # ranked from the stats sidecar already in memory: no request at all
        assert reqs == {}
        assert len(set(priorities)) > 1
        assert priorities[-1] == 8.0 * (4 + 4 + 3)  # widest row of its chunk
        assert sum(len(b["x"]) for b in loader) == 32
        assert calls == []
