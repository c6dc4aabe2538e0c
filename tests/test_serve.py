"""Tensor Streaming Server: protocol, shared cache, single-flight dedup,
request coalescing, admission control, serve:// integration."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.exceptions import (
    AdmissionError,
    KeyNotFound,
    ServeError,
    UnknownDatasetError,
)
from repro.serve import (
    DatasetServer,
    InprocTransport,
    RemoteStorageProvider,
    SimNetworkTransport,
    ThreadedTransport,
    clear_servers,
)
from repro.sim import SimClock, run_concurrent_clients
from repro.storage import (
    MemoryProvider,
    SimulatedObjectStore,
    storage_from_url,
)


@pytest.fixture(autouse=True)
def _no_leftover_servers():
    clear_servers()
    yield
    clear_servers()


class SlowStore(MemoryProvider):
    """Memory store whose reads block, to force request overlap."""

    def __init__(self, delay_s: float):
        super().__init__("slow")
        self.delay_s = delay_s

    def _get(self, key, start, end):
        time.sleep(self.delay_s)
        return super()._get(key, start, end)


def build_image_dataset(storage, n=16, seed=0):
    rng = np.random.default_rng(seed)
    ds = repro.empty(storage, overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="jpeg")
    ds.create_tensor("labels", htype="class_label", chunk_compression="lz4")
    for i in range(n):
        ds.append({
            "images": rng.integers(0, 255, (24, 24, 3), dtype=np.uint8),
            "labels": np.int32(i % 4),
        })
    ds.flush()
    return ds


def serve_backing(backing, **server_kwargs):
    """Server hosting *backing* behind a GET-counting simulated S3."""
    backend = SimulatedObjectStore("s3", clock=SimClock(), backing=backing)
    server = DatasetServer(name="test-server", **server_kwargs)
    server.add_dataset("ds", backend)
    return server, backend


# --------------------------------------------------------------------------- #
# byte identity (acceptance a)
# --------------------------------------------------------------------------- #


class TestServedReads:
    def test_served_read_byte_identical(self):
        backing = MemoryProvider("bkt")
        build_image_dataset(backing, n=12)
        server, _ = serve_backing(backing)
        with server:
            remote = repro.load("serve://test-server/ds", read_only=True)
            direct = repro.load(backing, read_only=True)
            np.testing.assert_array_equal(
                remote.tensors["labels"].numpy(),
                direct.tensors["labels"].numpy(),
            )
            for i in (0, 5, 11):
                np.testing.assert_array_equal(
                    remote.tensors["images"][i].numpy(),
                    direct.tensors["images"][i].numpy(),
                )
            # raw blob identity through the provider interface
            provider = server.connect("ds")
            for key in sorted(backing._all_keys()):
                assert provider[key] == backing[key]

    def test_tql_and_loader_run_unmodified(self):
        backing = MemoryProvider("bkt")
        build_image_dataset(backing, n=16)
        server, _ = serve_backing(backing)
        with server:
            remote = repro.connect("serve://test-server/ds")
            view = remote.query("SELECT * WHERE labels == 2")
            assert len(view) == 4
            loader = remote.dataloader(batch_size=4, num_workers=2)
            seen = sum(len(b["labels"]) for b in loader)
            assert seen == 16

    def test_cold_open_of_a_served_dataset_is_batched(self, spent):
        """The server's own first read and a tenant's ``repro.load`` both
        open the dataset through batches: version tree, dataset metas,
        every requested tensor's state, the chunks (+ the tenant's
        ``exists`` probe)."""
        backing = MemoryProvider("bkt")
        ds = build_image_dataset(backing, n=8)
        ds.commit("one")  # a history: state sits in two commits
        ds.extend({
            "images": [np.zeros((24, 24, 3), dtype=np.uint8)] * 8,
            "labels": [np.int32(1)] * 8,
        })
        ds.flush()
        server, backend = serve_backing(backing)
        client = server.connect("ds", tenant="columns")
        with spent(backend) as reqs:
            columns = client.read_columns(["images", "labels"], range(16))
        np.testing.assert_array_equal(
            np.concatenate(columns["labels"]), ds.labels.numpy()
        )
        assert sum(reqs.values()) <= 4, reqs

        server, _backend = serve_backing(backing)  # cold again
        with server:
            remote = repro.load("serve://opener@test-server/ds")
            got = remote.read_rows(range(16), ["images", "labels"])
            assert np.array_equal(got["images"][15], np.zeros((24, 24, 3)))
            tenant = server.stats_snapshot()["tenants"]["opener"]
        assert tenant["requests"] <= 5

    def test_ranged_reads_match(self):
        backing = MemoryProvider("bkt")
        backing["blob"] = bytes(range(256)) * 4
        server, _ = serve_backing(backing)
        provider = server.connect("ds")
        assert provider.get_bytes("blob", 10, 20) == backing.get_bytes(
            "blob", 10, 20
        )
        assert provider.get_bytes("blob", -16, None) == backing.get_bytes(
            "blob", -16, None
        )

    def test_missing_key_raises_key_not_found(self):
        server, _ = serve_backing(MemoryProvider("bkt"))
        provider = server.connect("ds")
        with pytest.raises(KeyNotFound):
            provider["ghost"]
        assert "ghost" not in provider

    def test_unknown_dataset_error(self):
        server, _ = serve_backing(MemoryProvider("bkt"))
        provider = server.connect("nope")
        with pytest.raises(UnknownDatasetError, match="does not host"):
            provider["k"]


# --------------------------------------------------------------------------- #
# shared cache + single-flight (acceptance b)
# --------------------------------------------------------------------------- #


class TestSharedCache:
    def test_concurrent_clients_dedup_backend_gets(self):
        """8 concurrent clients over overlapping chunks: backend GETs are
        strictly fewer than total client requests (shared cache +
        single-flight)."""
        backing = MemoryProvider("bkt")
        build_image_dataset(backing, n=16)
        server, backend = serve_backing(backing)

        def client(client_id: int) -> int:
            provider = server.connect("ds", tenant=f"tenant-{client_id}")
            ds = repro.load(provider, read_only=True)
            labels = ds.tensors["labels"].numpy()
            images = ds.tensors["images"].numpy(aslist=True)
            return len(labels) + len(images)

        report = run_concurrent_clients(8, client)
        report.raise_errors()
        assert report.total_samples == 8 * 32

        stats = server.stats_snapshot()
        total_client_requests = sum(
            t["requests"] for t in stats["tenants"].values()
        )
        backend_gets = backend.stats.get_requests
        assert total_client_requests > 0
        assert backend_gets < total_client_requests
        # the cache is large enough that each blob is fetched at most once
        assert backend_gets <= len(backing._all_keys())

    def test_single_flight_one_backend_get(self):
        slow = SlowStore(0.15)
        slow["chunk"] = b"x" * 1000
        server, backend = serve_backing(slow)
        results = []
        errors = []
        barrier = threading.Barrier(8)

        def reader():
            provider = server.connect("ds")
            barrier.wait()
            try:
                results.append(provider["chunk"])
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert results == [b"x" * 1000] * 8
        assert backend.stats.get_requests == 1
        coalesced = sum(
            t["coalesced"]
            for t in server.stats_snapshot()["tenants"].values()
        )
        assert coalesced == 7

    def test_range_requests_coalesce_into_one_chunk_get(self):
        backing = MemoryProvider("bkt")
        backing["chunk"] = bytes(range(200)) * 5
        server, backend = serve_backing(backing)
        provider = server.connect("ds")
        for i in range(10):
            expected = backing.get_bytes("chunk", i * 50, i * 50 + 50)
            assert provider.get_bytes("chunk", i * 50, i * 50 + 50) == expected
        # one full-chunk backend GET served all ten sub-ranges
        assert backend.stats.get_requests == 1

    def test_oversize_blob_falls_back_to_ranged_reads(self):
        backing = MemoryProvider("bkt")
        backing["big"] = bytes(range(256)) * 8  # 2048 B
        server, backend = serve_backing(backing, cache_bytes=512)
        provider = server.connect("ds")
        assert provider.get_bytes("big", 0, 10) == backing.get_bytes(
            "big", 0, 10
        )
        backend.stats.reset()
        # further ranged reads go straight through as ranged GETs
        assert provider.get_bytes("big", 100, 110) == backing.get_bytes(
            "big", 100, 110
        )
        assert backend.stats.get_requests == 1
        assert backend.stats.bytes_read == 10

    def test_get_many_batches_one_round_trip(self):
        backing = MemoryProvider("bkt")
        backing["a"] = b"1"
        backing["b"] = b"22"
        backing["c"] = b"333"
        server, _ = serve_backing(backing)
        provider = server.connect("ds", tenant="batcher")
        blobs = provider.get_many(["a", "b", "c", "missing"])
        assert blobs == {"a": b"1", "b": b"22", "c": b"333"}
        tenant = server.stats_snapshot()["tenants"]["batcher"]
        assert tenant["requests"] == 1

    def test_cold_get_many_is_one_backend_round_trip(self):
        backing = MemoryProvider("bkt")
        keys = [f"x/chunks/{i:016x}" for i in range(8)]
        for i, key in enumerate(keys):
            backing[key] = bytes([i]) * 500
        server, backend = serve_backing(backing)
        provider = server.connect("ds", tenant="batcher")
        expected = {key: backing[key] for key in keys}
        assert provider.get_many(keys) == expected
        assert backend.requests_by_op == {"download_batch": 1}
        tenant = server.stats_snapshot()["tenants"]["batcher"]
        assert (tenant["cache_misses"], tenant["cache_hits"]) == (8, 0)
        # warm: served from the shared cache, the backend hears nothing
        assert provider.get_many(keys) == expected
        assert backend.requests_by_op == {"download_batch": 1}
        tenant = server.stats_snapshot()["tenants"]["batcher"]
        assert (tenant["cache_misses"], tenant["cache_hits"]) == (8, 8)
        assert tenant["requests"] == 2 and tenant["coalesced"] == 0

    def test_get_many_without_a_cache_is_one_backend_batch(self):
        backing = MemoryProvider("bkt")
        backing["a"], backing["b"] = b"1", b"22"
        server, backend = serve_backing(backing, cache_bytes=0)
        provider = server.connect("ds", tenant="t")
        for _ in range(2):
            assert provider.get_many(["a", "b", "gone"]) == {
                "a": b"1", "b": b"22"
            }
        assert backend.requests_by_op == {"download_batch": 2}
        assert server.stats_snapshot()["tenants"]["t"]["cache_misses"] == 4

    def test_single_flight_get_many_fetches_each_key_once(self):
        """The 8-client stampede, batched: overlapping ``get_many`` calls
        lead the keys nobody is fetching and join the rest."""
        slow = SlowStore(0.05)
        keys = [f"chunk{i}" for i in range(4)]
        for key in keys:
            slow[key] = key.encode() * 100
        server, backend = serve_backing(slow)
        results = []
        errors = []
        barrier = threading.Barrier(8)

        def reader(i):
            provider = server.connect("ds", tenant=f"t{i}")
            mine = keys if i % 2 else keys[::-1][:3]
            barrier.wait()
            try:
                results.append((mine, provider.get_many(mine)))
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors and len(results) == 8
        for mine, blobs in results:
            assert blobs == {key: slow[key] for key in mine}
        assert backend.stats.get_requests == len(keys)
        tenants = server.stats_snapshot()["tenants"].values()
        assert sum(t["coalesced"] for t in tenants) > 0
        # every key of every request is a hit (coalesced ones included)
        # or a miss, exactly once
        assert sum(
            t["cache_hits"] + t["cache_misses"] for t in tenants
        ) == sum(len(mine) for mine, _blobs in results)
        assert sum(t["cache_misses"] for t in tenants) == len(keys)

    def test_concurrent_read_batch_joins_count_as_coalesced(self):
        """Two ``read_batch`` calls over one cold window: the second joins
        every chunk fetch of the first, and each joined chunk key counts
        for its tenant as a hit and as coalesced, the way a ``get_many``
        join does."""
        backing = MemoryProvider("bkt")
        build_image_dataset(backing, n=16)
        in_fetch = threading.Event()
        release = threading.Event()
        orig_get = backing._get
        fetched = []

        def gated_get(key, start, end):
            if "/chunks/" in key:
                fetched.append(key)
                in_fetch.set()
                release.wait(5)
            return orig_get(key, start, end)

        backing._get = gated_get
        server = DatasetServer(name="join-server")
        server.add_dataset("ds", backing)
        rows = list(range(8))
        results = {}

        def read(tenant):
            results[tenant] = server.connect("ds", tenant=tenant).read_columns(
                ["images", "labels"], rows)

        first = threading.Thread(target=read, args=("first",))
        first.start()
        assert in_fetch.wait(5)  # the first request leads the chunk fetch
        second = threading.Thread(target=read, args=("second",))
        second.start()
        time.sleep(0.1)  # the second request joins the flights
        release.set()
        first.join(5)
        second.join(5)
        window_chunks = 2  # one chunk per tensor holds all 16 rows
        assert len(fetched) == window_chunks  # one backend GET per chunk
        for name in ("images", "labels"):
            for a, b in zip(results["first"][name], results["second"][name]):
                np.testing.assert_array_equal(a, b)
        tenants = server.stats_snapshot()["tenants"]
        assert tenants["second"]["coalesced"] == window_chunks
        assert tenants["second"]["cache_hits"] == window_chunks
        assert tenants["first"]["coalesced"] == 0

    def test_put_racing_inflight_get_many_is_never_served_stale(self):
        """The ``_Flight.stale`` path through the batch: a ``get_many``
        issued after a put ack joins the pre-write flight, must not get
        its bytes, and the pre-write blob must not stay cached."""
        backing = MemoryProvider("bkt")
        backing["k"], backing["other"] = b"v1", b"o1"
        in_fetch = threading.Event()
        release = threading.Event()
        orig_get = backing._get

        def gated_get(key, start, end):
            data = orig_get(key, start, end)
            in_fetch.set()
            release.wait(5)
            return data

        backing._get = gated_get
        server = DatasetServer(name="batch-race-server")
        server.add_dataset("ds", backing)
        leader_result = []
        follower_result = []

        def leader():
            leader_result.append(
                server.connect("ds").get_many(["k", "other"])
            )

        t = threading.Thread(target=leader)
        t.start()
        assert in_fetch.wait(5)  # the leader's batch is in flight
        backing._get = orig_get  # later fetches are instant
        server.connect("ds", tenant="w")["k"] = b"v2"  # put acked

        def follower():
            follower_result.append(
                server.connect("ds").get_many(["k", "other"])
            )

        f = threading.Thread(target=follower)
        f.start()
        time.sleep(0.1)  # follower joins the still-stale flight of "k"
        release.set()
        t.join(5)
        f.join(5)
        # started before the write: may see the old blob
        assert leader_result == [{"k": b"v1", "other": b"o1"}]
        # started after the ack: fresh, the untouched key just coalesced
        assert follower_result == [{"k": b"v2", "other": b"o1"}]
        reader = server.connect("ds", tenant="reader")
        assert reader.get_many(["k"]) == {"k": b"v2"}
        assert reader["k"] == b"v2"  # and stays fresh on the cached path

    def test_put_during_inflight_fetch_does_not_cache_stale(self):
        """A write racing an in-flight miss fetch must not leave the
        pre-write blob resident in the shared cache."""
        backing = MemoryProvider("bkt")
        backing["k"] = b"v1"
        in_fetch = threading.Event()
        release = threading.Event()
        orig_get = backing._get

        def gated_get(key, start, end):
            data = orig_get(key, start, end)
            in_fetch.set()
            release.wait(5)
            return data

        backing._get = gated_get
        server = DatasetServer(name="race-server")
        server.add_dataset("ds", backing)
        reader = server.connect("ds", tenant="reader")
        writer = server.connect("ds", tenant="writer")
        results = []
        t = threading.Thread(target=lambda: results.append(reader["k"]))
        t.start()
        assert in_fetch.wait(5)  # reader's backend fetch is in flight
        writer["k"] = b"v2"      # write lands mid-fetch
        release.set()
        t.join(5)
        assert results == [b"v1"]  # the concurrent read may see the old blob
        # ...but the stale blob must not have stuck in the shared cache
        assert reader["k"] == b"v2"
        assert reader["k"] == b"v2"  # and stays fresh on the cached path

    def test_get_after_put_never_joins_stale_flight(self):
        """A get issued *after* a put ack must not receive pre-write bytes
        by joining a fetch that started before the write."""
        backing = MemoryProvider("bkt")
        backing["k"] = b"v1"
        in_fetch = threading.Event()
        release = threading.Event()
        orig_get = backing._get

        def gated_get(key, start, end):
            data = orig_get(key, start, end)
            in_fetch.set()
            release.wait(5)
            return data

        backing._get = gated_get
        server = DatasetServer(name="raw-server")
        server.add_dataset("ds", backing)
        leader_result = []
        follower_result = []

        def leader():
            leader_result.append(server.connect("ds")["k"])

        t = threading.Thread(target=leader)
        t.start()
        assert in_fetch.wait(5)
        backing._get = orig_get          # later fetches are instant
        server.connect("ds", tenant="w")["k"] = b"v2"  # put acked

        def follower():
            follower_result.append(server.connect("ds")["k"])

        f = threading.Thread(target=follower)
        f.start()
        time.sleep(0.1)  # follower joins the still-stale flight
        release.set()
        t.join(5)
        f.join(5)
        assert leader_result == [b"v1"]    # started before the write: ok
        assert follower_result == [b"v2"]  # started after the ack: fresh

    def test_put_invalidates_shared_cache(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"old"
        server, _ = serve_backing(backing)
        reader = server.connect("ds", tenant="reader")
        writer = server.connect("ds", tenant="writer")
        assert reader["k"] == b"old"  # now cached server-side
        writer["k"] = b"new"
        assert reader["k"] == b"new"
        assert backing["k"] == b"new"
        del writer["k"]
        with pytest.raises(KeyNotFound):
            reader["k"]


# --------------------------------------------------------------------------- #
# admission control + tenant stats
# --------------------------------------------------------------------------- #


class TestAdmission:
    def test_per_tenant_inflight_limit(self):
        slow = SlowStore(0.3)
        slow["a"] = b"1"
        slow["b"] = b"2"
        server, _ = serve_backing(slow, max_inflight_per_tenant=1)
        provider = server.connect("ds", tenant="greedy")
        outcomes = []
        barrier = threading.Barrier(2)

        def fetch(key):
            barrier.wait()
            try:
                outcomes.append(provider[key])
            except AdmissionError as e:
                outcomes.append(e)

        threads = [
            threading.Thread(target=fetch, args=(k,)) for k in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        rejected = [o for o in outcomes if isinstance(o, AdmissionError)]
        served = [o for o in outcomes if isinstance(o, bytes)]
        assert len(rejected) == 1 and len(served) == 1
        stats = server.stats_snapshot()["tenants"]["greedy"]
        assert stats["rejected"] == 1

    def test_other_tenants_unaffected_by_limit(self):
        slow = SlowStore(0.2)
        slow["a"] = b"1"
        server, _ = serve_backing(slow, max_inflight_per_tenant=1)
        a = server.connect("ds", tenant="a")
        b = server.connect("ds", tenant="b")
        results = []
        barrier = threading.Barrier(2)

        def fetch(provider):
            barrier.wait()
            results.append(provider["a"])

        threads = [
            threading.Thread(target=fetch, args=(p,)) for p in (a, b)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == [b"1", b"1"]

    def test_stats_accounting(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"payload"
        server, _ = serve_backing(backing)
        provider = server.connect("ds", tenant="alice")
        _ = provider["k"]
        _ = provider["k"]
        info = provider.server_stats()
        tenant = info["tenants"]["alice"]
        assert tenant["requests"] == 3  # 2 gets + the stats call
        assert tenant["cache_hits"] == 1
        assert tenant["cache_misses"] == 1
        assert tenant["bytes_out"] > 0
        assert info["cache"]["hits"] >= 1


# --------------------------------------------------------------------------- #
# transports + lifecycle
# --------------------------------------------------------------------------- #


class TestTransports:
    def test_threaded_transport_serves(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"v"
        server, _ = serve_backing(backing)
        transport = ThreadedTransport(server, num_workers=2)
        try:
            provider = RemoteStorageProvider(transport, "ds")
            assert provider["k"] == b"v"
        finally:
            transport.close()

    def test_threaded_shutdown_cancels_instead_of_deadlocking(self):
        slow = SlowStore(0.5)
        slow["k"] = b"v"
        server, _ = serve_backing(slow)
        transport = ThreadedTransport(server, num_workers=1, timeout_s=10)
        provider = RemoteStorageProvider(transport, "ds")
        outcomes = []
        started = threading.Event()

        def occupant():
            started.set()
            try:
                outcomes.append(("value", provider["k"]))
            except ServeError as e:
                outcomes.append(("error", e))

        def queued():
            started.wait()
            time.sleep(0.1)  # let the first request occupy the worker
            try:
                outcomes.append(("value", provider["k"]))
            except ServeError as e:
                outcomes.append(("error", e))

        threads = [
            threading.Thread(target=occupant),
            threading.Thread(target=queued),
        ]
        for t in threads:
            t.start()
        started.wait()
        time.sleep(0.2)  # first in-flight, second queued behind it
        transport.close()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads), "client deadlocked"
        assert len(outcomes) == 2
        # the in-flight request completed; the queued one was cancelled
        kinds = sorted(k for k, _ in outcomes)
        assert kinds == ["error", "value"]

    def test_full_request_queue_rejects_fast(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"v"
        in_fetch = threading.Event()
        gate = threading.Event()
        orig_get = backing._get

        def gated_get(key, start, end):
            in_fetch.set()
            gate.wait(10)
            return orig_get(key, start, end)

        backing._get = gated_get
        server, _ = serve_backing(backing)
        transport = ThreadedTransport(server, num_workers=1, max_pending=2)
        provider = RemoteStorageProvider(transport, "ds")
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(provider["k"]))
            for _ in range(3)
        ]
        try:
            threads[0].start()
            assert in_fetch.wait(5)  # the only worker is now blocked
            for t in threads[1:]:    # exactly fill the queue (max_pending=2)
                t.start()
            deadline = time.time() + 5
            while transport._pool.pending() < 2 and time.time() < deadline:
                time.sleep(0.005)
            assert transport._pool.pending() == 2
            t0 = time.time()
            with pytest.raises(AdmissionError, match="queue full"):
                provider["k"]
            assert time.time() - t0 < 0.5  # rejected fast, not queued
        finally:
            gate.set()
            for t in threads:
                t.join(timeout=10)
            transport.close()
        assert results == [b"v"] * 3  # admitted requests were all served

    def test_reply_timeout_surfaces_as_serve_error(self):
        slow = SlowStore(0.5)
        slow["k"] = b"v"
        server, _ = serve_backing(slow)
        transport = ThreadedTransport(server, num_workers=1, timeout_s=0.05)
        try:
            provider = RemoteStorageProvider(transport, "ds")
            with pytest.raises(ServeError, match="no reply"):
                provider["k"]
        finally:
            transport.close()

    def test_requests_after_close_fail_fast(self):
        server, _ = serve_backing(MemoryProvider("bkt"))
        transport = ThreadedTransport(server, num_workers=1)
        transport.close()
        provider = RemoteStorageProvider(transport, "ds")
        with pytest.raises(ServeError):
            provider["k"]

    def test_sim_network_transport_charges_clock(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"x" * 1000
        server, _ = serve_backing(backing)
        clock = SimClock()
        transport = SimNetworkTransport(
            InprocTransport(server), network="minio", clock=clock
        )
        provider = RemoteStorageProvider(transport, "ds")
        assert provider["k"] == b"x" * 1000
        charged = clock.breakdown()
        assert charged.get("serve-request", 0) > 0
        assert charged.get("serve-response", 0) > charged["serve-request"]


# --------------------------------------------------------------------------- #
# api.py + registry integration
# --------------------------------------------------------------------------- #


class TestServeApi:
    def test_serve_and_connect_roundtrip(self):
        ds = build_image_dataset(storage_from_url("s3-sim://svbkt/ds"), n=8)
        server = repro.serve({"ds": "s3-sim://svbkt/ds"}, name="api-srv")
        try:
            remote = repro.connect("serve://api-srv/ds")
            np.testing.assert_array_equal(
                remote.tensors["labels"].numpy(),
                ds.tensors["labels"].numpy(),
            )
            assert remote.read_only
        finally:
            server.stop()

    def test_serve_accepts_open_dataset(self, mem_ds):
        mem_ds.create_tensor("x", dtype="int64")
        mem_ds.append({"x": np.int64(7)})
        server = repro.serve({"d": mem_ds}, name="obj-srv")
        try:
            remote = repro.connect("serve://obj-srv/d")
            assert int(remote.tensors["x"][0].numpy()) == 7
        finally:
            server.stop()

    def test_connect_rejects_non_serve_urls(self):
        with pytest.raises(repro.DeepLakeError, match="serve://"):
            repro.connect("mem://whatever")

    def test_connect_default_read_only_blocks_writes(self):
        backing = MemoryProvider("bkt")
        build_image_dataset(backing, n=4)
        server, _ = serve_backing(backing)
        with server:
            remote = repro.connect("serve://test-server/ds")
            with pytest.raises(repro.DeepLakeError):
                remote.append({"labels": np.int32(0)})

    def test_writable_connection_writes_through(self):
        backing = MemoryProvider("bkt")
        build_image_dataset(backing, n=4)
        server, _ = serve_backing(backing)
        with server:
            remote = repro.connect("serve://test-server/ds",
                                   read_only=False)
            remote.append({
                "images": np.zeros((8, 8, 3), dtype=np.uint8),
                "labels": np.int32(1),
            })
            remote.flush()
        fresh = repro.load(backing, read_only=True)
        assert len(fresh.tensors["labels"]) == 5

    def test_duplicate_server_name_rejected(self):
        s1 = DatasetServer(name="dup").start()
        try:
            with pytest.raises(ServeError, match="already running"):
                DatasetServer(name="dup").start()
        finally:
            s1.stop()

    def test_failed_duplicate_start_leaks_no_worker_threads(self):
        s1 = DatasetServer(name="dup").start()
        try:
            before = threading.active_count()
            for _ in range(3):
                with pytest.raises(ServeError, match="already running"):
                    DatasetServer(name="dup").start()
            assert threading.active_count() == before
        finally:
            s1.stop()

    def test_traffic_report_flags_hung_client(self):
        from repro.sim import run_concurrent_clients

        def client(cid):
            if cid == 1:
                time.sleep(1.0)
            return 1

        report = run_concurrent_clients(2, client, timeout_s=0.2)
        assert len(report.errors) == 1
        assert isinstance(report.errors[0], TimeoutError)
        with pytest.raises(TimeoutError):
            report.raise_errors()

    def test_tenant_in_url(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"v"
        server, _ = serve_backing(backing)
        with server:
            provider = storage_from_url("serve://carol@test-server/ds")
            assert provider["k"] == b"v"
            assert "carol" in server.stats_snapshot()["tenants"]
