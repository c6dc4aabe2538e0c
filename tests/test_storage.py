"""Unit tests for storage providers: memory, local, object store, router."""

import numpy as np
import pytest

from repro.exceptions import (
    KeyNotFound,
    NetworkError,
    ReadOnlyStorageError,
)
from repro.sim import FlakyNetwork, NETWORK_PRESETS, SimClock
from repro.storage import (
    LRUCache,
    LocalProvider,
    MemoryProvider,
    PrefixedProvider,
    SimulatedObjectStore,
    make_object_store,
    storage_from_url,
)


@pytest.fixture(params=["memory", "local", "s3"])
def provider(request, tmp_path):
    if request.param == "memory":
        return MemoryProvider()
    if request.param == "local":
        return LocalProvider(str(tmp_path / "store"))
    return make_object_store("s3", clock=SimClock())


class TestProviderContract:
    """One behavioural contract, run against every provider kind."""

    def test_set_get_roundtrip(self, provider):
        provider["a/b/c"] = b"hello"
        assert provider["a/b/c"] == b"hello"

    def test_missing_key_raises_keyerror(self, provider):
        with pytest.raises(KeyError):
            provider["nope"]

    def test_ranged_read(self, provider):
        provider["k"] = bytes(range(100))
        assert provider.get_bytes("k", 10, 20) == bytes(range(10, 20))
        assert provider.get_bytes("k", None, 5) == bytes(range(5))
        assert provider.get_bytes("k", 95, None) == bytes(range(95, 100))

    def test_negative_range(self, provider):
        provider["k"] = bytes(range(100))
        assert provider.get_bytes("k", -8, None) == bytes(range(92, 100))
        assert provider.get_bytes("k", -8, -4) == bytes(range(92, 96))

    def test_range_clamped(self, provider):
        provider["k"] = b"abc"
        assert provider.get_bytes("k", 1, 999) == b"bc"
        assert provider.get_bytes("k", 5, 9) == b""

    def test_delete(self, provider):
        provider["k"] = b"x"
        del provider["k"]
        with pytest.raises(KeyError):
            provider["k"]

    def test_delete_missing_raises(self, provider):
        with pytest.raises(KeyError):
            del provider["ghost"]

    def test_contains_and_iteration(self, provider):
        provider["a"] = b"1"
        provider["b/c"] = b"2"
        assert "a" in provider
        assert "zz" not in provider
        assert sorted(provider) == ["a", "b/c"]

    def test_list_prefix(self, provider):
        provider["x/1"] = b""
        provider["x/2"] = b""
        provider["y/1"] = b""
        assert provider.list_prefix("x/") == ["x/1", "x/2"]

    def test_clear_prefix(self, provider):
        provider["x/1"] = b"1"
        provider["y/1"] = b"2"
        provider.clear("x/")
        assert "x/1" not in provider
        assert provider["y/1"] == b"2"

    def test_readonly_blocks_writes(self, provider):
        provider["k"] = b"v"
        provider.enable_readonly()
        with pytest.raises(ReadOnlyStorageError):
            provider["k2"] = b"x"
        with pytest.raises(ReadOnlyStorageError):
            del provider["k"]
        provider.disable_readonly()
        provider["k2"] = b"x"

    def test_overwrite(self, provider):
        provider["k"] = b"one"
        provider["k"] = b"two"
        assert provider["k"] == b"two"

    def test_stats_accounting(self, provider):
        provider.stats.reset()
        provider["k"] = b"12345"
        _ = provider["k"]
        snap = provider.stats.snapshot()
        assert snap["put_requests"] == 1
        assert snap["bytes_written"] == 5
        assert snap["get_requests"] == 1
        assert snap["bytes_read"] == 5


class TestLocalProvider:
    def test_rejects_escaping_keys(self, tmp_path):
        p = LocalProvider(str(tmp_path))
        with pytest.raises(Exception):
            p["../evil"] = b"x"

    def test_atomic_publish_no_tmp_leftover(self, tmp_path):
        p = LocalProvider(str(tmp_path))
        p["a/b"] = b"data"
        assert p._all_keys() == {"a/b"}

    def test_persists_across_instances(self, tmp_path):
        LocalProvider(str(tmp_path))["k"] = b"v"
        assert LocalProvider(str(tmp_path))["k"] == b"v"


class TestObjectStore:
    def test_charges_virtual_time(self):
        clock = SimClock()
        s3 = make_object_store("s3", clock=clock)
        s3["k"] = b"x" * 1_000_000
        upload = clock.now()
        assert upload > 0
        _ = s3["k"]
        assert clock.now() > upload

    def test_range_read_cheaper_than_full(self):
        clock = SimClock()
        s3 = make_object_store("s3", clock=clock)
        s3["k"] = b"x" * 200_000_000
        t0 = clock.now()
        s3.get_bytes("k", 0, 1000)
        ranged = clock.now() - t0
        t0 = clock.now()
        _ = s3["k"]
        full = clock.now() - t0
        assert ranged < full / 5

    def test_presets_exist(self):
        for kind in ("s3", "gcs", "minio", "cross-region"):
            store = make_object_store(kind)
            assert store.network.latency_s > 0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_object_store("weird-cloud")

    def test_retries_transient_failures(self):
        clock = SimClock()
        flaky = FlakyNetwork(NETWORK_PRESETS["s3"], failure_rate=0.5, seed=3,
                             max_consecutive=2)
        s3 = SimulatedObjectStore("s3", network=flaky, clock=clock)
        for i in range(20):
            s3[f"k{i}"] = b"x" * 100
        assert s3.retries_performed > 0
        assert len(list(s3.backing._all_keys())) == 20

    def test_gives_up_after_max_retries(self):
        flaky = FlakyNetwork(NETWORK_PRESETS["s3"], failure_rate=1.0, seed=0)
        s3 = SimulatedObjectStore("s3", network=flaky, clock=SimClock(),
                                  max_retries=2)
        with pytest.raises(NetworkError):
            s3["k"] = b"x"


class TestRouter:
    def test_mem_scheme_is_shared(self):
        a = storage_from_url("mem://shared1")
        a["k"] = b"v"
        assert storage_from_url("mem://shared1")["k"] == b"v"

    def test_bucket_persists_across_opens(self):
        p1 = storage_from_url("s3-sim://bkt/ds")
        p1["k"] = b"v"
        p2 = storage_from_url("s3-sim://bkt/ds")
        assert p2["k"] == b"v"

    def test_prefix_isolation(self):
        a = storage_from_url("s3-sim://bkt/a")
        b = storage_from_url("s3-sim://bkt/b")
        a["k"] = b"va"
        assert "k" not in b

    def test_prefixed_provider_lists_relative(self):
        base = MemoryProvider()
        base["p/x"] = b"1"
        base["q/x"] = b"2"
        view = PrefixedProvider(base, "p")
        assert view._all_keys() == {"x"}
        view["y"] = b"3"
        assert base["p/y"] == b"3"

    def test_local_path_fallback(self, tmp_path):
        p = storage_from_url(str(tmp_path / "x"))
        assert isinstance(p, LocalProvider)


@pytest.mark.parametrize("kind", ["memory", "s3", "lru"])
def test_get_many_fetches_a_repeated_key_once(kind):
    """A key named twice in one ``get_many`` is one GET of its bytes, on
    the store that holds it."""
    backing = MemoryProvider()
    backing["a"], backing["b"] = b"0123456789", b"xyz"
    if kind == "memory":
        provider = counted = backing
    elif kind == "s3":
        provider = counted = SimulatedObjectStore(
            "s3", clock=SimClock(), backing=backing)
    else:
        provider = LRUCache(MemoryProvider("cache"), backing, 1 << 10)
        counted = backing
    got = provider.get_many(["a", "b", "a", "a", "b"])
    assert got == {"a": b"0123456789", "b": b"xyz"}
    assert counted.stats.get_requests == 2
    assert counted.stats.bytes_read == 13
    if kind == "lru":
        assert (provider.misses, provider.hits) == (2, 0)
