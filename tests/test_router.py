"""storage_from_url scheme routing: every supported scheme, resolved to
its bare provider, and the error messages for malformed/unknown URLs."""

import pytest

import repro
from repro.exceptions import ReadOnlyStorageError, UnknownServerError
from repro.serve import DatasetServer, RemoteStorageProvider, clear_servers
from repro.storage import (
    LocalProvider,
    MemoryProvider,
    PrefixedProvider,
    SimulatedObjectStore,
    storage_from_url,
)
from repro.storage.router import SUPPORTED_SCHEMES


@pytest.fixture(autouse=True)
def _no_leftover_servers():
    clear_servers()
    yield
    clear_servers()


class TestSchemeRouting:
    def test_mem_scheme_shares_by_name(self):
        a = storage_from_url("mem://routed")
        a["k"] = b"v"
        assert storage_from_url("mem://routed") is a
        assert isinstance(a, MemoryProvider)

    def test_file_scheme_and_plain_path(self, tmp_path):
        for url in (f"file://{tmp_path}/x", str(tmp_path / "y")):
            assert isinstance(storage_from_url(url), LocalProvider)

    @pytest.mark.parametrize("scheme,kind", [
        ("s3-sim", "s3"), ("gcs-sim", "gcs"), ("minio-sim", "minio"),
    ])
    def test_object_store_schemes(self, scheme, kind):
        p = storage_from_url(f"{scheme}://bkt/pfx")
        assert isinstance(p, PrefixedProvider)
        assert isinstance(p.base, SimulatedObjectStore)
        assert p.base.name == kind

    def test_bucket_root_has_no_prefix_wrapper(self):
        p = storage_from_url("s3-sim://bkt")
        assert isinstance(p, SimulatedObjectStore)

    def test_bucket_sub_path_keeps_every_batch(self):
        """A dataset under a bucket prefix costs the same requests as one
        at the bucket root: the prefix view forwards ``set_many`` /
        ``get_many`` as batches instead of unrolling them key by key."""
        import numpy as np

        spent = {}
        for url in ("s3-sim://rootbkt", "s3-sim://subbkt/team/ds"):
            ds = repro.empty(url, overwrite=True)
            ds.create_tensor("x", dtype="int64", max_chunk_size=256)
            ds.x.extend([np.arange(8, dtype=np.int64)] * 64)
            ds.flush()
            cold = repro.load(url)
            assert int(cold.read_rows(range(64), ["x"])["x"][63][7]) == 7
            for provider in (ds.storage, cold.storage):
                store = getattr(provider, "base", provider)
                for op, n in store.requests_by_op.items():
                    spent.setdefault(url, {}).setdefault(op, 0)
                    spent[url][op] += n
        root, sub = spent.values()
        assert root == sub
        assert sub["upload_batch"] >= 1 and sub["download_batch"] >= 2

    def test_prefixed_set_many_honours_read_only_and_order(self):
        base = MemoryProvider("ordered")
        view = PrefixedProvider(base, "team/ds")
        seen = []
        base.set_many = lambda items: seen.extend(items)
        view.set_many({"b": b"1", "a": b"2"})
        assert seen == ["team/ds/b", "team/ds/a"]
        view.enable_readonly()
        with pytest.raises(ReadOnlyStorageError):
            view.set_many({"c": b"3"})

    def test_serve_scheme_routes_to_running_server(self):
        backing = MemoryProvider("bkt")
        backing["k"] = b"v"
        server = DatasetServer(name="router-srv")
        server.add_dataset("ds", backing)
        with server:
            p = storage_from_url("serve://router-srv/ds")
            # uncached: the serving tier is the shared cache, and a client
            # LRU would go stale on other tenants' writes
            assert isinstance(p, RemoteStorageProvider)
            assert p.tenant == "default"
            assert p["k"] == b"v"

    def test_serve_scheme_parses_tenant(self):
        server = DatasetServer(name="router-srv")
        server.add_dataset("ds", MemoryProvider("bkt"))
        with server:
            p = storage_from_url("serve://alice@router-srv/ds")
            assert p.tenant == "alice"
            assert p.dataset == "ds"


class TestBadUrls:
    def test_unknown_scheme_raises_with_supported_list(self):
        with pytest.raises(ValueError) as e:
            storage_from_url("s3://real-bucket/ds")
        msg = str(e.value)
        assert "s3" in msg
        for scheme in SUPPORTED_SCHEMES:
            assert scheme in msg

    @pytest.mark.parametrize("url", [
        "gs://bucket/x", "http://example.com/ds", "azure://c/ds",
    ])
    def test_other_unknown_schemes_rejected(self, url):
        with pytest.raises(ValueError, match="unsupported storage scheme"):
            storage_from_url(url)

    def test_object_store_url_without_bucket(self):
        with pytest.raises(ValueError, match="expected s3-sim://<bucket>"):
            storage_from_url("s3-sim://")

    @pytest.mark.parametrize("url", [
        "serve://", "serve://only-server", "serve://srv/",
    ])
    def test_serve_url_missing_parts(self, url):
        with pytest.raises(ValueError,
                           match=r"serve://\[tenant@\]<server>/<dataset>"):
            storage_from_url(url)

    def test_serve_unknown_server_lists_running(self):
        running = DatasetServer(name="visible")
        running.add_dataset("ds", MemoryProvider("m"))
        with running:
            with pytest.raises(UnknownServerError) as e:
                storage_from_url("serve://ghost/ds")
        msg = str(e.value)
        assert "ghost" in msg and "visible" in msg

    def test_api_load_propagates_router_errors(self):
        with pytest.raises(ValueError, match="unsupported storage scheme"):
            repro.load("hdfs://cluster/ds")
