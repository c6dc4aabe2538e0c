"""Linked tensors, credential registry, and failure injection paths."""

import numpy as np
import pytest

import repro
from repro.compression import compress_array
from repro.core.links import (
    register_creds,
    register_link_scheme,
    resolve_linked_sample,
)
from repro.core.sample import LinkedSample
from repro.exceptions import (
    ChunkCorruptedError,
    LinkError,
    NetworkError,
)
from repro.sim import FlakyNetwork, NETWORK_PRESETS, SimClock
from repro.storage import (
    MemoryProvider,
    SimulatedObjectStore,
    storage_from_url,
)


class TestLinks:
    def make_bucket(self, rng):
        bucket = storage_from_url("s3-sim://linktest")
        img = rng.integers(0, 255, (12, 12, 3), dtype=np.uint8)
        bucket["raw/a.psim"] = compress_array(img, "png")
        return bucket, img

    def test_link_tensor_roundtrip(self, rng):
        _bucket, img = self.make_bucket(rng)
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("pics", htype="link[image]")
        ds.pics.append(repro.link("s3-sim://linktest/raw/a.psim"))
        assert np.array_equal(ds.pics[0].numpy(), img)

    def test_link_tensor_stores_only_urls(self, rng):
        self.make_bucket(rng)
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("pics", htype="link[image]",
                         create_shape_tensor=False, create_id_tensor=False)
        ds.pics.append(repro.link("s3-sim://linktest/raw/a.psim"))
        ds.flush()
        chunk_bytes = sum(
            len(storage[k]) for k in storage if "/chunks/" in k
        )
        assert chunk_bytes < 500  # url only, not pixels

    def test_raw_value_rejected_on_link_tensor(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("pics", htype="link[image]")
        with pytest.raises(Exception):
            ds.pics.append(rng.integers(0, 255, (4, 4, 3), dtype=np.uint8))

    def test_linked_sample_on_non_link_tensor_rejected(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("img", htype="image")
        with pytest.raises(Exception):
            ds.img.append(repro.link("s3-sim://linktest/raw/a.psim"))

    def test_unresolvable_link(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("pics", htype="link[image]")
        ds.pics.append(repro.link("s3-sim://linktest/ghost.psim"))
        with pytest.raises(LinkError):
            ds.pics[0].numpy()

    def test_local_file_link(self, rng, tmp_path):
        img = rng.integers(0, 255, (6, 6, 3), dtype=np.uint8)
        path = str(tmp_path / "img.psim")
        with open(path, "wb") as f:
            f.write(compress_array(img, "png"))
        out = resolve_linked_sample(LinkedSample(path))
        assert np.array_equal(out, img)

    def test_custom_scheme(self, rng):
        img = rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        payload = compress_array(img, "png")
        register_link_scheme("vault://", lambda url: payload)
        out = resolve_linked_sample(LinkedSample("vault://anything"))
        assert np.array_equal(out, img)

    def test_creds_registry(self, rng):
        bucket, img = self.make_bucket(rng)
        register_creds("prod", {"key": "k", "secret": "s"})
        out = resolve_linked_sample(
            LinkedSample("s3-sim://linktest/raw/a.psim", creds_key="prod")
        )
        assert np.array_equal(out, img)
        with pytest.raises(LinkError):
            resolve_linked_sample(
                LinkedSample("s3-sim://linktest/raw/a.psim",
                             creds_key="unregistered")
            )

    def test_multiple_providers_one_tensor(self, rng):
        """§4.5: pointers within one tensor span storage providers."""
        a = storage_from_url("s3-sim://bucket-a")
        b = storage_from_url("minio-sim://bucket-b")
        img_a = rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        img_b = rng.integers(0, 255, (5, 5, 3), dtype=np.uint8)
        a["x.psim"] = compress_array(img_a, "png")
        b["y.psim"] = compress_array(img_b, "png")
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("pics", htype="link[image]")
        ds.pics.append(repro.link("s3-sim://bucket-a/x.psim"))
        ds.pics.append(repro.link("minio-sim://bucket-b/y.psim"))
        assert np.array_equal(ds.pics[0].numpy(), img_a)
        assert np.array_equal(ds.pics[1].numpy(), img_b)


class TestFailureInjection:
    def test_dataset_survives_flaky_network(self, rng):
        flaky = FlakyNetwork(NETWORK_PRESETS["s3"], failure_rate=0.3, seed=1,
                             max_consecutive=2)
        store = SimulatedObjectStore("s3", network=flaky, clock=SimClock())
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        for i in range(30):
            ds.x.append(np.array([i], dtype=np.int64))
        ds.flush()
        out = repro.load(store)
        assert [int(out.x[i].numpy()[0]) for i in range(30)] == list(range(30))
        assert store.retries_performed > 0

    def test_hard_network_failure_surfaces(self):
        flaky = FlakyNetwork(NETWORK_PRESETS["s3"], failure_rate=1.0, seed=0)
        store = SimulatedObjectStore("s3", network=flaky, clock=SimClock(),
                                     max_retries=1)
        ds_storage = MemoryProvider()
        ds = repro.empty(ds_storage, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.append(np.array([1], dtype=np.int64))
        ds.flush()
        # copy the dataset files onto the broken store fails loudly
        with pytest.raises(NetworkError):
            for k in ds_storage:
                store[k] = ds_storage[k]

    def test_chunk_corruption_detected(self, rng):
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.x.extend([np.arange(50, dtype=np.int64)] * 5)
        ds.flush()
        chunk_key = next(k for k in storage if "/chunks/" in k)
        blob = bytearray(storage[chunk_key])
        blob[: len(blob) // 2] = b"\x00" * (len(blob) // 2)
        storage[chunk_key] = bytes(blob)
        fresh = repro.load(storage)
        with pytest.raises(ChunkCorruptedError):
            fresh.x[0].numpy()

    def test_truncated_chunk_detected(self, rng):
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.x.extend([np.arange(100, dtype=np.int64)] * 3)
        ds.flush()
        chunk_key = next(k for k in storage if "/chunks/" in k)
        storage[chunk_key] = storage[chunk_key][:-100]
        fresh = repro.load(storage)
        with pytest.raises(ChunkCorruptedError):
            fresh.x[2].numpy()
