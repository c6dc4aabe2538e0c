"""Shared fixtures: seeded RNG/ids, in-memory datasets, tmp providers."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.storage import MemoryProvider, clear_simulated_buckets
from repro.util.ids import seed_ids


@pytest.fixture(autouse=True)
def _deterministic_ids():
    seed_ids(1234)
    yield
    seed_ids(None)


@pytest.fixture(autouse=True)
def _fresh_buckets():
    clear_simulated_buckets()
    yield
    clear_simulated_buckets()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class _Spent(dict):
    """Requests a SimulatedObjectStore charged inside a ``with`` block, by
    category (``download``, ``upload_batch``, ...); zero counts left out."""

    def __init__(self, store):
        super().__init__()
        self._store = store

    def __enter__(self):
        self._before = dict(self._store.requests_by_op)
        return self

    def __exit__(self, *exc_info):
        for op, n in self._store.requests_by_op.items():
            if n - self._before.get(op, 0):
                self[op] = n - self._before.get(op, 0)


@pytest.fixture
def spent():
    """``with spent(store) as reqs: ...`` then ``reqs == {"download": 2}``."""
    return _Spent


@pytest.fixture
def mem_ds():
    """Empty dataset on an in-memory provider."""
    return repro.empty(MemoryProvider("test"), overwrite=True)


@pytest.fixture
def image_ds(rng):
    """Small populated (images, labels) dataset."""
    ds = repro.empty(MemoryProvider("img"), overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="jpeg")
    ds.create_tensor(
        "labels", htype="class_label", chunk_compression="lz4",
        class_names=["cat", "dog", "bird"],
    )
    for i in range(24):
        h = 24 + 8 * (i % 3)
        img = rng.integers(0, 255, (h, 32, 3), dtype=np.uint8)
        ds.append({"images": img, "labels": np.int32(i % 3)})
    ds.flush()
    return ds


def make_smooth(rng, h, w, c=3):
    from repro.workloads import smooth_image

    return smooth_image(rng, h, w, c)
