"""One decoded-chunk cache per dataset handle: one byte budget over every
tensor, charged exactly what it holds, and dropped when the handle
reloads its version view."""

import numpy as np

import repro
from repro.core import chunk_cache
from repro.storage import MemoryProvider


def held(ds) -> list:
    """The decoded chunks the handle's cache holds."""
    return [chunk for chunk, _size in ds._chunk_cache._chunks.values()]


def test_accounting_matches_what_is_held_after_every_flush(monkeypatch):
    """A cached chunk that appends resume grows in place; each flush puts
    it again, and the cache charges its new size, not the size it had."""
    monkeypatch.setattr(chunk_cache, "CACHE_BYTES", 64 << 10)
    ds = repro.empty(MemoryProvider())
    ds.create_tensor("x", dtype="uint8")
    row = np.arange(4096, dtype=np.uint8)
    for i in range(64):
        ds.x.extend([row])
        ds.flush()
        cache = ds._chunk_cache
        resident = sum(len(chunk.data) for chunk in held(ds))
        assert cache.nbytes == resident <= chunk_cache.CACHE_BYTES, i
    assert ds.x.engine.enc.num_chunks == 1  # every row resumed one chunk
    assert np.array_equal(ds.x[63].numpy(), row)


def test_one_handle_one_budget(monkeypatch):
    """Three tensors read in full through one handle hold at most the one
    budget between them, not a budget each."""
    storage = MemoryProvider()
    ds = repro.empty(storage)
    rows = 64
    model = {}
    for t, name in enumerate(("a", "b", "c")):
        ds.create_tensor(name, dtype="int64", max_chunk_size=8 << 10)
        model[name] = [np.full(128, t * 1000 + i, dtype=np.int64)
                       for i in range(rows)]
        ds[name].extend(model[name])
    ds.flush()
    combined = 3 * rows * 128 * 8  # 192 KiB decoded
    monkeypatch.setattr(chunk_cache, "CACHE_BYTES", combined // 2)
    reader = repro.load(storage)
    for name in ("a", "b", "c"):
        got = reader.read_rows(range(rows), [name])[name]
        assert all(np.array_equal(g, m) for g, m in zip(got, model[name]))
        assert sum(len(c.data) for c in held(reader)) <= combined // 2
    assert reader._chunk_cache.nbytes <= combined // 2
    assert held(reader)  # the budget is used, not bypassed


def test_reload_reads_rows_another_handle_appended_to_a_cached_chunk():
    """Handle A caches the head's last chunk; handle B resumes that chunk
    (same storage key) and flushes; A's checkout drops what it cached and
    reads B's rows."""
    storage = MemoryProvider()
    a = repro.empty(storage)
    a.create_tensor("x", dtype="int64")
    a.x.extend([np.arange(4, dtype=np.int64) + i for i in range(4)])
    a.flush()
    assert len(a.read_rows(range(4), ["x"])["x"]) == 4
    assert held(a)  # the last chunk is cached
    b = repro.load(storage)
    b.x.extend([np.arange(4, dtype=np.int64) + i for i in range(4, 8)])
    b.flush()
    assert b.x.engine.enc.num_chunks == 1  # B appended into the same chunk
    a.checkout("main")
    got = a.read_rows(range(8), ["x"])["x"]
    assert [int(v[0]) for v in got] == list(range(8))


def test_a_bare_engine_builds_its_own_cache():
    """Engines of one handle share its cache; an engine built without a
    dataset gets one of its own."""
    from repro.core.commit_state import open_engine
    from repro.core.meta import TensorMeta

    ds = repro.empty(MemoryProvider())
    ds.create_tensor("p", dtype="int64")
    ds.create_tensor("q", dtype="int64")
    view = ds[1:]
    assert ds.p.engine.cache is ds.q.engine.cache is view._chunk_cache
    bare = open_engine(MemoryProvider(), "t",
                       TensorMeta(htype="generic", dtype="int64"))
    assert bare.cache is not ds._chunk_cache
