"""Every storage provider counts a batch once, in one place.

A provider's ``stats`` and its ``storage.*{provider=<class>}`` registry
series are the same series seen from two sides, so a ``get_many`` /
``set_many`` must move both by the same exact deltas, and record exactly
one ``storage.op_seconds`` observation per call, whatever the provider
does underneath (a cache answering hits from memory, a prefix view, a
server round trip, a dataset mux)."""

from __future__ import annotations

import pytest

from repro.exceptions import ReadOnlyStorageError
from repro.obs import metrics
from repro.serve.server import (DatasetServer, _BackendMux, _mux_key,
                                _ServeView)
from repro.serve.transport import InprocTransport
from repro.sim.clock import SimClock
from repro.storage import (LocalProvider, LRUCache, MemoryProvider,
                           PrefixedProvider, SimulatedObjectStore)

N = 4
BLOBS = {f"k/{i}": bytes([i]) * (10 + i) for i in range(N)}


def _server(backing: MemoryProvider) -> DatasetServer:
    server = DatasetServer(name="accounting")
    server.add_dataset("ds", backing)
    return server


def _remote(backing):
    server = _server(backing)
    return server.connect("ds", tenant="t",
                          transport=InprocTransport(server)), lambda k: k


def _mux(backing):
    return _BackendMux(_server(backing)), lambda k: _mux_key("ds", k)


def _view(backing):
    return _ServeView(_server(backing), "ds"), lambda k: k


def _build(kind: str, tmp_path):
    """``(provider, key_of)``: a provider that holds :data:`BLOBS`, and
    how it names each of them."""
    backing = MemoryProvider("accounting")
    backing.set_many(BLOBS)
    same = lambda k: k  # noqa: E731
    if kind == "MemoryProvider":
        return backing, same
    if kind == "LocalProvider":
        local = LocalProvider(str(tmp_path / "local"))
        local.set_many(BLOBS)
        return local, same
    if kind == "SimulatedObjectStore":
        return SimulatedObjectStore("s3", clock=SimClock(),
                                    backing=backing), same
    if kind == "LRUCache":
        cache = LRUCache(MemoryProvider(), backing, 1 << 20)
        cache.get_many(list(BLOBS)[:2])  # half the batch hits, half misses
        return cache, same
    if kind == "PrefixedProvider":
        base = MemoryProvider("base")
        base.set_many({f"pre/{k}": v for k, v in BLOBS.items()})
        return PrefixedProvider(base, "pre"), same
    return {"RemoteStorageProvider": _remote, "_BackendMux": _mux,
            "_ServeView": _view}[kind](backing)


KINDS = ("MemoryProvider", "LocalProvider", "SimulatedObjectStore",
         "LRUCache", "PrefixedProvider", "RemoteStorageProvider",
         "_BackendMux", "_ServeView")


def _counts(provider) -> dict:
    """Both sides of every count, and the op_seconds observations."""
    stats, kind = provider.stats, type(provider).__name__

    def reg(name, **labels):
        return metrics.REGISTRY.value(name, provider=kind, **labels)

    return {
        "stats": (stats.get_requests, stats.bytes_read,
                  stats.put_requests, stats.bytes_written),
        "registry": (reg("storage.get_requests"), reg("storage.bytes_read"),
                     reg("storage.put_requests"),
                     reg("storage.bytes_written")),
        "get_many_s": reg("storage.op_seconds", op="get_many"),
        "set_many_s": reg("storage.op_seconds", op="set_many"),
    }


def _moved(before: dict, after: dict) -> dict:
    return {
        key: (tuple(a - b for a, b in zip(after[key], before[key]))
              if isinstance(after[key], tuple) else after[key] - before[key])
        for key in after
    }


@pytest.mark.parametrize("kind", KINDS)
def test_get_many_is_counted_once(kind, tmp_path):
    provider, key_of = _build(kind, tmp_path)
    keys = [key_of(k) for k in BLOBS]
    asked = keys + [key_of("k/missing"), keys[0]]  # a miss and a repeat
    before = _counts(provider)
    found = provider.get_many(asked)
    assert found == {key_of(k): v for k, v in BLOBS.items()}
    nbytes = sum(map(len, BLOBS.values()))
    assert _moved(before, _counts(provider)) == {
        "stats": (N, nbytes, 0, 0), "registry": (N, nbytes, 0, 0),
        "get_many_s": 1, "set_many_s": 0,
    }


@pytest.mark.parametrize("kind", KINDS)
def test_set_many_is_counted_once(kind, tmp_path):
    provider, key_of = _build(kind, tmp_path)
    items = {key_of(f"new/{i}"): b"x" * (i + 1) for i in range(N)}
    before = _counts(provider)
    if kind == "_ServeView":  # a served dataset is read-only
        with pytest.raises(ReadOnlyStorageError):
            provider.set_many(items)
        assert _moved(before, _counts(provider)) == {
            "stats": (0, 0, 0, 0), "registry": (0, 0, 0, 0),
            "get_many_s": 0, "set_many_s": 0,
        }
        return
    provider.set_many(items)
    nbytes = sum(map(len, items.values()))
    assert _moved(before, _counts(provider)) == {
        "stats": (0, 0, N, nbytes), "registry": (0, 0, N, nbytes),
        "get_many_s": 0, "set_many_s": 1,
    }
    assert provider.get_many(list(items)) == items
