"""URL → provider routing, mirroring Deep Lake's path scheme.

Supported schemes::

    mem://name                  in-process memory store
    file:///abs/path or path    local filesystem
    s3-sim://bucket/prefix      simulated S3
    gcs-sim://bucket/prefix     simulated GCS
    minio-sim://bucket/prefix   simulated LAN MinIO
    serve://[tenant@]srv/name   dataset hosted by a running DatasetServer

Simulated buckets are process-global so that "remote" datasets persist
across dataset open/close within one process (like a real bucket would).
A URL resolves to its provider bare: the decoded chunks a dataset handle
reads are cached by the handle (:mod:`repro.core.chunk_cache`), and a
blob tier is a provider the caller chains on purpose (§3.6,
:mod:`repro.storage.lru_cache`).
A URL with an unrecognised ``scheme://`` raises ``ValueError`` instead of
being silently treated as a local path.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Tuple

from repro.sim.clock import SimClock
from repro.storage.local import LocalProvider
from repro.storage.memory import MemoryProvider
from repro.storage.object_store import SimulatedObjectStore, make_object_store
from repro.storage.provider import StorageProvider

_BUCKETS: Dict[Tuple[str, str], MemoryProvider] = {}
_MEM: Dict[str, MemoryProvider] = {}
_LOCK = threading.Lock()

SUPPORTED_SCHEMES = (
    "mem://", "file://", "s3-sim://", "gcs-sim://", "minio-sim://",
    "serve://",
)

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*)://")


def _serve_provider(url: str) -> StorageProvider:
    """Resolve ``serve://[tenant@]server/dataset`` against the registry."""
    from repro.serve.server import get_server

    rest = url[len("serve://"):]
    tenant = "default"
    if "@" in rest.split("/", 1)[0]:
        tenant, rest = rest.split("@", 1)
    server_name, _, dataset = rest.partition("/")
    if not server_name or not dataset:
        raise ValueError(
            f"bad serve URL {url!r}: expected "
            "serve://[tenant@]<server>/<dataset>"
        )
    return get_server(server_name).connect(dataset, tenant=tenant)


def _global_bucket(kind: str, bucket: str) -> MemoryProvider:
    with _LOCK:
        key = (kind, bucket)
        if key not in _BUCKETS:
            _BUCKETS[key] = MemoryProvider(f"{kind}://{bucket}")
        return _BUCKETS[key]


def clear_simulated_buckets() -> None:
    """Test hook: drop all process-global simulated buckets."""
    with _LOCK:
        _BUCKETS.clear()
        _MEM.clear()


class PrefixedProvider(StorageProvider):
    """View of another provider under a key prefix (bucket sub-paths)."""

    def __init__(self, base: StorageProvider, prefix: str):
        super().__init__()
        self.base = base
        self.prefix = prefix.strip("/")
        self._p = f"{self.prefix}/" if self.prefix else ""

    def _get(self, key, start, end):
        return self.base.get_bytes(self._p + key, start, end)

    def _set(self, key, value):
        self.base[self._p + key] = value

    def get_many(self, keys):
        """One batch on the base provider (per-key accounting kept)."""
        found = self.base.get_many([self._p + key for key in keys])
        for blob in found.values():
            self.stats.record_get(len(blob))
        return {key[len(self._p):]: blob for key, blob in found.items()}

    def set_many(self, items):
        """One batch on the base provider, item order preserved."""
        self.check_writable()
        self.base.set_many({self._p + k: v for k, v in items.items()})
        for value in items.values():
            self.stats.record_put(len(value))

    def _delete(self, key):
        del self.base[self._p + key]

    def _all_keys(self):
        n = len(self._p)
        return {k[n:] for k in self.base._all_keys() if k.startswith(self._p)}

    def flush(self):
        self.base.flush()


def storage_from_url(url: str, clock: SimClock | None = None
                     ) -> StorageProvider:
    """Resolve *url* to its provider, with no cache tier in front."""
    if url.startswith("mem://"):
        name = url[len("mem://"):]
        with _LOCK:
            if name not in _MEM:
                _MEM[name] = MemoryProvider(name)
            return _MEM[name]
    if url.startswith("serve://"):
        return _serve_provider(url)
    for scheme, kind in (("s3-sim://", "s3"), ("gcs-sim://", "gcs"),
                         ("minio-sim://", "minio")):
        if url.startswith(scheme):
            bucket, _, prefix = url[len(scheme):].partition("/")
            if not bucket:
                raise ValueError(
                    f"bad object-store URL {url!r}: expected "
                    f"{scheme}<bucket>[/prefix]"
                )
            store = make_object_store(kind, clock=clock,
                                      backing=_global_bucket(kind, bucket))
            return PrefixedProvider(store, prefix) if prefix else store
    if url.startswith("file://"):
        return LocalProvider(url[len("file://"):])
    m = _SCHEME_RE.match(url)
    if m:
        raise ValueError(
            f"unsupported storage scheme {m.group(1)!r} in {url!r}; "
            f"expected one of {', '.join(SUPPORTED_SCHEMES)} or a plain "
            "filesystem path"
        )
    return LocalProvider(url)
