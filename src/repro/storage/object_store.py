"""Simulated cloud object storage (stands in for AWS S3 / GCS / MinIO).

The paper's cloud experiments need an object store whose *performance
characteristics* — per-request overhead, first-byte latency, bandwidth —
shape the results.  :class:`SimulatedObjectStore` wraps any terminal
provider (memory by default, or :class:`~repro.storage.local.LocalProvider`
for durability) and charges every operation's modelled transfer time to a
:class:`~repro.sim.clock.SimClock`.

With ``clock.time_scale > 0`` the charge includes a scaled real sleep, so
the *actual* dataloader code exercising this provider from concurrent
prefetch threads reproduces cloud pipeline behaviour in miniature.

Transient failures (from :class:`~repro.sim.network.FlakyNetwork`) are
retried with exponential backoff, like a production S3 client.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from repro.exceptions import NetworkError, TransientNetworkError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sim.clock import SimClock
from repro.sim.network import NETWORK_PRESETS, NetworkModel
from repro.storage.memory import MemoryProvider
from repro.storage.provider import StorageProvider


class SimulatedObjectStore(StorageProvider):
    """Object store = terminal provider + network cost model + retries.

    Request accounting exposes **per-call latency samples**, not just
    aggregate counts: every operation records its modelled (virtual)
    transfer time — including retry backoff — into ``stats`` and the
    registry histogram ``objectstore.request_seconds{store,op}``, so
    storage latency percentiles under simulated S3 reflect the network
    model's actual per-request distribution (jitter, batching, backoff).
    """

    def __init__(
        self,
        name: str = "s3",
        network: NetworkModel | None = None,
        clock: SimClock | None = None,
        backing: StorageProvider | None = None,
        max_retries: int = 4,
        backoff_s: float = 0.05,
    ):
        super().__init__()
        self.name = name
        self.network = network or NETWORK_PRESETS.get(name, NETWORK_PRESETS["s3"])
        self.clock = clock or SimClock()
        self.backing = backing if backing is not None else MemoryProvider(name)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.retries_performed = 0
        #: successful charged requests per category ("download", "upload",
        #: "upload_batch", ...) — the benchmarks assert round-trip counts
        #: from this, independent of per-key accounting.
        self.requests_by_op: Dict[str, int] = {}
        self._m_retries = _metrics.counter("objectstore.retries", store=name)
        self._h_ops: dict = {}

    # ------------------------------------------------------------------ #

    def _observe(self, op: str, seconds: float) -> None:
        """One per-call virtual-latency sample for *op*."""
        self.stats.record_latency(op, seconds)
        h = self._h_ops.get(op)
        if h is None:
            h = self._h_ops[op] = _metrics.histogram(
                "objectstore.request_seconds", store=self.name, op=op
            )
        h.observe(seconds)

    def _charge(self, nbytes: int, category: str) -> float:
        """Charge one request's transfer time, retrying injected failures.

        Returns the total virtual seconds charged, backoff included —
        the per-call latency a client of this store experienced.
        """
        attempt = 0
        total = 0.0
        while True:
            try:
                dt = self.network.transfer_time(nbytes, n_requests=1)
                self.clock.charge(dt, category)
                total += dt
                self._observe(category, total)
                self.requests_by_op[category] = (
                    self.requests_by_op.get(category, 0) + 1
                )
                return total
            except TransientNetworkError:
                attempt += 1
                self.retries_performed += 1
                self._m_retries.inc()
                if attempt > self.max_retries:
                    raise NetworkError(
                        f"{self.name}: request failed after "
                        f"{self.max_retries} retries"
                    ) from None
                # exponential backoff also costs (virtual) time
                backoff = self.backoff_s * (2 ** (attempt - 1))
                self.clock.charge(backoff, "backoff")
                total += backoff

    def _get(self, key: str, start: Optional[int], end: Optional[int]) -> bytes:
        data = self.backing._get(key, start, end)
        with _tracing.span("objectstore.get", store=self.name, key=key,
                           nbytes=len(data)) as sp:
            dt = self._charge(len(data), "download")
            sp.set(virtual_s=round(dt, 6))
        return data

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """Batched GET: one request's fixed overhead for the whole batch.

        Real object stores expose this as parallel/pipelined GETs over a
        shared connection pool; the model's equivalent is charging the
        per-request overhead and first-byte latency once plus the payload
        bytes at sustained bandwidth.  Per-key request accounting is kept
        so "GETs per chunk" stays comparable across providers.
        """
        out: Dict[str, bytes] = {}
        total = 0
        with _tracing.span("objectstore.get_many", store=self.name,
                           keys=len(keys)) as sp:
            for key in dict.fromkeys(keys):  # a repeat is one GET
                try:
                    data = self.backing._get(key, None, None)
                except KeyError:
                    continue
                self.stats.record_get(len(data))
                self._m_gets.inc()
                self._m_bytes_read.inc(len(data))
                out[key] = data
                total += len(data)
            if out:
                dt = self._charge(total, "download_batch")
                sp.set(found=len(out), nbytes=total, virtual_s=round(dt, 6))
        return out

    def _set(self, key: str, value: bytes) -> None:
        with _tracing.span("objectstore.put", store=self.name, key=key,
                           nbytes=len(value)) as sp:
            dt = self._charge(len(value), "upload")
            self.backing._set(key, value)
            sp.set(virtual_s=round(dt, 6))

    def set_many(self, items: Dict[str, bytes]) -> None:
        """Batched PUT: one request's fixed overhead for the whole batch.

        Symmetric with :meth:`get_many` — the model charges the per-request
        overhead and first-byte latency once plus all payload bytes at
        sustained bandwidth.  The charge happens **before** any key is
        installed, so a batch that exhausts its retries (``NetworkError``)
        stores nothing: the caller sees all-or-nothing semantics, which the
        crash-consistent flush ordering relies on.  Per-key request
        accounting is kept so "PUTs per chunk" stays comparable across
        providers.
        """
        self.check_writable()
        if not items:
            return
        payload = {key: bytes(value) for key, value in items.items()}
        total = sum(len(v) for v in payload.values())
        with _tracing.span("objectstore.set_many", store=self.name,
                           keys=len(payload), nbytes=total) as sp:
            dt = self._charge(total, "upload_batch")
            for key, value in payload.items():
                self.backing._set(key, value)
                self.stats.record_put(len(value))
                self._m_puts.inc()
                self._m_bytes_written.inc(len(value))
            sp.set(virtual_s=round(dt, 6))

    def latency_percentiles(self, op: str = "download") -> dict:
        """p50/p95/p99 virtual seconds over retained samples for *op*."""
        return self.stats.latency_percentiles(op)

    def _delete(self, key: str) -> None:
        self._charge(0, "delete")
        self.backing._delete(key)

    def _all_keys(self) -> Set[str]:
        # LIST is paginated at 1000 keys/request on real S3.
        keys = self.backing._all_keys()
        pages = max(1, -(-len(keys) // 1000))
        for _ in range(pages):
            self._charge(0, "list")
        return keys

    def nbytes(self) -> int:
        return self.backing.nbytes()

    def __repr__(self) -> str:
        return (
            f"SimulatedObjectStore(name={self.name!r}, "
            f"network={self.network.name!r}, keys={len(self.backing._all_keys())})"
        )


def make_object_store(
    kind: str,
    clock: SimClock | None = None,
    backing: StorageProvider | None = None,
    **overrides,
) -> SimulatedObjectStore:
    """Build a preset-configured store: ``kind`` in s3|gcs|minio|cross-region.

    GCS shares S3's model with slightly different constants.
    """
    presets = dict(NETWORK_PRESETS)
    presets["gcs"] = presets["s3"].scaled(latency_mult=1.1)
    presets["gcs"].name = "gcs"
    if kind not in presets:
        raise ValueError(f"unknown object-store preset {kind!r}; "
                         f"expected one of {sorted(presets)}")
    network = presets[kind]
    if overrides:
        network = NetworkModel(
            latency_s=overrides.get("latency_s", network.latency_s),
            bandwidth_bps=overrides.get("bandwidth_bps", network.bandwidth_bps),
            request_overhead_s=overrides.get(
                "request_overhead_s", network.request_overhead_s
            ),
            jitter=overrides.get("jitter", network.jitter),
            name=kind,
        )
    return SimulatedObjectStore(kind, network=network, clock=clock, backing=backing)
