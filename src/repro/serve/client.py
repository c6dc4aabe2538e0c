"""Client side of the Tensor Streaming Server.

:class:`RemoteStorageProvider` is a full :class:`StorageProvider` whose
backing "disk" is a served dataset reached over a transport.  Because the
entire repo talks to storage through that one interface, `Dataset`,
`DeepLakeLoader` prefetch workers, TQL, and the visualizer all run
*unmodified* against a remote dataset — the provider is what the
``serve://`` scheme in :func:`repro.storage.router.storage_from_url`
returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.obs import tracing as _tracing
from repro.serve.protocol import Request, Response, raise_from_response
from repro.serve.transport import Transport
from repro.storage.provider import StorageProvider


class RemoteStorageProvider(StorageProvider):
    """Storage provider proxying every operation to a DatasetServer."""

    def __init__(self, transport: Transport, dataset: str,
                 tenant: str = "default"):
        super().__init__()
        self.transport = transport
        self.dataset = dataset
        self.tenant = tenant

    # ------------------------------------------------------------------ #

    def _request(self, op: str, **fields) -> Response:
        """One round trip, trace-stitched: when this thread is tracing,
        the request carries ``(trace_id, span_id)`` and the server's span
        tree comes back on the response and is grafted under the call."""
        with _tracing.span(f"serve.client.{op}", dataset=self.dataset,
                           tenant=self.tenant):
            ctx = _tracing.trace_context()
            if ctx is not None:
                req = Request(op=op, tenant=self.tenant,
                              dataset=self.dataset, trace_id=ctx[0],
                              parent_span=ctx[1], **fields)
            else:
                req = Request(op=op, tenant=self.tenant,
                              dataset=self.dataset, **fields)
            resp = self.transport.request(req)
            _tracing.attach_remote(resp.trace)
            raise_from_response(resp)
        return resp

    def _get(self, key: str, start: Optional[int],
             end: Optional[int]) -> bytes:
        return self._request("get", key=key, start=start, end=end).data

    def _set(self, key: str, value: bytes) -> None:
        self._request("put", key=key, payload=value)

    def set_many(self, items: Dict[str, bytes]) -> None:
        """Write several blobs in one round trip.

        The server installs the batch through its backend's ``set_many``
        in this dict's iteration order, so a chunk-engine flush against a
        served dataset pays one message per batch instead of one per key
        while keeping the chunks-before-meta ordering contract.
        """
        self.check_writable()
        if not items:
            return
        payload = {key: bytes(value) for key, value in items.items()}
        self._request("put_many", blobs=payload)
        for value in payload.values():
            self.stats.record_put(len(value))
            self._m_puts.inc()
            self._m_bytes_written.inc(len(value))

    def _delete(self, key: str) -> None:
        self._request("delete", key=key)

    def _all_keys(self) -> Set[str]:
        return set(self._request("keys").keys)

    def flush(self) -> None:
        self._request("flush")

    # ------------------------------------------------------------------ #
    # serve-specific extensions
    # ------------------------------------------------------------------ #

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """Fetch several blobs in one round trip (missing keys omitted).

        One request/response pays the transport's per-message cost once —
        the batching analogue of the server's range→chunk coalescing.
        """
        resp = self._request("get_many", keys=tuple(keys))
        for data in resp.blobs.values():
            self.stats.record_get(len(data))
        return dict(resp.blobs)

    def read_batch(self, tensor: str, rows: Sequence[int]) -> List[np.ndarray]:
        """Decoded samples for many rows of *tensor* in one round trip.

        The server executes one ReadPlan (chunks fetched + decompressed
        once, through its shared cache) and ships every sample back in a
        single response — the sample-level analogue of :meth:`get_many`.
        """
        return self.read_columns([tensor], rows)[tensor]

    def read_columns(
        self, tensors: Sequence[str], rows: Sequence[int]
    ) -> Dict[str, List[np.ndarray]]:
        """Decoded samples for many rows of *several* tensors in ONE round
        trip.

        The server fuses the per-tensor ReadPlans so all columns' chunk
        misses reach its backend in a single ``get_many`` — a worker group
        touching images+labels+boxes costs one message instead of three.
        """
        resp = self._request(
            "read_batch", tensors=tuple(tensors),
            rows=tuple(int(r) for r in rows),
        )
        out: Dict[str, List[np.ndarray]] = {}
        for name, triples in resp.columns.items():
            column = []
            for dtype, shape, payload in triples:
                self.stats.record_get(len(payload))
                arr = np.frombuffer(payload, dtype=np.dtype(dtype))
                column.append(arr.reshape(tuple(shape)).copy())
            out[name] = column
        return out

    def server_stats(self) -> dict:
        """The server's live stats snapshot (cache, tenants, admission)."""
        return self._request("stats").info

    def ping(self) -> dict:
        return self._request("ping").info

    def __repr__(self) -> str:
        return (
            f"RemoteStorageProvider(dataset={self.dataset!r}, "
            f"tenant={self.tenant!r})"
        )
