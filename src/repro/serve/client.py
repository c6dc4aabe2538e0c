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

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro.compression import decompress_arrays
from repro.core.read_plan import sequence_rows
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

    @contextmanager
    def _exchange(self, op: str, **fields) -> Iterator[Response]:
        """One round trip, trace-stitched: when this thread is tracing,
        the request carries ``(trace_id, span_id)`` and the server's span
        tree comes back on the response and is grafted under the call.
        The caller's block (a served read's decode) runs in the span."""
        with _tracing.span(f"serve.client.{op}", dataset=self.dataset,
                           tenant=self.tenant):
            trace_id, parent = _tracing.trace_context() or ("", "")
            resp = self.transport.request(Request(
                op=op, tenant=self.tenant, dataset=self.dataset,
                trace_id=trace_id, parent_span=parent, **fields))
            _tracing.attach_remote(resp.trace)
            raise_from_response(resp)
            yield resp

    def _request(self, op: str, **fields) -> Response:
        with self._exchange(op, **fields) as resp:
            return resp

    def _get(self, key: str, start: Optional[int],
             end: Optional[int]) -> bytes:
        return self._request("get", key=key, start=start, end=end).data

    def _set(self, key: str, value: bytes) -> None:
        self._request("put", key=key, payload=value)

    def _store_many(self, items: Dict[str, bytes]) -> None:
        """Write several blobs in one round trip.

        The server installs the batch through its backend's ``set_many``
        in this dict's iteration order, so a chunk-engine flush against a
        served dataset pays one message per batch instead of one per key
        while keeping the chunks-before-meta ordering contract.
        """
        self._request("put_many", blobs=items)

    def _delete(self, key: str) -> None:
        self._request("delete", key=key)

    def _all_keys(self) -> Set[str]:
        return set(self._request("keys").keys)

    def flush(self) -> None:
        self._request("flush")

    # ------------------------------------------------------------------ #
    # serve-specific extensions
    # ------------------------------------------------------------------ #

    def _fetch_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        """Fetch several blobs in one round trip (missing keys omitted).

        One request/response pays the transport's per-message cost once —
        the batching analogue of the server's range→chunk coalescing.
        """
        return dict(self._request("get_many", keys=tuple(keys)).blobs)

    def read_batch(self, tensor: str, rows: Sequence[int]) -> List[np.ndarray]:
        """Samples of many rows of *tensor* in one round trip, decoded on
        the calling thread: :meth:`read_columns` of one column."""
        return self.read_columns([tensor], rows)[tensor]

    def read_columns(
        self, tensors: Sequence[str], rows: Sequence[int]
    ) -> Dict[str, List[np.ndarray]]:
        """Samples of many rows of *several* tensors in ONE round trip:
        per tensor, the list a local ``read_rows`` returns.

        The server fuses the per-tensor ReadPlans so all columns' chunk
        misses reach its backend in a single ``get_many``, and answers
        each tensor with one column of framed payloads (a JPEG tensor's
        stored bytes).  This thread, the tenant's, decodes each column
        with ONE codec call and regroups a sequence tensor's items.
        """
        t0 = time.perf_counter()
        with self._exchange("read_batch", tensors=tuple(tensors),
                            rows=tuple(int(r) for r in rows)) as resp:
            self._record_read(  # one read: the round trip's payloads
                1, sum(len(p) for column in resp.columns.values()
                       for p in column[1]), t0, self._GET_MANY)
            out: Dict[str, List[np.ndarray]] = {}
            for name, (codec, payloads, *seq) in resp.columns.items():
                values = decompress_arrays(payloads, codec)
                out[name] = sequence_rows(values, *seq) if seq else values
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
