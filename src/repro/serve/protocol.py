"""Wire protocol of the Tensor Streaming Server.

The server and its clients exchange :class:`Request`/:class:`Response`
messages over a :class:`~repro.serve.transport.Transport`.  Transports are
in-process (this is a single-process reproduction), so payloads stay as
``bytes`` objects rather than being framed onto a socket — but the message
types are kept flat and serializable-shaped (strings, ints, bytes, tuples)
so a real network framing could be bolted on without touching the server
or client, and so the simulated-network transport can charge a realistic
byte cost per message (:meth:`Request.nbytes` / :meth:`Response.nbytes`).

Errors cross the boundary by name: the server catches the exception,
ships ``(error_type, message)``, and the client re-raises the matching
class from :mod:`repro.exceptions` — so ``KeyNotFound`` raised behind the
server looks identical to ``KeyNotFound`` from a local provider, which is
what lets :class:`~repro.serve.client.RemoteStorageProvider` slot in under
unmodified `Dataset` / loader / TQL code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

from repro import exceptions as exc

#: Fixed per-message framing cost (headers, op, ids) charged by the
#: simulated-network transport in addition to key/payload bytes.
MESSAGE_OVERHEAD_BYTES = 64

#: Request operations understood by :meth:`DatasetServer.handle`.
OPS = ("ping", "get", "get_many", "read_batch", "put", "put_many", "delete",
       "keys", "flush", "stats")


@dataclass(frozen=True)
class Request:
    """One client → server message."""

    op: str
    tenant: str = "default"
    dataset: str = ""
    key: str = ""
    keys: Tuple[str, ...] = ()          # get_many
    start: Optional[int] = None         # ranged get
    end: Optional[int] = None
    payload: bytes = b""                # put
    #: put_many — install order is preserved server-side, so a batch of
    #: class-ordered keys keeps its crash-consistency guarantee remotely
    blobs: Dict[str, bytes] = field(default_factory=dict)
    #: read_batch columns: the server fuses the per-tensor plans into one
    #: backend ``get_many`` and answers on :attr:`Response.columns`
    tensors: Tuple[str, ...] = ()
    rows: Tuple[int, ...] = ()          # read_batch
    #: W3C-trace-context-style propagation: when set, the server records
    #: its handling as a detached span tree under this parent and ships
    #: the tree back on :attr:`Response.trace`.
    trace_id: str = ""
    parent_span: str = ""

    def nbytes(self) -> int:
        """Approximate on-the-wire size (for network cost models)."""
        return (
            MESSAGE_OVERHEAD_BYTES
            + len(self.tenant)
            + len(self.dataset)
            + len(self.key)
            + sum(len(k) for k in self.keys)
            + len(self.payload)
            + sum(len(k) + len(v) for k, v in self.blobs.items())
            + sum(len(t) for t in self.tensors)
            + 8 * len(self.rows)
            + len(self.trace_id)
            + len(self.parent_span)
        )


@dataclass
class Response:
    """One server → client message."""

    ok: bool = True
    data: bytes = b""                             # get
    blobs: Dict[str, bytes] = field(default_factory=dict)  # get_many
    keys: Tuple[str, ...] = ()                    # keys
    #: read_batch: tensor → one (dtype, shape, payload) triple per row
    columns: Dict[str, Tuple[Tuple[str, Tuple[int, ...], bytes], ...]] = (
        field(default_factory=dict)
    )
    info: Optional[dict] = None                   # stats / ping
    error_type: str = ""
    error: str = ""
    #: serialized server-side span tree (set when the request carried a
    #: trace context); the client grafts it under its own calling span
    trace: Optional[dict] = None

    def nbytes(self) -> int:
        n = MESSAGE_OVERHEAD_BYTES + len(self.data) + len(self.error)
        if self.trace is not None:
            n += len(repr(self.trace))
        n += sum(len(k) + len(v) for k, v in self.blobs.items())
        n += sum(len(k) for k in self.keys)
        for name, triples in self.columns.items():
            n += len(name)
            n += sum(
                len(dtype) + 4 * len(shape) + len(payload)
                for dtype, shape, payload in triples
            )
        if self.info is not None:
            n += len(repr(self.info))  # stats/ping payloads cost bytes too
        return n


# --------------------------------------------------------------------------- #
# error marshalling
# --------------------------------------------------------------------------- #

#: Exception classes allowed to cross the protocol boundary by name.
_ERROR_TYPES: Dict[str, Type[BaseException]] = {
    cls.__name__: cls
    for cls in (
        exc.KeyNotFound,
        exc.ReadOnlyStorageError,
        exc.ServeError,
        exc.UnknownDatasetError,
        exc.AdmissionError,
        exc.NetworkError,
        exc.StorageError,
        exc.TensorDoesNotExistError,
        exc.SampleIndexError,
        exc.DeepLakeError,
    )
}


def error_response(error: BaseException) -> Response:
    """Encode *error* for the wire, preserving the closest known type."""
    name = type(error).__name__
    if name not in _ERROR_TYPES:
        for base_name, base_cls in _ERROR_TYPES.items():
            if isinstance(error, base_cls):
                name = base_name
                break
        else:
            name = "ServeError"
    message = getattr(error, "key", None) or str(error)
    return Response(ok=False, error_type=name, error=str(message))


def raise_from_response(resp: Response) -> None:
    """Re-raise the server-side error carried by *resp* (no-op when ok)."""
    if resp.ok:
        return
    cls = _ERROR_TYPES.get(resp.error_type, exc.ServeError)
    raise cls(resp.error)
