"""Transports carrying serve-protocol messages between client and server.

Three implementations, trading fidelity for speed:

- :class:`InprocTransport` — the request is handled synchronously in the
  calling thread.  Zero overhead; concurrency comes from the *callers'*
  threads (e.g. prefetch workers), exercising the server's locking.
- :class:`ThreadedTransport` — a real server loop: requests are queued to
  a pool of server worker threads and the caller blocks on a reply
  future.  Shutting the transport down cancels queued requests so no
  client deadlocks waiting on a reply that will never come.
- :class:`SimNetworkTransport` — wraps another transport and charges each
  request/response's modelled transfer time to a
  :class:`~repro.sim.clock.SimClock`, so benchmarks measure the serving
  tier under latency-faithful (scaled-real-sleep) network conditions.
"""

from __future__ import annotations

from typing import Optional

from repro.dataloader.prefetch import PriorityWorkerPool
from repro.exceptions import (
    AdmissionError,
    DataLoaderError,
    ServeError,
    TaskCancelledError,
)
from repro.serve.protocol import Request, Response, error_response
from repro.sim.clock import SimClock
from repro.sim.network import NETWORK_PRESETS, NetworkModel


class Transport:
    """Request/response channel to a :class:`DatasetServer`."""

    def request(self, req: Request) -> Response:
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (idempotent)."""


class InprocTransport(Transport):
    """Handle requests synchronously in the caller's thread."""

    def __init__(self, server):
        self.server = server

    def request(self, req: Request) -> Response:
        return self.server.handle(req)


class ThreadedTransport(Transport):
    """Queue requests to a pool of server worker threads.

    The reply path is a :class:`~repro.dataloader.prefetch.Future`; pool
    shutdown cancels pending requests, which surfaces to blocked clients
    as a ``ServeError`` instead of a deadlock.

    ``max_pending`` bounds the request queue: once that many requests are
    waiting for a worker, further requests are rejected immediately with
    :class:`AdmissionError` instead of queueing without bound (the
    server's per-tenant in-flight limits apply once a worker picks a
    request up, so with few workers the queue bound is what protects the
    server from a request storm).
    """

    def __init__(self, server, num_workers: int = 4,
                 timeout_s: Optional[float] = 60.0,
                 max_pending: Optional[int] = 512):
        self.server = server
        self.timeout_s = timeout_s
        self.max_pending = max_pending
        self._pool = PriorityWorkerPool(num_workers)
        self._closed = False

    def request(self, req: Request) -> Response:
        if self._closed:
            return error_response(ServeError("transport is closed"))
        if (
            self.max_pending is not None
            and self._pool.pending() >= self.max_pending
        ):
            return error_response(AdmissionError(
                f"server request queue full ({self.max_pending} pending)"
            ))
        try:
            future = self._pool.submit(0.0, self.server.handle, req)
        except DataLoaderError as e:  # pool shut down under us
            return error_response(ServeError(str(e)))
        try:
            return future.result(timeout=self.timeout_s)
        except TaskCancelledError:
            return error_response(
                ServeError("server shut down before handling the request")
            )
        except DataLoaderError:  # Future.result timeout
            return error_response(
                ServeError(
                    f"no reply from server within {self.timeout_s}s"
                )
            )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(cancel_pending=True)


class SimNetworkTransport(Transport):
    """Charge modelled client↔server network time around an inner transport.

    With a ``time_scale > 0`` clock the charge is a scaled real sleep, so
    many concurrent simulated clients overlap their round trips exactly
    like real sockets would.
    """

    def __init__(
        self,
        inner: Transport,
        network: NetworkModel | str = "local",
        clock: Optional[SimClock] = None,
    ):
        self.inner = inner
        if isinstance(network, str):
            network = NETWORK_PRESETS[network]
        self.network = network
        self.clock = clock or SimClock()

    def request(self, req: Request) -> Response:
        self.clock.charge(
            self.network.transfer_time(req.nbytes()), "serve-request"
        )
        resp = self.inner.request(req)
        self.clock.charge(
            self.network.transfer_time(resp.nbytes()), "serve-response"
        )
        return resp

    def close(self) -> None:
        self.inner.close()
