"""Traffic generation: many simulated clients hammering one serving tier.

The serving benchmarks need "N concurrent tenants each running an epoch"
as a first-class primitive.  :func:`run_concurrent_clients` spawns one
thread per client, lines them up on a barrier so the burst is genuinely
simultaneous, runs ``client_fn(client_id) -> samples_processed`` in each,
and reports per-client and aggregate throughput.  Exceptions are captured
per client rather than tearing down the run, so an admission-control
rejection in one tenant is an observable datum, not a test crash.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass
class ClientResult:
    """Outcome of one simulated client's workload."""

    client_id: int
    samples: int = 0
    elapsed_s: float = 0.0
    error: Optional[BaseException] = None

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass
class TrafficReport:
    """Aggregate view over all clients of one burst."""

    results: List[ClientResult] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def total_samples(self) -> int:
        return sum(r.samples for r in self.results)

    @property
    def aggregate_samples_per_s(self) -> float:
        return self.total_samples / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def errors(self) -> List[BaseException]:
        return [r.error for r in self.results if r.error is not None]

    def raise_errors(self) -> None:
        """Re-raise the first client error, if any client failed."""
        errors = self.errors
        if errors:
            raise errors[0]

    def as_dict(self) -> dict:
        return {
            "clients": len(self.results),
            "total_samples": self.total_samples,
            "wall_s": round(self.wall_s, 4),
            "aggregate_samples_per_s": round(self.aggregate_samples_per_s, 1),
            "errors": len(self.errors),
        }


def run_concurrent_clients(
    num_clients: int,
    client_fn: Callable[[int], int],
    timeout_s: float = 120.0,
) -> TrafficReport:
    """Run *client_fn* in *num_clients* threads released simultaneously.

    ``client_fn(client_id)`` returns the number of samples it processed.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    results = [ClientResult(client_id=i) for i in range(num_clients)]
    barrier = threading.Barrier(num_clients + 1)

    def _run(result: ClientResult) -> None:
        barrier.wait(timeout=timeout_s)
        t0 = time.perf_counter()
        try:
            result.samples = int(client_fn(result.client_id))
        except Exception as e:  # noqa: BLE001 - reported per client
            result.error = e
        result.elapsed_s = time.perf_counter() - t0

    threads = [
        threading.Thread(target=_run, args=(r,), daemon=True)
        for r in results
    ]
    for t in threads:
        t.start()
    barrier.wait(timeout=timeout_s)
    t0 = time.perf_counter()
    for t, result in zip(threads, results):
        t.join(timeout=timeout_s)
        if t.is_alive():
            # a hung client is a failure, not a clean zero-sample run
            result.error = TimeoutError(
                f"client {result.client_id} still running after "
                f"{timeout_s}s"
            )
    wall = time.perf_counter() - t0
    return TrafficReport(results=results, wall_s=wall)
