"""Prefetcher: the parallel fetch/decode stage of the dataloader (§4.6).

"Deep Lake dataloader delegates highly parallel fetching and in-place
decompressing in C++ per process to avoid global interpreter lock" — here
the decoders (zlib/scipy) release the GIL, so a thread pool achieves the
same overlap.  Two properties from the paper are reproduced explicitly:

- **Smart scheduler**: tasks carry an estimated CPU cost; workers pull
  the most CPU-intensive pending task first so decode-heavy samples start
  early and hide under lighter ones ("dynamically differentiating between
  CPU-intensive jobs prioritization over less-intensive").
- **Efficient resource allocation**: work is counted in *tasks* (one
  worker's share of a batch, see ``loader.py``); a task's rows and the
  tasks in flight (``num_workers × 2``: one running, one queued per
  worker — what ``loader.prefetch_queue_depth`` shows) are both capped by
  a memory budget computed from worst-case decoded sample size
  ("predicting memory consumption to avoid breaking the training process
  due to memory overfilling").
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.exceptions import (
    DataLoaderError,
    MemoryBudgetError,
    TaskCancelledError,
)


class PriorityWorkerPool:
    """Thread pool draining a max-priority task heap."""

    def __init__(self, num_workers: int):
        self.num_workers = max(1, num_workers)
        self._heap: List = []
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._shutdown = False
        # named so trace/debug output can tell loader workers apart
        self._threads = [
            threading.Thread(
                target=self._worker, daemon=True,
                name=f"loader-prefetch-{i}",
            )
            for i in range(self.num_workers)
        ]
        for t in self._threads:
            t.start()

    def submit(self, priority: float, fn: Callable, *args) -> "Future":
        future = Future()
        with self._not_empty:
            if self._shutdown:
                raise DataLoaderError("worker pool is shut down")
            # negate priority: heapq pops smallest, we want biggest first
            heapq.heappush(
                self._heap, (-priority, next(self._counter), fn, args, future)
            )
            self._not_empty.notify()
        return future

    def _worker(self) -> None:
        while True:
            with self._not_empty:
                while not self._heap and not self._shutdown:
                    self._not_empty.wait()
                if self._shutdown and not self._heap:
                    return
                _prio, _seq, fn, args, future = heapq.heappop(self._heap)
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - consumer sees it too
                future.set_exception(exc)
                if not isinstance(exc, Exception):
                    raise  # an exit or interrupt also ends this worker

    def pending(self) -> int:
        """Tasks queued but not yet picked up by a worker."""
        with self._lock:
            return len(self._heap)

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Stop the pool; by default cancel tasks that never started.

        Cancelling wakes every waiter with :class:`TaskCancelledError`
        instead of leaving it blocked on a result that will never arrive
        (a shutting-down server/loader must not deadlock its consumers).
        Tasks already running complete normally.
        """
        with self._not_empty:
            self._shutdown = True
            if cancel_pending:
                pending = self._heap
                self._heap = []
            else:
                pending = []
            self._not_empty.notify_all()
        for _prio, _seq, _fn, _args, future in pending:
            future.cancel()
        for t in self._threads:
            t.join(timeout=5)


class Future:
    """Tiny future (avoids concurrent.futures' executor coupling).

    Settling is first-wins and idempotent: once a result, exception, or
    cancellation lands, later ``set_*`` calls return ``False`` and change
    nothing — so a worker finishing a task that was cancelled mid-flight
    cannot clobber the cancellation (and vice versa).
    """

    __slots__ = ("_event", "_lock", "_result", "_exc", "_cancelled")

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result = None
        self._exc: Optional[BaseException] = None
        self._cancelled = False

    def set_result(self, value) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._result = value
            self._event.set()
            return True

    def set_exception(self, exc: BaseException) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._exc = exc
            self._event.set()
            return True

    def cancel(self) -> bool:
        """Settle with :class:`TaskCancelledError`; False if already done."""
        with self._lock:
            if self._event.is_set():
                return False
            self._cancelled = True
            self._exc = TaskCancelledError("task cancelled before it ran")
            self._event.set()
            return True

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise DataLoaderError("prefetch task timed out")
        if self._exc is not None:
            raise self._exc
        return self._result

    def done(self) -> bool:
        return self._event.is_set()

    def cancelled(self) -> bool:
        return self._cancelled


def group_indices(rows: Sequence[int], group_size: int) -> List[tuple]:
    """Split an order plan into contiguous tasks of *group_size* rows.

    Each becomes one prefetch task executing a single ReadPlan, so with a
    chunk-aware order plan a task's rows land on one (or few) chunks and
    the fetch/decompress amortizes across the whole task.
    """
    size = max(1, int(group_size))
    rows = list(rows)
    return [tuple(rows[i : i + size]) for i in range(0, len(rows), size)]


def compute_inflight_limit(
    num_workers: int,
    per_worker: int,
    item_nbytes: int,
    memory_budget_bytes: Optional[int],
) -> int:
    """How many items (rows of a task, tasks of an epoch) of *item_nbytes*
    may be in flight at once: *per_worker* each, under the byte budget."""
    limit = max(1, num_workers) * max(1, per_worker)
    if memory_budget_bytes is not None and item_nbytes > 0:
        by_memory = memory_budget_bytes // item_nbytes
        if by_memory < 1:
            raise MemoryBudgetError(
                f"a single decoded sample (~{item_nbytes} B) exceeds the "
                f"memory budget ({memory_budget_bytes} B)"
            )
        limit = min(limit, int(by_memory))
    return max(1, limit)


def prefetched(
    indices: Sequence,
    fetch: Callable[..., Dict],
    num_workers: int,
    inflight_limit: int,
    priority_of: Optional[Callable[..., float]] = None,
    queue_gauge=None,
) -> Iterator[Dict]:
    """Yield ``fetch(i)`` results in input order with bounded lookahead.

    Workers run ahead by up to *inflight_limit* items (the loader's
    tasks); consumption order is preserved so batches are deterministic
    given the order plan.

    *queue_gauge* (an :class:`repro.obs.metrics.Gauge`, optional) tracks
    the number of in-flight prefetch tasks so a metrics snapshot shows
    how far ahead of the consumer the workers are running.
    """
    if num_workers <= 0:
        for i in indices:
            yield fetch(i)
        return
    pool = PriorityWorkerPool(num_workers)
    try:
        indices = list(indices)
        futures: Dict[int, Future] = {}
        next_submit = 0

        def submit_upto(target: int) -> None:
            nonlocal next_submit
            while next_submit < min(target, len(indices)):
                i = indices[next_submit]
                prio = priority_of(i) if priority_of else 0.0
                futures[next_submit] = pool.submit(prio, fetch, i)
                next_submit += 1
            if queue_gauge is not None:
                queue_gauge.set(len(futures))

        submit_upto(inflight_limit)
        for pos in range(len(indices)):
            future = futures.pop(pos)
            value = future.result(timeout=300)
            submit_upto(pos + 1 + inflight_limit)
            yield value
    finally:
        pool.shutdown()
