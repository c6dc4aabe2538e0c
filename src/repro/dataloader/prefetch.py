"""Prefetcher: the parallel fetch/decode stage of the dataloader (§4.6).

"Deep Lake dataloader delegates highly parallel fetching and in-place
decompressing in C++ per process to avoid global interpreter lock" — here
the decoders release the GIL inside zlib and BLAS, so a thread pool
achieves the same overlap.  Three properties from the paper are reproduced explicitly:

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
- **Highly parallel fetching**: while tasks ``[p, p + L)`` are in
  flight (``L`` the in-flight limit), the chunks of the next *lead*
  windows of ``L`` tasks are fetched or being fetched — by one
  ``loader-fetch-ahead`` thread, in ONE fused ``get_many`` for every
  window handed to it since its last — so storage round trips overlap
  the workers' decode instead of alternating with it.  The lead is
  measured, not set: it starts at one window and grows by one each time
  a window is handed over while the thread is still fetching, so
  fetching runs as far ahead as the network is behind.
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
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing


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


class _Ahead:
    """The fetch-ahead stage of :func:`prefetched`: one thread that, each
    time items were handed to it since its last call, runs ``warm`` once
    on every item from the consumer's position (:attr:`first`) through
    the last one handed, under the consumer's span."""

    def __init__(self, items: List, warm: Callable[[List], None], parent):
        self._items = items
        self._warm = warm
        self._parent = parent
        self._cond = threading.Condition()
        self.first = 0  # items before it are consumed
        self._handed = self._taken = self._done = 0  # item counts
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="loader-fetch-ahead"
        )
        self._thread.start()

    @property
    def behind(self) -> bool:
        """Whether the thread is still warming (or yet to take) items
        handed to it."""
        return self._done < self._handed

    def hand(self, end: int) -> None:
        """Hand over the items before *end*."""
        with self._cond:
            self._handed = end
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while self._taken == self._handed and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                first, self._taken = self.first, self._handed
            try:
                with _tracing.attached(self._parent):
                    self._warm(self._items[first:self._taken])
            except Exception:  # noqa: BLE001 - the items' tasks raise it:
                pass  # from the flights it led, or fetching again themselves
            with self._cond:
                self._done = self._taken

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join(timeout=5)


def _under(parent, fn: Callable, item):
    with _tracing.attached(parent):
        return fn(item)


def prefetched(
    indices: Sequence,
    fetch: Callable[..., Dict],
    num_workers: int,
    inflight_limit: int,
    priority_of: Optional[Callable[..., float]] = None,
    queue_gauge=None,
    warm: Optional[Callable[[List], None]] = None,
) -> Iterator[Dict]:
    """Yield ``fetch(i)`` results in input order, the workers at most
    *inflight_limit* items ahead of the consumer.

    Consumption order is preserved so batches are deterministic given
    the order plan.  Each ``fetch`` runs under the consumer's current
    span (:func:`repro.obs.tracing.attached`), so a traced epoch's tree
    holds its workers' spans.

    *warm* (optional) is the fetch-ahead stage: ``warm(items)`` brings
    what the ``fetch`` of *items* will read close, so that while items
    ``[p, p + L)`` are in flight (``L = inflight_limit``) the next
    *lead* windows of ``L`` are already warm or warming.  The first call
    covers ``[0, 2L)`` before anything is submitted.  Then, each time
    the submitted items come within *lead* windows of the last one
    handed, a ``loader-fetch-ahead`` thread is handed items up to
    *lead* + 1 windows past them; whenever it has new ones it calls
    ``warm`` once, on every item from the consumer's position through
    the last handed, so the ones it must fetch ride one call and
    ``warm`` sees all it keeps live.  The lead starts at one window and
    a hand-over that finds the thread still behind adds one: how far
    ahead fetching runs is how far the fetches are behind the workers.
    ``loader.lead_windows`` holds it.  An error of the first call is
    raised here; the thread's reach the consumer through those items'
    ``fetch`` calls.

    *queue_gauge* (an :class:`repro.obs.metrics.Gauge`, optional) tracks
    the number of in-flight prefetch tasks so a metrics snapshot shows
    how far ahead of the consumer the workers are running.
    """
    if num_workers <= 0:
        for i in indices:
            yield fetch(i)
        return
    indices = list(indices)
    parent = _tracing.current_span()
    pool = PriorityWorkerPool(num_workers)
    ahead = _Ahead(indices, warm, parent) if warm is not None else None
    try:
        futures: Dict[int, Future] = {}
        next_submit = 0
        warmed = 0  # items [0, warmed) were warmed or handed to the thread
        lead = 1  # windows of inflight_limit kept warm past the submitted
        if ahead is not None:
            lead_gauge = _metrics.gauge("loader.lead_windows")
            lead_gauge.set(lead)
            warmed = 2 * inflight_limit
            warm(indices[:warmed])

        def submit_upto(target: int) -> None:
            nonlocal next_submit, warmed, lead
            while next_submit < min(target, len(indices)):
                i = indices[next_submit]
                prio = priority_of(i) if priority_of else 0.0
                futures[next_submit] = pool.submit(
                    prio, _under, parent, fetch, i
                )
                next_submit += 1
                if ahead is not None and warmed < len(indices) and (
                        next_submit + lead * inflight_limit >= warmed):
                    if ahead.behind:  # the fetches lag: one more window
                        lead += 1
                        lead_gauge.set(lead)
                    warmed = next_submit + (lead + 1) * inflight_limit
                    ahead.hand(min(warmed, len(indices)))
            if queue_gauge is not None:
                queue_gauge.set(len(futures))

        submit_upto(inflight_limit)
        for pos in range(len(indices)):
            future = futures.pop(pos)
            value = future.result(timeout=300)
            if ahead is not None:
                ahead.first = pos + 1
            submit_upto(pos + 1 + inflight_limit)
            yield value
    finally:
        if ahead is not None:
            ahead.stop()
        pool.shutdown()
