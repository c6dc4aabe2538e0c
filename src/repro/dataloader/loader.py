"""DeepLakeLoader: the streaming dataloader of §4.6.

The pipeline counts work in one unit, the *task*: order plan -> tasks,
each one worker's share of a batch (``ceil(batch_size / num_workers)``
rows; a whole batch when ``num_workers=0``) -> ``num_workers × 2`` tasks
in flight on the prefetch pool (one running, one queued per worker; both
numbers capped by the memory budget), a task being ONE
``Dataset.read_rows`` (one :class:`~repro.core.chunk_engine.ReadPlan`
per tensor fused into one storage round trip, each chunk fetched whole,
decompressed once, all samples sliced; codecs release the GIL) plus the
user transform -> the consumer re-batches tasks in plan order (shares
need not divide a batch) -> collate -> framework handover.  The loader
streams, so it never takes the ranged single-sample fetch: even
``batch_size=1`` costs one GET per chunk, its neighbours are consumed
next and served from the decoded chunk.
Statistics record
wall time spent waiting on data vs total so benchmarks can report loader
stall (the complement of GPU utilization in the training sims), plus the
decoded-chunk cache hit/miss counts that make chunk-granular batching
observable.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataloader.collate import default_collate
from repro.dataloader.order import (
    chunk_aware_shuffle,
    sequential_order,
    shard_for_rank,
)
from repro.dataloader.prefetch import (
    compute_inflight_limit,
    group_indices,
    prefetched,
)
from repro.exceptions import DataLoaderError
from repro.integrations.frameworks import to_backend
from repro.obs import metrics as _metrics


class LoaderStats:
    """Throughput/stall accounting of one epoch.

    ``chunk_cache_hits``/``chunk_cache_misses`` are *views* over the
    engines' registry-backed counters — each reads the engine's counter
    at call time minus its value when the epoch started — not mutable
    field-level copies, so the numbers can never drift from the engines'
    own accounting.
    """

    def __init__(self):
        self.samples = 0
        self.batches = 0
        self.wait_s = 0.0
        self.total_s = 0.0
        self.transform_s = 0.0
        self._engine_baselines: List[Tuple] = []

    def _track_engines(self, engines) -> None:
        """Snapshot engine counters at epoch start; deltas are the view."""
        self._engine_baselines = [
            (e, e.chunk_cache_hits, e.chunk_cache_misses) for e in engines
        ]

    @property
    def chunk_cache_hits(self) -> int:
        return sum(
            e.chunk_cache_hits - h0 for e, h0, _m0 in self._engine_baselines
        )

    @property
    def chunk_cache_misses(self) -> int:
        return sum(
            e.chunk_cache_misses - m0 for e, _h0, m0 in self._engine_baselines
        )

    @property
    def samples_per_second(self) -> float:
        return self.samples / self.total_s if self.total_s > 0 else 0.0

    @property
    def stall_fraction(self) -> float:
        return self.wait_s / self.total_s if self.total_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "batches": self.batches,
            "samples_per_s": round(self.samples_per_second, 1),
            "stall_fraction": round(self.stall_fraction, 4),
            "total_s": round(self.total_s, 4),
            "chunk_cache_hits": self.chunk_cache_hits,
            "chunk_cache_misses": self.chunk_cache_misses,
        }


class DeepLakeLoader:
    """Iterable of collated batches streaming straight from storage."""

    def __init__(
        self,
        dataset,
        batch_size: int = 1,
        shuffle: bool = False,
        window_chunks: int = 8,
        num_workers: int = 0,
        transform: Optional[Callable[[Dict], Dict]] = None,
        tensors: Optional[Sequence[str]] = None,
        drop_last: bool = False,
        collate: Optional[Callable] = None,
        backend: str = "numpy",
        memory_budget_bytes: Optional[int] = 512 * 1024 * 1024,
        seed: Optional[int] = None,
        distributed: Optional[Tuple[int, int]] = None,  # (rank, world)
        decode: bool = True,
    ):
        self.dataset = dataset
        self.batch_size = int(batch_size)
        if self.batch_size < 1:
            raise DataLoaderError("batch_size must be >= 1")
        self.shuffle = shuffle
        self.window_chunks = window_chunks
        self.num_workers = int(num_workers)
        self.transform = transform
        self.tensor_names = (
            list(tensors) if tensors is not None else list(dataset.tensors)
        )
        if not self.tensor_names:
            raise DataLoaderError("dataset has no tensors to load")
        self.drop_last = drop_last
        self.collate = collate or default_collate
        self.backend = backend
        self.memory_budget_bytes = memory_budget_bytes
        self.seed = seed
        self.distributed = distributed
        self.decode = decode
        self.stats = LoaderStats()
        ds_label = str(getattr(dataset, "path", "") or "dataset")
        self._h_batch = _metrics.histogram(
            "loader.batch_seconds", dataset=ds_label
        )
        self._h_wait = _metrics.histogram(
            "loader.wait_seconds", dataset=ds_label
        )
        self._m_samples = _metrics.counter("loader.samples", dataset=ds_label)
        self._m_batches = _metrics.counter("loader.batches", dataset=ds_label)
        self._g_queue = _metrics.gauge(
            "loader.prefetch_queue_depth", dataset=ds_label
        )

    # ------------------------------------------------------------------ #

    def _qualified(self) -> List[str]:
        if not hasattr(self, "_qualified_cache"):
            self._qualified_cache = [
                self.dataset._qualify(t) for t in self.tensor_names
            ]
        return self._qualified_cache

    def _dominant_engine(self):
        return max(self._engines(), key=lambda e: e.meta.max_sample_nbytes)

    def _sample_nbytes(self) -> int:
        return sum(e.meta.max_sample_nbytes for e in self._engines())

    def _plan_order(self) -> List[int]:
        ds = self.dataset
        length = min(e.num_samples for e in self._engines())
        rows = ds.index.row_indices(length)
        if self.shuffle:
            dominant = self._dominant_engine()
            rows = chunk_aware_shuffle(
                rows,
                dominant.chunk_layout(),
                seed=self.seed,
                window_chunks=self.window_chunks,
            )
        else:
            rows = sequential_order(rows)
        if self.distributed:
            rank, world = self.distributed
            rows = shard_for_rank(rows, rank, world)
        return rows

    def _make_priority_fn(self) -> Callable[[Tuple[int, ...]], float]:
        """CPU-cost estimate per task: bigger decoded samples cost more,
        so the smart scheduler starts them first.

        Only the few tasks in flight are ever ranked against each other,
        so the estimate comes from state already in memory and costs no
        storage request: the chunk-stats sidecar's ``shape_max`` for the
        chunk of the task's lead row, else the tensor-wide
        ``max_sample_nbytes`` every task of a uniform tensor gets.
        """
        engine = self._dominant_engine()
        meta = engine.meta
        const = float(meta.max_sample_nbytes)
        if meta.shape_interval.is_uniform or meta.is_link or meta.is_sequence:
            return lambda task: const

        def priority(task: Tuple[int, ...]) -> float:
            name = engine.enc.chunk_name(engine.enc.locate(task[0])[0])
            shape_max = (engine.chunk_stats.get(name) or {}).get("shape_max")
            if not isinstance(shape_max, list):  # no entry / mixed rank
                return const
            return float(np.prod(shape_max)) * np.dtype(meta.dtype).itemsize

        return priority

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        length = min(e.num_samples for e in self._engines())
        rows = self.dataset.index.num_rows(length)
        if self.distributed:  # the shard of a range: its policy, no plan
            rows = len(shard_for_rank(range(rows), *self.distributed))
        if self.drop_last:
            return rows // self.batch_size
        return -(-rows // self.batch_size)

    def _fetch_group(self, rows: Tuple[int, ...]) -> Tuple[List[Dict], float]:
        """Run one task: its samples and the seconds ``transform`` took.

        One ``read_rows`` for the whole task: every chunk it touches is
        fetched and decompressed exactly once, then all samples are
        sliced out — instead of ``len(rows)`` independent per-sample
        reads.  Single-row tasks (``batch_size=1`` / a tight memory
        budget) take the same call and so still stream whole chunks into
        the cache.
        """
        columns = self.dataset.read_rows(
            rows, self.tensor_names, decode=self.decode, physical=True
        )
        out = []
        for j in range(len(rows)):
            sample: Dict[str, object] = {}
            for short in self.tensor_names:
                value = columns[short][j]
                if not self.decode and isinstance(value, (bytes, bytearray)):
                    value = np.frombuffer(value, dtype=np.uint8)
                sample[short] = value
            out.append(sample)
        if self.transform is None:
            return out, 0.0
        t0 = time.perf_counter()
        out = [self.transform(sample) for sample in out]
        return out, time.perf_counter() - t0

    def _engines(self):
        return self.dataset._open_engines(self._qualified())

    def __iter__(self):
        self.stats = LoaderStats()
        # first, before the order plan: every cold tensor opens in one batch
        self.stats._track_engines(self._engines())
        rows = self._plan_order()
        workers = max(1, self.num_workers)
        nbytes = self._sample_nbytes()
        # a task is one worker's share of a batch (one ReadPlan amortises
        # fetch + decompress + dispatch, and every worker is on the batch
        # the consumer waits for); two per worker are in flight, one
        # running and one queued; the memory budget caps both
        task_rows = compute_inflight_limit(
            1, -(-self.batch_size // workers), nbytes, self.memory_budget_bytes
        )
        stream = prefetched(
            group_indices(rows, task_rows),
            self._fetch_group,
            num_workers=self.num_workers,
            inflight_limit=compute_inflight_limit(
                workers, 2, task_rows * nbytes, self.memory_budget_bytes
            ),
            priority_of=self._make_priority_fn() if self.num_workers else None,
            queue_gauge=self._g_queue,
        )
        epoch_start = time.perf_counter()
        batch_start = epoch_start
        batch: List[Dict] = []
        try:
            while True:
                wait_start = time.perf_counter()
                try:
                    samples, transform_s = next(stream)
                except StopIteration:
                    break
                waited = time.perf_counter() - wait_start
                self.stats.wait_s += waited
                self._h_wait.observe(waited)
                self.stats.transform_s += transform_s  # summed per task
                self.stats.samples += len(samples)
                self._m_samples.inc(len(samples))
                for sample in samples:
                    batch.append(sample)
                    if len(batch) == self.batch_size:
                        self.stats.batches += 1
                        self._m_batches.inc()
                        now = time.perf_counter()
                        self._h_batch.observe(now - batch_start)
                        self.stats.total_s = now - epoch_start
                        yield to_backend(self.collate(batch), self.backend)
                        batch = []
                        batch_start = time.perf_counter()
            if batch and not self.drop_last:
                self.stats.batches += 1
                self._m_batches.inc()
                self._h_batch.observe(time.perf_counter() - batch_start)
                yield to_backend(self.collate(batch), self.backend)
        finally:
            self.stats.total_s = time.perf_counter() - epoch_start
            self._g_queue.set(0)
