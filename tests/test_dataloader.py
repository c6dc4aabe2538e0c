"""Streaming dataloader: order planning, prefetch, collate, budgets,
framework handover, statistics."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

import repro
from repro.dataloader import (
    DeepLakeLoader,
    buffer_shuffle_iter,
    chunk_aware_shuffle,
    chunk_locality,
    compute_inflight_limit,
    default_collate,
    naive_shuffle,
    pad_collate,
    prefetched,
    shard_for_rank,
    shuffle_quality,
    strict_collate,
)
from repro.exceptions import CollateError, DataLoaderError, MemoryBudgetError
from repro.integrations import DeviceTensor, to_backend
from repro.storage import MemoryProvider


class TestOrderPlanning:
    def test_naive_shuffle_is_permutation(self):
        rows = list(range(100))
        out = naive_shuffle(rows, seed=0)
        assert sorted(out) == rows
        assert out != rows

    def test_chunk_shuffle_is_permutation(self):
        rows = list(range(50))
        ranges = [(f"c{i}", i * 10, (i + 1) * 10) for i in range(5)]
        out = chunk_aware_shuffle(rows, ranges, seed=0, window_chunks=2)
        assert sorted(out) == rows

    def test_chunk_shuffle_better_locality_than_naive(self):
        rows = list(range(200))
        ranges = [(f"c{i}", i * 20, (i + 1) * 20) for i in range(10)]
        cs = chunk_aware_shuffle(rows, ranges, seed=0, window_chunks=3)
        nv = naive_shuffle(rows, seed=0)
        assert chunk_locality(cs, ranges) > 1.5 * chunk_locality(nv, ranges)
        assert shuffle_quality(cs) > 0.4

    def test_chunk_shuffle_handles_subset_rows(self):
        rows = [3, 4, 5, 22, 23, 47]
        ranges = [(f"c{i}", i * 10, (i + 1) * 10) for i in range(5)]
        out = chunk_aware_shuffle(rows, ranges, seed=1)
        assert sorted(out) == rows

    def test_chunk_shuffle_keeps_repeated_rows(self):
        # a view may name a row more than once: each occurrence is a sample
        rows = [5, 5, 9, 30, 30, 30, 47, 60, 60]  # 60: past every range
        ranges = [(f"c{i}", i * 10, (i + 1) * 10) for i in range(5)]
        for seed in range(4):
            out = chunk_aware_shuffle(rows, ranges, seed=seed,
                                      window_chunks=2)
            assert sorted(out) == sorted(rows)

    def test_buffer_shuffle_yields_everything(self):
        out = list(buffer_shuffle_iter(iter(range(40)), 8, seed=0))
        assert sorted(out) == list(range(40))

    def test_shard_disjoint_cover(self):
        rows = list(range(103))
        shards = [shard_for_rank(rows, r, 4) for r in range(4)]
        assert all(len(s) == 25 for s in shards)  # drop tail for equal steps
        flat = [i for s in shards for i in s]
        assert len(set(flat)) == len(flat)

    def test_shard_bad_rank(self):
        with pytest.raises(ValueError):
            shard_for_rank([1, 2], 5, 4)

    def test_shuffle_quality_extremes(self):
        assert shuffle_quality(list(range(100))) == 0.0
        assert shuffle_quality(list(reversed(range(100)))) > 1.0


class TestPrefetch:
    def test_preserves_order(self):
        out = list(prefetched(list(range(50)), lambda i: i * 2,
                              num_workers=4, inflight_limit=8))
        assert out == [i * 2 for i in range(50)]

    def test_worker_errors_propagate(self):
        def fetch(i):
            if i == 5:
                raise ValueError("boom")
            return i

        with pytest.raises(ValueError):
            list(prefetched(list(range(10)), fetch, num_workers=2,
                            inflight_limit=4))

    def test_zero_workers_synchronous(self):
        assert list(prefetched([1, 2], lambda i: i, 0, 4)) == [1, 2]

    def test_inflight_limit_budget(self):
        assert compute_inflight_limit(4, 2, 100, 10_000) == 8
        assert compute_inflight_limit(4, 2, 5000, 10_000) == 2
        with pytest.raises(MemoryBudgetError):
            compute_inflight_limit(4, 2, 50_000, 10_000)

    def test_priority_pool_runs_high_first(self):
        import threading
        from repro.dataloader import PriorityWorkerPool

        pool = PriorityWorkerPool(1)
        gate = threading.Event()
        order = []

        def task(tag):
            gate.wait(1)
            order.append(tag)
            return tag

        blocker = pool.submit(99, lambda: gate.wait(1))
        futures = [pool.submit(p, task, p) for p in (1.0, 3.0, 2.0)]
        gate.set()
        for f in futures:
            f.result(timeout=5)
        blocker.result(timeout=5)
        pool.shutdown()
        assert order == [3.0, 2.0, 1.0]


class TestFuture:
    def test_double_set_result_first_wins(self):
        from repro.dataloader.prefetch import Future

        f = Future()
        assert f.set_result(1) is True
        assert f.set_result(2) is False
        assert f.set_exception(ValueError("late")) is False
        assert f.result() == 1

    def test_set_result_after_exception_ignored(self):
        from repro.dataloader.prefetch import Future

        f = Future()
        assert f.set_exception(ValueError("boom")) is True
        assert f.set_result(1) is False
        with pytest.raises(ValueError):
            f.result()

    def test_cancel_wakes_waiter(self):
        import threading
        from repro.dataloader.prefetch import Future
        from repro.exceptions import TaskCancelledError

        f = Future()
        outcome = []

        def waiter():
            try:
                outcome.append(f.result(timeout=5))
            except TaskCancelledError as e:
                outcome.append(e)

        t = threading.Thread(target=waiter)
        t.start()
        assert f.cancel() is True
        t.join(timeout=5)
        assert not t.is_alive()
        assert isinstance(outcome[0], TaskCancelledError)
        assert f.cancelled() and f.done()

    def test_cancel_after_result_is_noop(self):
        from repro.dataloader.prefetch import Future

        f = Future()
        f.set_result(42)
        assert f.cancel() is False
        assert not f.cancelled()
        assert f.result() == 42

    def test_shutdown_cancels_pending_tasks(self):
        import threading
        from repro.dataloader import PriorityWorkerPool
        from repro.exceptions import TaskCancelledError

        pool = PriorityWorkerPool(1)
        gate = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            return gate.wait(5)

        running = pool.submit(0, blocker)
        pending = [pool.submit(0, lambda: 1) for _ in range(4)]
        assert started.wait(5)  # the worker is busy inside `running`
        gate.set()
        pool.shutdown()  # cancels whatever never started
        assert running.result(timeout=5) is True
        for f in pending:
            assert f.done(), "shutdown left a waiter to deadlock"
            if f.cancelled():
                with pytest.raises(TaskCancelledError):
                    f.result(timeout=1)
            else:
                assert f.result(timeout=1) == 1

    def test_shutdown_without_cancel_drains_heap(self):
        from repro.dataloader import PriorityWorkerPool

        pool = PriorityWorkerPool(2)
        futures = [pool.submit(0, lambda i=i: i * i) for i in range(10)]
        pool.shutdown(cancel_pending=False)
        assert [f.result(timeout=5) for f in futures] == [
            i * i for i in range(10)
        ]

    def test_early_consumer_exit_does_not_hang(self):
        stream = prefetched(list(range(100)), lambda i: i,
                            num_workers=2, inflight_limit=8)
        assert next(stream) == 0
        stream.close()  # triggers shutdown with pending futures


class TestCollate:
    def test_default_stacks_uniform(self):
        batch = default_collate([
            {"x": np.zeros((2, 2)), "y": 1},
            {"x": np.ones((2, 2)), "y": 2},
        ])
        assert batch["x"].shape == (2, 2, 2)
        assert batch["y"].tolist() == [1, 2]

    def test_default_lists_ragged(self):
        batch = default_collate([
            {"x": np.zeros((2,))}, {"x": np.zeros((3,))},
        ])
        assert isinstance(batch["x"], list)

    def test_strict_rejects_ragged(self):
        with pytest.raises(CollateError):
            strict_collate([{"x": np.zeros(2)}, {"x": np.zeros(3)}])

    def test_pad_collate(self):
        batch = pad_collate([
            {"x": np.ones((2, 2))}, {"x": np.ones((3, 1))},
        ])
        assert batch["x"].shape == (2, 3, 2)
        assert batch["x"][0, 2, 0] == 0.0  # padded region

    def test_empty_batch(self):
        assert default_collate([]) == {}


class TestFrameworks:
    def test_backend_wrapping(self):
        batch = {"x": np.zeros((2, 3)), "s": ["a", "b"]}
        out = to_backend(batch, "torch")
        assert isinstance(out["x"], DeviceTensor)
        assert out["x"].backend == "torch"
        assert out["s"] == ["a", "b"]

    def test_numpy_passthrough(self):
        batch = {"x": np.zeros(2)}
        assert to_backend(batch, "numpy") is batch

    def test_zero_copy(self):
        arr = np.zeros((4, 4))
        t = DeviceTensor(arr, "jax")
        assert t.numpy() is arr

    def test_device_move(self):
        t = DeviceTensor(np.zeros(2), "torch").to("cuda:0")
        assert t.device == "cuda:0"

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            to_backend({"x": np.zeros(1)}, "mxnet")


@pytest.fixture
def loader_ds(rng):
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="jpeg",
                     max_chunk_size=128 * 1024)
    ds.create_tensor("labels", htype="class_label")
    for i in range(60):
        ds.append({
            "images": rng.integers(0, 255, (32, 32, 3), dtype=np.uint8),
            "labels": np.int32(i % 10),
        })
    ds.flush()
    return ds


class TestLoader:
    def test_batches_cover_everything(self, loader_ds):
        loader = DeepLakeLoader(loader_ds, batch_size=8, shuffle=True,
                                num_workers=2, seed=0)
        seen = []
        for batch in loader:
            assert batch["images"].shape[1:] == (32, 32, 3)
            seen.extend(batch["labels"].tolist())
        assert len(seen) == 60
        assert loader.stats.samples == 60

    def test_len_and_drop_last(self, loader_ds):
        assert len(DeepLakeLoader(loader_ds, batch_size=16)) == 4
        assert len(DeepLakeLoader(loader_ds, batch_size=16,
                                  drop_last=True)) == 3
        batches = list(DeepLakeLoader(loader_ds, batch_size=16,
                                      drop_last=True))
        assert len(batches) == 3

    def test_deterministic_given_seed(self, loader_ds):
        def labels_of(loader):
            out = []
            for batch in loader:
                out.extend(batch["labels"].tolist())
            return out

        a = labels_of(DeepLakeLoader(loader_ds, batch_size=8, shuffle=True,
                                     num_workers=3, seed=42))
        b = labels_of(DeepLakeLoader(loader_ds, batch_size=8, shuffle=True,
                                     num_workers=1, seed=42))
        assert a == b

    def test_tensor_subset(self, loader_ds):
        loader = DeepLakeLoader(loader_ds, batch_size=4, tensors=["labels"])
        batch = next(iter(loader))
        assert set(batch) == {"labels"}

    def test_transform_applied(self, loader_ds):
        loader = DeepLakeLoader(
            loader_ds, batch_size=4,
            transform=lambda s: {"label2": s["labels"] * 2},
        )
        batch = next(iter(loader))
        assert set(batch) == {"label2"}

    def test_backend_handover(self, loader_ds):
        loader = DeepLakeLoader(loader_ds, batch_size=4, backend="torch")
        batch = next(iter(loader))
        assert isinstance(batch["images"], DeviceTensor)

    def test_distributed_shards(self, loader_ds):
        all_labels = []
        for rank in range(3):
            loader = DeepLakeLoader(loader_ds, batch_size=5, shuffle=True,
                                    seed=7, distributed=(rank, 3))
            for batch in loader:
                all_labels.extend(batch["labels"].tolist())
        assert len(all_labels) == 60

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_shuffled_view_keeps_repeated_rows(self, wide_ds, num_workers):
        rows = [5, 5, 9, 30, 30, 30, 200, 17, 200]
        loader = DeepLakeLoader(wide_ds[rows], batch_size=4, shuffle=True,
                                seed=3, num_workers=num_workers)
        batches = list(loader)
        assert len(batches) == len(loader) == 3
        labels = [i for b in batches for i in b["labels"].tolist()]
        assert sorted(labels) == sorted(rows)

    def test_memory_budget_enforced(self, loader_ds):
        with pytest.raises(MemoryBudgetError):
            list(DeepLakeLoader(loader_ds, batch_size=4, num_workers=2,
                                memory_budget_bytes=16))

    def test_loader_on_view(self, loader_ds):
        view = loader_ds[10:30]
        loader = DeepLakeLoader(view, batch_size=10)
        labels = []
        for batch in loader:
            labels.extend(batch["labels"].tolist())
        assert labels == [i % 10 for i in range(10, 30)]

    def test_empty_tensor_list_rejected(self, loader_ds):
        with pytest.raises(DataLoaderError):
            DeepLakeLoader(loader_ds, tensors=[])

    def test_bad_batch_size(self, loader_ds):
        with pytest.raises(DataLoaderError):
            DeepLakeLoader(loader_ds, batch_size=0)

    def test_stats_throughput(self, loader_ds):
        loader = DeepLakeLoader(loader_ds, batch_size=8, num_workers=2)
        for _ in loader:
            pass
        stats = loader.stats.as_dict()
        assert stats["samples"] == 60
        assert stats["samples_per_s"] > 0
        assert 0 <= stats["stall_fraction"] <= 1


# --------------------------------------------------------------------------- #
# one unit of work: a task is a worker's share of a batch
# --------------------------------------------------------------------------- #


@pytest.fixture
def wide_ds(rng):
    """256 (images, labels) rows: 8 batches of 32."""
    ds = repro.empty(MemoryProvider("wide"), overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="jpeg",
                     max_chunk_size=128 * 1024)
    ds.create_tensor("labels", htype="class_label")
    ds.extend({
        "images": [rng.integers(0, 255, (32, 32, 3), dtype=np.uint8)
                   for _ in range(256)],
        "labels": [np.int32(i) for i in range(256)],
    })
    ds.flush()
    return ds


class _Concurrency:
    """A ``transform`` that counts the worker tasks running at once (threads
    inside it, around a 2 ms sleep): a count, not a timing."""

    def __init__(self):
        import threading

        self._lock = threading.Lock()
        self.running = 0
        self.peak = 0

    def __call__(self, sample):
        import time

        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        time.sleep(0.002)
        with self._lock:
            self.running -= 1
        return sample


@pytest.fixture
def read_sizes(monkeypatch):
    """Rows per ``Dataset.read_rows`` call, in call order."""
    from repro.core.dataset import Dataset

    sizes = []
    original = Dataset.read_rows

    def recording(self, rows, *args, **kwargs):
        sizes.append(len(rows))
        return original(self, rows, *args, **kwargs)

    monkeypatch.setattr(Dataset, "read_rows", recording)
    return sizes


def _cold_s3(backing):
    from repro.sim import SimClock
    from repro.storage import SimulatedObjectStore

    store = SimulatedObjectStore("s3", clock=SimClock(), backing=backing)
    return store, repro.load(store, read_only=True)


@pytest.fixture
def pairs(rng):
    """The backing of 192 (images, labels) rows in 18 image chunks of 11
    rows and 3 label chunks of 64: at ``batch_size=16, num_workers=2`` a
    task is 8 rows and 4 tasks are in flight, so a fetch-ahead batch is
    32 rows."""
    backing = MemoryProvider("pairs")
    ds = repro.empty(backing, overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="jpeg",
                     max_chunk_size=8 * 1024)
    ds.create_tensor("labels", htype="class_label", max_chunk_size=256)
    ds.extend({
        "images": [rng.integers(0, 255, (16, 16, 3), dtype=np.uint8)
                   for _ in range(192)],
        "labels": [np.int32(i) for i in range(192)],
    })
    ds.flush()
    assert [ds[t].engine.enc.num_chunks for t in ("images", "labels")] == [
        18, 3]
    return backing


AHEAD = "loader-fetch-ahead"


class _Gets:
    """The ``get_many`` calls a store serves, ``(thread name, keys)`` in
    call order; ``hook()`` (optional) then runs on the calling thread."""

    def __init__(self, store, hook=None):
        self.calls = []
        original = store.get_many

        def get_many(keys):
            self.calls.append((threading.current_thread().name, list(keys)))
            if hook is not None:
                hook()
            return original(keys)

        store.get_many = get_many

    def per_key(self) -> Counter:
        return Counter(key for _name, keys in self.calls for key in keys)


class TestTasks:
    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_every_worker_is_busy(self, wide_ds, num_workers):
        busy = _Concurrency()
        loader = DeepLakeLoader(wide_ds, batch_size=32, transform=busy,
                                num_workers=num_workers)
        assert sum(len(b["labels"]) for b in loader) == 256
        assert busy.peak == num_workers

    def test_synchronous_task_is_a_batch(self, wide_ds, read_sizes):
        batches = list(DeepLakeLoader(wide_ds, batch_size=32, num_workers=0))
        assert len(batches) == 8
        assert read_sizes == [32] * 8

    def test_task_is_a_workers_share_of_a_batch(self, wide_ds, read_sizes):
        list(DeepLakeLoader(wide_ds, batch_size=32, num_workers=2))
        assert read_sizes == [16] * 16
        del read_sizes[:]
        # a share need not divide the batch: the consumer re-batches
        batches = list(DeepLakeLoader(wide_ds, batch_size=32, num_workers=3))
        assert sorted(read_sizes) == [3] + [11] * 23
        assert [len(b["labels"]) for b in batches] == [32] * 8

    def test_first_batch_is_one_round_trip(self, rng, spent):
        backing = MemoryProvider("small-chunks")
        ds = repro.empty(backing, overwrite=True)
        ds.create_tensor("images", htype="image", sample_compression="jpeg",
                         max_chunk_size=8 * 1024)
        ds.images.extend([rng.integers(0, 255, (32, 32, 3), dtype=np.uint8)
                          for _ in range(64)])
        ds.flush()
        assert ds._engine("images").enc.num_chunks >= 16
        store, cold = _cold_s3(backing)
        loader = cold.dataloader(batch_size=16, num_workers=0)
        assert len(loader) == 4  # opens the tensor
        with spent(store) as reqs:
            batch = next(iter(loader))
        assert np.array_equal(batch["images"][15], ds.images[15].numpy())
        assert reqs == {"download_batch": 1}  # every chunk in one get_many

    def test_memory_budget_caps_task_rows_and_tasks(self, wide_ds, read_sizes):
        sample_nbytes = sum(
            wide_ds[t].meta.max_sample_nbytes for t in ("images", "labels")
        )
        busy = _Concurrency()
        loader = DeepLakeLoader(wide_ds[:48], batch_size=8, num_workers=2,
                                transform=busy,
                                memory_budget_bytes=3 * sample_nbytes)
        assert sum(len(b["labels"]) for b in loader) == 48
        assert max(read_sizes) == 3  # a share would be 4 rows
        assert busy.peak == 1  # a second task would not fit the budget

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_batches_identical_at_any_num_workers(self, wide_ds, drop_last):
        def epoch(num_workers):
            return list(DeepLakeLoader(
                wide_ds[:250], batch_size=32, shuffle=True, seed=5,
                num_workers=num_workers, drop_last=drop_last,
            ))

        want = epoch(0)
        assert len(want) == (7 if drop_last else 8)
        seen = [i for b in want for i in b["labels"].tolist()]
        assert len(set(seen)) == len(seen) == (224 if drop_last else 250)
        assert seen != sorted(seen)
        for num_workers in (2, 3):
            got = epoch(num_workers)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a["labels"], b["labels"])
                assert np.array_equal(a["images"], b["images"])

    def test_ragged_first_batch_issues_no_single_get(self, rng, spent):
        backing = MemoryProvider("ragged")
        ds = repro.empty(backing, overwrite=True)
        ds.create_tensor("images", htype="image", sample_compression="png",
                         max_chunk_size=32 * 1024)
        ds.images.extend([
            rng.integers(0, 255, (16 + i % 24, 24, 3), dtype=np.uint8)
            for i in range(128)
        ])
        ds.flush()
        assert ds._engine("images").enc.num_chunks > 4
        store, cold = _cold_s3(backing)
        with spent(store) as reqs:
            batch = next(iter(cold.dataloader(batch_size=16, num_workers=2)))
        assert len(batch["images"]) == 16
        # priorities come from the stats sidecar: no per-chunk header probe
        assert "download" not in reqs

    def test_transform_seconds_survive_overlapping_tasks(self, wide_ds):
        loader = DeepLakeLoader(wide_ds, batch_size=32, num_workers=4,
                                transform=_Concurrency())
        for _ in loader:
            pass
        assert loader.stats.transform_s >= 0.9 * 256 * 0.002

    @pytest.mark.parametrize("drop_last", [False, True])
    @pytest.mark.parametrize("distributed", [None, (1, 3)])
    @pytest.mark.parametrize("view", [slice(None), slice(10, 241),
                                      [5, 9, 200, 17, 3, 88, 41]])
    def test_len_needs_no_order_plan(self, wide_ds, monkeypatch, view,
                                     distributed, drop_last):
        def loader():
            return DeepLakeLoader(wide_ds[view], batch_size=4, shuffle=True,
                                  seed=1, distributed=distributed,
                                  drop_last=drop_last, tensors=["labels"])

        batches = sum(1 for _ in loader())

        def no_plan(*args, **kwargs):
            raise AssertionError("len(loader) planned an epoch")

        monkeypatch.setattr(
            "repro.dataloader.loader.chunk_aware_shuffle", no_plan
        )
        assert len(loader()) == batches

    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_fetch_ahead_gets_every_chunk_once(self, pairs, num_workers):
        def epoch(num_workers):
            store, cold = _cold_s3(pairs)
            loader = cold.dataloader(batch_size=16, shuffle=True, seed=2,
                                     num_workers=num_workers)
            assert len(loader) == 12  # opens both tensors
            gets = _Gets(store)
            return list(loader), gets

        want, _gets = epoch(0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more threads than cores, switching
        try:
            got, gets = epoch(num_workers)
        finally:
            sys.setswitchinterval(switch)
        per_key = gets.per_key()
        assert len(per_key) == 18 + 3 and set(per_key.values()) == {1}
        assert AHEAD in {name for name, _keys in gets.calls}
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            assert np.array_equal(a["labels"], b["labels"])
            assert np.array_equal(a["images"], b["images"])

    def test_fetch_ahead_get_precedes_its_tasks(self, pairs, monkeypatch):
        from repro.core.dataset import Dataset

        # in order, task t is rows [8t, 8t + 8); with 4 tasks in flight the
        # first GET covers tasks [0, 8), the fetch-ahead's first [8, 12)
        store, cold = _cold_s3(pairs)
        loader = cold.dataloader(batch_size=16, num_workers=2)
        assert len(loader) == 12
        events = []
        entered, release = threading.Event(), threading.Event()

        def hold():  # the fetch-ahead's GET stays in flight: tasks join it
            if threading.current_thread().name == AHEAD:
                events.append("ahead GET")
                entered.set()
                release.wait(10)

        gets = _Gets(store, hold)
        original = Dataset.read_rows

        def read_rows(self, rows, *args, **kwargs):
            events.append(rows[0] // 8)
            if rows[0] >= 64:
                release.set()
            return original(self, rows, *args, **kwargs)

        monkeypatch.setattr(Dataset, "read_rows", read_rows)
        batches = iter(loader)
        labels = next(batches)["labels"].tolist()
        # tasks [8, 12) are not submitted yet: only the hand-over can GET
        assert entered.wait(10)
        labels += [i for b in batches for i in b["labels"].tolist()]
        assert labels == list(range(192))
        first_task_of_batch = min(i for i, e in enumerate(events)
                                  if e != "ahead GET" and e >= 8)
        assert events.index("ahead GET") < first_task_of_batch
        assert set(gets.per_key().values()) == {1}  # its tasks joined it

    def test_fetch_ahead_leaves_a_batch_over_the_cache_cap(self, pairs,
                                                           monkeypatch):
        from repro.core import chunk_cache

        # a fetch-ahead batch counts 3-4 image chunks at 8 KiB: the cache
        # holds less than two, the first GET (tasks [0, 8)) seven chunks
        monkeypatch.setattr(chunk_cache, "CACHE_BYTES", 40 * 1024)
        store, cold = _cold_s3(pairs)
        loader = cold.dataloader(batch_size=16, num_workers=2)
        assert len(loader) == 12
        gets = _Gets(store)
        labels = [i for b in loader for i in b["labels"].tolist()]
        assert labels == list(range(192))
        per_key = gets.per_key()
        assert len(per_key) == 18 + 3 and set(per_key.values()) == {1}

    def test_abandoned_epoch_stops_the_fetch_ahead(self, pairs):
        before = set(threading.enumerate())
        _store, cold = _cold_s3(pairs)
        batches = iter(cold.dataloader(batch_size=16, shuffle=True, seed=0,
                                       num_workers=2))
        for _batch in batches:
            break
        started = {t.name for t in set(threading.enumerate()) - before}
        assert AHEAD in started
        batches.close()
        left = {t.name for t in set(threading.enumerate()) - before}
        assert AHEAD not in left
        assert not any(name.startswith("loader-") for name in left)

    def test_a_fetch_ahead_error_reaches_the_consumer(self, pairs):
        from repro.exceptions import NetworkError

        store, cold = _cold_s3(pairs)
        loader = cold.dataloader(batch_size=16, num_workers=2)
        assert len(loader) == 12
        failed = threading.Event()

        def fail_from_the_second():
            if len(gets.calls) == 1:
                return  # the first window, before any task is submitted
            if threading.current_thread().name == AHEAD:
                failed.set()
            else:  # a task's own GET waits for the fetch-ahead's to fail
                failed.wait(10)
            raise NetworkError("injected")

        gets = _Gets(store, fail_from_the_second)
        raised = []

        def consume():
            try:
                for _batch in loader:
                    pass
            except NetworkError as e:
                raised.append(e)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert [str(e) for e in raised] == ["injected"]
        assert gets.calls[1][0] == AHEAD

    def test_a_lagging_fetch_grows_the_lead(self, pairs):
        from repro.obs import metrics

        def lead():
            return metrics.REGISTRY.value("loader.lead_windows")

        want = list(_cold_s3(pairs)[1].dataloader(
            batch_size=16, shuffle=True, seed=2, num_workers=0))
        store, cold = _cold_s3(pairs)
        loader = cold.dataloader(batch_size=16, shuffle=True, seed=2,
                                 num_workers=2)
        assert len(loader) == 12
        grown = threading.Event()

        def hold():
            # tasks [0, 8) are resident, so the consumer hands windows on
            # while the fetch-ahead's first GET (tasks [8, 12)) is held:
            # at 8 and 12 tasks submitted, each time finding it behind
            import time

            if threading.current_thread().name == AHEAD and not grown.is_set():
                for _ in range(1000):
                    if lead() >= 3:
                        grown.set()
                        return
                    time.sleep(0.01)

        gets = _Gets(store, hold)
        got = list(loader)
        assert grown.is_set()
        # windows [8, 12) .. [20, 24) were handed: after the held GET the
        # rest ride ONE fetch, each chunk still GET once
        ahead_gets = [keys for name, keys in gets.calls if name == AHEAD]
        assert len(ahead_gets) == 2
        per_key = gets.per_key()
        assert len(per_key) == 18 + 3 and set(per_key.values()) == {1}
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            assert np.array_equal(a["labels"], b["labels"])
            assert np.array_equal(a["images"], b["images"])

    def test_a_resident_epoch_keeps_a_one_window_lead(self, pairs,
                                                      monkeypatch):
        from repro.core.chunk_engine import ChunkEngine
        from repro.obs import metrics

        ds = repro.load(pairs, read_only=True)
        loader = ds.dataloader(batch_size=16, num_workers=2,
                               transform=_Concurrency())
        assert len(list(loader)) == 12  # every chunk is resident now
        plans = []
        original = ChunkEngine.plan_reads

        def plan_reads(self, rows, *args, **kwargs):
            plans.append(self.tensor)
            return original(self, rows, *args, **kwargs)

        monkeypatch.setattr(ChunkEngine, "plan_reads", plan_reads)
        assert len(list(loader)) == 12
        # 24 tasks, and 5 fetch-ahead calls (the first two windows, then
        # one per window handed), each planning both tensors
        assert len(plans) == (24 + 5) * 2
        assert metrics.REGISTRY.value("loader.lead_windows") == 1

    def test_traced_epoch_holds_every_threads_spans(self, pairs):
        from repro import obs

        store, cold = _cold_s3(pairs)
        loader = cold.dataloader(batch_size=16, shuffle=True, seed=2,
                                 num_workers=2)
        assert len(loader) == 12
        gets = _Gets(store)
        with obs.trace("epoch") as root:
            for _batch in loader:
                pass
        spans = obs.flatten(root)
        assert {s["trace_id"] for s in spans} == {root.trace_id}
        names = [s["name"] for s in spans]
        assert names.count("engine.execute_plan") == 24 * 2  # tasks x tensors
        # one per GET of the epoch: the first window's, the fetch-ahead's
        # and any a task led
        assert names.count("engine.fetch_chunks") == len(gets.calls)
        assert AHEAD in {name for name, _keys in gets.calls}
