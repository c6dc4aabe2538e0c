"""Ablations A1-A5 — the design choices DESIGN.md calls out.

A1  chunk-size bounds (default 8 MB) vs request count / ingest cost
A2  LRU cache size vs repeated-epoch traffic
A3  shuffle strategy: locality vs statistical quality
A4  TQL predicate pushdown on/off
A5  rechunking after fragmentation
"""

import time

import numpy as np
import pytest

import repro
from benchmarks.conftest import print_table, scaled
from repro.core import chunk_cache
from repro.core.read_plan import column_rows
from repro.dataloader import chunk_aware_shuffle, chunk_locality, \
    naive_shuffle, shuffle_quality
from repro.sim import SimClock
from repro.storage import LRUCache, MemoryProvider, make_object_store
from repro.workloads.builders import build_image_classification_dataset

N = scaled(120, minimum=40)
RES = 64


# --------------------------------------------------------------------- #
# A1 — chunk size sweep
# --------------------------------------------------------------------- #


def test_a1_chunk_size_sweep(benchmark):
    sizes = [64 << 10, 256 << 10, 1 << 20, 4 << 20]

    def sweep():
        rows = []
        for max_chunk in sizes:
            clock = SimClock()
            store = make_object_store("s3", clock=clock)
            build_image_classification_dataset(
                store, N, seed=0, base=RES, ragged=False,
                max_chunk_size=max_chunk,
            )
            ds = repro.load(store)
            store.stats.reset()
            clock.reset()
            for _ in ds.dataloader(batch_size=16, shuffle=True, seed=0):
                pass
            snap = store.stats.snapshot()
            engine = ds._engine("images")
            rows.append({
                "max_chunk": f"{max_chunk >> 10}KB",
                "chunks": engine.enc.num_chunks,
                "epoch_gets": snap["get_requests"],
                "epoch_io_s": round(clock.now(), 3),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"A1 | chunk-size bounds vs S3 epoch cost ({N} x {RES}^2 JPEG)",
        rows,
        note="bigger chunks -> fewer requests -> lower latency-bound cost "
             "(why the default is 8 MB, §3.5)",
    )
    assert rows[0]["epoch_gets"] > rows[-1]["epoch_gets"]
    assert rows[0]["epoch_io_s"] > rows[-1]["epoch_io_s"]


# --------------------------------------------------------------------- #
# A2 — LRU cache ablation
# --------------------------------------------------------------------- #


def test_a2_cache_ablation(benchmark):
    budgets = [0, 512 << 10, 64 << 20]

    def sweep():
        rows = []
        for budget in budgets:
            clock = SimClock()
            s3 = make_object_store("s3", clock=clock)
            build_image_classification_dataset(
                s3, N, seed=0, base=RES, ragged=False,
                max_chunk_size=256 << 10,
            )
            provider = (
                LRUCache(MemoryProvider(), s3, budget) if budget else s3
            )
            epochs = []
            ds = repro.load(provider)
            for epoch in range(2):
                s3.stats.reset()
                for _ in ds.dataloader(batch_size=16, shuffle=True,
                                       seed=epoch):
                    pass
                epochs.append(s3.stats.snapshot()["bytes_read"])
                # new dataset object: drop engine-level caches so only the
                # LRU tier carries state across epochs
                ds = repro.load(provider)
            rows.append({
                "cache": f"{budget >> 10}KB" if budget else "off",
                "epoch1_mb": round(epochs[0] / 1e6, 2),
                "epoch2_mb": round(epochs[1] / 1e6, 2),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "A2 | LRU cache vs repeated-epoch S3 traffic",
        rows,
        note="a cache larger than the dataset makes epoch 2 free "
             "(the §3.6 provider-chaining payoff)",
    )
    by_cache = {r["cache"]: r for r in rows}
    assert by_cache["off"]["epoch2_mb"] > 0
    big = f"{budgets[-1] >> 10}KB"
    assert by_cache[big]["epoch2_mb"] < by_cache["off"]["epoch2_mb"] / 10


# --------------------------------------------------------------------- #
# A3 — shuffle strategies
# --------------------------------------------------------------------- #


def test_a3_shuffle_strategies(benchmark, monkeypatch):
    ds = build_image_classification_dataset(
        "mem://a3", N, seed=0, base=RES, ragged=False,
        max_chunk_size=64 << 10,
    )
    engine = ds._engine("images")
    layout = engine.chunk_layout()
    rows_all = list(range(N))

    def build_orders():
        return {
            "sequential": rows_all,
            "chunk-aware": chunk_aware_shuffle(rows_all, layout, seed=0,
                                               window_chunks=4),
            "naive": naive_shuffle(rows_all, seed=0),
        }

    orders = benchmark.pedantic(build_orders, rounds=1, iterations=1)
    # a buffer cache smaller than the dataset: chunk-order matters, like
    # training sets that dwarf RAM
    monkeypatch.setattr(chunk_cache, "CACHE_BYTES", 3 * (64 << 10))
    rows = []
    for name, order in orders.items():
        from repro.core.commit_state import open_engine

        clock = SimClock()
        store = make_object_store("s3", clock=clock)
        for key in ds.storage._all_keys():
            store.backing[key] = ds.storage[key]
        fresh_engine = open_engine(store, "images")
        clock.reset()
        store.stats.reset()
        for i in order:
            # a streaming single-row read: the plan path fetches whole
            fresh_engine.execute_plan(fresh_engine.plan_reads([i]))
        rows.append({
            "strategy": name,
            "quality": round(shuffle_quality(order), 2),
            "locality": round(chunk_locality(order, layout), 2),
            "epoch_gets": store.stats.get_requests,
            "epoch_io_s": round(clock.now(), 3),
        })
    print_table(
        "A3 | shuffle strategy: statistical quality vs chunk locality",
        rows,
        note="chunk-aware shuffling buys near-naive quality at near-"
             "sequential I/O cost (§3.5, the Exoshuffle-free design)",
    )
    by = {r["strategy"]: r for r in rows}
    assert by["chunk-aware"]["quality"] > 0.5
    assert by["chunk-aware"]["locality"] > 2 * by["naive"]["locality"]
    assert by["chunk-aware"]["epoch_io_s"] <= by["naive"]["epoch_io_s"]


# --------------------------------------------------------------------- #
# A4 — TQL pushdown
# --------------------------------------------------------------------- #


def test_a4_tql_pushdown(benchmark):
    ds = build_image_classification_dataset(
        "mem://a4", N, seed=0, base=RES, ragged=False,
    )
    query = "SELECT MEAN(images) AS mi WHERE labels < 50"

    from repro.tql import Executor, build_plan, parse

    ast = parse(query)

    def run(optimize):
        executor = Executor(ds, build_plan(ds, ast, optimize=optimize),
                            seed=0)
        start = time.perf_counter()
        result = executor.run(query)
        return executor.cells_fetched, time.perf_counter() - start, len(result)

    def both():
        return run(True), run(False)

    (fast_cells, fast_s, fast_n), (slow_cells, slow_s, slow_n) = \
        benchmark.pedantic(both, rounds=1, iterations=1)
    print_table(
        "A4 | TQL predicate/projection pushdown",
        [
            {"planner": "pushdown on", "cells_fetched": fast_cells,
             "seconds": round(fast_s, 4), "rows": fast_n},
            {"planner": "pushdown off", "cells_fetched": slow_cells,
             "seconds": round(slow_s, 4), "rows": slow_n},
        ],
        note="the WHERE clause touches only `labels`; without pushdown "
             "every image decodes",
    )
    assert fast_n == slow_n
    assert fast_cells < slow_cells
    assert fast_s < slow_s


# --------------------------------------------------------------------- #
# A5 — rechunking after fragmentation
# --------------------------------------------------------------------- #


def test_a5_rechunk(benchmark, rng):
    """Ingest with a tiny chunk bound (fragmented layout), then retune the
    band to the streaming-optimal size and rechunk — the "on-the-fly
    re-chunking algorithm to optimize the data layout" of §3.5."""
    ds = repro.empty("mem://a5", overwrite=True)
    ds.create_tensor("x", dtype="int64", max_chunk_size=2 << 10,
                     create_shape_tensor=False, create_id_tensor=False)
    n = scaled(400, minimum=100)
    values = [np.arange(i % 64, dtype=np.int64) for i in range(n)]
    for v in values:
        ds.x.append(v)
    # sparse random updates fragment the layout further
    for i in range(0, n, 7):
        values[i] = np.arange(96, dtype=np.int64)
        ds.x[i] = values[i]
    ds.flush()

    engine = ds._engine("x")
    before_chunks = engine.enc.num_chunks

    def epoch_gets(e) -> int:
        clock = SimClock()
        store = make_object_store("s3", clock=clock)
        for key in ds.storage._all_keys():
            store.backing[key] = ds.storage[key]
        from repro.core.commit_state import open_engine

        fresh = open_engine(store, "x")
        store.stats.reset()
        for i in range(n):
            fresh.execute_plan(fresh.plan_reads([i]))  # whole chunks
        return store.stats.get_requests

    gets_before = epoch_gets(engine)

    def retune():
        engine.meta.max_chunk_size = 64 << 10
        engine.meta.min_chunk_size = 32 << 10
        chunks = engine.rechunk()
        engine.flush()
        return chunks

    after_chunks = benchmark.pedantic(retune, rounds=1, iterations=1)
    gets_after = epoch_gets(engine)

    print_table(
        "A5 | rechunking a fragmented layout into the streaming band",
        [{
            "chunks_before": before_chunks,
            "chunks_after": after_chunks,
            "scan_gets_before": gets_before,
            "scan_gets_after": gets_after,
        }],
        note="fewer, right-sized chunks -> fewer storage requests per scan",
    )
    for i, v in enumerate(values):
        assert np.array_equal(column_rows(engine.read([i]))[0], v)
    assert after_chunks < before_chunks
    assert gets_after < gets_before
