"""Telemetry: metrics registry, span tracing, serve-protocol stitching,
perf records, and the no-op overhead guarantee."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

import repro
from repro.obs import bench, metrics, tracing
from repro.serve.server import DatasetServer
from repro.serve.transport import InprocTransport
from repro.storage import MemoryProvider


def fresh_registry(**kwargs) -> metrics.MetricsRegistry:
    return metrics.MetricsRegistry(**kwargs)


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #


class TestCounterAndGauge:
    def test_counter_counts(self):
        reg = fresh_registry()
        c = reg.counter("c", tensor="x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("c", tensor="x") == 5

    def test_same_labels_same_series(self):
        reg = fresh_registry()
        a = reg.counter("c", tensor="x", op="get")
        b = reg.counter("c", op="get", tensor="x")  # order-insensitive
        assert a is b

    def test_different_labels_different_series(self):
        reg = fresh_registry()
        a = reg.counter("c", tensor="x")
        b = reg.counter("c", tensor="y")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert reg.value("c") == 5  # no labels: aggregate across series
        assert reg.value("c", tensor="y") == 3

    def test_kind_mismatch_raises(self):
        reg = fresh_registry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.histogram("m")

    def test_gauge_set_inc_dec(self):
        reg = fresh_registry()
        g = reg.gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8.0

    def test_reset_zeroes_but_keeps_handles(self):
        reg = fresh_registry()
        c = reg.counter("c")
        c.inc(9)
        reg.reset()
        assert c.value == 0
        c.inc()
        assert reg.value("c") == 1


class TestHistogramQuantiles:
    def test_exact_quantiles_small_sample(self):
        reg = fresh_registry()
        h = reg.histogram("lat")
        h.observe_many(range(1, 101))  # 1..100
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)
        # linear interpolation over 100 sorted samples
        assert h.percentile(50) == pytest.approx(np.percentile(range(1, 101), 50))
        assert h.percentile(95) == pytest.approx(np.percentile(range(1, 101), 95))
        assert h.percentile(99) == pytest.approx(np.percentile(range(1, 101), 99))

    def test_reservoir_bounds_memory_but_tracks_exact_count(self):
        reg = fresh_registry()
        h = reg.histogram("lat")
        n = metrics._RESERVOIR_SIZE * 3
        h.observe_many([1.0] * n)
        assert h.count == n
        assert len(h._samples) == metrics._RESERVOIR_SIZE
        assert h.percentile(50) == 1.0

    def test_empty_histogram(self):
        reg = fresh_registry()
        h = reg.histogram("lat")
        assert h.percentile(50) == 0.0
        assert h.snapshot()["count"] == 0

    def test_percentiles_helper(self):
        p = metrics.percentiles([5.0, 1.0, 3.0, 2.0, 4.0])
        assert p["p50"] == pytest.approx(3.0)
        assert p["p99"] == pytest.approx(np.percentile([1, 2, 3, 4, 5], 99))


class TestLabelCardinality:
    def test_overflow_collapses_into_one_series(self):
        reg = fresh_registry(max_series=8)
        for i in range(20):
            reg.counter("hot", row=i).inc()
        # 8 real series + 1 shared overflow series
        assert reg.series_count("hot") == 9
        assert reg.dropped_label_sets("hot") == 12
        assert reg.value("hot") == 20  # nothing is silently lost
        overflow = reg.counter("hot", __overflow__="true")
        assert overflow.value == 12

    def test_snapshot_renders_labels(self):
        reg = fresh_registry()
        reg.counter("c", tenant="a").inc(2)
        reg.histogram("h", op="get").observe(0.5)
        snap = reg.snapshot()
        assert snap["c"]["tenant=a"] == 2
        assert snap["h"]["op=get"]["count"] == 1

    def test_thread_safety_under_contention(self):
        reg = fresh_registry()
        c = reg.counter("c")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #


class TestTracing:
    def test_span_is_noop_without_active_trace(self):
        s = tracing.span("anything")
        assert s is tracing._NOOP_SPAN
        with s as inner:
            inner.set(ignored=True)  # must not raise

    def test_nesting_builds_a_tree(self):
        with tracing.trace("root", job="test") as root:
            with tracing.span("child_a"):
                with tracing.span("grandchild") as g:
                    g.set(rows=3)
            with tracing.span("child_b"):
                pass
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        gc = root.children[0].children[0]
        assert gc.attrs == {"rows": 3}
        assert gc.trace_id == root.trace_id
        assert gc.parent_id == root.children[0].span_id
        assert root.duration_s >= gc.duration_s

    def test_stack_empty_after_exit(self):
        with tracing.trace("root"):
            pass
        assert tracing.current_span() is None

    def test_serialization_roundtrip(self):
        with tracing.trace("root") as root:
            with tracing.span("child", key="k"):
                pass
        back = tracing.Span.from_dict(root.to_dict())
        assert back.name == "root"
        assert back.children[0].name == "child"
        assert back.children[0].attrs == {"key": "k"}
        assert back.trace_id == root.trace_id

    def test_render_contains_names_and_attrs(self):
        with tracing.trace("root") as root:
            with tracing.span("child", tensor="x"):
                pass
        text = tracing.render(root)
        assert "root" in text and "child" in text and "tensor=x" in text

    def test_remote_child_restores_prior_stack(self):
        with tracing.trace("local") as local:
            detached = tracing.remote_child(
                "tid", local.span_id, "server.op"
            )
            with detached:
                assert tracing.current_span() is detached
                with tracing.span("inner"):
                    pass
            # server work must not leak into the local tree...
            assert tracing.current_span() is local
        assert local.children == []
        # ...but the detached tree recorded its own children
        assert [c.name for c in detached.children] == ["inner"]
        assert detached.parent_id == local.span_id


class TestServeTraceStitching:
    def _served(self, rng, name):
        ds = repro.empty(MemoryProvider("traced"), overwrite=True)
        ds.create_tensor("x", dtype="int64")
        for i in range(12):
            ds.append({"x": np.full((4,), i, dtype=np.int64)})
        ds.flush()
        server = DatasetServer(name=name, cache_bytes=1 << 20)
        server.add_dataset("d", ds.storage)
        return server

    def test_read_batch_yields_one_stitched_trace(self, rng):
        server = self._served(rng, "stitch")
        remote = server.connect("d", tenant="alice",
                                transport=InprocTransport(server))
        with tracing.trace("epoch") as root:
            remote.read_batch("x", [0, 3, 7])
        flat = tracing.flatten(root)
        names = [s["name"] for s in flat]
        assert "serve.client.read_batch" in names
        assert "server.read_batch" in names
        assert "engine.execute_plan" in names
        # every span belongs to the one trace
        assert {s["trace_id"] for s in flat} == {root.trace_id}
        # the server subtree hangs under the client call span
        client = next(s for s in flat if s["name"] == "serve.client.read_batch")
        srv = next(s for s in flat if s["name"] == "server.read_batch")
        assert srv["parent_id"] == client["span_id"]
        assert srv["attrs"]["tenant"] == "alice"
        # the trace reaches the cache and the backing storage tiers
        assert any(n.startswith("cache.") for n in names)
        assert any(n.startswith("storage.") for n in names)

    def test_untraced_request_carries_no_trace(self, rng):
        server = self._served(rng, "quiet")
        remote = server.connect("d", transport=InprocTransport(server))
        resp = remote._request("ping")
        assert resp.trace is None


# --------------------------------------------------------------------------- #
# instrumentation wiring
# --------------------------------------------------------------------------- #


class TestInstrumentationWiring:
    def test_engine_counters_mirror_into_registry(self, image_ds):
        engine = image_ds._engine("images")

        def reg(name):
            return metrics.REGISTRY.value(
                f"chunk_engine.{name}", tensor="images"
            )

        reg_before = (reg("decoded_cache_hits"), reg("decoded_cache_misses"))
        eng_before = (engine.chunk_cache_hits, engine.chunk_cache_misses)
        engine.read_batch(list(range(8)))
        reg_delta = (reg("decoded_cache_hits") - reg_before[0],
                     reg("decoded_cache_misses") - reg_before[1])
        eng_delta = (engine.chunk_cache_hits - eng_before[0],
                     engine.chunk_cache_misses - eng_before[1])
        assert reg_delta == eng_delta
        assert sum(eng_delta) > 0

    def test_loader_stats_are_views_not_copies(self, image_ds):
        from repro.dataloader import DeepLakeLoader

        loader = DeepLakeLoader(image_ds, batch_size=4)
        for _ in loader:
            pass
        total = (loader.stats.chunk_cache_hits
                 + loader.stats.chunk_cache_misses)
        assert total > 0
        engine = image_ds._engine("images")
        # the view moves with the engine's counter: more engine traffic
        # after the epoch is visible through the same stats object
        before = loader.stats.chunk_cache_hits + loader.stats.chunk_cache_misses
        engine.read_batch([0, 1])
        after = loader.stats.chunk_cache_hits + loader.stats.chunk_cache_misses
        assert after >= before

    def test_loader_counts_each_sample_once(self, image_ds):
        from repro.dataloader import DeepLakeLoader

        def reg(name):
            return metrics.REGISTRY.value(f"loader.{name}")  # every dataset

        before = (reg("samples"), reg("batches"))
        loader = DeepLakeLoader(image_ds, batch_size=5, num_workers=3)
        for _ in loader:  # 24 rows: tasks of 2, batches of 5 + a tail of 4
            pass
        assert (reg("samples") - before[0], reg("batches") - before[1]) == (24, 5)
        assert (loader.stats.samples, loader.stats.batches) == (24, 5)
        assert set(loader.stats.as_dict()) == {
            "samples", "batches", "samples_per_s", "stall_fraction",
            "total_s", "chunk_cache_hits", "chunk_cache_misses",
        }
        assert loader._g_queue.value == 0  # tasks in flight: none at the end

    def test_objectstore_exposes_latency_samples(self):
        from repro.storage.object_store import make_object_store

        store = make_object_store("s3")
        store.disable_readonly()
        store["k"] = b"x" * 1024
        store["k2"] = b"y" * 4096
        _ = store["k"]
        _ = store.get_many(["k", "k2"])
        ups = store.stats.latency_samples("upload")
        assert len(ups) == 2 and all(s > 0 for s in ups)
        assert len(store.stats.latency_samples("download")) == 1
        assert len(store.stats.latency_samples("download_batch")) == 1
        p = store.latency_percentiles("upload")
        assert p["p50"] > 0 and p["p99"] >= p["p50"]

    def test_tenant_stats_snapshot_shape_unchanged(self, image_ds):
        server = DatasetServer(name="shape")
        server.add_dataset("d", image_ds.storage)
        remote = server.connect("d", tenant="t1",
                                transport=InprocTransport(server))
        remote.read_batch("labels", [0, 1, 2])
        snap = server.stats_snapshot()["tenants"]["t1"]
        assert snap["requests"] == 1
        assert snap["samples_served"] == 3
        assert snap["chunk_cache_hits"] + snap["chunk_cache_misses"] >= 1
        # mirrored into the global labeled series
        assert metrics.REGISTRY.value(
            "serve.samples_served", server="shape", tenant="t1"
        ) >= 3


# --------------------------------------------------------------------------- #
# perf records
# --------------------------------------------------------------------------- #


class TestBenchRecords:
    def test_record_roundtrip(self, tmp_path):
        path = bench.bench_record(
            "unit test!", {"throughput": 12.5, "n": np.int64(3)},
            directory=str(tmp_path),
        )
        assert path.endswith("BENCH_unit_test_.json")
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        assert rec["name"] == "unit test!"
        assert rec["metrics"]["throughput"] == 12.5
        assert rec["metrics"]["n"] == 3  # numpy scalar coerced
        loaded = bench.load_bench_records(str(tmp_path))
        assert loaded["unit test!"]["metrics"]["throughput"] == 12.5

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.bench_record("", {}, directory=str(tmp_path))


# --------------------------------------------------------------------------- #
# no-op mode overhead
# --------------------------------------------------------------------------- #


class TestNoopOverhead:
    def test_disabled_handles_do_not_record(self):
        reg = fresh_registry(enabled=False)
        c = reg.counter("c")
        h = reg.histogram("h")
        c.inc(5)
        h.observe(1.0)
        assert c.value == 0
        assert h.count == 0
        reg.enable()
        c.inc()
        assert c.value == 1

    def test_noop_read_batch_overhead_under_5pct(self, image_ds, monkeypatch):
        """No-op instrumentation costs < 5 % of a ``read_batch`` — as a
        product of stable numbers (metric events one call makes × the cost
        of one no-op event), not a difference of two JPEG-bound timings,
        which this box cannot resolve to 5 %."""
        engine = image_ds._engine("images")
        rows = list(range(24))
        engine.read_batch(rows)  # warm decoded-chunk cache + code paths

        events = []  # every handle of every registry counts its calls
        with monkeypatch.context() as patch:
            for kind, method in (
                (metrics.Counter, "inc"), (metrics.Gauge, "set"),
                (metrics.Gauge, "inc"), (metrics.Histogram, "observe"),
            ):
                def counting(handle, *args, _real=getattr(kind, method)):
                    events.append(handle)
                    return _real(handle, *args)

                patch.setattr(kind, method, counting)
            engine.read_batch(rows)
        assert 0 < len(events) < 100  # a per-row event would be a finding

        reg = fresh_registry(enabled=False)
        c, h = reg.counter("c"), reg.histogram("h")

        def noop_event_s() -> float:
            t0 = time.perf_counter()
            for _ in range(50_000):
                c.inc()
                h.observe(1.0)
            return (time.perf_counter() - t0) / 100_000

        def read_batch_s() -> float:
            t0 = time.perf_counter()
            engine.read_batch(rows)
            return time.perf_counter() - t0

        event_s = min(noop_event_s() for _ in range(5))
        call_s = min(read_batch_s() for _ in range(5))
        assert len(events) * event_s < 0.05 * call_s, (
            f"no-op obs overhead: {len(events)} events x {event_s * 1e9:.0f} "
            f"ns vs read_batch {call_s * 1e6:.0f} us"
        )

    @pytest.mark.parametrize("enabled", [False, True])
    def test_noop_event_takes_no_lock_and_leaves_the_snapshot(self, enabled):
        """What makes a no-op event cheap: it returns before the handle's
        lock and records nothing.  Enabled mode does both, so this check
        (and the overhead bound above, which times no-op events) can
        fail."""

        class SpyLock:
            entered = 0

            def __enter__(self):
                self.entered += 1

            def __exit__(self, *exc_info):
                return False

        reg = fresh_registry(enabled=enabled)
        handles = [reg.counter("c"), reg.gauge("g"), reg.histogram("h")]
        for handle in handles:
            handle._lock = SpyLock()
        before = reg.snapshot()
        locked = sum(handle._lock.entered for handle in handles)
        handles[0].inc()
        handles[1].set(2.0)
        handles[2].observe(1.0)
        locked = sum(handle._lock.entered for handle in handles) - locked
        assert locked == (3 if enabled else 0)
        assert (reg.snapshot() != before) == enabled
