"""Telemetry: metrics registry, span tracing, serve-protocol stitching,
perf records, and the no-op overhead guarantee."""

from __future__ import annotations

import ast
import fnmatch
import json
import pathlib
import re
import threading
import time

import numpy as np
import pytest

import repro
from repro.obs import bench, metrics, tracing
from repro.serve.server import DatasetServer
from repro.serve.transport import InprocTransport
from repro.storage import MemoryProvider

from engine_reads import engine_rows


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


class TestOwnedSeries:
    """An owner's series is its own count, chained to the family series:
    one record moves both, the owner reads its own, the registry the
    family's."""

    def test_two_owners_on_one_label_set(self):
        reg = fresh_registry()
        a = reg.owned(metrics.Counter, "c", tensor="x")
        b = reg.owned(metrics.Counter, "c", tensor="x")
        ha = reg.owned(metrics.Histogram, "h", op="get")
        hb = reg.owned(metrics.Histogram, "h", keep_samples=True, op="get")
        a.inc(2)
        b.inc(3)
        ha.observe(1.0)
        hb.observe_many([2.0, 4.0])
        assert (a.value, b.value) == (2, 3)
        assert reg.value("c", tensor="x") == 5
        assert reg.series_count("c") == 1
        assert (ha.count, ha.sum, hb.count, hb.sum) == (1, 1.0, 2, 6.0)
        assert hb.percentile(50) == 3.0 and hb.samples() == [2.0, 4.0]
        assert ha.samples() == []  # the family keeps the reservoir
        assert reg.histogram("h", op="get").samples() == [1.0, 2.0, 4.0]
        assert reg.snapshot()["h"]["op=get"]["count"] == 3

    def test_only_the_storage_latency_owners_keep_samples(self):
        """An engine's ``decode_seconds`` keeps count / sum / min / max;
        its family answers the percentiles.  A provider's
        ``storage.op_seconds`` keeps its samples: they are
        ``stats.latency_samples``."""
        ds = repro.empty(MemoryProvider())
        ds.create_tensor("reservoir_probe", dtype="int64",
                         max_chunk_size=512)
        ds.reservoir_probe.extend(np.arange(256).reshape(64, 4))
        ds.flush()
        cold = repro.load(ds.storage)
        family = metrics.REGISTRY.histogram("chunk_engine.decode_seconds",
                                            tensor="reservoir_probe")
        before = family.count
        cold.read_rows(range(64), ["reservoir_probe"])
        decode = cold.reservoir_probe.engine._h_decode
        assert decode.count == family.count - before == 4
        assert decode.samples() == [] and decode.min is not None
        assert family.samples() and family.percentile(50) > 0
        store = cold.storage
        assert len(store.stats.latency_samples("get_many")) == (
            store._h_get_many.count) > 0

    def test_a_series_resolves_when_its_owner_first_records(self):
        reg = fresh_registry()
        owner = reg.owned(metrics.Counter, "c", tensor="x")
        assert owner.value == 0 and reg.series_count("c") == 0
        owner.inc()
        assert reg.series_count("c") == 1
        assert reg.counter("c", tensor="x").value == 1

    def test_owner_reset_leaves_the_family(self):
        reg = fresh_registry()
        c = reg.owned(metrics.Counter, "c", tensor="x")
        h = reg.owned(metrics.Histogram, "h")
        c.inc(4)
        h.observe(1.0)
        c.reset()
        h.reset()
        assert (c.value, h.count, h.samples()) == (0, 0, [])
        assert reg.value("c") == 4 and reg.value("h") == 1
        c.inc()
        assert (c.value, reg.value("c")) == (1, 5)

    def test_a_disabled_registry_stops_both(self):
        reg = fresh_registry(enabled=False)
        c = reg.owned(metrics.Counter, "c")
        h = reg.owned(metrics.Histogram, "h")
        c.inc(3)
        h.observe(1.0)
        assert (c.value, h.count) == (0, 0)
        assert reg.snapshot() == {}
        reg.enable()
        c.inc()
        assert (c.value, reg.value("c")) == (1, 1)

    def test_concurrent_owners_lose_no_update(self):
        """Threads racing two owners' first records (the family lookup)
        and every later one: each owner stays exact, the family sums."""
        import sys

        reg = fresh_registry()
        owners = [reg.owned(metrics.Counter, "c", tensor="x")
                  for _ in range(2)]
        hists = [reg.owned(metrics.Histogram, "h") for _ in range(2)]
        start = threading.Barrier(8)

        def work(i):
            start.wait(timeout=10)
            for _ in range(500):
                owners[i % 2].inc()
                hists[i % 2].observe(1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [o.value for o in owners] == [2000, 2000]
        assert [h.count for h in hists] == [2000, 2000]
        assert reg.value("c") == 4000 and reg.value("h") == 4000
        assert reg.series_count("c") == 1

    def test_a_histogram_seeds_its_sampler_once_its_reservoir_fills(self):
        reg = fresh_registry()
        h = reg.owned(metrics.Histogram, "h", keep_samples=True)
        h.observe_many([1.0] * metrics._RESERVOIR_SIZE)
        assert h._rng is None
        h.observe(1.0)
        assert h._rng is not None
        assert len(h.samples()) == metrics._RESERVOIR_SIZE


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
        engine_rows(engine, list(range(8)))
        reg_delta = (reg("decoded_cache_hits") - reg_before[0],
                     reg("decoded_cache_misses") - reg_before[1])
        eng_delta = (engine.chunk_cache_hits - eng_before[0],
                     engine.chunk_cache_misses - eng_before[1])
        assert reg_delta == eng_delta
        assert sum(eng_delta) > 0

    def test_labeled_series_resolve_on_first_use(self):
        """Building an engine, an executor or a storage provider adds no
        registry series; the first read, query or write adds the ones it
        records into."""
        from repro.tql import Executor, build_plan, parse

        reg = metrics.REGISTRY
        name, url = "first_use_probe", "mem://obs-first-use"
        engine_series = ("chunk_engine.decoded_cache_misses",
                         "chunk_engine.chunks_planned",
                         "chunk_engine.plan_chunks")
        tql_series = ("tql.rows_scanned", "tql.scan_windows",
                      "tql.kernel_seconds")
        ds = repro.empty(url, overwrite=True)
        ds.create_tensor(name, dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.extend({name: np.arange(10)})
        ds.flush()

        def counts(names):
            return [reg.series_count(n) for n in names]

        before = counts(engine_series)
        ds = repro.load(url)
        engine = ds._engine(name)
        assert counts(engine_series) == before
        engine_rows(engine, list(range(10)))
        assert counts(engine_series) == [n + 1 for n in before]

        q = f"SELECT {name} WHERE {name} > 4"
        before = counts(tql_series)
        ex = Executor(ds, build_plan(ds, parse(q)))
        assert counts(tql_series) == before
        assert len(ex.run(q)) == 5
        assert counts(tql_series) == [n + 1 for n in before]

        class FirstUseProbeProvider(MemoryProvider):
            """A provider class of its own: its series are its label's."""

        storage_series = ("storage.get_requests", "storage.put_requests",
                          "storage.bytes_read", "storage.bytes_written",
                          "storage.op_seconds")
        before = counts(storage_series)
        provider = FirstUseProbeProvider("first-use")
        assert counts(storage_series) == before
        provider["k"] = b"abc"
        assert provider["k"] == b"abc"
        assert counts(storage_series) == [n + 1 for n in before[:4]] + [
            before[4] + 2]  # op_seconds: one series per op, put and get
        assert reg.value("storage.get_requests",
                         provider="FirstUseProbeProvider") == 1

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
        engine_rows(engine, [0, 1])
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
# metric names: the code and docs/observability.md agree
# --------------------------------------------------------------------------- #

REPO = pathlib.Path(__file__).resolve().parent.parent
#: the functions that name a metric, and the position of the name
_NAMING = {"counter": 0, "gauge": 0, "histogram": 0, "labeled": 1,
           "owned": 1}


def _str_tuples(tree: ast.AST) -> dict:
    """``NAME = ("a", "b", ...)`` assignments anywhere in a module."""
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Tuple)
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in node.value.elts)):
            out[node.targets[0].id] = [e.value for e in node.value.elts]
    return out


def _expand(name: ast.AST, loops: dict, tuples: dict) -> list:
    """The metric names a name argument stands for: a literal, or an
    f-string over the loop variable of a comprehension on a field tuple."""
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return [name.value]
    if not isinstance(name, ast.JoinedStr):
        return []
    parts = [[]]
    for value in name.values:
        if isinstance(value, ast.Constant):
            parts.append([value.value])
            continue
        var = value.value
        fields = tuples.get(loops.get(getattr(var, "id", None)), [])
        if not fields:
            return []
        parts.append(fields)
    names = [""]
    for options in parts[1:]:
        names = [head + tail for head in names for tail in options]
    return names


def code_metric_names(src: pathlib.Path) -> set:
    """Every metric name ``src/`` declares (``labeled`` / ``owned`` /
    ``counter`` / ``gauge`` / ``histogram`` calls), or a ``?file:line``
    entry for one this cannot read."""
    found = set()

    def visit(node: ast.AST, loops: dict, tuples: dict, where: str):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            loops = dict(loops)  # comprehension variable -> its tuple
            for gen in node.generators:
                it = gen.iter
                field = getattr(it, "attr", getattr(it, "id", None))
                if isinstance(gen.target, ast.Name) and field in tuples:
                    loops[gen.target.id] = field
        if isinstance(node, ast.Call):
            func = node.func
            fname = getattr(func, "attr", getattr(func, "id", None))
            if fname in _NAMING and len(node.args) > _NAMING[fname]:
                names = _expand(node.args[_NAMING[fname]], loops, tuples)
                found.update(names or [f"?{where}:{node.lineno}"])
        for child in ast.iter_child_nodes(node):
            visit(child, loops, tuples, where)

    for path in sorted(src.rglob("*.py")):
        if path.name == "metrics.py" and path.parent.name == "obs":
            continue  # the registry's own plumbing passes names through
        tree = ast.parse(path.read_text())
        visit(tree, {}, _str_tuples(tree), path.name)
    return found


def documented_metric_patterns(doc: pathlib.Path) -> set:
    """The names in the metric column of the "What is instrumented"
    table: a bare name after ``a.x`` is ``a.<name>``; ``*`` matches any."""
    text = doc.read_text().split("### What is instrumented", 1)[1]
    patterns = set()
    for line in text.splitlines()[1:]:
        if not line.startswith("|"):
            if patterns:
                break
            continue
        cell = line.split("|")[1]
        prefix = None
        for token in re.findall(r"`([^`]+)`", cell):
            if "." in token:
                prefix = token.split(".", 1)[0]
                patterns.add(token)
            elif prefix is not None:
                patterns.add(f"{prefix}.{token}")
    return patterns


def undocumented_and_unrecorded(src: pathlib.Path, doc: pathlib.Path):
    names = code_metric_names(src)
    patterns = documented_metric_patterns(doc)
    undocumented = sorted(
        n for n in names
        if not any(fnmatch.fnmatchcase(n, p) for p in patterns))
    unrecorded = sorted(
        p for p in patterns
        if not any(fnmatch.fnmatchcase(n, p) for n in names))
    return undocumented, unrecorded


class TestMetricNamesAreDocumented:
    def test_every_metric_has_a_row_and_every_row_a_metric(self):
        undocumented, unrecorded = undocumented_and_unrecorded(
            REPO / "src", REPO / "docs" / "observability.md")
        assert undocumented == [], "recorded, not in the table"
        assert unrecorded == [], "in the table, recorded nowhere"

    def test_the_field_families_are_expanded(self):
        names = code_metric_names(REPO / "src")
        assert {"serve.requests", "serve.chunk_cache_misses",
                "serve.prefetch_wasted", "storage.list_requests"} <= names


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
        engine_rows(engine, rows)  # warm decoded-chunk cache + code paths

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
            engine_rows(engine, rows)
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
            engine_rows(engine, rows)
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
