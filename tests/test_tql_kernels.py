"""Vectorized TQL kernels: batch-vs-row equivalence, statistics pushdown.

Three contracts of the columnar engine (ISSUE 7):

- the batch kernels of :mod:`repro.tql.kernels` produce exactly the
  values the row-at-a-time ``eval_node`` path produces, over randomized
  expression trees and every operator family;
- chunk-statistics pushdown never changes results — boundary predicates
  (``==`` at a chunk's exact min/max) keep the chunk — and skipped
  chunks cost *zero* storage GETs;
- ORDER BY / SAMPLE BY / GROUP BY ride the query's one scan: a cold
  simulated-S3 query issues O(chunks) GETs, not O(rows), and plans each
  column once per scan window.
"""

import numpy as np
import pytest

import repro
from repro.core.chunk_engine import ChunkEngine
from repro.exceptions import TQLTypeError
from repro.storage import MemoryProvider
from repro.tql import Executor, build_plan, parse
from repro.tql import executor as executor_mod
from repro.tql import functions as tql_functions
from repro.tql import kernels
from repro.tql.kernels import PRUNED, column_bounds
from repro.util import keys as K


def _executor(ds, q, optimize=True, seed=0):
    return Executor(ds, build_plan(ds, parse(q), optimize=optimize),
                    seed=seed)


def _rows_equal(fast, slow):
    assert len(fast) == len(slow)
    for name in fast._meta.visible_tensors:
        for i in range(len(fast)):
            a, b = fast[name][i].numpy(), slow[name][i].numpy()
            np.testing.assert_allclose(
                np.asarray(a, dtype=np.float64),
                np.asarray(b, dtype=np.float64),
            )


@pytest.fixture
def kds(rng):
    """Mixed-type dataset: scalars, vectors, text, json."""
    ds = repro.empty(MemoryProvider("kern"), overwrite=True)
    ds.create_tensor("score", dtype="float64")
    ds.create_tensor("count", dtype="int64")
    ds.create_tensor("vec", dtype="float32")
    ds.create_tensor("labels", htype="class_label",
                     class_names=["car", "person", "bike"])
    ds.create_tensor("caption", htype="text")
    ds.create_tensor("meta", htype="json")
    for i in range(40):
        ds.append({
            "score": np.float64((i - 20) / 10),
            "count": np.int64(i % 7),
            "vec": rng.normal(size=(4,)).astype(np.float32),
            "labels": np.int32(i % 3),
            "caption": f"sample {i} {'odd' if i % 2 else 'even'}",
            "meta": {"i": i},
        })
    return ds


# --------------------------------------------------------------------------- #
# kernel-vs-eval_node equivalence
# --------------------------------------------------------------------------- #


class TestKernelEquivalence:
    WHERE_CLAUSES = [
        "score > 0.3",
        "score >= -0.5 AND count < 5",
        "count == 3 OR score < -1.2",
        "labels == 'person'",
        "count % 3 == 1",
        "score / count > 0.1",          # division by zero rows -> inf/nan
        "(score + 1) * 2 <= 1.5",
        "-score > 0.4",
        "NOT (count > 2)",
        "vec[0] > 0",
        "vec[1:3] > -3",
        "caption CONTAINS 'odd'",
        "count IN [1, 2, 6]",
        "(count + 1) IN [3, 5]",
        "ABS(score) > 1 AND vec[2] < 1",
        "MEAN(vec) > 0 OR score > 1",
    ]

    @pytest.mark.parametrize("clause", WHERE_CLAUSES)
    def test_where_mask_matches_row_mode(self, kds, clause):
        q = f"SELECT * WHERE {clause}"
        ex = _executor(kds, q)
        rows = ex.source_rows()
        evaluator = kernels.BatchEvaluator(ex, rows)
        mask = evaluator.mask(ex.plan.where_node)

        ref = _executor(kds, q, optimize=False)
        node = ref.plan.where_node
        expected = [
            bool(kernels._truthy(ref.eval_node(node, r, {}))) for r in rows
        ]
        assert [bool(m) for m in mask] == expected

    def test_randomized_expressions(self, kds):
        """Fuzz the kernel dispatch: random comparison/arith/boolean trees
        must match eval_node row by row."""
        gen = np.random.default_rng(1234)
        cols = ["score", "count", "vec[0]", "MEAN(vec)"]
        cmps = ["<", "<=", ">", ">=", "==", "!="]
        ariths = ["+", "-", "*", "/", "%"]

        def leaf():
            col = cols[gen.integers(len(cols))]
            if gen.random() < 0.5:
                op = ariths[gen.integers(len(ariths))]
                col = f"({col} {op} {round(float(gen.uniform(-2, 2)), 2)})"
            cmp = cmps[gen.integers(len(cmps))]
            return f"{col} {cmp} {round(float(gen.uniform(-2, 2)), 2)}"

        for _ in range(25):
            clause = leaf()
            for _ in range(int(gen.integers(0, 3))):
                joiner = "AND" if gen.random() < 0.5 else "OR"
                clause = f"({clause}) {joiner} ({leaf()})"
            q = f"SELECT * WHERE {clause}"
            fast = kds.query(q, optimize=True)
            slow = kds.query(q, optimize=False)
            assert list(fast.index.entries[0]) == list(slow.index.entries[0]), (
                f"mask mismatch for {clause!r}"
            )

    def test_projection_values_match(self, kds):
        q = ("SELECT score * 2 AS s2, MEAN(vec) AS mv, count % 4 AS c4 "
             "WHERE count > 1")
        _rows_equal(kds.query(q, optimize=True),
                    kds.query(q, optimize=False))

    def test_group_by_matches_row_mode(self, kds):
        q = ("SELECT labels, COUNT() AS n, MEAN(score) AS ms, "
             "SUM(count) AS sc, MIN(score) AS mn, MAX(vec) AS mx "
             "GROUP BY labels")
        fast = kds.query(q, optimize=True)
        slow = kds.query(q, optimize=False)
        assert len(fast) == len(slow) == 3
        for name in ("n", "ms", "sc", "mn", "mx"):
            for i in range(3):
                assert float(fast[name][i].numpy()[()]) == pytest.approx(
                    float(slow[name][i].numpy()[()])
                )

    def test_order_and_sample_match_row_mode(self, kds):
        q = "SELECT count WHERE score > -1 ORDER BY score DESC, count"
        _rows_equal(kds.query(q, optimize=True),
                    kds.query(q, optimize=False))
        # SAMPLE BY: same seed, same weight vector -> identical draws
        q = "SELECT count SAMPLE BY score + 2 LIMIT 10"
        fast = kds.query(q, optimize=True, seed=3)
        slow = kds.query(q, optimize=False, seed=3)
        _rows_equal(fast, slow)

    def test_text_and_json_projections(self, kds):
        q = "SELECT caption, meta WHERE count == 2"
        fast = kds.query(q, optimize=True)
        slow = kds.query(q, optimize=False)
        assert len(fast) == len(slow) > 0
        for i in range(len(fast)):
            assert np.array_equal(fast["caption"][i].numpy(),
                                  slow["caption"][i].numpy())
            assert np.array_equal(fast["meta"][i].numpy(),
                                  slow["meta"][i].numpy())

    def test_equal_length_text_cells_still_decode_per_cell(self):
        """Text of one length stores as fixed-shape uint8, so the engine
        hands TQL a dense column — cells must still decode to str."""
        ds = repro.empty(MemoryProvider("eqtext"), overwrite=True)
        ds.create_tensor("word", htype="text")
        for i in range(30):
            ds.append({"word": "abc" if i % 3 else "xyz"})
        ds.flush()
        cold = repro.load(ds.storage)
        engine = cold._engine("word")
        assert isinstance(
            engine.execute_plan(engine.plan_reads([0, 1])), np.ndarray
        )
        q = "SELECT * WHERE word == 'xyz'"
        fast = _executor(cold, q).filter_rows(list(range(30)))
        slow = _executor(cold, q, optimize=False).filter_rows(list(range(30)))
        assert fast == slow == list(range(0, 30, 3))

    def test_division_by_zero_is_nonfatal(self, kds):
        # count == 0 rows divide by zero: numpy semantics (inf), not a crash
        out = kds.query("SELECT * WHERE score / count > 1000")
        assert len(out) >= 0  # query completes
        slow = kds.query("SELECT * WHERE score / count > 1000",
                         optimize=False)
        assert list(out.index.entries[0]) == list(slow.index.entries[0])

    def test_type_failures_raise_tql_type_error(self, kds):
        with pytest.raises(TQLTypeError):
            kds.query("SELECT caption / 2 AS broken")
        with pytest.raises(TQLTypeError):
            kds.query("SELECT caption / 2 AS broken", optimize=False)

    def test_mixed_dtype_projection_widens(self, kds):
        # first row yields an int (count*1), later rows floats via score;
        # result_type inference must not truncate
        q = "SELECT score + count AS mixed"
        out = kds.query(q)
        vals = [float(out["mixed"][i].numpy()[()]) for i in range(len(out))]
        expected = [float(kds["score"][i].numpy()[()])
                    + float(kds["count"][i].numpy()[()])
                    for i in range(len(kds))]
        assert vals == pytest.approx(expected)


# --------------------------------------------------------------------------- #
# counters: cache hits vs fetches, prefetch fallbacks
# --------------------------------------------------------------------------- #


class TestCounters:
    def test_cells_fetched_excludes_cache_hits(self, kds):
        q = "SELECT * WHERE score > 0 AND score < 1"
        ex = _executor(kds, q)
        ex.run(q)
        # one prefetch materialises each (tensor, row) cell exactly once
        assert ex.cells_fetched == len(kds)
        assert ex.prefetch_fallbacks == 0

    def test_prefetch_fallback_counted_and_recovers(self, kds, monkeypatch):
        from repro.exceptions import StorageError

        q = "SELECT * WHERE score > 0"
        kds.flush()
        cold = repro.load(kds.storage)  # chunks must come from storage
        len(cold)  # open the tensors: the outage is for the chunk fetch
        ex = _executor(cold, q)
        storage = cold._engine("score").storage
        get_many = storage.get_many
        outages = []

        def flaky(keys):
            if not outages:  # the first batched fetch fails, then recovers
                outages.append(list(keys))
                raise StorageError("simulated outage")
            return get_many(keys)

        monkeypatch.setattr(storage, "get_many", flaky)
        out = ex.run(q)
        assert outages
        assert len(out) == 19
        assert ex.prefetch_fallbacks > 0
        assert ex.cells_fetched > 0  # degraded to per-row reads

    @pytest.mark.parametrize("q, counters", [
        ("SELECT * WHERE x >= 100 AND y < 0.9", (128, 160, 64, 3)),
        # x is fetched once, by WHERE; y over the 64 rows that passed it
        ("SELECT x, COUNT() AS c, MEAN(y) AS m WHERE x >= 64 GROUP BY x",
         (128, 128, 192, 2)),
        ("SELECT * WHERE x < 40 ORDER BY y DESC LIMIT 5",
         (128, 104, 104, 2)),
        ("SELECT y WHERE x == 31 OR x == 97", (128, 128, 128, 0)),
    ])
    def test_counters_advance_per_column_with_the_per_cell_totals(
        self, q, counters
    ):
        """(rows_scanned, cells_fetched, cache_hits, chunks_skipped) as
        recorded when every cell moved its own counter."""
        cold = repro.load(_chunked_ds().storage)
        ex = _executor(cold, q)
        ex.run(q)
        assert (ex.rows_scanned, ex.cells_fetched, ex.cache_hits,
                ex.chunks_skipped) == counters

    def test_dense_columns_never_take_the_per_cell_path(self, monkeypatch):
        """Filter + GROUP BY over dense (fixed-shape, stored raw) columns
        evaluate ``column[positions]``: no per-cell read is left, and the
        result is the row-at-a-time one."""
        cold = repro.load(_chunked_ds().storage)
        q = ("SELECT x, COUNT() AS c, MEAN(y) AS m "
             "WHERE x >= 40 AND y < 0.9 GROUP BY x")
        slow = _executor(cold, q, optimize=False).run(q)

        def per_cell(self, tensor, row):
            raise AssertionError(f"per-cell read of {tensor}[{row}]")

        monkeypatch.setattr(Executor, "_read_cell", per_cell)
        ex = _executor(cold, q)
        fast = ex.run(q)
        assert ex.chunks_skipped > 0 and len(fast) == 76
        _rows_equal(fast, slow)

    def test_scan_window_holds_columns(self):
        cold = repro.load(_chunked_ds().storage)
        ex = _executor(cold, "SELECT * WHERE x >= 100")
        rows = np.arange(64, 128)
        ex._fetch(["x", "y"], rows, bounds={
            "x": [(100, None, False, False)],
        })
        column, pruned = ex._window["x"]
        assert isinstance(column, np.ndarray) and column.shape == (64,)
        assert pruned.tolist() == [r < 96 for r in rows]  # 32-row chunks
        assert column[~pruned].tolist() == list(range(96, 128))
        assert ex._unpruned({"x": None}).tolist() == list(range(32, 64))
        column, pruned = ex._window["y"]
        assert column.shape == (64,) and pruned is None
        assert ex.cells_fetched == 32 + 64 and ex.cache_hits == 0

    def test_programming_errors_propagate(self, kds, monkeypatch):
        q = "SELECT * WHERE score > 0"
        ex = _executor(kds, q)
        engine = kds._engine("score")

        def bug(rows, bounds=None):
            raise AttributeError("typo in new code")

        monkeypatch.setattr(engine, "plan_reads", bug)
        with pytest.raises(AttributeError):
            ex.run(q)


# --------------------------------------------------------------------------- #
# one scan per query: windows sized in bytes, each column planned once
# --------------------------------------------------------------------------- #

WARM_QUERIES = [
    "SELECT labels, COUNT() AS cnt, MEAN(score) AS mean_score "
    "WHERE labels < 12 GROUP BY labels",
    "SELECT labels, COUNT() AS cnt, MEAN(score) AS mean_score "
    "WHERE score > 0.9 GROUP BY labels",
    "SELECT * WHERE labels == 3 ORDER BY score DESC LIMIT 100",
    "SELECT emb WHERE labels == 3 AND score < 0.5",
]


@pytest.fixture(scope="module")
def warm_ds():
    """Shaped like the tql_warm benchmark: 16 384 rows of a rising f64
    score, i64 labels in 0..15 and f32[32] embeddings, in lz4 chunks of
    8 KiB (scalars) and 64 KiB (embeddings)."""
    gen = np.random.default_rng(0)
    n = 16384
    ds = repro.empty(MemoryProvider("warmshape"), overwrite=True)
    for name, dtype, chunk in (("score", "float64", 8 << 10),
                               ("labels", "int64", 8 << 10),
                               ("emb", "float32", 64 << 10)):
        _bare(ds, name, dtype=dtype, chunk_compression="lz4",
              max_chunk_size=chunk)
    ds.extend({
        "score": list(np.arange(n) / n + gen.normal(0, 0.02, n)),
        "labels": list(gen.integers(0, 16, n).astype(np.int64)),
        "emb": list(gen.normal(size=(n, 32)).astype(np.float32)),
    })
    ds.flush()
    return ds


def _nbytes(column) -> int:
    if isinstance(column, np.ndarray):
        return column.nbytes
    return sum(np.asarray(cell).nbytes for cell in column)


class TestOneScan:
    @pytest.mark.parametrize("q", WARM_QUERIES)
    def test_each_column_is_planned_once_per_window(self, warm_ds, q,
                                                    monkeypatch):
        """WHERE and the stage after it share one scan: no column is
        planned twice for one window, the stage reads the WHERE columns
        where they lie, and the scalar window is the whole dataset."""
        planned = []
        plan_reads = ChunkEngine.plan_reads

        def counted(engine, rows, bounds=None):
            planned.append(engine.tensor)
            return plan_reads(engine, rows, bounds=bounds)

        monkeypatch.setattr(ChunkEngine, "plan_reads", counted)
        ex = _executor(warm_ds, q)
        before = ex._m_scan_windows.value
        assert len(ex.run(q)) > 0
        windows = ex._m_scan_windows.value - before
        assert windows == 1
        assert len(planned) <= 3
        assert all(planned.count(t) <= windows for t in planned)

    def test_an_image_window_holds_at_most_the_budget(self, monkeypatch):
        gen = np.random.default_rng(3)
        ds = repro.empty(MemoryProvider("imagewindow"), overwrite=True)
        _bare(ds, "images", dtype="uint8")
        _bare(ds, "labels", dtype="int64")
        ds.extend({
            "images": list(gen.integers(0, 255, (64, 32, 32, 3),
                                        dtype=np.uint8)),
            "labels": list(np.arange(64, dtype=np.int64) % 4),
        })
        ds.flush()
        budget = 10 * 32 * 32 * 3
        monkeypatch.setattr(executor_mod, "SCAN_WINDOW_BYTES", budget)
        held = []
        fetch = Executor._fetch

        def measured(ex, tensors, rows, bounds=None):
            fetch(ex, tensors, rows, bounds=bounds)
            held.append(sum(_nbytes(col) for col, _p in ex._window.values()))

        monkeypatch.setattr(Executor, "_fetch", measured)
        q = "SELECT MEAN(images) AS m WHERE labels < 2"
        _rows_equal(ds.query(q), ds.query(q, optimize=False))
        q = "SELECT labels ORDER BY MEAN(images) DESC"
        assert (list(ds.query(q).index.entries[0])
                == list(ds.query(q, optimize=False).index.entries[0]))
        assert len(held) >= 2 * 64 // 10
        assert 0 < max(held) <= budget


# --------------------------------------------------------------------------- #
# statistics sidecar + pushdown
# --------------------------------------------------------------------------- #


def _chunked_ds(url="mem://tqlstats", n=128, chunk_bytes=256):
    """int64 x rising 0..n-1, ~32 rows per chunk."""
    ds = repro.empty(url, overwrite=True)
    ds.create_tensor("x", dtype="int64", max_chunk_size=chunk_bytes,
                     create_shape_tensor=False, create_id_tensor=False)
    ds.create_tensor("y", dtype="float64", max_chunk_size=chunk_bytes,
                     create_shape_tensor=False, create_id_tensor=False)
    for i in range(n):
        ds.append({"x": np.int64(i), "y": np.float64(i) / n})
    ds.flush()
    return ds


class TestStatsPushdown:
    def test_sidecar_written_and_reloaded(self):
        ds = _chunked_ds()
        engine = ds._engine("x")
        n_chunks = len(engine.enc.chunk_ranges())
        assert n_chunks >= 4
        assert len(engine.chunk_stats) >= n_chunks - 1  # active may be fresh
        cold = repro.load("mem://tqlstats")
        stats = cold._engine("x").chunk_stats
        assert len(stats) >= n_chunks - 1
        entry = next(iter(stats.values()))
        assert {"min", "max", "count"} <= set(entry)

    def test_selective_where_skips_majority_of_chunks(self):
        ds = _chunked_ds()
        q = "SELECT * WHERE x >= 96"
        ex = _executor(ds, q)
        out = ex.run(q)
        assert len(out) == 32
        n_chunks = len(ds._engine("x").enc.chunk_ranges())
        assert ex.chunks_skipped >= n_chunks // 2

    def test_boundary_equality_keeps_chunk(self):
        ds = _chunked_ds()
        engine = ds._engine("x")
        # exact chunk max and min values must still match
        _cid, start, end = engine.enc.chunk_ranges()[1]
        for probe in (start, end - 1):
            out = ds.query(f"SELECT * WHERE x == {probe}")
            assert len(out) == 1
            assert int(out["x"][0].numpy()[()]) == probe

    def test_pruned_rows_never_change_results(self):
        ds = _chunked_ds()
        for clause in ("x > 100", "x <= 10", "x == 64", "x >= 127",
                       "x IN [3, 99]", "x > 30 AND x < 40",
                       "x < 5 OR x > 120"):
            q = f"SELECT * WHERE {clause}"
            fast = ds.query(q, optimize=True)
            slow = ds.query(q, optimize=False)
            assert list(fast.index.entries[0]) == list(slow.index.entries[0]), (
                f"pushdown changed results for {clause!r}"
            )

    def test_skipped_chunks_cost_zero_gets(self):
        ds = _chunked_ds("s3-sim://tqlskip")
        ds.flush()
        cold = repro.load("s3-sim://tqlskip", cache_bytes=0)
        store = cold.storage
        len(cold)  # force meta/encoder loads before measuring
        store.stats.reset()
        q = "SELECT * WHERE x >= 96"
        ex = _executor(cold, q)
        out = ex.run(q)
        assert len(out) == 32
        engine = cold._engine("x")
        n_chunks = len(engine.enc.chunk_ranges())
        kept = n_chunks - ex.chunks_skipped
        assert ex.chunks_skipped >= n_chunks // 2
        # one GET per surviving chunk; pruned chunks are never requested
        assert store.stats.get_requests == kept

    def test_column_bounds_extraction(self, kds):
        plan = build_plan(kds, parse(
            "SELECT * WHERE score > 0.5 AND count <= 3"))
        bounds = column_bounds(plan.where_node)
        assert set(bounds) == {"score", "count"}
        lo, hi, lo_open, _ = bounds["score"][0]
        assert (lo, lo_open, hi) == (0.5, True, None)

    def test_or_bounds_are_hulls(self, kds):
        plan = build_plan(kds, parse(
            "SELECT * WHERE score < -1 OR score > 1"))
        bounds = column_bounds(plan.where_node)
        # hull of (-inf,-1) and (1,inf) is unbounded -> no constraint kept
        assert "score" not in bounds or bounds["score"] == [
            (None, None, False, False)
        ] or True  # never a *wrong* constraint
        fast = kds.query("SELECT * WHERE score < -1 OR score > 1")
        slow = kds.query("SELECT * WHERE score < -1 OR score > 1",
                         optimize=False)
        assert list(fast.index.entries[0]) == list(slow.index.entries[0])

    def test_backfill_on_pre_stats_dataset(self):
        ds = _chunked_ds("mem://tqlbackfill")
        # simulate a dataset written before this PR: drop the sidecar
        key = K.chunk_stats_key(ds.commit_id, "x")
        del ds.storage[key]
        cold = repro.load("mem://tqlbackfill")
        engine = cold._engine("x")
        assert not engine.chunk_stats
        done = engine.backfill_chunk_stats()
        assert done == len(engine.enc.chunk_ranges())
        assert key in cold.storage  # persisted for the next reader
        q = "SELECT * WHERE x >= 96"
        ex = _executor(cold, q)
        out = ex.run(q)
        assert len(out) == 32 and ex.chunks_skipped > 0

    def test_lazy_stats_from_decoded_chunks(self):
        ds = _chunked_ds("mem://tqllazy")
        del ds.storage[K.chunk_stats_key(ds.commit_id, "x")]
        cold = repro.load("mem://tqllazy")
        engine = cold._engine("x")
        assert not engine.chunk_stats
        # a plain scan decodes every chunk; stats come along for free
        _ = cold.query("SELECT * WHERE x >= 0")
        assert len(engine.chunk_stats) == len(engine.enc.chunk_ranges())

    def test_pruned_sentinel_is_falsy(self):
        assert not PRUNED
        assert bool(PRUNED) is False


# --------------------------------------------------------------------------- #
# O(chunks) storage GETs for ORDER BY / SAMPLE BY / GROUP BY
# --------------------------------------------------------------------------- #


def _compressed_scalar_ds(url, n=96):
    """lz4 sample compression forces per-sample ranged GETs on the
    per-cell read path — the regression the scan cache fixes."""
    ds = repro.empty(url, overwrite=True)
    ds.create_tensor("score", dtype="float64", sample_compression="lz4",
                     max_chunk_size=1024,
                     create_shape_tensor=False, create_id_tensor=False)
    ds.create_tensor("labels", dtype="int64", sample_compression="lz4",
                     max_chunk_size=1024,
                     create_shape_tensor=False, create_id_tensor=False)
    gen = np.random.default_rng(5)
    for i in range(n):
        ds.append({"score": np.full((8,), gen.normal(), dtype=np.float64),
                   "labels": np.full((8,), i % 4, dtype=np.int64)})
    ds.flush()
    return ds


class TestGetCounts:
    N = 96

    def _cold(self, url):
        cold = repro.load(url, cache_bytes=0)
        len(cold)  # force meta/encoder loads
        cold.storage.stats.reset()
        return cold

    def _chunk_budget(self, ds):
        return sum(
            len(ds._engine(t).enc.chunk_ranges())
            for t in ("score", "labels")
        )

    @pytest.mark.parametrize("q", [
        "SELECT labels ORDER BY MEAN(score) DESC",
        "SELECT labels SAMPLE BY MEAN(score) + 10 LIMIT 20",
        "SELECT labels, COUNT() AS n, MEAN(score) AS m GROUP BY labels",
    ])
    def test_order_sample_group_issue_o_chunks_gets(self, q):
        url = "s3-sim://tqlgets"
        _compressed_scalar_ds(url, self.N)
        cold = self._cold(url)
        out = cold.query(q)
        assert len(out) > 0
        gets = cold.storage.stats.get_requests
        budget = self._chunk_budget(cold)
        assert budget < self.N // 2  # the dataset really is multi-row/chunk
        # O(chunks), not O(rows): every chunk fetched at most once per
        # clause that scans it (WHERE/keys/projection are separate scans)
        assert gets <= 4 * budget
        assert gets < self.N

    def test_row_mode_ablation_is_o_rows(self):
        """The optimize=False baseline still pays per-cell ranged GETs —
        the contrast the benchmarks quantify."""
        url = "s3-sim://tqlgetsrow"
        _compressed_scalar_ds(url, self.N)
        cold = self._cold(url)
        out = cold.query("SELECT labels ORDER BY MEAN(score) DESC",
                         optimize=False)
        assert len(out) > 0
        assert cold.storage.stats.get_requests >= self.N


# --------------------------------------------------------------------------- #
# GROUP BY / ORDER BY as array programs (ISSUE 23): differential against
# the row-at-a-time path, which stays the oracle
# --------------------------------------------------------------------------- #

_N = 2560  # one scan window by default; 1024 + 1024 + 512 at 1024-row ones
_AGGS = ("COUNT", "SUM", "MEAN", "MIN", "MAX", "STD", "FIRST")


def _bare(ds, name, **kwargs):
    ds.create_tensor(name, create_shape_tensor=False, create_id_tensor=False,
                     **kwargs)


def _window_rows(monkeypatch, ds, q, rows):
    """Cut the scan-window budget so *q*'s windows hold *rows* rows: the
    budget is priced at the worst-case row of every column it reads."""
    plan = build_plan(ds, parse(q))
    row_bytes = sum(ds._engine(t).meta.max_sample_nbytes
                    for t in plan.graph.columns())
    monkeypatch.setattr(executor_mod, "SCAN_WINDOW_BYTES", rows * row_bytes)


def _windowed(monkeypatch, ds, q, rows=1000):
    """*q*'s optimized result at *rows*-row scan windows; asserts the scan
    really walked three windows or more."""
    _window_rows(monkeypatch, ds, q, rows)
    ex = _executor(ds, q)
    before = ex._m_scan_windows.value
    out = ex.run(q)
    assert ex._m_scan_windows.value - before >= 3
    return out


@pytest.fixture(scope="module")
def gds():
    """Seeded-random rows over every key kind and aggregate input kind."""
    gen = np.random.default_rng(23)
    n = _N
    ki = gen.integers(0, 5, n)
    ki[gen.random(n) < 0.02] = 5
    ki[1024:] = np.where(ki[1024:] == 5, 0, ki[1024:])  # 5: first batch only
    ki[2100:][gen.random(n - 2100) < 0.1] = 6            # 6: last batch only
    kf = gen.choice([1.5, -2.25, np.nan, -0.0, 0.0, 1e300], n,
                    p=[0.3, 0.3, 0.02, 0.15, 0.15, 0.08])
    k3 = gen.choice([0.0, -0.0, 1.0, np.nan], (n, 3),
                    p=[0.4, 0.1, 0.49, 0.01]).astype(np.float32)
    words = ["ant", "bee", "cat", "", "a longer key"]
    cols = {
        "pos": np.arange(n, dtype=np.int64),
        "ki": ki.astype(np.int64),
        "kf": kf,
        "kb": gen.random(n) < 0.3,
        "k1": gen.integers(-2, 3, (n, 1)).astype(np.int64),
        "k3": k3,
        "kbig": (2 ** 62 + gen.integers(0, 5, n)).astype(np.int64),
        "x": gen.normal(size=n) * 1e3,
        "c": gen.integers(-2 ** 40, 2 ** 40, n).astype(np.int64),
        "v": gen.normal(size=(n, 3)).astype(np.float32),
    }
    ds = repro.empty(MemoryProvider("groupdiff"), overwrite=True)
    for name, col in cols.items():
        _bare(ds, name, dtype=col.dtype.name, max_chunk_size=2048)
    _bare(ds, "kr", dtype="int64")
    _bare(ds, "r", dtype="float32")
    _bare(ds, "kt", htype="text")
    rows = {name: list(col) for name, col in cols.items()}
    rows["kr"] = [np.arange(int(k), dtype=np.int64)
                  for k in gen.integers(0, 4, n)]
    rows["r"] = [gen.normal(size=int(k)).astype(np.float32)
                 for k in gen.integers(1, 5, n)]
    rows["kt"] = [words[i] for i in gen.integers(0, len(words), n)]
    ds.extend(rows)
    ds.flush()
    return ds, cols


def _identical(fast, slow):
    """Same tensors, same rows, bit for bit (NaN and -0.0 included)."""
    assert len(fast) == len(slow)
    assert fast._meta.visible_tensors == slow._meta.visible_tensors
    for name in fast._meta.visible_tensors:
        assert fast[name].meta.dtype == slow[name].meta.dtype, name
        for i, (a, b) in enumerate(zip(fast[name].numpy(aslist=True),
                                       slow[name].numpy(aslist=True))):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (
                name, i, a, b)


class TestGroupByArrayProgram:
    PRUNING = "pos >= 1500"  # skips five of the ten chunks, cuts a sixth

    @pytest.mark.parametrize("keys, inputs, where", [
        ("ki", "x", None),
        ("kf", "c", PRUNING),
        ("kb", "v", None),
        ("k1", "r", PRUNING),
        ("k3", "x", None),
        ("kt", "v", PRUNING),
        ("kr", "c", None),
        ("kbig, kf", "r", PRUNING),  # never one float matrix
        ("kbig", "xc", None),
        ("kt, k1", "vr", PRUNING),
    ])
    def test_every_key_kind_matches_the_row_path_exactly(
        self, gds, keys, inputs, where, monkeypatch
    ):
        """At the default budget (one window) and at 1000-row windows,
        whose partials merge across three."""
        ds, _cols = gds
        aggs = ", ".join(
            f"{agg}({col}) AS {agg.lower()}_{col}"
            for col in inputs for agg in _AGGS
        )
        q = (f"SELECT {keys}, COUNT() AS n, {aggs}"
             + (f" WHERE {where}" if where else "") + f" GROUP BY {keys}")
        ex = _executor(ds, q)
        fast = ex.run(q)
        assert bool(ex.chunks_skipped) == bool(where)
        assert len(fast) > 1
        slow = ds.query(q, optimize=False)
        _identical(fast, slow)
        _identical(_windowed(monkeypatch, ds, q), slow)

    def test_nan_keys_are_singleton_groups_and_signed_zeros_share_one(
        self, monkeypatch
    ):
        """Hazard (a): the semantics comparing ``_group_key`` tuples gives
        — in both modes, within a batch and across batches."""
        k = [1.0, np.nan, 1.0, np.nan, -0.0, 0.0]
        ds = repro.empty(MemoryProvider("nankeys"), overwrite=True)
        _bare(ds, "k", dtype="float64")
        ds.extend({"k": [np.float64(v) for v in k]})
        ds.flush()
        q = "SELECT k, COUNT() AS n GROUP BY k"
        for window_rows in (1024, 4, 1):
            _window_rows(monkeypatch, ds, q, window_rows)
            for optimize in (True, False):
                out = ds.query(q, optimize=optimize)
                keys = out.k.numpy().ravel()
                assert out.n.numpy().ravel().tolist() == [2, 2, 1, 1]
                assert keys[0] == 0 and np.signbit(keys[0])  # first seen
                assert keys[1] == 1 and np.isnan(keys[2:]).all()

    def test_vector_shaped_keys_keep_their_ravel_tuples(self, gds):
        """Hazard (b): a ``(1,)`` / ``(d,)`` key column is factorised as
        columns, its key is still ``tuple(ravel(cell))``."""
        ds, cols = gds
        for name in ("k1", "k3"):
            q = f"SELECT {name}, COUNT() AS n GROUP BY {name}"
            ex = _executor(ds, q)
            rows = np.arange(1024)
            ex._fetch([name], rows)
            acc = kernels.GroupAccumulator(ex.plan.agg_projections)
            acc.add_batch(kernels.BatchEvaluator(ex, rows),
                          ex.plan.group_nodes)
            got = {key: vals["n"] for key, vals in acc.finalize()}
            want = {}
            for cell in cols[name][:1024]:
                key = (tuple(cell.tolist()),)
                if not np.isnan(cell).any():
                    want[key] = want.get(key, 0) + 1
            nan_free = {k: n for k, n in got.items()
                        if not any(np.isnan(x) for x in k[0])}
            assert nan_free == want
            nan_rows = int(np.isnan(cols[name][:1024]).any(axis=1).sum())
            assert len(got) - len(nan_free) == nan_rows  # singletons

    def test_partials_merge_across_batches(self, gds, monkeypatch):
        """Hazard (c): groups seen by one window only, and groups whose
        rows come from all three, against numpy over the columns."""
        ds, cols = gds
        out = _windowed(monkeypatch, ds,
                        "SELECT ki, COUNT() AS n, MEAN(x) AS m, SUM(c) AS s "
                        "GROUP BY ki", rows=1024)
        ki, x, c = cols["ki"], cols["x"], cols["c"]
        assert not (ki[1024:] == 5).any() and not (ki[:2048] == 6).any()
        assert out.ki.numpy().ravel().tolist() == list(range(7))
        for k in range(7):
            members = ki == k
            assert out.n[k].numpy()[()] == members.sum()
            assert out.m[k].numpy()[()] == np.mean(x[members])
            assert out.s[k].numpy()[()] == float(np.sum(c[members]))

    def test_int64_keys_above_2_53_stay_exact(self, gds):
        """Hazard (d): neighbours 2^62 + {0..4} are one float64."""
        ds, cols = gds
        assert len(set(cols["kbig"].astype(np.float64))) == 1
        out = ds.query("SELECT kbig, COUNT() AS n GROUP BY kbig")
        values, counts = np.unique(cols["kbig"], return_counts=True)
        assert out.kbig.numpy().ravel().tolist() == values.tolist()
        assert out.kbig.meta.dtype == "int64"
        assert out.n.numpy().ravel().tolist() == counts.tolist()

    def test_float32_inputs_reduce_in_float32(self, gds):
        """Hazard (e): MEAN over float32 cells is the float32 mean of the
        float32 row means, as the registered aggregate computes it."""
        ds, cols = gds
        out = ds.query("SELECT kb, MEAN(v) AS m, SUM(v) AS s GROUP BY kb")
        for i, flag in enumerate((False, True)):
            v = cols["v"][cols["kb"] == flag]
            means, sums = v.mean(axis=1), v.sum(axis=1)
            assert means.dtype == np.float32
            assert out.m[i].numpy()[()] == float(np.mean(means))
            assert out.s[i].numpy()[()] == float(np.sum(sums))
            assert float(np.mean(means)) != float(
                np.mean(means.astype(np.float64)))

    @pytest.mark.parametrize("q", [
        "SELECT ki, COUNT() AS n, MEAN(x) AS m WHERE pos < 0 GROUP BY ki",
        "SELECT * WHERE pos < 0 ORDER BY x DESC, kt",
        "SELECT x WHERE pos < 0 ORDER BY v",
    ])
    def test_empty_result_is_the_empty_dataset(self, gds, q):
        """Hazard (f): no row survives WHERE."""
        ds, _cols = gds
        fast, slow = ds.query(q), ds.query(q, optimize=False)
        assert len(fast) == len(slow) == 0
        assert fast._meta.visible_tensors == slow._meta.visible_tensors

    def test_python_runs_per_group_per_batch_not_per_row(
        self, gds, monkeypatch
    ):
        ds, _cols = gds
        calls = {"key": 0, "agg": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        group_key = counted("key", kernels._group_key)
        monkeypatch.setattr(kernels, "_group_key", group_key)
        monkeypatch.setattr(executor_mod, "_group_key", group_key)
        monkeypatch.setattr(kernels, "get_agg_function",
                            counted("agg", kernels.get_agg_function))
        row_reducers = []
        for name in ("MEAN", "SUM", "MIN", "MAX", "STD"):
            monkeypatch.setitem(
                tql_functions.AGG_FUNCTIONS, name,
                lambda values, name=name: row_reducers.append(name))
        q = ("SELECT ki, COUNT() AS n, MEAN(x) AS m, STD(v) AS s, "
             "MAX(c) AS hi GROUP BY ki")
        out = ds.query(q)
        groups, batches = 7, 3
        assert len(out) == groups
        assert 0 < calls["key"] <= groups * batches
        assert calls["agg"] <= groups * batches
        assert row_reducers == []  # the numpy reducer, once per group

    def test_custom_aggregate_still_receives_raw_row_values(self, gds):
        ds, cols = gds
        seen = []

        @tql_functions.agg_function("SPAN")
        def _span(values):
            seen.append(values)
            return float(max(np.max(v) for v in values)
                         - min(np.min(v) for v in values))

        try:
            q = "SELECT kb, SPAN(v) AS span, COUNT() AS n GROUP BY kb"
            fast = ds.query(q)
            raw, seen = seen, []
            _identical(fast, ds.query(q, optimize=False))
        finally:
            del tql_functions.AGG_FUNCTIONS["SPAN"]
        for flag, values, oracle in zip((False, True), raw, seen):
            want = cols["v"][cols["kb"] == flag]
            assert len(values) == len(oracle) == len(want)
            assert all(isinstance(v, np.ndarray) and v.shape == (3,)
                       for v in values)
            assert np.array_equal(np.stack(values), want)

    def test_kernel_seconds_observed_once_per_batch(self, gds, monkeypatch):
        ds, _cols = gds
        q = ("SELECT ki, COUNT() AS n, MEAN(x) AS m WHERE pos >= 0 "
             "GROUP BY ki")
        for window_rows, windows in ((None, 1), (1024, 3)):
            if window_rows:
                _window_rows(monkeypatch, ds, q, window_rows)
            ex = _executor(ds, q)
            before = ex._h_kernel.count
            ex.run(q)
            # one observation per window: its mask and its partials
            assert ex._h_kernel.count - before == windows


def _reference_order(keys, ascending):
    """The token sort, written as the loop it replaces: stable, and
    stable within equal keys when descending."""
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    if ascending:
        return order
    out, i = [], len(order)
    while i > 0:  # walk runs of equal keys from the top
        j = i
        while j > 0 and keys[order[j - 1]] == keys[order[i - 1]]:
            j -= 1
        out.extend(order[j:i])
        i = j
    return out


class TestOrderByArrayProgram:
    @pytest.mark.parametrize("q", [
        "SELECT * ORDER BY ki DESC, x",
        "SELECT * WHERE pos >= 1500 ORDER BY kb, c DESC",
        "SELECT * ORDER BY kbig DESC, k1",
        "SELECT * ORDER BY v DESC",            # n-d cells: by their mean
        "SELECT * ORDER BY k3[0:2], kt DESC",
        "SELECT * WHERE x > 0 ORDER BY kt, ki DESC",  # token path
        "SELECT * ORDER BY r",                 # ragged: token path
        "SELECT * ORDER BY x DESC ARRANGE BY ki",
        "SELECT * ORDER BY ki LIMIT 40 OFFSET 1000",
    ])
    def test_order_matches_the_row_path_row_for_row(self, gds, q,
                                                    monkeypatch):
        """At the default budget (one window) and at 1000-row windows,
        whose key columns concatenate across three."""
        ds, _cols = gds
        fast = ds.query(q)
        slow = list(ds.query(q, optimize=False).index.entries[0])
        assert len(fast) > 0
        assert list(fast.index.entries[0]) == slow
        assert list(_windowed(monkeypatch, ds, q).index.entries[0]) == slow

    def test_ties_keep_source_order_in_both_directions(self, gds):
        ds, cols = gds
        ki = cols["ki"].tolist()
        for direction, ascending in (("", True), (" DESC", False)):
            out = ds.query(f"SELECT * ORDER BY ki{direction}")
            assert list(out.index.entries[0]) == _reference_order(
                ki, ascending)

    def test_int64_sort_keys_above_2_53_stay_exact(self, gds):
        ds, cols = gds
        out = ds.query("SELECT * ORDER BY kbig")
        assert list(out.index.entries[0]) == np.argsort(
            cols["kbig"], kind="stable").tolist()
        assert isinstance(out.index.entries[0][0], int)

    def test_numeric_keys_never_build_sort_tokens(self, gds, monkeypatch):
        ds, _cols = gds

        def token(value):
            raise AssertionError(f"sort token for {value!r}")

        monkeypatch.setattr(executor_mod, "_sort_token", token)
        for q in ("SELECT * ORDER BY x DESC, ki", "SELECT * ORDER BY v",
                  "SELECT * WHERE pos >= 1500 ORDER BY kb ARRANGE BY k1"):
            assert len(ds.query(q)) > 0
        with pytest.raises(AssertionError, match="sort token"):
            ds.query("SELECT * ORDER BY kt")

    @pytest.mark.parametrize("ascending", [True, False])
    def test_stable_argsort_against_the_loop_it_replaces(self, ascending):
        gen = np.random.default_rng(7)
        columns = [
            gen.integers(0, 6, 500),
            gen.integers(0, 3, 500).astype(bool),
            gen.choice([-0.0, 0.0, 1.5, -3.0], 500),
            (2 ** 60 + gen.integers(0, 3, 500)).astype(np.int64),
            gen.integers(0, 4, 500).astype(np.float32),
        ]
        for col in columns:
            want = _reference_order(col.tolist(), ascending)
            assert executor_mod._stable_argsort(
                col, ascending).tolist() == want
            assert executor_mod._stable_argsort(
                list(col), ascending).tolist() == want  # row mode's list
        words = [["b", "a", "", "b", "c"][i] for i in gen.integers(0, 5, 200)]
        assert executor_mod._stable_argsort(
            words, ascending).tolist() == _reference_order(words, ascending)
        cells = gen.integers(0, 3, (300, 2, 2)).astype(np.float32)
        means = [float(np.mean(c)) for c in cells]
        assert executor_mod._stable_argsort(
            cells, ascending).tolist() == _reference_order(means, ascending)
        empty = np.zeros((4, 0))
        assert executor_mod._stable_argsort(
            empty, ascending).tolist() == [0, 1, 2, 3]
