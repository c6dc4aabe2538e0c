"""TQL planner + executor: semantics over real datasets."""

import numpy as np
import pytest

import repro
from repro.exceptions import TQLNameError, TQLTypeError
from repro.storage import MemoryProvider
from repro.tql import parse
from repro.tql.planner import ColumnNode, ConstNode, ShapeNode, build_plan


@pytest.fixture
def qds(rng):
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="png")
    ds.create_tensor("boxes", htype="bbox")
    ds.create_tensor("labels", htype="class_label",
                     class_names=["car", "person", "bike"])
    ds.create_tensor("score", dtype="float64")
    ds.create_tensor("caption", htype="text")
    ds.create_group("training")
    ds.create_tensor("training/boxes", htype="bbox")
    for i in range(30):
        h = 40 + (i % 4) * 10
        gt = np.array([10.0 + i, 20.0, 30.0, 40.0], dtype=np.float32)
        pred = gt + (1.0 if i % 2 == 0 else 25.0)
        ds.append({
            "images": rng.integers(0, 255, (h, 40, 3), dtype=np.uint8),
            "boxes": pred,
            "labels": np.int32(i % 3),
            "score": np.float64(i / 30),
            "caption": f"sample number {i}",
            "training/boxes": gt,
        })
    return ds


class TestPlanner:
    def test_cse_shares_nodes(self, qds):
        ast = parse(
            'SELECT * WHERE IOU(boxes, "training/boxes") > 0.5 '
            'ORDER BY IOU(boxes, "training/boxes")'
        )
        plan = build_plan(qds, ast)
        iou_nodes = [n for n in plan.graph.nodes if n.key.startswith("IOU")]
        assert len(iou_nodes) == 1

    def test_constant_folding(self, qds):
        plan = build_plan(qds, parse("SELECT * WHERE score > 1 + 2 * 3"))
        consts = [n for n in plan.graph.nodes if isinstance(n, ConstNode)]
        assert any(n.value == 7 for n in consts)

    def test_folding_disabled_without_optimize(self, qds):
        plan = build_plan(qds, parse("SELECT * WHERE score > 1 + 2"),
                          optimize=False)
        consts = [n for n in plan.graph.nodes if isinstance(n, ConstNode)]
        assert not any(getattr(n, "value", None) == 3 for n in consts)

    def test_shape_rewritten_to_hidden_tensor(self, qds):
        plan = build_plan(qds, parse("SELECT * WHERE SHAPE(images)[0] > 50"))
        assert any(isinstance(n, ShapeNode) for n in plan.graph.nodes)

    def test_quoted_string_resolves_to_tensor(self, qds):
        plan = build_plan(qds, parse('SELECT "training/boxes"'))
        cols = [n.tensor for n in plan.graph.nodes
                if isinstance(n, ColumnNode)]
        assert "training/boxes" in cols

    def test_unknown_column(self, qds):
        with pytest.raises(TQLNameError):
            build_plan(qds, parse("SELECT nonexistent"))

    def test_unknown_class_name(self, qds):
        with pytest.raises(TQLNameError):
            qds.query("SELECT * WHERE labels == 'helicopter'")

    def test_filter_columns_pushdown(self, qds):
        plan = build_plan(
            qds, parse("SELECT images WHERE score > 0.5")
        )
        assert plan.filter_columns() == ["score"]

    def test_group_by_requires_aggregates(self, qds):
        with pytest.raises(TQLTypeError):
            build_plan(qds, parse("SELECT score GROUP BY labels"))


class TestExecutor:
    def test_where_filters(self, qds):
        out = qds.query("SELECT * WHERE score >= 0.5")
        assert len(out) == 15

    def test_label_sugar(self, qds):
        out = qds.query("SELECT * WHERE labels == 'person'")
        assert len(out) == 10
        assert all(int(v) == 1 for v in np.ravel(out.labels.numpy()))

    def test_text_contains(self, qds):
        out = qds.query("SELECT * WHERE caption CONTAINS '7'")
        assert len(out) == 3  # 7, 17, 27

    def test_order_by_descending(self, qds):
        out = qds.query("SELECT * ORDER BY score DESC LIMIT 3")
        scores = [float(out.score[i].numpy()[()]) for i in range(3)]
        assert scores == sorted(scores, reverse=True)

    def test_order_stability_and_arrange(self, qds):
        out = qds.query("SELECT * ORDER BY score ARRANGE BY labels")
        labels = [int(v) for v in np.ravel(out.labels.numpy())]
        assert labels == sorted(labels)  # grouped by label
        per_label_scores = {}
        for i in range(len(out)):
            per_label_scores.setdefault(labels[i], []).append(
                float(out.score[i].numpy()[()])
            )
        for scores in per_label_scores.values():
            assert scores == sorted(scores)  # ORDER BY kept inside groups

    def test_limit_offset(self, qds):
        out = qds.query("SELECT * LIMIT 5 OFFSET 10")
        assert [float(v) for v in np.ravel(out.score.numpy())] == [
            pytest.approx((10 + i) / 30) for i in range(5)
        ]

    def test_projection_view_restricts_tensors(self, qds):
        out = qds.query("SELECT images, labels WHERE score > 0.9")
        assert sorted(out.tensors) == ["images", "labels"]

    def test_computed_projection_materializes(self, qds):
        out = qds.query("SELECT MEAN(boxes) AS mb LIMIT 4")
        assert sorted(out.tensors) == ["mb"]
        assert len(out) == 4
        expected = float(np.mean(qds.boxes[0].numpy()))
        assert float(out["mb"][0].numpy()[()]) == pytest.approx(expected)

    def test_slicing_projection(self, qds):
        out = qds.query("SELECT images[0:10, 0:10] AS patch LIMIT 2")
        assert out["patch"][0].numpy().shape == (10, 10, 3)

    def test_group_by_counts(self, qds):
        out = qds.query("SELECT labels, COUNT() AS n GROUP BY labels")
        assert len(out) == 3
        assert sum(int(out["n"][i].numpy()[()]) for i in range(3)) == 30

    def test_group_by_aggregates(self, qds):
        out = qds.query(
            "SELECT labels, MEAN(score) AS ms, MAX(score) AS top "
            "GROUP BY labels"
        )
        tops = [float(out["top"][i].numpy()[()]) for i in range(3)]
        assert max(tops) == pytest.approx(29 / 30)

    def test_sample_by_weights(self, qds):
        out = qds.query(
            "SELECT * SAMPLE BY (labels == 'car') * 100 + 1 LIMIT 60",
            seed=0,
        )
        labels = [int(v) for v in np.ravel(out.labels.numpy())]
        assert sum(1 for v in labels if v == 0) > 45

    def test_sample_without_replacement(self, qds):
        out = qds.query("SELECT * SAMPLE BY 1 REPLACE FALSE LIMIT 30", seed=1)
        ids = out.index.row_indices(30)
        assert len(set(ids)) == 30

    def test_random_seeded(self, qds):
        a = qds.query("SELECT * WHERE RANDOM() > 0.5", seed=5)
        b = qds.query("SELECT * WHERE RANDOM() > 0.5", seed=5)
        assert a.index.row_indices(30) == b.index.row_indices(30)

    def test_version_time_travel(self, qds):
        cid = qds.commit("thirty rows")
        qds.append({
            "images": np.zeros((40, 40, 3), dtype=np.uint8),
            "boxes": np.zeros(4, dtype=np.float32),
            "labels": np.int32(0),
            "score": np.float64(1.0),
            "caption": "new",
            "training/boxes": np.zeros(4, dtype=np.float32),
        })
        old = qds.query(f'SELECT * VERSION "{cid}"')
        assert len(old) == 30
        assert len(qds.query("SELECT *")) == 31

    def test_query_on_view_composes(self, qds):
        view = qds[0:10]
        out = view.query("SELECT * WHERE score >= 0.2")
        # rows 6..9 of the first ten
        assert len(out) == 4

    def test_empty_result(self, qds):
        out = qds.query("SELECT * WHERE score > 99")
        assert len(out) == 0

    def test_lineage_recorded(self, qds):
        q = "SELECT MEAN(score) AS m GROUP BY labels"
        out = qds.query(q)
        assert out._meta.info["source_query"] == q
        assert out._meta.info["source_commit"] == qds.commit_id

    def test_pushdown_equivalence(self, qds):
        q = ('SELECT MEAN(boxes) AS mb WHERE '
             'IOU(boxes, "training/boxes") > 0.5 ORDER BY score DESC')
        fast = qds.query(q, optimize=True)
        slow = qds.query(q, optimize=False)
        assert len(fast) == len(slow)
        for i in range(len(fast)):
            assert float(fast["mb"][i].numpy()[()]) == pytest.approx(
                float(slow["mb"][i].numpy()[()])
            )

    def test_pushdown_reduces_cells_fetched(self, qds):
        from repro.tql import Executor, build_plan, parse as p

        q = 'SELECT MEAN(images) AS mi WHERE score > 0.9'
        ast = p(q)
        fast = Executor(qds, build_plan(qds, ast, optimize=True), seed=0)
        fast.run(q)
        slow = Executor(qds, build_plan(qds, ast, optimize=False), seed=0)
        slow.run(q)
        assert fast.cells_fetched < slow.cells_fetched

    def test_arithmetic_and_in(self, qds):
        out = qds.query("SELECT * WHERE (labels + 1) IN [1, 3]")
        labels = {int(v) for v in np.ravel(out.labels.numpy())}
        assert labels == {0, 2}


class TestResultDatasets:
    """A materialized result is its own in-memory dataset: declared as
    columns, written once, alive exactly as long as the caller holds it."""

    GROUPS = "SELECT labels, COUNT() AS n, MEAN(score) AS m GROUP BY labels"

    def test_results_never_share_a_store(self, qds):
        held = qds.query(self.GROUPS)
        later = [qds.query("SELECT score * 2 AS s WHERE score > 0.5")
                 for _ in range(20)]
        assert len({id(r.storage) for r in [held, *later]}) == 21
        reread = repro.load(held.storage)
        assert len(reread) == 3
        assert [int(v) for v in np.ravel(reread["n"].numpy())] == [10] * 3

    def test_dropped_results_leave_no_store_behind(self, qds):
        import gc

        from repro.storage import router

        before = set(router._MEM)
        for _ in range(5):
            qds.query(self.GROUPS)
            qds.query("SELECT score * 2 AS s WHERE score > 0.5")
        gc.collect()
        assert not [k for k in set(router._MEM) - before
                    if k.startswith("tql-")]

    def test_group_by_result_is_one_flush(self, qds, monkeypatch):
        flushed = []
        flush = repro.Dataset.flush

        def counting(self):
            flushed.append(self.storage)
            return flush(self)

        monkeypatch.setattr(repro.Dataset, "flush", counting)
        out = qds.query(self.GROUPS)
        assert [s for s in flushed if s is out.storage] == [out.storage]

    @pytest.mark.parametrize("optimize", [True, False])
    def test_result_columns_keep_dtypes_and_values(self, qds, optimize):
        out = qds.query(self.GROUPS, optimize=optimize)
        assert out._meta.info["source_query"] == self.GROUPS
        dtypes = {name: out._engine(name).meta.dtype
                  for name in ("labels", "n", "m")}
        assert dtypes == {"labels": "int32", "n": "int64", "m": "float64"}
        assert np.ravel(out["labels"].numpy()).tolist() == [0, 1, 2]
        assert np.ravel(out["m"].numpy()).tolist() == pytest.approx([
            np.mean([i / 30 for i in range(k, 30, 3)]) for k in range(3)
        ])
        q = "SELECT labels * score AS p, caption AS c WHERE score > 0.8"
        mixed = qds.query(q, optimize=optimize)
        assert mixed._engine("p").meta.dtype == "float64"
        assert mixed._engine("c").meta.htype == "text"
        assert np.ravel(mixed["p"].numpy()).tolist() == pytest.approx([
            (i % 3) * (i / 30) for i in range(25, 30)
        ])
