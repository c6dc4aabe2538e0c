"""Vector-search extension (§7.3 future work): IVF build, probe, recall."""

import numpy as np
import pytest

import repro
from repro.core.chunk_engine import ChunkEngine
from repro.experimental import (
    IVFIndex,
    VectorIndexError,
    build_ivf_index,
    exact_search,
    recall_at_k,
    search,
)
from repro.experimental.vector import _load_embeddings
from repro.storage import MemoryProvider


@pytest.fixture
def emb_ds(rng):
    """60 embeddings drawn around 4 well-separated centers."""
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("embedding", htype="embedding",
                     create_shape_tensor=False, create_id_tensor=False)
    centers = np.array(
        [[10, 0, 0, 0], [0, 10, 0, 0], [0, 0, 10, 0], [0, 0, 0, 10]],
        dtype=np.float32,
    )
    truth = []
    for i in range(60):
        c = i % 4
        vec = centers[c] + rng.normal(0, 0.3, 4).astype(np.float32)
        ds.embedding.append(vec.astype(np.float32))
        truth.append(c)
    ds.flush()
    return ds, centers, truth


class TestBuild:
    def test_index_persists_and_reloads(self, emb_ds):
        ds, _c, _t = emb_ds
        index = build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        assert index.num_clusters == 4
        loaded = IVFIndex.load(ds.storage, "embedding")
        assert loaded.num_clusters == 4
        assert np.allclose(loaded.centroids, index.centroids)
        assert loaded.order == index.order

    def test_cluster_ranges_partition_rows(self, emb_ds):
        ds, _c, _t = emb_ds
        index = build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        covered = []
        for lo, hi in index.cluster_ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(60))
        assert sorted(index.order) == list(range(60))

    def test_order_groups_by_cluster(self, emb_ds):
        ds, centers, truth = emb_ds
        index = build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        # rows within one cluster range should share a ground-truth center
        for lo, hi in index.cluster_ranges:
            rows = index.order[lo:hi]
            labels = {truth[r] for r in rows}
            assert len(labels) == 1

    def test_default_cluster_count(self, emb_ds):
        ds, _c, _t = emb_ds
        index = build_ivf_index(ds, "embedding", seed=0)
        assert index.num_clusters == int(np.sqrt(60))

    def test_empty_tensor_rejected(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("embedding", htype="embedding")
        with pytest.raises(VectorIndexError):
            build_ivf_index(ds, "embedding")

    def test_missing_index_load(self, emb_ds):
        ds, _c, _t = emb_ds
        with pytest.raises(VectorIndexError):
            IVFIndex.load(ds.storage, "other")


@pytest.fixture
def planned(monkeypatch):
    """Every ``ChunkEngine.plan_reads`` call's rows, in call order."""
    calls = []
    plan_reads = ChunkEngine.plan_reads

    def counted(engine, rows, *args, **kwargs):
        calls.append(list(rows))
        return plan_reads(engine, rows, *args, **kwargs)

    monkeypatch.setattr(ChunkEngine, "plan_reads", counted)
    return calls


class TestColumnReads:
    def test_building_the_index_plans_the_column_once(self, emb_ds, planned):
        ds, _c, _t = emb_ds
        build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        assert planned == [list(range(60))]

    def test_search_plans_each_probed_cluster_once(self, emb_ds, planned):
        ds, centers, _t = emb_ds
        index = build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        planned.clear()
        search(ds, centers[1], "embedding", k=5, nprobe=2, index=index)
        assert len(planned) == 2
        probed = {tuple(index.order[lo:hi]) for lo, hi in index.cluster_ranges}
        assert all(tuple(rows) in probed for rows in planned)

    def test_column_equals_the_rows_read_one_by_one(self, emb_ds):
        ds, _c, _t = emb_ds
        rows = np.stack([
            np.asarray(ds.embedding[i].numpy(), dtype=np.float32).ravel()
            for i in range(60)
        ])
        vectors = _load_embeddings(ds, "embedding")
        assert vectors.dtype == rows.dtype and vectors.shape == rows.shape
        assert vectors.tobytes() == rows.tobytes()


class TestSearch:
    def test_probe_finds_neighbors(self, emb_ds):
        ds, centers, truth = emb_ds
        build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        hits = search(ds, centers[2], "embedding", k=5, nprobe=1)
        assert len(hits) == 5
        assert all(truth[row] == 2 for row, _d in hits)
        dists = [d for _r, d in hits]
        assert dists == sorted(dists)

    def test_recall_against_exact(self, emb_ds, rng):
        ds, centers, _t = emb_ds
        build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        query = centers[1] + rng.normal(0, 0.2, 4).astype(np.float32)
        approx = search(ds, query, "embedding", k=8, nprobe=2)
        exact = exact_search(ds, query, "embedding", k=8)
        assert recall_at_k(approx, exact) >= 0.75

    def test_more_probes_more_recall(self, emb_ds, rng):
        ds, _centers, _t = emb_ds
        build_ivf_index(ds, "embedding", num_clusters=6, seed=0)
        # ambiguous query between clusters
        query = np.array([5, 5, 0, 0], dtype=np.float32)
        exact = exact_search(ds, query, "embedding", k=10)
        r1 = recall_at_k(search(ds, query, k=10, nprobe=1), exact)
        r_all = recall_at_k(search(ds, query, k=10, nprobe=6), exact)
        assert r_all >= r1
        assert r_all == 1.0  # probing everything == exact

    def test_cosine_metric(self, emb_ds):
        ds, centers, truth = emb_ds
        build_ivf_index(ds, "embedding", num_clusters=4, metric="cosine",
                        seed=0)
        hits = search(ds, centers[0] * 3.0, "embedding", k=4, nprobe=1)
        assert all(truth[row] == 0 for row, _d in hits)

    def test_dim_mismatch(self, emb_ds):
        ds, _c, _t = emb_ds
        build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        with pytest.raises(VectorIndexError):
            search(ds, np.zeros(7), "embedding")

    def test_bad_metric(self, emb_ds):
        ds, _c, _t = emb_ds
        with pytest.raises(VectorIndexError):
            build_ivf_index(ds, "embedding", metric="hamming")
        build_ivf_index(ds, "embedding", num_clusters=4, seed=0)


class TestCustomOrderingLayout:
    def test_materialized_reorder_is_cluster_contiguous(self, emb_ds):
        """§7.3's point: materializing ds[index.order] makes each probe a
        contiguous row range (hence contiguous chunks)."""
        ds, centers, truth = emb_ds
        index = build_ivf_index(ds, "embedding", num_clusters=4, seed=0)
        reordered = repro.copy(ds[index.order], MemoryProvider())
        new_truth = [truth[r] for r in index.order]
        for ci, (lo, hi) in enumerate(index.cluster_ranges):
            assert len({new_truth[i] for i in range(lo, hi)}) == 1
        # and the data moved with the permutation
        for new_row in (0, 30, 59):
            assert np.allclose(
                reordered.embedding[new_row].numpy(),
                ds.embedding[index.order[new_row]].numpy(),
            )
