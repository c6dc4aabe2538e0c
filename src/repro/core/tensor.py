"""User-facing Tensor: a typed, versioned, ragged column of a dataset.

A ``Tensor`` is a thin view object — name + composable index — over the
tensor's :class:`~repro.core.chunk_engine.ChunkEngine`.  Subscripting never
copies data; ``numpy()`` / ``data()`` materialise.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.index import Index
from repro.core.read_plan import column_rows
from repro.exceptions import FormatError
from repro.util.json_util import json_loads


class Tensor:
    """Handle to one tensor (column) of a dataset, possibly sliced."""

    def __init__(self, dataset, name: str, index: Optional[Index] = None):
        self.dataset = dataset
        self.name = name
        self.index = index if index is not None else dataset.index

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    @property
    def engine(self):
        return self.dataset._engine(self.name)

    @property
    def meta(self):
        return self.engine.meta

    @property
    def htype(self) -> str:
        return self.meta.full_htype

    @property
    def dtype(self) -> Optional[np.dtype]:
        return np.dtype(self.meta.dtype) if self.meta.dtype else None

    @property
    def info(self) -> dict:
        return self.meta.info

    @property
    def num_samples(self) -> int:
        """Row count of this view."""
        return self.index.num_rows(self.engine.num_samples)

    def __len__(self) -> int:
        return self.num_samples

    @property
    def is_dynamic(self) -> bool:
        return not self.meta.shape_interval.is_uniform

    @property
    def shape(self) -> Tuple:
        """(rows, *sample dims) with None in dynamic dimensions."""
        return (self.num_samples, *self.meta.shape_interval.astuple())

    @property
    def shape_interval(self):
        return self.meta.shape_interval

    @property
    def sample_compression(self) -> Optional[str]:
        return self.meta.sample_compression

    @property
    def chunk_compression(self) -> Optional[str]:
        return self.meta.chunk_compression

    # ------------------------------------------------------------------ #
    # writes (delegated through the dataset for hidden-tensor sync)
    # ------------------------------------------------------------------ #

    def append(self, value) -> None:
        """Append one sample (array, Sample, LinkedSample, str for text...)."""
        self._check_full_view("append")
        self.dataset._extend_with_id(self.name, [value])

    def extend(self, values) -> None:
        """Append many samples as one staged batch: all values serialize
        before any is committed, so a bad sample aborts atomically."""
        self._check_full_view("extend")
        if not isinstance(values, np.ndarray):
            values = list(values)
        self.dataset._extend_with_id(self.name, values)

    def __setitem__(self, item, value) -> None:
        """``tensor[item] = value`` for an int, a slice or an int array of
        the view's rows, resolved as a read of ``tensor[item]`` resolves
        them; a slice or an array takes one value per row, written as one
        batch.  With ``strict=False`` an int past the end of a full tensor
        pads the tensor up to it first."""
        length = self.engine.num_samples
        if isinstance(item, slice):
            item = range(*item.indices(self.num_samples))
        elif not isinstance(item, (list, np.ndarray)):
            item, value = [item], [value]
            if (self.index.entries == [slice(None)]
                    and type(item[0]) is not bool
                    and isinstance(item[0], (int, np.integer))
                    and item[0] >= length):
                if self.dataset.strict:
                    raise FormatError(
                        f"index {item[0]} beyond length {length}; open the "
                        "dataset with strict=False for sparse assignment"
                    )
                length = int(item[0]) + 1
                self.dataset._pad_with_sync(self.name, length)
        self.dataset._update_with_sync(
            self.name, self.index.engine_rows(item, length), value)

    def _check_full_view(self, op: str) -> None:
        if self.index.entries != [slice(None)]:
            raise FormatError(f"cannot {op} through a sliced view")

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def __getitem__(self, item) -> "Tensor":
        return Tensor(self.dataset, self.name, self.index.compose(item))

    def numpy(self, aslist: bool = False):
        """Materialise the view.

        Scalar views return one array; row views return a stacked array
        when shapes are uniform, else a list (or always a list with
        ``aslist=True``).
        """
        engine = self.engine
        rows = self.index.row_indices(engine.num_samples)
        # one ReadPlan for the whole view: chunks fetched/decoded once
        column = engine.read(rows)
        subs = self.index.sub_entries
        if (isinstance(column, np.ndarray) and not aslist
                and not self.index.is_single_sample
                and all(isinstance(s, (int, slice)) for s in subs)):
            # a dense column is the stacked view: sub-index it whole
            return column[(slice(None), *subs)]
        samples = [
            self.index.apply_sub(s) if isinstance(s, np.ndarray) else s
            for s in column_rows(column)
        ]
        if self.index.is_single_sample:
            return samples[0]
        if aslist:
            return samples
        shapes = {
            s.shape if isinstance(s, np.ndarray) else None for s in samples
        }
        if samples and None not in shapes and len(shapes) == 1:
            return np.stack(samples)
        if not samples:
            dtype = self.dtype or np.dtype("float64")
            return np.empty((0,), dtype=dtype)
        return samples

    def data(self):
        """Decoded python value(s): str for text, object for json,
        arrays otherwise."""
        raw = self.numpy(aslist=True) if not self.index.is_single_sample else [
            self.numpy()
        ]
        if self.meta.is_text:
            out = [bytes(x.tobytes()).decode("utf-8") for x in raw]
        elif self.meta.is_json:
            out = [json_loads(bytes(x.tobytes())) for x in raw]
        else:
            out = raw
        return out[0] if self.index.is_single_sample else out

    def text(self) -> str:
        if not self.meta.is_text:
            raise FormatError(f"tensor {self.name!r} is not a text tensor")
        return self.data()

    def shapes(self) -> List[Tuple[int, ...]]:
        """Per-sample shapes of the view (no payload decode where possible,
        one header read per chunk)."""
        engine = self.engine
        return engine.shapes(self.index.row_indices(engine.num_samples))

    def sample_ids(self) -> Optional[List[int]]:
        """Stable ids of the view's rows (None if id tracking is off)."""
        id_name = self.meta.links.get("id")
        if not id_name:
            return None
        id_engine = self.dataset._engine(id_name)
        rows = self.index.row_indices(self.engine.num_samples)
        # a dense id column as it is; a list column holds 0-d rows
        return np.asarray(id_engine.read(rows)).tolist()

    # ------------------------------------------------------------------ #

    def rechunk(self) -> int:
        """Rewrite the tensor's chunks as one append of its rows would lay
        them out, and publish them with one flush."""
        self.dataset._check_writable()
        chunks = self.engine.rechunk()
        self.engine.flush()
        return chunks

    def summary(self) -> str:
        meta = self.meta
        return (
            f"{self.name:<24} htype={meta.full_htype:<18} "
            f"dtype={meta.dtype or '?':<8} shape={self.shape} "
            f"sc={meta.sample_compression or '-'} "
            f"cc={meta.chunk_compression or '-'}"
        )

    def __iter__(self):
        for i in range(self.num_samples):
            yield self[i]

    def __repr__(self) -> str:
        return (
            f"Tensor({self.name!r}, shape={self.shape}, "
            f"htype={self.htype!r})"
        )
