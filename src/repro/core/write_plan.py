"""WritePlan: a staged batch of appends, the write mirror of ReadPlan.

An append is two steps.  Staging (``ChunkEngine.stage_appends``) runs
every fallible step — coercion, validation, sample compression — without
touching engine state, and leaves a :class:`WritePlan`.  Committing
(``ChunkEngine.commit_appends``) moves the plan into chunks under the
engine lock, with a truncation snapshot to roll back to.

The plan is a column, whatever the batch: every payload back to back in
one buffer, with its end offset and its shape.  A dense batch (see
:func:`dense_column`) is staged as one array and its buffer is that
array's bytes, so neither step does Python work per row.  The commit
walks the column in *runs*, the payloads that go into one chunk
(:meth:`WritePlan.run_end`): one bulk append, one stats widening, one
encoder registration per chunk.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np


def dense_column(meta, values) -> Optional[np.ndarray]:
    """*values* as one ``(n, *cell)`` array when the tensor of *meta*
    stores raw arrays (no sample codec, not a link, text or json) and
    :func:`uniform_column` finds one.  ``None`` when they are not: the
    batch stages value by value."""
    if meta.sample_compression or meta.is_link or meta.is_text or meta.is_json:
        return None
    return uniform_column(values)


def uniform_column(values) -> Optional[np.ndarray]:
    """*values* as one ``(n, *cell)`` numeric array when every value is an
    array or a number of one dtype and one shape — so that converting the
    column is converting each value — else ``None``."""
    if isinstance(values, np.ndarray):  # its rows would be native
        dtype = values.dtype
        ok = values.ndim and dtype.kind in "biuf" and dtype.isnative
        return values if ok else None
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is np.ndarray:
        if len({(v.dtype, v.shape) for v in values}) != 1:
            return None
    elif kind not in (bool, int, float) and not (
        isinstance(kind, type) and issubclass(kind, (np.number, np.bool_))
    ):
        return None
    column = np.asarray(values)
    # python ints past int64 widen the column, but not the first value
    if column.dtype.kind not in "biuf" or (
        column.dtype != np.asarray(values[0]).dtype
    ):
        return None
    return column


def value_bounds(arr: np.ndarray) -> Optional[Tuple]:
    """``(min, max)`` of *arr*'s elements as Python scalars, NaN ignored,
    or ``None`` when there is none (empty, or all NaN).  A NaN satisfies
    no interval the planner prunes by, so leaving it out keeps pruning
    sound, and the bounds do not depend on where in a chunk a NaN row
    arrives."""
    if not arr.size:
        return None
    lo, hi = np.fmin.reduce(arr, axis=None), np.fmax.reduce(arr, axis=None)
    if lo != lo:  # all NaN
        return None
    return lo.item(), hi.item()


class WritePlan:
    """Staged payloads awaiting an atomic commit.

    Payload ``i`` is ``raw[ends[i-1]:ends[i]]`` with shape ``shapes[i]``.
    A dense plan also keeps ``column``, the ``(n, *cell)`` array ``raw``
    is the bytes of, and ``cell``; any other keeps ``arrs``, each
    payload's decoded array (``None`` for a pre-encoded
    :class:`~repro.core.sample.Sample`), and ``values``, the rows as
    given.  A sequence plan's payloads are its items, and ``lengths`` the
    items of each row.
    """

    __slots__ = ("tensor", "raw", "ends", "shapes", "cell", "column",
                 "arrs", "values", "lengths")

    def __init__(self, tensor: str):
        self.tensor = tensor
        self.raw = b""
        self.ends = np.zeros(0, dtype=np.int64)
        self.shapes: List[Tuple[int, ...]] = []
        self.cell: Optional[Tuple[int, ...]] = None
        self.column: Optional[np.ndarray] = None
        self.arrs: Sequence[Optional[np.ndarray]] = ()
        self.values: Sequence = ()
        self.lengths: Optional[List[int]] = None

    def set_column(self, column: np.ndarray) -> None:
        """Stage a dense batch: one ``tobytes``, one shape for all."""
        n = len(column)
        self.column, self.cell = column, tuple(column.shape[1:])
        self.shapes = [self.cell] * n
        self.raw = np.ascontiguousarray(column).tobytes()
        self.ends = np.arange(1, n + 1, dtype=np.int64) * (len(self.raw) // n)

    def set_payloads(self, payloads: List[Tuple]) -> None:
        """Stage ``(raw, shape, arr)`` payloads, one per row or item."""
        if payloads:
            raws, self.shapes, self.arrs = map(list, zip(*payloads))
            self.raw = b"".join(raws)
            self.ends = np.cumsum(list(map(len, raws)), dtype=np.int64)

    @property
    def num_rows(self) -> int:
        return len(self.shapes if self.lengths is None else self.lengths)

    @property
    def num_bytes(self) -> int:
        return len(self.raw)

    def start(self, i: int) -> int:
        return int(self.ends[i - 1]) if i else 0

    def _size(self) -> int:
        """The one payload size of a dense plan."""
        return len(self.raw) // len(self.ends)

    def oversize(self, max_size: int) -> Set[int]:
        """Which payloads are larger than *max_size* bytes (all or none
        of a dense plan's)."""
        if self.cell is not None:
            big = self._size() > max_size
            return set(range(len(self.ends))) if big else set()
        sizes = np.diff(self.ends, prepend=0)
        return set(np.flatnonzero(sizes > max_size).tolist())

    def stops(self, tiled: Set[int]) -> List[int]:
        """The payloads a run ends before, whatever room is left,
        ascending: a tiled one, the one after it, and a change of rank
        (a dense plan has one rank)."""
        stops = tiled.union(i + 1 for i in tiled)
        if self.cell is None:
            ranks = np.fromiter(map(len, self.shapes), np.int64,
                                len(self.shapes))
            changes = np.flatnonzero(ranks[1:] != ranks[:-1]) + 1
            stops.update(changes.tolist())
        return sorted(stops)

    def run_end(self, i: int, room: int, stops: List[int]) -> int:
        """The end of the run from payload *i* into a chunk with *room*
        bytes left: the payloads that fit, up to the next stop — and
        payload *i* whatever its size (a chunk it opens takes it)."""
        size = self._size() if self.cell is not None else 0
        if size:  # payload k ends at (k + 1) * size
            fit = i + room // size
        else:
            fit = int(np.searchsorted(self.ends, room + self.start(i),
                                      side="right"))
        at = bisect.bisect_right(stops, i)
        stop = stops[at] if at < len(stops) else len(self.ends)
        return min(max(i + 1, fit), stop)

    def payloads(self, i: int, j: int):
        """``(data, ends, shapes)`` of payloads ``[i, j)`` for
        :meth:`Chunk.extend`."""
        base = self.start(i)
        data = memoryview(self.raw)[base:int(self.ends[j - 1])]
        return data, self.ends[i:j] - base, self.shapes[i:j]

    def extremes(self, i: int, j: int) -> Optional[np.ndarray]:
        """An array whose NaN-free min and max are those of payloads
        ``[i, j)`` — the dense column itself, else each payload's own
        extremes (no copy of a run of images) — or ``None`` when one was
        not decoded."""
        if self.column is not None:
            return self.column[i:j]
        arrs = self.arrs[i:j]
        if any(arr is None for arr in arrs):
            return None
        return np.array([
            ext for arr in arrs if arr.size
            for ext in (np.fmin.reduce(arr, axis=None),
                        np.fmax.reduce(arr, axis=None))
        ])

    def sample(self, i: int) -> np.ndarray:
        """Payload *i* as an array (a tiled row is split from it)."""
        if self.column is not None:
            return self.column[i]
        arr = self.arrs[i]
        return self.values[i].array if arr is None else arr

    def shape_bounds(self, i: int, j: int) -> Tuple[Tuple[int, ...], ...]:
        """Per-dimension ``(lower, upper)`` shapes of payloads ``[i, j)``,
        which share one rank."""
        if self.cell is not None:
            return self.cell, self.cell
        shapes = np.asarray(self.shapes[i:j], dtype=np.int64)
        return tuple(shapes.min(0).tolist()), tuple(shapes.max(0).tolist())

    def __repr__(self) -> str:
        return (
            f"WritePlan(tensor={self.tensor!r}, rows={self.num_rows}, "
            f"bytes={self.num_bytes})"
        )
