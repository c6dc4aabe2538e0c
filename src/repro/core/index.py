"""Index algebra for dataset/tensor views.

A view of a dataset or tensor is described by an :class:`Index`: the first
entry selects samples (rows), later entries are applied to each sample
array (numpy-style sub-indexing like the TQL ``images[100:500, ...]``).
Indices compose: ``ds[10:20][3]`` resolves to sample 13.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.read_plan import as_row_array, normalize_rows
from repro.exceptions import SampleIndexError


class Index:
    """Composable numpy-style index; entry 0 selects samples."""

    def __init__(self, entries: Optional[Sequence] = None):
        self.entries: List = list(entries) if entries is not None else [slice(None)]
        if not self.entries:
            self.entries = [slice(None)]

    # ------------------------------------------------------------------ #

    @property
    def is_single_sample(self) -> bool:
        return isinstance(self.entries[0], int)

    @property
    def sub_entries(self) -> Tuple:
        """Entries applied inside each sample array."""
        return tuple(self.entries[1:])

    def row_indices(self, length: int) -> List[int]:
        """Materialise the sample selection against a tensor of *length*."""
        rows = self.row_sequence(length)
        return list(rows) if isinstance(rows, range) else rows.tolist()

    def row_sequence(self, length: int) -> Sequence[int]:
        """The sample selection against a tensor of *length*, without
        materialisation where possible: a slice entry is a ``range`` (O(1)
        lookup and no allocation, so translating a handful of view rows
        against a huge tensor stays cheap), any other an int64 array (a
        negative row wraps once, one out of range raises
        :class:`SampleIndexError`)."""
        entry = self.entries[0]
        if isinstance(entry, slice):
            return range(*entry.indices(length))
        return normalize_rows([entry] if isinstance(entry, int) else entry,
                              length, "a tensor")

    def engine_rows(self, positions: Sequence[int], length: int) -> np.ndarray:
        """The view positions *positions* (a negative one wraps once) as
        rows of a tensor of *length*, by one array op that keeps ascending
        rows ascending; a position outside the view or not an integer
        raises :class:`SampleIndexError`."""
        base = self.row_sequence(length)
        pos = normalize_rows(positions, len(base), "a view")
        if isinstance(base, range):
            return base.start + pos * base.step
        return base[pos]

    def num_rows(self, length: int) -> int:
        return len(self.row_sequence(length))

    # ------------------------------------------------------------------ #

    def compose(self, item) -> "Index":
        """Return a new Index = self refined by *item*."""
        if isinstance(item, tuple):
            parts = list(item)
        else:
            parts = [item]
        entries = list(self.entries)
        consumed = 0
        # first part refines the row selection unless rows already scalar
        # (then it sub-indexes into the sample, numpy-style)
        if parts and not isinstance(entries[0], int):
            first = parts[0]
            base = entries[0]
            if isinstance(first, (bool, np.bool_)):
                raise SampleIndexError(
                    f"row index {first!r} is not an integer")
            if isinstance(first, (int, np.integer)):
                i = int(first)
                if isinstance(base, list):
                    entries[0] = base[normalize_rows([i], len(base),
                                                     "a view").item()]
                elif base == slice(None):
                    entries[0] = i  # negatives resolve against length later
                else:
                    entries[0] = _defer(base, i)
            elif isinstance(first, slice):
                if isinstance(base, list):
                    entries[0] = base[first]
                else:
                    entries[0] = _compose_slices(base, first)
            elif isinstance(first, (list, np.ndarray)):
                lst = as_row_array(np.ravel(first) if isinstance(
                    first, np.ndarray) else first).tolist()
                entries[0] = _compose_rows_with_list(base, lst)
            else:
                raise TypeError(f"bad index component: {first!r}")
            consumed = 1
        # remaining parts extend/refine sub-entries
        for part in parts[consumed:]:
            if isinstance(part, (int, np.integer)):
                entries.append(int(part))
            elif isinstance(part, (slice, list, np.ndarray)):
                entries.append(part)
            else:
                raise TypeError(f"bad index component: {part!r}")
        return Index(entries)

    def apply_sub(self, array: np.ndarray) -> np.ndarray:
        """Apply the intra-sample entries to a decoded sample array."""
        subs = self.sub_entries
        if not subs:
            return array
        return array[tuple(subs)]

    def to_json(self) -> dict:
        def enc(e):
            if isinstance(e, slice):
                return {"slice": [e.start, e.stop, e.step]}
            if isinstance(e, list):
                return {"list": e}
            return {"int": e}

        return {"entries": [enc(e) for e in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "Index":
        entries = []
        for e in obj.get("entries", []):
            if "slice" in e:
                s = e["slice"]
                entries.append(slice(s[0], s[1], s[2]))
            elif "list" in e:
                entries.append(list(e["list"]))
            else:
                entries.append(int(e["int"]))
        return cls(entries or None)

    def __repr__(self) -> str:
        return f"Index({self.entries!r})"


def _defer(base: slice, i: int):
    # index into a slice: resolve start/step arithmetic when possible
    start = base.start or 0
    step = base.step or 1
    if i >= 0 and start >= 0:
        row = start + i * step
        if step > 0 and base.stop is not None and 0 <= base.stop <= row:
            raise SampleIndexError(f"index {i} out of range for a view")
        return row
    raise IndexError("negative indexing into an unbounded slice view")


def _compose_slices(base: slice, new: slice) -> slice:
    """Compose base then new (both forward slices with step >= 1)."""
    bstart = base.start or 0
    bstep = base.step or 1
    nstart = new.start or 0
    nstep = new.step or 1
    if bstep < 1 or nstep < 1 or bstart < 0 or nstart < 0:
        raise ValueError("only forward non-negative slices compose lazily")
    start = bstart + nstart * bstep
    step = bstep * nstep
    stop = None
    if new.stop is not None:
        if new.stop >= 0:
            stop = bstart + new.stop * bstep
        else:
            raise ValueError("negative stop not supported in composition")
    if base.stop is not None:
        stop = base.stop if stop is None else min(stop, base.stop)
    return slice(start, stop, step)


def _compose_rows_with_list(base, lst: List[int]):
    if isinstance(base, slice):
        bstart = base.start or 0
        bstep = base.step or 1
        if base == slice(None):
            return lst
        if bstart >= 0 and bstep >= 1 and all(i >= 0 for i in lst):
            out = [bstart + i * bstep for i in lst]
            if base.stop is not None and any(i >= base.stop for i in out):
                raise IndexError("index out of slice bounds")
            return out
        raise ValueError("cannot compose list with negative slice lazily")
    return [base[i] for i in lst]
