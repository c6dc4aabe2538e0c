"""Compressed index maps of the Tensor Storage Format (§3.4).

``ChunkIdEncoder`` is the paper's "compressed index map that preserves the
sample index to chunk id mapping per tensor".  It is a two-column array of
``(chunk_id, cumulative_sample_count)`` rows — 16 bytes per *chunk*, not
per sample, which is how "a single chunk encoder can be scaled to billions
of images while maintaining a 150MB chunk encoder per 1PB tensor data".
Lookups are a binary search.  A sample tiled across k chunks occupies k
consecutive rows with the same cumulative count.

``SequenceEncoder`` maps sequence samples to flat item ranges,
``PadEncoder`` tracks indices materialised by sparse (out-of-bounds)
writes, and ``TileEncoder`` stores tiled samples' layouts.
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import FormatError, SampleIndexError
from repro.util.json_util import json_dumps, json_loads

_MAGIC = b"TSFE"


class ChunkIdEncoder:
    """sample index -> (chunk id, local index) compressed map."""

    def __init__(self):
        self._ids: List[int] = []  # chunk id per row
        self._cum: List[int] = []  # cumulative sample count per row
        self._base: Optional[np.ndarray] = None  # lazy search cache

    # -- construction ----------------------------------------------------

    @staticmethod
    def id_from_name(name: str) -> int:
        if len(name) != 16:
            raise FormatError(
                f"chunk names are 16 hex chars (uint64), got {name!r}"
            )
        return int(name, 16)

    @staticmethod
    def name_from_id(chunk_id: int) -> str:
        return f"{chunk_id:016x}"

    def register_chunk(self, chunk_id: int, n_samples: int = 0) -> None:
        """Open a new chunk holding *n_samples* (0 = will fill via
        :meth:`register_samples`)."""
        prev = self._cum[-1] if self._cum else 0
        self._ids.append(int(chunk_id))
        self._cum.append(prev + int(n_samples))
        self._base = None

    def register_samples(self, count: int) -> None:
        """Attribute *count* more samples to the most recent chunk."""
        if not self._cum:
            raise FormatError("no chunk registered yet")
        self._cum[-1] += int(count)
        self._base = None

    def register_tiled_sample(self, chunk_ids: List[int]) -> None:
        """One sample spanning several chunks: k rows, same cumulative."""
        prev = self._cum[-1] if self._cum else 0
        for cid in chunk_ids:
            self._ids.append(int(cid))
            self._cum.append(prev + 1)
        self._base = None

    # -- lookup ----------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return self._cum[-1] if self._cum else 0

    @property
    def num_rows(self) -> int:
        return len(self._ids)

    @property
    def num_chunks(self) -> int:
        return len(self._ids)

    def chunk_name(self, row: int) -> str:
        """Name of the chunk encoder row *row* points at."""
        return self.name_from_id(self._ids[row])

    def _bases(self) -> np.ndarray:
        """``[0] + cum``, so ``base[row]`` is the first sample of *row*.
        int64 on purpose: the stored column is uint64, and int64 mixed
        with uint64 promotes to float64 — inexact past 2**53."""
        if self._base is None:
            self._base = np.zeros(len(self._cum) + 1, dtype=np.int64)
            self._base[1:] = self._cum
        return self._base

    def translate_many(
        self, indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(encoder rows, local indices)`` of the samples *indices* — an
        int64 array in any order, every element in ``[0, num_samples)`` —
        resolved by ONE binary search per sample over the cumulative
        column.  A tiled sample resolves to the first of its rows."""
        base = self._bases()
        rows = np.searchsorted(base[1:], indices, side="right")
        return rows, indices - base[rows]

    def cut_runs(
        self, indices: np.ndarray
    ) -> Tuple[List[int], List[int], List[int]]:
        """``(encoder rows, run bounds, first samples)`` of the
        *non-decreasing* samples *indices* (int64, in range, non-empty):
        the samples of ``rows[i]`` are the positions ``[bounds[i],
        bounds[i + 1])`` of *indices*, their local indices those samples
        minus ``firsts[i]``.  The request is cut at the chunk boundaries
        it crosses — ONE binary search of those boundaries into
        *indices* — so the cost grows with the chunks touched, not with
        the samples.  A tiled sample resolves to the first of its rows."""
        cum, n = self._cum, len(indices)
        lo = bisect.bisect_right(cum, indices.item(0))
        hi = bisect.bisect_right(cum, indices.item(n - 1), lo)
        bounds = [0, n]
        if hi > lo:
            cuts = np.searchsorted(indices, self._bases()[lo + 1 : hi + 1])
            bounds[1:1] = cuts.tolist()
        rows, starts = [], []
        for row, start, end in zip(range(lo, hi + 1), bounds, bounds[1:]):
            if end > start:  # else no sample of *indices* is in *row*
                rows.append(row)
                starts.append(start)
        firsts = [cum[row - 1] if row else 0 for row in rows]
        return rows, starts + [n], firsts

    def locate(self, sample_index: int) -> Tuple[int, int]:
        """(encoder row, local index): the one-row :meth:`translate_many`."""
        n = self.num_samples
        if not 0 <= sample_index < n:
            raise SampleIndexError(
                f"sample {sample_index} out of range (length {n})"
            )
        rows, local = self.translate_many(
            np.asarray([sample_index], dtype=np.int64)
        )
        return int(rows[0]), int(local[0])

    def tile_chunk_ids(self, sample_index: int) -> List[int]:
        """All chunk ids of a (possibly tiled) sample, tile order."""
        row, _local = self.locate(sample_index)
        target = self._cum[row]
        base = self._cum[row - 1] if row > 0 else 0
        if target - base != 1:
            return [self._ids[row]]  # multi-sample chunk: never tiled
        ids = []
        r = row
        while r < len(self._cum) and self._cum[r] == target:
            ids.append(self._ids[r])
            r += 1
        return ids

    def chunk_ranges(self) -> List[Tuple[int, int, int]]:
        """(chunk_id, start_sample, end_sample) per row — feeds the
        chunk-aware shuffler and the transform scheduler's locality
        batching.  Tiled rows repeat the same 1-sample range."""
        out = []
        prev = 0
        for cid, cum in zip(self._ids, self._cum):
            out.append((cid, prev, int(cum)))
            prev = int(cum)
        return out

    def last_chunk_id(self) -> Optional[int]:
        return self._ids[-1] if self._ids else None

    def samples_in_last_chunk(self) -> int:
        if not self._cum:
            return 0
        prev = self._cum[-2] if len(self._cum) > 1 else 0
        return self._cum[-1] - prev

    # -- serialisation -----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Serialised size — the §3.4 scaling-claim metric."""
        return len(_MAGIC) + 4 + 16 * len(self._ids)

    def tobytes(self) -> bytes:
        arr = np.empty((len(self._ids), 2), dtype=np.uint64)
        if len(self._ids):
            arr[:, 0] = self._ids
            arr[:, 1] = self._cum
        return _MAGIC + struct.pack("<I", len(self._ids)) + arr.tobytes()

    @classmethod
    def frombytes(cls, data: bytes) -> "ChunkIdEncoder":
        data = bytes(data)
        if data[:4] != _MAGIC:
            raise FormatError("bad chunk-id encoder blob")
        (n,) = struct.unpack_from("<I", data, 4)
        arr = np.frombuffer(data, dtype=np.uint64, count=n * 2, offset=8)
        arr = arr.reshape(n, 2)
        enc = cls()
        enc._ids = arr[:, 0].tolist()
        enc._cum = arr[:, 1].tolist()
        return enc

    def __repr__(self) -> str:
        return (
            f"ChunkIdEncoder(chunks={self.num_chunks}, "
            f"samples={self.num_samples}, nbytes={self.nbytes})"
        )


class SequenceEncoder:
    """sequence sample index -> [start, end) range of flat items."""

    def __init__(self):
        self._cum: List[int] = []
        self._base: Optional[np.ndarray] = None  # lazy item_ranges() cache

    def register(self, n_items: int) -> None:
        prev = self._cum[-1] if self._cum else 0
        self._cum.append(prev + int(n_items))
        self._base = None

    @property
    def num_samples(self) -> int:
        return len(self._cum)

    @property
    def num_items(self) -> int:
        return self._cum[-1] if self._cum else 0

    def item_range(self, sample_index: int) -> Tuple[int, int]:
        if not 0 <= sample_index < len(self._cum):
            raise SampleIndexError(
                f"sequence sample {sample_index} out of range "
                f"({len(self._cum)})"
            )
        start = self._cum[sample_index - 1] if sample_index > 0 else 0
        return int(start), int(self._cum[sample_index])

    def item_ranges(
        self, indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of the flat item ranges of the samples
        *indices* (int64, every element in ``[0, num_samples)``)."""
        base = self._base
        if base is None:
            base = self._base = np.zeros(len(self._cum) + 1, dtype=np.int64)
            base[1:] = self._cum
        return base[indices], base[indices + 1]

    def tobytes(self) -> bytes:
        arr = np.asarray(self._cum, dtype=np.uint64)
        return _MAGIC + struct.pack("<I", len(self._cum)) + arr.tobytes()

    @classmethod
    def frombytes(cls, data: bytes) -> "SequenceEncoder":
        data = bytes(data)
        if data[:4] != _MAGIC:
            raise FormatError("bad sequence encoder blob")
        (n,) = struct.unpack_from("<I", data, 4)
        enc = cls()
        enc._cum = np.frombuffer(
            data, dtype=np.uint64, count=n, offset=8
        ).tolist()
        return enc


class PadEncoder:
    """Tracks indices that exist only as sparse padding (§3.5 strict=False)."""

    def __init__(self):
        self._padded: set[int] = set()
        self._arr: Optional[np.ndarray] = None  # lazy mask() operand

    def pad(self, index: int) -> None:
        self._padded.add(int(index))
        self._arr = None

    def unpad(self, index: int) -> None:
        self._padded.discard(int(index))
        self._arr = None

    def is_padded(self, index: int) -> bool:
        return int(index) in self._padded

    def mask(self, indices: np.ndarray) -> np.ndarray:
        """Which of *indices* are padded, as a bool array."""
        if self._arr is None:
            self._arr = np.fromiter(
                self._padded, dtype=np.int64, count=len(self._padded)
            )
        return np.isin(indices, self._arr)

    @property
    def num_padded(self) -> int:
        return len(self._padded)

    def indices(self) -> List[int]:
        return sorted(self._padded)

    def tobytes(self) -> bytes:
        arr = np.asarray(sorted(self._padded), dtype=np.uint64)
        return _MAGIC + struct.pack("<I", len(arr)) + arr.tobytes()

    @classmethod
    def frombytes(cls, data: bytes) -> "PadEncoder":
        data = bytes(data)
        if data[:4] != _MAGIC:
            raise FormatError("bad pad encoder blob")
        (n,) = struct.unpack_from("<I", data, 4)
        enc = cls()
        enc._padded = set(
            np.frombuffer(data, dtype=np.uint64, count=n, offset=8).tolist()
        )
        return enc


class TileEncoder:
    """Layouts of tiled samples: sample index -> (sample_shape, tile_shape)."""

    def __init__(self):
        self._layouts: Dict[int, Dict] = {}
        self._arr: Optional[np.ndarray] = None  # lazy mask() operand

    def register(self, sample_index: int, sample_shape, tile_shape) -> None:
        self._layouts[int(sample_index)] = {
            "sample_shape": [int(x) for x in sample_shape],
            "tile_shape": [int(x) for x in tile_shape],
        }
        self._arr = None

    def unregister(self, sample_index: int) -> None:
        self._layouts.pop(int(sample_index), None)
        self._arr = None

    def __contains__(self, sample_index) -> bool:
        return int(sample_index) in self._layouts

    def mask(self, indices: np.ndarray) -> np.ndarray:
        """Which of *indices* are tiled, as a bool array."""
        if self._arr is None:
            self._arr = np.fromiter(
                self._layouts, dtype=np.int64, count=len(self._layouts)
            )
        return np.isin(indices, self._arr)

    def layout(self, sample_index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        entry = self._layouts[int(sample_index)]
        return tuple(entry["sample_shape"]), tuple(entry["tile_shape"])

    @property
    def num_tiled(self) -> int:
        return len(self._layouts)

    def tobytes(self) -> bytes:
        return json_dumps({str(k): v for k, v in self._layouts.items()})

    @classmethod
    def frombytes(cls, data: bytes) -> "TileEncoder":
        enc = cls()
        enc._layouts = {int(k): v for k, v in json_loads(data).items()}
        return enc
