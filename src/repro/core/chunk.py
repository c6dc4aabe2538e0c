"""Chunk: the unit blob of the Tensor Storage Format (§3.4).

A chunk holds a contiguous run of samples of one tensor.  Its binary
layout is::

    magic "TSFC" | u32 header_len | u8 version | u8 flags
    | u16 len(cc) | cc (chunk-compression codec name)
    | u16 len(dtype) | dtype
    | u32 num_samples | u8 ndim
    | shapes       num_samples * ndim  u32
    | byte_positions num_samples * 2   u64   (start, end into data section)
    | data section (optionally chunk-compressed as one stream)

The header carries "byte ranges [and] shapes of the samples" exactly as in
the paper, and ``header_len`` sits at a fixed offset so a reader can fetch
the header with one small ranged request and then fetch single samples
with a second ranged request — the access pattern behind shuffled
streaming (§3.5).  When the chunk is chunk-compressed the data section is
one stream and partial reads are impossible by construction (the LZ4
labels case), so callers must fetch whole chunks.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compression import compress_bytes, decompress_bytes
from repro.exceptions import ChunkCorruptedError
from repro.util.ids import new_chunk_name

MAGIC = b"TSFC"
VERSION = 1
FLAG_CHUNK_COMPRESSED = 1
_FIXED = struct.Struct("<4sIBB")  # magic, header_len, version, flags


class Chunk:
    """In-memory chunk being built or decoded.

    ``data`` is a ``bytearray`` while the chunk is being written to and
    immutable ``bytes`` once it is *sealed* — decoded from storage
    (:meth:`frombytes`) or drained from the write buffer (:meth:`seal`) —
    and a sealed chunk never changes (a writer takes a :meth:`copy`).
    Only a sealed chunk hands out the :meth:`dense` view: an array over a
    bytearray would pin it, and the next :meth:`append` raise
    ``BufferError`` while any reader still held the view.
    """

    __slots__ = ("name", "dtype", "data", "byte_positions", "shapes",
                 "_dense")

    def __init__(self, dtype: Optional[str] = None, name: Optional[str] = None):
        self.name = name or new_chunk_name()
        self.dtype = dtype
        self.data = bytearray()
        self.byte_positions: List[Tuple[int, int]] = []
        self.shapes: List[Tuple[int, ...]] = []
        self._dense: Optional[tuple] = None  # (data, dtype, view | None)

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #

    @property
    def num_samples(self) -> int:
        return len(self.byte_positions)

    @property
    def nbytes(self) -> int:
        """Approximate serialised size (uncompressed data section)."""
        return len(self.data) + self.header_nbytes

    @property
    def header_nbytes(self) -> int:
        ndim = len(self.shapes[0]) if self.shapes else 0
        return (
            _FIXED.size
            + 2 + len("none")
            + 2 + len(self.dtype or "")
            + 4 + 1
            + 4 * ndim * self.num_samples
            + 16 * self.num_samples
        )

    def can_fit(self, nbytes: int, max_chunk_size: int) -> bool:
        """Would appending *nbytes* keep this chunk within the upper bound?"""
        if self.num_samples == 0:
            return True  # a chunk always holds at least one sample
        return len(self.data) + nbytes <= max_chunk_size

    def append(self, raw: bytes, shape: Sequence[int]) -> None:
        self.extend(raw, (len(raw),), [tuple(int(x) for x in shape)])

    def extend(self, raw, ends: Sequence[int],
               shapes: Sequence[Tuple[int, ...]]) -> None:
        """Append ``len(ends)`` samples in one step: their payloads lie
        back to back in *raw* (any bytes-like), sample ``i`` ending at
        ``ends[i]``, and ``shapes[i]`` is its shape, a tuple of ints.  One
        copy of the data, one growth of each index list."""
        rank = len((self.shapes or shapes)[0])
        odd = set(map(len, shapes)) - {rank}
        if odd:
            raise ChunkCorruptedError(
                f"sample rank {min(odd)} differs from chunk rank {rank}"
            )
        start = len(self.data)
        self.data += raw
        stops = (np.asarray(ends, dtype=np.int64) + start).tolist()
        self.byte_positions.extend(zip([start] + stops[:-1], stops))
        self.shapes.extend(shapes)

    def truncate(self, nbytes: int, num_samples: int) -> None:
        """Drop everything :meth:`extend` added past the first
        *num_samples* samples / *nbytes* data bytes (batch rollback)."""
        if len(self.data) > nbytes:  # appended to, so a bytearray by now
            del self.data[nbytes:]
        del self.byte_positions[num_samples:]
        del self.shapes[num_samples:]

    def seal(self) -> None:
        """Freeze the data section: the chunk left the write buffer."""
        self.data = bytes(self.data)

    def dense(self, dtype: np.dtype) -> Optional[np.ndarray]:
        """The read-only ``(num_samples, *shape)`` array over the data
        section, or ``None`` when there is no such array: the chunk is
        not sealed, samples differ in shape, or the payloads are not the
        raw *dtype* arrays laid end to end (sample-compressed, empty).
        Verified once per chunk and cached: a sealed chunk never changes.
        It is a view of chunk memory: callers gather out of it
        (``dense[locals]`` copies), never hand it on."""
        data, cached = self.data, self._dense
        # keyed on the data object: a view stored by a reader racing an
        # append belongs to the buffer that call replaced
        if cached is not None and cached[0] is data and cached[1] == dtype:
            return cached[2]
        if not isinstance(data, bytes):
            return None
        view = None
        # one snapshot: a resumed append may extend the list meanwhile
        positions = list(self.byte_positions)
        n = len(positions)
        shape = self.shapes[0] if n else ()
        count = int(np.prod(shape, dtype=np.int64))
        size = count * dtype.itemsize
        if (
            n and size and self.shapes.count(shape) == n
            and len(data) >= n * size
        ):
            bounds = np.asarray(positions, dtype=np.int64)
            edges = np.arange(n + 1, dtype=np.int64) * size
            if (bounds[:, 0] == edges[:-1]).all() and (
                bounds[:, 1] == edges[1:]
            ).all():
                view = np.frombuffer(
                    data, dtype=dtype, count=n * count
                ).reshape((n,) + shape)
        self._dense = (data, dtype, view)
        return view

    def read_bytes(self, local_index: int) -> bytes:
        start, end = self.byte_positions[local_index]
        return bytes(self.data[start:end])

    def payloads(self, local_indices: Sequence[int]) -> List:
        """The stored bytes of samples *local_indices*, in order: zero-copy
        views of a sealed chunk's immutable data section, copies of a
        write buffer (a view would pin a ``bytearray`` an append grows)."""
        data = self.data
        if isinstance(data, bytes):
            data = memoryview(data)
        positions = self.byte_positions
        return [data[slice(*positions[i])] for i in local_indices]

    def read_shape(self, local_index: int) -> Tuple[int, ...]:
        return self.shapes[local_index]

    def copy(self, replace: Sequence[Tuple[int, bytes, Sequence[int]]] = ()
             ) -> "Chunk":
        """This chunk's samples in a new write buffer under a fresh name,
        each ``(local index, raw, shape)`` of *replace* (ascending local
        indices, none twice) swapped in, in one pass: the bytes between
        two replaced samples move as one slice, and as samples lie back
        to back, the byte positions follow from the new sizes.  The chunk
        itself is left as it is."""
        chunk = Chunk(dtype=self.dtype)
        chunk.shapes = list(self.shapes)
        chunk.byte_positions = list(self.byte_positions)
        at = 0
        with memoryview(self.data) as src:
            for local, raw, shape in replace:
                start, end = self.byte_positions[local]
                chunk.data += src[at:start]
                chunk.data += raw
                at = end
                chunk.shapes[local] = tuple(int(x) for x in shape)
            chunk.data += src[at:]
        if replace:
            sizes = [end - start for start, end in self.byte_positions]
            for local, raw, _shape in replace:
                sizes[local] = len(raw)
            ends = self.byte_positions[0][0] + np.cumsum(sizes)
            chunk.byte_positions = list(zip((ends - sizes).tolist(),
                                            ends.tolist()))
        return chunk

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def tobytes(self, chunk_compression: Optional[str] = None) -> bytes:
        cc = (chunk_compression or "none").encode()
        dtype = (self.dtype or "").encode()
        ndim = len(self.shapes[0]) if self.shapes else 0
        n = self.num_samples
        shapes_arr = np.asarray(self.shapes, dtype=np.uint32).reshape(n, ndim)
        bp_arr = np.asarray(self.byte_positions, dtype=np.uint64).reshape(n, 2)
        header_tail = b"".join(
            [
                struct.pack("<H", len(cc)), cc,
                struct.pack("<H", len(dtype)), dtype,
                struct.pack("<IB", n, ndim),
                shapes_arr.tobytes(),
                bp_arr.tobytes(),
            ]
        )
        header_len = _FIXED.size + len(header_tail)
        flags = FLAG_CHUNK_COMPRESSED if (chunk_compression and chunk_compression != "none") else 0
        data = bytes(self.data)
        if flags:
            data = compress_bytes(data, chunk_compression)
        return _FIXED.pack(MAGIC, header_len, VERSION, flags) + header_tail + data

    # -- header-only parsing (for ranged reads) -------------------------

    @staticmethod
    def peek_header_len(prefix: bytes) -> int:
        if len(prefix) < 8 or prefix[:4] != MAGIC:
            raise ChunkCorruptedError("not a TSF chunk (bad magic)")
        return struct.unpack_from("<I", prefix, 4)[0]

    @classmethod
    def parse_header(cls, header: bytes) -> "ChunkHeader":
        magic, header_len, version, flags = _FIXED.unpack_from(header, 0)
        if magic != MAGIC:
            raise ChunkCorruptedError("not a TSF chunk (bad magic)")
        if version > VERSION:
            raise ChunkCorruptedError(f"unsupported chunk version {version}")
        off = _FIXED.size
        (cc_len,) = struct.unpack_from("<H", header, off)
        off += 2
        cc = header[off : off + cc_len].decode()
        off += cc_len
        (dt_len,) = struct.unpack_from("<H", header, off)
        off += 2
        dtype = header[off : off + dt_len].decode() or None
        off += dt_len
        n, ndim = struct.unpack_from("<IB", header, off)
        off += 5
        shapes = np.frombuffer(
            header, dtype=np.uint32, count=n * ndim, offset=off
        ).reshape(n, ndim)
        off += 4 * n * ndim
        bp = np.frombuffer(
            header, dtype=np.uint64, count=n * 2, offset=off
        ).reshape(n, 2)
        off += 16 * n
        if off != header_len:
            raise ChunkCorruptedError(
                f"header length mismatch: parsed {off}, declared {header_len}"
            )
        return ChunkHeader(
            header_len=header_len,
            flags=flags,
            chunk_compression=None if cc == "none" else cc,
            dtype=dtype,
            shapes=shapes,
            byte_positions=bp,
        )

    @classmethod
    def frombytes(cls, blob: bytes, name: Optional[str] = None) -> "Chunk":
        blob = bytes(blob)
        header = cls.parse_header(blob)
        chunk = cls(dtype=header.dtype, name=name)
        data = blob[header.header_len :]
        if header.flags & FLAG_CHUNK_COMPRESSED:
            data = decompress_bytes(data, header.chunk_compression)
        chunk.data = data  # sealed
        chunk.shapes = list(map(tuple, header.shapes.tolist()))
        chunk.byte_positions = list(map(tuple, header.byte_positions.tolist()))
        declared = chunk.byte_positions[-1][1] if chunk.byte_positions else 0
        if len(chunk.data) < declared:
            raise ChunkCorruptedError(
                f"data section truncated: {len(chunk.data)} < {declared}"
            )
        return chunk

    def __repr__(self) -> str:
        return (
            f"Chunk(name={self.name[:8]}..., samples={self.num_samples}, "
            f"bytes={len(self.data)})"
        )


class ChunkHeader:
    """Parsed chunk header (cheap, no data section)."""

    __slots__ = (
        "header_len", "flags", "chunk_compression", "dtype", "shapes",
        "byte_positions",
    )

    def __init__(self, header_len, flags, chunk_compression, dtype, shapes,
                 byte_positions):
        self.header_len = header_len
        self.flags = flags
        self.chunk_compression = chunk_compression
        self.dtype = dtype
        self.shapes = shapes
        self.byte_positions = byte_positions

    @property
    def is_chunk_compressed(self) -> bool:
        return bool(self.flags & FLAG_CHUNK_COMPRESSED)

    def sample_range(self, local_index: int) -> Tuple[int, int]:
        """Absolute [start, end) of one sample within the encoded blob.

        Only meaningful when the chunk is not chunk-compressed.
        """
        start, end = self.byte_positions[local_index]
        return self.header_len + int(start), self.header_len + int(end)

    def sample_shape(self, local_index: int) -> Tuple[int, ...]:
        return tuple(int(x) for x in self.shapes[local_index])
