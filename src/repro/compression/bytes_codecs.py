"""Byte-stream codecs: none, lz4_sim, zstd_sim, gzip, lzma.

The real Deep Lake links liblz4/zstd; offline we map them onto zlib at
different effort levels, preserving the property the benchmarks exercise:
a *fast/cheap* codec (lz4) vs a *denser/slower* one (zstd/gzip).  These
codecs serve both as chunk compressions and, wrapped in the array framing,
as sample compressions for numeric tensors.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from typing import Dict, List, Sequence

import numpy as np

from repro.compression.base import (
    Codec,
    pack_array_header,
    register_codec,
    unpack_array_header,
)
from repro.exceptions import SampleCompressionError


class ByteCodec(Codec):
    """Base for codecs that act on raw byte streams."""

    kind = "byte"
    lossy = False

    # --- raw byte API (chunk compression path) ---

    def compress_bytes(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress_bytes(self, data: bytes) -> bytes:
        raise NotImplementedError

    # --- array API (sample compression path) ---

    def compress(self, array: np.ndarray) -> bytes:
        array = np.ascontiguousarray(array)
        header = pack_array_header(array, self.name)
        return header + self.compress_bytes(array.tobytes())

    def decompress(self, data: bytes) -> np.ndarray:
        name, dtype, shape, off = unpack_array_header(data)
        if name != self.name:
            raise SampleCompressionError(
                f"payload encoded with {name!r}, decoded with {self.name!r}"
            )
        raw = self.decompress_bytes(bytes(data[off:]))
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def peek_shape(self, data: bytes):
        _name, _dtype, shape, _off = unpack_array_header(data)
        return shape


class NoneCodec(ByteCodec):
    """Identity codec (uncompressed storage)."""

    name = "none"

    def compress_bytes(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress_bytes(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress_many(self, payloads: Sequence[bytes]) -> list:
        """Decode *payloads*, in order: the payloads of one header (dtype,
        shape) are copied into one fresh buffer read as one array, and
        each row is a writable view of it (none aliases a payload)."""
        with self.meter.batch(len(payloads)):
            out: list = [None] * len(payloads)
            groups: Dict[bytes, List[int]] = {}
            head = b""
            for i, data in enumerate(payloads):
                # a header determines its own length, so a payload that
                # starts with the previous header has that header
                if not head or data[: len(head)] != head:
                    name, _dt, _shape, off = unpack_array_header(bytes(data))
                    if name != self.name:
                        raise SampleCompressionError(
                            f"payload encoded with {name!r}, decoded with "
                            f"{self.name!r}"
                        )
                    head = bytes(data[:off])
                groups.setdefault(head, []).append(i)
            for head, rows in groups.items():
                _name, dtype, shape, off = unpack_array_header(head)
                size = off + dtype.itemsize * int(np.prod(shape))
                if any(len(payloads[i]) != size for i in rows):
                    raise SampleCompressionError(
                        f"{self.name}: a {shape} {dtype} payload is not "
                        f"{size} bytes"
                    )
                buf = bytearray().join(memoryview(payloads[i])[off:]
                                       for i in rows)
                column = np.frombuffer(buf, dtype).reshape(len(rows), *shape)
                for k, i in enumerate(rows):
                    out[i] = column[k, ...]
            return out


class ZlibBackedCodec(ByteCodec):
    """zlib at a fixed level, standing in for a named codec."""

    level = 6

    def compress_bytes(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), self.level)

    def decompress_bytes(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise SampleCompressionError(f"{self.name}: {exc}") from exc


class LZ4Sim(ZlibBackedCodec):
    """LZ4 stand-in: fastest setting, modest ratio."""

    name = "lz4"
    level = 1


class ZstdSim(ZlibBackedCodec):
    """Zstandard stand-in: balanced setting."""

    name = "zstd"
    level = 6


class GzipCodec(ZlibBackedCodec):
    name = "gzip"
    level = 9


class LzmaCodec(ByteCodec):
    """High-ratio, slow codec (xz)."""

    name = "lzma"

    def compress_bytes(self, data: bytes) -> bytes:
        return lzma.compress(bytes(data), preset=1)

    def decompress_bytes(self, data: bytes) -> bytes:
        try:
            return lzma.decompress(bytes(data))
        except lzma.LZMAError as exc:
            raise SampleCompressionError(f"lzma: {exc}") from exc


class Bz2Codec(ByteCodec):
    name = "bz2"

    def compress_bytes(self, data: bytes) -> bytes:
        return bz2.compress(bytes(data), 1)

    def decompress_bytes(self, data: bytes) -> bytes:
        try:
            return bz2.decompress(bytes(data))
        except (OSError, ValueError) as exc:
            raise SampleCompressionError(f"bz2: {exc}") from exc


NONE = register_codec(NoneCodec())
LZ4 = register_codec(LZ4Sim())
ZSTD = register_codec(ZstdSim())
GZIP = register_codec(GzipCodec())
LZMA = register_codec(LzmaCodec())
BZ2 = register_codec(Bz2Codec())
