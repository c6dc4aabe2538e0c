"""Compression codecs for the Tensor Storage Format.

Public helpers:

- :func:`compress_array` / :func:`decompress_array` — sample compression,
  and :func:`decompress_arrays`, a column of samples in one codec call
- :func:`compress_bytes` / :func:`decompress_bytes` — chunk compression
- :func:`peek_shape` — read a payload's sample shape without decoding

Codec inventory (all implemented from scratch, see DESIGN.md §1 for the
substitution rationale): byte codecs ``none``/``lz4``/``zstd``/``gzip``/
``lzma``/``bz2``; image ``jpeg``/``jpeg_low`` (lossy DCT) and ``png``
(lossless); video ``mp4`` (keyframe GOP); audio ``flac``/``wav``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.compression import audio, bytes_codecs, image, video  # noqa: F401  (registration)
from repro.compression.base import (
    Codec,
    available_codecs,
    codecs_of_kind,
    get_codec,
    register_codec,
)
from repro.compression.bytes_codecs import ByteCodec
from repro.compression.image import psnr
from repro.compression.video import Mp4Sim
from repro.exceptions import SampleCompressionError


def compress_array(array: np.ndarray, compression: Optional[str]) -> bytes:
    """Encode one sample with the named codec ('none'/None = framed raw)."""
    name = compression or "none"
    return get_codec(name).compress(np.asarray(array))


def decompress_array(data: bytes, compression: Optional[str]) -> np.ndarray:
    return decompress_arrays([data], compression)[0]


def decompress_arrays(payloads: Sequence[bytes],
                      compression: Optional[str]) -> list:
    """Decode a column of sample payloads with ONE codec call
    (:meth:`Codec.decompress_many`), in order; the codec meters it."""
    return get_codec(compression or "none").decompress_many(payloads)


def compress_bytes(data: bytes, compression: Optional[str]) -> bytes:
    """Chunk-level compression of a raw byte stream."""
    if not compression or compression == "none":
        return bytes(data)
    codec = get_codec(compression)
    if not isinstance(codec, ByteCodec):
        raise SampleCompressionError(
            f"{compression!r} is a {codec.kind} codec and cannot be used as "
            "chunk compression; use a byte codec (lz4, zstd, gzip, ...)"
        )
    return codec.compress_bytes(data)


def decompress_bytes(data: bytes, compression: Optional[str]) -> bytes:
    if not compression or compression == "none":
        return bytes(data)
    codec = get_codec(compression)
    if not isinstance(codec, ByteCodec):
        raise SampleCompressionError(
            f"{compression!r} cannot be used as chunk compression"
        )
    return codec.decompress_bytes(data)


def peek_shape(data: bytes, compression: Optional[str]) -> Optional[Tuple[int, ...]]:
    """Sample shape from the payload header without decoding, if possible."""
    name = compression or "none"
    return get_codec(name).peek_shape(bytes(data))


__all__ = [
    "Codec",
    "ByteCodec",
    "Mp4Sim",
    "get_codec",
    "register_codec",
    "available_codecs",
    "codecs_of_kind",
    "compress_array",
    "decompress_array",
    "decompress_arrays",
    "compress_bytes",
    "decompress_bytes",
    "peek_shape",
    "psnr",
]
