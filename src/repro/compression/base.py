"""Codec registry and the array-in-bytes framing shared by all codecs.

Terminology follows the paper (§5): a tensor declares either a
*sample compression* (each sample is an independently decodable blob, e.g.
JPEG images) or a *chunk compression* (the chunk's whole data section is
compressed as one stream, e.g. LZ4 over labels).  Byte codecs serve both
roles; image/video/audio codecs are sample codecs only.
"""

from __future__ import annotations

import struct
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SampleCompressionError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

_MAGIC = b"RPC1"  # framing magic for codec payloads


class Codec(ABC):
    """A named (de)compressor for numpy arrays."""

    #: registry name, e.g. "jpeg_sim"
    name: str = ""
    #: True when decompress(compress(x)) != x exactly
    lossy: bool = False
    #: "byte" | "image" | "video" | "audio"
    kind: str = "byte"

    @abstractmethod
    def compress(self, array: np.ndarray) -> bytes:
        """Encode *array* into a self-describing payload."""

    @abstractmethod
    def decompress(self, data: bytes) -> np.ndarray:
        """Decode a payload produced by :meth:`compress`."""

    def decompress_many(self, payloads: Sequence[bytes]) -> list:
        """Decode *payloads* (any bytes-like objects), in order:
        ``[decompress(p) for p in payloads]``, which is what this default
        runs, metered as one batch.  A codec with a batched kernel
        overrides it to decode a column in a few kernel calls."""
        with self.meter.batch(len(payloads)):
            return [self.decompress(bytes(data)) for data in payloads]

    @cached_property
    def meter(self) -> "DecodeMeter":
        return DecodeMeter(self.name)

    def peek_shape(self, data: bytes) -> Optional[Tuple[int, ...]]:
        """Read the sample shape from the header without decoding (or None)."""
        return None

    def __repr__(self) -> str:
        return f"<Codec {self.name} kind={self.kind} lossy={self.lossy}>"


class DecodeMeter:
    """The sample-decode series of one codec, labeled ``codec``:
    ``compression.samples_decoded`` and ``compression.decode_batches``
    (counters) and ``compression.decode_seconds`` (a histogram, one
    observation per :meth:`batch` block, each also a
    ``compression.decode_batch`` span).  A block that raises counts
    nothing."""

    def __init__(self, codec: str):
        reg = _metrics.REGISTRY
        self.codec = codec
        self._samples = reg.counter("compression.samples_decoded", codec=codec)
        self._batches = reg.counter("compression.decode_batches", codec=codec)
        self._seconds = reg.histogram("compression.decode_seconds", codec=codec)

    @contextmanager
    def batch(self, samples: int):
        with _tracing.span("compression.decode_batch", codec=self.codec,
                           samples=samples):
            t0 = time.perf_counter()
            yield
            self._seconds.observe(time.perf_counter() - t0)
        self._samples.inc(samples)
        self._batches.inc()


_REGISTRY: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    if not codec.name:
        raise ValueError("codec must have a name")
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SampleCompressionError(
            f"unknown compression {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_codecs() -> list:
    return sorted(_REGISTRY)


def codecs_of_kind(kind: str) -> list:
    return sorted(n for n, c in _REGISTRY.items() if c.kind == kind)


# ---------------------------------------------------------------------------
# array framing helpers (header <-> numpy array)
# ---------------------------------------------------------------------------


def pack_array_header(array: np.ndarray, codec_name: str) -> bytes:
    """Self-describing header: magic, codec, dtype, shape."""
    dt = array.dtype.str.encode()
    name = codec_name.encode()
    parts = [
        _MAGIC,
        struct.pack("<BB", len(name), len(dt)),
        name,
        dt,
        struct.pack("<B", array.ndim),
        struct.pack(f"<{array.ndim}q", *array.shape),
    ]
    return b"".join(parts)


def unpack_array_header(data: bytes) -> Tuple[str, np.dtype, Tuple[int, ...], int]:
    """Return (codec_name, dtype, shape, header_size)."""
    if data[:4] != _MAGIC:
        raise SampleCompressionError("bad codec payload (magic mismatch)")
    name_len, dt_len = struct.unpack_from("<BB", data, 4)
    off = 6
    name = data[off : off + name_len].decode()
    off += name_len
    dtype = np.dtype(data[off : off + dt_len].decode())
    off += dt_len
    (ndim,) = struct.unpack_from("<B", data, off)
    off += 1
    shape = struct.unpack_from(f"<{ndim}q", data, off)
    off += 8 * ndim
    return name, dtype, tuple(shape), off


def peek_payload_shape(data: bytes) -> Tuple[str, Tuple[int, ...]]:
    """Codec name and sample shape from any framed payload, no decode."""
    name, _dtype, shape, _off = unpack_array_header(bytes(data[:64]))
    return name, shape
