"""Audio codecs: lossless delta+deflate (FLAC stand-in) and raw WAV."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.compression.base import Codec, register_codec
from repro.exceptions import SampleCompressionError

_MAGIC = b"ASIM"


class FlacSim(Codec):
    """Lossless audio codec: wrap-around sample deltas + deflate.

    Works on int16 mono ``(n,)`` or multichannel ``(n, channels)`` signals;
    delta filtering concentrates energy near zero, which deflate then
    exploits — the same idea as FLAC's linear prediction at order 1.
    """

    kind = "audio"
    lossy = False
    name = "flac"

    def compress(self, array: np.ndarray) -> bytes:
        if array.dtype != np.int16 or array.ndim not in (1, 2):
            raise SampleCompressionError(
                f"flac expects int16 (n,) or (n, ch), got {array.dtype} "
                f"{array.shape}"
            )
        squeeze = array.ndim == 1
        if squeeze:
            array = array[:, None]
        filtered = array.copy()
        if array.shape[0] > 1:
            filtered[1:] = array[1:] - array[:-1]  # int16 wrap-around
        n, ch = array.shape
        payload = zlib.compress(filtered.tobytes(), 6)
        header = _MAGIC + struct.pack("<QHB", n, ch, 1 if squeeze else 0)
        return header + payload

    def decompress(self, data: bytes) -> np.ndarray:
        data = bytes(data)
        if data[:4] != _MAGIC:
            raise SampleCompressionError("not a flac_sim payload")
        n, ch, squeeze = struct.unpack_from("<QHB", data, 4)
        off = 4 + struct.calcsize("<QHB")
        try:
            raw = zlib.decompress(data[off:])
        except zlib.error as exc:
            raise SampleCompressionError(f"flac: {exc}") from exc
        arr = np.frombuffer(raw, dtype=np.int16).reshape(n, ch).copy()
        if n > 1:
            np.add.accumulate(arr, axis=0, dtype=np.int16, out=arr)
        return arr[:, 0] if squeeze else arr

    def peek_shape(self, data: bytes):
        data = bytes(data[:16])
        if data[:4] != _MAGIC:
            return None
        n, ch, squeeze = struct.unpack_from("<QHB", data, 4)
        return (n,) if squeeze else (n, ch)


class WavCodec(Codec):
    """Raw PCM container (header + samples, no compression)."""

    kind = "audio"
    lossy = False
    name = "wav"

    def compress(self, array: np.ndarray) -> bytes:
        if array.ndim not in (1, 2):
            raise SampleCompressionError(
                f"wav expects (n,) or (n, ch) signals, got shape {array.shape}"
            )
        from repro.compression.base import pack_array_header

        array = np.ascontiguousarray(array)
        return pack_array_header(array, self.name) + array.tobytes()

    def decompress(self, data: bytes) -> np.ndarray:
        from repro.compression.base import unpack_array_header

        name, dtype, shape, off = unpack_array_header(bytes(data))
        if name != self.name:
            raise SampleCompressionError(f"not a wav payload (codec {name!r})")
        return np.frombuffer(bytes(data[off:]), dtype=dtype).reshape(shape).copy()

    def peek_shape(self, data: bytes):
        from repro.compression.base import unpack_array_header

        try:
            _n, _d, shape, _o = unpack_array_header(bytes(data[:64]))
        except (SampleCompressionError, struct.error, ValueError, TypeError):
            # not a whole header: a foreign magic, cut short (struct),
            # undecodable name (ValueError) or dtype string (TypeError)
            return None
        return shape


FLAC = register_codec(FlacSim())
WAV = register_codec(WavCodec())
