"""Image codecs: a real lossy block-DCT codec (JPEG stand-in) and a
filtered-deflate lossless codec (PNG stand-in).

``jpeg_sim`` performs the actual JPEG pipeline on numpy/scipy — level
shift, 8×8 block DCT, quantisation, entropy coding (deflate in place of
Huffman) — so decoding is genuinely CPU-bound and lossy, which is the
property the dataloader experiments depend on (decode overlapping I/O).
The encoder's forward DCT is ``scipy.fft.dctn``.  The decoder folds the
dequantize into the 2-D inverse DCT: one ``(64, 64)`` basis per quality,
applied by a BLAS gemm to tiles of at most 64 blocks, so each gemm runs
on the calling thread.

``png_sim`` is up-filtering + deflate, which is essentially what PNG is.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from typing import Dict, List, Sequence

import numpy as np
from scipy.fft import dctn

from repro.compression.base import Codec, register_codec
from repro.exceptions import SampleCompressionError

# ITU-T T.81 Annex K luminance quantisation table.
_Q_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float32,
)

_JPEG_MAGIC = b"JSIM"
_PNG_MAGIC = b"PSIM"
#: after the magic: height, width, channels, quality
_HEADER = struct.Struct("<IIHB")
_HEADER_LEN = len(_JPEG_MAGIC) + _HEADER.size

#: Decoded bytes (8x8-padded pixels) one JPEG kernel call covers at most.
#: The call's int16 and float32 temporaries are a few times this, however
#: many payloads a read hands :meth:`JpegSim.decompress_many`.
DECODE_BATCH_BYTES = 256 * 1024

#: Blocks one inverse-transform gemm covers at most: a 64·64·64 product,
#: which OpenBLAS runs on the calling thread.  A larger one may start
#: BLAS threads, and two loader workers each starting them oversubscribe
#: the cores.
_TILE_BLOCKS = 64


@lru_cache(maxsize=256)
def _quality_table(quality: int) -> np.ndarray:
    """The quantisation table of *quality* (read-only, built once)."""
    quality = int(np.clip(quality, 1, 100))
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    table = np.floor((_Q_LUMA * scale + 50) / 100)
    table = np.clip(table, 1, 255).astype(np.float32)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def _idct_basis(quality: int) -> np.ndarray:
    """The dequantize and the 2-D inverse DCT of *quality* as one
    ``(64, 64)`` float32 matrix (read-only, built once): row ``y·8 + x``
    is pixel ``(y, x)`` of a block, column ``u·8 + v`` its coefficient
    ``(u, v)``, so ``basis @ coefficients`` is a block's pixels less
    128."""
    k = np.arange(8)
    # the 8-point orthonormal inverse DCT, b[x, u]
    b = np.sqrt(2 / 8) * np.cos((2 * k[:, None] + 1) * k * np.pi / 16)
    b[:, 0] = np.sqrt(1 / 8)
    basis = np.kron(b, b) * _quality_table(quality).ravel()
    basis = basis.astype(np.float32)
    basis.flags.writeable = False
    return basis


#: A block of DC ``k`` alone decodes to exactly ``128 + k · qt[0, 0] / 8``,
#: which can be a tie ``j + .5``.  The scipy.fft decoder the basis
#: replaced scaled DC a hair under ``1 / 8``, which rounded those ties
#: toward mid-grey.  Scaling by this before the rounding keeps that, so
#: stored images decode as before: it moves a value by one or two
#: float32 steps, within the float error of the 64-term sum.
_TIES_TO_GREY = np.float32(1 - 2 ** -23)


class JpegSim(Codec):
    """Lossy 8×8 block-DCT image codec (JPEG pipeline on numpy/scipy)."""

    kind = "image"
    lossy = True

    def __init__(self, name: str = "jpeg", quality: int = 90):
        self.name = name
        self.quality = int(quality)

    def compress(self, array: np.ndarray) -> bytes:
        if array.dtype != np.uint8:
            raise SampleCompressionError(
                f"{self.name} expects uint8 samples, got {array.dtype}"
            )
        if array.ndim == 2:
            array = array[:, :, None]
        if array.ndim != 3:
            raise SampleCompressionError(
                f"{self.name} expects HxW or HxWxC samples, got shape "
                f"{array.shape}"
            )
        h, w, c = array.shape
        ph = (-h) % 8
        pw = (-w) % 8
        if ph or pw:
            array = np.pad(array, ((0, ph), (0, pw), (0, 0)), mode="edge")
        x = array.astype(np.float32) - 128.0
        hb, wb = x.shape[0] // 8, x.shape[1] // 8
        blocks = x.reshape(hb, 8, wb, 8, c)
        coeffs = dctn(blocks, axes=(1, 3), norm="ortho")
        qt = _quality_table(self.quality)
        quant = np.round(coeffs / qt[None, :, None, :, None]).astype(np.int16)
        # planar frequency layout: each (u, v) coefficient plane is
        # contiguous, so the mostly-zero high-frequency planes deflate to
        # long runs (the role Huffman/RLE play in real JPEG); the DC plane
        # is delta-coded like real JPEG's DPCM
        planar = np.ascontiguousarray(quant.transpose(1, 3, 4, 0, 2))
        dc = planar[0, 0].reshape(c, -1)
        dc[:, 1:] = dc[:, 1:] - dc[:, :-1].copy()
        payload = zlib.compress(planar.tobytes(), 6)
        header = _JPEG_MAGIC + _HEADER.pack(h, w, c, self.quality & 0xFF)
        return header + payload

    def decompress(self, data: bytes) -> np.ndarray:
        return self.decompress_many([data])[0]

    def decompress_many(self, payloads: Sequence[bytes]) -> list:
        """Decode *payloads*, in order, one kernel call per batch: the
        payloads of one header (size, channels, quality), cut at
        :data:`DECODE_BATCH_BYTES` of decoded pixels.  Each image is a
        view of its batch's array."""
        out: list = [None] * len(payloads)
        groups: Dict[bytes, List[int]] = {}
        for i, data in enumerate(payloads):
            head = bytes(data[:_HEADER_LEN])
            if len(head) < _HEADER_LEN or head[:4] != _JPEG_MAGIC:
                raise SampleCompressionError(f"not a {self.name} payload")
            groups.setdefault(head, []).append(i)
        for head, where in groups.items():
            h, w, c, quality = _HEADER.unpack_from(head, 4)
            hb, wb = -(-h // 8), -(-w // 8)
            step = max(1, DECODE_BATCH_BYTES // max(1, 64 * hb * wb * c))
            for lo in range(0, len(where), step):
                rows = where[lo : lo + step]
                with self.meter.batch(len(rows)):
                    images = self._decode_batch(
                        [payloads[i] for i in rows], h, w, c,
                        quality or self.quality,
                    )
                for i, image in zip(rows, images):
                    out[i] = image
        return out

    def _decode_batch(self, payloads: List[bytes], h: int, w: int, c: int,
                      quality: int) -> np.ndarray:
        """The ``(n, h, w[, c])`` images of *payloads*, all of one header.

        Each payload inflates into its image's stored planar layout, one
        ``(64, c·hb·wb)`` int16 plane of the batch's ``(n, 64, c·hb·wb)``
        block: row ``u·8 + v`` holds coefficient ``(u, v)`` of every
        block.  One DC prefix sum covers the batch.  The dequantize and
        the 2-D inverse DCT are one product with :func:`_idct_basis`,
        taken over column tiles of at most :data:`_TILE_BLOCKS` blocks so
        that each gemm stays on the calling thread.  The rounding, the
        level shift and the clip then run once over the batch, and one
        transposed copy lays the pixels out row-major."""
        n, hb, wb = len(payloads), -(-h // 8), -(-w // 8)
        m = c * hb * wb
        coeffs = np.empty((n, 64, m), dtype=np.int16)
        size = coeffs[0].nbytes
        for i, data in enumerate(payloads):
            try:
                raw = zlib.decompress(data[_HEADER_LEN:], bufsize=size)
            except zlib.error as exc:
                raise SampleCompressionError(f"{self.name}: {exc}") from exc
            if len(raw) != size:
                raise SampleCompressionError(
                    f"{self.name}: payload inflates to {len(raw)} bytes, "
                    f"its header says {size}"
                )
            coeffs[i] = np.frombuffer(raw, dtype=np.int16).reshape(64, m)
        dc = coeffs[:, 0].reshape(n, c, hb * wb)
        np.add.accumulate(dc, axis=2, dtype=np.int16, out=dc)
        basis = _idct_basis(quality)
        pixels = np.empty((n, 64, m), dtype=np.float32)
        for i in range(n):
            for lo in range(0, m, _TILE_BLOCKS):
                tile = slice(lo, lo + _TILE_BLOCKS)
                np.matmul(basis, coeffs[i, :, tile], out=pixels[i, :, tile])
        del coeffs, dc
        pixels *= _TIES_TO_GREY
        np.round(pixels, out=pixels)
        pixels += 128.0
        np.clip(pixels, 0, 255, out=pixels)
        out = np.empty((n, hb * 8, wb * 8, c), dtype=np.uint8)
        pixels = pixels.reshape(n, 8, 8, c, hb, wb)
        np.copyto(out.reshape(n, hb, 8, wb, 8, c),
                  pixels.transpose(0, 4, 1, 5, 2, 3), casting="unsafe")
        out = out[:, :h, :w]
        return out[..., 0] if c == 1 else out

    def peek_shape(self, data: bytes):
        data = bytes(data[:_HEADER_LEN])
        if data[:4] != _JPEG_MAGIC:
            return None
        h, w, c, _q = _HEADER.unpack_from(data, 4)
        return (h, w) if c == 1 else (h, w, c)


class PngSim(Codec):
    """Lossless image codec: per-row up-filter + deflate (≈ real PNG)."""

    kind = "image"
    lossy = False
    name = "png"

    def compress(self, array: np.ndarray) -> bytes:
        array = np.ascontiguousarray(array)
        squeeze_2d = array.ndim == 2
        if squeeze_2d:
            array = array[:, :, None]
        if array.ndim != 3:
            raise SampleCompressionError(
                f"png expects HxW or HxWxC samples, got shape {array.shape}"
            )
        dt = array.dtype.str.encode()
        if array.dtype == np.uint8 and array.shape[0] > 1:
            # up filter: wrap-around row deltas (exactly reversible mod 256)
            filtered = array.copy()
            filtered[1:] = array[1:] - array[:-1]
        else:
            filtered = array
        h, w, c = array.shape
        payload = zlib.compress(filtered.tobytes(), 6)
        header = _PNG_MAGIC + struct.pack(
            "<IIHBB", h, w, c, len(dt), 1 if squeeze_2d else 0
        ) + dt
        return header + payload

    def decompress(self, data: bytes) -> np.ndarray:
        data = bytes(data)
        if data[:4] != _PNG_MAGIC:
            raise SampleCompressionError("not a png_sim payload")
        h, w, c, dt_len, squeeze = struct.unpack_from("<IIHBB", data, 4)
        off = 4 + struct.calcsize("<IIHBB")
        dtype = np.dtype(data[off : off + dt_len].decode())
        off += dt_len
        try:
            raw = zlib.decompress(data[off:])
        except zlib.error as exc:
            raise SampleCompressionError(f"png: {exc}") from exc
        arr = np.frombuffer(raw, dtype=dtype).reshape(h, w, c).copy()
        if dtype == np.uint8 and h > 1:
            np.add.accumulate(arr, axis=0, dtype=np.uint8, out=arr)
        return arr[:, :, 0] if squeeze else arr

    def peek_shape(self, data: bytes):
        data = bytes(data[:20])
        if data[:4] != _PNG_MAGIC:
            return None
        h, w, c, _dt, squeeze = struct.unpack_from("<IIHBB", data, 4)
        return (h, w) if squeeze else (h, w, c)


JPEG = register_codec(JpegSim("jpeg", quality=80))
JPEG_LOW = register_codec(JpegSim("jpeg_low", quality=50))
PNG = register_codec(PngSim())


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two uint8 images (dB)."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(20 * np.log10(255.0) - 10 * np.log10(mse))
