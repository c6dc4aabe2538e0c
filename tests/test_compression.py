"""Codec tests: roundtrips (lossless), PSNR bounds (lossy), partial video
decode, header peeking, error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression import (
    available_codecs,
    compress_array,
    compress_bytes,
    decompress_array,
    decompress_arrays,
    decompress_bytes,
    get_codec,
    peek_shape,
    psnr,
)
from repro.exceptions import SampleCompressionError
from repro.workloads import smooth_image


class TestByteCodecs:
    @pytest.mark.parametrize("name", ["none", "lz4", "zstd", "gzip", "lzma",
                                      "bz2"])
    def test_bytes_roundtrip(self, name):
        data = b"the quick brown fox " * 500
        assert decompress_bytes(compress_bytes(data, name), name) == data

    @pytest.mark.parametrize("name", ["lz4", "zstd", "gzip"])
    def test_compresses_redundant_data(self, name):
        data = b"a" * 100_000
        assert len(compress_bytes(data, name)) < len(data) / 10

    @pytest.mark.parametrize(
        "dtype", ["uint8", "int16", "int64", "float32", "float64", "bool"]
    )
    def test_array_roundtrip_dtypes(self, dtype, rng):
        if dtype == "bool":
            arr = rng.random((7, 5)) > 0.5
        else:
            arr = (rng.random((7, 5)) * 100).astype(dtype)
        out = decompress_array(compress_array(arr, "lz4"), "lz4")
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)

    def test_zero_dim_array(self):
        arr = np.int32(7)
        out = decompress_array(compress_array(arr, "none"), "none")
        assert out[()] == 7

    def test_wrong_codec_rejected(self, rng):
        blob = compress_array(rng.random(4), "lz4")
        with pytest.raises(SampleCompressionError):
            get_codec("zstd").decompress(blob)

    def test_peek_shape_no_decode(self, rng):
        arr = rng.random((3, 4, 5))
        blob = compress_array(arr, "zstd")
        assert peek_shape(blob, "zstd") == (3, 4, 5)

    @given(
        arr=arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20)))
    )
    @settings(max_examples=30, deadline=None)
    def test_property_lossless_roundtrip(self, arr):
        for name in ("none", "lz4", "gzip"):
            out = decompress_array(compress_array(arr, name), name)
            assert np.array_equal(out, arr)

    def test_unknown_codec(self):
        with pytest.raises(SampleCompressionError):
            get_codec("webp")

    def test_image_codec_rejected_for_chunks(self):
        with pytest.raises(SampleCompressionError):
            compress_bytes(b"x", "jpeg")


class TestNoneColumn:
    """``NoneCodec.decompress_many`` reads the payloads of one header as
    one array: it must equal ``[decompress(p) for p in payloads]``."""

    @staticmethod
    def _arrays(rng):
        return [
            np.int32(7), np.int32(-3), np.float64(2.5),
            rng.integers(0, 9, size=(3, 4)).astype(np.int16),
            rng.random(5), rng.integers(0, 9, size=(3, 4)).astype(np.int16),
            np.zeros((0, 3), np.uint8), rng.random((2, 2, 2)) > 0.5,
            np.int32(11), rng.random(5).astype(np.float32),
            np.zeros((0, 3), np.uint8),
        ]

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_a_column_equals_one_at_a_time(self, rng, wrap):
        codec = get_codec("none")
        payloads = [wrap(compress_array(a, "none"))
                    for a in self._arrays(rng)]
        want = [codec.decompress(bytes(p)) for p in payloads]
        got = codec.decompress_many(payloads)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray)
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    def test_rows_are_writable_and_alias_no_payload(self, rng):
        arrays = [rng.integers(0, 9, size=4).astype(np.int64)
                  for _ in range(3)]
        payloads = [bytearray(compress_array(a, "none")) for a in arrays]
        got = decompress_arrays(payloads, "none")
        for payload in payloads:
            payload[-8:] = b"\xff" * 8
        for g, a in zip(got, arrays):
            assert g.flags.writeable and np.array_equal(g, a)
        got[0][:] = -1
        assert np.array_equal(got[1], arrays[1])

    def test_an_empty_column(self):
        assert get_codec("none").decompress_many([]) == []

    def test_a_foreign_or_short_payload_is_refused(self, rng):
        good = compress_array(rng.random(4), "none")
        with pytest.raises(SampleCompressionError):
            decompress_arrays([good, compress_array(rng.random(4), "lz4")],
                              "none")
        with pytest.raises(SampleCompressionError):
            decompress_arrays([good, good[:-1]], "none")


class TestJpegSim:
    def test_lossy_but_close(self, rng):
        img = smooth_image(rng, 120, 90)
        out = decompress_array(compress_array(img, "jpeg"), "jpeg")
        assert out.shape == img.shape
        assert psnr(img, out) > 30

    def test_compresses_natural_images(self, rng):
        img = smooth_image(rng, 256, 256)
        blob = compress_array(img, "jpeg")
        assert len(blob) < img.nbytes / 2

    def test_quality_tradeoff(self, rng):
        img = smooth_image(rng, 128, 128)
        hi = compress_array(img, "jpeg")
        lo = compress_array(img, "jpeg_low")
        assert len(lo) < len(hi)
        assert psnr(img, decompress_array(hi, "jpeg")) > psnr(
            img, decompress_array(lo, "jpeg_low")
        )

    def test_non_multiple_of_8_shapes(self, rng):
        img = smooth_image(rng, 13, 21)
        out = decompress_array(compress_array(img, "jpeg"), "jpeg")
        assert out.shape == (13, 21, 3)

    def test_grayscale(self, rng):
        img = smooth_image(rng, 32, 32, 1)[:, :, 0]
        out = decompress_array(compress_array(img, "jpeg"), "jpeg")
        assert out.shape == (32, 32)

    def test_requires_uint8(self, rng):
        with pytest.raises(SampleCompressionError):
            compress_array(rng.random((8, 8)).astype(np.float32), "jpeg")

    def test_peek(self, rng):
        blob = compress_array(smooth_image(rng, 40, 50), "jpeg")
        assert peek_shape(blob, "jpeg") == (40, 50, 3)

    def test_corrupt_payload(self, rng):
        blob = bytearray(compress_array(smooth_image(rng, 16, 16), "jpeg"))
        blob[-10:] = b"corruption"
        with pytest.raises(SampleCompressionError):
            decompress_array(bytes(blob), "jpeg")


class TestPngSim:
    @given(
        arr=arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24),
                                       st.integers(1, 4)))
    )
    @settings(max_examples=30, deadline=None)
    def test_property_lossless(self, arr):
        out = decompress_array(compress_array(arr, "png"), "png")
        assert np.array_equal(out, arr)

    def test_2d_roundtrip(self, rng):
        img = rng.integers(0, 255, (15, 17), dtype=np.uint8)
        out = decompress_array(compress_array(img, "png"), "png")
        assert out.shape == (15, 17)
        assert np.array_equal(out, img)

    def test_uint16_lossless(self, rng):
        img = rng.integers(0, 65535, (9, 9, 1), dtype=np.uint16)
        out = decompress_array(compress_array(img, "png"), "png")
        assert np.array_equal(out, img)

    def test_beats_raw_on_smooth(self, rng):
        img = smooth_image(rng, 128, 128)
        assert len(compress_array(img, "png")) < img.nbytes


class TestMp4Sim:
    def test_roundtrip_quality(self, rng):
        clip = np.stack([smooth_image(rng, 48, 48)] * 6)
        mp4 = get_codec("mp4")
        out = mp4.decompress(mp4.compress(clip))
        assert out.shape == clip.shape
        assert psnr(clip, out) > 30

    def test_decode_range_matches_full(self, rng):
        base = smooth_image(rng, 40, 40)
        clip = np.stack([np.roll(base, i, axis=1) for i in range(20)])
        mp4 = get_codec("mp4")
        blob = mp4.compress(clip)
        full = mp4.decompress(blob)
        part = mp4.decode_range(blob, 11, 15)
        assert np.array_equal(part, full[11:15])

    def test_range_needs_fewer_bytes(self, rng):
        base = smooth_image(rng, 40, 40)
        clip = np.stack([np.roll(base, i, axis=1) for i in range(32)])
        mp4 = get_codec("mp4")
        blob = mp4.compress(clip)
        needed = mp4.bytes_needed_for_range(blob, 9, 10)
        assert needed < len(blob) / 2

    def test_frame_count_and_peek(self, rng):
        clip = np.stack([smooth_image(rng, 24, 24)] * 7)
        mp4 = get_codec("mp4")
        blob = mp4.compress(clip)
        assert mp4.frame_count(blob) == 7
        assert peek_shape(blob, "mp4") == (7, 24, 24, 3)

    def test_temporal_delta_compression_wins(self, rng):
        still = smooth_image(rng, 64, 64)
        static_clip = np.stack([still] * 16)
        mp4 = get_codec("mp4")
        blob = mp4.compress(static_clip)
        per_frame_jpeg = len(compress_array(still, "jpeg"))
        assert len(blob) < per_frame_jpeg * 8  # deltas ~free

    def test_requires_4d_uint8(self, rng):
        with pytest.raises(SampleCompressionError):
            get_codec("mp4").compress(smooth_image(rng, 8, 8))


class TestAudio:
    @given(
        sig=arrays(np.int16, st.integers(1, 500),
                   elements=st.integers(-3000, 3000))
    )
    @settings(max_examples=30, deadline=None)
    def test_property_flac_lossless(self, sig):
        out = decompress_array(compress_array(sig, "flac"), "flac")
        assert np.array_equal(out, sig)

    def test_flac_multichannel(self, rng):
        sig = (rng.normal(0, 1000, (400, 2))).astype(np.int16)
        out = decompress_array(compress_array(sig, "flac"), "flac")
        assert np.array_equal(out, sig)

    def test_flac_compresses_tonal(self):
        sig = (np.sin(np.linspace(0, 300, 40_000)) * 5000).astype(np.int16)
        assert len(compress_array(sig, "flac")) < sig.nbytes / 3

    def test_wav_roundtrip_any_dtype(self, rng):
        sig = rng.random(100).astype(np.float32)
        out = decompress_array(compress_array(sig, "wav"), "wav")
        assert np.array_equal(out, sig)

    def test_wav_peek_shape_of_a_truncated_or_foreign_payload_is_none(
        self, rng
    ):
        blob = compress_array(rng.random((100, 2)).astype(np.float32), "wav")
        assert peek_shape(blob, "wav") == (100, 2)
        header = len(blob) - 100 * 2 * 4
        for cut in range(header):
            assert peek_shape(blob[:cut], "wav") is None, cut
        for foreign in (b"\x00" * 64,
                        compress_array(np.zeros(4, np.int16), "flac"),
                        blob[:4] + b"\xff" * 60):  # its magic, then garbage
            assert peek_shape(foreign, "wav") is None

    def test_flac_requires_int16(self, rng):
        with pytest.raises(SampleCompressionError):
            compress_array(rng.random(10).astype(np.float32), "flac")


def test_registry_inventory():
    names = available_codecs()
    for expected in ("none", "lz4", "zstd", "gzip", "jpeg", "png", "mp4",
                     "flac", "wav"):
        assert expected in names
