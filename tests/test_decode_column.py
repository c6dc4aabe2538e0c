"""A read decodes its images as one column (compression/image.py,
core/read_plan.py): ``JpegSim.decompress_many`` runs one batched kernel
per run of same-header payloads, and a plan over a sample-compressed
tensor makes one codec call for all of its rows.

The decoder is pinned byte for byte: the crc32s below are the outputs of
the one-image-at-a-time decoder this kernel replaced, on a seeded corpus.
A wider corpus is compared with the ``scipy.fft.idctn`` decoder the
precomputed-basis gemm replaced (:func:`_idctn_decode`, kept here only).
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.fft import idctn

import repro
from repro import obs
from repro.compression import (
    compress_array,
    decompress_array,
    decompress_arrays,
    get_codec,
    image,
)
from repro.compression.image import _HEADER, _HEADER_LEN, JpegSim
from repro.exceptions import SampleCompressionError
from repro.storage import MemoryProvider
from repro.workloads import smooth_image

SHAPES = [(64, 64, 3), (96, 96, 3), (37, 53, 3), (8, 8, 3), (1, 1, 3),
          (20, 28), (16, 24, 1)]


def _image(rng, shape, kind):
    """Uniform noise (so the clip saturates), or a triangle-wave ramp per
    channel: integer arithmetic only, the same pixels on every platform."""
    if kind == "noise":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    h, w = shape[:2]
    c = shape[2] if len(shape) == 3 else 1
    y, x = np.mgrid[0:h, 0:w]
    steps = rng.integers(1, 9, size=(c, 2))
    phase = rng.integers(0, 510, size=c)
    v = x[..., None] * steps[:, 0] + y[..., None] * steps[:, 1] + phase
    v %= 510
    return np.where(v > 255, 510 - v, v).astype(np.uint8).reshape(shape)


def _corpus():
    rng = np.random.default_rng(2023)
    return [(codec, shape, kind, _image(rng, shape, kind))
            for codec in ("jpeg", "jpeg_low")
            for shape in SHAPES for kind in ("smooth", "noise")]


def _crc(array):
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


#: (codec, stored shape, kind) -> (decoded shape, crc32 of the pixels)
GOLDEN = {
    ("jpeg", (64, 64, 3), "smooth"): ((64, 64, 3), 1413147508),
    ("jpeg", (64, 64, 3), "noise"): ((64, 64, 3), 2561199281),
    ("jpeg", (96, 96, 3), "smooth"): ((96, 96, 3), 39496978),
    ("jpeg", (96, 96, 3), "noise"): ((96, 96, 3), 2951827121),
    ("jpeg", (37, 53, 3), "smooth"): ((37, 53, 3), 1514861528),
    ("jpeg", (37, 53, 3), "noise"): ((37, 53, 3), 1001550423),
    ("jpeg", (8, 8, 3), "smooth"): ((8, 8, 3), 124520831),
    ("jpeg", (8, 8, 3), "noise"): ((8, 8, 3), 1001417672),
    ("jpeg", (1, 1, 3), "smooth"): ((1, 1, 3), 2196251330),
    ("jpeg", (1, 1, 3), "noise"): ((1, 1, 3), 1019460697),
    ("jpeg", (20, 28), "smooth"): ((20, 28), 4014156604),
    ("jpeg", (20, 28), "noise"): ((20, 28), 3385051256),
    ("jpeg", (16, 24, 1), "smooth"): ((16, 24), 1897344637),
    ("jpeg", (16, 24, 1), "noise"): ((16, 24), 3755604713),
    ("jpeg_low", (64, 64, 3), "smooth"): ((64, 64, 3), 3378553396),
    ("jpeg_low", (64, 64, 3), "noise"): ((64, 64, 3), 1464828952),
    ("jpeg_low", (96, 96, 3), "smooth"): ((96, 96, 3), 3421897866),
    ("jpeg_low", (96, 96, 3), "noise"): ((96, 96, 3), 1450567723),
    ("jpeg_low", (37, 53, 3), "smooth"): ((37, 53, 3), 3707599474),
    ("jpeg_low", (37, 53, 3), "noise"): ((37, 53, 3), 1580247887),
    ("jpeg_low", (8, 8, 3), "smooth"): ((8, 8, 3), 4162810524),
    ("jpeg_low", (8, 8, 3), "noise"): ((8, 8, 3), 3653079121),
    ("jpeg_low", (1, 1, 3), "smooth"): ((1, 1, 3), 4169032286),
    ("jpeg_low", (1, 1, 3), "noise"): ((1, 1, 3), 1685955157),
    ("jpeg_low", (20, 28), "smooth"): ((20, 28), 1543226690),
    ("jpeg_low", (20, 28), "noise"): ((20, 28), 2961764014),
    ("jpeg_low", (16, 24, 1), "smooth"): ((16, 24), 832932186),
    ("jpeg_low", (16, 24, 1), "noise"): ((16, 24), 2736017609),
}

METERS = ("compression.samples_decoded", "compression.decode_batches",
          "compression.decode_seconds")

#: 10 frames of 16x24x3, keyframes at 0 and 8 (the jpeg intra codec)
MP4_GOLDEN = ((10, 16, 24, 3), 785765121)


def _payloads(codec_name, n, rng, shape=(64, 64, 3)):
    return [compress_array(smooth_image(rng, *shape), codec_name)
            for _ in range(n)]


def _image_dataset(images, **kwargs):
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("img", htype="image", sample_compression="jpeg",
                     create_shape_tensor=False, create_id_tensor=False,
                     **kwargs)
    ds.img.extend(images)
    ds.flush()
    return ds


class TestByteIdentity:
    def test_the_corpus_decodes_to_its_golden_pixels(self):
        got = {}
        for codec, shape, kind, img in _corpus():
            out = decompress_array(compress_array(img, codec), codec)
            got[(codec, shape, kind)] = (out.shape, _crc(out))
        assert got == GOLDEN

    def test_the_corpus_decodes_the_same_as_one_column(self):
        corpus = _corpus()
        for codec in ("jpeg", "jpeg_low"):
            keys = [(c, s, k) for c, s, k, _img in corpus if c == codec]
            column = decompress_arrays(
                [compress_array(img, c) for c, _s, _k, img in corpus
                 if c == codec],
                codec,
            )
            assert [(out.shape, _crc(out)) for out in column] == [
                GOLDEN[key] for key in keys
            ]

    def test_mp4_intra_frames_decode_unchanged(self):
        rng = np.random.default_rng(7)
        video = np.stack([_image(rng, (16, 24, 3), "smooth")
                          for _ in range(10)])
        out = decompress_array(compress_array(video, "mp4"), "mp4")
        assert (out.shape, _crc(out)) == MP4_GOLDEN


def _idctn_decode(payload):
    """One image through the decoder the basis gemm replaced: dequantize,
    then ``scipy.fft.idctn`` over each block's two length-8 axes."""
    h, w, c, quality = _HEADER.unpack_from(payload, 4)
    hb, wb = -(-h // 8), -(-w // 8)
    quant = np.frombuffer(zlib.decompress(payload[_HEADER_LEN:]),
                          dtype=np.int16).reshape(8, 8, c, hb, wb).copy()
    dc = quant[0, 0].reshape(c, hb * wb)
    np.add.accumulate(dc, axis=1, dtype=np.int16, out=dc)
    qt = image._quality_table(quality)[:, :, None, None, None]
    coeffs = np.multiply(quant, qt, dtype=np.float32)
    pixels = idctn(coeffs, axes=(0, 1), norm="ortho") + 128.0
    pixels = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
    out = pixels.transpose(3, 0, 4, 1, 2).reshape(hb * 8, wb * 8, c)
    out = out[:h, :w]
    return out[..., 0] if c == 1 else out


class TestBasisDecodeMatchesIdctn:
    QUALITIES = (1, 10, 50, 90, 100)
    SIZES = ((1, 1), (8, 8), (37, 53), (64, 64), (96, 96), (128, 128))

    def test_every_pixel_within_one_and_almost_all_equal(self):
        rng = np.random.default_rng(39)
        pixels = differ = 0
        for quality in self.QUALITIES:
            codec = JpegSim("jpeg_q", quality=quality)
            shapes = [size + channels for size in self.SIZES
                      for channels in ((), (3,), (4,))]
            payloads = [codec.compress(_image(rng, shape, kind))
                        for shape in shapes for kind in ("smooth", "noise")]
            for got, payload in zip(codec.decompress_many(payloads),
                                    payloads):
                want = _idctn_decode(payload)
                assert got.shape == want.shape and got.dtype == np.uint8
                gap = np.abs(got.astype(np.int16) - want)
                assert gap.max(initial=0) <= 1
                pixels += gap.size
                differ += int(np.count_nonzero(gap))
        assert pixels > 2_000_000
        assert differ <= 1e-4 * pixels


_ONE_THREAD_PROBE = textwrap.dedent("""
    import time
    import numpy as np
    from repro.compression import get_codec
    from repro.workloads import smooth_image

    codec = get_codec("jpeg")
    rng = np.random.default_rng(0)
    payloads = [codec.compress(smooth_image(rng, 96, 96, 3))
                for _ in range(9)]
    codec.decompress_many(payloads)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while time.perf_counter() - wall0 < 0.4:
        codec.decompress_many(payloads)
    print(time.process_time() - cpu0, time.perf_counter() - wall0)
""")


class TestDecodeStaysOnTheCallingThread:
    def test_a_decode_loop_uses_no_more_cpu_than_wall_time(self):
        """A decode must not start BLAS threads: two loader workers would
        then oversubscribe the cores.  A fresh process, so that no other
        test's threads count."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", _ONE_THREAD_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        cpu, wall = map(float, done.stdout.split())
        assert wall >= 0.3
        assert cpu <= 1.3 * wall, (cpu, wall)


class TestDecompressMany:
    @pytest.mark.parametrize("codec_name", ["jpeg", "jpeg_low"])
    @pytest.mark.parametrize("n", [1, 5, 16, 37])
    def test_a_batch_equals_one_at_a_time_in_order(self, rng, codec_name, n):
        codec = get_codec(codec_name)
        payloads = _payloads(codec_name, n, rng)
        batch = codec.decompress_many(payloads)
        assert len(batch) == n
        for got, payload in zip(batch, payloads):
            want = codec.decompress(payload)
            assert got.shape == want.shape and got.dtype == np.uint8
            assert got.tobytes() == want.tobytes()

    def test_a_mixed_shape_batch_keeps_request_order(self, rng):
        codec = get_codec("jpeg")
        shapes = [(64, 64, 3), (37, 53, 3), (64, 64, 3), (8, 8, 3),
                  (20, 28), (64, 64, 3), (16, 24, 1), (37, 53, 3)]
        kinds = ["smooth", "noise"] * 4
        payloads = [codec.compress(_image(rng, s, k))
                    for s, k in zip(shapes, kinds)]
        payloads.insert(3, get_codec("jpeg_low").compress(
            _image(rng, (64, 64, 3), "smooth")))  # another quality
        batch = codec.decompress_many(payloads)
        assert [a.shape for a in batch] == [
            codec.decompress(p).shape for p in payloads]
        for got, payload in zip(batch, payloads):
            assert got.tobytes() == codec.decompress(payload).tobytes()

    def test_empty_images_decode_to_their_shape(self):
        payloads = [compress_array(np.zeros(shape, np.uint8), "jpeg")
                    for shape in [(0, 8, 3), (8, 0, 3), (0, 8, 3)]]
        assert [a.shape for a in decompress_arrays(payloads, "jpeg")] == [
            (0, 8, 3), (8, 0, 3), (0, 8, 3)]

    def test_bytes_like_payloads_decode_alike(self, rng):
        codec = get_codec("jpeg")
        payloads = _payloads("jpeg", 3, rng)
        views = [memoryview(p) for p in payloads]
        for a, b in zip(codec.decompress_many(views),
                        codec.decompress_many(payloads)):
            assert a.tobytes() == b.tobytes()

    def test_a_run_is_cut_at_the_batch_cap(self, rng, monkeypatch):
        codec = get_codec("jpeg")
        payloads = _payloads("jpeg", 16, rng)
        want = [codec.decompress(p).tobytes() for p in payloads]
        # three 64x64x3 images per kernel call
        monkeypatch.setattr(image, "DECODE_BATCH_BYTES", 3 * 64 * 64 * 3)
        samples = obs.REGISTRY.value("compression.samples_decoded",
                                     codec="jpeg")
        batches = obs.REGISTRY.value("compression.decode_batches",
                                     codec="jpeg")
        got = codec.decompress_many(payloads)
        assert [a.tobytes() for a in got] == want
        assert obs.REGISTRY.value("compression.samples_decoded",
                                  codec="jpeg") - samples == 16
        assert obs.REGISTRY.value("compression.decode_batches",
                                  codec="jpeg") - batches == 6

    def test_other_codecs_decode_a_column_one_sample_at_a_time(self, rng):
        arrays = [rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
                  for _ in range(4)]
        for name in ("png", "lz4"):
            payloads = [compress_array(a, name) for a in arrays]
            before = [obs.REGISTRY.value(m, codec=name) for m in METERS]
            got = decompress_arrays([memoryview(p) for p in payloads], name)
            assert all(np.array_equal(g, a) for g, a in zip(got, arrays))
            # the whole call is one metered batch
            assert [obs.REGISTRY.value(m, codec=name) - b
                    for m, b in zip(METERS, before)] == [4, 1, 1]


class TestColumnRead:
    def test_a_plan_is_one_codec_call_across_chunks(self, rng, monkeypatch):
        images = [smooth_image(rng, 32, 32, 3) for _ in range(40)]
        ds = _image_dataset(images, max_chunk_size=16 * 1024)
        assert ds.img.engine.enc.num_chunks > 2
        codec = get_codec("jpeg")
        calls, decode = [], codec.decompress_many

        def recording(payloads):
            calls.append(len(payloads))
            return decode(payloads)

        monkeypatch.setattr(codec, "decompress_many", recording)
        rows = [39, 0, 17, 5, 33, 21]
        got = ds.read_rows(rows, ["img"])["img"]
        assert calls == [len(rows)]
        want = [decompress_array(compress_array(images[r], "jpeg"), "jpeg")
                for r in rows]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_a_column_read_peaks_at_its_output_plus_a_few_batches(self, rng):
        ds = _image_dataset([smooth_image(rng, 64, 64, 3)
                             for _ in range(512)])
        rows = list(range(512))
        ds.read_rows(rows, ["img"])  # the chunks are resident from here
        tracemalloc.start()
        try:
            values = ds.read_rows(rows, ["img"])["img"]
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = 512 * 64 * 64 * 3
        assert len(values) == 512
        assert peak <= output + 8 * image.DECODE_BATCH_BYTES

    def test_a_read_is_metered_and_traced(self, rng):
        ds = _image_dataset([smooth_image(rng, 24, 24, 3)
                             for _ in range(12)])
        value = obs.REGISTRY.value
        before = [value(name, codec="jpeg") for name in METERS]
        with obs.trace("read") as root:
            ds.read_rows(list(range(12)), ["img"])
        spans = [s for s in obs.flatten(root)
                 if s["name"] == "compression.decode_batch"]
        assert [s["attrs"] for s in spans] == [{"codec": "jpeg",
                                                "samples": 12}]
        # samples, batches, and one seconds observation per batch
        assert [value(name, codec="jpeg") - b
                for name, b in zip(METERS, before)] == [12, 1, 1]


class TestBadPayloads:
    @pytest.mark.parametrize("bad", [0, 7, 15])
    @pytest.mark.parametrize(
        "kind", ["corrupt", "foreign", "truncated", "mismatched"])
    def test_a_bad_payload_fails_the_read_and_leaves_the_handle_usable(
        self, rng, monkeypatch, bad, kind
    ):
        images = [smooth_image(rng, 24, 24, 3) for _ in range(16)]
        codec = get_codec("jpeg")
        good = codec.compress(images[bad])
        payload = {
            "corrupt": good[:15] + b"\x00" * 8 + good[23:],
            "foreign": compress_array(images[bad], "png"),
            "truncated": good[:9],
            # a 24x24 header over a 16x16 image's coefficients
            "mismatched":
                good[:15] + codec.compress(images[bad][:16, :16])[15:],
        }[kind]
        encode = codec.compress

        def storing_one_bad(array):
            return payload if np.array_equal(array, images[bad]) \
                else encode(array)

        monkeypatch.setattr(codec, "compress", storing_one_bad)
        ds = _image_dataset(images)
        monkeypatch.undo()

        with pytest.raises(SampleCompressionError, match="jpeg"):
            ds.read_rows(list(range(16)), ["img"])
        with pytest.raises(SampleCompressionError, match="jpeg"):
            ds.img[bad].numpy()
        rows = [r for r in range(16) if r != bad]
        got = ds.read_rows(rows, ["img"])["img"]
        for r, value in zip(rows, got):
            want = codec.decompress(codec.compress(images[r]))
            assert value.tobytes() == want.tobytes()
