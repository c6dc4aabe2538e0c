"""Chunk binary format and the TSF encoders (index maps)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunk import Chunk
from repro.core.encoders import (
    ChunkIdEncoder,
    PadEncoder,
    SequenceEncoder,
    TileEncoder,
)
from repro.exceptions import ChunkCorruptedError, SampleIndexError


class TestChunk:
    def test_append_read_roundtrip(self):
        c = Chunk(dtype="uint8")
        c.append(b"hello", (5,))
        c.append(b"worlds!", (7,))
        assert c.num_samples == 2
        assert c.read_bytes(0) == b"hello"
        assert c.read_bytes(1) == b"worlds!"
        assert c.read_shape(1) == (7,)

    def test_serialise_roundtrip(self):
        c = Chunk(dtype="float32")
        c.append(b"\x01\x02", (2,))
        c.append(b"", (0,))
        c.append(b"\x03\x04\x05", (3,))
        out = Chunk.frombytes(c.tobytes(), name=c.name)
        assert out.dtype == "float32"
        assert [out.read_bytes(i) for i in range(3)] == [
            b"\x01\x02", b"", b"\x03\x04\x05"
        ]
        assert out.shapes == c.shapes

    def test_chunk_compressed_roundtrip(self):
        c = Chunk(dtype="int64")
        for i in range(10):
            c.append(bytes([i]) * 64, (8,))
        blob = c.tobytes("lz4")
        raw = c.tobytes(None)
        assert len(blob) < len(raw)
        out = Chunk.frombytes(blob)
        assert out.read_bytes(3) == bytes([3]) * 64

    def test_header_then_range_reads(self):
        """The partial-read protocol: header probe, then exact ranges."""
        c = Chunk(dtype="uint8")
        payloads = [bytes([i]) * (10 + i) for i in range(5)]
        for i, p in enumerate(payloads):
            c.append(p, (len(p),))
        blob = c.tobytes()
        hlen = Chunk.peek_header_len(blob[:8])
        header = Chunk.parse_header(blob[:hlen])
        for i, p in enumerate(payloads):
            start, end = header.sample_range(i)
            assert blob[start:end] == p
            assert header.sample_shape(i) == (len(p),)

    def test_update_in_place(self):
        c = Chunk(dtype="uint8")
        c.append(b"aaa", (3,))
        c.append(b"bbb", (3,))
        c.update(0, b"XXXXX", (5,))
        assert c.read_bytes(0) == b"XXXXX"
        assert c.read_bytes(1) == b"bbb"
        assert c.read_shape(0) == (5,)

    def test_bad_magic(self):
        with pytest.raises(ChunkCorruptedError):
            Chunk.frombytes(b"NOPE" + b"\x00" * 100)

    def test_truncated_data_detected(self):
        c = Chunk(dtype="uint8")
        c.append(b"x" * 100, (100,))
        blob = c.tobytes()
        with pytest.raises(ChunkCorruptedError):
            Chunk.frombytes(blob[:-50])

    def test_rank_mismatch_rejected(self):
        c = Chunk(dtype="uint8")
        c.append(b"x", (1,))
        with pytest.raises(ChunkCorruptedError):
            c.append(b"y", (1, 1))

    def test_can_fit(self):
        c = Chunk(dtype="uint8")
        assert c.can_fit(10**9, 100)  # first sample always fits
        c.append(b"x" * 80, (80,))
        assert c.can_fit(20, 100)
        assert not c.can_fit(21, 100)

    @given(
        payloads=st.lists(st.binary(max_size=64), min_size=1, max_size=12),
        cc=st.sampled_from([None, "lz4", "zstd"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_serialise_roundtrip(self, payloads, cc):
        c = Chunk(dtype="uint8")
        for p in payloads:
            c.append(p, (len(p),))
        out = Chunk.frombytes(c.tobytes(cc))
        assert [out.read_bytes(i) for i in range(len(payloads))] == [
            bytes(p) for p in payloads
        ]


class TestChunkIdEncoder:
    def test_register_and_translate(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(100, 3)
        enc.register_chunk(200, 2)
        assert enc.num_samples == 5
        assert enc.translate(0) == (100, 0)
        assert enc.translate(2) == (100, 2)
        assert enc.translate(3) == (200, 0)
        assert enc.translate(4) == (200, 1)

    def test_register_samples_extends_last(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(1, 0)
        enc.register_samples(4)
        assert enc.num_samples == 4
        assert enc.samples_in_last_chunk() == 4

    def test_out_of_range(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(1, 2)
        with pytest.raises(SampleIndexError):
            enc.translate(2)
        with pytest.raises(SampleIndexError):
            enc.translate(-1)

    def test_tiled_sample_rows(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(1, 2)
        enc.register_tiled_sample([10, 11, 12])
        enc.register_chunk(2, 1)
        assert enc.num_samples == 4
        assert enc.tile_chunk_ids(2) == [10, 11, 12]
        assert enc.translate(2) == (10, 0)
        assert enc.translate(3) == (2, 0)
        assert not enc.is_tiled(0)
        assert enc.is_tiled(2)

    def test_name_id_roundtrip(self):
        from repro.util.ids import new_chunk_name

        name = new_chunk_name()
        cid = ChunkIdEncoder.id_from_name(name)
        assert ChunkIdEncoder.name_from_id(cid) == name

    def test_serialise_roundtrip(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(7, 3)
        enc.register_tiled_sample([8, 9])
        out = ChunkIdEncoder.frombytes(enc.tobytes())
        assert out.num_samples == enc.num_samples
        assert out.chunk_ranges() == enc.chunk_ranges()

    def test_nbytes_is_16_per_row(self):
        """The §3.4 scaling claim: encoder size is per-chunk, ~16B/row."""
        enc = ChunkIdEncoder()
        for i in range(1000):
            enc.register_chunk(i, 100)
        assert enc.nbytes == pytest.approx(16 * 1000, abs=64)
        assert enc.num_samples == 100_000

    def test_chunk_ranges(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(1, 2)
        enc.register_chunk(2, 3)
        assert enc.chunk_ranges() == [(1, 0, 2), (2, 2, 5)]

    @given(counts=st.lists(st.integers(1, 20), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_property_bisect_consistent(self, counts):
        """translate() agrees with a naive linear scan for every index."""
        enc = ChunkIdEncoder()
        mapping = []
        for ci, count in enumerate(counts):
            enc.register_chunk(ci + 1, count)
            mapping.extend((ci + 1, local) for local in range(count))
        assert enc.num_samples == len(mapping)
        for i, expected in enumerate(mapping):
            assert enc.translate(i) == expected


class TestSequenceEncoder:
    def test_ranges(self):
        enc = SequenceEncoder()
        enc.register(3)
        enc.register(0)
        enc.register(2)
        assert enc.num_samples == 3
        assert enc.num_items == 5
        assert enc.item_range(0) == (0, 3)
        assert enc.item_range(1) == (3, 3)
        assert enc.item_range(2) == (3, 5)

    def test_out_of_range(self):
        enc = SequenceEncoder()
        with pytest.raises(SampleIndexError):
            enc.item_range(0)

    def test_roundtrip(self):
        enc = SequenceEncoder()
        enc.register(4)
        enc.register(1)
        out = SequenceEncoder.frombytes(enc.tobytes())
        assert out.item_range(1) == (4, 5)


class TestPadEncoder:
    def test_pad_unpad(self):
        enc = PadEncoder()
        enc.pad(3)
        enc.pad(5)
        assert enc.is_padded(3)
        enc.unpad(3)
        assert not enc.is_padded(3)
        assert enc.indices() == [5]

    def test_roundtrip(self):
        enc = PadEncoder()
        for i in (1, 4, 9):
            enc.pad(i)
        out = PadEncoder.frombytes(enc.tobytes())
        assert out.indices() == [1, 4, 9]


class TestTileEncoder:
    def test_layout_roundtrip(self):
        enc = TileEncoder()
        enc.register(4, (1000, 900, 3), (256, 256, 3))
        assert 4 in enc
        assert 3 not in enc
        out = TileEncoder.frombytes(enc.tobytes())
        assert out.layout(4) == ((1000, 900, 3), (256, 256, 3))

    def test_unregister(self):
        enc = TileEncoder()
        enc.register(1, (10,), (5,))
        enc.unregister(1)
        assert 1 not in enc
