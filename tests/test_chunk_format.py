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

    def test_copy_replaces_one_sample_and_leaves_the_chunk(self):
        c = Chunk(dtype="uint8")
        for payload in (b"aaa", b"bbb", b"cc"):
            c.append(payload, (len(payload),))
        c.seal()
        out = c.copy([(1, b"XXXXX", (5,))])
        assert out.name != c.name and isinstance(out.data, bytearray)
        got = [out.read_bytes(i) for i in range(3)]
        assert got == [b"aaa", b"XXXXX", b"cc"]
        assert out.shapes == [(3,), (5,), (2,)]
        assert out.byte_positions == [(0, 3), (3, 8), (8, 10)]
        assert [c.read_bytes(i) for i in range(3)] == [b"aaa", b"bbb", b"cc"]
        assert c.shapes == [(3,), (3,), (2,)] and c.data == b"aaabbbcc"

    def test_copy_replaces_many_samples_in_one_pass(self):
        """Every replacement of one fork goes into one copy: the bytes
        between replaced samples move as they are and the later samples'
        positions follow the size changes; no replacement is a plain copy."""
        c = Chunk(dtype="uint8")
        for payload in (b"aa", b"bbb", b"c", b"dddd", b"ee"):
            c.append(payload, (len(payload),))
        c.seal()
        out = c.copy([(0, b"A", (1,)), (3, b"DDDDDD", (6,)), (4, b"", (0,))])
        assert [out.read_bytes(i) for i in range(5)] == [
            b"A", b"bbb", b"c", b"DDDDDD", b""]
        assert out.byte_positions == [(0, 1), (1, 4), (4, 5), (5, 11),
                                      (11, 11)]
        assert out.shapes == [(1,), (3,), (1,), (6,), (0,)]
        assert c.data == b"aabbbcddddee"
        same = c.copy()
        assert same.name != c.name and isinstance(same.data, bytearray)
        assert (bytes(same.data), same.byte_positions, same.shapes) == (
            c.data, c.byte_positions, c.shapes)

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


    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    @pytest.mark.parametrize("cc", [None, "lz4"])
    def test_frombytes_lists_equal_per_element_construction(self, shape, cc):
        """``.tolist()`` decoding builds the same lists, of the same types
        (``int``, ``tuple``), as converting element by element did."""
        c = Chunk(dtype="uint8")
        size = int(np.prod(shape))
        for i in range(7):
            c.append(bytes([i]) * size, shape)
        blob = c.tobytes(cc)
        header = Chunk.parse_header(blob[:Chunk.peek_header_len(blob[:8])])
        shapes = [tuple(int(x) for x in row) for row in header.shapes]
        positions = [(int(s), int(e)) for s, e in header.byte_positions]
        out = Chunk.frombytes(blob)
        assert out.shapes == shapes == [shape] * 7
        assert out.byte_positions == positions
        for row in out.shapes + out.byte_positions:
            assert type(row) is tuple
            assert all(type(x) is int for x in row)

    def test_decoded_chunk_is_sealed_and_its_copy_takes_appends(self):
        c = Chunk(dtype="int64")
        for i in range(4):
            c.append(np.full(3, i, dtype=np.int64).tobytes(), (3,))
        out = Chunk.frombytes(c.tobytes())
        assert isinstance(out.data, bytes)
        resumed = out.copy()
        resumed.append(np.full(3, 9, dtype=np.int64).tobytes(), (3,))
        assert isinstance(resumed.data, bytearray)
        assert resumed.read_bytes(4) == np.full(3, 9, dtype=np.int64).tobytes()
        assert resumed.read_bytes(0) == c.read_bytes(0)
        assert out.num_samples == 4 and out.data == bytes(c.data)

    def test_dense_view_of_fixed_shape_raw_samples(self):
        dtype = np.dtype("int64")
        c = Chunk(dtype="int64")
        want = np.arange(12, dtype=np.int64).reshape(4, 3)
        for row in want:
            c.append(row.tobytes(), (3,))
        assert c.dense(dtype) is None  # still being written: not sealed
        out = Chunk.frombytes(c.tobytes("lz4"))
        dense = out.dense(dtype)
        assert np.array_equal(dense, want) and dense.dtype == dtype
        assert not dense.flags.writeable  # a view of chunk memory
        assert out.dense(dtype) is dense  # verified once, then cached
        # a live view must not pin the chunk against a resumed append,
        # which writes a copy
        out = out.copy()
        out.append(np.full(3, 7, dtype=np.int64).tobytes(), (3,))
        assert out.dense(dtype) is None
        assert np.array_equal(dense, want)
        out.seal()
        assert out.dense(dtype).shape == (5, 3)
        out = out.copy([(0, np.full(3, -1, dtype=np.int64).tobytes(), (3,))])
        out.seal()
        assert out.dense(dtype)[0].tolist() == [-1, -1, -1]

    def test_dense_of_a_sealed_chunk_races_a_resumed_append(self):
        """A reader verifying a sealed chunk while a writer resumes it
        (data, then byte_positions, then shapes grow) views the samples
        it saw, never mixing the two lengths."""
        dtype = np.dtype("int64")
        want = np.arange(12, dtype=np.int64).reshape(4, 3)
        c = Chunk(dtype="int64")
        for row in want:
            c.append(row.tobytes(), (3,))
        c.seal()

        class Resumed(list):
            def count(self, value):  # the writer runs between two checks
                c.data = bytearray(c.data) + bytes(24)
                c.byte_positions.append((96, 120))
                return super().count(value)

        c.shapes = Resumed(c.shapes)
        assert np.array_equal(c.dense(dtype), want)

    @pytest.mark.parametrize("shapes", [
        [(3,), (2,)],       # ragged
        [(0,), (0,)],       # empty samples: nothing to view
        [],                 # no samples
    ])
    def test_dense_is_none_without_one_shape(self, shapes):
        c = Chunk(dtype="int64")
        for shape in shapes:
            c.append(b"\x00" * 8 * int(np.prod(shape)), shape)
        c.seal()
        assert c.dense(np.dtype("int64")) is None

    def test_dense_is_none_for_encoded_payloads(self):
        """Same shape recorded for every sample, but the payloads are not
        the raw arrays (sample compression): byte ranges give it away."""
        c = Chunk(dtype="uint8")
        for n in (10, 12, 9):
            c.append(b"\x01" * n, (4, 4))
        c.seal()
        assert c.dense(np.dtype("uint8")) is None


class TestChunkIdEncoder:
    def test_register_and_translate(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(100, 3)
        enc.register_chunk(200, 2)
        assert enc.num_samples == 5
        assert [enc.locate(i) for i in range(5)] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

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
            enc.locate(2)
        with pytest.raises(SampleIndexError):
            enc.locate(-1)

    def test_tiled_sample_rows(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(1, 2)
        enc.register_tiled_sample([10, 11, 12])
        enc.register_chunk(2, 1)
        assert enc.num_samples == 4
        assert enc.tile_chunk_ids(2) == [10, 11, 12]
        assert enc.locate(2) == (1, 0)
        assert enc.locate(3) == (4, 0)

    def test_translate_many_matches_translate(self):
        enc = ChunkIdEncoder()
        enc.register_chunk(1, 2)
        enc.register_tiled_sample([10, 11, 12])
        enc.register_chunk(2, 0)  # an empty row owns no sample
        enc.register_chunk(3, 4)
        indices = np.asarray([6, 0, 2, 3, 3, 1], dtype=np.int64)
        rows, local = enc.translate_many(indices)
        assert list(zip(rows.tolist(), local.tolist())) == [
            enc.locate(i) for i in indices.tolist()]
        assert [enc.chunk_name(r) for r in rows.tolist()] == [
            enc.chunk_name(enc.locate(i)[0]) for i in indices.tolist()
        ]
        enc.register_samples(1)  # the search cache follows the encoder
        assert enc.locate(7) == (5, 4)

    def test_lookup_is_exact_past_2_to_53(self):
        """The stored cumulative column is uint64; mixed with int64
        indices numpy would promote to float64, inexact past 2**53."""
        big = 2 ** 53
        enc = ChunkIdEncoder()
        enc.register_chunk(1, big + 1)
        enc.register_chunk(2, 3)
        enc = ChunkIdEncoder.frombytes(enc.tobytes())
        assert all(type(x) is int for x in enc._cum + enc._ids)
        rows, local = enc.translate_many(
            np.asarray([big, big + 1, big + 3], dtype=np.int64)
        )
        assert rows.tolist() == [0, 1, 1]
        assert local.tolist() == [big, 0, 2]
        assert local.dtype == np.int64
        assert enc.locate(big + 1) == (1, 0)

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
        """locate() agrees with a naive linear scan for every index."""
        enc = ChunkIdEncoder()
        mapping = []
        for ci, count in enumerate(counts):
            enc.register_chunk(ci + 1, count)
            mapping.extend((ci + 1, local) for local in range(count))
        assert enc.num_samples == len(mapping)
        for i, expected in enumerate(mapping):
            row, local = enc.locate(i)
            assert (enc._ids[row], local) == expected


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
        assert all(type(x) is int for x in out._cum)

    def test_item_ranges_match_item_range(self):
        enc = SequenceEncoder()
        for n in (3, 0, 2, 0, 5):
            enc.register(n)
        indices = np.asarray([4, 1, 0, 2, 1], dtype=np.int64)
        starts, ends = enc.item_ranges(indices)
        assert list(zip(starts.tolist(), ends.tolist())) == [
            enc.item_range(i) for i in indices.tolist()
        ]


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
        assert all(type(x) is int for x in out.indices())

    def test_mask_follows_pad_and_unpad(self):
        enc = PadEncoder()
        indices = np.asarray([5, 3, 4, 5], dtype=np.int64)
        assert enc.mask(indices).tolist() == [False] * 4
        enc.pad(5)
        enc.pad(3)
        assert enc.mask(indices).tolist() == [True, True, False, True]
        enc.unpad(3)
        assert enc.mask(indices).tolist() == [True, False, False, True]


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

    def test_mask_follows_register_and_unregister(self):
        enc = TileEncoder()
        indices = np.asarray([0, 1, 1], dtype=np.int64)
        enc.register(1, (10,), (5,))
        assert enc.mask(indices).tolist() == [False, True, True]
        enc.unregister(1)
        assert not enc.mask(indices).any()
