"""T1 — §3.4 scaling claim: "a single chunk encoder can be scaled to
billions of images while maintaining a 150MB chunk encoder per 1PB tensor
data", with O(log n) lookups.

The encoder stores 16 bytes per *chunk row*, so its size per PB depends
on mean chunk size.  The harness measures bytes/row empirically, then
extrapolates to 1 PB for several mean chunk sizes, and times lookups on a
multi-million-sample encoder.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table, scaled
from repro.core.encoders import ChunkIdEncoder


def test_encoder_size_per_pb(benchmark):
    n_chunks = scaled(200_000, minimum=10_000)
    samples_per_chunk = 80

    def build():
        enc = ChunkIdEncoder()
        for i in range(n_chunks):
            enc.register_chunk(i + 1, samples_per_chunk)
        return enc

    enc = benchmark.pedantic(build, rounds=1, iterations=1)
    bytes_per_row = enc.nbytes / n_chunks

    rows = []
    for mean_chunk_mb in (8, 64, 512):
        chunks_per_pb = (1 << 50) / (mean_chunk_mb << 20)
        size_mb = chunks_per_pb * bytes_per_row / (1 << 20)
        rows.append({
            "mean_chunk_size_MB": mean_chunk_mb,
            "encoder_MB_per_PB": round(size_mb, 1),
            "samples_at_1PB_millions": round(
                chunks_per_pb * samples_per_chunk / 1e6
            ),
        })
    print_table(
        "T1 | chunk-encoder footprint extrapolated to 1 PB "
        f"(measured {bytes_per_row:.1f} B/row over {n_chunks} chunks)",
        rows,
        note="paper claims 150 MB/PB; holds for ~0.5-1 GB mean chunks "
             "(e.g. video); 8 MB chunks give ~2 GB/PB — shard the encoder",
    )
    assert bytes_per_row <= 20  # compressed index map: O(16B) per chunk
    # billions of samples in one encoder stay trivially in memory
    billion_scale_mb = (1e9 / samples_per_chunk) * bytes_per_row / (1 << 20)
    assert billion_scale_mb < 500


def test_encoder_lookup_speed(benchmark):
    n_chunks = scaled(100_000, minimum=10_000)
    enc = ChunkIdEncoder()
    for i in range(n_chunks):
        enc.register_chunk(i + 1, 100)
    total = enc.num_samples
    rng = np.random.default_rng(0)
    queries = rng.integers(0, total, size=10_000)

    def lookups():
        for q in queries:
            enc.locate(int(q))

    benchmark.pedantic(lookups, rounds=3, iterations=1)
    per_lookup_us = benchmark.stats.stats.mean / len(queries) * 1e6
    print_table(
        "T1 | encoder lookup latency (bisect over the index map)",
        [{
            "samples": total,
            "chunks": n_chunks,
            "lookup_us": round(per_lookup_us, 2),
        }],
    )
    assert per_lookup_us < 100


def test_encoder_serialised_roundtrip_speed(benchmark):
    n_chunks = scaled(100_000, minimum=10_000)
    enc = ChunkIdEncoder()
    for i in range(n_chunks):
        enc.register_chunk(i + 1, 100)

    def roundtrip():
        return ChunkIdEncoder.frombytes(enc.tobytes())

    out = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert out.num_samples == enc.num_samples
