"""Tiling of oversize samples across chunks (§3.4).

"If a sample is larger than the upper bound chunk size, which is the case
for large aerial or microscopy images, the sample is tiled into chunks
across spatial dimensions."  A tiled sample is split on a regular grid;
each tile becomes its own chunk.  The visualizer's viewport streaming
reads only the tiles intersecting a region of interest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import numpy as np

from repro.compression import compress_array
from repro.core import read_plan
from repro.core.encoders import ChunkIdEncoder
from repro.exceptions import SampleIndexError
from repro.util.shape import ceildiv

if TYPE_CHECKING:
    from repro.core.chunk_engine import ChunkEngine


def choose_tile_shape(
    sample_shape: Sequence[int],
    itemsize: int,
    max_tile_bytes: int,
) -> Tuple[int, ...]:
    """Pick a tile shape whose payload fits *max_tile_bytes*.

    Halves the largest dimension repeatedly — keeps tiles roughly square
    across spatial dims while never splitting more than necessary.  Channel
    dims (size <= 4) are never split, matching image layouts.
    """
    tile = [int(x) for x in sample_shape]
    if not tile:
        return ()

    def tile_bytes() -> int:
        n = itemsize
        for d in tile:
            n *= max(1, d)
        return n

    while tile_bytes() > max_tile_bytes:
        # largest splittable dim
        candidates = [i for i, d in enumerate(tile) if d > 4]
        if not candidates:
            break
        i = max(candidates, key=lambda j: tile[j])
        tile[i] = ceildiv(tile[i], 2)
    return tuple(tile)


def grid_shape(sample_shape: Sequence[int], tile_shape: Sequence[int]) -> Tuple[int, ...]:
    return tuple(
        ceildiv(int(s), int(t)) if t else 1
        for s, t in zip(sample_shape, tile_shape)
    )


def num_tiles(sample_shape: Sequence[int], tile_shape: Sequence[int]) -> int:
    n = 1
    for g in grid_shape(sample_shape, tile_shape):
        n *= g
    return n


def tile_slices(
    grid_index: Sequence[int],
    tile_shape: Sequence[int],
    sample_shape: Sequence[int],
) -> Tuple[slice, ...]:
    """Region of the full sample covered by the tile at *grid_index*."""
    return tuple(
        slice(g * t, min((g + 1) * t, s))
        for g, t, s in zip(grid_index, tile_shape, sample_shape)
    )


def iter_grid(grid: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Row-major iteration over an n-dimensional grid."""
    if not grid:
        yield ()
        return
    for flat in range(int(np.prod(grid))):
        idx = []
        rem = flat
        for g in reversed(grid):
            idx.append(rem % g)
            rem //= g
        yield tuple(reversed(idx))


def split(array: np.ndarray, tile_shape: Sequence[int]) -> List[np.ndarray]:
    """Split *array* into row-major tiles (edge tiles may be smaller)."""
    grid = grid_shape(array.shape, tile_shape)
    return [
        np.ascontiguousarray(array[tile_slices(g, tile_shape, array.shape)])
        for g in iter_grid(grid)
    ]


def payloads(array: np.ndarray, tile_shape: Sequence[int],
             compression) -> List[Tuple[bytes, np.ndarray]]:
    """``(stored payload, tile)`` of each tile of *array* (:func:`split`),
    the payload compressed with the sample *compression*, if any."""
    return [
        (compress_array(tile, compression) if compression
         else tile.tobytes(), tile)
        for tile in split(array, tile_shape)
    ]


def join(
    tiles: Sequence[np.ndarray],
    sample_shape: Sequence[int],
    tile_shape: Sequence[int],
    dtype,
) -> np.ndarray:
    """Recompose the full sample from its row-major tile list."""
    out = np.empty(tuple(int(x) for x in sample_shape), dtype=dtype)
    grid = grid_shape(sample_shape, tile_shape)
    for tile, g in zip(tiles, iter_grid(grid)):
        out[tile_slices(g, tile_shape, sample_shape)] = tile
    return out


def tiles_for_region(
    region: Sequence[slice],
    sample_shape: Sequence[int],
    tile_shape: Sequence[int],
) -> List[Tuple[int, Tuple[int, ...]]]:
    """(flat_tile_index, grid_index) of every tile intersecting *region*.

    Drives viewport streaming: fetch only these tiles' chunks.
    """
    grid = grid_shape(sample_shape, tile_shape)
    ranges = []
    for sl, t, s, g in zip(region, tile_shape, sample_shape, grid):
        start, stop, step = sl.indices(s)
        if step != 1:
            raise ValueError("region slices must be contiguous")
        lo = start // t
        hi = ceildiv(stop, t) if stop > start else lo
        ranges.append(range(lo, max(hi, lo)))
    # remaining dims (not in region) are fully covered
    for t, s, g in zip(
        tile_shape[len(region):], sample_shape[len(region):], grid[len(region):]
    ):
        ranges.append(range(g))

    out = []
    for g in iter_grid(grid):
        if all(gi in r for gi, r in zip(g, ranges)):
            flat = 0
            for gi, gs in zip(g, grid):
                flat = flat * gs + gi
            out.append((flat, g))
    return out


def read_region(engine: "ChunkEngine", index: int,
                region: Sequence[slice]) -> np.ndarray:
    """The *region* of sample *index*: for a tiled sample only the tiles
    intersecting it are fetched (one plan over their chunks), then
    cropped — the visualizer's viewport streaming path.  Every entry of
    *region* must be a slice; missing trailing dims are whole."""
    if not all(isinstance(sl, slice) for sl in region):
        raise SampleIndexError(f"region entries must be slices: {region!r}")
    if index not in engine.tile_enc:
        return read_plan.column_rows(engine.read([index]))[0][tuple(region)]
    sample_shape, tile_shape = engine.tile_enc.layout(index)
    chunk_ids = engine.enc.tile_chunk_ids(index)
    hits = tiles_for_region(region, sample_shape, tile_shape)
    region = tuple(region) + (slice(None),) * (len(sample_shape) - len(region))
    bounds = [sl.indices(s)[:2] for sl, s in zip(region, sample_shape)]
    out = np.zeros([max(0, b - a) for a, b in bounds],
                   dtype=np.dtype(engine.meta.dtype))
    # each intersecting tile is the one sample of its own chunk: one plan
    # over them, so they arrive in one fetch
    plan = read_plan.plan_chunk_heads(engine, [
        ChunkIdEncoder.name_from_id(chunk_ids[flat]) for flat, _g in hits
    ])
    for (_flat, gidx), tile in zip(hits, engine.execute_plan(plan)):
        # intersection of the tile's extent and the requested region
        dst, src = [], []
        for t_sl, (a, b) in zip(tile_slices(gidx, tile_shape, sample_shape),
                                bounds):
            lo, hi = max(t_sl.start, a), min(t_sl.stop, b)
            if hi <= lo:
                break
            dst.append(slice(lo - a, hi - a))
            src.append(slice(lo - t_sl.start, hi - t_sl.start))
        else:
            out[tuple(dst)] = tile[tuple(src)]
    return out
