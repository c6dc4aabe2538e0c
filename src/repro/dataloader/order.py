"""Order planning for the streaming dataloader (§3.5).

"One of the key access patterns of Deep Lake is shuffled stream access for
training machine learning models."  Three strategies with different
randomness/locality trade-offs (ablation A3 measures them):

- ``sequential`` — storage order; maximal chunk locality, zero randomness
  (the loader's ``shuffle=False``);
- ``naive`` — a full uniform permutation; maximal randomness, worst
  locality (every sample is a random chunk hit).  Not a loader mode: the
  yardstick the tests and ablation A3 compare the chunk-aware order with;
- ``chunk`` (the loader's ``shuffle=True``) — shuffle *chunk order*, then shuffle
  sample order inside a window of several chunks.  Chunks are still
  fetched whole and sequentially-ish while the model sees a well-mixed
  stream — this is how the format avoids "a separate compute cluster for
  running [the] shuffling algorithm".

``shuffle_quality`` quantifies mixing as the mean normalised displacement
of samples from their storage positions (1.0 ≈ perfectly mixed).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def sequential_order(rows: Sequence[int]) -> List[int]:
    return list(rows)


def naive_shuffle(rows: Sequence[int], seed: Optional[int] = None) -> List[int]:
    rng = np.random.default_rng(seed)
    rows = list(rows)
    rng.shuffle(rows)
    return rows


def chunk_aware_shuffle(
    rows: Sequence[int],
    chunk_ranges: Sequence[Tuple[str, int, int]],
    seed: Optional[int] = None,
    window_chunks: int = 8,
) -> List[int]:
    """Shuffle chunk order, then samples within windows of chunks.

    *chunk_ranges* is ``engine.chunk_layout()`` of the dominant tensor:
    (chunk_name, start_sample, end_sample) rows in storage order.
    """
    rng = np.random.default_rng(seed)
    rowset = set(rows)
    groups: List[List[int]] = []
    covered = set()
    for _name, start, end in chunk_ranges:
        group = [i for i in range(start, end) if i in rowset]
        covered.update(group)
        if group:
            groups.append(group)
    stray = [i for i in rows if i not in covered]
    if stray:
        groups.append(list(stray))
    order = rng.permutation(len(groups))
    out: List[int] = []
    window: List[int] = []
    for gi, g in enumerate(order):
        window.extend(groups[g])
        if (gi + 1) % max(1, window_chunks) == 0:
            rng.shuffle(window)
            out.extend(window)
            window = []
    rng.shuffle(window)
    out.extend(window)
    return out


def buffer_shuffle_iter(iterator, buffer_size: int, seed: Optional[int] = None):
    """Streaming reservoir shuffle (the WebDataset-style baseline)."""
    rng = np.random.default_rng(seed)
    buffer = []
    for item in iterator:
        buffer.append(item)
        if len(buffer) >= buffer_size:
            j = int(rng.integers(0, len(buffer)))
            buffer[j], buffer[-1] = buffer[-1], buffer[j]
            yield buffer.pop()
    while buffer:
        j = int(rng.integers(0, len(buffer)))
        buffer[j], buffer[-1] = buffer[-1], buffer[j]
        yield buffer.pop()


def shard_for_rank(rows: Sequence[int], rank: int, world_size: int,
                   drop_tail: bool = True) -> List[int]:
    """Round-robin sharding for distributed training (Fig 10)."""
    if world_size <= 1:
        return list(rows)
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} outside world of {world_size}")
    shard = list(rows[rank::world_size])
    if drop_tail:
        per_rank = len(rows) // world_size
        shard = shard[:per_rank]
    return shard


def shuffle_quality(order: Sequence[int]) -> float:
    """Mean |displacement| / (n/3): 0 = unshuffled, ~1 = uniform random."""
    order = np.asarray(order)
    n = len(order)
    if n < 2:
        return 0.0
    positions = np.arange(n)
    expected_random = n / 3.0  # E|i - j| for uniform permutation
    return float(np.mean(np.abs(order - positions)) / expected_random)


def chunk_locality(order: Sequence[int],
                   chunk_ranges: Sequence[Tuple[str, int, int]]) -> float:
    """Fraction of consecutive reads that stay within one chunk.

    Higher = fewer chunk switches = fewer storage requests while
    streaming.  Sequential order scores ~1; naive shuffle ~chunk/n.
    """
    if len(order) < 2:
        return 1.0
    bounds = []
    for _name, start, end in chunk_ranges:
        bounds.append((start, end))
    def chunk_of(i: int) -> int:
        for ci, (s, e) in enumerate(bounds):
            if s <= i < e:
                return ci
        return -1
    stays = 0
    prev = chunk_of(order[0])
    for i in order[1:]:
        cur = chunk_of(i)
        if cur == prev:
            stays += 1
        prev = cur
    return stays / (len(order) - 1)
