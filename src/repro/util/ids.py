"""Identifier generation for chunks, commits and samples.

Sample ids are stable identities used by merge to match rows across
branches (paper §4.2: "ids of samples are generated and stored during the
dataset population").  Chunk/commit ids only need uniqueness.

All generation flows through a module RNG so tests can make runs
deterministic via :func:`seed_ids`.
"""

from __future__ import annotations

import random
import threading

import numpy as np

_lock = threading.Lock()
#: sample ids come in arrays; names and ids one at a time, for which a
#: numpy call costs ~30x what Python's generator does
_rng = np.random.default_rng()
_bits = random.Random()


def seed_ids(seed: int | None) -> None:
    """Re-seed the id generators (``None`` restores OS entropy)."""
    global _rng, _bits
    with _lock:
        _rng = np.random.default_rng(seed)
        _bits = random.Random(seed)


def _hex(nbytes: int) -> str:
    with _lock:
        return _bits.randbytes(nbytes).hex()


def new_chunk_name() -> str:
    """8-byte hex chunk blob name.

    Must round-trip through :class:`ChunkIdEncoder`'s uint64 chunk ids
    (``int(name, 16)``), so exactly 16 hex chars.
    """
    return _hex(8)


def new_commit_id() -> str:
    """20-byte hex commit id."""
    return _hex(20)


def new_sample_ids(count: int) -> np.ndarray:
    """*count* random sample identities (stored in a hidden id tensor),
    one uint64 array."""
    with _lock:
        ids = _rng.integers(1, np.iinfo(np.int64).max, size=count,
                            dtype=np.int64)
    return ids.astype(np.uint64)


def new_view_id() -> str:
    return _hex(8)


def new_trace_id() -> str:
    """16-byte hex trace identifier (observability spans)."""
    return _hex(16)


def new_span_id() -> str:
    """8-byte hex span identifier (observability spans)."""
    return _hex(8)
