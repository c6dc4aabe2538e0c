"""ChunkEngine: per-tensor orchestration of the Tensor Storage Format.

One engine owns everything between a tensor's public API and raw storage:

- chunk construction within [min, max] size bounds (§3.4), sample vs chunk
  compression, tiling of oversize samples, the video no-tiling exception;
- the compressed index map (:class:`ChunkIdEncoder`) plus tile / sequence /
  pad encoders;
- version-aware chunk resolution: ``_chunk_sets`` holds the chunk set of
  every commit of the chain, the current one included, read with the rest
  of the tensor's state in one batch; reads take the first commit of the
  chain whose set contains the chunk (§4.2), writes copy-on-write chunks
  owned by ancestor commits;
- reads through its dataset handle's :class:`ChunkCache`, §3.5's "buffer
  cache of fetched and unutilized data" (a bare engine builds its own);
- the on-the-fly :meth:`rechunk` layout optimiser;
- sparse out-of-bounds assignment via padding (strict mode off).

The one read path
-----------------
Chunks exist so that one fetch + one decompress amortizes over many
samples (§3.4–3.5), so every read — one row or a million — is the same
three steps, plan -> fetch -> slice, over arrays.  The steps live in
:mod:`repro.core.read_plan` (its header describes them); this class keeps
the entry points: :meth:`plan_reads` (rows -> :class:`ReadPlan`, one
binary search over :class:`ChunkIdEncoder` per request, each chunk's
storage key resolved against the commit chain once) and
:meth:`execute_plan` (:meth:`FusedReadPlan._fetch_all`, the only routine
that fetches missing chunks, then :func:`read_plan.slice_plan`, the only
slicer), plus the list-returning :meth:`read_batch` / :meth:`read_sample`
/ :meth:`read_items` over them.

The entry point, not a flag, decides the *fetch strategy*.  One-row
entry points — :meth:`read_sample`, a one-row :meth:`read_batch`,
``Tensor[i].numpy()`` — may take §3.5's *ranged* strategy
(:func:`read_plan.fetch_ranged`: header probe + the sample's byte range,
never cached).  Every multi-row or multi-tensor entry point —
:meth:`plan_reads` + :meth:`execute_plan`, :class:`FusedReadPlan`,
``Dataset.read_rows`` and so the dataloader, TQL's column scans and the
Tensor Streaming Server's ``read_batch`` op — fetches whole chunks: a
full-column scan costs one storage GET per chunk, and a single row that
should stream is spelled ``execute_plan(plan_reads([i]))``.
:meth:`read_shapes_batch` answers shape lookups from one header (or
cached chunk) per chunk; the ``chunk_cache_hits`` / ``chunk_cache_misses``
counters make the batching observable from loader stats and per-tenant
serve stats.

The one write path
------------------
Chunks fill in memory, then upload (§3.4–3.5): a finalized chunk — and a
stored chunk modified by :meth:`update` or rewritten by :meth:`rechunk` —
joins ``_pending_chunks``, and :meth:`_serialize_pending` turns the buffer
into the ``set_many`` batch that is the only way a chunk reaches storage:
when an update leaves ``_WATERMARK_CHUNKS`` chunks buffered or the next
append finds that many while it stages (the upload then runs under the
encode pool's work), and at a flush, which hands the engine's state
files to the owning ``Dataset``'s commit manifest (chunks go first, the
manifest publishes them).

Where parallelism lives
-----------------------
The engine runs on its caller's thread.  Parallelism belongs to the
layers that take a user-sized worker count — the dataloader, the serve
transport and ``Pipeline.eval`` — whose worker threads call in here.  The
one exception is chosen by the code, not by a knob: staging a batch for a
sample-compressed tensor maps the codec calls over :func:`_encode_pool`
(:meth:`ChunkEngine._stage_payloads`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compression import (
    compress_array,
    decompress_array,
    get_codec,
)
from repro.core import read_plan
from repro.core.chunk import Chunk, ChunkHeader
from repro.core.chunk_cache import ChunkCache
from repro.core.encoders import (
    ChunkIdEncoder,
    PadEncoder,
    SequenceEncoder,
    TileEncoder,
)
from repro.core.meta import TensorMeta
from repro.core.read_plan import (  # noqa: F401 - PRUNED re-exported
    KIND_PAD,
    KIND_SAMPLE,
    KIND_TILED,
    PRUNED,
    FusedReadPlan,
    ReadPlan,
    column_rows,
)
from repro.core.sample import LinkedSample, Sample
from repro.core.version_state import VersionState
from repro.core import tiling
from repro.core.htypes import validate_sample
from repro.exceptions import (
    FormatError,
    LinkError,
    SampleIndexError,
)
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.storage.provider import StorageProvider
from repro.util import keys as K
from repro.util.json_util import json_dumps, json_loads

_HEADER_PROBE = 4096  # first ranged request size when reading chunk headers

#: Finalized chunks a tensor may buffer before an update, or the staging
#: of the next append, uploads them as one batch.  An append uploads what
#: the *previous* call sealed, so the write buffer holds at most ~8 chunks
#: + the previous extend's sealed chunks + the extend in flight; a
#: row-at-a-time ``append`` loop never holds more than 8 between calls.
_WATERMARK_CHUNKS = 8

_ENCODE_POOL: Optional[ThreadPoolExecutor] = None
_ENCODE_POOL_LOCK = threading.Lock()


def _encode_pool() -> ThreadPoolExecutor:
    """The process-wide pool for sample-codec encodes during staging
    (jpeg/png/lz4 encoders release the GIL), created on first use.  Its
    tasks never submit to it, so callers on any thread may block on it."""
    global _ENCODE_POOL
    with _ENCODE_POOL_LOCK:
        if _ENCODE_POOL is None:
            _ENCODE_POOL = ThreadPoolExecutor(
                max_workers=min(4, os.cpu_count() or 1),
                thread_name_prefix="sample-encode",
            )
        return _ENCODE_POOL


class CommitDiff:
    """Per-tensor per-commit change record (feeds diff & merge, §4.2)."""

    def __init__(self, first_index: int = 0, created: bool = False):
        self.created = created
        self.first_index = int(first_index)  # tensor length at commit start
        self.num_added = 0
        self.updated: Set[int] = set()

    @property
    def added_range(self) -> Tuple[int, int]:
        return self.first_index, self.first_index + self.num_added

    def add(self, count: int = 1) -> None:
        self.num_added += count

    def update(self, index: int) -> None:
        if index < self.first_index or index >= self.first_index + self.num_added:
            self.updated.add(int(index))

    def to_json(self) -> bytes:
        return json_dumps(
            {
                "created": self.created,
                "first_index": self.first_index,
                "num_added": self.num_added,
                "updated": sorted(self.updated),
            }
        )

    @classmethod
    def from_json(cls, data: bytes) -> "CommitDiff":
        obj = json_loads(data)
        diff = cls(obj.get("first_index", 0), obj.get("created", False))
        diff.num_added = obj.get("num_added", 0)
        diff.updated = set(obj.get("updated", []))
        return diff


class WritePlan:
    """Staged samples awaiting an atomic commit — the write mirror of
    :class:`ReadPlan`.

    Staging (:meth:`ChunkEngine.stage_appends`) runs every fallible step —
    coercion, validation, sample compression — *without touching engine
    state*.
    Committing (:meth:`ChunkEngine.commit_appends`) then only moves
    already-serialized payloads into chunks and registers them, under the
    engine lock, with a cheap truncation snapshot so a failure anywhere in
    the batch rolls the engine back to the pre-commit state.

    ``entries`` holds one spec per appended row, in request order:
    ``("flat", value, [(raw, shape, arr)])`` for plain samples (one
    payload) and ``("seq", value, [(raw, shape, arr), ...])`` for sequence
    rows (one payload per item).
    """

    __slots__ = ("tensor", "entries")

    def __init__(self, tensor: str):
        self.tensor = tensor
        self.entries: List[Tuple] = []

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_bytes(self) -> int:
        return sum(
            len(raw) for _k, _v, payloads in self.entries
            for raw, _shape, _arr in payloads
        )

    def __repr__(self) -> str:
        return (
            f"WritePlan(tensor={self.tensor!r}, rows={self.num_rows}, "
            f"bytes={self.num_bytes})"
        )


class ChunkEngine:
    """Reads and writes one tensor's chunks against a storage provider."""

    def __init__(
        self,
        tensor: str,
        storage: StorageProvider,
        version_state: VersionState,
        meta: Optional[TensorMeta] = None,
        state: Optional[Dict[str, bytes]] = None,
        flush_via: Optional[Callable[[], None]] = None,
        cache: Optional[ChunkCache] = None,
    ):
        self.tensor = tensor
        self.storage = storage
        self.version_state = version_state
        # the owning Dataset's flush, which publishes this engine's state
        # in its commit manifest; a bare engine writes enumerated keys
        self._flush_via = flush_via
        self._lock = threading.RLock()

        # the handle's decoded chunks, headers and fetches in flight
        self.cache = cache if cache is not None else ChunkCache()

        # commit id -> names of the chunks that commit owns, for every
        # commit of the chain; ``chunk_set`` is the current commit's entry
        self._chunk_sets: Dict[str, Set[str]] = {}

        # per-chunk column statistics sidecar (min/max/count/shape bounds),
        # the input to predicate pushdown: a chunk whose [min, max] cannot
        # satisfy a WHERE predicate is skipped before any GET.  A missing
        # entry means "never computed"; an explicit ``None`` means the
        # chunk's content is not fully observable (e.g. pre-encoded Sample
        # fast-path appends), so pruning must not trust it.
        self.chunk_stats: Dict[str, Optional[dict]] = {}

        # I/O accounting: all counts are registry-backed metrics.  Each
        # engine keeps *standalone* Counter handles (exact per-engine
        # views, exposed through the read-only properties below — the one
        # source the loader's and serve tier's stats read from) and
        # mirrors every event into the tensor-labeled aggregate series so
        # one registry snapshot explains I/O across all engines.
        reg = _metrics.REGISTRY
        self._c_partial = _metrics.Counter(reg)
        self._c_full = _metrics.Counter(reg)
        self._c_hits = _metrics.Counter(reg)
        self._c_misses = _metrics.Counter(reg)
        self._m_partial = reg.counter(
            "chunk_engine.partial_reads", tensor=tensor
        )
        self._m_full = reg.counter(
            "chunk_engine.full_chunk_reads", tensor=tensor
        )
        self._m_hits = reg.counter(
            "chunk_engine.decoded_cache_hits", tensor=tensor
        )
        self._m_misses = reg.counter(
            "chunk_engine.decoded_cache_misses", tensor=tensor
        )
        self._m_chunks_planned = reg.counter(
            "chunk_engine.chunks_planned", tensor=tensor
        )
        self._m_bytes_decoded = reg.counter(
            "chunk_engine.bytes_decoded", tensor=tensor
        )
        self._h_decode = reg.histogram(
            "chunk_engine.decode_seconds", tensor=tensor
        )
        self._h_plan_chunks = reg.histogram(
            "chunk_engine.plan_chunks", tensor=tensor
        )

        self._m_chunks_flushed = reg.counter(
            "chunk_engine.chunks_flushed", tensor=tensor
        )
        self._h_flush_batch = reg.histogram(
            "chunk_engine.flush_batch_chunks", tensor=tensor
        )

        # write-back chunk being filled by appends (not yet in storage)
        self._active_chunk: Optional[Chunk] = None
        # finalized, updated and rechunked chunks buffered for a batched
        # upload; authoritative until _serialize_pending hands them to
        # storage — every read path consults _mem_chunk() so buffered data
        # stays readable
        self._pending_chunks: "OrderedDict[str, Chunk]" = OrderedDict()

        if meta is not None:
            self.meta = meta
            self.enc = ChunkIdEncoder()
            self.tile_enc = TileEncoder()
            self.seq_enc = SequenceEncoder()
            self.pad_enc = PadEncoder()
            self.commit_diff = CommitDiff(0, created=True)
            self._dirty = True
        else:
            self._load_state(state)

    # ------------------------------------------------------------------ #
    # state load/save
    # ------------------------------------------------------------------ #

    @property
    def commit_id(self) -> str:
        return self.version_state.commit_id

    def _state_key(self, key_fn) -> str:
        return key_fn(self.commit_id, self.tensor)

    @property
    def chunk_set(self) -> Set[str]:
        """Names of the chunks the current commit owns."""
        return self._chunk_sets.setdefault(self.commit_id, set())

    @chunk_set.setter
    def chunk_set(self, names: Set[str]) -> None:
        self._chunk_sets[self.commit_id] = names

    def _load_state(self, blobs: Optional[Dict[str, bytes]] = None) -> None:
        """Resolve the tensor's state from *blobs*, ``{state key: blob}``
        over the chain — handed in by the owning ``Dataset``, from its
        commits' manifests; a bare engine fetches the stored subset of
        ``K.state_keys`` in one ``get_many``.  Meta and encoders come from
        the nearest commit of the chain that wrote them, the stats sidecar
        merges the whole chain, every commit keeps its own chunk set, and
        the commit diff is the current commit's."""
        chain = self.version_state.commit_chain()
        if blobs is None:
            blobs = self.storage.get_many(K.state_keys(chain, self.tensor))

        def nearest(key_fn) -> Optional[bytes]:
            found = (blobs.get(key_fn(cid, self.tensor)) for cid in chain)
            return next((blob for blob in found if blob is not None), None)

        data = nearest(K.tensor_meta_key)
        if data is None:
            raise FormatError(
                f"tensor {self.tensor!r} has no metadata at commit "
                f"{self.commit_id!r}"
            )
        self.meta = TensorMeta.from_json(data)

        enc = nearest(K.chunk_id_encoder_key)
        self.enc = ChunkIdEncoder.frombytes(enc) if enc else ChunkIdEncoder()
        tile = nearest(K.tile_encoder_key)
        self.tile_enc = TileEncoder.frombytes(tile) if tile else TileEncoder()
        seq = nearest(K.sequence_encoder_key)
        self.seq_enc = SequenceEncoder.frombytes(seq) if seq else SequenceEncoder()
        pad = nearest(K.pad_encoder_key)
        self.pad_enc = PadEncoder.frombytes(pad) if pad else PadEncoder()

        # statistics sidecar: merge the whole commit chain, nearest commit
        # wins (a rewritten chunk's fresh stats shadow the ancestor's)
        self.chunk_stats = {}
        for cid in reversed(chain):
            stats = blobs.get(K.chunk_stats_key(cid, self.tensor))
            if stats is not None:
                self.chunk_stats.update(json_loads(stats))
            names = blobs.get(K.chunk_set_key(cid, self.tensor))
            if names is not None:
                self._chunk_sets[cid] = set(json_loads(names))
        # the commit diff belongs strictly to the current commit
        diff = blobs.get(self._state_key(K.commit_diff_key))
        self.commit_diff = (
            CommitDiff.from_json(diff) if diff else CommitDiff(self.meta.length)
        )
        self._dirty = False

    def _encoder_items(self) -> Dict[str, bytes]:
        # the chunk set travels with the encoders: a reader finds every
        # chunk the encoder names through it, so an encoder must never be
        # durable ahead of the chunk set that places its chunks
        items = {
            self._state_key(K.chunk_set_key): json_dumps(
                sorted(self.chunk_set)
            ),
            self._state_key(K.chunk_id_encoder_key): self.enc.tobytes(),
        }
        if self.tile_enc.num_tiled:
            items[self._state_key(K.tile_encoder_key)] = self.tile_enc.tobytes()
        if self.meta.is_sequence:
            items[self._state_key(K.sequence_encoder_key)] = (
                self.seq_enc.tobytes()
            )
        if self.pad_enc.num_padded:
            items[self._state_key(K.pad_encoder_key)] = self.pad_enc.tobytes()
        return items

    def _meta_items(self) -> Dict[str, bytes]:
        items = {
            self._state_key(K.tensor_meta_key): self.meta.to_json(),
        }
        if self.chunk_stats:
            items[self._state_key(K.chunk_stats_key)] = json_dumps(
                self.chunk_stats
            )
        items[self._state_key(K.commit_diff_key)] = self.commit_diff.to_json()
        return items

    def flush(self) -> None:
        """Persist this engine's buffered state for the current commit:
        through the owning ``Dataset.flush`` (every engine's chunks in one
        batch, then the manifest that publishes them), or — for a bare
        engine — its chunks, then its state files at their enumerated
        keys."""
        if self._flush_via is not None:
            self._flush_via()
            return
        with self._lock:
            for items in self.drain_flush_items():
                if items:
                    self.storage.set_many(items)

    def begin_new_commit(self) -> None:
        """Reset per-commit bookkeeping after the head moved to a child.

        Must be called *after* the old state was drained
        (:meth:`drain_flush_items`) and the shared :class:`VersionState`
        points at the new head commit.  Touches no storage and no chunk
        set: the commit just left stays in ``_chunk_sets`` as an ancestor
        (so the next write issues no GET) and the child's own set starts
        empty.  The engine is left clean: until it changes, the child's
        state *is* the sealed commit's, which a reader finds down the
        chain, so the child's manifest need not repeat it.
        """
        with self._lock:
            self._active_chunk = None
            self._pending_chunks.clear()
            self.commit_diff = CommitDiff(self.num_samples)
            self._dirty = False

    @property
    def has_changes(self) -> bool:
        d = self.commit_diff
        return bool(d.num_added or d.updated or d.created)

    # ------------------------------------------------------------------ #
    # chunk storage resolution (version tree walk)
    # ------------------------------------------------------------------ #

    def _chunk_storage_key(self, chunk_name: str) -> str:
        for cid in self.version_state.commit_chain():
            if chunk_name in self._chunk_sets.get(cid, ()):
                return K.chunk_key(cid, self.tensor, chunk_name)
        raise FormatError(
            f"tensor {self.tensor!r}: chunk {chunk_name!r} is in the chunk "
            f"set of no commit reachable from {self.commit_id!r}"
        )

    # ------------------------------------------------------------------ #
    # I/O accounting (registry-backed; ad-hoc int fields are gone)
    # ------------------------------------------------------------------ #

    @property
    def partial_reads(self) -> int:
        """Ranged single-sample reads this engine issued (§3.5 path)."""
        return self._c_partial.value

    @property
    def full_chunk_reads(self) -> int:
        """Whole-chunk fetch+decode operations this engine performed."""
        return self._c_full.value

    @property
    def chunk_cache_hits(self) -> int:
        """Decoded-chunk buffer cache hits (one source of truth; loader
        and serve stats are views over this)."""
        return self._c_hits.value

    @property
    def chunk_cache_misses(self) -> int:
        return self._c_misses.value

    def _decode_chunk(self, blob: bytes, name: str) -> Chunk:
        """Parse *blob* into a Chunk, charging decode accounting."""
        t0 = time.perf_counter()
        chunk = Chunk.frombytes(blob, name=name)
        self._h_decode.observe(time.perf_counter() - t0)
        self._c_full.inc()
        self._m_full.inc()
        self._m_bytes_decoded.inc(len(blob))
        self._lazy_stats(name, chunk)
        return chunk

    def _cached(self, key: str) -> Optional[Chunk]:
        """The cache's chunk at *key*, counted as a hit or a miss of this
        engine (a shape lookup reads ``self.cache`` uncounted)."""
        chunk = self.cache.get(key)
        for counter in ((self._c_hits, self._m_hits) if chunk is not None
                        else (self._c_misses, self._m_misses)):
            counter.inc()
        return chunk

    def _mem_chunk(self, name: str) -> Optional[Chunk]:
        """The in-memory authoritative copy of chunk *name*, if any: the
        active write-back chunk or a finalized chunk still buffered for
        upload.  Every read path checks here before touching storage, so
        buffered writes are immediately readable."""
        active = self._active_chunk
        if active is not None and active.name == name:
            return active
        return self._pending_chunks.get(name)

    def _load_chunk(self, chunk_name: str) -> Chunk:
        mem = self._mem_chunk(chunk_name)
        if mem is not None:
            return mem
        key = self._chunk_storage_key(chunk_name)
        chunk = self._cached(key)
        if chunk is None:
            chunk = self._decode_chunk(self.storage[key], chunk_name)
            self.cache.put(key, chunk)
        return chunk

    def _load_header(self, chunk_name: str) -> ChunkHeader:
        key = self._chunk_storage_key(chunk_name)
        header = self.cache.headers.get(key)
        if header is None:
            prefix = self.storage.get_bytes(key, 0, _HEADER_PROBE)
            hlen = Chunk.peek_header_len(prefix)
            if hlen > len(prefix):
                prefix = self.storage.get_bytes(key, 0, hlen)
            header = Chunk.parse_header(prefix[:hlen])
            self.cache.headers[key] = header
        return header

    # ------------------------------------------------------------------ #
    # chunk statistics sidecar (predicate pushdown input)
    # ------------------------------------------------------------------ #
    #
    # Lakehouse-style per-chunk column statistics: min/max over every
    # element plus shape bounds and a sample count.  Invariant: an entry
    # present in ``chunk_stats`` covers *all* samples of that chunk —
    # writers widen it on every append/update, and anything that cannot
    # be observed (pre-encoded Sample payloads, links) poisons the entry
    # to ``None`` so pruning never trusts a partial view.

    def _stats_eligible(self) -> bool:
        m = self.meta
        if m.is_link or m.is_text or m.is_json or m.dtype is None:
            return False
        return np.dtype(m.dtype).kind in "biuf"

    def _stats_init(self, name: str) -> None:
        self.chunk_stats[name] = {
            "min": None, "max": None, "count": 0,
            "shape_min": None, "shape_max": None,
        }

    def _stats_observe(self, name: str, arr: Optional[np.ndarray],
                       count: int = 1) -> None:
        """Widen chunk *name*'s stats with one observed sample.

        No-op when the chunk has no entry (stats were never initialised
        for it, e.g. pre-PR chunks); poisons the entry when the sample is
        not observable so a stale range can never mis-prune.
        """
        entry = self.chunk_stats.get(name, False)
        if entry is False or entry is None:
            return
        if arr is None or not self._stats_eligible():
            self.chunk_stats[name] = None
            return
        entry["count"] += count
        if arr.size:
            lo = arr.min().item()
            hi = arr.max().item()
            entry["min"] = lo if entry["min"] is None else min(entry["min"], lo)
            entry["max"] = hi if entry["max"] is None else max(entry["max"], hi)
        shape = list(arr.shape)
        for key, fn in (("shape_min", min), ("shape_max", max)):
            prev = entry[key]
            if prev == "n/a":
                continue
            if prev is None:
                entry[key] = shape
            elif len(prev) == len(shape):
                entry[key] = [fn(a, b) for a, b in zip(prev, shape)]
            else:  # mixed rank: no usable bound, permanently
                entry[key] = "n/a"
        self._dirty = True

    def _stats_from_chunk(self, chunk: Chunk) -> Optional[dict]:
        """Full stats for an already-decoded chunk (all samples visible)."""
        self._stats_init(chunk.name)
        for i in range(chunk.num_samples):
            try:
                arr = self._deserialize_sample(
                    chunk.read_bytes(i), chunk.read_shape(i)
                )
            except Exception:  # noqa: BLE001 - undecodable => unprunable
                arr = None
            self._stats_observe(chunk.name, arr)
        return self.chunk_stats.pop(chunk.name)

    def _lazy_stats(self, name: str, chunk: Chunk) -> None:
        """Opportunistic backfill when a pre-stats chunk gets decoded.

        Only for uncompressed-sample tensors, where the chunk's data
        section *is* the concatenated arrays — one ``frombuffer`` covers
        every element with no extra decode work.  In-memory only: reads
        must not trigger writes on possibly read-only datasets, but the
        entry rides along with the next dirty :meth:`flush`.
        """
        if not self._stats_eligible() or self.meta.sample_compression:
            return
        with self._lock:
            if name in self.chunk_stats:
                return
            try:
                flat = np.frombuffer(chunk.data, dtype=np.dtype(self.meta.dtype))
            except ValueError:
                return
            entry = {
                "min": flat.min().item() if flat.size else None,
                "max": flat.max().item() if flat.size else None,
                "count": chunk.num_samples,
                "shape_min": None,
                "shape_max": None,
            }
            shapes = [list(chunk.read_shape(i)) for i in range(chunk.num_samples)]
            if shapes and all(len(s) == len(shapes[0]) for s in shapes):
                entry["shape_min"] = [min(c) for c in zip(*shapes)]
                entry["shape_max"] = [max(c) for c in zip(*shapes)]
            self.chunk_stats[name] = entry

    def backfill_chunk_stats(self) -> int:
        """Compute statistics for every chunk that predates the sidecar.

        Decodes each missing chunk once (any codec) and records full
        stats, so old datasets gain pushdown without a rewrite.  Returns
        the number of chunks backfilled.
        """
        if not self._stats_eligible():
            return 0
        names: List[str] = []
        seen: Set[str] = set()
        for cid, _s, _e in self.enc.chunk_ranges():
            name = ChunkIdEncoder.name_from_id(cid)
            if name not in seen:
                seen.add(name)
                names.append(name)
        done = 0
        for name in names:
            if name in self.chunk_stats:
                continue
            try:
                chunk = self._load_chunk(name)
            except KeyError:
                continue
            self.chunk_stats[name] = self._stats_from_chunk(chunk)
            done += 1
        if done:
            self._dirty = True
            self.flush()
        return done

    def _is_prunable(self, name: str, bounds) -> bool:
        """True iff stats prove no element of chunk *name* can fall in
        every interval of *bounds* (``(lo, hi, lo_open, hi_open)`` each,
        ``None`` meaning unbounded).  Conservative: missing or poisoned
        stats, or an unknown range, keep the chunk."""
        if not bounds:
            return False
        entry = self.chunk_stats.get(name)
        if not entry:
            return False
        cmin, cmax = entry.get("min"), entry.get("max")
        if cmin is None or cmax is None:
            return False
        for lo, hi, lo_open, hi_open in bounds:
            if lo is not None and (cmax < lo or (cmax == lo and lo_open)):
                return True
            if hi is not None and (cmin > hi or (cmin == hi and hi_open)):
                return True
        return False

    # ------------------------------------------------------------------ #
    # serialisation of user samples
    # ------------------------------------------------------------------ #

    def _coerce_array(self, value) -> np.ndarray:
        if self.meta.is_text:
            if isinstance(value, str):
                return np.frombuffer(value.encode("utf-8"), dtype=np.uint8).copy()
        if self.meta.is_json and not isinstance(value, np.ndarray):
            return np.frombuffer(json_dumps(value), dtype=np.uint8).copy()
        arr = np.asarray(value)
        if self.meta.dtype is not None and arr.dtype != np.dtype(self.meta.dtype):
            if arr.dtype.kind in "iuf" and np.dtype(self.meta.dtype).kind in "iufb":
                arr = arr.astype(self.meta.dtype)
        return arr

    def _serialize_sample(self, value) -> Tuple[bytes, Tuple[int, ...], Optional[np.ndarray]]:
        """-> (raw payload, shape, decoded array or None).

        The decoded array is returned when it was materialised anyway, so
        tiling can reuse it without a second decode.
        """
        if isinstance(value, LinkedSample):
            if not self.meta.is_link:
                raise FormatError(
                    f"tensor {self.tensor!r} is not a link tensor; create it "
                    "with htype='link[...]' to append LinkedSamples"
                )
            raw = value.to_bytes()
            return raw, (len(raw),), None

        if self.meta.is_link:
            raise FormatError(
                f"link tensor {self.tensor!r} accepts LinkedSample values "
                "(repro.link(url)), got a raw value"
            )

        if isinstance(value, Sample):
            # fast path: matching codec => copy bytes without decode
            if (
                self.meta.sample_compression
                and value.compression == self.meta.sample_compression
            ):
                raw = value.compressed_bytes(self.meta.sample_compression)
                shape = value.shape
                self.meta.set_dtype_if_unset(
                    np.dtype(self.meta.spec.dtype or "uint8")
                )
                return raw, shape, None
            value = value.array

        arr = self._coerce_array(value)
        validate_sample(self.meta.spec, arr)
        self.meta.set_dtype_if_unset(arr.dtype)
        if np.dtype(self.meta.dtype) != arr.dtype:
            raise FormatError(
                f"tensor {self.tensor!r} holds dtype {self.meta.dtype}, "
                f"sample has {arr.dtype}"
            )
        if self.meta.sample_compression:
            raw = compress_array(arr, self.meta.sample_compression)
        else:
            raw = np.ascontiguousarray(arr).tobytes()
        return raw, tuple(arr.shape), arr

    def _deserialize_sample(
        self, raw: bytes, shape: Tuple[int, ...]
    ) -> np.ndarray:
        if self.meta.is_link:
            return self._resolve_link(raw)
        if self.meta.sample_compression:
            return decompress_array(raw, self.meta.sample_compression)
        dtype = np.dtype(self.meta.dtype or "float64")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def _resolve_link(self, raw: bytes) -> np.ndarray:
        from repro.core.links import resolve_linked_sample

        linked = LinkedSample.from_bytes(raw)
        try:
            return resolve_linked_sample(linked)
        except Exception as exc:  # noqa: BLE001 - annotate context
            raise LinkError(
                f"failed to resolve linked sample {linked.url!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #

    @property
    def num_samples(self) -> int:
        return self.seq_enc.num_samples if self.meta.is_sequence else self.enc.num_samples

    def _finalize_active(self) -> None:
        """Close the active chunk (if any) into the upload buffer."""
        chunk = self._active_chunk
        if chunk is not None and chunk.num_samples:
            self._pending_chunks[chunk.name] = chunk
        self._active_chunk = None

    def _buffer_modified(self, chunk: Chunk) -> None:
        """A chunk modified in place joins the upload buffer a finalized
        chunk does (the active chunk gets there when it is finalized)."""
        if chunk is not self._active_chunk:
            self._pending_chunks[chunk.name] = chunk

    def _serialize_pending(self) -> Dict[str, bytes]:
        """Drain the upload buffer into upload-ready ``{key: blob}`` items,
        charging the flush counters and priming the decoded-chunk cache.
        The caller *must* ``set_many`` the result before any encoder or
        meta write: :meth:`_maybe_flush_pending` at the watermark, or a
        flush.  Never runs mid-commit — staging comes before it, and both
        take the engine lock — so a rolled-back batch can still retract
        its buffered chunks.  A chunk leaves the buffer only once the cache
        holds it: a reader that misses one finds the other."""
        pending = list(self._pending_chunks.values())
        items: Dict[str, bytes] = {}
        for chunk in pending:
            key = K.chunk_key(self.commit_id, self.tensor, chunk.name)
            chunk.seal()
            items[key] = chunk.tobytes(self.meta.chunk_compression)
            self.cache.drop(key)  # its header too: the bytes are new
            self.cache.put(key, chunk)
        self._pending_chunks.clear()
        if pending:
            self._m_chunks_flushed.inc(len(pending))
            self._h_flush_batch.observe(len(pending))
        return items

    def drain_flush_items(self) -> Tuple[Dict[str, bytes], Dict[str, bytes]]:
        """Collect everything this engine would persist on :meth:`flush`
        without writing any of it: ``(chunk items, state items)``, the
        state being every state file of the current commit when the
        engine is dirty.  The engine's buffers and dirty flag are drained
        exactly as a flush would, so the caller *must* write the chunks
        before anything that names them — ``Dataset.flush`` and ``commit``
        put every engine's chunks in one ``set_many`` and the state in the
        commit's manifest."""
        with self._lock:
            self._finalize_active()
            chunk_items = self._serialize_pending()
            if not self._dirty:
                return chunk_items, {}
            self._dirty = False
            return chunk_items, {**self._encoder_items(), **self._meta_items()}

    def _maybe_flush_pending(self) -> None:
        """Upload the buffer as one ``set_many`` once it holds
        ``_WATERMARK_CHUNKS`` chunks — on object storage one request's
        fixed overhead per batch instead of one per chunk."""
        with self._lock:
            if len(self._pending_chunks) < _WATERMARK_CHUNKS:
                return
            with _tracing.span("engine.flush_chunks", tensor=self.tensor,
                               chunks=len(self._pending_chunks)) as sp:
                items = self._serialize_pending()
                self.storage.set_many(items)
                sp.set(nbytes=sum(len(b) for b in items.values()))

    def _resume_name(self) -> Optional[str]:
        """The stored chunk the next append would resume — the last one,
        unless it holds a tile — or ``None``."""
        last_id = self.enc.last_chunk_id()
        if last_id is None or (self.enc.num_samples - 1) in self.tile_enc:
            return None
        return ChunkIdEncoder.name_from_id(last_id)

    def plan_resume(self) -> Optional[ReadPlan]:
        """A plan over the last flat item when the next append will
        resume a chunk that is not in memory — for the caller to fetch in
        one batch with other tensors' (``Dataset`` before an extend)."""
        with self._lock:
            name = self._resume_name()
            if (self._active_chunk is not None or name is None
                    or not self.enc.num_samples
                    or self._mem_chunk(name) is not None):
                return None
            return self._plan_flat([self.enc.num_samples - 1])

    def _get_active_chunk(self, nbytes: int) -> Chunk:
        """Chunk that will receive the next sample (resumed or fresh).

        Appends go to an in-memory write-back chunk that is persisted when
        it fills or at :meth:`flush`; this keeps ingestion O(bytes), not
        O(bytes * samples-per-chunk).
        """
        active = self._active_chunk
        if active is not None:
            if active.can_fit(nbytes, self.meta.max_chunk_size):
                return active
            self._finalize_active()
        # resume the last stored chunk when it still has room (this is the
        # copy-on-write extension path after checkout/commit)
        name = self._resume_name()
        if name is not None:
            try:
                chunk = self._load_chunk(name)
            except KeyError:
                chunk = None
            if chunk is not None and chunk.can_fit(
                nbytes, self.meta.max_chunk_size
            ):
                if name not in self.chunk_set:
                    self._own_chunk(chunk)
                # a buffered (pending-upload) chunk goes back to being the
                # active chunk — drop the buffer entry so the resumed copy
                # is uploaded once, after it refills or at flush
                self._pending_chunks.pop(name, None)
                self._active_chunk = chunk
                return chunk
        chunk = Chunk(dtype=self.meta.dtype)
        self.enc.register_chunk(ChunkIdEncoder.id_from_name(chunk.name), 0)
        self.chunk_set.add(chunk.name)
        self._stats_init(chunk.name)
        self._active_chunk = chunk
        return chunk

    def _own_chunk(self, chunk: Chunk) -> None:
        """Copy-on-write: claim an ancestor's chunk for the current commit."""
        self.chunk_set.add(chunk.name)
        # the blob will be (re)uploaded under the current commit's key
        self.cache.drop(K.chunk_key(self.commit_id, self.tensor, chunk.name))

    def _append_payload(
        self, raw, shape, arr, touched: Dict[str, Tuple[int, int]]
    ) -> None:
        """Move one serialized payload into the active chunk; *touched*
        collects first-touch chunk states for rollback."""
        chunk = self._get_active_chunk(len(raw))
        touched.setdefault(chunk.name, (len(chunk.data), chunk.num_samples))
        chunk.append(raw, shape)
        self._stats_observe(chunk.name, arr)
        self.enc.register_samples(1)
        if len(chunk.data) >= self.meta.max_chunk_size:
            self._finalize_active()

    def _commit_flat(
        self, value, raw, shape, arr, touched: Dict[str, Tuple[int, int]]
    ) -> None:
        """Register one pre-serialized flat sample (the infallible half of
        an append)."""
        is_video = self.meta.htype == "video"
        if (
            len(raw) > self.meta.max_chunk_size
            and not is_video
            and not self.meta.is_link
        ):
            self._append_tiled(value, raw, shape, arr)
        else:
            self._append_payload(raw, shape, arr, touched)
        if not self.meta.is_link:
            self.meta.update_shape_interval(shape)
        self.meta.length += 1
        self.commit_diff.add(1)
        self._dirty = True

    def _append_tiled(self, value, raw, shape, arr) -> None:
        # a tiled sample owns dedicated chunks; close the active one first
        # so encoder rows stay in storage order
        self._finalize_active()
        if arr is None:
            if isinstance(value, Sample):
                arr = value.array
            else:
                arr = self._coerce_array(value)
        tile_shape = tiling.choose_tile_shape(
            arr.shape, arr.dtype.itemsize, self.meta.max_chunk_size
        )
        tiles = tiling.split(arr, tile_shape)
        chunk_ids = []
        for tile in tiles:
            if self.meta.sample_compression:
                payload = compress_array(tile, self.meta.sample_compression)
            else:
                payload = tile.tobytes()
            chunk = Chunk(dtype=self.meta.dtype)
            chunk.append(payload, tile.shape)
            self.chunk_set.add(chunk.name)
            self._stats_init(chunk.name)
            self._stats_observe(chunk.name, tile)
            self._pending_chunks[chunk.name] = chunk
            chunk_ids.append(ChunkIdEncoder.id_from_name(chunk.name))
        index = self.enc.num_samples
        self.enc.register_tiled_sample(chunk_ids)
        self.tile_enc.register(index, arr.shape, tile_shape)

    def _commit_sequence(
        self, payloads, touched: Dict[str, Tuple[int, int]]
    ) -> None:
        """Register one pre-serialized sequence row.  Every item was
        serialized during staging, so no fallible step sits between the
        mutations of ``enc`` and of ``seq_enc`` / ``meta.length``."""
        for raw, shape, arr in payloads:
            self._append_payload(raw, shape, arr, touched)
            self.meta.update_shape_interval(shape)
        self.seq_enc.register(len(payloads))
        self.meta.length += 1
        self.commit_diff.add(1)
        self._dirty = True

    # -- WritePlan: stage (fallible) then commit (atomic) ---------------- #

    def _stage_payloads(self, items: List) -> List[Tuple]:
        """Serialize *items* in order, and upload what earlier appends
        sealed while that happens.

        Staging an item of a sample-compressed tensor is a codec call, the
        one piece of engine work that profits from threads whoever the
        caller is, so those batches map over :func:`_encode_pool`; every
        other tensor stages inline (a scalar ``extend`` would pay one
        future per sample for a ``tobytes``).

        This is the append side's one watermark site.  ``Executor.map``
        starts every future before it returns, so the calling thread
        uploads the chunks the *previous* call left buffered under the
        encode work, not after it; inline staging makes the same call at
        the same point.  Nothing is registered yet: an upload error
        abandons the batch, the engine as any failed watermark upload
        leaves it.

        The first sample(s) are serialized synchronously until the
        tensor's dtype is pinned — ``_serialize_sample`` infers
        ``meta.dtype`` from the first observed sample, and that inference
        must not race across pool workers.  Link tensors never pin a
        dtype, so they skip the warm-up."""
        payloads: List[Tuple] = []
        idx = 0
        while (
            idx < len(items)
            and self.meta.dtype is None
            and not self.meta.is_link
        ):
            payloads.append(self._serialize_sample(items[idx]))
            idx += 1
        rest = items[idx:]
        pooled = self.meta.sample_compression and len(rest) >= 4
        staged = (_encode_pool().map if pooled else map)(
            self._serialize_sample, rest
        )
        self._maybe_flush_pending()
        payloads.extend(staged)
        return payloads

    def stage_appends(self, values) -> WritePlan:
        """Serialize + compress *values* into a :class:`WritePlan` without
        mutating engine state (exception-safe: a staging failure leaves
        nothing to undo).  Sequence rows stage every item."""
        values = list(values)
        plan = WritePlan(self.tensor)
        if not values:
            return plan
        dtype_was_none = self.meta.dtype is None
        with _tracing.span("engine.stage_appends", tensor=self.tensor,
                           rows=len(values)):
            try:
                if self.meta.is_sequence:
                    rows = [list(v) for v in values]
                    flat = [item for row in rows for item in row]
                    payloads = self._stage_payloads(flat)
                    pos = 0
                    for value, row in zip(values, rows):
                        plan.entries.append(
                            ("seq", value, payloads[pos:pos + len(row)])
                        )
                        pos += len(row)
                else:
                    payloads = self._stage_payloads(values)
                    for value, payload in zip(values, payloads):
                        plan.entries.append(("flat", value, [payload]))
            except BaseException:
                # the one piece of state staging can touch is the dtype
                # inferred from the first sample — revert it so a failed
                # batch leaves no trace
                if dtype_was_none:
                    self.meta.dtype = None
                raise
        return plan

    def _write_snapshot(self) -> dict:
        """O(bookkeeping) pre-commit state capture for rollback — every
        mutable structure the commit path touches is either append-only
        (restored by truncation) or small enough to copy."""
        active = self._active_chunk
        si = self.meta.shape_interval
        return {
            "enc_rows": len(self.enc._ids),
            "enc_last_cum": self.enc._cum[-1] if self.enc._cum else None,
            "seq_rows": len(self.seq_enc._cum),
            "tile_threshold": self.enc.num_samples,
            "chunk_set": set(self.chunk_set),
            "stats_keys": set(self.chunk_stats),
            "meta_length": self.meta.length,
            "meta_dtype": self.meta.dtype,
            "shape_interval": (si.lower, si.upper, si._initialized),
            "diff_added": self.commit_diff.num_added,
            "active": (
                (active.name, len(active.data), active.num_samples)
                if active is not None
                else None
            ),
            "pending": list(self._pending_chunks),
            "dirty": self._dirty,
        }

    def _locate_chunk(self, name: str) -> Optional[Chunk]:
        mem = self._mem_chunk(name)
        if mem is not None:
            return mem
        return self.cache.get(self._chunk_storage_key(name))

    def _restore_snapshot(
        self, snap: dict, touched: Dict[str, Tuple[int, int]]
    ) -> None:
        """Roll the engine back to *snap* after a failed commit batch.

        *touched* maps each chunk the batch appended into to its
        ``(data length, sample count)`` at first touch; those chunk
        objects are truncated back.  Uploads never happen mid-commit, so
        every touched chunk is still in memory (active or buffered).
        """
        for name, (dlen, nsamp) in touched.items():
            self._mem_chunk(name).truncate(dlen, nsamp)
        # encoders are append-only: truncate
        del self.enc._ids[snap["enc_rows"]:]
        del self.enc._cum[snap["enc_rows"]:]
        if self.enc._cum and snap["enc_last_cum"] is not None:
            self.enc._cum[-1] = snap["enc_last_cum"]
        self.enc._base = None
        del self.seq_enc._cum[snap["seq_rows"]:]
        self.seq_enc._base = None
        for idx in [
            i for i in self.tile_enc._layouts if i >= snap["tile_threshold"]
        ]:
            self.tile_enc.unregister(idx)
        # bookkeeping: fresh chunks leave chunk_set/stats; widened stats on
        # surviving chunks stay (a [min,max] superset can never mis-prune)
        self.chunk_set = snap["chunk_set"]
        for name in set(self.chunk_stats) - snap["stats_keys"]:
            del self.chunk_stats[name]
        self.meta.length = snap["meta_length"]
        if snap["meta_dtype"] is None:
            self.meta.dtype = None
        si = self.meta.shape_interval
        si.lower, si.upper, si._initialized = snap["shape_interval"]
        self.commit_diff.num_added = snap["diff_added"]
        # write buffer: drop chunks the failed batch created, reinstate any
        # pre-batch buffered chunk the batch resumed into its active slot
        for name in [
            n for n in self._pending_chunks if n not in snap["pending"]
        ]:
            del self._pending_chunks[name]
        for name in snap["pending"]:
            if name not in self._pending_chunks:
                chunk = self._locate_chunk(name)
                if chunk is not None:
                    self._pending_chunks[name] = chunk
        if snap["active"] is None:
            self._active_chunk = None
        else:
            name = snap["active"][0]
            self._active_chunk = self._locate_chunk(name)
            self._pending_chunks.pop(name, None)
        self._dirty = snap["dirty"]

    def commit_appends(self, plan: WritePlan) -> None:
        """Apply a staged :class:`WritePlan` atomically.

        Either every row of the plan is registered (encoders, meta,
        commit diff, chunk data all agree) or — on any failure — the
        engine state is rolled back to exactly the pre-commit state and
        the exception propagates.  Touches no storage: the chunks it seals
        stay buffered until the next append stages
        (:meth:`_stage_payloads`), or a flush or commit drains them.
        """
        if not plan.entries:
            return
        with self._lock:
            snap = self._write_snapshot()
            touched: Dict[str, Tuple[int, int]] = {}
            with _tracing.span("engine.commit_appends", tensor=self.tensor,
                               rows=plan.num_rows):
                try:
                    for kind, value, payloads in plan.entries:
                        if kind == "seq":
                            self._commit_sequence(payloads, touched)
                        else:
                            raw, shape, arr = payloads[0]
                            self._commit_flat(value, raw, shape, arr, touched)
                except BaseException:
                    self._restore_snapshot(snap, touched)
                    raise

    def append(self, value) -> None:
        self.commit_appends(self.stage_appends([value]))

    def extend(self, values) -> None:
        """Batched, exception-safe append: stage every sample, then
        commit all-or-nothing; the chunks it seals upload in one
        ``set_many`` under the next call's staging, or with the next flush."""
        self.commit_appends(self.stage_appends(values))

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def empty_sample(self) -> np.ndarray:
        """The padding value: zero-size at the tensor's rank (a 0 scalar
        for rank-0 tensors, where zero-size is unrepresentable)."""
        dtype = np.dtype(self.meta.dtype or "float64")
        si = self.meta.shape_interval
        if si.is_empty:
            return np.zeros((0,), dtype=dtype)
        return np.zeros((0,) * len(si.lower), dtype=dtype)

    def read_tiled_region(self, index: int, region: Sequence[slice]) -> np.ndarray:
        """Read only the tiles of sample *index* intersecting *region*,
        then crop — the visualizer's viewport streaming path."""
        if index not in self.tile_enc:
            return self.read_sample(index)[tuple(region)]
        sample_shape, tile_shape = self.tile_enc.layout(index)
        chunk_ids = self.enc.tile_chunk_ids(index)
        hits = tiling.tiles_for_region(region, sample_shape, tile_shape)
        dtype = np.dtype(self.meta.dtype)
        region_slices = tuple(
            sl if isinstance(sl, slice) else slice(sl, sl + 1)
            for sl in region
        ) + tuple(
            slice(None) for _ in range(len(sample_shape) - len(region))
        )
        starts = [sl.indices(s)[0] for sl, s in zip(region_slices, sample_shape)]
        stops = [sl.indices(s)[1] for sl, s in zip(region_slices, sample_shape)]
        out = np.zeros(
            [max(0, b - a) for a, b in zip(starts, stops)], dtype=dtype
        )
        # each intersecting tile is the one sample of its own chunk: one
        # plan over them, so they arrive in one fetch
        plan = read_plan.plan_chunk_heads(self, [
            ChunkIdEncoder.name_from_id(chunk_ids[flat])
            for flat, _gidx in hits
        ])
        for (_flat, gidx), tile in zip(hits, self.execute_plan(plan)):
            tile_region = tiling.tile_slices(gidx, tile_shape, sample_shape)
            # intersection of tile extent and requested region
            dst = []
            src = []
            for (t_sl, a, b) in zip(tile_region, starts, stops):
                lo = max(t_sl.start, a)
                hi = min(t_sl.stop, b)
                if hi <= lo:
                    break
                dst.append(slice(lo - a, hi - a))
                src.append(slice(lo - t_sl.start, hi - t_sl.start))
            else:
                out[tuple(dst)] = tile[tuple(src)]
        return out

    # ------------------------------------------------------------------ #
    # the ReadPlan layer: plan -> fetch -> slice (core/read_plan.py)
    # ------------------------------------------------------------------ #

    def plan_reads(self, rows: Sequence[int], bounds=None) -> ReadPlan:
        """Group *rows* by owning chunk into an executable :class:`ReadPlan`.

        Rows — Python / numpy integers or an integer array, anything else
        raises :class:`SampleIndexError` — may repeat and arrive in any
        order; they are resolved by one binary search over the chunk
        encoder for the whole request, and each referenced chunk's
        storage key is resolved against the commit chain exactly once.
        Sequence rows expand to their flat item ranges, tiled samples pull
        in every tile chunk, padded rows need no storage at all.

        *bounds* (optional) is a list of necessary-condition intervals
        ``(lo, hi, lo_open, hi_open)`` on the column's values: a chunk
        whose recorded [min, max] cannot intersect one of them is skipped
        entirely — its rows are marked in ``plan.pruned`` and *zero*
        storage GETs are issued for it.  Only whole plain-sample chunks
        are pruned; tiled, padded, sequence and active-chunk rows are
        always read.
        """
        index = read_plan.normalize_rows(rows, self.num_samples, self.tensor)
        with _tracing.span("engine.plan_reads", tensor=self.tensor,
                           rows=len(index)) as sp:
            with self._lock:
                plan = read_plan.plan_rows(self, index, bounds)
            self._m_chunks_planned.inc(len(plan.chunk_keys))
            self._h_plan_chunks.observe(len(plan.chunk_keys))
            sp.set(chunks=plan.num_chunks)
        return plan

    def _plan_resident_chunks(
        self, plan: ReadPlan
    ) -> Tuple[Dict[str, Chunk], Dict[str, str]]:
        """Split a plan's chunks into already-resident ones and the
        ``{storage key: chunk name}`` set that must be fetched."""
        # in memory at planning, or uploaded since: _load_chunk re-resolves
        chunks = {name: self._load_chunk(name) for name in plan.active_chunks}
        to_fetch: Dict[str, str] = {}  # storage key -> chunk name
        for name, key in plan.chunk_keys.items():
            cached = self._cached(key)
            if cached is not None:
                chunks[name] = cached
            else:
                to_fetch[key] = name
        return chunks, to_fetch

    def execute_plan(self, plan: ReadPlan, aslist: bool = False,
                     decode: bool = True,
                     _chunks: Optional[Dict[str, Chunk]] = None):
        """Run *plan*: fetch missing chunks whole, once, decompress once,
        slice every requested sample out of the decoded buffers.

        Returns the *column* of the planned rows, in request order: ONE
        ``(n, *shape)`` ndarray when every row came out of the dense
        gather (fixed-shape samples stored raw — see :meth:`Chunk.dense`;
        rows of ``plan.pruned`` hold zeros), else a list with one value
        per row (a pruned row holds the falsy :data:`PRUNED`).
        ``aslist=True`` always returns the list, a dense column cut into
        per-row arrays.  With ``decode=False`` values are raw stored
        payloads (``bytes``); sequence rows come back as a list per
        row.  ``_chunks`` injects chunks the caller already fetched: a
        :class:`FusedReadPlan`'s cross-tensor batch, or a one-row read's
        ranged fetch.
        """
        with _tracing.span("engine.execute_plan", tensor=self.tensor,
                           rows=len(plan.index),
                           chunks=plan.num_chunks) as sp:
            chunks = (
                _chunks if _chunks is not None
                else FusedReadPlan().add(self, plan)._fetch_all()[0]
            )
            column = read_plan.slice_plan(self, plan, chunks, decode)
            sp.set(dense=isinstance(column, np.ndarray))
        if plan.seq_spans is not None:
            return read_plan.assemble_sequences(
                self, plan, column, decode, aslist
            )
        if not aslist or not isinstance(column, np.ndarray):
            return column
        values = column_rows(column)
        for pos in np.flatnonzero(plan.pruned).tolist():
            values[pos] = PRUNED
        return values

    def read_batch(self, rows: Sequence[int], aslist: bool = False,
                   decode: bool = True) -> List:
        """Values of *rows*, one list entry per row, through one
        :class:`ReadPlan`: one fetch + one decompress per chunk, however
        many of the rows it holds.

        A one-row call is the random-access entry point and may take the
        ranged strategy (:func:`read_plan.fetch_ranged`) instead of
        pulling a whole chunk into the cache for a single sample.
        """
        plan = self.plan_reads(rows)
        return column_rows(self.execute_plan(
            plan, aslist=aslist, decode=decode,
            _chunks=read_plan.fetch_ranged(self, plan),
        ))

    def read_sample(self, index: int, aslist: bool = False):
        """One row — a one-row :meth:`read_batch`."""
        return self.read_batch([index], aslist=aslist)[0]

    def _plan_flat(self, indices: Sequence[int]) -> ReadPlan:
        """Plan over *flat* items (rows of a plain tensor, single items of
        a sequence tensor), no sequence expansion."""
        flat = read_plan.normalize_rows(
            indices, self.enc.num_samples, self.tensor
        )
        with self._lock:
            return read_plan.plan_items(
                self, ReadPlan(self.tensor, flat), flat
            )

    def read_items(self, indices: Sequence[int], decode: bool = True) -> List:
        """Values of *flat* items: rows of a plain tensor, single items
        of a sequence tensor (one frame without decoding its whole row).
        Same plan path and one-item ranged rule as :meth:`read_batch`."""
        plan = self._plan_flat(indices)
        return column_rows(self.execute_plan(
            plan, decode=decode, _chunks=read_plan.fetch_ranged(self, plan),
        ))

    def read_shape(self, index: int) -> Tuple[int, ...]:
        """Sample shape without decoding payloads where possible."""
        return self.read_shapes_batch([index])[0]

    def read_shapes_batch(self, rows: Sequence[int]) -> List[Tuple[int, ...]]:
        """Per-sample shapes for many rows: at most one header fetch per
        chunk (reusing decoded chunks when resident) instead of per-row
        metadata reads — what keeps smart scheduling O(chunks)."""
        indices = read_plan.normalize_rows(
            rows, self.num_samples, self.tensor
        )
        if not self.meta.is_sequence:
            return self._flat_shapes(indices)
        starts, ends = self.seq_enc.item_ranges(indices)
        counts = (ends - starts).tolist()
        firsts = iter(self._flat_shapes(starts[ends > starts]))
        return [(n, *next(firsts)) if n else (0,) for n in counts]

    def _flat_shapes(self, indices: np.ndarray) -> List[Tuple[int, ...]]:
        if self.meta.is_link:  # the stored shape is the pointer's
            return [tuple(v.shape) for v in self.read_items(indices)]
        plan = self._plan_flat(indices)
        out: List = [None] * plan.num_items
        for name, pos in plan.groups():
            src = self._locate_chunk(name)
            local = plan.local[pos]
            if src is not None:
                shapes = [src.shapes[i] for i in local.tolist()]
            else:  # one header per chunk, its shape rows by fancy index
                header = self._load_header(name)
                shapes = map(tuple, header.shapes[local].tolist())
            for p, shape in zip(pos.tolist(), shapes):
                out[p] = shape
        for p in np.flatnonzero(plan.kind != KIND_SAMPLE).tolist():
            out[p] = (
                self.tile_enc.layout(int(plan.flat[p]))[0] if p in plan.tiles
                else tuple(self.empty_sample().shape)
            )
        return out

    # ------------------------------------------------------------------ #
    # updates & sparse writes
    # ------------------------------------------------------------------ #

    def update(self, index: int, value) -> None:
        n = self.num_samples
        if index < 0:
            index += n
        if index >= n:
            raise SampleIndexError(
                f"update index {index} out of range (length {n}); "
                "assign via dataset[idx] with strict=False to pad"
            )
        if self.meta.is_sequence:
            raise FormatError("in-place update of sequence samples is not supported")
        raw, shape, arr = self._serialize_sample(value)
        if index in self.tile_enc:
            self._update_tiled(index, value, raw, shape, arr)
        else:
            if len(raw) > self.meta.max_chunk_size and self.meta.htype != "video":
                raise FormatError(
                    "replacement sample exceeds max_chunk_size; tiled "
                    "updates require the same shape as the original"
                )
            row, local = self.enc.locate(index)
            name = self.enc.chunk_name(row)
            chunk = self._load_chunk(name)
            if name not in self.chunk_set:
                self._own_chunk(chunk)
            chunk.update(local, raw, shape)
            # widen-only (count=0): the replaced value may still define the
            # recorded min/max, so the range stays a safe superset
            self._stats_observe(name, arr, count=0)
            self._buffer_modified(chunk)
        self.meta.update_shape_interval(shape)
        self.commit_diff.update(index)
        self.pad_enc.unpad(index)
        self._dirty = True
        self._maybe_flush_pending()

    def _update_tiled(self, index, value, raw, shape, arr) -> None:
        sample_shape, tile_shape = self.tile_enc.layout(index)
        if tuple(shape) != tuple(sample_shape):
            raise FormatError(
                f"tiled sample {index} has shape {sample_shape}; in-place "
                f"update requires the same shape, got {shape}"
            )
        if arr is None:
            arr = value.array if isinstance(value, Sample) else self._coerce_array(value)
        tiles = tiling.split(arr, tile_shape)
        chunk_ids = self.enc.tile_chunk_ids(index)
        for cid, tile in zip(chunk_ids, tiles):
            name = ChunkIdEncoder.name_from_id(cid)
            chunk = self._load_chunk(name)
            if name not in self.chunk_set:
                self._own_chunk(chunk)
            payload = (
                compress_array(tile, self.meta.sample_compression)
                if self.meta.sample_compression
                else tile.tobytes()
            )
            chunk.update(0, payload, tile.shape)
            self._stats_observe(name, tile, count=0)
            self._buffer_modified(chunk)

    def pad_to(self, length: int) -> None:
        """Sparse support: grow with empty padded samples up to *length*."""
        start = self.num_samples
        self.extend([self._pad_value()] * (length - start))
        for idx in range(start, length):
            self.pad_enc.pad(idx)

    def _pad_value(self):
        return "" if self.meta.is_text else self.empty_sample()

    # ------------------------------------------------------------------ #
    # layout optimisation
    # ------------------------------------------------------------------ #

    def rechunk(self) -> int:
        """Rewrite all chunks into the optimal [min, max] layout (§3.5).

        Returns the number of chunks after optimisation.  Random updates
        and sparse writes fragment chunks over time; rechunking restores
        streaming-friendly sizes.  Chunks owned by ancestor commits are
        left untouched (immutable history); only the current commit's view
        is rewritten.
        """
        # one plan over every flat item, fetched as whole chunks in one
        # batch: payloads are copied chunk to chunk below (raw bytes +
        # stored shape), never decoded — and never probed sample by sample
        plan = self._plan_flat(range(self.enc.num_samples))
        chunks = FusedReadPlan().add(self, plan)._fetch_all()[0]

        # unwritten in-memory chunks (active + upload buffer) are held by
        # *chunks* above; the rewrite below re-emits every surviving
        # sample into fresh chunks, which ride the flush that ends it
        self._active_chunk = None
        self._pending_chunks.clear()
        old_owned = set(self.chunk_set)
        new_enc = ChunkIdEncoder()
        new_tiles = TileEncoder()
        self.chunk_set = set()
        active: Optional[Chunk] = None

        def finish_active():
            nonlocal active
            if active is not None and active.num_samples:
                self._pending_chunks[active.name] = active
            active = None

        items = zip(plan.kind.tolist(), plan.chunk_ord.tolist(),
                    plan.local.tolist())
        for i, (kind, chunk_ord, local) in enumerate(items):
            if kind == KIND_TILED:  # re-append as tiles
                finish_active()
                arr = read_plan.tiled_value(self, plan, i, chunks)
                tile_shape = tiling.choose_tile_shape(
                    arr.shape, arr.dtype.itemsize, self.meta.max_chunk_size
                )
                ids = []
                for tile in tiling.split(arr, tile_shape):
                    buf = (
                        compress_array(tile, self.meta.sample_compression)
                        if self.meta.sample_compression
                        else tile.tobytes()
                    )
                    chunk = Chunk(dtype=self.meta.dtype)
                    chunk.append(buf, tile.shape)
                    self.chunk_set.add(chunk.name)
                    self._pending_chunks[chunk.name] = chunk
                    ids.append(ChunkIdEncoder.id_from_name(chunk.name))
                new_enc.register_tiled_sample(ids)
                new_tiles.register(i, arr.shape, tile_shape)
                continue
            if kind == KIND_PAD:  # re-emitted exactly as pad_to wrote it
                raw, shape, _arr = self._serialize_sample(self._pad_value())
            else:
                chunk = chunks[plan.names[chunk_ord]]
                raw, shape = chunk.read_bytes(local), chunk.read_shape(local)
            if active is None or not active.can_fit(
                len(raw), self.meta.max_chunk_size
            ):
                finish_active()
                active = Chunk(dtype=self.meta.dtype)
                new_enc.register_chunk(
                    ChunkIdEncoder.id_from_name(active.name), 0
                )
                self.chunk_set.add(active.name)
            active.append(raw, shape)
            new_enc.register_samples(1)
        finish_active()

        # sequence tensors: only the flat encoder is rebuilt, item ranges
        # are unchanged
        replaced = old_owned - self.chunk_set
        for name in replaced:
            self.chunk_stats.pop(name, None)
        self.enc = new_enc
        self.tile_enc = new_tiles
        self._dirty = True
        self.flush()
        # the replaced chunks owned by this commit go only now: until the
        # flush above lands, the encoders in storage still name them, and a
        # failed flush must leave them readable
        for name in replaced:
            key = K.chunk_key(self.commit_id, self.tensor, name)
            try:
                del self.storage[key]
            except KeyError:
                pass
            self.cache.drop(key)
        return self.enc.num_chunks

    # ------------------------------------------------------------------ #
    # introspection used by loaders / schedulers
    # ------------------------------------------------------------------ #

    def chunk_layout(self) -> List[Tuple[str, int, int]]:
        """(chunk_name, start_sample, end_sample) rows in storage order."""
        return [
            (ChunkIdEncoder.name_from_id(cid), start, end)
            for cid, start, end in self.enc.chunk_ranges()
        ]
