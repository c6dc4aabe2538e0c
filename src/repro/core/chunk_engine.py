"""ChunkEngine: per-tensor orchestration of the Tensor Storage Format.

One engine owns everything between a tensor's public API and raw storage:

- chunk construction within [min, max] size bounds (§3.4), sample vs chunk
  compression, tiling of oversize samples, the video no-tiling exception;
- the compressed index map (:class:`ChunkIdEncoder`) plus tile / sequence /
  pad encoders;
- version-aware chunk resolution: ``_chunk_sets`` holds the chunk set of
  every commit of the chain, the current one included, read with the rest
  of the tensor's state in one batch; reads take the first commit of the
  chain whose set contains the chunk (§4.2); a stored chunk is never
  changed, a write copies it under a fresh name (:meth:`_fork`);
- reads through its handle's :class:`ChunkCache`, §3.5's "buffer cache of
  fetched and unutilized data";
- the on-the-fly :meth:`rechunk` layout optimiser;
- sparse out-of-bounds assignment via padding (strict mode off).

The one read path
-----------------
Chunks exist so that one fetch + one decompress amortizes over many
samples (§3.4–3.5), so every read — one row or a million — is the same
three steps, plan -> fetch -> slice, over arrays.  The steps live in
:mod:`repro.core.read_plan` (its header describes them); this class keeps
four entry points: :meth:`plan_reads` (rows, or flat items with
``items=True`` -> :class:`ReadPlan`, one binary search over
:class:`ChunkIdEncoder` per request, each chunk's storage key resolved
against the commit chain once), :meth:`execute_plan`
(:meth:`FusedReadPlan._fetch_all`, the only routine that fetches missing
chunks, then :func:`read_plan.slice_plan`, the only slicer), :meth:`read`
(the two in one call) and :meth:`shapes`, which answers shape lookups
from one header (or cached chunk) per chunk.  A read returns the
*column*; callers that want rows cut it with :func:`column_rows`.

The entry point, not a flag, decides the *fetch strategy*.  A one-item
:meth:`read` — ``Tensor[i].numpy()`` among others — may take §3.5's
*ranged* strategy (:func:`read_plan.fetch_ranged`: header probe + the
sample's byte range, never cached).  A :meth:`read` of many rows and every
planned entry point — :meth:`plan_reads` + :meth:`execute_plan`,
:class:`FusedReadPlan`, ``Dataset.read_rows`` and so the dataloader, TQL's
column scans and the Tensor Streaming Server's ``read_batch`` op —
fetches whole chunks: a full-column scan costs one storage GET per chunk,
and a single row that should stream is spelled
``execute_plan(plan_reads([i]))``.  The ``chunk_cache_hits`` /
``chunk_cache_misses`` counters make the batching observable from loader
stats and per-tenant serve stats.

The one write path
------------------
An append stages a :class:`~repro.core.write_plan.WritePlan`, one column
of payloads (a dense batch is one array), and commits it one chunk run at
a time (:meth:`ChunkEngine.commit_appends`), never a row at a time;
:meth:`_commit_runs` is the one chunk filler, and :meth:`rechunk` is a
re-append through it.  An update is a batch too (:meth:`update`): each
chunk it touches is copied once, with all of its replaced rows.  Chunks
fill in the write buffer, the only chunk memory that changes, then
upload (§3.4–3.5): a finalized chunk — and the copy :meth:`update` or a
resumed append makes of a stored chunk — joins ``_pending_chunks``, and
:meth:`_serialize_pending` turns the buffer into the ``set_many`` batch
that is the only way a chunk reaches storage: when an update leaves
``_WATERMARK_CHUNKS`` chunks buffered or the next append finds that many
while it stages (the upload then runs under the encode pool's work), and
at a flush, which hands the engine's state files to its handle's
``CommitState`` (chunks go first, the head's manifest publishes them;
the keys the copies replaced go once the commit is sealed: a stored key
always holds the same bytes).

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
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compression import compress_array, decompress_array
from repro.core import read_plan
from repro.core.chunk import Chunk, ChunkHeader
from repro.core.encoders import (
    ChunkIdEncoder,
    PadEncoder,
    SequenceEncoder,
    TileEncoder,
)
from repro.core.meta import CommitDiff, TensorMeta
from repro.core.read_plan import (  # noqa: F401 - PRUNED re-exported
    KIND_PAD,
    KIND_SAMPLE,
    PRUNED,
    FusedReadPlan,
    ReadPlan,
    column_rows,
)
from repro.core.sample import LinkedSample, Sample
from repro.core.write_plan import WritePlan, dense_column, value_bounds
from repro.core import tiling
from repro.core.htypes import validate_sample
from repro.exceptions import (
    DeepLakeError,
    FormatError,
    LinkError,
)
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
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


class ChunkEngine:
    """Reads and writes one tensor's chunks against a storage provider."""

    # the engine's own series, each chained to its tensor-labeled family
    # (resolved in the registry when the engine first records into it);
    # the I/O counters are also the engine's read-only properties below
    _m_partial = _metrics.labeled(
        _metrics.Counter, "chunk_engine.partial_reads", tensor="tensor")
    _m_full = _metrics.labeled(
        _metrics.Counter, "chunk_engine.full_chunk_reads", tensor="tensor")
    _m_hits = _metrics.labeled(
        _metrics.Counter, "chunk_engine.decoded_cache_hits", tensor="tensor")
    _m_misses = _metrics.labeled(
        _metrics.Counter, "chunk_engine.decoded_cache_misses", tensor="tensor")
    _m_chunks_planned = _metrics.labeled(
        _metrics.Counter, "chunk_engine.chunks_planned", tensor="tensor")
    _m_bytes_decoded = _metrics.labeled(
        _metrics.Counter, "chunk_engine.bytes_decoded", tensor="tensor")
    _h_decode = _metrics.labeled(
        _metrics.Histogram, "chunk_engine.decode_seconds", tensor="tensor")
    _h_plan_chunks = _metrics.labeled(
        _metrics.Histogram, "chunk_engine.plan_chunks", tensor="tensor")
    _m_chunks_flushed = _metrics.labeled(
        _metrics.Counter, "chunk_engine.chunks_flushed", tensor="tensor")
    _h_flush_batch = _metrics.labeled(
        _metrics.Histogram, "chunk_engine.flush_batch_chunks", tensor="tensor")

    def __init__(self, tensor: str, commit_state,
                 meta: Optional[TensorMeta] = None):
        self.tensor = tensor
        # the handle's core.commit_state.CommitState hands this engine its
        # state at the open and publishes what a flush drains.  It holds
        # its engines, so an engine holds it weakly: a dropped handle frees
        # its chunk cache and write buffers at once, not at the next cycle
        # collection.  Reads need only the objects it shares.
        self._commit_state = weakref.ref(commit_state)
        self.storage = commit_state.storage
        self.version_state = commit_state.version_state
        self.tree = commit_state.tree
        self._lock = threading.RLock()

        # the handle's decoded chunks, headers and fetches in flight
        self.cache = commit_state.cache

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

        # write-back chunk being filled by appends (not yet in storage)
        self._active_chunk: Optional[Chunk] = None
        # finalized, updated and rechunked chunks buffered for a batched
        # upload; authoritative until _serialize_pending hands them to
        # storage — every read path consults _mem_chunk() so buffered data
        # stays readable
        self._pending_chunks: "OrderedDict[str, Chunk]" = OrderedDict()
        # storage keys of chunks this commit stored that a copy replaced,
        # drained by the flush for its owner to delete (see _fork)
        self._superseded: List[str] = []

        if meta is not None:
            self.meta = meta
            self.enc = ChunkIdEncoder()
            self.tile_enc = TileEncoder()
            self.seq_enc = SequenceEncoder()
            self.pad_enc = PadEncoder()
            self.commit_diff = CommitDiff(0, created=True)
            self._dirty = True
        else:
            self._load_state(commit_state.tensor_state(tensor))

    # ------------------------------------------------------------------ #
    # state load/save
    # ------------------------------------------------------------------ #

    @property
    def commit_state(self):
        state = self._commit_state()
        if state is None:
            raise DeepLakeError(
                f"tensor {self.tensor!r}: its dataset is gone; flush the "
                "dataset the tensor was opened from"
            )
        return state

    @property
    def commit_id(self) -> str:
        return self.version_state.commit_id

    @property
    def chunk_set(self) -> Set[str]:
        """Names of the chunks the current commit owns."""
        return self._chunk_sets.setdefault(self.commit_id, set())

    @chunk_set.setter
    def chunk_set(self, names: Set[str]) -> None:
        self._chunk_sets[self.commit_id] = names

    def _load_state(self, chain: List[Tuple[str, Dict[str, bytes]]]) -> None:
        """Resolve the tensor's state from *chain*, ``(commit id, {file
        name: blob})`` per commit of the chain, current commit first, as
        the handle's commit state holds it (``CommitState.tensor_state``).
        Meta and encoders come from the nearest commit of the chain that
        wrote them, the stats sidecar merges the whole chain, every commit
        keeps its own chunk set, and the commit diff is the current
        commit's."""
        def nearest(name: str) -> Optional[bytes]:
            return next((files[name] for _cid, files in chain
                         if name in files), None)

        data = nearest("meta")
        if data is None:
            raise FormatError(
                f"tensor {self.tensor!r} has no metadata at commit "
                f"{self.commit_id!r}"
            )
        self.meta = TensorMeta.from_json(data)

        enc = nearest("chunk_ids")
        self.enc = ChunkIdEncoder.frombytes(enc) if enc else ChunkIdEncoder()
        tile = nearest("tiles")
        self.tile_enc = TileEncoder.frombytes(tile) if tile else TileEncoder()
        seq = nearest("sequence")
        self.seq_enc = SequenceEncoder.frombytes(seq) if seq else SequenceEncoder()
        pad = nearest("pads")
        self.pad_enc = PadEncoder.frombytes(pad) if pad else PadEncoder()

        # statistics sidecar: merge the whole commit chain, nearest commit
        # wins (a rewritten chunk's fresh stats shadow the ancestor's)
        self.chunk_stats = {}
        for cid, files in reversed(chain):
            if "stats" in files:
                self.chunk_stats.update(json_loads(files["stats"]))
            if "chunk_set" in files:
                self._chunk_sets[cid] = set(json_loads(files["chunk_set"]))
        # the commit diff belongs strictly to the current commit
        diff = chain[0][1].get("diff")
        self.commit_diff = (
            CommitDiff.from_json(diff) if diff else CommitDiff(self.meta.length)
        )
        self._dirty = False

    def _encoder_items(self) -> Dict[str, bytes]:
        # the chunk set travels with the encoders: a reader finds every
        # chunk the encoder names through it, so an encoder must never be
        # durable ahead of the chunk set that places its chunks
        items = {
            "chunk_set": json_dumps(sorted(self.chunk_set)),
            "chunk_ids": self.enc.tobytes(),
        }
        if self.tile_enc.num_tiled:
            items["tiles"] = self.tile_enc.tobytes()
        if self.meta.is_sequence:
            items["sequence"] = self.seq_enc.tobytes()
        if self.pad_enc.num_padded:
            items["pads"] = self.pad_enc.tobytes()
        return items

    def _meta_items(self) -> Dict[str, bytes]:
        items = {"meta": self.meta.to_json()}
        if self.chunk_stats:
            items["stats"] = json_dumps(self.chunk_stats)
        items["diff"] = self.commit_diff.to_json()
        return items

    def flush(self) -> None:
        """Publish this engine's buffered state, and every other engine's
        of its handle, through the handle's commit state: every chunk in
        one batch, then the head's manifest (``CommitState.flush``)."""
        self.commit_state.flush()

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
        for cid in self.tree.chain(self.commit_id):
            if chunk_name in self._chunk_sets.get(cid, ()):
                return K.chunk_key(cid, self.tensor, chunk_name)
        raise FormatError(
            f"tensor {self.tensor!r}: chunk {chunk_name!r} is in the chunk "
            f"set of no commit reachable from {self.commit_id!r}"
        )

    # ------------------------------------------------------------------ #
    # I/O accounting: views of the engine's own registry series
    # ------------------------------------------------------------------ #

    @property
    def partial_reads(self) -> int:
        """Ranged single-sample reads this engine issued (§3.5 path)."""
        return self._m_partial.value

    @property
    def full_chunk_reads(self) -> int:
        """Whole-chunk fetch+decode operations this engine performed."""
        return self._m_full.value

    @property
    def chunk_cache_hits(self) -> int:
        """Decoded-chunk buffer cache hits (one source of truth; loader
        and serve stats are views over this)."""
        return self._m_hits.value

    @property
    def chunk_cache_misses(self) -> int:
        return self._m_misses.value

    def _decode_chunk(self, blob: bytes, name: str) -> Chunk:
        """Parse *blob* into a Chunk, charging decode accounting."""
        t0 = time.perf_counter()
        chunk = Chunk.frombytes(blob, name=name)
        self._h_decode.observe(time.perf_counter() - t0)
        self._m_full.inc()
        self._m_bytes_decoded.inc(len(blob))
        self._lazy_stats(name, chunk)
        return chunk

    def _cached(self, key: str) -> Optional[Chunk]:
        """The cache's chunk at *key*, counted as a hit or a miss of this
        engine (a shape lookup reads ``self.cache`` uncounted)."""
        chunk = self.cache.get(key)
        (self._m_hits if chunk is not None else self._m_misses).inc()
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

    def _fetch_chunks(self, names) -> Dict[str, Chunk]:
        """Chunks *names* through the one read path: resident ones as
        they are, the misses in one ``get_many``."""
        plan = read_plan.plan_chunk_heads(self, names)
        return FusedReadPlan().add(self, plan)._fetch_all()[0]

    def _load_header(self, key: str) -> ChunkHeader:
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
                       count: int = 1, bounds=None) -> None:
        """Widen chunk *name*'s stats with *count* observed samples: *arr*
        holds their elements (or, at least, their extremes), *bounds*
        their per-dimension ``(lower, upper)`` shapes (one sample's
        ``arr.shape`` by default).

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
        found = value_bounds(arr)
        if found is not None:
            lo, hi = found
            entry["min"] = lo if entry["min"] is None else min(entry["min"], lo)
            entry["max"] = hi if entry["max"] is None else max(entry["max"], hi)
        low, high = bounds or (arr.shape, arr.shape)
        for key, fn, shape in (("shape_min", min, low),
                               ("shape_max", max, high)):
            prev = entry[key]
            if prev == "n/a":
                continue
            if prev is None:
                entry[key] = list(shape)
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
            lo, hi = value_bounds(flat) or (None, None)
            entry = {
                "min": lo,
                "max": hi,
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
        """Compute statistics for every chunk without a usable entry: one
        that predates the sidecar, or one recorded ``None`` because its
        samples were not observable when written (pre-encoded Samples, a
        rechunk of such chunks) — decoding makes them observable.

        Decodes each such chunk once (any codec) and records full stats,
        so old datasets gain pushdown without a rewrite.  Returns the
        number of chunks backfilled.
        """
        if not self._stats_eligible():
            return 0
        done = 0
        for name in dict.fromkeys(name for name, _s, _e in self.chunk_layout()):
            if self.chunk_stats.get(name) is not None:
                continue
            try:
                chunk = self._fetch_chunks([name])[name]
            except KeyError:
                continue
            self.chunk_stats[name] = self._stats_from_chunk(chunk)
            done += 1
        if done:
            self._dirty = True
            self.flush()
        return done

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
        self._validate(arr, arr)
        if self.meta.sample_compression:
            raw = compress_array(arr, self.meta.sample_compression)
        else:
            raw = np.ascontiguousarray(arr).tobytes()
        return raw, tuple(arr.shape), arr

    def _validate(self, arr: np.ndarray, cell: np.ndarray) -> None:
        """Check coerced *arr* against the htype by one of its samples,
        *cell* (the checks see dtype and shape only), and pin or check the
        tensor's dtype."""
        validate_sample(self.meta.spec, cell)
        self.meta.set_dtype_if_unset(arr.dtype)
        if np.dtype(self.meta.dtype) != arr.dtype:
            raise FormatError(
                f"tensor {self.tensor!r} holds dtype {self.meta.dtype}, "
                f"sample has {arr.dtype}"
            )

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
            self.cache.put(key, chunk)
        self._pending_chunks.clear()
        if pending:
            self._m_chunks_flushed.inc(len(pending))
            self._h_flush_batch.observe(len(pending))
        return items

    def drain_flush_items(self) -> Tuple[Dict, Dict, List[str]]:
        """Collect everything this engine would persist on :meth:`flush`
        without writing any of it: ``(chunk items, state files, superseded
        keys)``, the state files — ``{file name: blob}`` — every one of
        the current commit when the engine is dirty.  The engine's buffers
        and dirty flag are drained exactly as a flush would, so the caller,
        the handle's ``CommitState``, *must* write the chunks before
        anything that names them, and delete the superseded keys only
        after the tree PUT that seals the head."""
        with self._lock:
            self._finalize_active()
            chunk_items = self._serialize_pending()
            superseded, self._superseded = self._superseded, []
            if not self._dirty:
                return chunk_items, {}, superseded
            self._dirty = False
            state = {**self._encoder_items(), **self._meta_items()}
            return chunk_items, state, superseded

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
            return self.plan_reads([self.enc.num_samples - 1], items=True)

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
        # resume the last chunk when it still has room: a buffered one goes
        # back to being the active chunk (uploaded once, after it refills or
        # at flush), a stored one is copied under a fresh name
        name = self._resume_name()
        if name is not None:
            try:
                chunk = self._fetch_chunks([name])[name]
            except KeyError:
                chunk = None
            if chunk is not None and chunk.can_fit(
                nbytes, self.meta.max_chunk_size
            ):
                if self._pending_chunks.pop(name, None) is None:
                    return self._fork(self.enc.num_rows - 1, chunk)
                self._active_chunk = chunk
                return chunk
        chunk = Chunk(dtype=self.meta.dtype)
        self.enc.register_chunk(ChunkIdEncoder.id_from_name(chunk.name), 0)
        self.chunk_set.add(chunk.name)
        self._stats_init(chunk.name)
        self._active_chunk = chunk
        return chunk

    def _fork(self, row: int, old: Chunk, replace=()) -> Chunk:
        """Copy *old*, the chunk at encoder *row*, under a fresh name into
        the write buffer — *replace*, ``(local, raw, shape)`` triples, swaps
        those samples of the copy (:meth:`Chunk.copy`), none makes it the
        active chunk — and put the copy in its place: encoder row, chunk
        set, stats entry.  *old* is left as it is: a stored chunk key is
        write-once, so when this commit stored *old* its key is
        superseded, deleted once the commit is sealed (a plan or a
        manifest of the head may still name it)."""
        chunk = old.copy(replace)
        name = old.name
        self._superseded += self._stored_keys([name])
        if old is self._active_chunk or not replace:
            self._active_chunk = chunk
        else:
            self._pending_chunks.pop(name, None)
            self._pending_chunks[chunk.name] = chunk
        self.chunk_set.discard(name)
        self.chunk_set.add(chunk.name)
        self.enc._ids[row] = ChunkIdEncoder.id_from_name(chunk.name)
        if name in self.chunk_stats:
            self.chunk_stats[chunk.name] = self.chunk_stats.pop(name)
        return chunk

    def _stored_keys(self, names) -> List[str]:
        """Keys of the chunks in *names* this commit stored, the ones a
        copy supersedes: an ancestor's key stays the ancestor's."""
        return [K.chunk_key(self.commit_id, self.tensor, name)
                for name in names
                if name in self.chunk_set and self._mem_chunk(name) is None]

    def _tiles_oversize(self) -> bool:
        """Whether a row over ``max_chunk_size`` is tiled: it is not when
        it is a video clip, a link or a sequence item."""
        m = self.meta
        return not (m.is_sequence or m.htype == "video" or m.is_link)

    def _commit_runs(self, plan: WritePlan,
                     touched: Dict[str, Tuple[int, int]]) -> None:
        """Move the payloads of *plan* into chunks (the infallible half of
        an append); *touched* collects first-touch chunk states for
        rollback.

        One step per run (:meth:`WritePlan.run_end`), the payloads the
        chunk-filling rule puts in the chunk :meth:`_get_active_chunk`
        picks for the first: one :meth:`Chunk.extend`, one stats widening,
        one encoder registration, one shape-interval update.  A row over
        ``max_chunk_size`` is tiled on its own (:meth:`_tiles_oversize`)."""
        meta = self.meta
        flat = not meta.is_sequence
        tiled = (plan.oversize(meta.max_chunk_size)
                 if self._tiles_oversize() else set())
        stops = plan.stops(tiled)
        eligible = self._stats_eligible()
        i = 0
        while i < len(plan.ends):
            if i in tiled:
                self._append_tiled(plan.sample(i))
                j, bounds = i + 1, (plan.shapes[i],)
            else:
                chunk = self._get_active_chunk(
                    plan.start(i + 1) - plan.start(i)
                )
                touched.setdefault(
                    chunk.name, (len(chunk.data), chunk.num_samples)
                )
                j = plan.run_end(
                    i, meta.max_chunk_size - len(chunk.data), stops
                )
                chunk.extend(*plan.payloads(i, j))
                bounds = plan.shape_bounds(i, j)
                self._stats_observe(
                    chunk.name, plan.extremes(i, j) if eligible else None,
                    j - i, bounds,
                )
                self.enc.register_samples(j - i)
                if len(chunk.data) >= meta.max_chunk_size:
                    self._finalize_active()
            if not (flat and meta.is_link):
                for shape in bounds:
                    meta.update_shape_interval(shape)
            i = j

    def _append_tiled(self, arr: np.ndarray) -> None:
        # a tiled sample owns dedicated chunks; close the active one first
        # so encoder rows stay in storage order
        self._finalize_active()
        tile_shape = tiling.choose_tile_shape(
            arr.shape, arr.dtype.itemsize, self.meta.max_chunk_size
        )
        chunk_ids = []
        for payload, tile in tiling.payloads(arr, tile_shape,
                                             self.meta.sample_compression):
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

    # -- WritePlan: stage (fallible) then commit (atomic) ---------------- #

    def _stage_payloads(self, plan: WritePlan, items: List) -> None:
        """Serialize *items* in order into *plan*, and upload what earlier
        appends sealed while that happens.

        Staging an item of a sample-compressed tensor is a codec call, the
        one piece of engine work that profits from threads whoever the
        caller is, so those batches map over :func:`_encode_pool`; every
        other tensor stages inline (a ragged ``extend`` would pay one
        future per sample for a ``tobytes``).

        This and the staging of a dense column are the append side's
        watermark sites.  ``Executor.map`` starts every future before it
        returns, so the calling thread uploads the chunks the *previous*
        call left buffered under the encode work, not after it; inline
        staging makes the same call at the same point.  Nothing is
        registered yet: an upload error abandons the batch, the engine as
        any failed watermark upload leaves it.

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
        plan.set_payloads(payloads)

    def stage_appends(self, values) -> WritePlan:
        """Serialize + compress *values* into a :class:`WritePlan` without
        mutating engine state (exception-safe: a staging failure leaves
        nothing to undo).

        A dense batch (:func:`write_plan.dense_column`; an ndarray column is
        taken as it is) is staged as ONE array; a ragged or sample-compressed
        one value by value, codec calls on the encode pool.  Sequence rows
        stage every item."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        plan = WritePlan(self.tensor)
        if not len(values):
            return plan
        dtype_was_none = self.meta.dtype is None
        with _tracing.span("engine.stage_appends", tensor=self.tensor,
                           rows=len(values)):
            try:
                if self.meta.is_sequence:
                    rows = [list(v) for v in values]
                    plan.lengths = [len(row) for row in rows]
                    self._stage_payloads(
                        plan, [item for row in rows for item in row]
                    )
                elif (column := dense_column(self.meta, values)) is None:
                    plan.values = list(values)
                    self._stage_payloads(plan, plan.values)
                else:  # one coercion, one validation, one tobytes
                    self._maybe_flush_pending()
                    column = self._coerce_array(column)
                    self._validate(column, column[0, ...])
                    plan.set_column(column)
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
        si = self.meta.shape_interval
        ids, cum = self.enc._ids, self.enc._cum
        return {
            "enc_last": (len(ids), ids[-1:], cum[-1:]),
            "seq_rows": len(self.seq_enc._cum),
            "tile_threshold": self.enc.num_samples,
            "chunk_set": set(self.chunk_set),
            "stats": dict(self.chunk_stats),
            "superseded": len(self._superseded),
            "meta_length": self.meta.length,
            "meta_dtype": self.meta.dtype,
            "shape_interval": (si.lower, si.upper, si._initialized),
            "diff_added": self.commit_diff.num_added,
            "active": self._active_chunk,
            "pending": OrderedDict(self._pending_chunks),
            "dirty": self._dirty,
        }

    def _restore_snapshot(
        self, snap: dict, touched: Dict[str, Tuple[int, int]]
    ) -> None:
        """Roll the engine back to *snap* after a failed commit batch.

        *touched* maps each chunk the batch appended into to its
        ``(data length, sample count)`` at first touch; those chunk
        objects are truncated back.  Uploads never happen mid-commit, so
        every touched chunk is still in memory, and the write buffer is
        the snapshot's again (a resumed stored chunk's copy is dropped).
        """
        for name, (dlen, nsamp) in touched.items():
            self._mem_chunk(name).truncate(dlen, nsamp)
        # encoders grow at the end: truncate, restore the last row (_fork)
        rows, last_id, last_cum = snap["enc_last"]
        del self.enc._ids[rows:]
        del self.enc._cum[rows:]
        self.enc._ids[rows - 1:] = last_id
        self.enc._cum[rows - 1:] = last_cum
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
        self.chunk_stats = snap["stats"]
        del self._superseded[snap["superseded"]:]
        self.meta.length = snap["meta_length"]
        if snap["meta_dtype"] is None:
            self.meta.dtype = None
        si = self.meta.shape_interval
        si.lower, si.upper, si._initialized = snap["shape_interval"]
        self.commit_diff.num_added = snap["diff_added"]
        self._active_chunk = snap["active"]
        self._pending_chunks = snap["pending"]
        self._dirty = snap["dirty"]

    def commit_appends(self, plan: WritePlan) -> None:
        """Apply a staged :class:`WritePlan` atomically, one chunk run at
        a time (:meth:`_commit_runs`) — one step per chunk the batch
        fills, whatever its row count.

        Either every row of the plan is registered (encoders, meta,
        commit diff, chunk data all agree) or — on any failure — the
        engine state is rolled back to exactly the pre-commit state and
        the exception propagates.  Touches no storage: the chunks it seals
        stay buffered until the next append stages
        (:meth:`_stage_payloads`), or a flush or commit drains them.
        """
        rows = plan.num_rows
        if not rows:
            return
        with self._lock:
            snap = self._write_snapshot()
            touched: Dict[str, Tuple[int, int]] = {}
            with _tracing.span("engine.commit_appends", tensor=self.tensor,
                               rows=rows):
                try:
                    self._commit_runs(plan, touched)
                    for count in plan.lengths or ():
                        self.seq_enc.register(count)
                    self.meta.length += rows
                    self.commit_diff.add(rows)
                    self._dirty = True
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

    # ------------------------------------------------------------------ #
    # the ReadPlan layer: plan -> fetch -> slice (core/read_plan.py)
    # ------------------------------------------------------------------ #

    def plan_reads(self, rows: Sequence[int], bounds=None, *,
                   items: bool = False) -> ReadPlan:
        """Group *rows* by owning chunk into an executable :class:`ReadPlan`.

        Rows — Python / numpy integers or an integer array, anything else
        raises :class:`SampleIndexError` — may repeat and arrive in any
        order (ascending ones are cut at chunk boundaries, others binary
        searched: :func:`read_plan.plan_items`); each referenced chunk's
        storage key is resolved against the commit chain exactly once.
        Sequence rows expand to their flat item ranges — unless
        ``items=True``: then *rows* are flat items (rows of a plain
        tensor, single items of a sequence tensor, one frame without its
        whole row).  Tiled samples pull in every tile chunk, padded rows
        need no storage at all.

        *bounds* (optional) is a list of necessary-condition intervals
        ``(lo, hi, lo_open, hi_open)`` on the column's values: a chunk
        whose recorded [min, max] cannot intersect one of them is skipped
        entirely — its rows are marked in ``plan.pruned`` and *zero*
        storage GETs are issued for it.  Only whole plain-sample chunks
        are pruned; tiled, padded, sequence and active-chunk rows are
        always read.
        """
        length = self.enc.num_samples if items else self.num_samples
        index = read_plan.normalize_rows(rows, length,
                                         f"tensor {self.tensor!r}")
        with _tracing.span("engine.plan_reads", tensor=self.tensor,
                           rows=len(index)) as sp:
            with self._lock:
                plan = read_plan.plan_rows(self, index, bounds, items)
            self._m_chunks_planned.inc(len(plan.chunk_keys))
            self._h_plan_chunks.observe(len(plan.chunk_keys))
            sp.set(chunks=plan.num_chunks)
        return plan

    def _plan_resident_chunks(
        self, plan: ReadPlan
    ) -> Tuple[Dict[str, Chunk], Dict[str, str]]:
        """Split a plan's chunks into already-resident ones and the
        ``{storage key: chunk name}`` set that must be fetched."""
        chunks = dict(plan.active_chunks)  # in memory at planning
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
            return read_plan.sequence_rows(
                column_rows(column), [c for _s, c in plan.seq_spans],
                self.meta.dtype, stack=decode and not aslist)
        if not aslist or not isinstance(column, np.ndarray):
            return column
        values = column_rows(column)
        for pos in np.flatnonzero(plan.pruned).tolist():
            values[pos] = PRUNED
        return values

    def read(self, rows: Sequence[int], *, items: bool = False,
             decode: bool = True, aslist: bool = False):
        """The column of *rows* — flat items with ``items=True`` — through
        one :class:`ReadPlan`: one fetch + one decompress per chunk,
        however many of the rows it holds.  Returns exactly what
        :meth:`execute_plan` does, never cut into rows
        (:func:`column_rows` does that for callers that want rows).

        The entry point picks the fetch strategy: a one-item read may take
        the ranged one (:func:`read_plan.fetch_ranged`) instead of pulling
        a whole chunk into the cache for a single sample.
        """
        plan = self.plan_reads(rows, items=items)
        return self.execute_plan(
            plan, aslist=aslist, decode=decode,
            _chunks=read_plan.fetch_ranged(self, plan),
        )

    def shapes(self, rows: Sequence[int]) -> List[Tuple[int, ...]]:
        """Per-sample shapes of *rows* without decoding payloads where
        possible: at most one header fetch per chunk (reusing decoded
        chunks when resident) instead of per-row metadata reads — what
        keeps smart scheduling O(chunks)."""
        indices = read_plan.normalize_rows(rows, self.num_samples,
                                           f"tensor {self.tensor!r}")
        if not self.meta.is_sequence:
            return self._flat_shapes(indices)
        starts, ends = self.seq_enc.item_ranges(indices)
        counts = (ends - starts).tolist()
        firsts = iter(self._flat_shapes(starts[ends > starts]))
        return [(n, *next(firsts)) if n else (0,) for n in counts]

    def _flat_shapes(self, indices: np.ndarray) -> List[Tuple[int, ...]]:
        if self.meta.is_link:  # the stored shape is the pointer's
            return [tuple(v.shape) for v in self.read(indices, items=True)]
        plan = self.plan_reads(indices, items=True)
        out: List = [None] * plan.num_items
        for name, pos, local in plan.groups():
            key = plan.chunk_keys.get(name)
            src = plan.active_chunks.get(name) or self.cache.get(key)
            if src is not None:
                shapes = [src.shapes[i] for i in read_plan.as_indices(local)]
            else:  # one header per chunk, its shape rows by fancy index
                shapes = self._load_header(key).shapes[local].tolist()
            for p, shape in zip(read_plan.as_indices(pos), shapes):
                out[p] = tuple(shape)
        for p in np.flatnonzero(plan.kind != KIND_SAMPLE).tolist():
            out[p] = (
                self.tile_enc.layout(int(plan.flat[p]))[0] if p in plan.tiles
                else tuple(self.empty_sample().shape)
            )
        return out

    # ------------------------------------------------------------------ #
    # updates & sparse writes
    # ------------------------------------------------------------------ #

    def update(self, rows: Sequence[int], values) -> None:
        """Replace the samples at *rows* — integers, as a read takes them —
        with *values*, one per row; a row given twice takes its last value.

        A batch, like an append: every value is serialized and checked
        before any state changes, so a bad one changes nothing; the
        touched chunks come in through the one read path (one
        ``get_many`` for the misses), and each is forked ONCE with all of
        its replacements (:meth:`_fork`)."""
        index = read_plan.normalize_rows(rows, self.num_samples,
                                         f"tensor {self.tensor!r}")
        values = list(values)
        if len(values) != len(index):
            raise FormatError(
                f"update of {len(index)} rows got {len(values)} values")
        if self.meta.is_sequence:
            raise FormatError("in-place update of sequence samples is not supported")
        if not len(index):
            return
        staged = [self._serialize_sample(value) for value in values]
        # each row once, ascending, with the position of its last value
        uniq, last = np.unique(index[::-1], return_index=True)
        picks = len(index) - 1 - last
        tiled = self.tile_enc.mask(uniq)
        forks = []  # (encoder row, replacements, their arrays)
        for row, pick in zip(uniq[tiled].tolist(), picks[tiled].tolist()):
            forks += self._update_tiled(row, values[pick], *staged[pick])
        flat, flat_picks = uniq[~tiled], picks[~tiled].tolist()
        if self.meta.htype != "video" and any(
            len(staged[p][0]) > self.meta.max_chunk_size for p in flat_picks
        ):
            raise FormatError(
                "replacement sample exceeds max_chunk_size; tiled "
                "updates require the same shape as the original"
            )
        if len(flat):  # one run of rows per chunk
            enc_rows, bounds, firsts = self.enc.cut_runs(flat)
            for row, a, b, first in zip(enc_rows, bounds, bounds[1:], firsts):
                parts = [staged[p] for p in flat_picks[a:b]]
                forks.append((row, [
                    (local - first, raw, shape) for local, (raw, shape, _a)
                    in zip(flat[a:b].tolist(), parts)
                ], [arr for _r, _s, arr in parts]))
        chunks = self._fetch_chunks(
            [self.enc.chunk_name(row) for row, _r, _a in forks])
        with self._lock:  # readers plan under it: a fork swaps names
            for row, replace, arrs in forks:
                chunk = self._fork(row, chunks[self.enc.chunk_name(row)],
                                   replace)
                # widen-only (count=0): a replaced value may still define
                # the recorded min/max, so the range stays a safe superset
                for arr in arrs:
                    self._stats_observe(chunk.name, arr, count=0)
        for pick in picks.tolist():
            self.meta.update_shape_interval(staged[pick][1])
        for row in uniq.tolist():
            self.commit_diff.update(row)
            self.pad_enc.unpad(row)
        self._dirty = True
        self._maybe_flush_pending()

    def _update_tiled(self, index, value, _raw, shape, arr) -> List[Tuple]:
        """The forks of :meth:`update` that re-tile the tiled sample
        *index*: one per tile chunk, its one sample replaced.  The sample
        must keep its shape."""
        sample_shape, tile_shape = self.tile_enc.layout(index)
        if tuple(shape) != tuple(sample_shape):
            raise FormatError(
                f"tiled sample {index} has shape {sample_shape}; in-place "
                f"update requires the same shape, got {shape}"
            )
        first, _local = self.enc.locate(index)  # tiles: consecutive rows
        return [
            (row, [(0, payload, tile.shape)], [tile])
            for row, (payload, tile) in enumerate(tiling.payloads(
                value.array if arr is None else arr, tile_shape,
                self.meta.sample_compression), first)
        ]

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
        """Re-append every flat item (a sequence keeps its item ranges)
        through the one chunk filler (:meth:`_commit_runs`), so the layout
        is the one an ``extend`` of the same rows writes (§3.5); returns
        the number of chunks.

        Payloads are copied verbatim, their extremes their source chunk's
        recorded ``[min, max]``: a new chunk's range is the hull of its
        sources' (``None`` when one has none).  Padded and tiled rows, and
        a copied row an append would tile, are re-staged from their values.
        Ancestors' chunks stay; the keys this commit stored are superseded
        (:meth:`_fork`).  The chunks publish with the owner's next flush,
        like an append's.
        """
        plan = self.plan_reads(range(self.enc.num_samples), items=True)
        chunks = FusedReadPlan().add(self, plan)._fetch_all()[0]
        hulls = [
            np.array([v for v in (e["min"], e["max"]) if v is not None],
                     self.meta.dtype) if e else None
            for e in map(self.chunk_stats.get, plan.names)
        ]
        payloads = []
        items = zip(plan.kind.tolist(), plan.chunk_ord.tolist(),
                    plan.local.tolist())
        for i, (kind, chunk_ord, local) in enumerate(items):
            if kind == KIND_SAMPLE:
                chunk = chunks[plan.names[chunk_ord]]
                raw, shape = chunk.read_bytes(local), chunk.read_shape(local)
                oversize = len(raw) > self.meta.max_chunk_size
                payloads.append((raw, shape, self._deserialize_sample(
                    raw, shape) if oversize and self._tiles_oversize()
                    else hulls[chunk_ord]))
            else:
                payloads.append(self._serialize_sample(
                    self._pad_value() if kind == KIND_PAD
                    else read_plan.tiled_value(self, plan, i, chunks)))
        staged = WritePlan(self.tensor)
        staged.set_payloads(payloads)
        with self._lock:
            self._superseded += self._stored_keys(self.chunk_set)
            self._active_chunk = None
            self._pending_chunks.clear()
            self.enc, self.tile_enc = ChunkIdEncoder(), TileEncoder()
            self.chunk_set, self.chunk_stats = set(), {}
            self._commit_runs(staged, {})
            self._dirty = True
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
