"""The columnar read path: plan -> fetch -> slice over arrays (§3.4–3.5).

The chunk encoder *is* a sorted ``(chunk id, last index)`` column whose
lookups are a binary search (§3.4), so a request is resolved a request at
a time, never a row at a time:

- **plan** (:func:`plan_items`): one ``searchsorted`` resolves every row
  (:meth:`ChunkIdEncoder.translate_many`), one pass over the runs of
  ascending rows (``unique`` for any other order) groups them by owning
  chunk, and the plan *is* arrays — per item a ``kind`` code, a
  chunk ordinal into ``names`` and a local index.  Only the distinct
  chunks are walked in Python (storage key, prunability), once each;
- **fetch** (:meth:`FusedReadPlan._fetch_all`): the missing chunks of
  every tensor of a request in one ``get_many``, joining (not repeating)
  the fetches another plan of the same dataset handle has in flight
  (the handle's :class:`~repro.core.chunk_cache.ChunkCache` owns the
  table);
- **slice** (:func:`slice_plan`): a chunk whose data section is its
  samples' raw arrays laid end to end (:meth:`Chunk.dense`) is sliced
  with ONE gather, ``dense[locals]``, into the ``(n, *shape)`` column.
  Everything else — sample compression, ragged shapes, links, unsealed
  write-buffer chunks, ``decode=False`` — decodes per sample off the
  same arrays; padded and tiled items are exception positions, valued
  through the ``_KIND_VALUE`` operator table, and a pruned position is
  what the list starts as (no per-row work for a row never fetched).

A result is a *column*: one ndarray with a leading row axis when every
requested row came out of the gather, a list of per-row values otherwise
(the convention ``Tensor.numpy()`` and ``default_collate`` apply one
layer up); :func:`column_rows` cuts a dense column into per-row arrays
for the entry points whose contract is a list.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import tiling
from repro.core.chunk import Chunk
from repro.core.encoders import ChunkIdEncoder
from repro.exceptions import KeyNotFound, SampleIndexError
from repro.obs import tracing as _tracing
from repro.storage.provider import StorageProvider

if TYPE_CHECKING:
    from repro.core.chunk_engine import ChunkEngine

#: ``ReadPlan.kind`` codes.  A *sample* item is one sample of one chunk,
#: the other three are exceptions; ordered so that the kinds a dense
#: column can hold (a pruned position is zeros) come first.
KIND_SAMPLE, KIND_PRUNED, KIND_PAD, KIND_TILED = range(4)


class _PrunedCell:
    """What a list column holds for rows whose chunk was skipped by
    statistics pushdown: the chunk's [min, max] proves no sample in it can
    satisfy the predicate, so the cell was never fetched.  Falsy, so
    predicate code treats it as a non-match.  (A dense column holds zeros
    there; :attr:`ReadPlan.pruned` is the truth for both.)"""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<pruned>"


PRUNED = _PrunedCell()

_NO_ITEMS = np.empty(0, dtype=np.intp)
_BOOLS = frozenset((bool, np.bool_))


def as_row_array(rows: Sequence[int]) -> np.ndarray:
    """*rows* as a 1-D int64 array.  Rows are input from outside the
    program: Python / numpy integers and integer arrays are rows, anything
    else — a float ``int()`` would truncate, a string it would parse, a
    bool — raises :class:`SampleIndexError` naming the value."""
    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
    if not isinstance(rows, (np.ndarray, list, tuple)):
        rows = list(rows)
    arr = np.asarray(rows)
    if (
        arr.dtype.kind not in "iu" or arr.ndim != 1
        # numpy promotes a bool listed among integers to 0 / 1
        or (arr is not rows and not _BOOLS.isdisjoint(map(type, rows)))
    ):
        if arr.size == 0 and arr.ndim == 1:  # numpy types [] as float64
            return np.empty(0, dtype=np.int64)
        bad = next(
            (r for r in rows
             if type(r) in _BOOLS or not isinstance(r, (int, np.integer))),
            rows,
        )
        raise SampleIndexError(f"row index {bad!r} is not an integer")
    return arr if arr.dtype == np.int64 else arr.astype(np.int64)


def normalize_rows(rows: Sequence[int], length: int, tensor: str) -> np.ndarray:
    """:func:`as_row_array` with negative rows wrapped and every row
    checked against *length*; the error names the first offender."""
    given = idx = as_row_array(rows)
    # one unsigned compare finds both exceptions: a negative int64 reads
    # as >= 2**63
    if np.count_nonzero(idx.view(np.uint64) >= length):
        idx = np.where(idx < 0, idx + length, idx)
        bad = np.flatnonzero((idx < 0) | (idx >= length))
        if bad.size:
            raise SampleIndexError(
                f"index {given[bad[0]]} out of range for tensor {tensor!r} "
                f"of length {length}"
            )
    return idx


def column_rows(column) -> List:
    """A column as the list of its per-row values: the one place a dense
    column is cut into rows.  ``column[i, ...]`` keeps the row of an
    ``(n,)`` column a 0-d *ndarray* — callers test ``isinstance(v,
    np.ndarray)`` — where iterating would yield numpy scalars."""
    if not isinstance(column, np.ndarray):
        return column
    if column.ndim == 1:
        return [column[i, ...] for i in range(len(column))]
    return list(column)


class ReadPlan:
    """Chunk-granular execution plan for one batched read, as arrays.

    A plan is tensor-local and commit-resolved: every referenced chunk's
    storage key has already been walked through the version tree, so
    executing the plan is pure I/O + slicing.  Per *flat* item, in
    request order: ``flat`` (its index), ``kind`` (``KIND_*``), and for
    sample and pruned items ``chunk_ord`` (position of the owning chunk
    in ``names``; -1 otherwise) and ``local`` (index within that chunk).
    ``tiles`` maps the position of each tiled item to its tile chunks
    (all of them are in the fetch set).

    For sequence tensors ``seq_spans`` records each requested row's
    ``(start, count)`` span over the items so results reassemble into
    per-row sequences.
    """

    __slots__ = ("tensor", "index", "flat", "kind", "chunk_ord", "local",
                 "names", "tiles", "plain", "chunk_keys", "active_chunks",
                 "seq_spans", "skipped_chunks")

    def __init__(self, tensor: str, index: np.ndarray):
        self.tensor = tensor
        self.index = index                   # normalized requested rows
        self.flat = index
        self.kind = self.chunk_ord = self.local = _NO_ITEMS
        self.names: List[str] = []           # distinct chunks of the items
        self.tiles: Dict[int, Tuple[str, ...]] = {}
        #: every item is a sample item (no pad / tiled / pruned exception)
        self.plain = True
        self.chunk_keys: Dict[str, str] = {}  # chunk -> resolved storage key
        self.active_chunks: Set[str] = set()  # in-memory write-back chunks
        self.seq_spans: Optional[List[Tuple[int, int]]] = None
        #: chunks proven irrelevant by statistics pushdown (never fetched)
        self.skipped_chunks: Set[str] = set()

    @property
    def rows(self) -> List[int]:
        return self.index.tolist()

    @property
    def pruned(self) -> np.ndarray:
        """Bool mask over the items: exactly those of ``skipped_chunks``."""
        return self.kind == KIND_PRUNED

    @property
    def num_items(self) -> int:
        return len(self.kind)

    @property
    def num_chunks(self) -> int:
        """Distinct chunks the plan touches (fetchable + active)."""
        return len(self.chunk_keys) + len(self.active_chunks)

    def groups(self) -> List[Tuple[str, np.ndarray]]:
        """``(chunk name, positions of its sample items)`` for every chunk
        with a sample item to slice; positions index the item arrays."""
        if self.plain:
            if len(self.names) == 1:
                return [(self.names[0], np.arange(self.num_items))]
            live, ords = None, self.chunk_ord
        else:
            live = np.flatnonzero(self.kind == KIND_SAMPLE)
            ords = self.chunk_ord[live]
        order = np.argsort(ords, kind="stable")
        if live is not None:
            order = live[order]
        ends = np.cumsum(np.bincount(ords, minlength=len(self.names)))
        out, start = [], 0
        for name, end in zip(self.names, ends.tolist()):
            if end > start:
                out.append((name, order[start:end]))
            start = end
        return out

    def __repr__(self) -> str:
        return (
            f"ReadPlan(tensor={self.tensor!r}, rows={len(self.index)}, "
            f"items={self.num_items}, chunks={self.num_chunks})"
        )


# --------------------------------------------------------------------------- #
# plan
# --------------------------------------------------------------------------- #


def _note_chunk(engine: "ChunkEngine", plan: ReadPlan, name: str) -> None:
    if name in plan.chunk_keys or name in plan.active_chunks:
        return
    if engine._mem_chunk(name) is not None:
        plan.active_chunks.add(name)
        return
    plan.chunk_keys[name] = engine._chunk_storage_key(name)


def _chunk_runs(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, return_inverse=True)`` of a request's encoder
    rows — the distinct ones, ascending, and each row's ordinal among
    them — without the sort where the request's shape allows: a request
    in one chunk (every chunk-ordered loader group) is one chunk, and
    ascending rows (every TQL and served window) hold each chunk as one
    run, found in O(n)."""
    if len(rows) and not np.count_nonzero(rows != rows[0]):
        return rows[:1], np.zeros(len(rows), dtype=np.intp)
    step = rows[1:] - rows[:-1]
    if not len(rows) or np.count_nonzero(step < 0):
        return np.unique(rows, return_inverse=True)
    cuts = np.flatnonzero(step != 0) + 1
    starts = np.concatenate(([0], cuts))
    runs = np.concatenate((cuts, [len(rows)])) - starts
    return rows[starts], np.repeat(np.arange(len(starts)), runs)


def plan_items(engine: "ChunkEngine", plan: ReadPlan, flat: np.ndarray,
               bounds=None) -> ReadPlan:
    """Fill *plan* for the flat items *flat* (int64, in range): resolve,
    group by chunk, and walk each distinct chunk once.  Caller holds the
    engine lock."""
    n = len(flat)
    kind = np.zeros(n, dtype=np.uint8)
    rows, plan.local = engine.enc.translate_many(flat)
    live = None
    if engine.tile_enc.num_tiled or engine.pad_enc.num_padded:
        kind[engine.tile_enc.mask(flat)] = KIND_TILED
        kind[engine.pad_enc.mask(flat)] = KIND_PAD
        if kind.any():
            plan.plain = False
            live = np.flatnonzero(kind == KIND_SAMPLE)
            rows = rows[live]
    distinct, ords = _chunk_runs(rows)
    plan.names = [engine.enc.chunk_name(r) for r in distinct.tolist()]
    for name in plan.names:
        if (
            bounds is not None
            and engine._mem_chunk(name) is None
            and engine._is_prunable(name, bounds)
        ):
            plan.skipped_chunks.add(name)
        else:
            _note_chunk(engine, plan, name)
    if live is None:
        plan.chunk_ord = ords
    else:
        plan.chunk_ord = np.full(n, -1, dtype=np.intp)
        plan.chunk_ord[live] = ords
        for pos in np.flatnonzero(kind == KIND_TILED).tolist():
            plan.tiles[pos] = tuple(
                ChunkIdEncoder.name_from_id(cid)
                for cid in engine.enc.tile_chunk_ids(int(flat[pos]))
            )
            for name in plan.tiles[pos]:
                _note_chunk(engine, plan, name)
    if plan.skipped_chunks:
        skipped = np.asarray(
            [name in plan.skipped_chunks for name in plan.names]
        )
        kind[skipped[plan.chunk_ord] & (plan.chunk_ord >= 0)] = KIND_PRUNED
        plan.plain = False
    plan.flat, plan.kind = flat, kind
    return plan


def plan_rows(engine: "ChunkEngine", index: np.ndarray,
              bounds=None) -> ReadPlan:
    """The :class:`ReadPlan` of the normalized rows *index* of the tensor
    (sequence rows expand to their flat item ranges).  Caller holds the
    engine lock."""
    plan = ReadPlan(engine.tensor, index)
    if not engine.meta.is_sequence:
        return plan_items(engine, plan, index, bounds)
    starts, ends = engine.seq_enc.item_ranges(index)
    counts = ends - starts
    offsets = np.cumsum(counts) - counts
    plan.seq_spans = list(zip(offsets.tolist(), counts.tolist()))
    flat = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
    return plan_items(engine, plan, flat)


def plan_chunk_heads(engine: "ChunkEngine", names: Sequence[str]) -> ReadPlan:
    """A plan over the first sample of each chunk of *names* — the tiles
    of a tiled sample, each the one sample of its own chunk."""
    plan = ReadPlan(engine.tensor, np.empty(0, dtype=np.int64))
    plan.names = list(names)
    plan.chunk_ord = np.arange(len(plan.names))
    plan.kind = np.zeros(len(plan.names), dtype=np.uint8)
    plan.local = np.zeros(len(plan.names), dtype=np.int64)
    with engine._lock:
        for name in plan.names:
            _note_chunk(engine, plan, name)
    return plan


# --------------------------------------------------------------------------- #
# slice
# --------------------------------------------------------------------------- #


def _pad_value(engine, plan, pos, chunks, decode):
    return engine.empty_sample() if decode else b""


def tiled_value(engine, plan, pos, chunks, decode=True):
    names = plan.tiles[pos]
    if not decode:
        # no single encoded payload exists; first tile, as the
        # historical raw path returned
        return chunks[names[0]].read_bytes(0)
    sample_shape, tile_shape = engine.tile_enc.layout(int(plan.flat[pos]))
    tiles = [
        engine._deserialize_sample(
            chunks[name].read_bytes(0), chunks[name].read_shape(0)
        )
        for name in names
    ]
    return tiling.join(
        tiles, sample_shape, tile_shape, np.dtype(engine.meta.dtype)
    )


#: value of an exception item: kind -> fn(engine, plan, pos, chunks, decode)
_KIND_VALUE = {
    KIND_PAD: _pad_value,
    KIND_TILED: tiled_value,
}


def _gather(engine, plan: ReadPlan, groups, chunks) -> Optional[np.ndarray]:
    """The dense ``(n, *shape)`` column of *plan*, one gather per chunk —
    or ``None`` unless every touched chunk is dense with one trailing
    shape.  ``dense[locals]`` copies, so the column never aliases chunk
    memory; pruned positions hold zeros."""
    dtype = np.dtype(engine.meta.dtype)
    views = [chunks[name].dense(dtype) for name, _pos in groups]
    if not views or any(
        v is None or v.shape[1:] != views[0].shape[1:] for v in views
    ):
        return None
    if len(views) == 1 and plan.plain:
        return views[0][plan.local]
    alloc = np.empty if plan.plain else np.zeros
    column = alloc((plan.num_items,) + views[0].shape[1:], dtype=dtype)
    for (_name, pos), view in zip(groups, views):
        column[pos] = view[plan.local[pos]]
    return column


def slice_plan(engine: "ChunkEngine", plan: ReadPlan,
               chunks: Dict[str, Chunk], decode: bool = True):
    """The column of *plan*'s flat items out of the fetched *chunks*."""
    groups = plan.groups()
    meta = engine.meta
    if (
        decode and meta.dtype is not None
        and not meta.sample_compression and not meta.is_link
        and (plan.plain or plan.kind.max() <= KIND_PRUNED)
    ):
        column = _gather(engine, plan, groups, chunks)
        if column is not None:
            return column
    n = plan.num_items
    # a pruned position is never visited: it is what the list starts as
    values: List = [PRUNED if plan.skipped_chunks else None] * n
    for name, pos in groups:
        chunk = chunks[name]
        for p, local in zip(pos.tolist(), plan.local[pos].tolist()):
            raw = chunk.read_bytes(local)
            values[p] = (
                engine._deserialize_sample(raw, chunk.read_shape(local))
                if decode else raw
            )
    if not plan.plain:
        kinds = plan.kind
        for p in np.flatnonzero(kinds > KIND_PRUNED).tolist():
            values[p] = _KIND_VALUE[kinds[p]](engine, plan, p, chunks, decode)
    return values


def assemble_sequences(engine: "ChunkEngine", plan: ReadPlan, column,
                       decode: bool, aslist: bool) -> List:
    """Per-row sequences out of the flat item *column* of a sequence
    plan: uniform items stack unless ``aslist`` / ``decode=False``."""
    values = column_rows(column)
    out = []
    for start, count in plan.seq_spans:
        items = values[start : start + count]
        if not decode or aslist:
            out.append(items)
        elif not items:
            # an empty span stacks to zero rows of the tensor's own
            # dtype, never numpy's float64 default
            out.append(np.empty(
                (0,), dtype=np.dtype(engine.meta.dtype or "float64")
            ))
        elif len({item.shape for item in items}) == 1:
            out.append(np.stack(items))
        else:
            out.append(items)
    return out


def fetch_ranged(engine: "ChunkEngine",
                 plan: ReadPlan) -> Optional[Dict[str, Chunk]]:
    """The §3.5 *ranged* fetch strategy of the one-row entry points: a
    header probe plus the sample's exact byte range instead of the
    whole chunk — right for sparse random access (one sample of an
    8 MB chunk), wrong for streaming, where neighbours are consumed
    next and the decoded chunk should cache.

    Taken for one cold sample item of a sample-compressed, not
    chunk-compressed, non-link tensor when the sample is under a
    quarter of the chunk's data (above that the whole fetch costs
    about the same and caches).  The bytes come back as a one-sample
    stand-in chunk, never cached, and the plan's item is re-pointed at
    its local index 0 so the one slicer :func:`slice_plan` serves it.
    Returns ``None`` when the strategy does not apply.
    """
    meta = engine.meta
    if (
        plan.num_items != 1
        or not plan.plain
        or not plan.chunk_keys
        or not meta.sample_compression
        or meta.chunk_compression
        or meta.is_link
    ):
        return None
    name, local = plan.names[0], int(plan.local[0])
    key = plan.chunk_keys[name]
    if engine.cache.get(key) is not None:
        return None
    header = engine._load_header(name)
    start, end = header.sample_range(local)
    if (
        header.is_chunk_compressed
        or (end - start) * 4 >= int(header.byte_positions[-1][1])
    ):
        return None
    raw = engine.storage.get_bytes(key, start, end)
    standin = Chunk(dtype=header.dtype, name=name)
    standin.append(raw, header.sample_shape(local))
    # a ranged read is a decoded-chunk cache miss that fetched no chunk
    for counter in (engine._c_partial, engine._m_partial,
                    engine._c_misses, engine._m_misses):
        counter.inc()
    plan.local[0] = 0
    return {name: standin}


# --------------------------------------------------------------------------- #
# cross-tensor plan fusion
# --------------------------------------------------------------------------- #


class FusedReadPlan:
    """Per-tensor :class:`ReadPlan`\\ s of one request, executed as ONE
    storage round trip.

    A dataloader worker group, a TQL scan window, and a served
    ``read_batch`` all touch several tensors for the *same* rows; without
    fusion each tensor's plan pays its own
    :meth:`~repro.storage.provider.StorageProvider.get_many`.  Fusing
    merges every plan's missing chunks into a single ``get_many`` per
    distinct storage provider (normally exactly one — all engines of a
    dataset share the provider), so a group touching images+labels+boxes
    costs one round trip instead of three.  Each plan then slices its
    samples exactly as its own :meth:`ChunkEngine.execute_plan` would —
    results are byte-identical, only the round-trip count changes.
    """

    __slots__ = ("parts", "joined", "fetched", "row_bytes")

    def __init__(self):
        self.parts: List[Tuple["ChunkEngine", ReadPlan]] = []
        #: of the last fetch: keys joined, ``{key: blob bytes}`` fetched, and
        #: the most stored bytes per row of a fetched chunk, summed by engine
        self.joined, self.row_bytes = 0, 0.0
        self.fetched: Dict[str, int] = {}

    def add(self, engine: "ChunkEngine", plan: ReadPlan) -> "FusedReadPlan":
        self.parts.append((engine, plan))
        return self

    @property
    def num_chunks(self) -> int:
        return sum(plan.num_chunks for _e, plan in self.parts)

    def __repr__(self) -> str:
        return (
            f"FusedReadPlan(tensors={[p.tensor for _e, p in self.parts]}, "
            f"chunks={self.num_chunks})"
        )

    def _fetch_all(self) -> List[Dict[str, Chunk]]:
        """Resident chunks per part, every miss fetched and decoded — the
        one routine through which missing chunks reach memory.  The plan
        claims its misses once per chunk cache (normally one: every
        engine of a dataset handle shares it), leads the ones nobody is
        fetching (ONE ``get_many`` per storage provider) and joins the
        cache's flights of the rest."""
        self.fetched, self.row_bytes, self.joined = {}, 0.0, 0
        resident = []
        # id(cache) -> (cache, {storage key: (engine, chunk name)})
        wants: Dict[int, tuple] = {}
        for engine, plan in self.parts:
            chunks, to_fetch = engine._plan_resident_chunks(plan)
            resident.append((engine, chunks, to_fetch))
            if to_fetch:
                want = wants.setdefault(id(engine.cache), (engine.cache, {}))
                want[1].update((key, (engine, name))
                               for key, name in to_fetch.items())
        if not wants:  # all resident: no table is touched
            return [chunks for _engine, chunks, _to_fetch in resident]
        claims = {i: (cache, want, *cache.inflight.claim(want))
                  for i, (cache, want) in wants.items()}
        batches: Dict[int, Tuple[StorageProvider, List[str]]] = {}
        for cache, want, led, _followed in claims.values():
            for key, flight in led.items():
                # a leader caches its chunk before its flight leaves the
                # table: one that landed since the residency check is here
                flight.value = cache.get(key)
                if flight.value is None:
                    store = want[key][0].storage
                    batches.setdefault(id(store), (store, []))[1].append(key)
        self.joined = sum(len(claim[3]) for claim in claims.values())
        with ExitStack() as landing:
            for cache, _want, led, _followed in claims.values():
                landing.enter_context(cache.inflight.leading(led))
            blobs: Dict[str, bytes] = {}
            if batches:
                with _tracing.span(
                    "engine.fetch_chunks", tensors=len(self.parts),
                    chunks=sum(len(keys) for _s, keys in batches.values()),
                ):
                    for storage, keys in batches.values():
                        blobs.update(storage.get_many(sorted(keys)))
            rates: Dict["ChunkEngine", float] = {}  # the densest row each
            for cache, want, led, _followed in claims.values():
                for key, flight in led.items():
                    if flight.value is None:
                        if key not in blobs:
                            raise KeyNotFound(key)
                        engine, name = want[key]
                        flight.value = engine._decode_chunk(blobs[key], name)
                        cache.put(key, flight.value)
                        self.fetched[key] = n = len(blobs[key])
                        rate = n / max(1, flight.value.num_samples)
                        rates[engine] = max(rates.get(engine, 0.0), rate)
            self.row_bytes = sum(rates.values())
        for engine, chunks, to_fetch in resident:
            _c, _w, led, followed = claims[id(engine.cache)]
            for key, name in to_fetch.items():
                chunks[name] = (led.get(key) or followed[key]).wait()
        return [chunks for _engine, chunks, _to_fetch in resident]

    def execute(self, decode: bool = True, aslist: bool = False) -> List:
        """Run every part; returns one column per part, in :meth:`add`
        order — each exactly what the part's own ``execute_plan`` would
        have returned."""
        fetched = self._fetch_all()
        return [
            engine.execute_plan(plan, aslist=aslist, decode=decode,
                                _chunks=chunks)
            for (engine, plan), chunks in zip(self.parts, fetched)
        ]

    def prefetch(self) -> None:
        """Fetch + decode every missing chunk into the engines' cache
        without slicing any samples — the server-push speculation path."""
        self._fetch_all()
