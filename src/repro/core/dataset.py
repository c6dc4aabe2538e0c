"""Dataset: columnar collection of tensors with version control (§3.1, §4).

A dataset is a flat key space on a storage provider holding parallel
tensors (columns), groups (syntactic nesting), hidden companion tensors
(per-sample shapes for fast queries, stable sample ids for merge,
downsampled image pyramids for visualization), and the version-control
tree.  Subscripting with ints/slices/lists produces zero-copy *views*
that share the underlying chunk engines.
"""

from __future__ import annotations

import threading
import weakref
from collections import ChainMap
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.chunk_cache import ChunkCache
from repro.core.chunk_engine import ChunkEngine
from repro.core.read_plan import FusedReadPlan, as_row_array, column_rows
from repro.core.htypes import UNSPECIFIED
from repro.core.index import Index
from repro.core.meta import DatasetMeta, TensorMeta
from repro.core.sample import Sample
from repro.core.tensor import Tensor
from repro.core.version_state import VersionState
from repro.exceptions import (
    DeepLakeError,
    FormatError,
    GroupError,
    KeyNotFound,
    ReadOnlyDatasetError,
    TensorAlreadyExistsError,
    TensorDoesNotExistError,
)
from repro.storage.provider import StorageProvider
from repro.util import keys as K
from repro.util.ids import new_sample_id, new_view_id
from repro.util.json_util import json_dumps, json_loads
from repro.version_control import operations as vc_ops
from repro.version_control.tree import (
    VersionTree,
    pack_manifest,
    unpack_manifest,
)

_RESERVED = {"queries", "versions", "locks"}

#: One window of :meth:`Dataset._extend_from` (copy / merge) holds at most
#: this many rows and about this many decoded bytes, sized from the source
#: tensor's largest sample.
_MOVE_WINDOW_ROWS = 1024
_MOVE_WINDOW_BYTES = 64 * 1024 * 1024


class Dataset:
    """A Deep Lake dataset (or a view of one)."""

    def __init__(
        self,
        storage: StorageProvider,
        read_only: bool = False,
        strict: bool = True,
        path: str = "",
        _version_state: Optional[VersionState] = None,
        _tree: Optional[VersionTree] = None,
    ):
        self.storage = storage
        self.path = path
        self.read_only = read_only
        self.strict = strict
        self.index = Index()
        self.group_index = ""
        #: set for views produced by TQL (lineage: which query made this)
        self.query_string: Optional[str] = None
        #: TQL bare-column SELECTs narrow the visible tensor set
        self._tensor_filter: Optional[List[str]] = None

        self._tree = _tree or VersionTree.load(storage)
        self.version_state = _version_state or VersionState(
            self._tree.branches.get("main", K.FIRST_COMMIT_ID), "main"
        )
        self.version_state.chain_provider = self._tree.chain
        node = self._tree.node(self.version_state.commit_id)
        self.version_state.branch = node.branch
        self._commit_read_only = not node.is_head

        self._engines: Dict[str, ChunkEngine] = {}
        # every engine's decoded chunks under one budget (views share it)
        self._chunk_cache = ChunkCache()
        self._open_lock = threading.Lock()  # shared with views (_spawn)
        # commit id -> {state key: blob}, every commit of the chain as its
        # manifest holds it (views share the dict, like _engines); a
        # flush merges what the engines drain into the head's entry, and
        # _unpublished names the heads whose entry is ahead of storage
        self._state: Dict[str, Dict[str, bytes]] = {}
        self._unpublished: Set[str] = set()
        self._meta = self._load_state()
        if self._tree.stored is None and self._writable_head():
            self._tree.save(self.storage)  # a dataset exists with its tree

    # ------------------------------------------------------------------ #
    # construction / persistence plumbing
    # ------------------------------------------------------------------ #

    def _load_state(self) -> DatasetMeta:
        """Read the state of every commit of the chain not in memory yet
        and return the dataset meta nearest the current commit.

        ONE ``get_many`` of the manifests the tree names, so a cold open
        is the tree, this batch, then chunks, at any tensor count or
        history depth; a head never flushed has no manifest and shows its
        parent's state.  A commit written before manifests is read at its
        enumerated keys: its dataset meta rides the same batch, every
        tensor's state files (``K.state_keys``) one more."""
        chain = self.version_state.commit_chain()
        nodes = [self._tree.node(c) for c in chain if c not in self._state]
        found = self.storage.get_many([
            node.manifest or K.dataset_meta_key(node.commit_id)
            for node in nodes
        ]) if nodes else {}
        legacy = []
        for node in nodes:
            cid, key = node.commit_id, node.manifest
            if key is None:
                legacy.append(cid)
                key = K.dataset_meta_key(cid)
                self._state[cid] = {key: found[key]} if key in found else {}
            elif key in found:
                self._state[cid] = unpack_manifest(
                    found[key], K.commit_root(cid)
                )
            elif node.is_head:
                self._state[cid] = {}
            else:
                raise FormatError(
                    f"commit {cid!r}: the version tree names manifest "
                    f"{key!r}, which is not in storage"
                )
        blob = self._stored_meta_blob()
        meta = DatasetMeta.from_json(blob) if blob else DatasetMeta()
        if legacy and meta.tensors:
            found = self.storage.get_many([
                key for name in meta.tensors
                for key in K.state_keys(legacy, name)
            ])
            for cid in legacy:
                self._state[cid].update(
                    (k, found[k]) for name in meta.tensors
                    for k in K.state_keys([cid], name) if k in found
                )
        return meta

    def _chain_state(self) -> ChainMap:
        """Every state blob of the current chain as one mapping (keys
        carry their commit's root, so commits never collide) — what
        ``ChunkEngine._load_state`` and the commit diffs read."""
        return ChainMap(*(
            self._state.get(cid, {})
            for cid in self.version_state.commit_chain()
        ))

    def _stored_meta_blob(self) -> Optional[bytes]:
        """The dataset meta the chain's state holds, nearest commit first."""
        for cid in self.version_state.commit_chain():
            blob = self._state.get(cid, {}).get(K.dataset_meta_key(cid))
            if blob is not None:
                return blob
        return None

    def _dataset_meta_items(self) -> Dict[str, bytes]:
        """The current commit's dataset meta as a one-key dict — empty
        when the chain's state already holds these bytes."""
        blob = self._meta.to_json()
        if blob == self._stored_meta_blob():
            return {}
        return {K.dataset_meta_key(self.version_state.commit_id): blob}

    def _new_engine(self, name: str, **kwargs) -> ChunkEngine:
        """An engine of this dataset, reading through its one chunk cache;
        its own flushes (rechunk, stats backfill) go through :meth:`flush`.
        It holds the dataset weakly — every view holds it strongly
        (:meth:`_spawn`) — so no cycle keeps the engines alive."""
        owner = weakref.ref(self.__dict__.get("_owner", self))

        def flush() -> None:
            ds = owner()
            if ds is None:
                raise DeepLakeError(
                    f"tensor {name!r}: its dataset is gone; flush the "
                    "dataset the tensor was opened from"
                )
            ds.flush()

        return ChunkEngine(name, self.storage, self.version_state,
                           flush_via=flush, cache=self._chunk_cache, **kwargs)

    def _spawn(self, index: Optional[Index] = None,
               group_index: Optional[str] = None) -> "Dataset":
        """Shallow view sharing engines/chunk cache/tree/version state."""
        view = object.__new__(Dataset)
        view.__dict__.update(self.__dict__)
        view._owner = self.__dict__.get("_owner", self)
        view.index = index if index is not None else self.index
        view.group_index = (
            group_index if group_index is not None else self.group_index
        )
        return view

    def _at_commit(self, commit_id: str) -> "Dataset":
        """Independent dataset object pinned at *commit_id* (time travel)."""
        vs = VersionState(commit_id)
        return Dataset(
            self.storage,
            read_only=True,
            strict=self.strict,
            path=self.path,
            _version_state=vs,
        )

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyDatasetError("dataset is opened read-only")
        if self._commit_read_only:
            raise ReadOnlyDatasetError(
                f"commit {self.version_state.commit_id[:12]!r} is an "
                "immutable snapshot; checkout a branch to write"
            )
        self.storage.check_writable()

    def _set_commit_read_only(self, flag: bool) -> None:
        self._commit_read_only = flag

    def _reload_version_view(self) -> None:
        self._engines.clear()
        self._chunk_cache.clear()  # another handle may have rewritten it
        for cid in [c for c in self._state if self._tree.node(c).is_head
                    and c not in self._unpublished]:
            del self._state[cid]  # another handle may have flushed it
        self._meta = self._load_state()

    # ------------------------------------------------------------------ #
    # engines & names
    # ------------------------------------------------------------------ #

    def _open_engines(self, names: Sequence[str]) -> List[ChunkEngine]:
        """Engines of tensors *names*, in order, built from the chain's
        state the open already read (:meth:`_load_state`): no storage
        call; the lock makes concurrent first readers share one engine."""
        engines = self._engines
        if any(name not in engines for name in names):
            with self._open_lock:  # re-check: a racing reader may have won
                missing = [n for n in dict.fromkeys(names) if n not in engines]
                for name in missing:
                    if name not in self._meta.tensors:
                        raise TensorDoesNotExistError(name)
                blobs = self._chain_state()
                for name in missing:
                    engines[name] = self._new_engine(name, state=blobs)
        return [engines[name] for name in names]

    def _engine(self, name: str) -> ChunkEngine:
        engine = self._engines.get(name)  # open already: the per-row case
        return engine or self._open_engines((name,))[0]

    def _all_tensor_names(self, include_hidden: bool = True) -> List[str]:
        return (
            list(self._meta.tensors)
            if include_hidden
            else list(self._meta.visible_tensors)
        )

    def _qualify(self, name: str) -> str:
        return f"{self.group_index}/{name}" if self.group_index else name

    # ------------------------------------------------------------------ #
    # schema
    # ------------------------------------------------------------------ #

    def create_tensor(
        self,
        name: str,
        htype: str = UNSPECIFIED,
        dtype: Optional[str] = None,
        sample_compression=UNSPECIFIED,
        chunk_compression=UNSPECIFIED,
        max_chunk_size: Optional[int] = None,
        hidden: bool = False,
        create_shape_tensor: bool = True,
        create_id_tensor: bool = True,
        downsampling: Optional[int] = None,
        **meta_kwargs,
    ) -> Tensor:
        """Declare a new tensor column.

        ``downsampling=k`` additionally maintains a hidden 1/k-scale copy
        of every image (used by the visualizer for instant previews).
        Ends with one :meth:`flush` — one manifest PUT — so the tensor,
        its hidden companions and the dataset meta that names them become
        durable together, never the meta ahead of a companion's state.
        """
        self._check_writable()
        name = self._qualify(name)
        parts = name.split("/")
        for part in parts:
            if not part or part in _RESERVED:
                raise FormatError(f"invalid tensor name {name!r}")
        if name in self._meta.tensors:
            raise TensorAlreadyExistsError(name)
        if name in self._meta.groups:
            raise GroupError(f"{name!r} is a group, cannot be a tensor")
        # implicit groups for nested names
        if len(parts) > 1:
            self._meta.add_group("/".join(parts[:-1]))

        kwargs = dict(meta_kwargs)
        if max_chunk_size is not None:
            kwargs["max_chunk_size"] = max_chunk_size
        meta = TensorMeta(
            htype=htype,
            dtype=dtype,
            sample_compression=sample_compression,
            chunk_compression=chunk_compression,
            hidden=hidden,
            **kwargs,
        )
        engine = self._new_engine(name, meta=meta)
        self._engines[name] = engine
        self._meta.add_tensor(name, hidden=hidden or meta.hidden)

        if not hidden:
            if create_shape_tensor:
                shape_name = K.hidden_tensor_name(name, "shape")
                self._create_hidden(shape_name, dtype="int64")
                meta.links["shape"] = shape_name
            if create_id_tensor:
                id_name = K.hidden_tensor_name(name, "id")
                self._create_hidden(id_name, dtype="uint64")
                meta.links["id"] = id_name
            if downsampling and meta.htype == "image":
                factor = int(downsampling)
                if factor < 2:
                    raise FormatError("downsampling factor must be >= 2")
                down_name = K.hidden_tensor_name(name, f"downsampled_{factor}")
                down = TensorMeta(
                    htype="image",
                    sample_compression=meta.sample_compression or "jpeg",
                    hidden=True,
                )
                self._engines[down_name] = self._new_engine(
                    down_name, meta=down
                )
                self._meta.add_tensor(down_name, hidden=True)
                meta.links["downsampled"] = down_name
                meta.info["downsampling_factor"] = factor

        self.flush()
        return Tensor(self, name, Index())

    def _create_hidden(self, name: str, dtype: str) -> None:
        meta = TensorMeta(
            htype="generic", dtype=dtype, chunk_compression="lz4", hidden=True
        )
        self._engines[name] = self._new_engine(name, meta=meta)
        self._meta.add_tensor(name, hidden=True)

    def _create_tensor_from_meta(
        self, name: str, src: TensorMeta, **overrides
    ) -> Tensor:
        """Create a tensor mirroring another's configuration (merge/copy)."""
        kwargs = dict(
            htype=src.full_htype,
            dtype=src.dtype,
            sample_compression=src.sample_compression,
            chunk_compression=src.chunk_compression,
            max_chunk_size=src.max_chunk_size,
            create_shape_tensor="shape" in src.links,
            create_id_tensor="id" in src.links,
        )
        kwargs.update(overrides)
        return self.create_tensor(name, **kwargs)

    def create_group(self, name: str) -> "Dataset":
        self._check_writable()
        name = self._qualify(name)
        if name in self._meta.tensors:
            raise GroupError(f"{name!r} is a tensor, cannot be a group")
        self._meta.add_group(name)
        self.flush()
        return self._spawn(group_index=name)

    def delete_tensor(self, name: str) -> None:
        """Remove a tensor (and companions) from the current head.

        The head's manifest stops naming them — one flush — *before*
        their chunks are deleted: the worst a crash in between leaves is
        unreferenced keys, never a dataset meta naming a tensor with no
        state.
        """
        self._check_writable()
        name = self._qualify(name)
        engine = self._engine(name)
        victims = [name] + [t for t in engine.meta.links.values()]
        head = self.version_state.commit_id
        state = self._state.setdefault(head, {})
        folders = [f"{K.commit_root(head)}{victim}/" for victim in victims]
        for victim in victims:
            self._engines.pop(victim, None)
            if victim in self._meta.tensors:
                self._meta.tensors.remove(victim)
            if victim in self._meta.hidden_tensors:
                self._meta.hidden_tensors.remove(victim)
        for key in [k for k in state if k.startswith(tuple(folders))]:
            del state[key]
            self._unpublished.add(head)
        self.flush()
        for folder in folders:
            self.storage.clear(folder)

    # ------------------------------------------------------------------ #
    # hidden-tensor synchronisation
    # ------------------------------------------------------------------ #

    def _downsample(self, arr: np.ndarray, factor: int) -> np.ndarray:
        return np.ascontiguousarray(arr[::factor, ::factor])

    def _sync_companions(
        self,
        name: str,
        engine,
        start: int,
        count: int,
        sample_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Mirror rows ``[start, start+count)`` of *name* into its hidden
        companion tensors (shape / id / downsampled), batched."""
        links = engine.meta.links
        if not links or not count:
            return
        rows = list(range(start, start + count))
        if "shape" in links:
            if engine.meta.is_link:
                shapes = [np.array([], dtype=np.int64)] * count
            else:
                shapes = [
                    np.asarray(s, dtype=np.int64)
                    for s in engine.read_shapes_batch(rows)
                ]
            self._engine(links["shape"]).extend(shapes)
        if "id" in links:
            if sample_ids is None:
                sample_ids = [new_sample_id() for _ in rows]
            self._engine(links["id"]).extend(
                [np.uint64(sid) for sid in sample_ids]
            )
        if "downsampled" in links:
            factor = int(engine.meta.info.get("downsampling_factor", 2))
            arrs = engine.read_batch(rows, aslist=True)
            self._engine(links["downsampled"]).extend(
                [self._downsample(arr, factor) for arr in arrs]
            )

    def _commit_extend(
        self, name: str, engine, plan, sample_ids=None
    ) -> None:
        """Commit a staged WritePlan on *engine* and sync companions."""
        start = engine.num_samples
        engine.commit_appends(plan)
        self._sync_companions(
            name, engine, start, plan.num_rows, sample_ids
        )

    def _extend_with_id(
        self, name: str, values, sample_ids: Optional[Sequence[int]] = None
    ) -> None:
        """Columnar extend of tensor *name* plus its hidden companions.

        Every sample is staged (serialized, in parallel) before any engine
        state is committed: a bad sample anywhere in *values* aborts the
        whole batch with the tensor and its companions untouched.
        """
        self._check_writable()
        engine = self._engine(name)
        self._resume_last_chunks(
            [engine, *self._open_engines(list(engine.meta.links.values()))]
        )
        plan = engine.stage_appends(values)
        self._commit_extend(name, engine, plan, sample_ids)

    def _resume_last_chunks(self, engines: Sequence[ChunkEngine]) -> None:
        """Fetch the stored last chunk of every engine whose next append
        resumes one not in memory (a cold handle's first extend) in ONE
        ``get_many``, instead of a GET per tensor as each resumes it."""
        fused = FusedReadPlan()
        for engine in engines:
            plan = engine.plan_resume()
            if plan is not None:
                fused.add(engine, plan)
        if fused.parts:
            try:
                fused.prefetch()
            except KeyNotFound:
                pass  # a lost last chunk is not resumed: a fresh one starts

    def _extend_from(
        self,
        name: str,
        src: ChunkEngine,
        rows: Sequence[int],
        sample_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Append *rows* of the tensor behind *src* (an engine of another
        dataset or commit) to tensor *name*, keeping *sample_ids*.

        Rows move in windows: one ``read_batch`` — so one fetch and one
        decompress per source chunk — then one :meth:`_extend_with_id`.
        When both sides store a plain tensor under the same sample codec
        the encoded payloads are copied verbatim (no decode/re-encode
        generation loss for lossy codecs); tiled and padded rows have no
        single payload and are re-read decoded.
        """
        meta = src.meta
        sc = meta.sample_compression
        verbatim = (
            sc
            and sc == self._engine(name).meta.sample_compression
            and not meta.is_sequence
            and not meta.is_link
        )
        row_nbytes = meta.max_sample_nbytes
        if meta.is_sequence:  # the shape interval describes one item
            row_nbytes *= -(-src.enc.num_samples // max(1, src.num_samples))
        window = max(
            1, min(_MOVE_WINDOW_ROWS, _MOVE_WINDOW_BYTES // max(1, row_nbytes))
        )
        for at in range(0, len(rows), window):
            part = rows[at:at + window]
            if verbatim:
                values = [
                    Sample(buffer=raw, compression=sc)
                    for raw in src.read_batch(part, decode=False)
                ]
                redo = [
                    i for i, row in enumerate(part)
                    if row in src.tile_enc or src.pad_enc.is_padded(row)
                ]
                if redo:
                    for i, value in zip(
                        redo, src.read_batch([part[i] for i in redo])
                    ):
                        values[i] = value
            else:
                values = src.read_batch(part, aslist=True)
            self._extend_with_id(
                name, values,
                sample_ids[at:at + window] if sample_ids else None,
            )

    def _update_with_sync(self, name: str, index: int, value) -> None:
        self._check_writable()
        engine = self._engine(name)
        engine.update(index, value)
        links = engine.meta.links
        if "shape" in links:
            shape = np.asarray(engine.read_shape(index), dtype=np.int64)
            shape_engine = self._engine(links["shape"])
            if index < shape_engine.num_samples:
                shape_engine.update(index, shape)
        if "downsampled" in links:
            factor = int(engine.meta.info.get("downsampling_factor", 2))
            arr = engine.read_sample(index)
            down_engine = self._engine(links["downsampled"])
            if index < down_engine.num_samples:
                down_engine.update(index, self._downsample(arr, factor))

    def _pad_with_sync(self, name: str, length: int) -> None:
        """Sparse support: pad tensor + companions up to *length* rows."""
        engine = self._engine(name)
        engine.pad_to(length)
        links = engine.meta.links
        if "shape" in links:
            shape_engine = self._engine(links["shape"])
            shape_engine.extend(
                [np.array([], dtype=np.int64)]
                * (length - shape_engine.num_samples)
            )
        if "id" in links:
            id_engine = self._engine(links["id"])
            id_engine.extend([
                np.uint64(new_sample_id())
                for _ in range(length - id_engine.num_samples)
            ])
        if "downsampled" in links:
            down_engine = self._engine(links["downsampled"])
            down_engine.pad_to(length)

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #

    @property
    def tensors(self) -> Dict[str, Tensor]:
        """Visible tensors under the current group, name -> Tensor."""
        prefix = f"{self.group_index}/" if self.group_index else ""
        out = {}
        for name in self._meta.visible_tensors:
            if self._tensor_filter is not None and name not in self._tensor_filter:
                continue
            if name.startswith(prefix):
                rest = name[len(prefix):]
                if "/" not in rest:
                    out[rest] = Tensor(self, name, self.index)
        return out

    @property
    def groups(self) -> List[str]:
        prefix = f"{self.group_index}/" if self.group_index else ""
        out = []
        for g in self._meta.groups:
            if g.startswith(prefix):
                rest = g[len(prefix):]
                if rest and "/" not in rest:
                    out.append(rest)
        return out

    def __getitem__(self, item):
        if isinstance(item, str):
            name = self._qualify(item)
            if name in self._meta.tensors:
                return Tensor(self, name, self.index)
            if name in self._meta.groups:
                return self._spawn(group_index=name)
            raise TensorDoesNotExistError(item)
        return self._spawn(index=self.index.compose(item))

    def __getattr__(self, item: str):
        if item.startswith("_") or item in self.__dict__:
            raise AttributeError(item)
        meta = self.__dict__.get("_meta")
        if meta is not None:
            name = self._qualify(item)
            if name in meta.tensors:
                return Tensor(self, name, self.index)
            if name in meta.groups:
                return self._spawn(group_index=name)
        raise AttributeError(item)

    @property
    def num_samples(self) -> int:
        """Rows of this view (min over visible tensor lengths)."""
        prefix = f"{self.group_index}/" if self.group_index else ""
        lengths = [
            engine.num_samples
            for engine in self._open_engines(
                [n for n in self._meta.visible_tensors if n.startswith(prefix)]
            )
        ]
        if not lengths:
            return 0
        return self.index.num_rows(min(lengths))

    @property
    def max_len(self) -> int:
        engines = self._open_engines(self._meta.visible_tensors)
        return max((engine.num_samples for engine in engines), default=0)

    def __len__(self) -> int:
        return self.num_samples

    def append(self, sample: Dict[str, object], append_empty: bool = False) -> None:
        """Row-wise append across tensors (a *sample* of the dataset, §3.1).

        An :meth:`extend` of one row, so it is all-or-nothing as well: a
        bad value for any tensor raises with every tensor, hidden
        companions included, at its old length.
        """
        self._extend_rows(
            {key: [value] for key, value in sample.items()},
            1, append_empty, "append",
        )

    def extend(
        self,
        samples: Dict[str, Sequence],
        append_empty: bool = False,
    ) -> None:
        """Columnar batch append: ``{tensor: [v0, v1, ...]}``, all columns
        the same length.

        Every column is *staged* (serialized and compressed) before any
        tensor is touched, so a bad sample anywhere in the batch raises
        with the dataset unchanged.  Commits then run per tensor; finalized
        chunks are buffered and uploaded in batched ``set_many`` calls by
        the engines.
        """
        columns = {key: list(values) for key, values in samples.items()}
        count = len(next(iter(columns.values()), ()))
        self._extend_rows(columns, count, append_empty, "extend")

    def _extend_rows(
        self, columns: Dict[str, List], count: int, append_empty: bool,
        op: str,
    ) -> None:
        """Add *count* rows from equal-length *columns*; *op* is the call
        the user made, for error text."""
        self._check_writable()
        prefix = f"{self.group_index}/" if self.group_index else ""
        visible = {
            n for n in self._meta.visible_tensors if n.startswith(prefix)
        }
        qualified = {key: self._qualify(key) for key in columns}
        unknown = [k for k, q in qualified.items() if q not in visible]
        if unknown:
            raise TensorDoesNotExistError(", ".join(sorted(unknown)))
        missing = visible - set(qualified.values())
        if missing and not append_empty:
            raise FormatError(
                f"{op} is missing tensors {sorted(missing)}; pass "
                "append_empty=True to pad them"
            )
        if any(len(col) != count for col in columns.values()):
            raise FormatError(
                "extend requires equal-length columns, got lengths "
                f"{ {k: len(v) for k, v in sorted(columns.items())} }"
            )
        if not count:
            return
        # every tensor under the group, hidden companions included, is
        # written below: their last chunks, where cold, come in one batch
        self._resume_last_chunks(self._open_engines(
            [n for n in self._meta.tensors if n.startswith(prefix)]
        ))
        # Stage everything first: serialization is the fallible phase, and
        # doing it up front keeps a mid-batch bad sample from leaving some
        # tensors longer than others.
        staged = []
        for key in sorted(columns):
            name = qualified[key]
            engine = self._engine(name)
            staged.append((name, engine, engine.stage_appends(columns[key])))
        for name, engine, plan in staged:
            self._commit_extend(name, engine, plan)
        for name in sorted(missing):
            engine = self._engine(name)
            base = engine.num_samples
            self._extend_with_id(
                name, [engine.empty_sample() for _ in range(count)]
            )
            for row in range(base, base + count):
                engine.pad_enc.pad(row)

    def read_rows(
        self,
        rows: Sequence[int],
        tensors: Optional[Sequence[str]] = None,
        decode: bool = True,
        aslist: bool = False,
        physical: bool = False,
    ) -> Dict[str, List]:
        """Batched read of many rows across tensors: ``{name: [value, ...]}``.

        One :class:`~repro.core.chunk_engine.ReadPlan` per tensor, fused
        into one :class:`~repro.core.chunk_engine.FusedReadPlan`: every
        chunk is fetched whole and decompressed once no matter how many of
        the requested rows it holds, and the misses of all tensors reach
        storage in ONE ``get_many`` — a worker group touching
        images+labels+boxes pays one round trip, not three.  This is the
        streaming
        entry point — the dataloader's worker groups call it, TQL scan
        windows and the streaming server's ``read_batch`` op build the
        same fused plan — so even a single row pulls its whole chunk into
        the cache; sparse random access that should stay a ranged read
        goes through ``ds.tensor[i].numpy()``.

        ``rows`` are positions of this view by default; ``physical=True``
        treats them as raw sample indices of the underlying tensors (what
        the dataloader's chunk-aware order plan produces); either way they
        are integers — a float, string or bool row raises
        :class:`~repro.exceptions.SampleIndexError`.  ``decode=False``
        returns stored payload bytes instead of decoded arrays.  Every
        value list holds one entry per row: the engine's dense columns are
        cut into per-row arrays here (rows of one request may share one
        buffer; each is writeable and none aliases the chunk cache).
        """
        names = list(tensors) if tensors is not None else list(self.tensors)
        out: Dict[str, List] = {}
        row_idx = as_row_array(rows)  # integers only: no silent int(1.7)
        view_rows = None if physical else row_idx.tolist()
        bases: Dict[int, Sequence[int]] = {}  # engine length -> selection
        resolved = []  # (name, engine, engine_rows)
        # same resolution order as __getitem__: the group-qualified name
        # wins over a root tensor that shadows the short name
        qualified = []
        for name in names:
            full = self._qualify(name)
            qualified.append(full if full in self._meta.tensors else name)
        for name, engine in zip(names, self._open_engines(qualified)):
            if physical:
                engine_rows = row_idx
            else:
                length = engine.num_samples
                base = bases.get(length)
                if base is None:
                    # a range for slice views: no O(length) materialisation
                    base = bases[length] = self.index.row_sequence(length)
                engine_rows = [base[r] for r in view_rows]
            resolved.append((name, engine, engine_rows))
        fused = FusedReadPlan()
        for _name, engine, engine_rows in resolved:
            fused.add(engine, engine.plan_reads(engine_rows))
        columns = fused.execute(decode=decode, aslist=aslist)
        for (name, _engine, _rows), values in zip(resolved, columns):
            values = column_rows(values)
            if not physical and decode and self.index.sub_entries:
                # view semantics match Tensor.numpy: sample sub-indexing
                # (ds[rows, 10:20, ...]) applies to every decoded array
                values = [
                    self.index.apply_sub(v) if isinstance(v, np.ndarray)
                    else v
                    for v in values
                ]
            out[name] = values
        return out

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------ #
    # version control facade
    # ------------------------------------------------------------------ #

    def commit(self, message: str = "") -> str:
        return vc_ops.commit(self, message)

    def checkout(self, address: str, create: bool = False) -> str:
        return vc_ops.checkout(self, address, create=create)

    def branch(self, name: str) -> str:
        return vc_ops.checkout(self, name, create=True)

    def merge(self, target: str, conflict_resolution=None,
              commit_message: Optional[str] = None) -> str:
        return vc_ops.merge(
            self, target, conflict_resolution=conflict_resolution,
            commit_message=commit_message,
        )

    def diff(self, target: Optional[str] = None) -> Dict:
        return vc_ops.diff(self, target)

    def log(self):
        return vc_ops.log(self)

    @property
    def commit_id(self) -> str:
        return self.version_state.commit_id

    @property
    def branch_name(self) -> str:
        return self.version_state.branch

    @property
    def branches(self) -> List[str]:
        return sorted(self._tree.branches)

    def _has_uncommitted_changes(self) -> bool:
        return any(
            engine.has_changes
            for engine in self._open_engines(self._meta.tensors)
        )

    @property
    def has_changes(self) -> bool:
        return self._has_uncommitted_changes()

    # ------------------------------------------------------------------ #
    # queries, loading, materialization
    # ------------------------------------------------------------------ #

    def query(self, tql: str, **kwargs) -> "Dataset":
        """Run a Tensor Query Language query; returns a dataset view."""
        from repro.tql import query as tql_query

        return tql_query(self, tql, **kwargs)

    def dataloader(self, **kwargs):
        """Streaming dataloader over this dataset/view (§4.6)."""
        from repro.dataloader import DeepLakeLoader

        return DeepLakeLoader(self, **kwargs)

    def pytorch(self, **kwargs):
        """PyTorch-style loader (framework handover via the sim backend)."""
        kwargs.setdefault("backend", "torch")
        return self.dataloader(**kwargs)

    def tensorflow(self, **kwargs):
        kwargs.setdefault("backend", "tensorflow")
        return self.dataloader(**kwargs)

    def copy(
        self,
        dest_storage: StorageProvider,
        tensors: Optional[Sequence[str]] = None,
        unlink: bool = True,
        path: str = "",
    ) -> "Dataset":
        """Materialize this dataset/view into *dest_storage* (§4.5).

        Copies the selected rows into a fresh dataset with an optimal
        contiguous chunk layout; ``unlink=True`` resolves linked tensors
        into real payloads.  This is the "materialization" step that turns
        sparse query views and link-backed datasets into stream-optimal
        datasets with full lineage (the source query string is recorded).
        Rows stream tensor by tensor through :meth:`_extend_from`: source
        round trips grow with the chunks the view touches, not its rows.
        """
        dest = Dataset(dest_storage, strict=self.strict, path=path)
        names = [
            self._qualify(t) for t in (tensors or list(self.tensors))
        ]
        rows_by_tensor = {
            name: self.index.row_indices(engine.num_samples)
            for name, engine in zip(names, self._open_engines(names))
        }
        n_rows = min(len(r) for r in rows_by_tensor.values()) if names else 0
        for name in names:
            src_meta = self._engine(name).meta
            unlinked = {}
            if src_meta.is_link and unlink:
                unlinked["htype"] = src_meta.htype  # drop link[]
                if src_meta.htype == "image":
                    unlinked["sample_compression"] = (
                        src_meta.sample_compression or "jpeg"
                    )
            dest._create_tensor_from_meta(name, src_meta, **unlinked)
            ids = Tensor(self, name).sample_ids()
            dest._extend_from(
                name, self._engine(name), rows_by_tensor[name][:n_rows],
                ids[:n_rows] if ids else None,
            )
        if self.query_string:
            dest._meta.info["source_query"] = self.query_string
            dest._meta.info["source_commit"] = self.commit_id
        dest.flush()
        return dest

    def save_view(self, view_id: Optional[str] = None,
                  message: str = "") -> str:
        """Persist this view's row selection + lineage under queries/."""
        view_id = view_id or new_view_id()
        payload = {
            "index": self.index.to_json(),
            "query": self.query_string,
            "commit_id": self.commit_id,
            "message": message,
        }
        self.storage[K.saved_view_key(view_id)] = json_dumps(payload)
        return view_id

    def load_view(self, view_id: str) -> "Dataset":
        obj = json_loads(self.storage[K.saved_view_key(view_id)])
        base = self
        if obj.get("commit_id") and obj["commit_id"] != self.commit_id:
            base = self._at_commit(obj["commit_id"])
        view = base._spawn(index=Index.from_json(obj["index"]))
        view.query_string = obj.get("query")
        return view

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Persist every engine's buffered state — and nothing that has
        not changed — in two writes at most: every engine's chunks in ONE
        ``set_many``, then ONE PUT of the head's manifest, which publishes
        them.  The manifest holds every state file of the head commit
        (meta, encoders, chunk set, stats, diff of each tensor, and the
        dataset meta when it changed), so a crash anywhere leaves the last
        published head whole: chunks that landed without it are new keys
        no manifest names, or the head's last chunk with rows appended
        past those its manifest names (an in-place ``update`` of a chunk
        the head already stored is the exception: it shows early, never
        in a sealed commit).  The version tree is not rewritten — it
        already names the head's manifest; :meth:`VersionTree.save` is a
        no-op unless an earlier commit's tree PUT is still owed.  A flush
        with nothing to say issues no request at all.
        """
        self._publish(*self._drain_flush_items())

    def _drain_flush_items(self) -> Tuple[Dict[str, bytes], Dict[str, bytes]]:
        """Drain every open engine (and the dataset meta, when it
        changed) into ``(chunks, state)`` without writing anything.  The
        caller *must* write both: :meth:`_publish` for a head,
        :meth:`_write_sealed` for a commit."""
        chunks: Dict[str, bytes] = {}
        state: Dict[str, bytes] = {}
        for engine in list(self._engines.values()):
            engine_chunks, engine_state = engine.drain_flush_items()
            chunks.update(engine_chunks)
            state.update(engine_state)
        if self._writable_head():
            state.update(self._dataset_meta_items())
        return chunks, state

    def _publish(self, chunks: Dict[str, bytes],
                 state: Dict[str, bytes]) -> None:
        """The chunks in one batch, then the head's manifest if its state
        changed (or an earlier PUT of it failed), then the tree if it
        changed.  A head written before manifests gets one here, and the
        tree, which then names it, is written once more."""
        if chunks:
            self.storage.set_many(chunks)
        head = self.version_state.commit_id
        if state:  # only once the chunks it names are durable
            self._state.setdefault(head, {}).update(state)
            self._unpublished.add(head)
        if self._writable_head():
            node = self._tree.node(head)
            if head in self._unpublished:
                node.manifest = node.manifest or K.head_manifest_key(head)
                self.storage[node.manifest] = pack_manifest(
                    self._state[head], K.commit_root(head)
                )
                self._unpublished.discard(head)
            self._tree.save(self.storage)
        self.storage.flush()

    def _write_sealed(self, chunks: Dict[str, bytes],
                      state: Dict[str, bytes]) -> None:
        """A commit's one batch: the chunks and the head's whole state as
        the manifest its sealed node will name
        (``K.commit_manifest_key``) — keys no durable object names yet,
        so any part of the batch landing publishes nothing.  The tree PUT
        that names it follows (``version_control.operations.commit``)."""
        head = self.version_state.commit_id
        sealed = {**self._state.get(head, {}), **state}
        self.storage.set_many({
            **chunks,
            K.commit_manifest_key(head): pack_manifest(
                sealed, K.commit_root(head)
            ),
        })
        self._state[head] = sealed
        self._unpublished.discard(head)

    def _writable_head(self) -> bool:
        """Whether flushes may write the dataset meta and the version
        tree: not on a read-only dataset or store, nor on a sealed commit."""
        return not (
            self.read_only or self._commit_read_only or self.storage.read_only
        )

    def rechunk(self, tensors: Optional[Sequence[str]] = None) -> Dict[str, int]:
        """Optimise chunk layout of the given (default: all) tensors."""
        self._check_writable()
        names = (
            [self._qualify(t) for t in tensors]
            if tensors
            else self._all_tensor_names(include_hidden=True)
        )
        return {e.tensor: e.rechunk() for e in self._open_engines(names)}

    def summary(self) -> str:
        lines = [
            f"Dataset(path={self.path!r}, commit={self.commit_id[:12]}, "
            f"branch={self.branch_name!r}, rows={len(self)})"
        ]
        for name in sorted(self.tensors):
            lines.append("  " + Tensor(self, self._qualify(name)).summary())
        return "\n".join(lines)

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()

    def __repr__(self) -> str:
        return (
            f"Dataset(path={self.path!r}, tensors={sorted(self.tensors)}, "
            f"rows={len(self)}, branch={self.branch_name!r})"
        )
