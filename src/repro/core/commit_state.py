"""One handle's commit state: manifests, the version tree and writability
(§4.2).

A dataset handle, every view of it (``Dataset._spawn``) and every chunk
engine they open share ONE :class:`CommitState`, which holds the version
tree and version state, each commit's state blobs (``{state key: blob}``
as its manifest holds them), the heads whose state is ahead of storage,
the chunk keys copies replaced on the head, the dataset meta, whether the
current commit may be written, and the open engines — which take their
state from it at the open and hand it back at a flush, by file name
(:data:`TENSOR_FILES`).

It is the one module that reads or writes a manifest or a per-tensor
state key, and the one caller of :meth:`VersionTree.save`.  Every write is
a batch of keys nothing durable names yet, then ONE single-key PUT that
publishes it: a flush is the chunks, then the head's manifest; a commit
is the chunks with the sealed head's manifest, then the tree.  So a crash
anywhere leaves the last published state whole.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.chunk_cache import ChunkCache
from repro.core.chunk_engine import ChunkEngine
from repro.core.meta import DatasetMeta, TensorMeta
from repro.core.version_state import VersionState
from repro.exceptions import (
    BranchExistsError,
    FormatError,
    ReadOnlyDatasetError,
    TensorDoesNotExistError,
)
from repro.storage.provider import StorageProvider, delete_keys
from repro.util import keys as K
from repro.version_control.tree import (
    VersionTree,
    pack_manifest,
    unpack_manifest,
)

#: A tensor's state files, by the name an engine hands each over under
#: (``ChunkEngine._encoder_items`` / ``_meta_items``), and their keys.
TENSOR_FILES = {
    "chunk_set": K.chunk_set_key,
    "chunk_ids": K.chunk_id_encoder_key,
    "tiles": K.tile_encoder_key,
    "sequence": K.sequence_encoder_key,
    "pads": K.pad_encoder_key,
    "meta": K.tensor_meta_key,
    "stats": K.chunk_stats_key,
    "diff": K.commit_diff_key,
}


class CommitState:
    """The commit state of one dataset handle."""

    def __init__(
        self,
        storage: StorageProvider,
        read_only: bool = False,
        tree: Optional[VersionTree] = None,
        commit_id: Optional[str] = None,
    ):
        self.storage = storage
        self.read_only = read_only
        self.tree = tree or VersionTree.load(storage)
        self.version_state = VersionState(
            commit_id or self.tree.branches.get("main", K.FIRST_COMMIT_ID)
        )
        self._move(self.version_state.commit_id)
        self.cache = ChunkCache()  # every engine's decoded chunks
        self.engines: Dict[str, ChunkEngine] = {}
        self.open_lock = threading.Lock()
        # commit id -> {state key: blob} for the commits of the chain; a
        # flush merges what the engines drain into the head's entry
        self._blobs: Dict[str, Dict[str, bytes]] = {}
        self._unpublished: Set[str] = set()  # heads ahead of storage
        # keys copies replaced on a head: a commit seals it, then deletes
        self._superseded: List[str] = []
        # (chunks, state) a flush or seal drained from the engines and
        # failed to write: the next one writes them, chunks first
        self._owed: Tuple[Dict[str, bytes], Dict[str, bytes]] = ({}, {})
        self.meta = self._load()
        if self.tree.stored is None and self.writable:
            self.tree.save(storage)  # a dataset exists with its tree

    def chain(self) -> List[str]:
        """The current commit and its ancestors, nearest first."""
        return self.tree.chain(self.version_state.commit_id)

    @property
    def writable(self) -> bool:
        """Whether flushes may write the dataset meta and the version
        tree: not on a read-only handle or store, nor on a sealed commit."""
        return not (
            self.read_only or self.commit_read_only or self.storage.read_only
        )

    def check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyDatasetError("dataset is opened read-only")
        if self.commit_read_only:
            raise ReadOnlyDatasetError(
                f"commit {self.version_state.commit_id[:12]!r} is an "
                "immutable snapshot; checkout a branch to write"
            )
        self.storage.check_writable()

    def _load(self) -> DatasetMeta:
        """Read the state of every commit of the chain not in memory yet
        and return the dataset meta nearest the current commit.

        ONE ``get_many`` of the manifests the tree names, so a cold open
        is the tree, this batch, then chunks, at any tensor count or
        history depth; a head never flushed has no manifest and shows its
        parent's state.  A commit written before manifests is read at its
        enumerated keys: its dataset meta rides the same batch, every
        tensor's state files (:data:`TENSOR_FILES`) one more (commits that
        never touched a tensor simply have no such keys)."""
        chain = self.chain()
        nodes = [self.tree.node(c) for c in chain if c not in self._blobs]
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
                self._blobs[cid] = {key: found[key]} if key in found else {}
            elif key in found:
                self._blobs[cid] = unpack_manifest(
                    found[key], K.commit_root(cid)
                )
            elif node.is_head:
                self._blobs[cid] = {}
            else:
                raise FormatError(
                    f"commit {cid!r}: the version tree names manifest "
                    f"{key!r}, which is not in storage"
                )
        blob = self._stored_meta_blob()
        meta = DatasetMeta.from_json(blob) if blob else DatasetMeta()
        if legacy and meta.tensors:
            keys = {cid: [key_fn(cid, name) for name in meta.tensors
                          for key_fn in TENSOR_FILES.values()]
                    for cid in legacy}
            found = self.storage.get_many([k for ks in keys.values()
                                           for k in ks])
            for cid in legacy:
                self._blobs[cid].update(
                    (k, found[k]) for k in keys[cid] if k in found
                )
        return meta

    def _stored_meta_blob(self) -> Optional[bytes]:
        """The dataset meta the chain's state holds, nearest commit first."""
        for cid in self.chain():
            blob = self._blobs.get(cid, {}).get(K.dataset_meta_key(cid))
            if blob is not None:
                return blob
        return None

    def tensor_state(self, tensor: str) -> List[Tuple[str, Dict[str, bytes]]]:
        """*tensor*'s state files along the chain, current commit first:
        ``(commit id, {file name: blob})`` per commit."""
        out = []
        for cid in self.chain():
            blobs = self._blobs.get(cid, {})
            out.append((cid, {
                name: blobs[key] for name, key_fn in TENSOR_FILES.items()
                if (key := key_fn(cid, tensor)) in blobs
            }))
        return out

    def open_engines(self, names: Sequence[str]) -> List[ChunkEngine]:
        """Engines of tensors *names*, in order, built from the state the
        open already read: no storage call; the lock makes concurrent
        first readers share one engine."""
        engines = self.engines
        if any(name not in engines for name in names):
            with self.open_lock:  # re-check: a racing reader may have won
                missing = [n for n in dict.fromkeys(names) if n not in engines]
                for name in missing:
                    if name not in self.meta.tensors:
                        raise TensorDoesNotExistError(name)
                for name in missing:
                    engines[name] = ChunkEngine(name, self)
        return [engines[name] for name in names]

    def add_tensor(self, name: str, meta: TensorMeta,
                   hidden: bool = False) -> ChunkEngine:
        """A new tensor's engine, and its entry in the dataset meta."""
        engine = self.engines[name] = ChunkEngine(name, self, meta=meta)
        self.meta.add_tensor(name, hidden=hidden)
        return engine

    def forget_tensors(self, names: Sequence[str]) -> None:
        """Remove tensors *names* from the head: the head's manifest stops
        naming them — one flush — *before* their chunks are deleted, so a
        crash in between leaves unreferenced keys, never a dataset meta
        naming a tensor with no state."""
        head = self.version_state.commit_id
        state = self._blobs.setdefault(head, {})
        folders = tuple(f"{K.commit_root(head)}{name}/" for name in names)
        for name in names:
            self.engines.pop(name, None)
            for listed in (self.meta.tensors, self.meta.hidden_tensors):
                if name in listed:
                    listed.remove(name)
        for key in [k for k in state if k.startswith(folders)]:
            del state[key]
            self._unpublished.add(head)
        self.flush()
        for folder in folders:
            self.storage.clear(folder)

    def flush(self) -> None:
        """Publish what changed (nothing: no request).  A key a copy
        replaced stays, for readers of earlier manifests, until
        :meth:`seal`."""
        self._publish(*self._drain())

    def _drain(self) -> Tuple[Dict[str, bytes], Dict[str, bytes]]:
        """Every open engine's chunks and state (and the dataset meta,
        when it changed) as ``(chunks, state)``, written by nothing yet,
        on top of what an earlier flush or seal drained and failed to
        write: the caller *must* write both, and they stay owed until
        it has.  What is owed is the current head's: a checkout flushes
        before it moves."""
        head = self.version_state.commit_id
        chunks, state = self._owed
        for engine in list(self.engines.values()):
            chunk_items, files, superseded = engine.drain_flush_items()
            chunks.update(chunk_items)
            state.update(
                (TENSOR_FILES[name](head, engine.tensor), blob)
                for name, blob in files.items()
            )
            self._superseded += superseded
        if self.writable:
            blob = self.meta.to_json()
            if blob != self._stored_meta_blob():
                state[K.dataset_meta_key(head)] = blob
        return chunks, state

    def _publish(self, chunks: Dict[str, bytes],
                 state: Dict[str, bytes]) -> None:
        """The chunks in one batch, then the head's manifest if its state
        changed (or an earlier PUT of it failed), then the tree if it
        changed (a head written before manifests is named one here)."""
        if chunks:
            self.storage.set_many(chunks)
        head = self.version_state.commit_id
        if state:  # only once the chunks it names are durable
            self._blobs.setdefault(head, {}).update(state)
            self._unpublished.add(head)
        if chunks or state:  # what _drain returned is written
            self._owed = ({}, {})
        if self.writable:
            if head in self._unpublished:
                self.storage[self.tree.name_manifest(head)] = pack_manifest(
                    self._blobs[head], K.commit_root(head)
                )
                self._unpublished.discard(head)
            self.tree.save(self.storage)
        self.storage.flush()

    def seal(self, message: str = "", branch: Optional[str] = None,
             merge_parent: Optional[str] = None) -> str:
        """Seal the head; returns its id.  ONE batch at any tensor count
        (the chunks and the head's whole state as its ``commit_manifest``),
        then the tree naming it, its *merge_parent* and the child head the
        handle moves to — on *branch*, when given.  Then go the keys the
        head's copies replaced (a failed delete is retried next commit)."""
        self.check_writable()
        tree, sealed = self.tree, self.version_state.commit_id
        if branch is not None and branch in tree.branches:
            raise BranchExistsError(branch)  # before anything is written
        chunks, state = self._drain()
        state = {**self._blobs.get(sealed, {}), **state}
        self.storage.set_many({
            **chunks,
            K.commit_manifest_key(sealed): pack_manifest(
                state, K.commit_root(sealed)
            ),
        })
        self._owed = ({}, {})
        self._blobs[sealed] = state
        self._unpublished.discard(sealed)
        tree.seal(sealed, message, merge_parent)
        head = tree.add_child(sealed, self.version_state.branch)
        if branch is not None:
            head = tree.create_branch(branch, sealed)
        self._enter_head(head.commit_id)
        self._publish({}, {})  # nothing but the tree changed
        delete_keys(self.storage, self._superseded)
        return sealed

    def branch(self, name: str) -> str:
        """Fork branch *name* off the current commit and move to its head
        (a head is sealed first, the branch in the seal's tree PUT)."""
        if self.read_only:
            raise ReadOnlyDatasetError(
                "cannot create a branch on a read-only dataset"
            )
        at = self.version_state.commit_id
        if self.tree.node(at).is_head:
            self.seal(f"auto commit before creating branch {name!r}",
                      branch=name)
        else:
            self._enter_head(self.tree.create_branch(name, at).commit_id)
            self._publish({}, {})
        return self.version_state.commit_id

    def _move(self, commit_id: str) -> None:
        """Point the handle at *commit_id*, writable if it is a head."""
        node = self.tree.node(commit_id)
        self.version_state.commit_id = commit_id
        self.version_state.branch = node.branch
        self.commit_read_only = not node.is_head

    def _enter_head(self, commit_id: str) -> None:
        """Move to the new head *commit_id*, keeping the engines: the
        commit they were at stays in their chunk sets as an ancestor, and
        they write no state until they change."""
        self._move(commit_id)
        for engine in self.engines.values():
            engine.begin_new_commit()

    def checkout(self, commit_id: str) -> None:
        """Move to *commit_id*: engines reopen lazily, and every head's
        state this handle has not written ahead of storage is read again
        (another handle may have flushed it)."""
        self._move(commit_id)
        self.engines.clear()
        for cid in [c for c in self._blobs if self.tree.node(c).is_head
                    and c not in self._unpublished]:
            del self._blobs[cid]
        self.meta = self._load()


def open_engine(storage: StorageProvider, tensor: str,
                meta: Optional[TensorMeta] = None) -> ChunkEngine:
    """*tensor*'s engine — a new tensor's given *meta* — on a commit state
    of its own over *storage*, with no ``Dataset``."""
    state = CommitState(storage)
    engine = (state.open_engines([tensor])[0] if meta is None
              else state.add_tensor(tensor, meta))
    engine._bare_state = state  # no Dataset holds it: the engine does
    return engine
