"""Storage key layout of the Tensor Storage Format.

A Deep Lake dataset is a flat key space on a storage provider.  The first
commit lives at the dataset root; every other commit lives under
``versions/<commit_id>/``.  Each tensor owns a sub-tree of chunks under
its commit's folder, mirroring the paper's "provenance file in JSON format
and folders per tensor" layout (§3.4).

What a commit *is* — every tensor's meta, encoders, chunk set, stats
sidecar and commit diff, plus the dataset meta — lives in ONE manifest
object per commit (``version_control.tree.pack_manifest``: the blobs of
those state files, keyed by the names below, side by side).  The version
tree ``version_control_info.json`` is the commit point: a sealed commit's
node names its immutable ``commit_manifest``; a branch head's state sits
at its ``head_manifest``, which every flush of that head overwrites with
one PUT.  So a write is one batch of keys no durable object names yet
(chunks, a sealed commit's manifest) and then one single-key PUT that
publishes them — the head manifest, or the tree.

Example key space for a dataset whose first commit is sealed, with head
``abc`` on ``main`` and a tensor ``images``::

    version_control_info.json        the tree: names every manifest
    commit_manifest                  the sealed first commit's state
    images/chunks/0f3a9c...
    versions/abc/head_manifest       the head's state, rewritten by flush
    versions/abc/images/chunks/...

A dataset written before manifests has a tree that names none: its state
files sit at the keys the functions below name.  Nothing writes that
layout any more; the one reader and writer of state, in either layout, is
``core.commit_state`` (its ``TENSOR_FILES`` lists a tensor's state files).
"""

from __future__ import annotations

FIRST_COMMIT_ID = "firstcommit"

VERSION_CONTROL_INFO = "version_control_info.json"
DATASET_META_FILENAME = "dataset_meta.json"
TENSOR_META_FILENAME = "tensor_meta.json"
CHUNKS_FOLDER = "chunks"
CHUNK_ID_ENCODER_FILENAME = "chunk_id_encoder"
TILE_ENCODER_FILENAME = "tile_encoder.json"
SEQUENCE_ENCODER_FILENAME = "sequence_encoder"
PAD_ENCODER_FILENAME = "pad_encoder"
COMMIT_DIFF_FILENAME = "commit_diff.json"
CHUNK_SET_FILENAME = "chunk_set.json"
CHUNK_STATS_FILENAME = "chunk_stats.json"
HEAD_MANIFEST_FILENAME = "head_manifest"
COMMIT_MANIFEST_FILENAME = "commit_manifest"
LOCKS_FOLDER = "locks"
QUERIES_FOLDER = "queries"


def commit_root(commit_id: str) -> str:
    """Prefix under which a commit's files live ('' for the first commit)."""
    if commit_id == FIRST_COMMIT_ID:
        return ""
    return f"versions/{commit_id}/"


def dataset_meta_key(commit_id: str) -> str:
    return f"{commit_root(commit_id)}{DATASET_META_FILENAME}"


def tensor_meta_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{TENSOR_META_FILENAME}"


def chunk_key(commit_id: str, tensor: str, chunk_name: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{CHUNKS_FOLDER}/{chunk_name}"


def chunk_id_encoder_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{CHUNK_ID_ENCODER_FILENAME}"


def tile_encoder_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{TILE_ENCODER_FILENAME}"


def sequence_encoder_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{SEQUENCE_ENCODER_FILENAME}"


def pad_encoder_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{PAD_ENCODER_FILENAME}"


def commit_diff_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{COMMIT_DIFF_FILENAME}"


def chunk_set_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{CHUNK_SET_FILENAME}"


def chunk_stats_key(commit_id: str, tensor: str) -> str:
    return f"{commit_root(commit_id)}{tensor}/{CHUNK_STATS_FILENAME}"


def head_manifest_key(commit_id: str) -> str:
    """Where a branch head's state lives; each flush of it overwrites it."""
    return f"{commit_root(commit_id)}{HEAD_MANIFEST_FILENAME}"


def commit_manifest_key(commit_id: str) -> str:
    """Where a sealed commit's state lives, written once, before the tree
    that names it."""
    return f"{commit_root(commit_id)}{COMMIT_MANIFEST_FILENAME}"


def version_control_info_key() -> str:
    return VERSION_CONTROL_INFO


def branch_lock_key(branch: str) -> str:
    return f"{LOCKS_FOLDER}/{branch}.lock"


def saved_view_key(view_id: str) -> str:
    return f"{QUERIES_FOLDER}/{view_id}.json"


def hidden_tensor_name(tensor: str, kind: str) -> str:
    """Name of a hidden companion tensor (shape/id/downsampled) for *tensor*.

    Hidden tensors live next to their owner; only the final path component
    is mangled so group nesting is preserved:
    ``hidden_tensor_name("cams/left", "shape") == "cams/_left_shape"``.
    """
    if "/" in tensor:
        group, leaf = tensor.rsplit("/", 1)
        return f"{group}/_{leaf}_{kind}"
    return f"_{tensor}_{kind}"
