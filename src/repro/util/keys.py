"""Storage key layout of the Tensor Storage Format.

A Deep Lake dataset is a flat key space on a storage provider.  The first
commit lives at the dataset root; every other commit lives under
``versions/<commit_id>/``.  Each tensor owns a sub-tree with its chunks,
encoders and per-commit bookkeeping, mirroring the paper's "provenance file
in JSON format and folders per tensor" layout (§3.4).

Example key space for a dataset with one extra commit ``abc`` and a tensor
``images``::

    dataset_meta.json
    version_control_info.json
    images/tensor_meta.json
    images/chunk_id_encoder
    images/chunks/0f3a9c...
    images/chunk_set.json
    images/commit_diff.json
    versions/abc/dataset_meta.json
    versions/abc/images/...
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
LOCKS_FOLDER = "locks"
QUERIES_FOLDER = "queries"


#: Write-back ordering classes (crash consistency): chunk payloads must be
#: durable before the encoders that index them, and encoders before the
#: meta/bookkeeping files that declare samples visible.  A crash between
#: classes leaves unreferenced chunks (harmless garbage), never meta that
#: points at missing chunks.  The chunk set is an index file too: a reader
#: resolves each chunk the encoder names to a commit's folder through it,
#: so the two go down in the same batch.
KEY_CLASS_CHUNK = 0
KEY_CLASS_ENCODER = 1
KEY_CLASS_META = 2

_ENCODER_FILENAMES = (
    CHUNK_ID_ENCODER_FILENAME,
    TILE_ENCODER_FILENAME,
    SEQUENCE_ENCODER_FILENAME,
    PAD_ENCODER_FILENAME,
    CHUNK_SET_FILENAME,
)


def key_class(key: str) -> int:
    """Flush-ordering class of *key*: chunks < encoders < meta/bookkeeping."""
    if f"/{CHUNKS_FOLDER}/" in key:
        return KEY_CLASS_CHUNK
    leaf = key.rsplit("/", 1)[-1]
    if leaf in _ENCODER_FILENAMES:
        return KEY_CLASS_ENCODER
    return KEY_CLASS_META


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


#: A tensor's per-commit state files — everything but its chunks — in the
#: order a flush writes them (encoder class, then meta class).
STATE_KEY_FNS = (
    chunk_set_key, chunk_id_encoder_key, tile_encoder_key,
    sequence_encoder_key, pad_encoder_key,
    tensor_meta_key, chunk_stats_key, commit_diff_key,
)


def state_keys(chain, tensor: str) -> list:
    """Every state file *tensor* can have in the commits of *chain*: the
    read mirror of a flush, so opening a tensor is one ``get_many``
    (commits that never touched the tensor simply have no such keys)."""
    return [fn(cid, tensor) for cid in chain for fn in STATE_KEY_FNS]


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
