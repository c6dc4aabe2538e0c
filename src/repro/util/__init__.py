"""Shared low-level utilities: storage key layout, shapes, json, ids."""

from repro.util.keys import (
    FIRST_COMMIT_ID,
    chunk_key,
    commit_root,
    version_control_info_key,
)
from repro.util.shape import ShapeInterval, ceildiv, nbytes_of
from repro.util.json_util import json_dumps, json_loads

__all__ = [
    "FIRST_COMMIT_ID",
    "commit_root",
    "chunk_key",
    "version_control_info_key",
    "ShapeInterval",
    "ceildiv",
    "nbytes_of",
    "json_dumps",
    "json_loads",
]
