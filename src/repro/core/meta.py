"""Tensor and dataset metadata files of the Tensor Storage Format, and a
tensor's per-commit change record."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.htypes import UNSPECIFIED, get_spec, parse_htype
from repro.exceptions import FormatError, HtypeError
from repro.util.json_util import json_dumps, json_loads
from repro.util.shape import ShapeInterval

#: Default chunk sizing (§3.5: "the default chunk size is 8MB"); the lower
#: bound keeps chunks in the range that streams efficiently.
DEFAULT_MAX_CHUNK_SIZE = 8 * 1024 * 1024
FORMAT_VERSION = 1


class TensorMeta:
    """Schema + statistics of one tensor column (stored as JSON)."""

    def __init__(
        self,
        htype: str = UNSPECIFIED,
        dtype: Optional[str] = None,
        sample_compression: Optional[str] = UNSPECIFIED,
        chunk_compression: Optional[str] = UNSPECIFIED,
        max_chunk_size: int = DEFAULT_MAX_CHUNK_SIZE,
        hidden: bool = False,
        **kwargs,
    ):
        base, is_sequence, is_link = parse_htype(htype)
        spec = get_spec(base)
        self.htype = base
        self.is_sequence = is_sequence
        self.is_link = is_link
        self.is_text = spec.is_text
        self.is_json = spec.is_json
        self.dtype = dtype or spec.dtype  # may stay None until first sample
        if sample_compression is UNSPECIFIED:
            sample_compression = None if is_link else spec.default_sample_compression
        if chunk_compression is UNSPECIFIED:
            chunk_compression = None if is_link else spec.default_chunk_compression
        if sample_compression and chunk_compression:
            raise FormatError(
                "a tensor uses either sample_compression or "
                "chunk_compression, not both"
            )
        self.sample_compression = sample_compression
        self.chunk_compression = chunk_compression
        self.max_chunk_size = int(max_chunk_size)
        self.min_chunk_size = self.max_chunk_size // 2
        self.hidden = bool(hidden)
        self.length = 0
        self.shape_interval = ShapeInterval()
        #: names of hidden companion tensors, e.g. {"shape": "_images_shape"}
        self.links: Dict[str, str] = {}
        #: htype-specific extras (class_names, coords, ...)
        self.info: Dict[str, object] = {}
        for key, value in kwargs.items():
            if key in spec.meta_keys:
                self.info[key] = value
            else:
                raise HtypeError(
                    f"htype {base!r} does not accept meta key {key!r}"
                )

    # ------------------------------------------------------------------ #

    @property
    def spec(self):
        return get_spec(self.htype)

    @property
    def full_htype(self) -> str:
        name = self.htype
        if self.is_link:
            name = f"link[{name}]"
        if self.is_sequence:
            name = f"sequence[{name}]"
        return name

    def set_dtype_if_unset(self, dtype: np.dtype) -> None:
        if self.dtype is None:
            self.dtype = np.dtype(dtype).name

    def update_shape_interval(self, shape) -> None:
        self.shape_interval.update(shape)

    @property
    def max_sample_nbytes(self) -> int:
        """Worst-case uncompressed sample size (memory-budget input)."""
        if self.dtype is None:
            return 0
        return self.shape_interval.max_nbytes(np.dtype(self.dtype))

    # ------------------------------------------------------------------ #

    def to_json(self) -> bytes:
        return json_dumps(
            {
                "format_version": FORMAT_VERSION,
                "htype": self.htype,
                "is_sequence": self.is_sequence,
                "is_link": self.is_link,
                "dtype": self.dtype,
                "sample_compression": self.sample_compression,
                "chunk_compression": self.chunk_compression,
                "max_chunk_size": self.max_chunk_size,
                "hidden": self.hidden,
                "length": self.length,
                "shape_interval": self.shape_interval.to_json(),
                "links": self.links,
                "info": self.info,
            }
        )

    @classmethod
    def from_json(cls, data: bytes) -> "TensorMeta":
        obj = json_loads(data)
        meta = cls.__new__(cls)
        base, _, _ = parse_htype(obj["htype"])
        spec = get_spec(base)
        meta.htype = base
        meta.is_sequence = obj.get("is_sequence", False)
        meta.is_link = obj.get("is_link", False)
        meta.is_text = spec.is_text
        meta.is_json = spec.is_json
        meta.dtype = obj.get("dtype")
        meta.sample_compression = obj.get("sample_compression")
        meta.chunk_compression = obj.get("chunk_compression")
        meta.max_chunk_size = obj.get("max_chunk_size", DEFAULT_MAX_CHUNK_SIZE)
        meta.min_chunk_size = meta.max_chunk_size // 2
        meta.hidden = obj.get("hidden", False)
        meta.length = obj.get("length", 0)
        meta.shape_interval = ShapeInterval.from_json(
            obj.get("shape_interval", {})
        )
        meta.links = dict(obj.get("links", {}))
        meta.info = dict(obj.get("info", {}))
        return meta

    def copy(self) -> "TensorMeta":
        return TensorMeta.from_json(self.to_json())

    def __repr__(self) -> str:
        return (
            f"TensorMeta(htype={self.full_htype!r}, dtype={self.dtype!r}, "
            f"len={self.length}, sc={self.sample_compression!r}, "
            f"cc={self.chunk_compression!r})"
        )


class DatasetMeta:
    """Dataset-level schema: tensor names, groups, hidden tensors."""

    def __init__(self):
        self.tensors: List[str] = []  # all tensors incl. hidden, in order
        self.groups: List[str] = []
        self.hidden_tensors: List[str] = []
        self.info: Dict[str, object] = {}

    @property
    def visible_tensors(self) -> List[str]:
        hidden = set(self.hidden_tensors)
        return [t for t in self.tensors if t not in hidden]

    def add_tensor(self, name: str, hidden: bool) -> None:
        if name not in self.tensors:
            self.tensors.append(name)
        if hidden and name not in self.hidden_tensors:
            self.hidden_tensors.append(name)

    def add_group(self, name: str) -> None:
        if name not in self.groups:
            self.groups.append(name)
            # implicit parents
            while "/" in name:
                name = name.rsplit("/", 1)[0]
                if name not in self.groups:
                    self.groups.append(name)

    def to_json(self) -> bytes:
        return json_dumps(
            {
                "format_version": FORMAT_VERSION,
                "tensors": self.tensors,
                "groups": self.groups,
                "hidden_tensors": self.hidden_tensors,
                "info": self.info,
            }
        )

    @classmethod
    def from_json(cls, data: bytes) -> "DatasetMeta":
        obj = json_loads(data)
        meta = cls()
        meta.tensors = list(obj.get("tensors", []))
        meta.groups = list(obj.get("groups", []))
        meta.hidden_tensors = list(obj.get("hidden_tensors", []))
        meta.info = dict(obj.get("info", {}))
        return meta

    def copy(self) -> "DatasetMeta":
        return DatasetMeta.from_json(self.to_json())


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
