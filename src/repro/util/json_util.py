"""JSON helpers that understand numpy scalars/arrays and emit stable bytes."""

from __future__ import annotations

import json
from typing import Any

import numpy as np


class _NumpyEncoder(json.JSONEncoder):
    def default(self, obj: Any):
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (set, frozenset)):
            return sorted(obj)
        if isinstance(obj, bytes):
            return obj.decode("utf-8", errors="replace")
        return super().default(obj)


#: one encoder for every call: ``encode`` keeps no state between calls,
#: so threads share it, and a call skips ``json.dumps``' set-up
_ENCODER = _NumpyEncoder(sort_keys=True, separators=(",", ":"))


def json_dumps(obj: Any) -> bytes:
    """Serialise *obj* to canonical (sorted-key) utf-8 JSON bytes."""
    return _ENCODER.encode(obj).encode("utf-8")


def json_loads(data: bytes | str) -> Any:
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data).decode("utf-8")
    return json.loads(data)
