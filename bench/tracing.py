"""Bench-owned tracing: spans recorded from outside the program.

The traced run wraps each layer's *public* functions (class attributes,
codec instances, a provider placed over the terminal store) with
:meth:`Recorder.wrap`; nothing in ``src/`` is edited and ``repro.obs``
stays at its default.  A span is ``(id, name, layer, start, end, self_s,
parent, thread, repeat, n)``.  ``self_s`` is the span's duration minus
the part covered by child spans on the same thread.  Spans opened on a
worker thread have no same-thread parent; they are parented to the
current repeat's root span and only ever summed as busy time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence, Set

from repro.storage import StorageProvider

SPAN_FIELDS = ("id", "name", "layer", "start", "end", "self_s", "parent",
               "thread", "repeat", "n")


class Recorder:
    """In-memory span store; written out when the workload ends."""

    def __init__(self):
        self.spans: list = []
        #: the timed repeat spans belong to; None outside a timed region
        #: (warm-up, verification, yardstick), which keeps them out of tables
        self.repeat: Optional[int] = None
        self.root_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open_root(self, repeat: int) -> None:
        """Start a timed repeat and its root span on the calling thread."""
        self.repeat = repeat
        self.root_id = next(self._ids)
        self._stack().append([self.root_id, 0.0])
        self._root_start = perf_counter()

    def close_root(self) -> None:
        end = perf_counter()
        sid, covered = self._stack().pop()
        self.spans.append((
            sid, "unit", "root", self._root_start, end,
            end - self._root_start - covered, 0, threading.get_ident(),
            self.repeat, 0,
        ))
        self.repeat = None

    def wrap(self, layer: str, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """*fn* timed as one span of *layer*.

        ``count(args, result)`` gives the span's work count (bytes, rows);
        it runs after the span closed, so it is not timed.
        """
        rec = self

        def timed(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else rec.root_id
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                n = count(args, result) if count and result is not None else 0
                rec.spans.append((
                    sid, name, layer, t0, t1, t1 - t0 - frame[1], parent,
                    threading.get_ident(), rec.repeat, n,
                ))

        return timed

    def table(self, repeat: int) -> Dict[tuple, dict]:
        """``{(layer, name): {calls, total_s, self_s, n}}`` of one repeat."""
        out: Dict[tuple, dict] = {}
        for _id, name, layer, t0, t1, self_s, _p, _th, rep, n in self.spans:
            if rep != repeat:
                continue
            row = out.setdefault((layer, name), {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0,
            })
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += self_s
            row["n"] += n
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def pick(table: Dict[tuple, dict], layer: str,
         names: Optional[Sequence[str]] = None, field: str = "self_s"):
    """Sum *field* over the spans of *layer* (optionally only *names*)."""
    return sum(
        row[field] for (lay, name), row in table.items()
        if lay == layer and (names is None or name in names)
    )


class Patches:
    """Attribute replacements that can be undone (class or instance)."""

    def __init__(self):
        self._undo: list = []

    def set(self, obj, attr: str, value) -> None:
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def undo(self) -> None:
        for obj, attr, had, old in reversed(self._undo):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._undo.clear()


def _rows_of(args, _result) -> int:
    return len(args[1])  # (self, rows, ...)


@contextlib.contextmanager
def installed(rec: Recorder, codecs: Sequence[str]):
    """The layers' public entry points wrapped for the length of a block."""
    from repro import Dataset
    from repro.compression import get_codec
    from repro.core.chunk_engine import ChunkEngine, FusedReadPlan
    from repro.serve import DatasetServer

    patches = Patches()

    def patch(obj, attr, layer, name=None, count=None):
        patches.set(obj, attr, rec.wrap(layer, name or attr,
                                        getattr(obj, attr), count))

    patch(ChunkEngine, "plan_reads", "chunk_engine", count=_rows_of)
    patch(ChunkEngine, "execute_plan", "chunk_engine", "execute")
    patch(FusedReadPlan, "execute", "chunk_engine")
    patch(ChunkEngine, "stage_appends", "chunk_engine")
    patch(ChunkEngine, "commit_appends", "chunk_engine")
    patch(ChunkEngine, "flush", "chunk_engine")
    patch(Dataset, "flush", "chunk_engine")
    patch(Dataset, "read_rows", "chunk_engine", count=_rows_of)
    patch(Dataset, "extend", "chunk_engine")
    patch(Dataset, "commit", "version_control")
    patch(DatasetServer, "handle", "serve")
    for codec_name in codecs:
        codec = get_codec(codec_name)
        patch(codec, "decompress", "compression", "decode",
              lambda _a, out: out.nbytes)
        patch(codec, "compress", "compression", "encode",
              lambda args, _out: args[0].nbytes)
        if hasattr(codec, "compress_bytes"):
            patch(codec, "decompress_bytes", "compression", "decode",
                  lambda _a, out: len(out))
            patch(codec, "compress_bytes", "compression", "encode",
                  lambda args, _out: len(args[0]))
    try:
        yield
    finally:
        patches.undo()


class TimedProvider(StorageProvider):
    """A provider that forwards to *inner* and records one span per call.

    Placed directly over the terminal store it times the ``storage``
    layer; a second one over an :class:`~repro.storage.LRUCache` times
    the cache, whose self time is then outer minus inner.  It forwards
    through *inner*'s public methods only, so *inner*'s own request
    accounting is what it would be without the wrapper.
    """

    def __init__(self, inner: StorageProvider, rec: Recorder, layer: str):
        super().__init__()
        self.inner = inner
        self._get_bytes = rec.wrap(layer, "get", inner.get_bytes)
        self._get_many = rec.wrap(layer, "get_many", inner.get_many)
        self._set_many = rec.wrap(layer, "set_many", inner.set_many)
        self._set_item = rec.wrap(layer, "set", inner.__setitem__)
        self._del_item = rec.wrap(layer, "delete", inner.__delitem__)
        self._flush = rec.wrap(layer, "flush", inner.flush)

    def _get(self, key: str, start: Optional[int],
             end: Optional[int]) -> bytes:
        return self._get_bytes(key, start, end)

    def get_many(self, keys: Sequence[str]) -> Dict[str, bytes]:
        return self._get_many(keys)

    def _set(self, key: str, value: bytes) -> None:
        self._set_item(key, value)

    def set_many(self, items: Dict[str, bytes]) -> None:
        self._set_many(items)

    def _delete(self, key: str) -> None:
        self._del_item(key)

    def _all_keys(self) -> Set[str]:
        return set(self.inner.list_prefix(""))

    def flush(self) -> None:
        self._flush()

    def nbytes(self) -> int:
        return self.inner.nbytes()
