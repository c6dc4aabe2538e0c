"""POSIX filesystem storage provider.

Keys map to paths under a root directory; '/' in keys becomes directory
nesting.  Ranged reads use seek, so large chunks are never fully read when
only a sub-range is needed.
"""

from __future__ import annotations

import os
import shutil
import threading
from typing import Optional, Set

from repro.exceptions import KeyNotFound, StorageError
from repro.storage.provider import StorageProvider


class LocalProvider(StorageProvider):
    """Blob store rooted at a local directory."""

    def __init__(self, root: str):
        super().__init__()
        self.root = os.path.abspath(os.path.expanduser(root))
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()

    def _path(self, key: str) -> str:
        if key.startswith("/") or ".." in key.split("/"):
            raise StorageError(f"invalid storage key: {key!r}")
        return os.path.join(self.root, *key.split("/"))

    def _get(self, key: str, start: Optional[int], end: Optional[int]) -> bytes:
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                if start is None and end is None:
                    return f.read()
                size = os.fstat(f.fileno()).st_size
                s = 0 if start is None else (start + size if start < 0 else start)
                e = size if end is None else (end + size if end < 0 else end)
                s = max(0, min(s, size))
                e = max(s, min(e, size))
                f.seek(s)
                return f.read(e - s)
        except (FileNotFoundError, IsADirectoryError):
            raise KeyNotFound(key) from None

    def _set(self, key: str, value: bytes) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as f:
            f.write(value)
        os.replace(tmp, path)  # atomic publish

    def _store_many(self, items) -> None:
        """Two-phase batch write: stage every blob to a tmp file first, then
        publish with atomic renames in *items* order.

        A crash during staging publishes nothing; a crash during publish
        leaves a prefix of the batch visible — combined with the caller's
        class-ordered batches (chunks before encoders before meta) that is
        exactly the crash-consistency contract.
        """
        staged = []
        try:
            for key, value in items.items():
                path = self._path(key)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
                with open(tmp, "wb") as f:
                    f.write(value)
                staged.append((tmp, path))
        except BaseException:
            for tmp, _path in staged:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            raise
        for tmp, path in staged:
            os.replace(tmp, path)

    def _delete(self, key: str) -> None:
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            raise KeyNotFound(key) from None

    def _all_keys(self) -> Set[str]:
        keys: Set[str] = set()
        for dirpath, _dirnames, filenames in os.walk(self.root):
            rel = os.path.relpath(dirpath, self.root)
            for name in filenames:
                if name.endswith(".tmp") or ".tmp." in name:
                    continue
                if rel == ".":
                    keys.add(name)
                else:
                    keys.add("/".join(rel.split(os.sep) + [name]))
        return keys

    def clear(self, prefix: str = "") -> None:  # type: ignore[override]
        self.check_writable()
        if not prefix:
            shutil.rmtree(self.root, ignore_errors=True)
            os.makedirs(self.root, exist_ok=True)
            return
        super().clear(prefix)

    def __repr__(self) -> str:
        return f"LocalProvider(root={self.root!r})"
