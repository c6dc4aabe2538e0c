"""Top-level public API, mirroring the `deeplake` package surface.

    import repro

    ds = repro.empty("mem://demo")
    ds.create_tensor("images", htype="image", sample_compression="jpeg")
    ds.create_tensor("labels", htype="class_label", chunk_compression="lz4")
    ds.append({"images": arr, "labels": 3})
    loader = ds.dataloader(batch_size=32, shuffle=True)
"""

from __future__ import annotations

from typing import Dict, Union

from repro.core.dataset import Dataset
from repro.core.sample import link, read  # noqa: F401  (re-exported)
from repro.exceptions import DeepLakeError
from repro.storage.provider import StorageProvider
from repro.storage.router import storage_from_url
from repro.util import keys as K
from repro.version_control.tree import VersionTree

PathOrProvider = Union[str, StorageProvider]
ServablePath = Union[str, StorageProvider, Dataset]


def _provider(path: PathOrProvider) -> StorageProvider:
    if isinstance(path, StorageProvider):
        return path
    return storage_from_url(path)


def _path_str(path: PathOrProvider) -> str:
    return path if isinstance(path, str) else repr(path)


def exists(path: PathOrProvider) -> bool:
    """True when *path* contains a Deep Lake dataset: its version tree,
    or — should the tree be gone — the first commit's state (its head
    manifest, or the dataset meta of one written before manifests)."""
    storage = _provider(path)
    return any(key in storage for key in (
        K.version_control_info_key(),
        K.head_manifest_key(K.FIRST_COMMIT_ID),
        K.dataset_meta_key(K.FIRST_COMMIT_ID),
    ))


def empty(
    path: PathOrProvider,
    overwrite: bool = False,
    strict: bool = True,
) -> Dataset:
    """Create a new empty dataset at *path* (see Fig 4's starting point):
    one write, its version tree."""
    storage = _provider(path)
    if exists(storage):
        if not overwrite:
            raise DeepLakeError(
                f"dataset already exists at {_path_str(path)}; pass "
                "overwrite=True to replace it"
            )
        storage.clear()
    return Dataset(storage, strict=strict, path=_path_str(path),
                   _tree=VersionTree.create_default())


def load(
    path: PathOrProvider,
    read_only: bool = False,
    strict: bool = True,
) -> Dataset:
    """Open an existing dataset.

    Asks once whether it exists: the version tree every dataset written by
    this code has is read first (and handed to the dataset), and only a
    store without one pays the :func:`exists` probe.
    """
    storage = _provider(path)
    tree = VersionTree.load(storage)
    if tree.stored is None and not exists(storage):
        raise DeepLakeError(f"no dataset found at {_path_str(path)}")
    return Dataset(
        storage, read_only=read_only, strict=strict, path=_path_str(path),
        _tree=tree,
    )


def dataset(
    path: PathOrProvider,
    read_only: bool = False,
    strict: bool = True,
    overwrite: bool = False,
) -> Dataset:
    """Open-or-create convenience wrapper."""
    storage = _provider(path)
    if exists(storage) and not overwrite:
        return load(storage, read_only=read_only, strict=strict)
    return empty(storage, overwrite=overwrite, strict=strict)


def delete(path: PathOrProvider) -> None:
    """Remove a dataset and all its versions."""
    storage = _provider(path)
    storage.clear()


def copy(src: Dataset, dest: PathOrProvider, **kwargs) -> Dataset:
    """Materialize *src* (dataset or view) into *dest* storage."""
    return src.copy(_provider(dest), path=_path_str(dest), **kwargs)


def serve(
    datasets: Dict[str, ServablePath],
    name: str = "local",
    num_workers: int = 4,
    **server_kwargs,
):
    """Start a Tensor Streaming Server hosting *datasets*.

    ``datasets`` maps served names to dataset paths, providers, or open
    :class:`Dataset` objects (flushed and served from their storage).  The
    server is started (threaded transport) and registered, so
    ``serve://<name>/<dataset>`` URLs resolve immediately::

        server = repro.serve({"mnist": "s3-sim://bkt/mnist"}, name="edge")
        ds = repro.connect("serve://edge/mnist")

    Returns the running :class:`~repro.serve.DatasetServer`; call
    ``.stop()`` (or use it as a context manager) to shut it down.
    """
    from repro.serve import DatasetServer

    server = DatasetServer(name=name, **server_kwargs)
    for ds_name, target in datasets.items():
        if isinstance(target, Dataset):
            target.flush()
            target = target.storage
        server.add_dataset(ds_name, target)
    return server.start(num_workers=num_workers)


def connect(
    url: str,
    read_only: bool = True,
    strict: bool = True,
) -> Dataset:
    """Open a dataset hosted by a running server (``serve://srv/name``).

    Serving is a shared, read-mostly tier, so connections default to
    read-only; pass ``read_only=False`` to write through the server.
    Blobs come from the server's shared cache; like any handle, the
    connection caches decoded chunks but no blobs, which would go stale
    after another tenant writes.
    """
    if not url.startswith("serve://"):
        raise DeepLakeError(
            f"connect() expects a serve:// URL, got {url!r}; "
            "use repro.load() for direct storage access"
        )
    return load(url, read_only=read_only, strict=strict)
