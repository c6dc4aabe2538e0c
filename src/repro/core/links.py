"""Resolution of linked samples (``link[...]`` tensors, §4.5).

A linked tensor stores only pointers (URLs) to raw payloads living in one
or more external storage locations ("the pointers within a single tensor
can be connected to multiple storage providers").  This module maps URL
schemes to fetchers; credentials are modelled as a named registry the way
managed creds work in the real product.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.sample import LinkedSample, Sample
from repro.exceptions import LinkError
from repro.storage.router import storage_from_url

_FETCHERS: Dict[str, Callable[[str], bytes]] = {}
_CREDS: Dict[str, dict] = {}
_LOCK = threading.Lock()


def register_link_scheme(scheme: str, fetcher: Callable[[str], bytes]) -> None:
    """Install a fetcher for URLs of the form ``scheme://...``."""
    with _LOCK:
        _FETCHERS[scheme] = fetcher


def register_creds(creds_key: str, creds: dict) -> None:
    """Register named credentials (mirrors managed-creds workflows)."""
    with _LOCK:
        _CREDS[creds_key] = dict(creds)


def get_creds(creds_key: Optional[str]) -> dict:
    if creds_key is None:
        return {}
    with _LOCK:
        if creds_key not in _CREDS:
            raise LinkError(f"no credentials registered under {creds_key!r}")
        return dict(_CREDS[creds_key])


def _default_fetch(url: str) -> bytes:
    for scheme in ("s3-sim://", "gcs-sim://", "minio-sim://", "mem://"):
        if url.startswith(scheme):
            rest = url[len(scheme):]
            container, _, key = rest.partition("/")
            return storage_from_url(f"{scheme}{container}")[key]
    if url.startswith("file://"):
        url = url[len("file://"):]
    if os.path.exists(url):
        with open(url, "rb") as f:
            return f.read()
    raise LinkError(f"cannot resolve linked url {url!r}")


def fetch_link_bytes(linked: LinkedSample) -> bytes:
    if linked.creds_key:
        get_creds(linked.creds_key)  # validates registration
    scheme = linked.url.split("://", 1)[0] + "://" if "://" in linked.url else ""
    fetcher = _FETCHERS.get(scheme, _default_fetch)
    return fetcher(linked.url)


def resolve_linked_sample(linked: LinkedSample) -> np.ndarray:
    """Fetch + decode a linked payload into an array."""
    data = fetch_link_bytes(linked)
    return Sample(buffer=data, path=linked.url).array
