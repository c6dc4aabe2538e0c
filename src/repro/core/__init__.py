"""Tensor Storage Format core: datasets, tensors, chunks, encoders."""

from repro.core.dataset import Dataset
from repro.core.tensor import Tensor
from repro.core.index import Index
from repro.core.meta import DatasetMeta, TensorMeta, DEFAULT_MAX_CHUNK_SIZE
from repro.core.meta import CommitDiff
from repro.core.chunk import Chunk
from repro.core.chunk_engine import ChunkEngine
from repro.core.encoders import (
    ChunkIdEncoder,
    PadEncoder,
    SequenceEncoder,
    TileEncoder,
)
from repro.core.sample import LinkedSample, Sample, link, read
from repro.core.version_state import VersionState

__all__ = [
    "Dataset",
    "Tensor",
    "Index",
    "DatasetMeta",
    "TensorMeta",
    "DEFAULT_MAX_CHUNK_SIZE",
    "Chunk",
    "ChunkEngine",
    "CommitDiff",
    "ChunkIdEncoder",
    "TileEncoder",
    "SequenceEncoder",
    "PadEncoder",
    "Sample",
    "LinkedSample",
    "link",
    "read",
    "VersionState",
]
