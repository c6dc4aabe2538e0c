"""repro — a from-scratch reproduction of *Deep Lake: a Lakehouse for Deep
Learning* (CIDR 2023).

Public surface (mirroring the ``deeplake`` package):

- dataset lifecycle: :func:`empty`, :func:`load`, :func:`dataset`,
  :func:`exists`, :func:`delete`, :func:`copy`
- samples: :func:`read` (raw encoded files), :func:`link` (linked tensors)
- parallel transforms: :func:`compute`, :func:`compose`
- serving: :func:`serve` (host datasets), :func:`connect` (attach to a
  running server via ``serve://`` URLs)
- the core classes: :class:`Dataset`, :class:`Tensor`
- subsystems: :mod:`repro.tql`, :mod:`repro.dataloader`,
  :mod:`repro.visualizer`, :mod:`repro.ingest`, :mod:`repro.storage`,
  :mod:`repro.sim`, :mod:`repro.baselines`, :mod:`repro.workloads`,
  :mod:`repro.serve`, :mod:`repro.obs` (metrics + tracing)
"""

from repro.api import connect, copy, dataset, delete, empty, exists, load
# the serve subsystem module is callable: repro.serve({...}) starts a
# DatasetServer (forwards to repro.api.serve), repro.serve.DatasetServer
# is the class
import repro.serve  # noqa: E402,F401
import repro.obs  # noqa: E402,F401
from repro.core.dataset import Dataset
from repro.core.tensor import Tensor
from repro.core.sample import LinkedSample, Sample, link, read
from repro.exceptions import DeepLakeError
from repro.transform import compose, compute

__version__ = "1.0.0"

__all__ = [
    "empty",
    "load",
    "dataset",
    "exists",
    "delete",
    "copy",
    "serve",
    "connect",
    "read",
    "link",
    "compute",
    "compose",
    "Dataset",
    "Tensor",
    "Sample",
    "LinkedSample",
    "DeepLakeError",
    "__version__",
]
