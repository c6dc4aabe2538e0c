"""Parallel sample-wise transformations (§4.1.2).

A user function decorated with ``@repro.compute`` takes ``(sample_in,
sample_out, **kwargs)`` and may emit one *or several* output rows per input
(one-to-one and one-to-many).  ``fn(**kwargs).eval(data_in, ds_out, ...)``
runs it over a dataset/view or any iterable, appending to ``ds_out`` — or
in place when ``ds_out`` is omitted and the function mutates samples.

The scheduler batches sample-wise work by *chunk adjacency* ("the scheduler
batches sample-wise transformations operating on nearby chunks") so each
worker decodes a chunk-aligned range, and runs batches on a thread pool
(our codecs release the GIL inside zlib and BLAS, which is what the
paper's C++ engine achieves with per-process decompression).  A worker
reads its batch with ONE fused ``read_rows``.  Results are written in
input order, so eval is deterministic regardless of worker count:
appended in columnar ``extend`` batches, or in place as ONE batched
update per tensor at the view's rows (one fork per touched chunk; a bad
value changes no row).  Each worker batch runs under the caller's span
(:func:`repro.obs.tracing.attached`), so a traced ``eval`` holds its
workers' engine spans.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import TransformError
from repro.obs import tracing as _tracing
from repro.transform.scheduler import plan_batches

#: rows buffered per columnar ``ds_out.extend`` flush on the append path —
#: large enough to fill whole chunks per staged batch, small enough to
#: keep writes overlapped with compute instead of trailing it
_WRITE_BATCH_ROWS = 256


class SampleOut:
    """Collector the UDF writes into; supports one-to-many via repeated
    appends (every tensor must end the call with equal row counts)."""

    def __init__(self, tensors: Sequence[str]):
        self._tensors = list(tensors)
        self._rows: Dict[str, List] = {t: [] for t in tensors}

    def append(self, row: Dict[str, object]) -> "SampleOut":
        for key, value in row.items():
            if key not in self._rows:
                raise KeyError(
                    f"unknown output tensor {key!r}; expected one of "
                    f"{self._tensors}"
                )
            self._rows[key].append(value)
        return self

    def __getattr__(self, name: str):
        rows = self.__dict__.get("_rows", {})
        if name in rows:
            return rows[name]  # sample_out.<tensor>.append(value)
        raise AttributeError(name)

    def rows(self) -> List[Dict[str, object]]:
        counts = {len(v) for v in self._rows.values()}
        if len(counts) > 1:
            raise TransformError(
                "?", ValueError(f"uneven output rows per tensor: "
                                f"{ {k: len(v) for k, v in self._rows.items()} }")
            )
        return [
            {t: self._rows[t][i] for t in self._tensors}
            for i in range(counts.pop() if counts else 0)
        ]


class ComputeFunction:
    """A bound transform: decorated fn + its kwargs; composable."""

    def __init__(self, fn: Callable, kwargs: dict):
        self.fn = fn
        self.kwargs = kwargs
        self.name = getattr(fn, "__name__", "transform")

    def _apply(self, sample_in, sample_out: SampleOut) -> None:
        self.fn(sample_in, sample_out, **self.kwargs)

    def eval(
        self,
        data_in,
        ds_out=None,
        num_workers: int = 0,
        progress: bool = False,
        read_tensors: Optional[Sequence[str]] = None,
    ):
        """Run over *data_in* (Dataset/view or iterable).

        With ``ds_out`` given, outputs are appended to it; without it the
        transform must be in-place mutations of dataset rows (data_in must
        then be a Dataset).
        """
        pipeline = Pipeline([self])
        return pipeline.eval(
            data_in,
            ds_out,
            num_workers=num_workers,
            progress=progress,
            read_tensors=read_tensors,
        )

    def __repr__(self) -> str:
        return f"ComputeFunction({self.name})"


class _ComputeDecorator:
    """``@repro.compute`` — makes fn callable into a ComputeFunction."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.__name__ = getattr(fn, "__name__", "transform")
        self.__doc__ = fn.__doc__

    def __call__(self, **kwargs) -> ComputeFunction:
        return ComputeFunction(self.fn, kwargs)


def compute(fn: Callable) -> _ComputeDecorator:
    """Decorator: ``@repro.compute`` over ``fn(sample_in, sample_out, **kw)``."""
    return _ComputeDecorator(fn)


class Pipeline:
    """Stacked transforms: output rows of stage k feed stage k+1."""

    def __init__(self, steps: Sequence[ComputeFunction]):
        self.steps = list(steps)

    # ------------------------------------------------------------------ #

    def _run_one(self, sample_in, out_tensors: Sequence[str]) -> List[Dict]:
        rows = [sample_in]
        for step in self.steps:
            next_rows: List[Dict] = []
            for row in rows:
                collector = SampleOut(out_tensors)
                step._apply(row, collector)
                next_rows.extend(collector.rows())
            rows = next_rows
        return rows

    def eval(
        self,
        data_in,
        ds_out=None,
        num_workers: int = 0,
        progress: bool = False,
        read_tensors: Optional[Sequence[str]] = None,
    ):
        from repro.core.dataset import Dataset

        in_place = ds_out is None
        if in_place:
            if not isinstance(data_in, Dataset):
                raise TransformError(
                    "-", ValueError("in-place eval requires a Dataset input")
                )
            ds_out = data_in
        out_tensors = list(ds_out.tensors)

        # the input as batches of positions, each read as one batch
        if isinstance(data_in, Dataset):
            names = list(read_tensors or data_in.tensors)
            length = len(data_in)

            def fetch(batch: List[int]) -> List[Dict]:
                # ONE fused read of every tensor for the batch's rows
                columns = data_in.read_rows(batch, names)
                return [{t: columns[t][k] for t in names}
                        for k in range(len(batch))]

            batches = plan_batches(data_in, names, length, num_workers)
        else:
            items = list(data_in)
            length = len(items)

            def fetch(batch: List[int]) -> List:
                return [items[i] for i in batch]

            size = max(1, length // max(1, (num_workers or 1) * 4))
            batches = [
                list(range(s, min(s + size, length)))
                for s in range(0, length, size)
            ]

        def run_batch(indices: List[int]) -> List[List[Dict]]:
            out = []
            for i, sample in zip(indices, fetch(indices)):
                try:
                    out.append(self._run_one(sample, out_tensors))
                except TransformError:
                    raise
                except Exception as exc:  # noqa: BLE001 - annotate index
                    raise TransformError(i, exc) from exc
            return out

        parallel = bool(num_workers and num_workers > 1 and len(batches) > 1)
        parent = _tracing.current_span()

        def run_attached(indices: List[int]) -> List[List[Dict]]:
            """:func:`run_batch` on a worker, under the caller's span."""
            with _tracing.attached(parent):
                return run_batch(indices)

        # deterministic, input-ordered writes
        written = 0
        with (ThreadPoolExecutor(max_workers=num_workers) if parallel
              else nullcontext()) as pool:
            # each batch's output rows, in input order as they finish
            results = (pool.map(run_attached, batches) if parallel
                       else map(run_batch, batches))
            if in_place:
                positions = [i for batch in batches for i in batch]
                columns: Dict[str, List] = {t: [] for t in out_tensors}
                emitted = (rows for result in results for rows in result)
                for i, rows in zip(positions, emitted):
                    if len(rows) != 1:
                        raise TransformError(i, ValueError(
                            "in-place transforms must emit exactly one row"))
                    for tensor, value in rows[0].items():
                        columns[tensor].append(value)
                # one batched update per tensor, at the rows the view's
                # positions name
                for tensor, values in columns.items():
                    name = ds_out._qualify(tensor)
                    rows = ds_out.index.engine_rows(
                        positions, ds_out._engine(name).num_samples
                    )
                    ds_out._update_with_sync(name, rows, values)
                written = len(positions)
            else:
                # Append path: stream finished rows into columns of
                # _WRITE_BATCH_ROWS and write each as one staged
                # ``ds_out.extend`` — the engines upload finished chunks
                # in batched set_many calls on this thread while the
                # pool's workers keep computing.
                emitted = (row for result in results for rows in result
                           for row in rows)
                while batch := list(islice(emitted, _WRITE_BATCH_ROWS)):
                    ds_out.extend({t: [row[t] for row in batch]
                                   for t in out_tensors})
                    written += len(batch)
        ds_out.flush()
        return written

    def __repr__(self) -> str:
        return f"Pipeline({[s.name for s in self.steps]})"


def compose(steps: Sequence[ComputeFunction]) -> Pipeline:
    """``repro.compose([...])`` — stack transforms into one pipeline."""
    return Pipeline(steps)
