"""Parallel sample-wise transformations (§4.1.2).

A user function decorated with ``@repro.compute`` takes ``(sample_in,
sample_out, **kwargs)`` and may emit one *or several* output rows per input
(one-to-one and one-to-many).  ``fn(**kwargs).eval(data_in, ds_out, ...)``
runs it over a dataset/view or any iterable, appending to ``ds_out`` — or
in place when ``ds_out`` is omitted and the function mutates samples.

The scheduler batches sample-wise work by *chunk adjacency* ("the scheduler
batches sample-wise transformations operating on nearby chunks") so each
worker decodes a chunk-aligned range, and runs batches on a thread pool
(our codecs release the GIL inside zlib/scipy, which is what the paper's
C++ engine achieves with per-process decompression).  Results are appended
strictly in input order, so eval is deterministic regardless of worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import TransformError
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
            return _TensorAppender(rows[name])
        raise AttributeError(name)

    def row_count(self) -> int:
        counts = {len(v) for v in self._rows.values()}
        if len(counts) > 1:
            raise TransformError(
                "?", ValueError(f"uneven output rows per tensor: "
                                f"{ {k: len(v) for k, v in self._rows.items()} }")
            )
        return counts.pop() if counts else 0

    def rows(self) -> List[Dict[str, object]]:
        n = self.row_count()
        return [
            {t: self._rows[t][i] for t in self._tensors} for i in range(n)
        ]


class _TensorAppender:
    __slots__ = ("_list",)

    def __init__(self, lst: List):
        self._list = lst

    def append(self, value) -> None:
        self._list.append(value)


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

        # materialise the input as (index, sample_dict) work items
        if isinstance(data_in, Dataset):
            names = list(read_tensors or data_in.tensors)
            length = len(data_in)

            def fetch(i: int) -> Dict:
                return {
                    t: data_in[t][i].numpy() for t in names
                }

            batches = plan_batches(data_in, names, length, num_workers)
        else:
            items = list(data_in)
            length = len(items)

            def fetch(i: int):
                return items[i]

            size = max(1, length // max(1, (num_workers or 1) * 4))
            batches = [
                list(range(s, min(s + size, length)))
                for s in range(0, length, size)
            ]

        def run_batch(indices: List[int]) -> List[List[Dict]]:
            out = []
            for i in indices:
                try:
                    out.append(self._run_one(fetch(i), out_tensors))
                except TransformError:
                    raise
                except Exception as exc:  # noqa: BLE001 - annotate index
                    raise TransformError(i, exc) from exc
            return out

        parallel = bool(num_workers and num_workers > 1 and len(batches) > 1)

        # deterministic, input-ordered writes
        written = 0
        if in_place:
            if parallel:
                with ThreadPoolExecutor(max_workers=num_workers) as pool:
                    results = list(pool.map(run_batch, batches))
            else:
                results = [run_batch(b) for b in batches]
            flat_indices = [i for batch in batches for i in batch]
            flat_rows = [rows for result in results for rows in result]
            for i, rows in zip(flat_indices, flat_rows):
                if len(rows) != 1:
                    raise TransformError(
                        i,
                        ValueError(
                            "in-place transforms must emit exactly one row"
                        ),
                    )
                for tensor, value in rows[0].items():
                    ds_out._update_with_sync(ds_out._qualify(tensor), i, value)
                written += 1
        else:
            # Append path: stream finished batches (pool.map yields them in
            # input order as they complete) into columnar buffers and flush
            # each buffer as one staged ``ds_out.extend`` — the engines
            # upload finished chunks in batched set_many calls on this
            # thread while the pool's workers keep computing.
            buf: Dict[str, List] = {t: [] for t in out_tensors}
            buffered = 0

            def flush_buf() -> None:
                nonlocal buffered, written
                if not buffered:
                    return
                ds_out.extend({t: buf[t] for t in out_tensors})
                written += buffered
                for t in out_tensors:
                    buf[t].clear()
                buffered = 0

            def consume(result: List[List[Dict]]) -> None:
                nonlocal buffered
                for rows in result:
                    for row in rows:
                        for t in out_tensors:
                            buf[t].append(row[t])
                        buffered += 1
                        if buffered >= _WRITE_BATCH_ROWS:
                            flush_buf()

            if parallel:
                with ThreadPoolExecutor(max_workers=num_workers) as pool:
                    for result in pool.map(run_batch, batches):
                        consume(result)
            else:
                for b in batches:
                    consume(run_batch(b))
            flush_buf()
        ds_out.flush()
        return written

    def __repr__(self) -> str:
        return f"Pipeline({[s.name for s in self.steps]})"


def compose(steps: Sequence[ComputeFunction]) -> Pipeline:
    """``repro.compose([...])`` — stack transforms into one pipeline."""
    return Pipeline(steps)
