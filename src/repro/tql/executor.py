"""Executor of TQL plans: runs the tensor-op graph over dataset rows.

With optimisation on (the default), execution is *columnar*: rows are
walked in scan batches, every referenced column is prefetched through
one chunk-granular :class:`~repro.core.chunk_engine.ReadPlan` per batch,
and the node graph is evaluated by the vectorized kernels of
:mod:`repro.tql.kernels` over whole column batches — WHERE becomes a
boolean mask, ORDER BY / SAMPLE BY / GROUP BY key evaluation rides the
same scan cache (no per-cell storage reads anywhere), and the stages
after WHERE consume those columns as arrays too: GROUP BY is one
segmented reduction per batch with partials merged across batches,
ORDER BY one stable ``argsort`` per key, and a row set is one int64
array from :meth:`Executor.source_rows` to the result.  The WHERE clause
additionally compiles to per-column value intervals
(:func:`~repro.tql.kernels.column_bounds`) that
:meth:`~repro.core.chunk_engine.ChunkEngine.plan_reads` checks against
the per-chunk statistics sidecar: chunks that cannot satisfy the
predicate are skipped before any storage GET.

``optimize=False`` (the ablation mode) keeps the historical row-at-a-time
evaluation — per-row memoised :meth:`eval_node` with per-cell engine
reads — so benchmarks can quantify the vectorized engine's win.

Results come back as datasets (§4.4: TQL "constructs views of datasets,
which can be visualized or directly streamed"):

- ``SELECT *`` / bare-column selections produce a zero-copy *view* of the
  source (an index over it, with lineage recorded in ``query_string``);
- computed projections and GROUP BY produce a materialised in-memory
  dataset whose lineage records the query and source commit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.read_plan import FusedReadPlan, as_row_array, column_rows
from repro.exceptions import FormatError, StorageError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.tql import kernels
from repro.tql.kernels import (  # noqa: F401 - shared scalar kernels
    _arith,
    _compare,
    _group_key,
    _truthy,
)
from repro.tql.planner import (
    ArrayNode,
    BinaryNode,
    ColumnNode,
    ConstNode,
    FuncNode,
    Node,
    Plan,
    RandomNode,
    ShapeNode,
    SubscriptNode,
    UnaryNode,
    _node_columns,
)


#: Rows per scan batch.  read_batch groups each batch by owning chunk, and
#: the engine's decoded-chunk cache bridges chunks straddling a boundary,
#: so the scan issues at most one storage GET per chunk while holding only
#: one batch of decoded cells at a time.
SCAN_BATCH_ROWS = 1024


class Executor:
    def __init__(self, ds, plan: Plan, seed: int = 0):
        self.ds = ds
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self._decoders: Dict[str, tuple] = {}
        self.rows_scanned = 0
        #: cells materialised by the engine (prefetched or read per row);
        #: scan-cache hits are counted separately in :attr:`cache_hits`
        self.cells_fetched = 0
        self.cache_hits = 0
        #: prefetches that degraded to per-row reads (storage/decode errors)
        self.prefetch_fallbacks = 0
        #: chunks proven irrelevant by statistics pushdown (zero GETs)
        self.chunks_skipped = 0
        #: tensor -> (the scan window's column as the engine returned it,
        #: its pruned-row mask or None), filled by batched scans
        self._scan_cache: Dict[str, tuple] = {}
        ds_label = str(getattr(ds, "path", "") or "dataset")
        self._m_rows_scanned = _metrics.counter(
            "tql.rows_scanned", dataset=ds_label
        )
        self._m_scan_windows = _metrics.counter(
            "tql.scan_windows", dataset=ds_label
        )
        self._h_window_rows = _metrics.histogram(
            "tql.scan_window_rows", dataset=ds_label
        )
        self._m_cells_fetched = _metrics.counter(
            "tql.cells_fetched", dataset=ds_label
        )
        self._m_cache_hits = _metrics.counter(
            "tql.cache_hits", dataset=ds_label
        )
        self._m_prefetch_fallbacks = _metrics.counter(
            "tql.prefetch_fallbacks", dataset=ds_label
        )
        self._m_chunks_skipped = _metrics.counter(
            "tql.chunks_skipped", dataset=ds_label
        )
        self._h_kernel = _metrics.histogram(
            "tql.kernel_seconds", dataset=ds_label
        )

    # ------------------------------------------------------------------ #
    # value access
    # ------------------------------------------------------------------ #

    def _decode_cell(self, engine, value):
        if engine.meta.is_text and isinstance(value, np.ndarray):
            return bytes(value.tobytes()).decode("utf-8")
        if engine.meta.is_json and isinstance(value, np.ndarray):
            from repro.util.json_util import json_loads

            return json_loads(bytes(value.tobytes()))
        return value

    def _read_cell(self, tensor: str, row: int):
        """One cell through a one-row engine read: row-at-a-time mode, and
        the windows whose prefetch degraded."""
        engine = self.ds._engine(tensor)
        self.cells_fetched += 1
        self._m_cells_fetched.inc()
        return self._decode_cell(engine, engine.read_sample(row))

    def _read_column(self, tensor: str, rows, positions):
        """Column of *tensor* for the evaluator's *rows*, which sit at
        *positions* of the prefetched scan window (``None`` = they are the
        window).  A dense window column is indexed as one array; a list
        column — ragged or sample-compressed cells, and always text / json,
        whose cells decode one by one — packs per cell."""
        cached = self._scan_cache.get(tensor)
        if cached is None:  # prefetch degraded: per-row reads
            return kernels._pack([self._read_cell(tensor, r) for r in rows])
        column = cached[0]
        self.cache_hits += len(rows)
        self._m_cache_hits.inc(len(rows))
        engine = self.ds._engine(tensor)
        coded = engine.meta.is_text or engine.meta.is_json
        if isinstance(column, np.ndarray) and not coded:
            return column if positions is None else column[positions]
        cells = column_rows(column)
        if positions is not None:
            cells = [cells[i] for i in positions.tolist()]
        if coded:
            cells = [self._decode_cell(engine, v) for v in cells]
        return kernels._pack(cells)

    def _prefetch_columns(self, tensors: List[str], rows,
                          bounds: Optional[dict] = None) -> None:
        """One ReadPlan per column for this batch of rows, fused into ONE
        storage ``get_many`` across all of them: each chunk is fetched and
        decompressed once, then cells come from memory.

        *bounds* (tensor -> interval list) enables statistics pushdown:
        chunks that cannot satisfy the WHERE predicate are skipped with
        zero GETs and their rows kept as the plan's ``pruned`` mask.
        Only a storage/decode failure degrades the window to per-row
        reads (counted in ``tql.prefetch_fallbacks``) — one-row plans on
        the same path, so a transient failure is simply retried and a
        persistent one surfaces on the tensor and row that own it;
        programming errors propagate.
        """
        with _tracing.span("tql.prefetch_columns", tensors=len(tensors),
                           rows=len(rows)):
            fused = FusedReadPlan()
            plans = []
            try:
                for tensor in tensors:
                    engine = self.ds._engine(tensor)
                    tensor_bounds = bounds.get(tensor) if bounds else None
                    plan = engine.plan_reads(rows, bounds=tensor_bounds)
                    fused.add(engine, plan)
                    plans.append((tensor, plan))
                columns = fused.execute()
            except (StorageError, FormatError):
                self.prefetch_fallbacks += 1
                self._m_prefetch_fallbacks.inc()
                return
            for (tensor, plan), column in zip(plans, columns):
                pruned = None
                fetched = len(rows)
                if plan.skipped_chunks:
                    self.chunks_skipped += len(plan.skipped_chunks)
                    self._m_chunks_skipped.inc(len(plan.skipped_chunks))
                    pruned = plan.pruned
                    fetched -= int(pruned.sum())
                self.cells_fetched += fetched
                self._m_cells_fetched.inc(fetched)
                self._scan_cache[tensor] = (column, pruned)

    def _unpruned(self, bounds: dict) -> Optional[np.ndarray]:
        """Window positions statistics pushdown could not rule out, or
        ``None`` for all of them: a row is out when some bounded column's
        cell sits in a chunk whose [min, max] misses the predicate's
        necessary interval."""
        pruned = None
        for tensor in bounds:
            mask = self._scan_cache.get(tensor, (None, None))[1]
            if mask is not None:
                pruned = mask if pruned is None else pruned | mask
        return None if pruned is None else np.flatnonzero(~pruned)

    def _clear_prefetched(self) -> None:
        self._scan_cache.clear()

    def _scan_batches(self, rows):
        for i in range(0, len(rows), SCAN_BATCH_ROWS):
            yield rows[i : i + SCAN_BATCH_ROWS]

    # ------------------------------------------------------------------ #
    # graph evaluation (row-at-a-time: the optimize=False ablation path,
    # also the reference semantics the batch kernels must reproduce)
    # ------------------------------------------------------------------ #

    def eval_node(self, node: Node, row: int, memo: Dict[int, object]):
        if node.id in memo:
            return memo[node.id]
        value = self._eval(node, row, memo)
        memo[node.id] = value
        return value

    def _eval(self, node: Node, row: int, memo):
        if isinstance(node, ConstNode):
            return node.value
        if isinstance(node, ColumnNode):
            return self._read_cell(node.tensor, row)
        if isinstance(node, ShapeNode):
            return self._read_cell(node.shape_tensor, row)
        if isinstance(node, ArrayNode):
            return np.asarray(
                [self.eval_node(i, row, memo) for i in node.inputs]
            )
        if isinstance(node, RandomNode):
            return float(self.rng.random())
        if isinstance(node, FuncNode):
            args = [self.eval_node(a, row, memo) for a in node.inputs]
            return node.fn(*args)
        if isinstance(node, UnaryNode):
            val = self.eval_node(node.inputs[0], row, memo)
            if node.op == "NOT":
                return not _truthy(val)
            return -val
        if isinstance(node, BinaryNode):
            return self._eval_binary(node, row, memo)
        if isinstance(node, SubscriptNode):
            base = self.eval_node(node.inputs[0], row, memo)
            parts = []
            for spec in node.specs:
                if spec[0] == "i":
                    parts.append(spec[1])
                else:
                    parts.append(slice(spec[1], spec[2], spec[3]))
            if isinstance(base, str):
                return base[parts[0] if len(parts) == 1 else tuple(parts)]
            return np.asarray(base)[tuple(parts)]
        raise TQLTypeError(f"cannot evaluate node {node.key!r}")

    def _eval_binary(self, node: BinaryNode, row: int, memo):
        op = node.op
        if op == "AND":
            left = self.eval_node(node.inputs[0], row, memo)
            if not _truthy(left):
                return False  # short-circuit skips fetching right columns
            return _truthy(self.eval_node(node.inputs[1], row, memo))
        if op == "OR":
            left = self.eval_node(node.inputs[0], row, memo)
            if _truthy(left):
                return True
            return _truthy(self.eval_node(node.inputs[1], row, memo))
        left = self.eval_node(node.inputs[0], row, memo)
        right = self.eval_node(node.inputs[1], row, memo)
        if op == "CONTAINS":
            if isinstance(left, str):
                return str(right) in left
            return bool(np.isin(right, np.asarray(left)).any())
        if op == "IN":
            return bool(np.isin(left, np.asarray(right)).any())
        if op in ("+", "-", "*", "/", "%"):
            return _arith(op, left, right)
        result = _compare(op, left, right)
        return result

    # ------------------------------------------------------------------ #
    # batched evaluation helpers (the vectorized path)
    # ------------------------------------------------------------------ #

    def _eval_rows(self, node: Node, rows: np.ndarray):
        """The column of *node* over many rows, batch-prefetching the
        columns it reads — ORDER BY / SAMPLE BY keys cost one GET per
        chunk, not one per cell.  One ``(n, *shape)`` array when every
        batch evaluates dense, else the per-row list."""
        if not self.plan.optimize:
            return [self.eval_node(node, r, {}) for r in rows]
        columns = _node_columns([node])
        parts: List = []
        for batch in self._scan_batches(rows):
            if columns:
                self._prefetch_columns(columns, batch)
            t0 = time.perf_counter()
            evaluator = kernels.BatchEvaluator(self, batch)
            col = evaluator.eval(node)
            parts.append(
                col if kernels._is_dense(col) else evaluator.values(node)
            )
            self._h_kernel.observe(time.perf_counter() - t0)
            self._clear_prefetched()
        if parts and all(
            isinstance(col, np.ndarray) and col.shape[1:] == parts[0].shape[1:]
            for col in parts
        ):
            return np.concatenate(parts)
        return [value for col in parts for value in col]

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #

    def source_rows(self) -> np.ndarray:
        """The dataset's rows; from here on a row set is one int64 array."""
        engine_lengths = [
            engine.num_samples
            for engine in self.ds._open_engines(self.ds._meta.visible_tensors)
        ]
        length = min(engine_lengths) if engine_lengths else 0
        return as_row_array(self.ds.index.row_sequence(length))

    def filter_rows(self, rows: List[int]) -> List[int]:
        """The WHERE stage as a list, for callers outside :meth:`run`."""
        return self._filter(rows).tolist()

    def _filter(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        plan = self.plan
        if plan.where_node is None:
            return rows
        if not plan.optimize:
            out = []
            with _tracing.span("tql.filter_rows", rows=len(rows)) as sp:
                for batch in self._scan_batches(rows):
                    self._m_scan_windows.inc()
                    self._h_window_rows.observe(len(batch))
                    for row in batch:
                        memo: Dict[int, object] = {}
                        self.rows_scanned += 1
                        self._m_rows_scanned.inc()
                        if _truthy(self.eval_node(plan.where_node, row, memo)):
                            out.append(row)
                sp.set(kept=len(out))
            return np.asarray(out, dtype=np.int64)

        columns = plan.filter_columns()
        bounds = kernels.column_bounds(plan.where_node)
        kept = [np.empty(0, dtype=np.int64)]
        with _tracing.span("tql.filter_rows", rows=len(rows)) as sp:
            for batch in self._scan_batches(rows):
                self._m_scan_windows.inc()
                self._h_window_rows.observe(len(batch))
                self.rows_scanned += len(batch)
                self._m_rows_scanned.inc(len(batch))
                if columns:
                    self._prefetch_columns(columns, batch, bounds=bounds)
                positions = self._unpruned(bounds)
                survivors = batch if positions is None else batch[positions]
                if len(survivors):
                    t0 = time.perf_counter()
                    evaluator = kernels.BatchEvaluator(
                        self, survivors, positions
                    )
                    mask = evaluator.mask(plan.where_node)
                    self._h_kernel.observe(time.perf_counter() - t0)
                    kept.append(survivors[mask])
                self._clear_prefetched()
            out = np.concatenate(kept)
            sp.set(kept=len(out), pruned_chunks=self.chunks_skipped)
        return out

    def order_rows(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        # ORDER BY: stable sorts applied from the last key to the first;
        # ARRANGE BY: stable grouping of the (already ordered) result
        for node, ascending in (
            list(reversed(plan.order_nodes))
            + [(node, True) for node in reversed(plan.arrange_nodes)]
        ):
            keys = self._eval_rows(node, rows)
            rows = rows[_stable_argsort(keys, ascending)]
        return rows

    def sample_rows(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        if plan.sample_node is None or not len(rows):
            return rows
        weights = np.asarray(
            [
                max(0.0, float(np.mean(v)))
                for v in self._eval_rows(plan.sample_node, rows)
            ],
            dtype=np.float64,
        )
        total = weights.sum()
        k = plan.sample_limit if plan.sample_limit is not None else len(rows)
        if total <= 0:
            probs = None
        else:
            probs = weights / total
        if not plan.sample_replace:
            k = min(k, int((weights > 0).sum()) if probs is not None else len(rows))
        chosen = self.rng.choice(
            len(rows), size=k, replace=plan.sample_replace, p=probs
        )
        return rows[chosen]

    def paginate(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        start = plan.offset
        stop = None if plan.limit is None else start + plan.limit
        return rows[start:stop]

    # ------------------------------------------------------------------ #
    # result construction
    # ------------------------------------------------------------------ #

    def run(self, query_string: str):
        plan = self.plan
        rows = self.source_rows()

        if not plan.optimize:
            # ablation mode: no pushdown — evaluate every projection for
            # every source row before filtering
            for row in rows:
                memo: Dict[int, object] = {}
                for _name, node in plan.projections:
                    self.eval_node(node, row, memo)
                self.rows_scanned += 1

        rows = self._filter(rows)
        if plan.group_nodes:
            return self._materialize_groups(rows, query_string)
        rows = self.order_rows(rows)
        rows = self.sample_rows(rows)
        rows = self.paginate(rows)

        if plan.select_star and not plan.projections:
            return self._view(rows, query_string, tensor_filter=None)
        if plan.bare_columns_only and not plan.select_star:
            names = [node.tensor for _n, node in plan.projections]
            return self._view(rows, query_string, tensor_filter=names)
        return self._materialize_projections(rows, query_string)

    def _view(self, rows: np.ndarray, query_string: str,
              tensor_filter: Optional[List[str]]):
        from repro.core.index import Index

        view = self.ds._spawn(index=Index([rows.tolist()]))
        view.query_string = query_string
        if tensor_filter is not None:
            view._tensor_filter = list(tensor_filter)
        return view

    def _infer_and_create(self, out, name: str, values: List) -> None:
        """Create output tensor *name* from the first batch of values.

        Numeric dtypes widen over the whole batch via ``np.result_type``
        so a first-row int no longer downcasts the floats that follow;
        text/json are decided by the first value, as before.
        """
        first = values[0]
        if isinstance(first, str):
            out.create_tensor(name, htype="text",
                              create_shape_tensor=False, create_id_tensor=False)
        elif isinstance(first, (dict, list)):
            out.create_tensor(name, htype="json",
                              create_shape_tensor=False, create_id_tensor=False)
        else:
            dtypes = {np.asarray(v).dtype for v in values
                      if not isinstance(v, (str, dict, list))}
            dtype = np.result_type(*dtypes)
            out.create_tensor(
                name,
                dtype=dtype.name,
                create_shape_tensor=False,
                create_id_tensor=False,
            )

    def _extend_output(self, out, cols: Dict[str, List],
                       create: bool) -> None:
        """One columnar ``extend`` of result dataset *out*; *create* first
        declares its tensors from these values."""
        if create:
            for name, values in cols.items():
                self._infer_and_create(out, name, values)
        out.extend({
            name: [
                v if isinstance(v, (str, dict, list)) else np.asarray(v)
                for v in values
            ]
            for name, values in cols.items()
        })

    def _materialize_projections(self, rows: np.ndarray, query_string: str):
        import repro as _api

        plan = self.plan
        out = _api.empty(f"mem://tql-{id(self)}", overwrite=True)
        out.query_string = query_string
        columns = plan.projection_columns() if plan.optimize else []
        for batch in self._scan_batches(rows):
            self._m_scan_windows.inc()
            self._h_window_rows.observe(len(batch))
            if columns:
                self._prefetch_columns(columns, batch)
            if plan.optimize:
                t0 = time.perf_counter()
                evaluator = kernels.BatchEvaluator(self, batch)
                cols = {
                    name: evaluator.values(node)
                    for name, node in plan.projections
                }
                self._h_kernel.observe(time.perf_counter() - t0)
            else:
                cols = {name: [] for name, _node in plan.projections}
                for row in batch:
                    memo: Dict[int, object] = {}
                    for name, node in plan.projections:
                        cols[name].append(self.eval_node(node, row, memo))
            self._extend_output(out, cols, create=not out._meta.tensors)
            self._clear_prefetched()
        if not out._meta.tensors:  # no row survived: empty columns
            for name, _node in plan.projections:
                out.create_tensor(name, dtype="float64",
                                  create_shape_tensor=False,
                                  create_id_tensor=False)
        out._meta.info["source_query"] = query_string
        out._meta.info["source_commit"] = self.ds.commit_id
        out.flush()
        return out

    def _vectorized_groups(self, rows: np.ndarray) -> List[Dict[str, object]]:
        """Streaming GROUP BY: per batch, keys and aggregate inputs come
        from one kernel pass over prefetched columns and are cut into
        per-group partials by one segmented reduction; partials merge
        across batches (O(chunks) GETs, O(groups) memory plus one scalar
        per row for the reduced aggregates)."""
        plan = self.plan
        nodes = list(plan.group_nodes) + [
            node for _n, _a, node in plan.agg_projections if node is not None
        ]
        columns = _node_columns(nodes)
        accumulator = kernels.GroupAccumulator(plan.agg_projections)
        for batch in self._scan_batches(rows):
            self._m_scan_windows.inc()
            self._h_window_rows.observe(len(batch))
            if columns:
                self._prefetch_columns(columns, batch)
            t0 = time.perf_counter()
            accumulator.add_batch(
                kernels.BatchEvaluator(self, batch), plan.group_nodes
            )
            self._h_kernel.observe(time.perf_counter() - t0)
            self._clear_prefetched()
        return [values for _key, values in accumulator.finalize()]

    def _materialize_groups(self, rows: np.ndarray, query_string: str):
        import repro as _api

        plan = self.plan
        if plan.optimize:
            group_rows = self._vectorized_groups(rows)
        else:
            from repro.tql.functions import get_agg_function

            groups: Dict[tuple, List[int]] = {}
            for row in rows:
                memo: Dict[int, object] = {}
                key = tuple(
                    _group_key(self.eval_node(node, row, memo))
                    for node in plan.group_nodes
                )
                groups.setdefault(key, []).append(row)
            group_rows = []
            for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
                members = groups[key]
                values = {}
                for name, agg_name, node in plan.agg_projections:
                    fn = get_agg_function(agg_name)
                    if node is None:  # COUNT()
                        values[name] = fn(members)
                    else:
                        per_row = [self.eval_node(node, r, {}) for r in members]
                        values[name] = fn(per_row)
                group_rows.append(values)

        out = _api.empty(f"mem://tql-{id(self)}", overwrite=True)
        out.query_string = query_string
        if group_rows:
            self._extend_output(
                out,
                {name: [g[name] for g in group_rows]
                 for name in group_rows[0]},
                create=True,
            )
        out._meta.info["source_query"] = query_string
        out._meta.info["source_commit"] = self.ds.commit_id
        out.flush()
        return out


# ---------------------------------------------------------------------------
# small helpers (scalar kernels live in repro.tql.kernels and are
# re-imported above so both execution modes share one set of semantics)
# ---------------------------------------------------------------------------

from repro.exceptions import TQLTypeError  # noqa: E402


def _sort_token(value):
    if isinstance(value, np.ndarray):
        value = float(np.mean(value)) if value.size else 0.0
    if isinstance(value, (bool, np.bool_)):
        return (0, float(value))
    if isinstance(value, (int, float, np.integer, np.floating)):
        return (0, float(value))
    return (1, str(value))


def _stable_argsort(values, ascending: bool) -> np.ndarray:
    """Positions that sort the keys *values* (a column or a per-row list),
    equal keys staying in source order in either direction.  A numeric
    column is one stable ``argsort`` in its own dtype (int64 keys stay
    exact), n-d cells through their per-row mean; str / mixed keys
    compare as ``_sort_token`` tuples."""
    col = values if isinstance(values, np.ndarray) else kernels._pack(values)
    if kernels._is_dense(col) and col.dtype.kind in "biuf":
        n = len(col)
        if col.ndim > 1:
            flat = col.reshape(n, -1)
            col = flat.mean(axis=1) if flat.shape[1] else np.zeros(n)
        if ascending:
            return np.argsort(col, kind="stable")
        # descending: the stable sort of the reversed column, reversed
        return (n - 1 - np.argsort(col[::-1], kind="stable"))[::-1]
    tokens = [_sort_token(v) for v in values]
    return np.asarray(
        sorted(range(len(tokens)), key=tokens.__getitem__,
               reverse=not ascending),
        dtype=np.intp,
    )
