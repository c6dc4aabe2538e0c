"""Executor of TQL plans: runs the tensor-op graph over dataset rows.

With optimisation on (the default), a query is *one scan*: the rows are
walked once, in windows sized in decoded bytes, and each column a window
needs is planned once — one chunk-granular
:class:`~repro.core.chunk_engine.ReadPlan` per column per window, fused
into one storage round trip.  Per window the vectorized kernels of
:mod:`repro.tql.kernels` compute the WHERE mask, then the stage after it
— GROUP BY partials, ORDER / ARRANGE / SAMPLE keys, or the projections —
reads the surviving rows from the same resident columns (no per-cell
storage reads anywhere).  GROUP BY is one segmented reduction per window
with partials merged across windows, ORDER BY one stable ``argsort`` per
key, and a row set is one int64 array from :meth:`Executor.source_rows`
to the result.  The WHERE clause also compiles to per-column value
intervals (:func:`~repro.tql.kernels.column_bounds`) that
:meth:`~repro.core.chunk_engine.ChunkEngine.plan_reads` checks against
the per-chunk statistics sidecar: chunks that cannot satisfy the
predicate are skipped before any storage GET, in every column.

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


#: Decoded bytes one scan window holds: its rows are this over the
#: worst-case row (dtype × max shape) of the columns it reads, at least
#: one — ~10^6 rows of a float64 column, ~300 of 96² RGB images.  Each
#: column is planned once per window; a chunk straddling two windows is
#: still fetched once, through the handle's decoded-chunk cache.
SCAN_WINDOW_BYTES = 8 << 20


class Executor:
    def __init__(self, ds, plan: Plan, seed: int = 0):
        self.ds = ds
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self.rows_scanned = 0
        #: cells materialised by the engine (fetched or read per row);
        #: reads of resident window columns count in :attr:`cache_hits`
        self.cells_fetched = 0
        self.cache_hits = 0
        #: window fetches that degraded to per-row reads (storage/decode
        #: errors)
        self.prefetch_fallbacks = 0
        #: chunks proven irrelevant by statistics pushdown (zero GETs)
        self.chunks_skipped = 0
        #: tensor -> (the current scan window's column as the engine
        #: returned it, its pruned-row mask or None)
        self._window: Dict[str, tuple] = {}
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
        the windows whose fetch degraded."""
        engine = self.ds._engine(tensor)
        self.cells_fetched += 1
        self._m_cells_fetched.inc()
        return self._decode_cell(engine, engine.read_sample(row))

    def _read_column(self, tensor: str, rows, positions):
        """Column of *tensor* for the evaluator's *rows*, which sit at
        *positions* of the resident window column (``None`` = they are
        all of it).  A dense window column is indexed as one array; a list
        column — ragged or sample-compressed cells, and always text / json,
        whose cells decode one by one — packs per cell."""
        resident = self._window.get(tensor)
        if resident is None:  # the window's fetch degraded: per-row reads
            return kernels._pack([self._read_cell(tensor, r) for r in rows])
        column = resident[0]
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

    def _fetch(self, tensors: List[str], rows,
               bounds: Optional[dict] = None) -> None:
        """Make *tensors* resident in the window over *rows*: one ReadPlan
        per column, fused into ONE storage ``get_many`` across all of
        them, so each chunk is fetched and decompressed once.

        *bounds* (tensor -> interval list) enables statistics pushdown:
        chunks that cannot satisfy the WHERE predicate are skipped with
        zero GETs and their rows kept as the plan's ``pruned`` mask.
        Only a storage/decode failure degrades the window to per-row
        reads (counted in ``tql.prefetch_fallbacks``) — one-row plans on
        the same path, so a transient failure is simply retried and a
        persistent one surfaces on the tensor and row that own it;
        programming errors propagate.
        """
        with _tracing.span("tql.fetch_columns", tensors=len(tensors),
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
                self._window[tensor] = (column, pruned)

    def _unpruned(self, bounds: dict) -> Optional[np.ndarray]:
        """Window positions statistics pushdown could not rule out, or
        ``None`` for all of them: a row is out when some bounded column's
        cell sits in a chunk whose [min, max] misses the predicate's
        necessary interval."""
        pruned = None
        for tensor in bounds:
            mask = self._window.get(tensor, (None, None))[1]
            if mask is not None:
                pruned = mask if pruned is None else pruned | mask
        return None if pruned is None else np.flatnonzero(~pruned)

    def _scan(self, rows: np.ndarray, where: Optional[Node],
              columns: List[str], stage=None) -> np.ndarray:
        """The one pipeline of an optimized query: *rows* walked once, in
        windows of :data:`SCAN_WINDOW_BYTES`, each column planned once per
        window.  Per window the WHERE columns are fetched with the pushdown
        bounds and the mask computed; then ``stage(evaluator)``, over the
        rows that passed, reads *columns* while they are resident: a WHERE
        column indexed down to those rows, any other planned over them
        alone.  Returns the rows that passed WHERE."""
        if where is None and stage is None:
            return rows
        filter_cols = [] if where is None else _node_columns([where])
        bounds = kernels.column_bounds(where)
        row_bytes = sum(self.ds._engine(t).meta.max_sample_nbytes
                        for t in set(filter_cols) | set(columns))
        step = max(1, SCAN_WINDOW_BYTES // max(1, row_bytes))
        kept_parts = [np.empty(0, dtype=np.int64)]
        with _tracing.span("tql.scan", rows=len(rows)) as sp:
            for start in range(0, len(rows), step):
                window = kept = rows[start : start + step]
                self._m_scan_windows.inc()
                self._h_window_rows.observe(len(window))
                self.rows_scanned += len(window)
                self._m_rows_scanned.inc(len(window))
                self._window, positions = {}, None
                kernel_s = 0.0
                if where is not None:
                    self._fetch(filter_cols, window, bounds=bounds)
                    t0 = time.perf_counter()
                    positions = self._unpruned(bounds)
                    kept = window if positions is None else window[positions]
                    if len(kept):
                        mask = kernels.BatchEvaluator(
                            self, kept, positions
                        ).mask(where)
                        kept = kept[mask]
                        positions = (np.flatnonzero(mask) if positions is None
                                     else positions[mask])
                    kernel_s = time.perf_counter() - t0
                kept_parts.append(kept)
                if stage is not None and len(kept):
                    self._window = {
                        t: (_take(self._window[t][0], positions), None)
                        for t in columns if t in self._window
                    }
                    self._fetch([t for t in columns if t not in self._window],
                                kept)
                    t0 = time.perf_counter()
                    stage(kernels.BatchEvaluator(self, kept))
                    kernel_s += time.perf_counter() - t0
                self._h_kernel.observe(kernel_s)
            self._window = {}
            out = np.concatenate(kept_parts)
            sp.set(kept=len(out), pruned_chunks=self.chunks_skipped)
        return out

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
        """The WHERE stage as a list: the one scan, or one row at a time
        (``optimize=False``)."""
        rows, where = as_row_array(rows), self.plan.where_node
        if self.plan.optimize or where is None:
            return self._scan(rows, where, []).tolist()
        self.rows_scanned += len(rows)
        self._m_rows_scanned.inc(len(rows))
        return [r for r in rows.tolist()
                if _truthy(self.eval_node(where, r, {}))]

    def _key_nodes(self) -> Dict[int, Node]:
        """The per-row keys after WHERE, by node id: ORDER BY, ARRANGE BY
        and SAMPLE BY nodes."""
        plan = self.plan
        nodes = ([node for node, _asc in plan.order_nodes]
                 + plan.arrange_nodes + [plan.sample_node])
        return {node.id: node for node in nodes if node is not None}

    def _reorder(self, rows: np.ndarray, keys: Dict[int, object]) -> np.ndarray:
        """ORDER BY, ARRANGE BY, SAMPLE BY, then OFFSET / LIMIT over *rows*,
        given each key node's column over them (node id -> column)."""
        plan = self.plan
        perm = np.arange(len(rows))
        # ORDER BY: stable sorts applied from the last key to the first;
        # ARRANGE BY: stable grouping of the (already ordered) result
        for node, ascending in (
            list(reversed(plan.order_nodes))
            + [(node, True) for node in reversed(plan.arrange_nodes)]
        ):
            perm = perm[_stable_argsort(_take(keys[node.id], perm), ascending)]
        rows = rows[perm]
        if plan.sample_node is not None and len(rows):
            # each row weighs the mean of its key (a negative mean, 0)
            weights = np.asarray(
                [max(0.0, float(np.mean(v)))
                 for v in _take(keys[plan.sample_node.id], perm)],
                dtype=np.float64,
            )
            n = len(rows)
            k = plan.sample_limit if plan.sample_limit is not None else n
            total = weights.sum()
            probs = None if total <= 0 else weights / total
            if not plan.sample_replace:
                k = min(k, int((weights > 0).sum()) if probs is not None else n)
            rows = rows[self.rng.choice(n, size=k, replace=plan.sample_replace,
                                        p=probs)]
        stop = None if plan.limit is None else plan.offset + plan.limit
        return rows[plan.offset:stop]

    # ------------------------------------------------------------------ #
    # result construction
    # ------------------------------------------------------------------ #

    def run(self, query_string: str):
        plan = self.plan
        rows = self.source_rows()
        if not plan.optimize:
            return self._run_rows(rows, query_string)
        if plan.group_nodes:
            accumulator = kernels.GroupAccumulator(plan.agg_projections)
            inputs = [n for _n, _a, n in plan.agg_projections if n is not None]
            self._scan(
                rows, plan.where_node, _node_columns(plan.group_nodes + inputs),
                lambda ev: accumulator.add_batch(ev, plan.group_nodes),
            )
            groups = [values for _key, values in accumulator.finalize()]
            return self._materialize_groups(groups, query_string)
        key_nodes = self._key_nodes()
        if (self._projects() and not key_nodes and not plan.offset
                and plan.limit is None):
            # the result keeps the scan's row order: project in the scan
            return self._materialize_projections(rows, query_string,
                                                 where=plan.where_node)
        parts: Dict[int, List] = {i: [] for i in key_nodes}

        def keys_of(ev):
            for i, node in key_nodes.items():
                col = ev.eval(node)
                parts[i].append(col if kernels._is_dense(col)
                                else ev.values(node))

        rows = self._scan(rows, plan.where_node,
                          _node_columns(list(key_nodes.values())),
                          keys_of if key_nodes else None)
        keys = {i: _concat(part) for i, part in parts.items()}
        return self._result(self._reorder(rows, keys), query_string)

    def _run_rows(self, rows: np.ndarray, query_string: str):
        """The ``optimize=False`` ablation: no pushdown — every projection
        is evaluated for every source row before filtering — and then
        every stage one row at a time."""
        plan = self.plan
        for row in rows.tolist():
            memo: Dict[int, object] = {}
            for _name, node in plan.projections:
                self.eval_node(node, row, memo)
            self.rows_scanned += 1
        rows = as_row_array(self.filter_rows(rows))
        if plan.group_nodes:
            return self._materialize_groups(self._row_groups(rows),
                                            query_string)
        keys = {
            i: [self.eval_node(node, r, {}) for r in rows.tolist()]
            for i, node in self._key_nodes().items()
        }
        return self._result(self._reorder(rows, keys), query_string)

    def _projects(self) -> bool:
        """Whether the result is materialised from the projections rather
        than a view of the source rows."""
        plan = self.plan
        return (bool(plan.projections) if plan.select_star
                else not plan.bare_columns_only)

    def _result(self, rows: np.ndarray, query_string: str):
        plan = self.plan
        if self._projects():
            return self._materialize_projections(rows, query_string)
        names = (None if plan.select_star
                 else [node.tensor for _n, node in plan.projections])
        return self._view(rows, query_string, tensor_filter=names)

    def _view(self, rows: np.ndarray, query_string: str,
              tensor_filter: Optional[List[str]]):
        from repro.core.index import Index

        view = self.ds._spawn(index=Index([rows.tolist()]))
        view.query_string = query_string
        if tensor_filter is not None:
            view._tensor_filter = list(tensor_filter)
        return view

    def _extend_output(self, out, cols: Dict[str, List]) -> None:
        """One columnar ``extend`` of result dataset *out*.  The first one
        declares its tensors from these values: text / json by the first
        value, numeric dtypes widened over all of them (``np.result_type``,
        so a first-row int does not downcast the floats that follow)."""
        declare = {} if out._meta.tensors else cols
        for name, values in declare.items():
            if isinstance(values[0], str):
                kind = {"htype": "text"}
            elif isinstance(values[0], (dict, list)):
                kind = {"htype": "json"}
            else:
                kind = {"dtype": np.result_type(*{
                    np.asarray(v).dtype for v in values
                    if not isinstance(v, (str, dict, list))
                }).name}
            out.create_tensor(name, create_shape_tensor=False,
                              create_id_tensor=False, **kind)
        out.extend({
            name: [
                v if isinstance(v, (str, dict, list)) else np.asarray(v)
                for v in values
            ]
            for name, values in cols.items()
        })

    def _new_output(self, query_string: str):
        import repro as _api

        out = _api.empty(f"mem://tql-{id(self)}", overwrite=True)
        out.query_string = query_string
        return out

    def _seal_output(self, out, query_string: str):
        out._meta.info["source_query"] = query_string
        out._meta.info["source_commit"] = self.ds.commit_id
        out.flush()
        return out

    def _materialize_projections(self, rows: np.ndarray, query_string: str,
                                 where: Optional[Node] = None):
        """The projections over *rows* as a new dataset.  Optimized, they
        ride a scan: the query's one scan with its *where*, or — for a
        reordered or paginated result — one pass over the final rows."""
        plan = self.plan
        out = self._new_output(query_string)
        if plan.optimize:
            self._scan(
                rows, where, plan.projection_columns(),
                lambda ev: self._extend_output(out, {
                    name: ev.values(node) for name, node in plan.projections
                }),
            )
        elif len(rows):
            cols = {name: [] for name, _node in plan.projections}
            for row in rows.tolist():
                memo: Dict[int, object] = {}
                for name, node in plan.projections:
                    cols[name].append(self.eval_node(node, row, memo))
            self._extend_output(out, cols)
        if not out._meta.tensors:  # no row survived: empty columns
            for name, _node in plan.projections:
                out.create_tensor(name, dtype="float64",
                                  create_shape_tensor=False,
                                  create_id_tensor=False)
        return self._seal_output(out, query_string)

    def _row_groups(self, rows: np.ndarray) -> List[Dict[str, object]]:
        """GROUP BY one row at a time (the ablation): one dict of output
        values per group, in output order."""
        from repro.tql.functions import get_agg_function

        plan = self.plan
        groups: Dict[tuple, List[int]] = {}
        for row in rows.tolist():
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
        return group_rows

    def _materialize_groups(self, group_rows: List[Dict[str, object]],
                            query_string: str):
        out = self._new_output(query_string)
        if group_rows:
            self._extend_output(out, {
                name: [g[name] for g in group_rows] for name in group_rows[0]
            })
        return self._seal_output(out, query_string)


# ---------------------------------------------------------------------------
# small helpers (scalar kernels live in repro.tql.kernels and are
# re-imported above so both execution modes share one set of semantics)
# ---------------------------------------------------------------------------

from repro.exceptions import TQLTypeError  # noqa: E402


def _take(column, positions: np.ndarray):
    """The rows *positions* of a column, dense or a per-row list."""
    if isinstance(column, np.ndarray):
        return column[positions]
    return [column[i] for i in positions.tolist()]


def _concat(parts: List):
    """One column out of per-window parts: an ``(n, *shape)`` array when
    every part is one with the same cell shape, else the per-row list."""
    if parts and all(
        isinstance(col, np.ndarray) and col.shape[1:] == parts[0].shape[1:]
        for col in parts
    ):
        return np.concatenate(parts)
    return [value for col in parts for value in col]


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
