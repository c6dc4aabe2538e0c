"""Vectorized columnar kernels of the TQL executor (§4.4).

"The query plan generates a computational graph of tensor operations" —
this module is where that graph actually runs as tensor operations.  A
:class:`BatchEvaluator` walks the planner's node DAG once per scan batch
and produces whole *columns* (numpy arrays with a leading row axis, or
per-row lists for ragged/text data) instead of one cell at a time:
comparisons, arithmetic, AND/OR, CONTAINS/IN and subscripts dispatch
through operator tables onto numpy ufuncs, with a per-row fallback for
values a dense kernel cannot represent.  Batch memoisation plays the
same role the executor's per-row memo played for the planner's CSE —
each shared subexpression becomes one kernel invocation per batch.

The module also hosts:

- the scalar kernels (:func:`_truthy`, :func:`_arith`, :func:`_compare`,
  :func:`_group_key`) shared with the executor's row-at-a-time ablation
  path, so both modes agree on semantics by construction;
- :func:`column_bounds`, the predicate-pushdown analysis that turns a
  WHERE tree into necessary-condition value intervals per column — the
  input to :meth:`ChunkEngine.plan_reads`'s statistics pruning;
- :class:`GroupAccumulator`, streaming GROUP BY state: a batch is
  ordered by group with one stable ``lexsort`` over its key columns
  (:func:`_group_segments`) and every aggregate's per-row scalar column
  is cut at the group boundaries, partials merge per group per batch,
  and one numpy reduction per group finalises — bit-identical to the
  registered aggregate over the row-at-a-time path's values.
"""

from __future__ import annotations

import operator as _pyop
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.read_plan import PRUNED  # noqa: F401 - re-exported
from repro.exceptions import TQLTypeError
from repro.tql.functions import get_agg_function
from repro.tql.planner import (
    ArrayNode,
    BinaryNode,
    ColumnNode,
    ConstNode,
    FuncNode,
    Node,
    RandomNode,
    ShapeNode,
    SubscriptNode,
    UnaryNode,
)

# ---------------------------------------------------------------------------
# scalar kernels (shared with the executor's row-at-a-time ablation mode)
# ---------------------------------------------------------------------------

_NUMERIC_SCALARS = (bool, int, float, np.bool_, np.integer, np.floating)


def _truthy(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.all(value)) if value.size else False
    return bool(value)


#: ``/`` and ``%`` go through numpy so division by zero yields inf/nan
#: (with a RuntimeWarning suppressed) instead of crashing the query on
#: Python-int operands; ``+ - *`` stay on the Python operators so string
#: concatenation keeps working.
_NP_ARITH = {"/": np.true_divide, "%": np.mod}
_PY_ARITH = {"+": _pyop.add, "-": _pyop.sub, "*": _pyop.mul}


def _arith(op: str, a, b):
    try:
        if op in _NP_ARITH:
            with np.errstate(divide="ignore", invalid="ignore"):
                return _NP_ARITH[op](a, b)
        return _PY_ARITH[op](a, b)
    except TypeError as exc:
        raise TQLTypeError(
            f"unsupported operand types for {op!r}: "
            f"{type(a).__name__} and {type(b).__name__}"
        ) from exc


_CMP_UFUNC = {
    "==": np.equal, "!=": np.not_equal, "<": np.less, "<=": np.less_equal,
    ">": np.greater, ">=": np.greater_equal,
}
_CMP_PYOP = {
    "==": _pyop.eq, "!=": _pyop.ne, "<": _pyop.lt, "<=": _pyop.le,
    ">": _pyop.gt, ">=": _pyop.ge,
}


def _compare(op: str, a, b) -> bool:
    result = _CMP_PYOP[op](a, b)
    if isinstance(result, np.ndarray):
        return bool(np.all(result)) if result.size else False
    return bool(result)


def _group_key(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return tuple(np.ravel(value).tolist())
    return value


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------


class _Const:
    """A constant broadcast over the batch (kept unexpanded)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _pack(values: List):
    """Dense column (leading row axis) when rows are uniform, else the
    per-row list unchanged.  Strings, dicts and ragged arrays stay as
    lists; uniform arrays stack; numeric scalars become a 1-D array."""
    if not values:
        return values
    first = values[0]
    if isinstance(first, np.ndarray):
        if first.dtype != object and all(
            isinstance(v, np.ndarray)
            and v.shape == first.shape
            and v.dtype == first.dtype
            for v in values
        ):
            return np.stack(values)
        return values
    if isinstance(first, _NUMERIC_SCALARS) and all(
        isinstance(v, _NUMERIC_SCALARS) for v in values
    ):
        return np.asarray(values)
    return values


def _is_dense(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype != object


def _align_trailing(x: np.ndarray, rank: int) -> np.ndarray:
    """Insert singleton dims after the row axis so *x*'s trailing rank is
    at least *rank* — this makes column-vs-column / column-vs-const
    broadcasting match the per-row broadcast the scalar kernels do."""
    pad = rank - (x.ndim - 1)
    if pad <= 0:
        return x
    return x.reshape(x.shape[:1] + (1,) * pad + x.shape[1:])


class BatchEvaluator:
    """One batch of rows through the node graph, column at a time.

    Reads cells from the executor's scan window (the columns its
    chunk-granular fetch made resident), memoises per node id, and
    dispatches each node class through an operator table.  Results come
    back as:

    - :meth:`mask` — boolean row mask (the WHERE path), applying the
      same all-elements/empty-is-false reduction as the scalar kernels;
    - :meth:`values` — per-row values (ORDER/SAMPLE keys, projections,
      group keys), matching ``eval_node`` row semantics;
    - :meth:`reduced` — per-row scalar reductions feeding GROUP BY.
    """

    _REDUCERS = {"MEAN": np.mean, "SUM": np.sum, "MIN": np.min, "MAX": np.max}

    def __init__(self, executor, rows, positions=None):
        self.ex = executor
        self.rows = rows
        #: where *rows* sit in the executor's resident window columns
        #: (``None`` = they are all of them)
        self.positions = positions
        self.n = len(rows)
        self._memo: Dict[int, object] = {}
        self._dispatch = {
            ConstNode: self._eval_const,
            ColumnNode: self._eval_column,
            ShapeNode: self._eval_shape,
            ArrayNode: self._eval_array,
            RandomNode: self._eval_random,
            FuncNode: self._eval_func,
            UnaryNode: self._eval_unary,
            BinaryNode: self._eval_binary,
            SubscriptNode: self._eval_subscript,
        }

    # -- public API ------------------------------------------------------

    def mask(self, node: Node) -> np.ndarray:
        return self._as_mask(self.eval(node))

    def values(self, node: Node) -> List:
        return self._tolist(self.eval(node))

    def reduced(self, node: Node, kind: str):
        """Per-row scalarisation for aggregate *kind* (STD reduces like
        MEAN: the aggregate is the spread of per-row means)."""
        fn = self._REDUCERS["MEAN" if kind == "STD" else kind]
        col = self.eval(node)
        if _is_dense(col):
            return fn(col.reshape(self.n, -1), axis=1)
        return [fn(v) for v in self._tolist(col)]

    # -- dispatch --------------------------------------------------------

    def eval(self, node: Node):
        col = self._memo.get(node.id)
        if col is None:
            kernel = self._dispatch.get(type(node))
            if kernel is None:
                raise TQLTypeError(f"cannot evaluate node {node.key!r}")
            col = kernel(node)
            self._memo[node.id] = col
        return col

    # -- column representations ------------------------------------------

    def _tolist(self, col) -> List:
        if isinstance(col, _Const):
            return [col.value] * self.n
        if isinstance(col, np.ndarray):
            return list(col)
        return col

    def _as_mask(self, col) -> np.ndarray:
        if isinstance(col, _Const):
            return np.full(self.n, _truthy(col.value), dtype=bool)
        if _is_dense(col):
            if col.ndim == 1:
                return col if col.dtype == bool else col.astype(bool)
            flat = col.reshape(self.n, -1)
            if flat.shape[1] == 0:
                return np.zeros(self.n, dtype=bool)
            return flat.astype(bool).all(axis=1)
        return np.fromiter(
            (_truthy(v) for v in col), dtype=bool, count=self.n
        )

    # -- leaf kernels ----------------------------------------------------

    def _eval_const(self, node: ConstNode):
        return _Const(node.value)

    def _eval_column(self, node: ColumnNode):
        return self.ex._read_column(node.tensor, self.rows, self.positions)

    def _eval_shape(self, node: ShapeNode):
        return self.ex._read_column(
            node.shape_tensor, self.rows, self.positions
        )

    def _eval_random(self, node: RandomNode):
        return self.ex.rng.random(self.n)

    # -- structural kernels ----------------------------------------------

    def _eval_array(self, node: ArrayNode):
        cols = [self.eval(i) for i in node.inputs]
        if cols and all(_is_dense(c) and c.ndim == 1 for c in cols):
            return np.stack(cols, axis=1)
        lists = [self._tolist(c) for c in cols]
        return [
            np.asarray([col[i] for col in lists]) for i in range(self.n)
        ]

    def _eval_func(self, node: FuncNode):
        args = [self.eval(a) for a in node.inputs]
        if len(args) == 1 and _is_dense(args[0]):
            x = args[0]
            if node.name == "ABS":
                return np.abs(x)
            red = self._REDUCERS.get(node.name)
            if red is not None and x.reshape(self.n, -1).shape[1]:
                return red(x.reshape(self.n, -1), axis=1)
        lists = [self._tolist(a) for a in args]
        return _pack([node.fn(*vals) for vals in zip(*lists)])

    def _eval_unary(self, node: UnaryNode):
        if node.op == "NOT":
            return ~self._as_mask(self.eval(node.inputs[0]))
        col = self.eval(node.inputs[0])
        if isinstance(col, _Const):
            return _Const(-col.value)
        if _is_dense(col):
            return -col
        return [-v for v in col]

    def _eval_subscript(self, node: SubscriptNode):
        parts = []
        for spec in node.specs:
            if spec[0] == "i":
                parts.append(spec[1])
            else:
                parts.append(slice(spec[1], spec[2], spec[3]))
        base = self.eval(node.inputs[0])
        if _is_dense(base) and base.ndim > 1:
            try:
                return base[(slice(None),) + tuple(parts)]
            except IndexError:
                pass
        out = []
        for v in self._tolist(base):
            if isinstance(v, str):
                out.append(v[parts[0] if len(parts) == 1 else tuple(parts)])
            else:
                out.append(np.asarray(v)[tuple(parts)])
        return _pack(out)

    # -- binary kernels --------------------------------------------------

    def _eval_binary(self, node: BinaryNode):
        op = node.op
        if op in ("AND", "OR"):
            # both sides evaluate as masks over the whole batch; the
            # row-mode short-circuit only ever skipped work, never
            # changed the outcome, so the combined mask is identical
            a = self._as_mask(self.eval(node.inputs[0]))
            b = self._as_mask(self.eval(node.inputs[1]))
            return (a & b) if op == "AND" else (a | b)
        left = self.eval(node.inputs[0])
        right = self.eval(node.inputs[1])
        if op == "CONTAINS":
            return self._contains(left, right)
        if op == "IN":
            return self._isin(left, right)
        if op in ("+", "-", "*", "/", "%"):
            return self._arith_cols(op, left, right)
        return self._compare_cols(op, left, right)

    def _binary_operands(self, left, right):
        """Aligned ufunc operands for two columns, or None when a dense
        kernel cannot represent them (object lists, strings...)."""
        if isinstance(left, _Const) and isinstance(right, _Const):
            return None
        for col in (left, right):
            if not (_is_dense(col) or isinstance(col, _Const)):
                return None
        rank = 0
        for col in (left, right):
            if isinstance(col, _Const):
                rank = max(rank, np.ndim(col.value))
            else:
                rank = max(rank, col.ndim - 1)
        out = []
        for col in (left, right):
            if isinstance(col, _Const):
                out.append(col.value)
            else:
                out.append(_align_trailing(col, rank))
        return out

    def _rowwise_mask(self, res: np.ndarray) -> np.ndarray:
        """Reduce an elementwise comparison result to one bool per row
        (all elements true; empty rows are false, as in row mode)."""
        flat = res.reshape(self.n, -1)
        if flat.shape[1] == 0:
            return np.zeros(self.n, dtype=bool)
        return flat.all(axis=1)

    def _compare_cols(self, op: str, left, right):
        if isinstance(left, _Const) and isinstance(right, _Const):
            return _Const(_compare(op, left.value, right.value))
        operands = self._binary_operands(left, right)
        if operands is not None:
            try:
                res = _CMP_UFUNC[op](operands[0], operands[1])
                return self._rowwise_mask(np.asarray(res))
            except (TypeError, ValueError):
                pass  # mixed types / unbroadcastable: row fallback
        lrows, rrows = self._tolist(left), self._tolist(right)
        return np.fromiter(
            (_compare(op, a, b) for a, b in zip(lrows, rrows)),
            dtype=bool,
            count=self.n,
        )

    def _arith_cols(self, op: str, left, right):
        if isinstance(left, _Const) and isinstance(right, _Const):
            return _Const(_arith(op, left.value, right.value))
        operands = self._binary_operands(left, right)
        if operands is not None:
            try:
                if op in _NP_ARITH:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        return _NP_ARITH[op](operands[0], operands[1])
                return _PY_ARITH[op](operands[0], operands[1])
            except (TypeError, ValueError):
                pass
        lrows, rrows = self._tolist(left), self._tolist(right)
        return _pack([_arith(op, a, b) for a, b in zip(lrows, rrows)])

    def _contains(self, left, right):
        if (
            _is_dense(left)
            and left.dtype.kind in "biuf"
            and isinstance(right, _Const)
        ):
            rv = np.asarray(right.value)
            if rv.dtype.kind in "biuf":
                flat = left.reshape(self.n, -1)
                if flat.shape[1] == 0:
                    return np.zeros(self.n, dtype=bool)
                # "cell contains any of rv" == intersection non-empty
                return np.isin(flat, rv).any(axis=1)
        lrows, rrows = self._tolist(left), self._tolist(right)
        out = np.empty(self.n, dtype=bool)
        for i, (a, b) in enumerate(zip(lrows, rrows)):
            if isinstance(a, str):
                out[i] = str(b) in a
            else:
                out[i] = bool(np.isin(b, np.asarray(a)).any())
        return out

    def _isin(self, left, right):
        if (
            _is_dense(left)
            and left.dtype.kind in "biuf"
            and isinstance(right, _Const)
        ):
            rv = np.asarray(right.value)
            if rv.dtype.kind in "biuf":
                flat = left.reshape(self.n, -1)
                if flat.shape[1] == 0:
                    return np.zeros(self.n, dtype=bool)
                return np.isin(flat, rv).any(axis=1)
        lrows, rrows = self._tolist(left), self._tolist(right)
        out = np.empty(self.n, dtype=bool)
        for i, (a, b) in enumerate(zip(lrows, rrows)):
            out[i] = bool(np.isin(a, np.asarray(b)).any())
        return out


# ---------------------------------------------------------------------------
# predicate pushdown: WHERE tree -> per-column value intervals
# ---------------------------------------------------------------------------
#
# An interval is ``(lo, hi, lo_open, hi_open)`` with ``None`` = unbounded.
# Every interval emitted is a *necessary* condition on the column's stored
# elements for the WHERE predicate to hold on a row, so a chunk whose
# recorded [min, max] misses one interval cannot contain a matching row —
# exactly the test :func:`repro.core.read_plan.prunable` applies.  The
# reductions the row semantics use keep this sound for array cells:
# ``col > c`` requires *all* elements > c (so the chunk max must exceed
# c), ``col == c`` requires every element equal to c (so c must lie
# inside the chunk range), CONTAINS/IN require a shared element.

Interval = Tuple[Optional[float], Optional[float], bool, bool]

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


def _bounds_target(node: Node) -> Optional[str]:
    """Tensor whose stored elements the node reads, or None.

    Subscripts keep the target: a subscripted cell's elements are a
    subset of the chunk's elements, so element intervals stay necessary.
    """
    if isinstance(node, ShapeNode):
        return node.shape_tensor
    if isinstance(node, ColumnNode):
        return node.tensor
    if isinstance(node, SubscriptNode):
        return _bounds_target(node.inputs[0])
    return None


def _const_scalar(node: Node):
    if not isinstance(node, ConstNode):
        return None
    v = node.value
    if isinstance(v, _NUMERIC_SCALARS):
        return v.item() if isinstance(v, np.generic) else v
    return None


def _const_values(node: Node) -> Optional[np.ndarray]:
    """Numeric constant as a flat array (scalars included), else None."""
    if not isinstance(node, ConstNode):
        return None
    v = node.value
    if isinstance(v, _NUMERIC_SCALARS):
        return np.asarray([v])
    if isinstance(v, np.ndarray) and v.dtype.kind in "biuf" and v.size:
        return np.ravel(v)
    return None


def _interval_for(op: str, c) -> Optional[Interval]:
    if op == ">":
        return (c, None, True, False)
    if op == ">=":
        return (c, None, False, False)
    if op == "<":
        return (None, c, False, True)
    if op == "<=":
        return (None, c, False, False)
    if op == "==":
        return (c, c, False, False)
    return None


def _box(intervals: List[Interval]) -> Interval:
    """Intersection of intervals on one column (tightest single box)."""
    lo, hi, lo_open, hi_open = None, None, False, False
    for l, h, lop, hop in intervals:
        if l is not None and (lo is None or l > lo or (l == lo and lop)):
            lo, lo_open = l, lop
        if h is not None and (hi is None or h < hi or (h == hi and hop)):
            hi, hi_open = h, hop
    return (lo, hi, lo_open, hi_open)


def _hull(a: Interval, b: Interval) -> Interval:
    """Union hull of two boxes (for OR: either side may hold)."""
    lo1, hi1, lo1o, hi1o = a
    lo2, hi2, lo2o, hi2o = b
    if lo1 is None or lo2 is None:
        lo, loo = None, False
    elif lo1 < lo2:
        lo, loo = lo1, lo1o
    elif lo2 < lo1:
        lo, loo = lo2, lo2o
    else:
        lo, loo = lo1, lo1o and lo2o
    if hi1 is None or hi2 is None:
        hi, hio = None, False
    elif hi1 > hi2:
        hi, hio = hi1, hi1o
    elif hi2 > hi1:
        hi, hio = hi2, hi2o
    else:
        hi, hio = hi1, hi1o and hi2o
    return (lo, hi, loo, hio)


def column_bounds(node: Optional[Node]) -> Dict[str, List[Interval]]:
    """Per-tensor necessary-condition intervals implied by a WHERE tree.

    AND collects constraints from both sides; OR keeps only columns
    constrained on *both* sides, widened to the union hull; anything the
    analysis cannot see through (NOT, ``!=``, functions, arithmetic)
    simply contributes no constraint — pruning stays sound because every
    emitted interval is necessary for the full predicate.
    """
    if node is None or not isinstance(node, BinaryNode):
        return {}
    op = node.op
    left, right = node.inputs
    if op == "AND":
        merged = {t: list(ivs) for t, ivs in column_bounds(left).items()}
        for t, ivs in column_bounds(right).items():
            merged.setdefault(t, []).extend(ivs)
        return merged
    if op == "OR":
        lb, rb = column_bounds(left), column_bounds(right)
        out: Dict[str, List[Interval]] = {}
        for t in set(lb) & set(rb):
            hull = _hull(_box(lb[t]), _box(rb[t]))
            if hull[0] is not None or hull[1] is not None:
                out[t] = [hull]
        return out
    if op in ("<", "<=", ">", ">=", "=="):
        target, c = _bounds_target(left), _const_scalar(right)
        if target is None or c is None:
            target, c = _bounds_target(right), _const_scalar(left)
            op = _FLIP[op]
        if target is not None and c is not None:
            iv = _interval_for(op, c)
            if iv is not None:
                return {target: [iv]}
        return {}
    if op in ("IN", "CONTAINS"):
        target = _bounds_target(left)
        values = _const_values(right)
        if target is not None and values is not None:
            return {
                target: [
                    (values.min().item(), values.max().item(), False, False)
                ]
            }
        return {}
    return {}


# ---------------------------------------------------------------------------
# streaming GROUP BY
# ---------------------------------------------------------------------------


def _cell(col, i: int):
    """Row *i* of a column in any of its three representations."""
    return col.value if isinstance(col, _Const) else col[i]


def _radix_key(sub: np.ndarray) -> np.ndarray:
    """Group sub-key *sub* as numpy sorts it fastest: a wider-than-16-bit
    integer column whose values span less than 2**8 (2**16) re-based at
    its minimum into ``uint8`` (``uint16``), which ``lexsort`` radix-sorts
    — an order-preserving one-to-one map, so the stable sort puts the
    rows in the same order and equal keys stay equal — and a bool column
    viewed as ``uint8``.  Any other column (float, a wide span, already
    8 or 16 bits) is returned as it is."""
    if sub.dtype == np.bool_:
        return sub.view(np.uint8)
    if sub.dtype.kind not in "iu" or sub.dtype.itemsize <= 2 or not len(sub):
        return sub
    lo, hi = int(sub.min()), int(sub.max())  # Python ints: no overflow
    for narrow in (np.uint8, np.uint16):
        if hi - lo <= np.iinfo(narrow).max:
            # every value lies in [lo, hi]: the difference fits sub's dtype
            return (sub - sub.dtype.type(lo)).astype(narrow)
    return sub


def _group_segments(key_cols: List, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The *n* rows of a batch ordered by group, and where each group
    starts: ``(order, starts)`` with rows ``order[starts[g]:starts[g+1]]``
    the members of group *g* in source order, ``order[starts[g]]`` its
    first occurrence.

    Two rows share a group when their keys are elementwise ``==`` — what
    comparing the ``_group_key`` tuples decides on fresh values: a NaN
    equals nothing, itself included, so every NaN row is a group of its
    own, and ``-0.0 == 0.0`` share one.  A dense column contributes its
    element columns as they are (int64 stays int64: no float round trip,
    no stacking of differently-typed keys); a ragged / text / json column
    is factorised per row through a dict of ``_group_key`` tuples into
    one int code column.  A dense integer or bool element column is first
    narrowed (:func:`_radix_key`).  One stable ``lexsort`` over all of
    them orders the batch; a group boundary is wherever any of them
    changes.
    """
    subkeys = []
    for col in key_cols:
        if isinstance(col, _Const):
            continue  # one value for every row splits nothing
        if _is_dense(col):
            subkeys.extend(map(_radix_key, col.reshape(n, -1).T))
        else:
            codes: Dict[object, int] = {}
            subkeys.append(np.fromiter(
                (codes.setdefault(_group_key(v), len(codes)) for v in col),
                dtype=np.intp, count=n,
            ))
    if not subkeys:
        return np.arange(n), np.zeros(1, dtype=np.intp)
    order = np.lexsort(subkeys)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for sub in subkeys:
        ordered = sub[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new)


class GroupAccumulator:
    """Streaming GROUP BY state: one segmented reduction per scan batch.

    A batch is ordered by group once (:func:`_group_segments`) and every
    aggregate's input column is cut at the group boundaries, so Python
    runs per *group per batch*, never per row — the key tuple is built
    by ``_group_key`` on each group's first row only.  What a batch
    contributes per aggregate: ``COUNT`` the segment length, ``FIRST``
    the first row's value, the scalarised five (:attr:`_FINALIZE`) a
    slice of the per-row scalars :meth:`BatchEvaluator.reduced` computed
    with one numpy reduction, any other registered aggregate its raw
    per-row values.  :meth:`finalize` reduces the concatenated scalars
    with the numpy reducer — the same array, in the same order and
    dtype, the registered aggregate builds from the row-at-a-time path's
    list, so results are bit-identical: MEAN is the mean of per-row
    means, SUM the sum of per-row sums, STD the spread of per-row means.
    """

    #: aggregates fed per-row scalars -> the reduction of a group's scalars
    _FINALIZE = {
        "MEAN": np.mean, "SUM": np.sum, "MIN": np.min, "MAX": np.max,
        # the registered STD takes the spread of *float64* row means
        "STD": lambda means: np.std(means.astype(np.float64)),
    }

    def __init__(self, agg_projections):
        #: (output name, aggregate name, node-or-None) per projection
        self.aggs = list(agg_projections)
        #: what each aggregate's partial is: a row count, the first row's
        #: value, slices of per-row scalars, or the raw row values
        self._kinds = [
            "count" if node is None or agg == "COUNT"
            else "first" if agg == "FIRST"
            else "scalars" if agg in self._FINALIZE
            else "raw"
            for _name, agg, node in self.aggs
        ]
        #: key tuple -> one partial per aggregate, in first-seen order
        self._state: Dict[tuple, List] = {}

    def _batch_inputs(self, ev: BatchEvaluator, order: np.ndarray) -> List:
        """Per aggregate, the batch column its partials are cut from;
        the per-row scalars already in group order."""
        out = []
        for kind, (_name, agg, node) in zip(self._kinds, self.aggs):
            if kind == "count":
                out.append(None)
            elif kind == "first":
                out.append(ev.eval(node))
            elif kind == "scalars":
                out.append(np.asarray(ev.reduced(node, agg))[order])
            else:
                out.append(ev.values(node))
        return out

    def add_batch(self, ev: BatchEvaluator, key_nodes: List[Node]) -> None:
        key_cols = [ev.eval(node) for node in key_nodes]
        order, starts = _group_segments(key_cols, ev.n)
        inputs = self._batch_inputs(ev, order)
        firsts = order[starts].tolist()
        bounds = starts.tolist() + [ev.n]
        # groups enter the state in first-occurrence order, the order the
        # row-at-a-time dict fills in (it breaks ties of the output sort)
        for g in np.argsort(firsts).tolist():
            first, lo, hi = firsts[g], bounds[g], bounds[g + 1]
            key = tuple(_group_key(_cell(col, first)) for col in key_cols)
            state = self._state.get(key)
            if state is None:
                state = self._state[key] = [
                    0 if kind == "count"
                    else _cell(vals, first) if kind == "first"
                    else []
                    for kind, vals in zip(self._kinds, inputs)
                ]
            for j, (kind, vals) in enumerate(zip(self._kinds, inputs)):
                if kind == "count":
                    state[j] += hi - lo
                elif kind == "scalars":
                    state[j].append(vals[lo:hi])
                elif kind == "raw":
                    state[j].extend(vals[i] for i in order[lo:hi].tolist())

    def finalize(self) -> List[Tuple[tuple, Dict[str, object]]]:
        """Group rows as ``(key, {output name: value})``, ordered the
        same way the row-at-a-time path orders them."""
        out = []
        for key in sorted(
            self._state, key=lambda k: tuple(str(x) for x in k)
        ):
            values: Dict[str, object] = {}
            for part, kind, (name, agg, _node) in zip(
                self._state[key], self._kinds, self.aggs
            ):
                if kind == "scalars":
                    part = float(self._FINALIZE[agg](np.concatenate(part)))
                elif kind == "raw":
                    part = get_agg_function(agg)(part)
                values[name] = part
            out.append((key, values))
        return out
