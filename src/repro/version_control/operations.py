"""Commit / checkout / branch / diff / merge operations (§4.2).

These functions operate on a :class:`~repro.core.dataset.Dataset` through a
narrow internal surface (its engines, and its commit state,
:class:`~repro.core.commit_state.CommitState`, which seals, branches and
moves the handle), so the dataset class stays thin.  Semantics follow the
paper and the reference product:

- every branch has a mutable *head* commit; ``commit`` seals the head and
  opens a fresh child;
- ``checkout`` to a sealed commit yields a read-only dataset (time travel);
- ``merge`` matches rows across branches by their stored sample ids and
  resolves conflicting updates "according to the policy defined by the
  user".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.index import Index
from repro.core.meta import CommitDiff
from repro.core.read_plan import column_rows
from repro.core.tensor import Tensor
from repro.exceptions import CheckoutError, MergeConflictError

ConflictPolicy = Union[None, str, Callable]


def commit(ds, message: str = "") -> str:
    """Seal the current head as an immutable snapshot; returns its id
    (``CommitState.seal``: one batch, then the tree)."""
    return ds._commit_state.seal(message)


def checkout(ds, address: str, create: bool = False) -> str:
    """Move to a branch/commit; ``create=True`` forks a new branch — from
    a head, by sealing it (``CommitState.branch``)."""
    state = ds._commit_state
    if create:
        return state.branch(address)
    ds.flush()
    node = state.tree.resolve(address)
    at = state.version_state.commit_id
    if ds.has_changes and node.commit_id != at:
        # match the product: silently keep working state on its head; a
        # checkout away requires commit first when the head has changes
        raise CheckoutError(
            "dataset has uncommitted changes; commit() before checkout "
            f"(moving from {at[:12]} to {node.commit_id[:12]})"
        )
    state.checkout(node.commit_id)
    return node.commit_id


def log(ds) -> List:
    """Sealed commits reachable from the current version, newest first."""
    return ds._tree.log(ds.version_state.commit_id)


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def accumulate_changes(
    ds, head: str, ancestor: str, tensors: List[str]
) -> Dict[str, Dict]:
    """Union of per-tensor changes on the path head -> ancestor, read
    from the state *ds* loaded for its chain, which holds the path: *ds*
    is the dataset at *head*, or a descendant of it."""
    out: Dict[str, Dict] = {}
    path = ds._tree.path_to(head, ancestor)
    for tensor in tensors:
        added: List[Tuple[int, int]] = []
        updated: Set[int] = set()
        created = False
        files = dict(ds._commit_state.tensor_state(tensor))
        for cid in path:
            blob = files[cid].get("diff")
            if blob is None:
                continue
            diff = CommitDiff.from_json(blob)
            if diff.num_added:
                added.append(diff.added_range)
            updated.update(diff.updated)
            created = created or diff.created
        added.sort()
        out[tensor] = {
            "added_ranges": added,
            "num_added": sum(e - s for s, e in added),
            "updated": sorted(updated),
            "created": created,
        }
    return out


def diff(ds, target: Optional[str] = None) -> Dict:
    """Changes of the working head, or both sides vs the common ancestor."""
    vs = ds.version_state
    tensors = ds._all_tensor_names(include_hidden=False)
    if target is None:
        out = {}
        for name, engine in zip(tensors, ds._open_engines(tensors)):
            d = engine.commit_diff
            out[name] = {
                "added_ranges": [d.added_range] if d.num_added else [],
                "num_added": d.num_added,
                "updated": sorted(d.updated),
                "created": d.created,
            }
        return {"ours": out, "theirs": None, "lca": None}
    target_id = ds._tree.resolve(target).commit_id
    lca = ds._tree.lowest_common_ancestor(vs.commit_id, target_id)
    target_ds = ds._at_commit(target_id)
    return {
        "ours": accumulate_changes(ds, vs.commit_id, lca, tensors),
        "theirs": accumulate_changes(
            target_ds, target_id, lca,
            target_ds._all_tensor_names(include_hidden=False),
        ),
        "lca": lca,
    }


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def _all_rows(ds, tensor: str) -> Tensor:
    """*tensor* of *ds* over every row, whatever view *ds* is."""
    return Tensor(ds, tensor, Index())


def merge(
    ds,
    target: str,
    conflict_resolution: ConflictPolicy = None,
    commit_message: Optional[str] = None,
) -> str:
    """Three-way merge of *target* (branch or commit) into the current head.

    Rows are matched by sample id.  When both sides updated the same row
    since the common ancestor, ``conflict_resolution`` decides:
    ``"ours"`` keeps ours, ``"theirs"`` takes theirs, a callable
    ``fn(ours_value, theirs_value) -> value`` computes the result, and
    ``None`` raises :class:`MergeConflictError`.
    """
    ds._check_writable()
    ds.flush()
    tree = ds._tree
    vs = ds.version_state
    node = tree.resolve(target)
    target_id = node.commit_id
    if node.is_head and node.parent is not None:
        # merging a branch means merging its last *sealed* state — the
        # mutable head is an empty working node
        target_id = node.parent
    lca = tree.lowest_common_ancestor(vs.commit_id, target_id)
    if lca == target_id:
        return vs.commit_id  # target already merged

    target_ds = ds._at_commit(target_id)
    # rows are matched through the hidden id tensors and applied to every
    # companion: each side opens all its tensors in one batch
    for side in (ds, target_ds):
        side._open_engines(side._all_tensor_names())
    theirs_tensors = target_ds._all_tensor_names(include_hidden=False)
    theirs_changes = accumulate_changes(
        target_ds, target_id, lca, theirs_tensors
    )
    ours_changes = accumulate_changes(
        ds, vs.commit_id, lca, ds._all_tensor_names(include_hidden=False)
    )

    conflicts = []
    # what to apply, per tensor of theirs: rows only they have (their
    # index, sample id) and rows they updated (their index, our index,
    # whether the policy callable combines both sides)
    appends: Dict[str, List[Tuple[int, int]]] = {}
    updates: Dict[str, List[Tuple[int, int, bool]]] = {}
    ours_tensors = ds._all_tensor_names(include_hidden=False)
    for tensor in theirs_tensors:
        if tensor not in ours_tensors:
            continue  # created on their side: copied whole below
        change = theirs_changes[tensor]
        ours_ids = _all_rows(ds, tensor).sample_ids()
        theirs_ids = _all_rows(target_ds, tensor).sample_ids()
        if ours_ids is None or theirs_ids is None:
            ours_ids = list(range(ds._engine(tensor).num_samples))
            theirs_ids = list(range(target_ds._engine(tensor).num_samples))
        ours_index = {sid: i for i, sid in enumerate(ours_ids)}
        ours_updated_ids = {
            ours_ids[i]
            for i in ours_changes.get(tensor, {}).get("updated", [])
            if i < len(ours_ids)
        }
        # new rows on their side
        appends[tensor] = [
            (idx, theirs_ids[idx])
            for start, end in change["added_ranges"]
            for idx in range(start, min(end, len(theirs_ids)))
            if theirs_ids[idx] not in ours_index
        ]
        # their updates
        updates[tensor] = []
        for idx in change["updated"]:
            if idx >= len(theirs_ids):
                continue
            sid = theirs_ids[idx]
            if sid not in ours_index:
                continue
            ours_idx = ours_index[sid]
            resolve = False
            if sid in ours_updated_ids:
                if conflict_resolution is None:
                    conflicts.append((tensor, sid, ours_idx, idx))
                    continue
                if conflict_resolution == "ours":
                    continue
                resolve = conflict_resolution != "theirs"
            updates[tensor].append((idx, ours_idx, resolve))

    if conflicts:
        raise MergeConflictError(conflicts)

    for tensor in theirs_tensors:
        theirs = target_ds._engine(tensor)
        if tensor not in ours_tensors:
            ds._create_tensor_from_meta(tensor, theirs.meta)
            ds._extend_from(
                tensor, theirs, range(theirs.num_samples),
                _all_rows(target_ds, tensor).sample_ids(),
            )
            continue
        if appends[tensor]:
            rows, ids = zip(*appends[tensor])
            ds._extend_from(tensor, theirs, rows, ids)
        edits = updates[tensor]
        if edits:
            # each side's rows in one batched read, applied in one update
            theirs_values = column_rows(theirs.read([e[0] for e in edits]))
            contested = [ours for _idx, ours, resolve in edits if resolve]
            ours_values = dict(zip(
                contested, column_rows(ds._engine(tensor).read(contested))
            ))
            ds._update_with_sync(tensor, [e[1] for e in edits], [
                conflict_resolution(ours_values[ours_idx], value)
                if resolve else value
                for (_idx, ours_idx, resolve), value in zip(edits,
                                                            theirs_values)
            ])

    # recorded by the seal, so the commit's one tree write never makes a
    # merge commit durable without it
    return ds._commit_state.seal(
        commit_message or f"merge {target!r} into {vs.branch!r}",
        merge_parent=target_id,
    )
