"""The branching version-control tree of a Deep Lake dataset (§4.2).

All versions live in the same storage; ``version_control_info.json`` at the
dataset root records the commit DAG and branch heads.  Each branch has a
*head* commit that is mutable (uncommitted working state); ``commit``
seals the head and opens a fresh child head.  Reads at any commit walk the
parent chain ("the version control tree is traversed starting from the
current commit, heading towards the first commit").
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.exceptions import (
    BranchExistsError,
    CommitNotFoundError,
    VersionControlError,
)
from repro.storage.provider import StorageProvider
from repro.util import keys as K
from repro.util.ids import new_commit_id
from repro.util.json_util import json_dumps, json_loads


class CommitNode:
    """One node of the commit DAG."""

    __slots__ = (
        "commit_id", "branch", "parent", "children", "message",
        "commit_time", "is_head", "merge_parent",
    )

    def __init__(
        self,
        commit_id: str,
        branch: str,
        parent: Optional[str],
        message: str = "",
        commit_time: Optional[float] = None,
        is_head: bool = True,
        merge_parent: Optional[str] = None,
    ):
        self.commit_id = commit_id
        self.branch = branch
        self.parent = parent
        self.children: List[str] = []
        self.message = message
        self.commit_time = commit_time
        self.is_head = is_head
        self.merge_parent = merge_parent

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "parent": self.parent,
            "children": self.children,
            "message": self.message,
            "commit_time": self.commit_time,
            "is_head": self.is_head,
            "merge_parent": self.merge_parent,
        }

    @classmethod
    def from_json(cls, commit_id: str, obj: dict) -> "CommitNode":
        node = cls(
            commit_id,
            obj["branch"],
            obj.get("parent"),
            obj.get("message", ""),
            obj.get("commit_time"),
            obj.get("is_head", False),
            obj.get("merge_parent"),
        )
        node.children = list(obj.get("children", []))
        return node


class VersionTree:
    """In-memory commit DAG, serialised to version_control_info.json."""

    def __init__(self):
        self.commits: Dict[str, CommitNode] = {}
        self.branches: Dict[str, str] = {}  # branch -> head commit id
        #: the serialisation storage holds, as last loaded or saved by
        #: this object (``None``: the key was absent) — what makes
        #: :meth:`save` a no-op on an unchanged tree
        self.stored: Optional[bytes] = None

    # ------------------------------------------------------------------ #

    @classmethod
    def create_default(cls) -> "VersionTree":
        tree = cls()
        root = CommitNode(K.FIRST_COMMIT_ID, "main", None)
        tree.commits[root.commit_id] = root
        tree.branches["main"] = root.commit_id
        return tree

    @classmethod
    def load(cls, storage: StorageProvider) -> "VersionTree":
        try:
            data = storage[K.version_control_info_key()]
        except KeyError:
            return cls.create_default()
        obj = json_loads(data)
        tree = cls()
        tree.stored = bytes(data)
        tree.branches = dict(obj.get("branches", {}))
        for cid, node in obj.get("commits", {}).items():
            tree.commits[cid] = CommitNode.from_json(cid, node)
        return tree

    def save(self, storage: StorageProvider) -> None:
        """Write the tree — the one PUT that makes a new commit or branch
        reachable — unless it serialises to the bytes this object last
        loaded or saved: an unchanged tree costs no round trip, and a
        handle that changed nothing never overwrites another handle's
        commit with its stale copy.  ``stored`` moves only after the PUT
        returned, so a failed save is retried by the next one."""
        data = json_dumps(
            {
                "branches": self.branches,
                "commits": {c: n.to_json() for c, n in self.commits.items()},
            }
        )
        if data != self.stored:
            storage[K.version_control_info_key()] = data
            self.stored = data

    # ------------------------------------------------------------------ #

    def node(self, commit_id: str) -> CommitNode:
        try:
            return self.commits[commit_id]
        except KeyError:
            raise CommitNotFoundError(commit_id) from None

    def resolve(self, address: str) -> CommitNode:
        """Branch name or commit id -> node."""
        if address in self.branches:
            return self.node(self.branches[address])
        if address in self.commits:
            return self.node(address)
        raise CommitNotFoundError(address)

    def chain(self, commit_id: str) -> List[str]:
        """[commit_id, parent, ..., first] — the read path of §4.2."""
        out = []
        cur: Optional[str] = commit_id
        guard = 0
        while cur is not None:
            out.append(cur)
            cur = self.node(cur).parent
            guard += 1
            if guard > len(self.commits) + 1:
                raise VersionControlError("cycle detected in commit tree")
        return out

    def seal(self, commit_id: str, message: str) -> None:
        node = self.node(commit_id)
        node.message = message
        node.commit_time = time.time()
        node.is_head = False

    def add_child(self, parent_id: str, branch: str) -> CommitNode:
        child = CommitNode(new_commit_id(), branch, parent_id)
        self.commits[child.commit_id] = child
        self.node(parent_id).children.append(child.commit_id)
        self.branches[branch] = child.commit_id
        return child

    def create_branch(self, name: str, from_commit: str) -> CommitNode:
        if name in self.branches:
            raise BranchExistsError(name)
        return self.add_child(from_commit, name)

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        ancestors = set(self.chain(a))
        for cid in self.chain(b):
            if cid in ancestors:
                return cid
        raise VersionControlError(
            f"no common ancestor between {a!r} and {b!r}"
        )

    def path_to(self, descendant: str, ancestor: str) -> List[str]:
        """Commits from *descendant* down to (excluding) *ancestor*."""
        out = []
        for cid in self.chain(descendant):
            if cid == ancestor:
                return out
            out.append(cid)
        raise VersionControlError(
            f"{ancestor!r} is not an ancestor of {descendant!r}"
        )

    def log(self, commit_id: str) -> List[CommitNode]:
        """Sealed commits reachable from *commit_id*, newest first."""
        return [
            self.node(cid)
            for cid in self.chain(commit_id)
            if not self.node(cid).is_head
        ]
