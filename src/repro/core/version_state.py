"""Current version pointer shared by a dataset handle and its chunk engines.

The chunk engine only needs two things from version control: the commit it
writes into, and the chain of ancestor commits to search when reading
(§4.2: "the version control tree is traversed starting from the current
commit, heading towards the first commit").  This is the first; the
handle's ``CommitState.chain`` walks the version tree for the second.
"""

from __future__ import annotations

from repro.util.keys import FIRST_COMMIT_ID


class VersionState:
    """Mutable pointer to (commit, branch)."""

    def __init__(self, commit_id: str = FIRST_COMMIT_ID, branch: str = "main"):
        self.commit_id = commit_id
        self.branch = branch

    def __repr__(self) -> str:
        return (
            f"VersionState(commit={self.commit_id[:12]!r}, "
            f"branch={self.branch!r})"
        )
