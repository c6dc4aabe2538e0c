"""Version control: commit tree, checkout, time travel, diff, merge, locks."""

import numpy as np
import pytest

import repro
from repro.exceptions import (
    BranchExistsError,
    CheckoutError,
    CommitNotFoundError,
    LockError,
    MergeConflictError,
    ReadOnlyDatasetError,
)
from repro.sim import SimClock
from repro.storage import MemoryProvider, SimulatedObjectStore
from repro.version_control import BranchLock
from repro.version_control.tree import VersionTree


@pytest.fixture
def vds(rng):
    ds = repro.empty(MemoryProvider(), overwrite=True)
    ds.create_tensor("x", dtype="int64")
    ds.create_tensor("t", htype="text")
    for i in range(6):
        ds.append({"x": np.array([i], dtype=np.int64), "t": f"row {i}"})
    return ds


class TestVersionTree:
    def test_default_tree(self):
        tree = VersionTree.create_default()
        assert tree.branches == {"main": "firstcommit"}
        assert tree.chain("firstcommit") == ["firstcommit"]

    def test_save_load_roundtrip(self):
        storage = MemoryProvider()
        tree = VersionTree.create_default()
        tree.seal("firstcommit", "msg")
        child = tree.add_child("firstcommit", "main")
        tree.save(storage)
        out = VersionTree.load(storage)
        assert out.branches["main"] == child.commit_id
        assert out.node("firstcommit").message == "msg"
        assert out.chain(child.commit_id) == [child.commit_id, "firstcommit"]

    def test_resolve(self):
        tree = VersionTree.create_default()
        assert tree.resolve("main").commit_id == "firstcommit"
        with pytest.raises(CommitNotFoundError):
            tree.resolve("nope")

    def test_duplicate_branch(self):
        tree = VersionTree.create_default()
        tree.seal("firstcommit", "")
        tree.create_branch("dev", "firstcommit")
        with pytest.raises(BranchExistsError):
            tree.create_branch("dev", "firstcommit")

    def test_lca(self):
        tree = VersionTree.create_default()
        tree.seal("firstcommit", "")
        a = tree.add_child("firstcommit", "main")
        tree.seal(a.commit_id, "")
        b = tree.add_child(a.commit_id, "main")
        c = tree.create_branch("dev", a.commit_id)
        assert tree.lowest_common_ancestor(
            b.commit_id, c.commit_id
        ) == a.commit_id

    def test_path_to(self):
        tree = VersionTree.create_default()
        tree.seal("firstcommit", "")
        a = tree.add_child("firstcommit", "main")
        assert tree.path_to(a.commit_id, "firstcommit") == [a.commit_id]


class TestCommitCheckout:
    def test_commit_returns_sealed_id(self, vds):
        cid = vds.commit("first six")
        assert cid != vds.commit_id  # head moved to a fresh child
        assert vds._tree.node(cid).message == "first six"
        assert not vds._tree.node(cid).is_head

    def test_data_written_after_commit_invisible_at_old_commit(self, vds):
        cid = vds.commit("six rows")
        vds.append({"x": np.array([99], dtype=np.int64), "t": "new"})
        assert len(vds) == 7
        old = vds._at_commit(cid)
        assert len(old) == 6

    def test_sealed_commit_is_read_only(self, vds):
        cid = vds.commit("v1")
        old = vds._at_commit(cid)
        with pytest.raises(ReadOnlyDatasetError):
            old.append({"x": np.zeros(1, dtype=np.int64), "t": "no"})

    def test_checkout_with_uncommitted_changes_blocked(self, vds):
        cid = vds.commit("v1")
        vds.checkout("dev", create=True)
        vds.append({"x": np.array([1], dtype=np.int64), "t": "dirty"})
        with pytest.raises(CheckoutError):
            vds.checkout("main")

    def test_branch_isolation(self, vds):
        vds.commit("base")
        vds.checkout("exp", create=True)
        vds.append({"x": np.array([7], dtype=np.int64), "t": "exp only"})
        vds.commit("exp work")
        vds.checkout("main")
        assert len(vds) == 6
        vds.checkout("exp")
        assert len(vds) == 7

    def test_log_order(self, vds):
        vds.commit("one")
        vds.append({"x": np.array([9], dtype=np.int64), "t": "x"})
        vds.commit("two")
        messages = [n.message for n in vds.log()]
        assert messages == ["two", "one"]

    def test_branches_listing(self, vds):
        vds.commit("c")
        vds.checkout("dev", create=True)
        assert set(vds.branches) >= {"main", "dev"}

    def test_has_changes_lifecycle(self, vds):
        assert vds.has_changes
        vds.commit("flush")
        assert not vds.has_changes
        vds.append({"x": np.array([1], dtype=np.int64), "t": "y"})
        assert vds.has_changes

    def test_reopen_preserves_branch_state(self, rng):
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.append(np.array([1], dtype=np.int64))
        ds.commit("v1")
        ds.checkout("dev", create=True)
        ds.x.append(np.array([2], dtype=np.int64))
        ds.commit("dev v1")
        ds.flush()
        out = repro.load(storage)
        assert out.branch_name == "main"  # default branch on open
        assert len(out.x) == 1
        out.checkout("dev")
        assert len(out.x) == 2

    def test_copy_on_write_chunk_extension(self, rng):
        """Appending after a commit must not mutate the sealed version."""
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64", create_shape_tensor=False,
                         create_id_tensor=False)
        ds.x.extend([np.array([i], dtype=np.int64) for i in range(3)])
        cid = ds.commit("three")
        # extends the last (ancestor-owned) chunk -> COW into new commit
        ds.x.extend([np.array([i], dtype=np.int64) for i in (3, 4)])
        ds.flush()
        assert [int(ds.x[i].numpy()[0]) for i in range(5)] == [0, 1, 2, 3, 4]
        old = ds._at_commit(cid)
        assert len(old.x) == 3
        assert [int(old.x[i].numpy()[0]) for i in range(3)] == [0, 1, 2]

    def test_update_cow_preserves_history(self, vds):
        cid = vds.commit("v1")
        vds.x[2] = np.array([222], dtype=np.int64)
        assert int(vds.x[2].numpy()[0]) == 222
        assert int(vds._at_commit(cid).x[2].numpy()[0]) == 2


class TestStateAcrossCommits:
    """A commit's chunk sets stay in memory across ``commit`` / a new
    branch, and a reader takes each state file from the nearest commit of
    the chain that wrote it."""

    def test_first_write_after_commit_or_branch_issues_no_get(self, spent):
        backing = MemoryProvider("vc")
        store = SimulatedObjectStore("s3", clock=SimClock(), backing=backing)
        ds = repro.empty(store, overwrite=True)
        names = ["a", "b", "c"]
        for name in names:
            ds.create_tensor(name, dtype="int64")
        model = []

        def extend():
            rows = [np.arange(4, dtype=np.int64) + len(model)] * 16
            with spent(store) as reqs:
                ds.extend({name: rows for name in names})
            model.extend(rows)
            return {op: n for op, n in reqs.items() if "download" in op}

        extend()
        ds.commit("one")
        assert extend() == {}
        ds.checkout("from-head", create=True)  # seals the head, then forks
        assert extend() == {}
        sealed = ds.commit("three")
        ds.checkout(sealed)  # time travel reopens every engine
        ds.read_rows(range(len(model)), ds._all_tensor_names())
        ds.checkout("from-sealed", create=True)
        assert extend() == {}
        ds.flush()

        reloaded = repro.load(backing)
        reloaded.checkout("from-sealed")
        got = reloaded.read_rows(range(len(model)), names)
        for name in names:
            assert all(map(np.array_equal, got[name], model))

    def test_untouched_tensor_reads_from_the_commit_that_wrote_it(self):
        storage = MemoryProvider("vc")
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("a", dtype="int64")
        ds.create_tensor("b", dtype="int64")
        a = [np.array([i], dtype=np.int64) for i in range(8)]
        b = [np.array([10 * i], dtype=np.int64) for i in range(8)]
        ds.extend({"a": a, "b": b})
        ds.commit("one")

        ds = repro.load(storage)  # commits 2-4 never open ``b``
        ds.a.extend(a)
        two = ds.commit("two")
        ds.a[3] = np.array([333], dtype=np.int64)
        three = ds.commit("three")
        ds.a.extend(a)
        four = ds.commit("four")
        assert "b" not in ds._engines
        for commit in (three, four, ds.commit_id):
            assert storage.list_prefix(f"versions/{commit}/a/")
            assert not storage.list_prefix(f"versions/{commit}/b/")

        head = repro.load(storage)
        model = a + a + a
        model[3] = np.array([333], dtype=np.int64)
        assert all(map(np.array_equal, head.a.numpy(aslist=True), model))
        assert all(map(np.array_equal, head.b.numpy(aslist=True), b))
        head.checkout(two)  # nearest commit wins: the update is not there
        assert all(map(np.array_equal, head.a.numpy(aslist=True), a + a))
        assert all(map(np.array_equal, head.b.numpy(aslist=True), b))


class TestDiff:
    def test_uncommitted_diff(self, vds):
        d = vds.diff()
        assert d["ours"]["x"]["num_added"] == 6
        assert d["theirs"] is None

    def test_cross_branch_diff(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.x[1] = np.array([111], dtype=np.int64)
        vds.append({"x": np.array([6], dtype=np.int64), "t": "six"})
        vds.commit("dev work")
        vds.checkout("main")
        d = vds.diff("dev")
        assert d["theirs"]["x"]["num_added"] == 1
        assert d["theirs"]["x"]["updated"] == [1]
        assert d["ours"]["x"]["num_added"] == 0


class TestMerge:
    def test_merge_appends_and_updates(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.x[0] = np.array([100], dtype=np.int64)
        vds.append({"x": np.array([6], dtype=np.int64), "t": "six"})
        vds.commit("dev")
        vds.checkout("main")
        vds.merge("dev")
        assert len(vds) == 7
        assert int(vds.x[0].numpy()[0]) == 100
        assert vds.t[6].data() == "six"

    def test_merge_conflict_detection(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.x[0] = np.array([100], dtype=np.int64)
        vds.commit("dev")
        vds.checkout("main")
        vds.x[0] = np.array([200], dtype=np.int64)
        vds.commit("main change")
        with pytest.raises(MergeConflictError):
            vds.merge("dev")

    def test_merge_policy_ours_theirs(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.x[0] = np.array([100], dtype=np.int64)
        vds.commit("dev")
        vds.checkout("main")
        vds.x[0] = np.array([200], dtype=np.int64)
        vds.commit("main change")
        vds.merge("dev", conflict_resolution="ours")
        assert int(vds.x[0].numpy()[0]) == 200
        vds.merge("dev", conflict_resolution="theirs")
        assert int(vds.x[0].numpy()[0]) == 100

    def test_merge_policy_callable(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.x[0] = np.array([100], dtype=np.int64)
        vds.commit("dev")
        vds.checkout("main")
        vds.x[0] = np.array([40], dtype=np.int64)
        vds.commit("main change")
        vds.merge("dev", conflict_resolution=lambda a, b: a + b)
        assert int(vds.x[0].numpy()[0]) == 140

    def test_merge_many_updates_and_resolves_match_model(self, vds):
        """Several plain updates, several conflicts settled by a callable
        and appended rows in one merge: each side's rows are read in one
        batch per tensor, the result is the row-by-row model."""
        model = [i for i in range(6)]
        vds.commit("base")
        vds.checkout("dev", create=True)
        for row in (0, 2, 3, 5):
            vds.x[row] = np.array([100 + row], dtype=np.int64)
        vds.append({"x": np.array([6], dtype=np.int64), "t": "six"})
        vds.append({"x": np.array([7], dtype=np.int64), "t": "seven"})
        vds.commit("dev")
        vds.checkout("main")
        for row in (2, 4, 5):
            vds.x[row] = np.array([1000 + row], dtype=np.int64)
        vds.commit("main change")
        seen = []

        def combine(ours, theirs):
            seen.append((int(ours[0]), int(theirs[0])))
            return ours + theirs

        vds.merge("dev", conflict_resolution=combine)
        model[0], model[3] = 100, 103          # only they changed
        model[4] = 1004                        # only we changed
        model[2], model[5] = 1002 + 102, 1005 + 105  # both: combined
        model += [6, 7]
        assert [int(v[0]) for v in vds.x.numpy(aslist=True)] == model
        assert seen == [(1002, 102), (1005, 105)]
        assert vds.t.data()[6:] == ["six", "seven"]
        for name in vds._all_tensor_names():
            assert vds._engine(name).num_samples == 8

    def test_merge_reads_follow_chunks_not_rows(self):
        """Cold simulated S3: merging a branch that added 256 rows issues
        the same single-key GETs as one that added 64 — the rows arrive
        in per-tensor batches — and both branches' rows end up in order."""

        def merge_cost(added):
            rng = np.random.default_rng(0)

            def images(n):
                return [
                    rng.integers(0, 255, (16, 16, 3), dtype=np.uint8)
                    for _ in range(n)
                ]

            backing = MemoryProvider("m")
            ds = repro.empty(backing, overwrite=True)
            ds.create_tensor("images", htype="image",
                             sample_compression="jpeg",
                             max_chunk_size=32 * 1024)
            ds.create_tensor("labels", htype="class_label",
                             chunk_compression="lz4")
            ds.extend({"images": images(32),
                       "labels": [np.int32(i) for i in range(32)]})
            ds.commit("base")
            ds.checkout("dev", create=True)
            ds.extend({"images": images(added),
                       "labels": [np.int32(1000 + i) for i in range(added)]})
            ds.commit("dev work")
            ds.checkout("main")
            ds.extend({"images": images(1), "labels": [np.int32(-7)]})
            ds.commit("main work")
            store = SimulatedObjectStore(
                "s3", clock=SimClock(), backing=backing
            )
            cold = repro.load(store)
            before = store.requests_by_op.get("download", 0)
            cold.merge("dev")
            labels = [int(v) for v in cold.labels.numpy()]
            assert labels == (
                list(range(32)) + [-7] + [1000 + i for i in range(added)]
            )
            assert len(cold.images) == len(labels)
            return store.requests_by_op["download"] - before

        assert merge_cost(64) == merge_cost(256)

    def test_merge_reads_state_in_batches(self, spent):
        """Cold simulated S3: a merge reads both sides' state files and
        commit diffs in batches — the same round trips at 64 and 256 added
        rows, the only single GET the target's version tree."""

        def merge_cost(added):
            backing = MemoryProvider("m")
            ds = repro.empty(backing, overwrite=True)
            ds.create_tensor("a", dtype="int64", max_chunk_size=512)
            ds.create_tensor("b", dtype="int64")
            base = [np.arange(4, dtype=np.int64)] * 32
            ds.extend({"a": base, "b": [np.int64(1)] * 32})
            ds.commit("base")
            ds.checkout("dev", create=True)
            theirs = [np.arange(4, dtype=np.int64) + 9] * added
            ds.extend({"a": theirs, "b": [np.int64(2)] * added})
            ds.commit("dev work")
            store = SimulatedObjectStore(
                "s3", clock=SimClock(), backing=backing
            )
            cold = repro.load(store)
            # our side read its rows before: appending resumes each
            # tensor's last chunk from the decoded cache, not storage
            cold.read_rows(range(32), cold._all_tensor_names())
            with spent(store) as reqs:
                cold.merge("dev")
            assert all(map(
                np.array_equal, cold.a.numpy(aslist=True), base + theirs
            ))
            assert [int(v) for v in cold.b.numpy()] == (
                [1] * 32 + [2] * added
            )
            return {op: n for op, n in reqs.items() if "download" in op}

        small, large = merge_cost(64), merge_cost(256)
        assert small == large
        assert small.get("download", 0) <= 2, small

    def test_merge_new_tensor_copied(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.create_tensor("extra", dtype="float32")
        for _ in range(len(vds.x)):
            vds.extra.append(np.ones(2, dtype=np.float32))
        vds.commit("dev adds tensor")
        vds.checkout("main")
        vds.merge("dev")
        assert "extra" in vds.tensors
        assert len(vds.extra) == 6

    def test_merge_records_merge_parent(self, vds):
        vds.commit("base")
        vds.checkout("dev", create=True)
        vds.append({"x": np.array([6], dtype=np.int64), "t": "s"})
        dev_commit = vds.commit("dev")
        vds.checkout("main")
        merged = vds.merge("dev")
        assert vds._tree.node(merged).merge_parent == dev_commit

    def test_merge_ancestor_is_noop(self, vds):
        base = vds.commit("base")
        vds.checkout("dev", create=True)
        result = vds.merge("main")
        assert result == vds.commit_id
        assert len(vds) == 6


class TestLocks:
    def test_acquire_release(self):
        storage = MemoryProvider()
        lock = BranchLock(storage, "main")
        lock.acquire()
        assert lock.acquired
        lock.release()
        assert "locks/main.lock" not in storage

    def test_contention(self):
        storage = MemoryProvider()
        lock1 = BranchLock(storage, "main")
        lock1.acquire()
        lock2 = BranchLock(storage, "main")
        with pytest.raises(LockError):
            lock2.acquire()

    def test_stale_lock_stolen(self):
        storage = MemoryProvider()
        lock1 = BranchLock(storage, "main", timeout_s=0.0)
        lock1.acquire()
        lock2 = BranchLock(storage, "main", timeout_s=0.0)
        lock2.acquire()  # stale -> stolen
        with pytest.raises(LockError):
            lock1.refresh()

    def test_refresh_keeps_ownership(self):
        storage = MemoryProvider()
        lock = BranchLock(storage, "main")
        lock.acquire()
        lock.refresh()
        assert lock.acquired

    def test_context_manager(self):
        storage = MemoryProvider()
        with BranchLock(storage, "dev") as lock:
            assert lock.acquired
        assert "locks/dev.lock" not in storage

    def test_per_branch_independence(self):
        storage = MemoryProvider()
        BranchLock(storage, "main").acquire()
        BranchLock(storage, "dev").acquire()  # different branch: fine
