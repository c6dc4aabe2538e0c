"""Dataset-level behaviour: schema, groups, htypes, views, hidden tensors,
sparse assignment, copy/materialization, persistence."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.compression import compress_array, decompress_array
from repro.exceptions import (
    FormatError,
    GroupError,
    HtypeError,
    ReadOnlyDatasetError,
    SampleShapeError,
    TensorAlreadyExistsError,
    TensorDoesNotExistError,
)
from repro.sim import SimClock
from repro.storage import (
    LocalProvider,
    MemoryProvider,
    SimulatedObjectStore,
    storage_from_url,
)
from repro.util import keys as K


class TestSchema:
    def test_create_and_list_tensors(self, mem_ds):
        mem_ds.create_tensor("a", dtype="int32")
        mem_ds.create_tensor("b", htype="image", sample_compression="png")
        assert sorted(mem_ds.tensors) == ["a", "b"]

    def test_duplicate_tensor_rejected(self, mem_ds):
        mem_ds.create_tensor("a")
        with pytest.raises(TensorAlreadyExistsError):
            mem_ds.create_tensor("a")

    def test_reserved_names_rejected(self, mem_ds):
        for bad in ("versions", "queries", "locks", ""):
            with pytest.raises(FormatError):
                mem_ds.create_tensor(bad)

    def test_unknown_htype(self, mem_ds):
        with pytest.raises(HtypeError):
            mem_ds.create_tensor("x", htype="hologram")

    def test_both_compressions_rejected(self, mem_ds):
        with pytest.raises(FormatError):
            mem_ds.create_tensor("x", sample_compression="png",
                                 chunk_compression="lz4")

    def test_htype_defaults(self, mem_ds):
        img = mem_ds.create_tensor("img", htype="image")
        lbl = mem_ds.create_tensor("lbl", htype="class_label")
        assert img.sample_compression == "jpeg"
        assert lbl.chunk_compression == "lz4"

    def test_htype_meta_keys(self, mem_ds):
        t = mem_ds.create_tensor("lbl", htype="class_label",
                                 class_names=["a", "b"])
        assert t.info["class_names"] == ["a", "b"]
        with pytest.raises(HtypeError):
            mem_ds.create_tensor("x", htype="image", class_names=["a"])

    def test_htype_sample_validation(self, mem_ds):
        mem_ds.create_tensor("img", htype="image", sample_compression="png")
        with pytest.raises(SampleShapeError):
            mem_ds.img.append(np.zeros((4, 4, 3, 1), dtype=np.uint8))

    def test_bbox_last_dim_checked(self, mem_ds):
        mem_ds.create_tensor("boxes", htype="bbox")
        with pytest.raises(SampleShapeError):
            mem_ds.boxes.append(np.zeros((2, 3), dtype=np.float32))

    def test_delete_tensor_removes_companions(self, image_ds):
        assert "_images_shape" in image_ds._meta.tensors
        image_ds.delete_tensor("images")
        assert "images" not in image_ds._meta.tensors
        assert "_images_shape" not in image_ds._meta.tensors
        assert not [k for k in image_ds.storage if k.startswith("images/")]


class TestGroups:
    def test_nested_creation_and_access(self, mem_ds, rng):
        mem_ds.create_tensor("cams/front/rgb", htype="image",
                             sample_compression="png")
        assert "cams" in mem_ds.groups
        assert mem_ds["cams"].groups == ["front"]
        img = rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        mem_ds["cams"]["front"]["rgb"].append(img)
        assert np.array_equal(mem_ds.cams.front.rgb[0].numpy(), img)

    def test_group_tensor_name_collision(self, mem_ds):
        mem_ds.create_tensor("a/b")
        with pytest.raises(GroupError):
            mem_ds.create_tensor("a")
        mem_ds.create_group("g")
        with pytest.raises(GroupError):
            mem_ds.create_tensor("g")

    def test_group_scoped_append(self, mem_ds, rng):
        g = mem_ds.create_group("sensors")
        mem_ds.create_tensor("sensors/lidar", dtype="float32")
        g.append({"lidar": np.zeros(4, dtype=np.float32)})
        assert len(mem_ds["sensors/lidar"]) == 1

    def test_unknown_tensor(self, mem_ds):
        with pytest.raises(TensorDoesNotExistError):
            mem_ds["ghost"]
        with pytest.raises(AttributeError):
            mem_ds.ghost


class TestAppendAndRead:
    def test_row_append_requires_all_tensors(self, image_ds, rng):
        with pytest.raises(FormatError):
            image_ds.append({"images": rng.integers(0, 255, (8, 8, 3),
                                                    dtype=np.uint8)})

    def test_append_empty_pads_missing(self, image_ds, rng):
        image_ds.append(
            {"images": rng.integers(0, 255, (8, 8, 3), dtype=np.uint8)},
            append_empty=True,
        )
        # labels is a rank-0 (scalar) tensor: padding is a 0 marked padded
        engine = image_ds._engine("labels")
        assert engine.pad_enc.is_padded(engine.num_samples - 1)
        assert int(image_ds.labels[-1].numpy()[()]) == 0

    def test_unknown_key_rejected(self, image_ds):
        with pytest.raises(TensorDoesNotExistError):
            image_ds.append({"imagez": np.zeros(1)})

    def test_append_is_all_or_nothing_across_tensors(self, mem_ds):
        """A bad value for a later tensor leaves every tensor, hidden
        companions included, at its old length — as ``extend`` of the same
        row does."""
        mem_ds.create_tensor("a", dtype="int64")
        mem_ds.create_tensor("b", dtype="int64")
        mem_ds.append({"a": np.int64(1), "b": np.int64(2)})
        lengths = {
            name: mem_ds._engine(name).num_samples
            for name in mem_ds._all_tensor_names()
        }
        assert set(lengths) >= {"a", "_a_shape", "_a_id", "b"}

        class Bad:
            def __array__(self, dtype=None):
                raise ValueError("unserializable")

        with pytest.raises(ValueError):
            mem_ds.append({"a": np.int64(3), "b": Bad()})
        assert {
            name: mem_ds._engine(name).num_samples
            for name in mem_ds._all_tensor_names()
        } == lengths
        mem_ds.append({"a": np.int64(3), "b": np.int64(4)})
        assert [int(v) for v in mem_ds.a.numpy()] == [1, 3]

    def test_append_names_the_call_in_its_error(self, mem_ds):
        mem_ds.create_tensor("a", dtype="int64")
        mem_ds.create_tensor("b", dtype="int64")
        with pytest.raises(FormatError, match="^append is missing"):
            mem_ds.append({"a": np.int64(1)})

    def test_append_of_no_columns_adds_one_empty_row(self, mem_ds):
        mem_ds.create_tensor("a", dtype="int64")
        mem_ds.create_tensor("b", dtype="float32")
        mem_ds.append({"a": np.int64(1), "b": np.ones(2, dtype=np.float32)})
        mem_ds.append({}, append_empty=True)
        assert len(mem_ds) == 2
        for name in mem_ds._all_tensor_names():
            assert mem_ds._engine(name).num_samples == 2
        for name in ("a", "b"):
            assert mem_ds._engine(name).pad_enc.is_padded(1)
        assert mem_ds.b[1].numpy().size == 0

    def test_iteration(self, image_ds):
        rows = list(image_ds)
        assert len(rows) == 24
        assert np.array_equal(
            rows[3].labels.numpy(), image_ds.labels[3].numpy()
        )

    def test_numpy_stack_vs_list(self, image_ds):
        # ragged images -> list
        out = image_ds.images[:6].numpy(aslist=True)
        assert isinstance(out, list)
        # uniform labels -> stacked
        labels = image_ds.labels[:6].numpy()
        assert isinstance(labels, np.ndarray)

    def test_tensor_setitem_syncs_shape_tensor(self, image_ds, rng):
        new = rng.integers(0, 255, (50, 60, 3), dtype=np.uint8)
        image_ds.images[2] = new
        assert image_ds.images.shapes()[2] == (50, 60, 3)
        shape_hidden = image_ds._engine("_images_shape").read_sample(2)
        assert list(shape_hidden) == [50, 60, 3]

    def test_sample_ids_stable_across_update(self, image_ds, rng):
        ids_before = image_ds.images.sample_ids()
        image_ds.images[2] = rng.integers(0, 255, (9, 9, 3), dtype=np.uint8)
        assert image_ds.images.sample_ids() == ids_before


class TestViews:
    def test_slice_view(self, image_ds):
        view = image_ds[5:10]
        assert len(view) == 5
        assert np.array_equal(
            view.labels[0].numpy(), image_ds.labels[5].numpy()
        )

    def test_view_composition(self, image_ds):
        view = image_ds[4:20][::2][1]
        assert np.array_equal(
            view.labels.numpy(), image_ds.labels[6].numpy()
        )

    def test_list_view(self, image_ds):
        view = image_ds[[2, 7, 9]]
        assert len(view) == 3
        assert np.array_equal(
            view.images[1].numpy(), image_ds.images[7].numpy()
        )

    def test_view_blocks_append(self, image_ds, rng):
        view = image_ds[0:5]
        with pytest.raises(FormatError):
            view.images.append(
                rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
            )

    def test_view_shares_engines(self, image_ds):
        view = image_ds[0:5]
        assert view._engines is image_ds._engines


class TestSparse:
    def test_strict_mode_blocks_out_of_bounds(self, image_ds, rng):
        with pytest.raises(FormatError):
            image_ds.labels[100] = np.int32(1)

    def test_non_strict_pads(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True, strict=False)
        ds.create_tensor("x", dtype="float32")
        ds.x.append(np.ones(2, dtype=np.float32))
        ds.x[4] = np.full(2, 9.0, dtype=np.float32)
        assert len(ds.x) == 5
        assert ds.x[2].numpy().size == 0
        assert ds.x[4].numpy()[0] == 9.0
        # hidden companions stay aligned
        assert len(ds._engine("_x_id").enc._cum) >= 1
        assert ds._engine("_x_id").num_samples == 5

    def test_assignment_far_past_the_end_matches_model(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True, strict=False)
        ds.create_tensor("x", dtype="float32", max_chunk_size=4096)
        model = [rng.random(3).astype(np.float32) for _ in range(4)]
        ds.x.extend(model)
        value = rng.random(3).astype(np.float32)
        ds.x[5000] = value
        model += [np.zeros((0,), dtype=np.float32)] * (5000 - 4) + [value]
        assert len(ds.x) == len(model) == 5001
        rows = [0, 3, 4, 2500, 4999, 5000]
        for row, got in zip(rows, ds.read_rows(rows, tensors=["x"])["x"]):
            assert np.array_equal(got, model[row])
        engine = ds._engine("x")
        assert engine.pad_enc.indices() == list(range(4, 5000))
        # companions in step, ids still unique
        for link in engine.meta.links.values():
            assert ds._engine(link).num_samples == 5001
        assert len(set(ds.x.sample_ids())) == 5001
        assert ds.x.shapes()[5000] == (3,)
        ds.flush()
        again = repro.load(ds.storage, strict=False)
        assert np.array_equal(again.x[5000].numpy(), value)
        assert again.x[4999].numpy().size == 0


class TestDownsampled:
    def test_downsampled_maintained(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("img", htype="image", sample_compression="png",
                         downsampling=2)
        img = rng.integers(0, 255, (32, 32, 3), dtype=np.uint8)
        ds.img.append(img)
        down = ds._engine("_img_downsampled_2").read_sample(0)
        assert down.shape == (16, 16, 3)

    def test_downsampled_updates(self, rng):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("img", htype="image", sample_compression="png",
                         downsampling=4)
        ds.img.append(rng.integers(0, 255, (32, 32, 3), dtype=np.uint8))
        new = rng.integers(0, 255, (64, 64, 3), dtype=np.uint8)
        ds.img[0] = new
        down = ds._engine("_img_downsampled_4").read_sample(0)
        assert down.shape == (16, 16, 3)


class TestPersistence:
    def test_reopen_from_local_disk(self, tmp_path, rng):
        path = str(tmp_path / "ds")
        ds = repro.empty(path)
        ds.create_tensor("x", dtype="int64")
        ds.x.extend([np.array([i], dtype=np.int64) for i in range(7)])
        ds.flush()
        out = repro.load(path)
        assert len(out.x) == 7
        assert out.x[6].numpy()[0] == 6

    def test_exists_and_delete(self, tmp_path):
        path = str(tmp_path / "ds2")
        assert not repro.exists(path)
        repro.empty(path).flush()
        assert repro.exists(path)
        repro.delete(path)
        assert not repro.exists(path)

    def test_empty_refuses_overwrite(self, tmp_path):
        path = str(tmp_path / "ds3")
        repro.empty(path).flush()
        with pytest.raises(repro.DeepLakeError):
            repro.empty(path)
        repro.empty(path, overwrite=True)

    def test_load_missing(self, tmp_path):
        with pytest.raises(repro.DeepLakeError):
            repro.load(str(tmp_path / "nope"))

    def test_load_without_a_version_tree_falls_back_to_the_probe(self):
        storage = MemoryProvider("treeless")
        ds = repro.empty(storage)
        ds.create_tensor("x", dtype="int64")
        ds.x.append(np.array([1], dtype=np.int64))
        ds.flush()
        del storage[K.version_control_info_key()]
        assert len(repro.load(storage).x) == 1

    def test_read_only_dataset(self, tmp_path, rng):
        path = str(tmp_path / "ds4")
        ds = repro.empty(path)
        ds.create_tensor("x", dtype="int64")
        ds.x.append(np.array([1], dtype=np.int64))
        ds.flush()
        ro = repro.load(path, read_only=True)
        with pytest.raises(ReadOnlyDatasetError):
            ro.create_tensor("y")
        with pytest.raises(ReadOnlyDatasetError):
            ro.x.append(np.array([2], dtype=np.int64))


def _history(backing, tensors, commits):
    """*tensors* int64 columns on *backing*, 16 rows added per commit, the
    last commit left as the flushed head -> (names, model rows)."""
    ds = repro.empty(backing, overwrite=True)
    names = [f"t{i}" for i in range(tensors)]
    for name in names:
        ds.create_tensor(name, dtype="int64")
    model = []
    for commit in range(commits):
        rows = [np.arange(4, dtype=np.int64) + commit] * 16
        ds.extend({name: rows for name in names})
        model += rows
        if commit < commits - 1:
            ds.commit(f"c{commit}")
    ds.flush()
    return names, model


class TestColdOpen:
    """Per-commit state is read the way it is written: as one enumerated
    batch, whatever the tensor count or the depth of the history."""

    def test_load_to_first_rows_costs_the_same_at_any_size(self, spent):
        costs = []
        for tensors in (2, 6):
            for commits in (1, 3):
                backing = MemoryProvider("hist")
                names, model = _history(backing, tensors, commits)
                store = SimulatedObjectStore(
                    "s3", clock=SimClock(), backing=backing
                )
                singles = []

                def single_get(key, start, end, _get=store._get):
                    singles.append(key)
                    return _get(key, start, end)

                store._get = single_get
                with spent(store) as reqs:
                    got = repro.load(store).read_rows(
                        range(len(model)), names
                    )
                for name in names:
                    assert all(map(np.array_equal, got[name], model))
                # the version tree (which also answers "is there a
                # dataset?"); then batches only: dataset metas, every
                # tensor's state, the chunks
                assert singles == [K.version_control_info_key()]
                assert reqs.get("download") == 1
                assert sum(reqs.values()) <= 4, reqs
                costs.append(reqs)
        assert all(cost == costs[0] for cost in costs), costs

    def test_cold_len_is_one_batch(self, spent):
        backing = MemoryProvider("hist")
        _names, model = _history(backing, tensors=6, commits=2)
        store = SimulatedObjectStore("s3", clock=SimClock(), backing=backing)
        ds = repro.load(store)
        with spent(store) as reqs:
            assert len(ds) == len(model)
        assert reqs == {"download_batch": 1}

    def test_two_first_readers_open_a_tensor_once(self):
        """Two threads that both find a tensor unopened share one state
        fetch and one engine (neither orphans a decoded-chunk cache)."""

        class SlowStore(MemoryProvider):
            meta_reads = 0
            empty_batches = 0

            def _get(self, key, start, end):  # single and batched reads
                if key == "x/tensor_meta.json":
                    time.sleep(0.02)  # both readers are inside by then
                    self.meta_reads += 1
                return super()._get(key, start, end)

            def get_many(self, keys):
                self.empty_batches += not keys
                return super().get_many(keys)

        store = SlowStore("slow")
        ds = repro.empty(store, overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.extend([np.arange(4, dtype=np.int64)] * 8)
        ds.flush()
        cold = repro.load(store)
        store.meta_reads = 0
        barrier = threading.Barrier(2)
        engines = []

        def reader():
            barrier.wait(timeout=10)
            engine = cold._engine("x")
            assert int(cold.read_rows([7], ["x"])["x"][0][3]) == 3
            engines.append(engine)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert store.meta_reads == 1 and store.empty_batches == 0
        assert len(engines) == 2 and engines[0] is engines[1]
        assert cold[2:]._open_lock is cold._open_lock  # views share it


def _copy_source(layout, rng):
    """A source dataset with one tensor ``x`` in *layout* and the
    list-of-arrays model of what reading it back must give."""
    ds = repro.empty(MemoryProvider(), overwrite=True, strict=False)
    if layout == "jpeg":
        ds.create_tensor("x", htype="image", sample_compression="jpeg",
                         max_chunk_size=4096)
        images = [
            rng.integers(0, 255, (16, 16, 3), dtype=np.uint8)
            for _ in range(20)
        ]
        ds.x.extend(images)
        model = [
            decompress_array(compress_array(im, "jpeg"), "jpeg")
            for im in images
        ]
    elif layout == "lz4":
        ds.create_tensor("x", dtype="int64", chunk_compression="lz4",
                         max_chunk_size=512)
        model = [np.arange(i, i + 9, dtype=np.int64) for i in range(20)]
        ds.x.extend(model)
    elif layout == "tiled":
        # a sample-compressed tensor, so flat rows move verbatim and the
        # tiled ones (no single payload) take the decoded re-read
        ds.create_tensor("x", htype="image", sample_compression="png",
                         max_chunk_size=4096)
        model = [
            rng.integers(0, 255, (64, 64, 3) if i % 4 == 1 else (8, 8, 3),
                         dtype=np.uint8)
            for i in range(10)
        ]
        ds.x.extend(model)
        assert ds._engine("x").tile_enc.num_tiled == 3
    elif layout == "padded":
        ds.create_tensor("x", htype="image", sample_compression="png")
        first = rng.integers(0, 255, (8, 8, 3), dtype=np.uint8)
        last = rng.integers(0, 255, (6, 6, 3), dtype=np.uint8)
        ds.x.append(first)
        ds.x[9] = last
        model = [first] + [np.zeros((0, 0, 0), dtype=np.uint8)] * 8 + [last]
    elif layout == "sequence":
        ds.create_tensor("x", htype="sequence[generic]", dtype="int64")
        model = [
            [np.arange(n, dtype=np.int64) + i for n in range(1, 1 + i % 3)]
            for i in range(12)
        ]
        assert model[0] == [] and model[3] == []
        ds.x.extend(model)
    else:  # link: the bucket of tests/test_links_and_failures.py
        bucket = storage_from_url("s3-sim://linktest", cache_bytes=0)
        ds.create_tensor("x", htype="link[image]")
        model = []
        for i in range(7):
            image = rng.integers(0, 255, (12, 12, 3), dtype=np.uint8)
            bucket[f"raw/{i}.psim"] = compress_array(image, "png")
            ds.x.append(repro.link(f"s3-sim://linktest/raw/{i}.psim"))
            # unlinking an image tensor stores it as JPEG
            model.append(
                decompress_array(compress_array(image, "jpeg"), "jpeg")
            )
    ds.flush()
    return ds, model


class TestCopyMaterialize:
    def test_copy_view_with_lineage(self, image_ds):
        view = image_ds[[1, 3, 5]]
        view.query_string = "SELECT fake"
        out = repro.copy(view, MemoryProvider())
        assert len(out) == 3
        assert out._meta.info["source_query"] == "SELECT fake"
        assert np.array_equal(
            out.images[2].numpy(), image_ds.images[5].numpy()
        )

    def test_copy_preserves_sample_ids(self, image_ds):
        out = repro.copy(image_ds[2:6], MemoryProvider())
        assert out.images.sample_ids() == image_ds.images.sample_ids()[2:6]

    def test_copy_resolves_links(self, rng):
        from repro.compression import compress_array
        from repro.storage import storage_from_url

        bucket = storage_from_url("s3-sim://raw-copy", cache_bytes=0)
        img = rng.integers(0, 255, (10, 10, 3), dtype=np.uint8)
        bucket["a.psim"] = compress_array(img, "png")
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("pics", htype="link[image]")
        ds.pics.append(repro.link("s3-sim://raw-copy/a.psim"))
        out = repro.copy(ds, MemoryProvider(), unlink=True)
        assert not out._engine("pics").meta.is_link
        assert out.pics[0].numpy().shape == (10, 10, 3)

    @pytest.mark.parametrize(
        "layout", ["jpeg", "lz4", "tiled", "padded", "sequence", "link"]
    )
    @pytest.mark.parametrize(
        "view", [slice(None), slice(1, None, 3)], ids=["full", "strided"]
    )
    def test_copy_matches_model(self, rng, layout, view):
        """``copy`` against a list-of-arrays model of the source."""
        src, model = _copy_source(layout, rng)
        out = src[view].copy(MemoryProvider())
        expected = model[view]
        engine = out._engine("x")
        assert engine.num_samples == len(expected)
        got = engine.read_batch(range(len(expected)), aslist=True)
        for have, want in zip(got, expected):
            if isinstance(want, list):  # sequence row: item by item
                assert len(have) == len(want)
                for a, b in zip(have, want):
                    assert np.array_equal(a, b)
            else:
                assert have.dtype == want.dtype
                assert np.array_equal(have, want)
        if layout == "link":
            assert not engine.meta.is_link
        else:
            assert out.x.sample_ids() == src.x.sample_ids()[view]
        if layout == "jpeg":  # the stored payloads moved verbatim
            rows = list(range(len(model)))[view]
            assert engine.read_batch(
                range(len(rows)), decode=False
            ) == src._engine("x").read_batch(rows, decode=False)

    def test_copy_source_round_trips_follow_chunks_not_rows(self):
        """Cold simulated S3: materialising a 257-row view of a 512-row
        JPEG tensor costs O(chunks) source round trips, and the same
        single-key GETs when the view doubles over the same chunks."""
        rng = np.random.default_rng(0)
        backing = MemoryProvider("src")
        ds = repro.empty(backing, overwrite=True)
        ds.create_tensor("images", htype="image", sample_compression="jpeg",
                         max_chunk_size=64 * 1024)
        images = [
            rng.integers(0, 255, (32, 32, 3), dtype=np.uint8)
            for _ in range(512)
        ]
        ds.images.extend(images)
        ds.flush()
        assert ds._engine("images").enc.num_chunks > 8

        def materialise(rows):
            store = SimulatedObjectStore(
                "s3", clock=SimClock(), backing=backing
            )
            view = repro.load(store, read_only=True)[rows]
            before = dict(store.requests_by_op)
            out = view.copy(MemoryProvider())
            spent = {
                op: n - before.get(op, 0)
                for op, n in store.requests_by_op.items()
            }
            return out, spent

        half = list(range(0, 512, 2)) + [511]
        out, spent = materialise(half)
        assert len(out) == 257
        assert sum(spent.values()) <= 20, spent
        for i in (0, 100, 256):
            assert np.array_equal(
                out.images[i].numpy(), ds.images[half[i]].numpy()
            )
        full, spent_full = materialise(list(range(512)))
        assert len(full) == 512
        assert spent_full.get("download", 0) == spent.get("download", 0)
        assert sum(spent_full.values()) == sum(spent.values())

    def test_save_and_load_view(self, image_ds):
        view = image_ds[[4, 2]]
        view.query_string = "SELECT something"
        vid = view.save_view(message="picks")
        loaded = image_ds.load_view(vid)
        assert np.array_equal(
            loaded.images[0].numpy(), image_ds.images[4].numpy()
        )
        assert loaded.query_string == "SELECT something"
