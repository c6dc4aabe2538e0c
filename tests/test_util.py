"""Unit tests for repro.util: keys, shapes, json, ids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DynamicShapeError
from repro.util import keys as K
from repro.util.ids import new_chunk_name, new_commit_id, new_sample_ids, seed_ids
from repro.util.json_util import json_dumps, json_loads
from repro.util.shape import ShapeInterval, ceildiv, nbytes_of, normalize_index


class TestKeys:
    def test_first_commit_lives_at_root(self):
        assert K.commit_root(K.FIRST_COMMIT_ID) == ""
        assert K.dataset_meta_key(K.FIRST_COMMIT_ID) == "dataset_meta.json"

    def test_other_commits_under_versions(self):
        assert K.commit_root("abc") == "versions/abc/"
        assert K.chunk_key("abc", "images", "c1") == (
            "versions/abc/images/chunks/c1"
        )

    def test_tensor_state_keys(self):
        cid = K.FIRST_COMMIT_ID
        assert K.tensor_meta_key(cid, "x") == "x/tensor_meta.json"
        assert K.chunk_id_encoder_key(cid, "x") == "x/chunk_id_encoder"
        assert K.commit_diff_key("c", "x") == "versions/c/x/commit_diff.json"
        assert K.chunk_set_key("c", "x") == "versions/c/x/chunk_set.json"

    def test_hidden_tensor_name_plain(self):
        assert K.hidden_tensor_name("images", "shape") == "_images_shape"

    def test_hidden_tensor_name_grouped(self):
        assert K.hidden_tensor_name("cams/left", "id") == "cams/_left_id"

    def test_branch_lock_key(self):
        assert K.branch_lock_key("main") == "locks/main.lock"


class TestShapeInterval:
    def test_starts_empty(self):
        si = ShapeInterval()
        assert si.is_empty
        assert si.astuple() == ()

    def test_uniform_until_divergence(self):
        si = ShapeInterval()
        si.update((4, 5))
        assert si.is_uniform
        si.update((4, 9))
        assert not si.is_uniform
        assert si.astuple() == (4, None)
        assert si.lower == (4, 5)
        assert si.upper == (4, 9)

    def test_rank_mismatch_raises(self):
        si = ShapeInterval()
        si.update((2, 2))
        with pytest.raises(DynamicShapeError):
            si.update((2, 2, 2))

    def test_max_nbytes(self):
        si = ShapeInterval()
        si.update((2, 3))
        si.update((4, 1))
        assert si.max_nbytes(np.dtype("float64")) == 4 * 3 * 8

    def test_json_roundtrip(self):
        si = ShapeInterval((1, 2), (3, 4))
        assert ShapeInterval.from_json(si.to_json()) == si

    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_interval_bounds_contain_all_shapes(self, shapes):
        si = ShapeInterval()
        for s in shapes:
            si.update(s)
        for s in shapes:
            assert all(lo <= d <= hi for lo, d, hi in
                       zip(si.lower, s, si.upper))


class TestNormalizeIndex:
    def test_int_and_negative(self):
        assert normalize_index(2, 5) == ([2], True)
        assert normalize_index(-1, 5) == ([4], True)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            normalize_index(7, 5)

    def test_slice(self):
        assert normalize_index(slice(1, 4), 10)[0] == [1, 2, 3]

    def test_bool_mask(self):
        mask = np.array([True, False, True])
        assert normalize_index(mask, 3)[0] == [0, 2]

    def test_list(self):
        assert normalize_index([0, -1], 4)[0] == [0, 3]


class TestMisc:
    def test_ceildiv(self):
        assert ceildiv(10, 3) == 4
        assert ceildiv(9, 3) == 3

    def test_nbytes_of(self):
        assert nbytes_of((3, 4), "uint8") == 12
        assert nbytes_of((), "int64") == 8

    def test_json_numpy_types(self):
        blob = json_dumps({"a": np.int64(3), "b": np.float32(0.5),
                           "c": np.array([1, 2])})
        assert json_loads(blob) == {"a": 3, "b": 0.5, "c": [1, 2]}

    def test_json_sorted_deterministic(self):
        assert json_dumps({"b": 1, "a": 2}) == json_dumps({"a": 2, "b": 1})

    def test_ids_seeded_deterministic(self):
        seed_ids(7)
        a = new_chunk_name(), new_commit_id(), new_sample_ids(3).tolist()
        seed_ids(7)
        b = new_chunk_name(), new_commit_id(), new_sample_ids(3).tolist()
        assert a == b

    def test_chunk_name_is_16_hex(self):
        name = new_chunk_name()
        assert len(name) == 16
        int(name, 16)  # parses as hex
