import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_grid_add
from voxcodec.errors import ContractViolation
from voxcodec.sparse import (
    PointCloudFrame,
    SparseTensor,
    add_on_union,
    concatenate,
    lookup,
    pack_keys,
    stride_down_coords,
    unpack_keys,
)


def make(coords, feats, scale=0):
    return SparseTensor.build(coords, feats, scale)


class TestSparseTensor:
    def test_rejects_duplicates(self):
        with pytest.raises(ContractViolation):
            make([[0, 0, 0], [0, 0, 0]], [[1.0], [2.0]])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ContractViolation):
            SparseTensor(np.zeros((2, 3), np.int32), np.zeros((3, 1)))

    def test_sorts_on_build(self):
        t = make([[1, 0, 0], [0, 0, 0]], [[2.0], [1.0]])
        assert t.coords.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert t.feats[:, 0].tolist() == [1.0, 2.0]

    def test_key_roundtrip_signed(self):
        coords = np.array([[-5, 0, 3], [0, -1, 2], [7, 7, 7]])
        assert np.array_equal(unpack_keys(pack_keys(coords)), coords)

    def test_lookup_hits_and_misses(self):
        sorted_keys = np.array([2, 5, 9], dtype=np.uint64)
        pos, hit = lookup(sorted_keys, np.array([9, 1, 5, 10, 6], dtype=np.uint64))
        assert hit.tolist() == [True, False, True, False, False]
        assert pos[hit].tolist() == [2, 1]
        pos, hit = lookup(np.empty(0, np.uint64), np.array([3], dtype=np.uint64))
        assert hit.tolist() == [False]

    def test_with_feats_shares_coordinates(self):
        t = make([[0, 0, 0], [1, 2, 3]], [[1.0], [2.0]])
        u = t.with_feats(np.array([[3.0], [4.0]]))
        assert u.coords is t.coords and u.keys() is t.keys()
        assert u.kernel_maps is t.kernel_maps
        assert u.feats[:, 0].tolist() == [3.0, 4.0]
        with pytest.raises(ValueError):
            u.feats[0, 0] = 0.0

    def test_immutable(self):
        t = make([[0, 0, 0]], [[1.0]])
        with pytest.raises(ValueError):
            t.feats[0, 0] = 2.0


class TestConcatenate:
    def test_shared_coordinate(self):
        a = make([[0, 0, 0]], [[1.0]], 2)
        b = make([[0, 0, 0]], [[2.0]], 2)
        c = concatenate(a, b)
        assert c.feats.tolist() == [[1.0, 2.0]]

    def test_zero_padding(self):
        a = make([[1, 0, 0]], [[5.0]], 2)
        b = SparseTensor.empty(1, 2)
        c = concatenate(a, b)
        assert c.feats.tolist() == [[5.0, 0.0]]

    def test_partial_overlap_full_table(self):
        # four points each, two shared: six union coords (direct enumeration
        # of the three definition cases)
        a = make([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]],
                 [[1.0], [2.0], [3.0], [4.0]], 1)
        b = make([[2, 0, 0], [3, 0, 0], [4, 0, 0], [5, 0, 0]],
                 [[30.0], [40.0], [50.0], [60.0]], 1)
        c = concatenate(a, b)
        assert c.n == 6
        expect = {
            (0, 0, 0): [1.0, 0.0],
            (1, 0, 0): [2.0, 0.0],
            (2, 0, 0): [3.0, 30.0],
            (3, 0, 0): [4.0, 40.0],
            (4, 0, 0): [0.0, 50.0],
            (5, 0, 0): [0.0, 60.0],
        }
        for coord, feat in zip(map(tuple, c.coords), c.feats):
            assert feat.tolist() == expect[coord]

    def test_scale_mismatch(self):
        with pytest.raises(ContractViolation):
            concatenate(make([[0, 0, 0]], [[1.0]], 1), make([[0, 0, 0]], [[1.0]], 2))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_union_properties(self, data):
        coords = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
        sa = sorted(data.draw(st.sets(coords, min_size=1, max_size=20)))
        sb = sorted(data.draw(st.sets(coords, min_size=1, max_size=20)))
        a = make(sa, np.arange(1, len(sa) + 1, dtype=np.float32), 0)
        b = make(sb, np.arange(1, len(sb) + 1, dtype=np.float32), 0)
        c = concatenate(a, b)
        assert c.n == len(set(sa) | set(sb))
        # restricted to a's coords the first block reproduces a; elsewhere zero
        lookup = {tuple(co): f for co, f in zip(c.coords, c.feats)}
        for co, f in zip(a.coords, a.feats):
            assert lookup[tuple(co)][0] == f[0]
        for co in set(map(tuple, c.coords)) - set(map(tuple, a.coords)):
            assert lookup[co][0] == 0.0


class TestAddOnUnion:
    def test_disjoint(self):
        a = make([[0, 0, 0]], [[1.0]], 0)
        b = make([[1, 0, 0]], [[2.0]], 0)
        c = add_on_union(a, b)
        assert c.feats[:, 0].tolist() == [1.0, 2.0]

    def test_identical(self):
        a = make([[0, 0, 0], [1, 1, 1]], [[1.0], [2.0]], 0)
        c = add_on_union(a, a)
        assert c.feats[:, 0].tolist() == [2.0, 4.0]

    def test_mixed_overlap_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        ca = sorted({tuple(rng.integers(0, 4, 3)) for _ in range(10)})
        cb = sorted({tuple(rng.integers(0, 4, 3)) for _ in range(10)})
        fa = rng.normal(size=(len(ca), 2)).astype(np.float32)
        fb = rng.normal(size=(len(cb), 2)).astype(np.float32)
        got = add_on_union(make(ca, fa, 1), make(cb, fb, 1))
        keys, feats = dense_grid_add(ca, fa, cb, fb)
        assert np.array_equal(got.coords, keys.astype(np.int32))
        assert np.allclose(got.feats, feats, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ContractViolation):
            add_on_union(make([[0, 0, 0]], [[1.0]], 0), make([[0, 0, 0]], [[1.0, 2.0]], 0))


class TestStrideDown:
    def test_merges_children(self):
        assert stride_down_coords(np.array([[0, 0, 0], [1, 1, 1]])).tolist() == [[0, 0, 0]]

    def test_floor_division(self):
        got = stride_down_coords(np.array([[2, 0, 0], [3, 1, 0], [4, 0, 0]]))
        assert got.tolist() == [[1, 0, 0], [2, 0, 0]]

    def test_empty(self):
        assert stride_down_coords(np.empty((0, 3), np.int64)).shape == (0, 3)

    @given(st.sets(st.tuples(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31)),
                   min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_composition(self, coords):
        c = np.array(sorted(coords), dtype=np.int64)
        once_twice = stride_down_coords(stride_down_coords(c))
        direct = np.unique(np.asarray(c) >> 2, axis=0)
        assert np.array_equal(once_twice, direct.astype(np.int32))


class TestPointCloudFrame:
    def test_merges_duplicates(self):
        f = PointCloudFrame.from_coords([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 4)
        assert f.n == 2
        assert np.all(f.points.feats == 1.0)

    def test_bounds_checked(self):
        with pytest.raises(ContractViolation):
            PointCloudFrame.from_coords([[16, 0, 0]], 4)
