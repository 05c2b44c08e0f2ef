import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_grid_add, distinct_set_oracle
from voxcodec import codec, nn, ply
from voxcodec.errors import ContractViolation
from voxcodec.sparse import (
    CoordSet,
    PointCloudFrame,
    SparseTensor,
    _distinct,
    add_on_union,
    as_coords,
    children_coords,
    concatenate,
    key_steps,
    lex_order,
    lookup,
    pack_keys,
    sorted_keys,
    stride_down_coords,
    union,
    unpack_keys,
)


def make(coords, feats, scale=0):
    return SparseTensor.build(coords, feats, scale)


class TestAsCoords:
    def test_int64_rows_are_not_copied(self):
        # pack_keys runs on every coordinate set: integer input pays no scan
        c = np.array([[1, 2, 3], [-4, 5, 6]], dtype=np.int64)
        assert as_coords(c) is c
        assert as_coords(c.astype(np.int32)).dtype == np.int64

    def test_integer_valued_floats_accepted(self):
        assert as_coords([[1.0, -2.0, 3.0]]).tolist() == [[1, -2, 3]]

    def test_uint64_past_int64_rejected(self):
        # would wrap to -1, inside the key range
        with pytest.raises(ContractViolation, match="finite integers"):
            pack_keys(np.array([[2**64 - 1, 0, 0]], dtype=np.uint64))


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

    def test_key_steps_shift_packed_keys(self):
        # a step adds the offset to each 21-bit field, borrowing across fields
        # for negative components, so in range it equals packing c + o
        rng = np.random.default_rng(2)
        coords = rng.integers(-(1 << 20) + 3, (1 << 20) - 3, size=(200, 3))
        coords[:3] = [[-(1 << 20) + 3] * 3, [(1 << 20) - 4] * 3, [0, 0, 0]]
        offsets = rng.integers(-3, 4, size=(40, 3))
        steps = key_steps(offsets)
        assert steps.dtype == np.uint64
        for o, step in zip(offsets, steps):
            assert np.array_equal(pack_keys(coords + o), pack_keys(coords) + step)

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
        assert u.cset is t.cset
        assert u.coords is t.coords and u.cset.keys is t.cset.keys
        assert u.feats[:, 0].tolist() == [3.0, 4.0]
        with pytest.raises(ValueError):
            u.feats[0, 0] = 0.0

    def test_immutable(self):
        t = make([[0, 0, 0]], [[1.0]])
        with pytest.raises(ValueError):
            t.feats[0, 0] = 2.0


class TestSortedKeys:
    def test_sorted_rows_give_their_keys(self):
        c = np.array([[-1, 5, 5], [0, 0, 0], [0, 0, 1], [2, -3, 0]])
        assert np.array_equal(sorted_keys(c), pack_keys(c))
        assert sorted_keys(np.empty((0, 3), np.int32)).size == 0

    @pytest.mark.parametrize("rows", [[[0, 0, 1], [0, 0, 0]], [[1, 0, 0], [1, 0, 0]],
                                      [[0, 0, 0], [0, 1, 0], [0, 1, 0], [2, 0, 0]]])
    def test_unsorted_or_repeated_rows_rejected(self, rows):
        for check in (sorted_keys, CoordSet):
            with pytest.raises(ContractViolation, match="strictly increasing"):
                check(np.array(rows))


class TestUnion:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_the_sorted_set_union(self, data):
        coords = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
        sa = sorted(data.draw(st.sets(coords, max_size=20)))
        sb = sorted(data.draw(st.sets(coords, max_size=20)))
        u = union(CoordSet(np.array(sa, np.int64).reshape(-1, 3)),
                  CoordSet(np.array(sb, np.int64).reshape(-1, 3)))
        assert isinstance(u, CoordSet)
        assert list(map(tuple, u.coords.tolist())) == sorted(set(sa) | set(sb))


class TestChildren:
    def test_eight_sorted_children_per_voxel(self):
        c = np.array([[0, 0, 0], [1, -1, 2]])
        kids = children_coords(c)
        assert kids.shape == (16, 3)
        assert np.array_equal(kids, unpack_keys(np.sort(pack_keys(kids))))
        assert np.array_equal(stride_down_coords(kids), c)
        assert np.array_equal(children_coords(c[::-1]), kids)

    def test_empty(self):
        assert children_coords(np.empty((0, 3), np.int32)).shape == (0, 3)


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

    def test_negative_precision_rejected(self):
        for coords in ([[0, 0, 0]], np.empty((0, 3), np.int64)):
            with pytest.raises(ContractViolation, match="precision"):
                PointCloudFrame.from_coords(coords, -1)


def _row_sets():
    """Rows for the distinct-set checks: empty, one row, all duplicates,
    pre-sorted, reversed and random, reaching both ends of the 21-bit range."""
    lo, hi = -(1 << 20), (1 << 20) - 1
    rng = np.random.default_rng(11)
    near = rng.integers(-3, 3, size=(300, 3))  # mostly repeated rows
    wide = rng.integers(lo, hi + 1, size=(200, 3))
    rows = np.vstack([near, wide, [[lo, lo, lo], [hi, hi, hi], [lo, hi, 0], [hi, lo, -1]]])
    ordered = rows[lex_order(rows)]
    return {
        "empty": np.empty((0, 3), np.int64),
        "one": np.array([[lo, 0, hi]]),
        "duplicates": np.tile([[hi, lo, 3]], (5, 1)),
        "sorted": ordered,
        "reversed": ordered[::-1],
        "random": rng.permutation(rows),
    }


ROW_SETS = _row_sets()


def read_only(cset):
    return not (cset.keys.flags.writeable or cset.coords.flags.writeable)


class TestDistinctSets:
    """Every set the library derives takes its distinct keys by one sort; it
    matches np.unique key for key and row for row."""

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_distinct_keys(self, name):
        c = ROW_SETS[name]
        keys, _ = distinct_set_oracle(c)
        got = _distinct(pack_keys(c))
        assert got.dtype == np.uint64 and np.array_equal(got, keys)

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_stride_down(self, name):
        c = ROW_SETS[name]
        _, rows = distinct_set_oracle(c >> 1)
        got = stride_down_coords(c)
        assert got.dtype == np.int32 and np.array_equal(got, rows)

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_union(self, name):
        _, rows = distinct_set_oracle(ROW_SETS[name])
        n = rows.shape[0]
        a, b = rows[: 2 * n // 3], rows[n // 3 :]  # overlapping in the middle third
        keys, rows = distinct_set_oracle(np.vstack([b, a]))
        u = union(CoordSet(a), CoordSet(b))
        assert u.n == rows.shape[0] and np.array_equal(u.keys, keys)
        assert u.coords.dtype == np.int32 and np.array_equal(u.coords, rows)
        assert read_only(u)

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_frame_from_coords(self, name):
        c = (ROW_SETS[name] + (1 << 20)) >> 1  # onto [0, 2^20), both ends kept
        keys, rows = distinct_set_oracle(c)
        f = PointCloudFrame.from_coords(c, 20)
        assert np.array_equal(f.points.cset.keys, keys)
        assert f.points.coords.dtype == np.int32 and np.array_equal(f.points.coords, rows)
        assert f.points.feats.dtype == np.float32 and f.points.feats.shape == (rows.shape[0], 1)
        assert read_only(f.points.cset)

    @pytest.mark.parametrize("name", ROW_SETS)
    def test_set_from_keys(self, name):
        keys, rows = distinct_set_oracle(ROW_SETS[name])
        s = CoordSet.from_keys(keys)
        assert s.keys is keys and s.n == rows.shape[0]
        assert s.coords.dtype == np.int32 and np.array_equal(s.coords, rows)
        assert read_only(s) and s.plans == {}
        down = s.down()
        assert np.array_equal(down.coords, distinct_set_oracle(rows >> 1)[1])
        assert read_only(down)

    @pytest.mark.parametrize("keys", [[2, 1], [3, 3], [0, 5, 5, 7]])
    def test_keys_not_increasing_rejected(self, keys):
        with pytest.raises(ContractViolation, match="strictly increasing"):
            CoordSet.from_keys(np.array(keys, dtype=np.uint64))

    @pytest.mark.parametrize("keys", [np.array([1, 2]), np.zeros((2, 1), np.uint64), [1, 2]],
                             ids=["int64", "2-D", "list"])
    def test_keys_not_a_uint64_vector_rejected(self, keys):
        with pytest.raises(ContractViolation, match="1-D uint64"):
            CoordSet.from_keys(keys)

    def test_fresh_set_shares_rows_not_derived_state(self):
        s = CoordSet(distinct_set_oracle(ROW_SETS["random"])[1])
        s.down()
        s.plans["k"] = "plan"
        t = s.fresh()
        assert t.keys is s.keys and t.coords is s.coords and t.n == s.n
        assert t.plans == {} and t._down is None and t.down() is not s.down()

    def test_no_numpy_unique_or_union1d(self, monkeypatch, tmp_path, store):
        # NumPy 2.3+ hashes in np.unique (and so in np.union1d), which is far
        # slower on uint64 keys; the benchmark's small sets would not show it
        c = ROW_SETS["random"]
        frame_rows = (c + (1 << 20)) >> 1
        ply.write_ply(tmp_path / "f.ply", frame_rows)
        _, rows = distinct_set_oracle(c)
        a, b = CoordSet(rows[::2]), CoordSet(rows[1::3])
        probs = np.random.default_rng(0).random(rows.shape[0])
        y = SparseTensor.build([[1, 1, 1]], np.ones((1, 64), np.float32), 2)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique or np.union1d called")

        monkeypatch.setattr(np, "unique", refuse)
        monkeypatch.setattr(np, "union1d", refuse)
        stride_down_coords(c)
        union(a, b)
        concatenate(SparseTensor(a, np.ones((a.n, 1))), SparseTensor(b, np.ones((b.n, 1))))
        PointCloudFrame.from_coords(frame_rows, 20).points.cset.down().down()
        ply.load_ply(tmp_path / "f.ply", 20)
        codec.bce_occupancy(probs, rows, c)
        nn.adaptive_prune(SparseTensor(CoordSet(rows), np.ones((rows.shape[0], 1))), probs, 100)
        assert codec.reconstruct(y, 4, 20, store, 6)[0].n == 20
