import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dense_conv_oracle,
    kernel_map_oracle,
    sparse_conv_backward_oracle,
    sparse_conv_oracle,
)
from voxcodec import nn
from voxcodec.errors import ContractViolation
from voxcodec.nn import (
    ConvSpec,
    adaptive_prune,
    build_kernel_map,
    classify_occupancy,
    irn_block,
    relu,
    rn_block,
    sparse_conv,
    sparse_conv_backward,
)
from voxcodec.sparse import (CoordSet, SparseTensor, children_coords, pack_keys,
                             stride_down_coords, union, unpack_keys)


def make(coords, feats, scale=0):
    return SparseTensor.build(coords, feats, scale)


def random_tensor(rng, n, span, channels, scale=0):
    coords = list({tuple(rng.integers(0, span, 3)) for _ in range(n)})
    feats = rng.normal(size=(len(coords), channels)).astype(np.float32)
    return SparseTensor.build(np.array(coords), feats, scale)


def coord_set(rng, n, span, lo):
    """Up to n distinct lex-sorted coordinates in [lo, lo + span)^3."""
    return unpack_keys(np.unique(pack_keys(rng.integers(lo, lo + span, size=(n, 3)))))


def joined(a, b):
    """The union of two lex-sorted coordinate sets."""
    return union(CoordSet(a), CoordSet(b)).coords


def cube(lo, side):
    """Every coordinate of [lo, lo + side)^3, lex-sorted."""
    r = np.arange(lo, lo + side)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def assert_same_pairs(kmap, expect):
    assert len(kmap.pairs) == len(expect)
    for (i, j), (ei, ej) in zip(kmap.pairs, expect):
        assert i.dtype == ei.dtype and j.dtype == ej.dtype
        assert np.array_equal(i, ei) and np.array_equal(j, ej)


def irn_weights(rng, o, zero=False):
    q, h = o // 4, o // 2
    specs = {
        "b0c1": ConvSpec(o, q, 1), "b0c2": ConvSpec(q, q, 3),
        "b1c1": ConvSpec(o, q, 3), "b1c2": ConvSpec(q, q, 3),
        "b2c1": ConvSpec(o, h, 1),
    }
    w = {}
    for name, spec in specs.items():
        fn = np.zeros if zero else (lambda s: rng.normal(size=s).astype(np.float32))
        w[name + ".weight"] = np.zeros(spec.weight_shape, np.float32) if zero else fn(spec.weight_shape)
        w[name + ".bias"] = np.zeros(spec.out_channels, np.float32)
    return w, specs


class TestKernelMap:
    def test_identity_pairs_for_kernel1(self):
        x = make([[0, 0, 0], [3, 1, 2]], np.ones((2, 1)))
        km = build_kernel_map(x.coords, x.coords, ConvSpec(1, 1, 1))
        assert len(km.pairs) == 1
        i, j = km.pairs[0]
        assert i.tolist() == [0, 1] and j.tolist() == [0, 1]

    def test_stride2_offsets(self):
        coords = np.array([[0, 0, 0], [1, 0, 0]])
        out = stride_down_coords(coords)
        assert out.tolist() == [[0, 0, 0]]
        km = build_kernel_map(coords, out, ConvSpec(1, 1, 2, stride=2))
        hits = [(o, i.tolist(), j.tolist()) for o, (i, j) in enumerate(km.pairs) if len(i)]
        # offsets (0,0,0) and (1,0,0): lexicographic offset order puts them
        # at positions 0 and 4 of the {0,1}^3 table
        assert hits == [(0, [0], [0]), (4, [1], [0])]

    def test_transposed_targets(self):
        km = build_kernel_map(
            np.array([[0, 0, 0]]),
            np.array([[0, 0, 0], [1, 1, 1], [3, 3, 3]]),
            ConvSpec(1, 1, 2, stride=2, transposed=True),
        )
        touched = sorted(j for i, jj in km.pairs for j in jj.tolist())
        assert touched == [0, 1]  # (3,3,3) is not 2*(0,0,0)+offset

    def test_stride2_requires_floor_div_set(self):
        spec = ConvSpec(1, 1, 2, stride=2)
        with pytest.raises(ContractViolation):
            build_kernel_map(np.array([[0, 0, 0]]), np.array([[1, 1, 1]]), spec)
        coords = np.array([[0, 0, 0], [1, 0, 1], [2, 3, 0], [4, 4, 4], [5, 4, 5]])
        parents = stride_down_coords(coords)  # (0,0,0), (1,1,0), (2,2,2)
        build_kernel_map(coords, parents, spec)
        # every input row pairs once and every output row is paired on a
        # permutation, so sortedness is part of the check
        for out in (parents[[1, 0, 2]], parents[[0, 0, 1, 2]], parents[[0, 1, 1, 2]],
                    parents[:2], parents[1:], np.vstack([parents, [[3, 3, 3]]]),
                    np.vstack([[[-1, 0, 0]], parents])):
            with pytest.raises(ContractViolation):
                build_kernel_map(coords, out, spec)

    @pytest.mark.parametrize("disorder", ["shuffled", "repeated"])
    @pytest.mark.parametrize("side", ["input", "output"])
    @pytest.mark.parametrize("geometry", ["k1", "k3", "stride2", "transposed"])
    def test_unsorted_or_repeated_rows_rejected(self, geometry, side, disorder):
        # the pairs of every geometry are increasing in both rows, which only
        # distinct sorted rows can give: a k3 map from a permutation u of a
        # 4-row set c onto c used to come back with 1 pair of the 16
        fine, coarse = cube(0, 4), cube(0, 2)
        spec, rows = {
            "k1": (ConvSpec(1, 1, 1), [fine, fine]),
            "k3": (ConvSpec(1, 1, 3), [fine, fine]),
            "stride2": (ConvSpec(1, 1, 2, stride=2), [fine, coarse]),
            "transposed": (ConvSpec(1, 1, 2, stride=2, transposed=True), [coarse, fine]),
        }[geometry]
        build_kernel_map(*rows, spec)
        k = side == "output"
        rows[k] = rows[k][::-1] if disorder == "shuffled" else np.repeat(rows[k], 2, axis=0)
        with pytest.raises(ContractViolation, match="strictly increasing"):
            build_kernel_map(*rows, spec)

    @pytest.mark.parametrize("edge", [(1 << 20) - 1, -(1 << 20)])
    def test_neighbour_outside_21_bits_rejected(self, edge):
        fine = np.array([[0, edge, 0]])
        parent = stride_down_coords(fine)
        beyond = parent + [[0, 1 if edge > 0 else -1, 0]]  # a parent whose children leave the range
        down = ConvSpec(1, 1, 2, stride=2)
        up = ConvSpec(1, 1, 2, stride=2, transposed=True)
        # the voxels themselves are in range
        build_kernel_map(fine, fine, ConvSpec(1, 1, 1))
        build_kernel_map(fine, parent, down)
        build_kernel_map(parent, fine, up)
        for args in ((fine, fine, ConvSpec(1, 1, 3)), (fine, beyond, down), (beyond, fine, up)):
            with pytest.raises(ContractViolation, match="21-bit"):
                build_kernel_map(*args)
            with pytest.raises(ContractViolation):
                kernel_map_oracle(*args)

    @pytest.mark.parametrize("spec", [
        ConvSpec(1, 1, 1), ConvSpec(1, 1, 3), ConvSpec(1, 1, 2, stride=2),
        ConvSpec(1, 1, 2, stride=2, transposed=True),
    ])
    def test_empty_sets(self, spec):
        empty = np.empty((0, 3), np.int32)
        some = coord_set(np.random.default_rng(0), 20, 6, 0)
        outs = [empty] if spec.stride == 2 and not spec.transposed else [empty, some]
        for out in outs:
            assert_same_pairs(build_kernel_map(empty, out, spec),
                              kernel_map_oracle(empty, out, spec))
        if spec.stride == 1 or spec.transposed:
            assert_same_pairs(build_kernel_map(some, empty, spec),
                              kernel_map_oracle(some, empty, spec))

    @pytest.mark.parametrize("edge", ["bottom", "middle", "top"])
    @pytest.mark.parametrize("fill", [1.0, 0.7, 0.3])
    def test_column_search_matches_oracle(self, edge, fill):
        # a stride-1 map searches once per (dx, dy) column and steps along dz:
        # columns with holes, sets at the ends of the 21-bit range whose dz
        # runs end on the last (or start on the first) input key, empty sets
        # and input sets other than the output set
        lo = {"bottom": -(1 << 20), "middle": -3, "top": (1 << 20) - 6}[edge]
        rng = np.random.default_rng(0)
        outer, inner = cube(lo, 6), cube(lo + 1, 4)  # inner +- 1 stays in range
        keep = rng.random(len(outer)) < fill
        keep[[0, -1]] = True  # the first and last keys of the range
        outer = outer[keep]
        inner = inner[rng.random(len(inner)) < fill]
        empty = np.empty((0, 3), np.int64)
        spec = ConvSpec(1, 1, 3)
        for in_c, out_c in [(inner, inner), (outer, inner), (inner[::2], inner),
                            (empty, inner), (outer, empty), (empty, empty)]:
            assert_same_pairs(build_kernel_map(in_c, out_c, spec),
                              kernel_map_oracle(in_c, out_c, spec))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.sampled_from(
        ["k1", "k3", "k3-other-out", "stride2", "children", "superset", "targets"]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_per_offset_oracle(self, seed, n, geometry):
        rng = np.random.default_rng(seed)
        span, lo = int(rng.integers(1, 10)), int(rng.integers(-16, 16))
        coords = coord_set(rng, n, span, lo)
        extra = coord_set(rng, int(rng.integers(0, 60)), 2 * span + 2, 2 * lo - 1)
        spec, out = {
            "k1": (ConvSpec(1, 1, 1), coords),
            "k3": (ConvSpec(1, 1, 3), coords),
            "k3-other-out": (ConvSpec(1, 1, 3), extra),
            "stride2": (ConvSpec(1, 1, 2, stride=2), stride_down_coords(coords)),
            "children": (ConvSpec(1, 1, 2, stride=2, transposed=True), children_coords(coords)),
            "superset": (ConvSpec(1, 1, 2, stride=2, transposed=True),
                         joined(children_coords(coords), extra)),
            "targets": (ConvSpec(1, 1, 2, stride=2, transposed=True), extra),
        }[geometry]
        assert_same_pairs(build_kernel_map(coords, out, spec), kernel_map_oracle(coords, out, spec))


class TestKernelMapMemo:
    def _count_builds(self, monkeypatch):
        built = []
        original = nn.build_kernel_map

        def counting(in_coords, out_coords, spec):
            built.append(spec.kernel_size)
            return original(in_coords, out_coords, spec)

        monkeypatch.setattr(nn, "build_kernel_map", counting)
        return built

    def test_irn_then_classify_builds_one_map(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = random_tensor(rng, 40, 6, 8)
        w, _ = irn_weights(rng, 8)
        cls = {"weight": rng.normal(size=(1, 8, 1)).astype(np.float32),
               "bias": np.zeros(1, np.float32)}
        built = self._count_builds(monkeypatch)
        classify_occupancy(irn_block(x, w), cls)
        assert built == [3]

    def test_with_feats_reuses_parent_maps(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = random_tensor(rng, 30, 6, 2)
        spec = ConvSpec(2, 2, 3)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        built = self._count_builds(monkeypatch)
        sparse_conv(x, spec, w, None)
        y = x.with_feats(rng.normal(size=x.feats.shape).astype(np.float32))
        assert y.cset is x.cset
        sparse_conv(y, spec, w, None)
        assert built == [3]

    def test_memo_tells_output_sets_apart(self):
        rng = np.random.default_rng(13)
        x = random_tensor(rng, 40, 6, 2, scale=1)
        for spec, outs in [
            (ConvSpec(2, 3, 3), [x.coords, x.coords[1::2], x.coords]),
            (ConvSpec(2, 3, 2, stride=2, transposed=True),
             [children_coords(x.coords), children_coords(x.coords)[::3],
              children_coords(x.coords)]),
        ]:
            w = rng.normal(size=spec.weight_shape).astype(np.float32)
            for out in outs:
                got = sparse_conv(x, spec, w, None, out)
                fresh = SparseTensor(x.coords, x.feats, x.scale)  # an empty memo
                expect = sparse_conv(fresh, spec, w, None, out)
                assert got.feats.tobytes() == expect.feats.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel,stride,transposed", [
        (1, 1, False), (3, 1, False), (2, 2, False), (2, 2, True),
    ])
    def test_memo_bytes_equal_explicit_map(self, dtype, kernel, stride, transposed):
        rng = np.random.default_rng(kernel * 10 + stride + transposed)
        x = random_tensor(rng, 50, 8, 3, scale=1)
        x = x.with_feats(x.feats.astype(dtype))
        spec = ConvSpec(3, 4, kernel, stride, transposed)
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=4)
        if transposed:
            out = children_coords(x.coords)[::2]
        elif stride == 2:
            out = stride_down_coords(x.coords)
        else:
            out = x.coords
        expect = sparse_conv(SparseTensor(x.coords, x.feats, x.scale), spec, w, b, out)
        for _ in range(2):  # the first call fills the memo, the second reads it
            got = sparse_conv(x, spec, w, b, out)
            assert got.feats.dtype == dtype
            assert got.feats.tobytes() == expect.feats.tobytes()


class TestSparseConv:
    def test_kernel1_identity(self):
        x = make([[0, 0, 0], [2, 3, 4]], [[1.0, 2.0], [3.0, 4.0]])
        w = np.eye(2)[None]
        y = sparse_conv(x, ConvSpec(2, 2, 1), w, np.zeros(2))
        assert np.allclose(y.feats, x.feats)

    @pytest.mark.parametrize("kernel,stride,transposed", [
        (1, 1, False), (2, 1, False), (3, 1, False), (2, 2, False), (2, 2, True),
    ])
    def test_matches_dense_oracle(self, kernel, stride, transposed):
        rng = np.random.default_rng(kernel * 10 + stride + transposed)
        x = random_tensor(rng, 24, 16, 3, scale=1)
        spec = ConvSpec(3, 2, kernel, stride, transposed)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        if transposed:
            out_coords = random_tensor(rng, 30, 32, 1).coords
        elif stride == 2:
            out_coords = stride_down_coords(x.coords)
        else:
            out_coords = x.coords
        y = sparse_conv(x, spec, w, b, out_coords)
        expect = dense_conv_oracle(x.coords, x.feats, w, b, spec, out_coords)
        assert np.abs(y.feats - expect).max() <= 1e-5

    def test_scale_bookkeeping(self):
        x = random_tensor(np.random.default_rng(0), 10, 8, 1, scale=1)
        down = sparse_conv(x, ConvSpec(1, 1, 2, stride=2), np.ones((8, 1, 1)), None)
        assert down.scale == 2
        up = sparse_conv(down, ConvSpec(1, 1, 2, stride=2, transposed=True),
                         np.ones((8, 1, 1)), None, out_coords=x.coords)
        assert up.scale == 1

    def test_single_point_down_up_counts(self):
        # one input point contributes to its parent, which fans back out to
        # all eight children; with all-one weights the original point gets 1
        x = make([[5, 4, 3]], [[1.0]])
        down = sparse_conv(x, ConvSpec(1, 1, 2, stride=2), np.ones((8, 1, 1)), None)
        assert down.feats[0, 0] == 1.0
        up = sparse_conv(down, ConvSpec(1, 1, 2, stride=2, transposed=True),
                         np.ones((8, 1, 1)), None, out_coords=x.coords)
        assert up.feats[0, 0] == 1.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = random_tensor(rng, 20, 12, 2)
        y = x.with_feats(rng.normal(size=x.feats.shape).astype(np.float32))
        spec = ConvSpec(2, 3, 3)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        a, b = 0.7, -1.3
        mix = x.with_feats((a * x.feats + b * y.feats).astype(np.float32))
        left = sparse_conv(mix, spec, w, None)
        right = a * sparse_conv(x, spec, w, None).feats + b * sparse_conv(y, spec, w, None).feats
        assert np.abs(left.feats - right).max() < 1e-4

    def test_adjoint(self):
        rng = np.random.default_rng(6)
        x = random_tensor(rng, 25, 16, 3, scale=1)
        spec = ConvSpec(3, 2, 2, stride=2)
        w = rng.normal(size=spec.weight_shape)
        fwd = sparse_conv(x, spec, w, None)
        y = fwd.with_feats(rng.normal(size=fwd.feats.shape).astype(np.float32))
        spec_t = ConvSpec(2, 3, 2, stride=2, transposed=True)
        w_t = np.transpose(w, (0, 2, 1))
        back = sparse_conv(y, spec_t, w_t, None, out_coords=x.coords)
        lhs = float(np.sum(fwd.feats.astype(np.float64) * y.feats))
        rhs = float(np.sum(x.feats.astype(np.float64) * back.feats))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_dim_mismatch(self):
        x = make([[0, 0, 0]], [[1.0]])
        with pytest.raises(ContractViolation):
            sparse_conv(x, ConvSpec(1, 1, 3), np.ones((5, 1, 1)), None)

    @pytest.mark.parametrize("spec", [ConvSpec(1, 1, 3), ConvSpec(1, 1, 1),
                                      ConvSpec(1, 1, 2, stride=2, transposed=True)])
    def test_unsorted_or_duplicate_target_rejected(self, spec):
        x = make([[0, 0, 0], [0, 0, 1]], [[1.0], [2.0]], scale=1)
        w = np.ones(spec.weight_shape, np.float32)
        for target in ([[0, 0, 3], [0, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 1], [0, 0, 1]]):
            with pytest.raises(ContractViolation):
                sparse_conv(x, spec, w, None, np.array(target))

    @pytest.mark.parametrize("cin,cout", [(0, 3), (2, 0), (-1, 3), (2, -1)])
    def test_channel_widths_below_one_rejected(self, cin, cout):
        with pytest.raises(ContractViolation, match="channel widths"):
            ConvSpec(cin, cout, 3)

    @staticmethod
    def _nan(dtype, payload):
        bits = np.uint32 if dtype == np.float32 else np.uint64
        quiet = 0x7FC00000 if dtype == np.float32 else 0x7FF8000000000000
        return np.array(quiet | payload, dtype=bits).view(dtype)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.sampled_from([np.float32, np.float64]),
           st.sampled_from([1, 3, 5, 64]), st.sampled_from([1, 3, 5, 64]),
           st.sampled_from(["none", "-0.0", "random", "nan-payload"]),
           st.sampled_from(["k1", "k1-other-out", "k3", "k3-other-out", "k3-superset",
                            "solid", "stride2", "children", "partial"]))
    @example(0, 0, np.float32, 3, 5, "random", "k3-other-out")  # an empty input set
    @example(1, 30, np.float64, 3, 5, "nan-payload", "k3")
    @example(2, 0, np.float32, 8, 8, "random", "solid")
    @example(3, 20, np.float64, 3, 5, "nan-payload", "k3-superset")
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bytes_match_fancy_index_loop(self, seed, n, dtype, cin, cout, bias, geometry):
        rng = np.random.default_rng(seed)
        span, lo = int(rng.integers(1, 8)), int(rng.integers(-16, 16))
        if geometry == "solid":
            # inner rows have all 27 pairs, and the centre offset pairs
            # every input row: it multiplies the features without a gather
            coords = cube(lo, span)
        else:
            coords = coord_set(rng, n, span, lo)
        feats = rng.normal(size=(len(coords), cin)).astype(dtype)
        if bias == "nan-payload":
            # a sum of two NaNs keeps one operand's payload, so the bias's
            # and the features' payloads tell the operand order apart
            feats[rng.random(feats.shape) < 0.2] = self._nan(dtype, 2)
            bias = np.full(cout, self._nan(dtype, 1))
        else:
            bias = {"none": None, "-0.0": np.full(cout, -0.0),
                    "random": rng.normal(size=cout)}[bias]
        x = make(coords, feats, scale=1)
        extra = coord_set(rng, int(rng.integers(0, 40)), 2 * span + 2, 2 * lo - 1)
        spec, out = {
            "k1": (ConvSpec(cin, cout, 1), coords),
            "k1-other-out": (ConvSpec(cin, cout, 1), extra),
            "k3": (ConvSpec(cin, cout, 3), coords),
            "k3-other-out": (ConvSpec(cin, cout, 3), extra),
            # another output set on which the centre offset pairs every input row
            "k3-superset": (ConvSpec(cin, cout, 3),
                            joined(coords, extra)),
            "solid": (ConvSpec(cin, cout, 3), coords),
            "stride2": (ConvSpec(cin, cout, 2, stride=2), stride_down_coords(coords)),
            "children": (ConvSpec(cin, cout, 2, stride=2, transposed=True),
                         children_coords(coords)),
            "partial": (ConvSpec(cin, cout, 2, stride=2, transposed=True),
                        joined(children_coords(coords)[::3], extra)),
        }[geometry]
        w = rng.normal(size=spec.weight_shape)
        got = sparse_conv(x, spec, w, bias, out)
        expect = sparse_conv_oracle(x, spec, w, bias, out)
        assert got.feats.dtype == dtype
        assert got.feats.tobytes() == expect.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40),
           st.sampled_from([np.float32, np.float64]),
           st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]), st.booleans(),
           st.sampled_from(["k1", "k3", "k3-other-out", "solid", "stride2", "children",
                            "partial"]))
    @example(0, 0, np.float64, 3, 5, False, "k3-other-out")  # an empty input set
    @example(1, 30, np.float32, 1, 1, True, "k3")
    @example(2, 0, np.float64, 3, 3, True, "solid")
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_backward_bytes_match_fancy_index_loop(self, seed, n, dtype, cin, cout, nans,
                                                   geometry):
        rng = np.random.default_rng(seed)
        span, lo = int(rng.integers(1, 7)), int(rng.integers(-16, 16))
        coords = cube(lo, span) if geometry == "solid" else coord_set(rng, n, span, lo)
        x = make(coords, rng.normal(size=(len(coords), cin)).astype(dtype), scale=1)
        extra = coord_set(rng, int(rng.integers(0, 40)), 2 * span + 2, 2 * lo - 1)
        spec, out = {
            "k1": (ConvSpec(cin, cout, 1), coords),
            "k3": (ConvSpec(cin, cout, 3), coords),
            "k3-other-out": (ConvSpec(cin, cout, 3), extra),
            "solid": (ConvSpec(cin, cout, 3), coords),
            "stride2": (ConvSpec(cin, cout, 2, stride=2), stride_down_coords(coords)),
            "children": (ConvSpec(cin, cout, 2, stride=2, transposed=True),
                         children_coords(coords)),
            "partial": (ConvSpec(cin, cout, 2, stride=2, transposed=True),
                        joined(children_coords(coords)[::3], extra)),
        }[geometry]
        w = rng.normal(size=spec.weight_shape)
        grad_out = rng.normal(size=(len(out), cout)).astype(dtype)
        if nans:
            # two payloads, so a sum of two NaN products shows its operand order
            nan_at = rng.random(grad_out.shape) < 0.2
            second = rng.random(grad_out.shape) < 0.5
            grad_out[nan_at & ~second] = self._nan(dtype, 1)
            grad_out[nan_at & second] = self._nan(dtype, 2)
        got = sparse_conv_backward(x, spec, w, build_kernel_map(x.coords, out, spec), grad_out)
        expect = sparse_conv_backward_oracle(x, spec, w, out, grad_out)
        for g, e in zip(got, expect):
            assert g.dtype == np.float64 and g.tobytes() == e.tobytes()


class TestSumsTable:
    def test_traced_peak_within_table_bound(self):
        rng = np.random.default_rng(21)
        lattice = cube(0, 20)
        x = make(lattice, rng.normal(size=(len(lattice), 4)).astype(np.float32))
        spec = ConvSpec(4, 16, 3)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        b = rng.normal(size=16).astype(np.float32)
        sparse_conv(x, spec, w, b)  # memoizes the plan
        tracemalloc.start()
        try:
            out = sparse_conv(x, spec, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table, the carry, and one offset's gathered input rows and intp
        # index copies, which at a quarter of the output's width fit in one output
        assert peak <= (nn._TABLE_ROWS + 2) * out.feats.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", ["solid", "k3-other-out", "stride2", "children"])
    def test_split_at_every_offset_matches_one_table(self, dtype, geometry):
        rng = np.random.default_rng(31)
        coords = cube(-3, 6) if geometry == "solid" else coord_set(rng, 120, 7, -3)
        feats = rng.normal(size=(len(coords), 3)).astype(dtype)
        feats[rng.random(feats.shape) < 0.2] = TestSparseConv._nan(dtype, 2)
        spec, out = {
            "solid": (ConvSpec(3, 5, 3), coords),
            "k3-other-out": (ConvSpec(3, 5, 3), coord_set(rng, 80, 9, -4)),
            "stride2": (ConvSpec(3, 5, 2, stride=2), stride_down_coords(coords)),
            "children": (ConvSpec(3, 5, 2, stride=2, transposed=True), children_coords(coords)),
        }[geometry]
        pairs = build_kernel_map(coords, out, spec).pairs
        w = rng.normal(size=spec.weight_shape).astype(dtype)
        init = np.full((1, 5), TestSparseConv._nan(dtype, 1))
        split = nn._Plan(pairs, len(out), cap=0)
        whole = nn._Plan(pairs, len(out), cap=sum(i.size for i, _ in pairs))
        assert len(split.segments) == sum(i.size > 0 for i, _ in pairs) > 1
        assert len(whole.segments) == 1
        for plan in (split, whole):
            for steps, last in plan.segments:
                assert last.dtype == np.int32
                assert all(r.dtype == p.dtype == np.int32 for _, r, _, _, p in steps)
        got = nn._accumulate(split, feats, w, init)
        assert got.dtype == dtype
        assert got.tobytes() == nn._accumulate(whole, feats, w, init).tobytes()

    def test_table_past_int32_rejected(self):
        # 2**31 pairs in one offset, broadcast from one element: no allocation
        rows = np.broadcast_to(np.intp(0), (2**31,))
        with pytest.raises(ContractViolation, match="2\\*\\*31"):
            nn._Plan([(rows, rows)], 1)
        with pytest.raises(ContractViolation, match="2\\*\\*31"):
            nn._Plan([(np.array([2**31]), np.array([0]))], 1)


class TestActivationsAndBlocks:
    def test_relu(self):
        x = make([[0, 0, 0], [1, 0, 0]], [[-2.0], [3.0]])
        assert relu(x).feats[:, 0].tolist() == [0.0, 3.0]
        allneg = make([[0, 0, 0]], [[-1.0, -2.0]])
        assert np.all(relu(allneg).feats == 0.0)
        rng = np.random.default_rng(0)
        t = random_tensor(rng, 15, 8, 4)
        assert np.array_equal(relu(t).feats, np.maximum(t.feats, 0))

    def test_irn_zero_weights_identity(self):
        rng = np.random.default_rng(1)
        x = random_tensor(rng, 12, 8, 8)
        w, _ = irn_weights(rng, 8, zero=True)
        y = irn_block(x, w)
        assert np.array_equal(y.feats, x.feats)
        assert np.array_equal(y.coords, x.coords)

    @pytest.mark.parametrize("dtype, nan_bits", [
        (np.float32, (np.uint32, 0x7FC00000, 1 << 22)),
        (np.float64, (np.uint64, 0x7FF8000000000000, 1 << 51)),
    ], ids=["float32", "float64"])
    def test_irn_residual_add_keeps_bytes(self, store, dtype, nan_bits):
        # rec.up1.irn1 on seeded features, some rows holding two NaNs with
        # different payloads, so that a branch output carries a payload other
        # than the input's: the output is byte for byte the input plus its
        # concatenated branches, in that order, and the input is unchanged
        rng = np.random.default_rng(17)
        coords = coord_set(rng, 400, 12, 0)
        feats = rng.normal(size=(len(coords), 32)).astype(dtype)
        uint, quiet, payloads = nan_bits
        bits = feats.view(uint)
        rows = np.arange(0, len(coords), 37)
        for cols in (rows % 32, (rows + 11) % 32):
            bits[rows, cols] = quiet + rng.integers(1, payloads, rows.size).astype(uint)
        bits[rows[::2], rows[::2] % 32] |= uint(1) << uint(8 * bits.itemsize - 1)
        x = make(coords, feats, 1)
        before = x.feats.tobytes()
        w = nn.prefixed(store, "rec.up1.irn1")
        branches = [nn._conv(nn._conv(x, w, "b0c1"), w, "b0c2"),
                    nn._conv(nn._conv(x, w, "b1c1"), w, "b1c2"),
                    nn._conv(x, w, "b2c1")]
        expect = x.feats + np.concatenate([b.feats for b in branches], axis=1)
        y = irn_block(x, w)
        assert y.feats.dtype == dtype and np.isnan(y.feats).any()
        assert y.feats.tobytes() == expect.tobytes()
        assert x.feats.tobytes() == before

    def test_irn_matches_dense_composite(self):
        rng = np.random.default_rng(2)
        x = random_tensor(rng, 10, 6, 8)
        w, specs = irn_weights(rng, 8)
        y = irn_block(x, w)
        assert np.array_equal(y.coords, x.coords)
        parts = []
        for branch in (("b0c1", "b0c2"), ("b1c1", "b1c2"), ("b2c1",)):
            cur_coords, cur_feats = x.coords, x.feats
            for name in branch:
                cur_feats = dense_conv_oracle(
                    cur_coords, cur_feats, w[name + ".weight"], w[name + ".bias"],
                    specs[name], cur_coords)
            parts.append(cur_feats)
        expect = x.feats + np.concatenate(parts, axis=1)
        assert np.abs(y.feats - expect).max() < 1e-4

    def test_irn_branch_widths_must_add_up(self):
        rng = np.random.default_rng(5)
        x = random_tensor(rng, 12, 6, 8)
        w, _ = irn_weights(rng, 8)
        w["b2c1.weight"] = rng.normal(size=(1, 8, 3)).astype(np.float32)
        w["b2c1.bias"] = np.zeros(3, np.float32)
        with pytest.raises(ContractViolation, match="branch widths"):
            irn_block(x, w)

    def test_conv_geometry_comes_from_the_weight(self):
        rng = np.random.default_rng(6)
        x = random_tensor(rng, 20, 6, 2, scale=1)
        # an 8-offset kernel is transposed exactly when it is given targets
        for offsets, spec, out in [
            (1, ConvSpec(2, 3, 1), None),
            (27, ConvSpec(2, 3, 3), None),
            (8, ConvSpec(2, 3, 2, stride=2), None),
            (8, ConvSpec(2, 3, 2, stride=2, transposed=True), children_coords(x.coords)),
        ]:
            w = {"l.weight": rng.normal(size=(offsets, 2, 3)), "l.bias": rng.normal(size=3)}
            got = nn._conv(x, w, "l", out)
            expect = sparse_conv(x, spec, w["l.weight"], w["l.bias"], out)
            assert got.feats.tobytes() == expect.feats.tobytes()
        w = {"l.weight": np.zeros((5, 2, 3)), "l.bias": np.zeros(3)}
        with pytest.raises(ContractViolation):
            nn._conv(x, w, "l", x.coords)

    def test_rn_zero_weights_identity(self):
        rng = np.random.default_rng(3)
        x = random_tensor(rng, 10, 6, 4)
        w = {
            "c1.weight": np.zeros((27, 4, 4), np.float32),
            "c1.bias": np.zeros(4, np.float32),
            "c2.weight": np.zeros((27, 4, 4), np.float32),
            "c2.bias": np.zeros(4, np.float32),
        }
        assert np.array_equal(rn_block(x, w).feats, x.feats)

    def test_rn_matches_dense_composite(self):
        rng = np.random.default_rng(4)
        x = random_tensor(rng, 8, 6, 4)
        w = {
            "c1.weight": rng.normal(size=(27, 4, 4)).astype(np.float32),
            "c1.bias": rng.normal(size=4).astype(np.float32),
            "c2.weight": rng.normal(size=(27, 4, 4)).astype(np.float32),
            "c2.bias": rng.normal(size=4).astype(np.float32),
        }
        y = rn_block(x, w)
        spec = ConvSpec(4, 4, 3)
        h = dense_conv_oracle(x.coords, x.feats, w["c1.weight"], w["c1.bias"], spec, x.coords)
        h = np.maximum(h, 0)
        h = dense_conv_oracle(x.coords, h, w["c2.weight"], w["c2.bias"], spec, x.coords)
        assert np.abs(y.feats - (x.feats + h)).max() < 1e-4


class TestClassifyAndPrune:
    def test_zero_weights_give_half(self):
        x = make([[0, 0, 0], [1, 1, 1]], [[1.0, 2.0], [3.0, 4.0]])
        w = {"weight": np.zeros((1, 2, 1), np.float32), "bias": np.zeros(1, np.float32)}
        assert np.allclose(classify_occupancy(x, w), 0.5)

    def test_large_bias_saturates(self):
        x = make([[0, 0, 0]], [[0.0]])
        w = {"weight": np.zeros((1, 1, 1), np.float32), "bias": np.full(1, 50.0, np.float32)}
        assert classify_occupancy(x, w)[0] > 1 - 1e-9

    def test_seeded_matches_scalar_formula(self):
        rng = np.random.default_rng(9)
        x = random_tensor(rng, 10, 5, 3)
        w = {"weight": rng.normal(size=(1, 3, 1)).astype(np.float32),
             "bias": rng.normal(size=1).astype(np.float32)}
        probs = classify_occupancy(x, w)
        logits = x.feats @ w["weight"][0] + w["bias"]
        assert np.allclose(probs, 1 / (1 + np.exp(-logits[:, 0].astype(np.float64))), atol=1e-7)

    def test_prune_keeps_top(self):
        x = make([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[1.0], [2.0], [3.0]])
        y = adaptive_prune(x, np.array([0.9, 0.8, 0.1]), 2)
        assert y.coords.tolist() == [[0, 0, 0], [1, 0, 0]]

    def test_prune_keep_ge_n_is_identity(self):
        x = make([[0, 0, 0], [1, 0, 0]], [[1.0], [2.0]])
        y = adaptive_prune(x, np.array([0.5, 0.5]), 10)
        assert np.array_equal(y.coords, x.coords)

    def test_prune_tie_breaks_lexicographic(self):
        x = make([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[1.0], [2.0], [3.0]])
        y = adaptive_prune(x, np.array([0.5, 0.5, 0.5]), 2)
        assert y.coords.tolist() == [[0, 0, 1], [0, 1, 0]]

    def test_prune_idempotent(self):
        rng = np.random.default_rng(10)
        x = random_tensor(rng, 20, 8, 1)
        p = rng.uniform(size=x.n)
        once = adaptive_prune(x, p, 7)
        assert once.n == min(7, x.n)
        twice = adaptive_prune(once, np.ones(once.n), 7)
        assert np.array_equal(once.coords, twice.coords)
