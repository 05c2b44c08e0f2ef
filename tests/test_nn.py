import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_conv_oracle, kernel_map_oracle
from voxcodec import nn
from voxcodec.codec import _children
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
)
from voxcodec.sparse import SparseTensor, pack_keys, stride_down_coords, unpack_keys


def make(coords, feats, scale=0):
    return SparseTensor.build(coords, feats, scale)


def random_tensor(rng, n, span, channels, scale=0):
    coords = list({tuple(rng.integers(0, span, 3)) for _ in range(n)})
    feats = rng.normal(size=(len(coords), channels)).astype(np.float32)
    return SparseTensor.build(np.array(coords), feats, scale)


def coord_set(rng, n, span, lo):
    """Up to n distinct lex-sorted coordinates in [lo, lo + span)^3."""
    return unpack_keys(np.unique(pack_keys(rng.integers(lo, lo + span, size=(n, 3)))))


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
        with pytest.raises(ContractViolation):
            build_kernel_map(np.array([[0, 0, 0]]), np.array([[1, 1, 1]]),
                             ConvSpec(1, 1, 2, stride=2))

    @pytest.mark.parametrize("edge", [(1 << 20) - 1, -(1 << 20)])
    def test_neighbour_outside_21_bits_rejected(self, edge):
        coords = np.array([[0, edge, 0]])
        build_kernel_map(coords, coords, ConvSpec(1, 1, 1))  # the voxel itself is in range
        for build in (build_kernel_map, kernel_map_oracle):
            with pytest.raises(ContractViolation):
                build(coords, coords, ConvSpec(1, 1, 3))

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
            "children": (ConvSpec(1, 1, 2, stride=2, transposed=True), _children(coords)),
            "superset": (ConvSpec(1, 1, 2, stride=2, transposed=True),
                         unpack_keys(np.union1d(pack_keys(_children(coords)), pack_keys(extra)))),
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
        assert y.kernel_maps is x.kernel_maps
        sparse_conv(y, spec, w, None)
        assert built == [3]

    def test_memo_tells_output_sets_apart(self):
        rng = np.random.default_rng(13)
        x = random_tensor(rng, 40, 6, 2, scale=1)
        for spec, outs in [
            (ConvSpec(2, 3, 3), [x.coords, x.coords[1::2], x.coords]),
            (ConvSpec(2, 3, 2, stride=2, transposed=True),
             [_children(x.coords), _children(x.coords)[::3], _children(x.coords)]),
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
            out = _children(x.coords)[::2]
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
        for offsets, spec, out, transposed in [
            (1, ConvSpec(2, 3, 1), None, False),
            (27, ConvSpec(2, 3, 3), None, False),
            (8, ConvSpec(2, 3, 2, stride=2), None, False),
            (8, ConvSpec(2, 3, 2, stride=2, transposed=True), _children(x.coords), True),
        ]:
            w = {"l.weight": rng.normal(size=(offsets, 2, 3)), "l.bias": rng.normal(size=3)}
            got = nn._conv(x, w, "l", out, transposed=transposed)
            expect = sparse_conv(x, spec, w["l.weight"], w["l.bias"], out)
            assert got.feats.tobytes() == expect.feats.tobytes()
        for offsets, transposed in [(5, False), (27, True)]:
            w = {"l.weight": np.zeros((offsets, 2, 3)), "l.bias": np.zeros(3)}
            with pytest.raises(ContractViolation):
                nn._conv(x, w, "l", x.coords, transposed=transposed)

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
