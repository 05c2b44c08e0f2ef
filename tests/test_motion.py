import numpy as np
import pytest

from oracles import dense_conv_oracle
from voxcodec import entropy as ent
from voxcodec import motion as mo
from voxcodec.errors import ContractViolation
from voxcodec.knn import knn
from voxcodec.nn import ConvSpec
from voxcodec.sparse import SparseTensor, stride_down_coords


def make(coords, feats, scale=2):
    return SparseTensor.build(coords, feats, scale)


def zero_weights(names_specs):
    w = {}
    for name, spec in names_specs:
        w[name + ".weight"] = np.zeros(spec.weight_shape, np.float32)
        w[name + ".bias"] = np.zeros(spec.out_channels, np.float32)
    return w


class TestAdaptiveInterpolate:
    def test_distances_equal_knn_bytes(self):
        # interpolate_over recomputes the squared distances of knn's
        # neighbours; both add the squared x, y, z offsets in the same order
        rng = np.random.default_rng(3)
        coords = np.unique(rng.integers(-40, 40, size=(600, 3)), axis=0)
        motion = rng.normal(0, 3, size=(400, 3)).astype(np.float32)
        translated = rng.integers(-40, 40, size=(400, 3)) + motion.astype(np.float64)
        idx, d2 = knn(translated, coords, 3)
        feats = rng.normal(size=(len(coords), 4))
        d2_over = mo.interpolate_over(translated, coords, feats, idx, 3.0)[3]
        assert d2_over.tobytes() == d2.tobytes()

    def test_coincident_point_limit(self):
        ref = make([[0, 0, 0], [4, 0, 0], [0, 4, 0]], [[10.0], [20.0], [30.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert out.feats[0, 0] == pytest.approx(10.0, abs=1e-5)

    def test_weight_sum_equals_alpha_gives_idwa_mean(self):
        # three neighbours at squared distance 1, features 1,2,3, alpha=3:
        # weight sum is exactly alpha, so the result is the plain mean = 2
        ref = make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1.0], [2.0], [3.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert out.feats[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_shrinkage_branch(self):
        # squared distances 2 each: weight sum 1.5 < alpha=3, so the convex
        # average shrinks by 1.5/3: (0.5*(1+2+3))/3 = 1
        ref = make([[1, 1, 0], [1, 0, 1], [0, 1, 1]], [[1.0], [2.0], [3.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert out.feats[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_far_neighbours_vanish(self):
        ref = make([[1000, 1000, 1000], [1001, 1000, 1000], [1000, 1001, 1000]],
                   [[5.0], [7.0], [9.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert np.linalg.norm(out.feats) < 1e-3

    def test_zero_limit_with_huge_distances(self):
        # documented limit: distances >= 1e6 drive the prediction to zero
        far = 2 * 10**5  # squared distance 3*(2e5)^2 = 1.2e11 >= 1e6
        ref = make([[far, far, far], [far + 1, far, far], [far, far + 1, far]],
                   [[100.0], [200.0], [300.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert np.all(np.abs(out.feats) < 1e-3)

    def test_norm_bounded_by_largest_neighbour(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            coords = sorted({tuple(rng.integers(0, 8, 3)) for _ in range(12)})
            ref = make(list(coords), rng.normal(size=(len(coords), 4)).astype(np.float32))
            mc = sorted({tuple(rng.integers(0, 8, 3)) for _ in range(5)})
            m = make(list(mc), rng.uniform(-1, 1, size=(len(mc), 3)).astype(np.float32))
            out = mo.adaptive_interpolate(m, ref, 3.0)
            from voxcodec.knn import knn

            idx, _ = knn(m.coords + m.feats, ref, 3)
            for row, nb in zip(out.feats, idx):
                assert np.linalg.norm(row) <= np.linalg.norm(ref.feats[nb], axis=1).max() + 1e-5

    def test_shrinkage_monotone(self):
        # weight sum below alpha scales the weights by sum/alpha < 1
        ref = make([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[1.0], [1.0], [1.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        s = 3 * (1 / 4)
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert out.feats[0, 0] == pytest.approx(s / 3.0, abs=1e-6)

    def test_empty_reference_rejected(self):
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        with pytest.raises(ContractViolation):
            mo.adaptive_interpolate(m, SparseTensor.empty(1, 2), 3.0)

    def test_bad_alpha_rejected(self):
        ref = make([[0, 0, 0]], [[1.0]])
        m = make([[0, 0, 0]], np.zeros((1, 3), np.float32))
        # NaN fails "alpha > 0" too; True would pass as 1; 10**400 overflows a float
        for alpha in (0.0, -1.0, float("nan"), float("-inf"), "3", None, True, 10**400):
            with pytest.raises(ContractViolation, match="alpha must be positive"):
                mo.adaptive_interpolate(m, ref, alpha)

    def test_prediction_shares_the_motion_coordinates(self):
        ref = make([[0, 0, 0], [4, 0, 0]], [[1.0], [2.0]])
        m = make([[0, 0, 0], [3, 0, 0]], np.zeros((2, 3), np.float32))
        out = mo.adaptive_interpolate(m, ref, 3.0)
        assert out.cset is m.cset


class TestFlowEmbedding:
    def _weights(self, rng=None):
        specs = [("flow.conv1", ConvSpec(8, 4, 3)), ("flow.conv2", ConvSpec(4, 4, 3))]
        if rng is None:
            return zero_weights(specs)
        w = {}
        for name, spec in specs:
            w[name + ".weight"] = rng.normal(size=spec.weight_shape).astype(np.float32)
            w[name + ".bias"] = rng.normal(size=spec.out_channels).astype(np.float32)
        return w

    def test_empty_previous_zero_pads(self):
        y = make([[0, 0, 0], [1, 0, 0]], np.ones((2, 4), np.float32))
        prev = SparseTensor.empty(4, 2)
        out = mo.flow_embedding(y, prev, self._weights())
        assert np.array_equal(out.coords, y.coords)

    def test_identical_frames_share_coords(self):
        y = make([[0, 0, 0], [2, 2, 2]], np.ones((2, 4), np.float32))
        out = mo.flow_embedding(y, y, self._weights())
        assert np.array_equal(out.coords, y.coords)

    def test_seeded_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        ca = sorted({tuple(rng.integers(0, 5, 3)) for _ in range(6)})
        cb = sorted({tuple(rng.integers(0, 5, 3)) for _ in range(6)})
        y = make(list(ca), rng.normal(size=(len(ca), 4)).astype(np.float32))
        prev = make(list(cb), rng.normal(size=(len(cb), 4)).astype(np.float32))
        w = self._weights(rng)
        out = mo.flow_embedding(y, prev, w)
        from voxcodec.sparse import concatenate

        cat = concatenate(y, prev)
        h = dense_conv_oracle(cat.coords, cat.feats, w["flow.conv1.weight"],
                              w["flow.conv1.bias"], ConvSpec(8, 4, 3), cat.coords)
        h = np.maximum(h, 0)
        h = dense_conv_oracle(cat.coords, h, w["flow.conv2.weight"],
                              w["flow.conv2.bias"], ConvSpec(4, 4, 3), cat.coords)
        assert np.abs(out.feats - h).max() < 1e-4

    def test_scale_mismatch_rejected(self):
        y = make([[0, 0, 0]], np.ones((1, 4), np.float32), scale=2)
        prev = make([[0, 0, 0]], np.ones((1, 4), np.float32), scale=3)
        with pytest.raises(ContractViolation):
            mo.flow_embedding(y, prev, self._weights())


def _motion_stack_weights(rng=None, c=4):
    specs = [
        ("fuse.down.conv", ConvSpec(c, c, 2, stride=2)),
        ("fuse.rn1.c1", ConvSpec(c, c, 3)), ("fuse.rn1.c2", ConvSpec(c, c, 3)),
        ("fuse.rn2.c1", ConvSpec(c, c, 3)), ("fuse.rn2.c2", ConvSpec(c, c, 3)),
        ("fuse.up.conv", ConvSpec(c, c, 2, stride=2, transposed=True)),
        ("fuse.fine.conv", ConvSpec(c, c, 2, stride=2)),
        ("mot.enc.conv", ConvSpec(c, c, 2, stride=2)),
        ("mot.dec.conv", ConvSpec(c, c, 2, stride=2, transposed=True)),
        ("mfield.rn1.c1", ConvSpec(c, c, 3)), ("mfield.rn1.c2", ConvSpec(c, c, 3)),
        ("mfield.rn2.c1", ConvSpec(c, c, 3)), ("mfield.rn2.c2", ConvSpec(c, c, 3)),
        ("mfield.coarse_head", ConvSpec(c, 3, 1)),
        ("mfield.up.conv", ConvSpec(c, c, 2, stride=2, transposed=True)),
        ("mfield.fine_head", ConvSpec(c, 3, 1)),
        ("mfield.coarse_up.conv", ConvSpec(3, 3, 2, stride=2, transposed=True)),
    ]
    if rng is None:
        return zero_weights(specs)
    w = {}
    for name, spec in specs:
        w[name + ".weight"] = (0.3 * rng.normal(size=spec.weight_shape)).astype(np.float32)
        w[name + ".bias"] = (0.1 * rng.normal(size=spec.out_channels)).astype(np.float32)
    return w


class TestFuseFlow:
    def test_zero_network_gives_zero(self):
        rng = np.random.default_rng(2)
        coords = sorted({tuple(rng.integers(0, 6, 3)) for _ in range(8)})
        e_o = make(list(coords), rng.normal(size=(len(coords), 4)).astype(np.float32))
        out = mo.fuse_flow(e_o, _motion_stack_weights())
        assert out.scale == 3
        assert np.all(out.feats == 0.0)

    def test_single_point_coords(self):
        e_o = make([[5, 3, 7]], np.ones((1, 4), np.float32))
        out = mo.fuse_flow(e_o, _motion_stack_weights())
        assert out.coords.tolist() == [[2, 1, 3]]

    def test_seeded_matches_stagewise_oracle(self):
        rng = np.random.default_rng(3)
        coords = sorted({tuple(rng.integers(0, 6, 3)) for _ in range(10)})
        e_o = make(list(coords), rng.normal(size=(len(coords), 4)).astype(np.float32))
        w = _motion_stack_weights(rng)
        got = mo.fuse_flow(e_o, w)

        from voxcodec.nn import rn_block, sparse_conv

        def conv(x, name, spec, out=None):
            return sparse_conv(x, spec, w[name + ".weight"], w[name + ".bias"], out)

        coarse = conv(e_o, "fuse.down.conv", ConvSpec(4, 4, 2, stride=2))
        for p in ("fuse.rn1", "fuse.rn2"):
            coarse = rn_block(coarse, {k: w[f"{p}.{k}"] for k in
                                       ("c1.weight", "c1.bias", "c2.weight", "c2.bias")})
        up = conv(coarse, "fuse.up.conv", ConvSpec(4, 4, 2, stride=2, transposed=True), e_o.coords)
        fine = conv(e_o.with_feats(e_o.feats - up.feats), "fuse.fine.conv",
                    ConvSpec(4, 4, 2, stride=2))
        assert np.array_equal(got.coords, coarse.coords)
        assert np.abs(got.feats - (coarse.feats + fine.feats)).max() < 1e-5


class TestMotionCompression:
    def test_zero_embedding_roundtrip(self):
        rng = np.random.default_rng(4)
        model = ent.build_table_from_pmf([np.ones(5)] * 4, [-2] * 4, escape_mass=1e-3)
        coords = sorted({tuple(rng.integers(0, 8, 3)) for _ in range(10)})
        e_t = make(list(coords), np.zeros((len(coords), 4), np.float32), scale=3)
        data, symbols = mo.compress_motion(e_t, model, _motion_stack_weights())
        assert np.all(symbols == 0)
        back = ent.range_decode(data, model, symbols.shape[0])
        assert np.array_equal(back, symbols)

    def test_seeded_roundtrip_bit_exact(self):
        rng = np.random.default_rng(5)
        model = ent.build_table_from_pmf([np.ones(9)] * 4, [-4] * 4, escape_mass=1e-3)
        coords = sorted({tuple(rng.integers(0, 8, 3)) for _ in range(12)})
        e_t = make(list(coords), (2 * rng.normal(size=(len(coords), 4))).astype(np.float32),
                   scale=3)
        w = _motion_stack_weights(rng)
        data, symbols = mo.compress_motion(e_t, model, w)
        back = ent.range_decode(data, model, symbols.shape[0])
        assert np.array_equal(back, symbols)
        # the embedding rebuilt from the decoded integers is the one rebuilt
        # from the encoder's own symbols
        c4 = stride_down_coords(e_t.coords)
        e_hat = mo.decode_motion_latent(symbols, c4, e_t.coords, e_t.scale, w)
        again = mo.decode_motion_latent(back, c4, e_t.coords, e_t.scale, w)
        assert np.array_equal(e_hat.coords, e_t.coords)
        assert np.array_equal(again.feats, e_hat.feats)

    def test_bytes_close_to_estimate(self):
        rng = np.random.default_rng(6)
        model = ent.build_table_from_pmf([np.ones(17)] * 4, [-8] * 4, escape_mass=1e-3)
        symbols = rng.integers(-8, 9, size=(3000, 4))
        data = ent.range_encode(symbols, model)
        est = ent.estimate_bits(symbols, model)
        assert abs(len(data) * 8 - est) <= 0.01 * est + 16


class TestRecoverMotion:
    def test_zero_weights_zero_motion(self):
        rng = np.random.default_rng(7)
        coords = sorted({tuple(rng.integers(0, 4, 3)) for _ in range(6)})
        e_hat = make(list(coords), rng.normal(size=(len(coords), 4)).astype(np.float32),
                     scale=3)
        target = np.array(sorted({tuple(rng.integers(0, 8, 3)) for _ in range(12)}))
        m = mo.recover_motion(e_hat, target.astype(np.int32), _motion_stack_weights())
        assert np.all(m.feats == 0.0)
        assert np.array_equal(m.coords, np.array(sorted(map(tuple, target))))

    def test_targets_preserved_with_random_weights(self):
        rng = np.random.default_rng(8)
        coords = sorted({tuple(rng.integers(0, 4, 3)) for _ in range(6)})
        e_hat = make(list(coords), rng.normal(size=(len(coords), 4)).astype(np.float32),
                     scale=3)
        target = np.array(sorted({tuple(rng.integers(0, 8, 3)) for _ in range(15)}),
                          dtype=np.int32)
        m = mo.recover_motion(e_hat, target, _motion_stack_weights(rng))
        assert m.channels == 3
        assert np.array_equal(m.coords, target)
        assert m.scale == 2


class TestPredict:
    def test_identity_frames_zero_weights(self):
        # zero motion nets give m=0; every coordinate finds itself in the
        # reference, so the prediction collapses to the reference features
        rng = np.random.default_rng(9)
        model = ent.build_table_from_pmf([np.ones(5)] * 4, [-2] * 4, escape_mass=1e-3)
        coords = sorted({tuple(rng.integers(0, 8, 3)) for _ in range(20)})
        y = make(list(coords), rng.normal(size=(len(coords), 4)).astype(np.float32))
        w = {**_motion_stack_weights(),
             **zero_weights([("flow.conv1", ConvSpec(8, 4, 3)),
                             ("flow.conv2", ConvSpec(4, 4, 3))])}
        pred, data, symbols = mo.predict_latent(y, y, model, w, alpha=3.0)
        assert np.array_equal(pred.coords, y.coords)
        assert np.abs(pred.feats - y.feats).max() < 1e-5
        # the (near-empty) motion stream decodes deterministically
        assert np.all(symbols == 0)
        for _ in range(2):
            assert np.array_equal(ent.range_decode(data, model, symbols.shape[0]),
                                  symbols)

    def test_empty_previous_rejected(self):
        y = make([[0, 0, 0]], np.ones((1, 4), np.float32))
        model = ent.build_table_from_pmf([np.ones(3)] * 4, [-1] * 4)
        with pytest.raises(ContractViolation):
            mo.predict_latent(y, SparseTensor.empty(4, 2), model, {}, 3.0)
