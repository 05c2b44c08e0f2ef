import numpy as np
import pytest

from oracles import dense_conv_oracle
from voxcodec import codec, synthetic
from voxcodec.errors import ContractViolation, DecodeError, MissingReference
from voxcodec.nn import ConvSpec
from voxcodec.sparse import PointCloudFrame, SparseTensor, stride_down_coords


@pytest.fixture(scope="module")
def small_frames():
    return synthetic.make_rigid_sequence(800, 2, 2, 7, seed=42)


class TestFeatureExtract:
    def test_coords_are_double_floor_div(self, store, small_frames):
        y = codec.feature_extract(small_frames[0], store)
        expect = stride_down_coords(stride_down_coords(small_frames[0].points.coords))
        assert np.array_equal(y.coords, expect)
        assert y.scale == 2 and y.channels == 64

    def test_single_point_frame(self, store):
        frame = PointCloudFrame.from_coords([[9, 6, 3]], 5)
        y = codec.feature_extract(frame, store)
        assert y.n == 1
        assert y.coords.tolist() == [[2, 1, 0]]

    def test_empty_frame_rejected(self, store):
        frame = PointCloudFrame.from_coords([[0, 0, 0]], 4)
        empty = PointCloudFrame(SparseTensor.empty(1, 0), 4)
        with pytest.raises(ContractViolation):
            codec.feature_extract(empty, store)
        assert frame.n == 1  # sanity

    def test_seeded_crop_matches_dense_oracle(self, store):
        # one downsample block on a 16^3 crop, stage by stage
        rng = np.random.default_rng(0)
        coords = np.array(sorted({tuple(rng.integers(0, 16, 3)) for _ in range(40)}))
        frame = PointCloudFrame.from_coords(coords, 4)
        y = codec.feature_extract(frame, store)

        spec = ConvSpec(1, 32, 2, stride=2)
        c1 = stride_down_coords(frame.points.coords)
        h = dense_conv_oracle(frame.points.coords, frame.points.feats,
                              store["fe.down1.conv.weight"], store["fe.down1.conv.bias"],
                              spec, c1)
        for i in (1, 2, 3):
            parts = []
            for branch in (("b0c1", "b0c2"), ("b1c1", "b1c2"), ("b2c1",)):
                cur = h
                for name in branch:
                    wname = f"fe.down1.irn{i}.{name}"
                    k = 1 if name in ("b0c1", "b2c1") else 3
                    cin = cur.shape[1]
                    cout = store[wname + ".weight"].shape[2]
                    cur = dense_conv_oracle(c1, cur, store[wname + ".weight"],
                                            store[wname + ".bias"], ConvSpec(cin, cout, k), c1)
                parts.append(cur)
            h = h + np.concatenate(parts, axis=1)
        spec2 = ConvSpec(32, 64, 2, stride=2)
        c2 = stride_down_coords(c1)
        h2 = dense_conv_oracle(c1, h, store["fe.down2.conv.weight"],
                               store["fe.down2.conv.bias"], spec2, c2)
        for i in (1, 2, 3):
            parts = []
            for branch in (("b0c1", "b0c2"), ("b1c1", "b1c2"), ("b2c1",)):
                cur = h2
                for name in branch:
                    wname = f"fe.down2.irn{i}.{name}"
                    k = 1 if name in ("b0c1", "b2c1") else 3
                    cin = cur.shape[1]
                    cout = store[wname + ".weight"].shape[2]
                    cur = dense_conv_oracle(c2, cur, store[wname + ".weight"],
                                            store[wname + ".bias"], ConvSpec(cin, cout, k), c2)
                parts.append(cur)
            h2 = h2 + np.concatenate(parts, axis=1)
        assert np.abs(y.feats - h2).max() < 2e-3


class TestResidualCompression:
    def test_zero_residual_minimal_stream(self, store, models, small_frames):
        y = codec.feature_extract(small_frames[0], store)
        zero = y.with_feats(np.zeros_like(y.feats))
        data, r_hat, symbols = codec.compress_residual(zero, models["residual"], store)
        # encoder is linear, so a zero residual maps to all-zero symbols
        assert np.all(symbols == 0)
        assert np.array_equal(r_hat.coords, y.coords)

    def test_latent_roundtrip_exact(self, store, models, small_frames):
        from voxcodec import entropy as ent

        y = codec.feature_extract(small_frames[0], store)
        data, r_hat, symbols = codec.compress_residual(y, models["residual"], store)
        back = ent.range_decode(data, models["residual"], symbols.shape[0])
        assert np.array_equal(back, symbols)

    def test_bytes_close_to_estimate(self, store, models, small_frames):
        from voxcodec import entropy as ent

        y = codec.feature_extract(small_frames[0], store)
        data, _, symbols = codec.compress_residual(y, models["residual"], store)
        est = ent.estimate_bits(symbols, models["residual"])
        assert abs(len(data) * 8 - est) <= 0.01 * est + 16 * 8


class TestReconstruct:
    def test_candidates_are_children(self, store):
        y = SparseTensor.build([[3, 2, 1]], np.random.default_rng(0).normal(size=(1, 64)).astype(np.float32), 2)
        frame, probs = codec.reconstruct(y, 8, 64, store, 7)
        p1, cand1, scale1 = probs[0]
        assert cand1.shape == (8, 3)
        expect = sorted((6 + dx, 4 + dy, 2 + dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1))
        assert [tuple(c) for c in cand1] == expect

    def test_keep_counts_clamp(self, store):
        y = SparseTensor.build([[1, 1, 1]], np.ones((1, 64), np.float32), 2)
        frame, _ = codec.reconstruct(y, 100, 100000, store, 6)
        assert frame.n == 64  # 8 children then all their children

    def test_zero_keep_gives_empty(self, store):
        y = SparseTensor.build([[1, 1, 1]], np.ones((1, 64), np.float32), 2)
        frame, _ = codec.reconstruct(y, 0, 0, store, 6)
        assert frame.n == 0


class TestContainer:
    def test_roundtrip(self):
        bs = codec.FrameBitstream(codec.FRAME_P, 7, 5, 1234, 567,
                                  [(codec.SUB_COORDS, b"abc"),
                                   (codec.SUB_MOTION, b""),
                                   (codec.SUB_RESIDUAL, b"\x00\x01\x02")])
        back = codec.parse(codec.serialize(bs))
        assert back == bs

    def test_bad_magic(self):
        with pytest.raises(DecodeError):
            codec.parse(b"XXXX" + b"\x00" * 20)

    def test_truncated_payload(self):
        bs = codec.FrameBitstream(codec.FRAME_I, 7, 3, 10, 5, [(codec.SUB_COORDS, b"abcdef")])
        data = codec.serialize(bs)
        with pytest.raises(DecodeError):
            codec.parse(data[:-2])

    def test_trailing_garbage(self):
        bs = codec.FrameBitstream(codec.FRAME_I, 7, 3, 10, 5, [(codec.SUB_COORDS, b"abc")])
        with pytest.raises(DecodeError):
            codec.parse(codec.serialize(bs) + b"zz")


class TestEndToEnd:
    def test_intra_roundtrip_counts(self, store, models, small_frames):
        frame = small_frames[0]
        bs, enc = codec.encode_intra(frame, models, store)
        assert enc.decoded.n == frame.n
        dec = codec.decode(codec.parse(codec.serialize(bs)), None, models, store)
        assert dec.decoded.n == frame.n
        assert np.array_equal(dec.decoded.points.coords, enc.decoded.points.coords)

    def test_intra_deterministic_bytes(self, store, models, small_frames):
        b1 = codec.serialize(codec.encode_intra(small_frames[0], models, store)[0])
        b2 = codec.serialize(codec.encode_intra(small_frames[0], models, store)[0])
        assert b1 == b2

    def test_intra_bpp_accounting(self, store, models, small_frames):
        from voxcodec.metrics import bpp

        frame = small_frames[0]
        bs, _ = codec.encode_intra(frame, models, store)
        assert bpp(8 * bs.payload_bytes(), frame.n) == pytest.approx(
            8 * bs.payload_bytes() / frame.n)

    def test_two_frame_closed_loop(self, store, models, small_frames):
        f0, f1 = small_frames
        bs0, enc0 = codec.encode_intra(f0, models, store)
        bs1, enc1 = codec.encode_inter(f1, enc0.reference_latent, models, store, alpha=3.0)
        dec0 = codec.decode(codec.parse(codec.serialize(bs0)), None, models, store)
        dec1 = codec.decode(codec.parse(codec.serialize(bs1)), dec0.reference_latent,
                            models, store, alpha=3.0)
        # encoder- and decoder-side latents agree bit-exactly
        assert np.array_equal(dec0.decoded_latent.feats, enc0.decoded_latent.feats)
        assert np.array_equal(dec1.decoded_latent.feats, enc1.decoded_latent.feats)
        assert np.array_equal(dec1.reference_latent.feats, enc1.reference_latent.feats)
        assert dec1.decoded.n == f1.n
        assert np.array_equal(dec1.decoded.points.coords, enc1.decoded.points.coords)

    def test_residual_alignment(self, store, models, small_frames):
        f0, f1 = small_frames
        _, enc0 = codec.encode_intra(f0, models, store)
        y1 = codec.feature_extract(f1, store)
        from voxcodec import motion as mo

        pred, _, _ = mo.predict_latent(y1, enc0.reference_latent, models["motion"],
                                       store, 3.0)
        assert np.array_equal(pred.coords, y1.coords)

    def test_inter_requires_previous(self, store, models, small_frames):
        with pytest.raises(ContractViolation):
            codec.encode_inter(small_frames[1], SparseTensor.empty(64, 2), models, store)

    def test_p_frame_decode_requires_previous(self, store, models, small_frames):
        f0, f1 = small_frames
        _, enc0 = codec.encode_intra(f0, models, store)
        bs1, _ = codec.encode_inter(f1, enc0.reference_latent, models, store)
        with pytest.raises(DecodeError):
            codec.decode(bs1, None, models, store)
        with pytest.raises(MissingReference):
            codec.decode(bs1, SparseTensor.empty(64, 2), models, store)

    @pytest.mark.parametrize("extra", [
        pytest.param((codec.SUB_MOTION, b"\x00\x00"), id="motion"),
        pytest.param((4, b""), id="id4"),
        pytest.param((codec.SUB_RESIDUAL, b"\x00\x00"), id="duplicate-residual"),
    ])
    def test_i_frame_with_motion_substream_rejected(self, store, models, small_frames, extra):
        bs, _ = codec.encode_intra(small_frames[0], models, store)
        tampered = codec.FrameBitstream(
            codec.FRAME_I, bs.precision_bits, bs.lam, bs.n0, bs.n1,
            bs.substreams + [extra])
        with pytest.raises(DecodeError, match="substreams"):
            codec.decode(codec.parse(codec.serialize(tampered)), None, models, store)

    @pytest.mark.parametrize("case", [
        "depth", "n1-below-n2", "n0-below-n1", "n1-above-8-n2", "n0-above-8-n1"])
    def test_header_counts_checked_before_octree(self, store, models, small_frames,
                                                 monkeypatch, case):
        bs, _ = codec.encode_intra(small_frames[0], models, store)
        n2 = codec.oc.parse_stream(bs.get(codec.SUB_COORDS)).count
        precision, n0, n1 = bs.precision_bits, bs.n0, bs.n1
        if case == "depth":
            precision += 1
        elif case == "n1-below-n2":
            n1 = n2 - 1
        elif case == "n0-below-n1":
            n0 = n1 - 1
        elif case == "n1-above-8-n2":
            n1 = n0 = 8 * n2 + 1
        else:
            n0 = 8 * n1 + 1
        crafted = codec.FrameBitstream(codec.FRAME_I, precision, bs.lam, n0, n1, bs.substreams)

        def octree_decode(stream):
            raise AssertionError("octree decoded before the header counts were checked")

        monkeypatch.setattr(codec.oc, "octree_decode", octree_decode)
        with pytest.raises(DecodeError):
            codec.decode(codec.parse(codec.serialize(crafted)), None, models, store)

    def test_latent_carry_variant_closed_loop(self, store, models, small_frames):
        f0, f1 = small_frames
        bs0, enc0 = codec.encode_intra(f0, models, store, latent_carry=True)
        bs1, enc1 = codec.encode_inter(f1, enc0.reference_latent, models, store,
                                       latent_carry=True)
        dec0 = codec.decode(bs0, None, models, store, latent_carry=True)
        dec1 = codec.decode(bs1, dec0.reference_latent, models, store, latent_carry=True)
        assert np.array_equal(dec1.decoded_latent.feats, enc1.decoded_latent.feats)


class TestLoss:
    def test_perfect_probs_zero_distortion(self):
        cand = np.array([[0, 0, 0], [1, 0, 0]])
        truth = np.array([[0, 0, 0]])
        probs = np.array([1.0, 0.0])
        assert codec.bce_occupancy(probs, cand, truth) < 1e-9

    def test_half_probs_give_ln2(self):
        cand = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        truth = np.array([[1, 0, 0]])
        d = codec.bce_occupancy(np.full(3, 0.5), cand, truth)
        assert d == pytest.approx(np.log(2.0), abs=1e-12)

    def test_loss_report(self, store, models, small_frames):
        frame = small_frames[0]
        _, enc = codec.encode_intra(frame, models, store)
        for lam in codec.LAMBDA_TAGS:
            report = codec.eval_loss(frame, enc, lam)
            assert report.rate_bpp > 0
            assert report.distortion >= 0
            assert report.loss == pytest.approx(report.rate_bpp + lam * report.distortion)
