import tracemalloc

import numpy as np
import pytest

from oracles import dense_conv_oracle
from voxcodec import codec, synthetic
from voxcodec import entropy as ent
from voxcodec import motion as mo
from voxcodec import octree as oc
from voxcodec.errors import ContractViolation, DecodeError, MissingReference
from voxcodec.nn import ConvSpec
from voxcodec.sparse import CoordSet, PointCloudFrame, SparseTensor, stride_down_coords


def patch_everywhere(monkeypatch, fn, replacement):
    """Bind ``replacement`` wherever a voxcodec module binds ``fn``, names
    imported with ``from ... import`` included."""
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith("voxcodec"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


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
        data, symbols = codec.compress_residual(zero, models["residual"], store)
        # encoder is linear, so a zero residual maps to all-zero symbols
        assert np.all(symbols == 0)
        r_hat = codec._residual_decode(symbols, zero.cset, store)
        assert np.array_equal(r_hat.coords, y.coords)

    def test_latent_roundtrip_exact(self, store, models, small_frames):
        from voxcodec import entropy as ent

        y = codec.feature_extract(small_frames[0], store)
        data, symbols = codec.compress_residual(y, models["residual"], store)
        back = ent.range_decode(data, models["residual"], symbols.shape[0])
        assert np.array_equal(back, symbols)

    def test_bytes_close_to_estimate(self, store, models, small_frames):
        from voxcodec import entropy as ent

        y = codec.feature_extract(small_frames[0], store)
        data, symbols = codec.compress_residual(y, models["residual"], store)
        est = ent.estimate_bits(symbols, models["residual"])
        assert abs(len(data) * 8 - est) <= 0.01 * est + 16 * 8


class TestSharedSynthesis:
    def test_compensate_on_decoded_symbols_reproduces_prediction(self, store, models):
        frames = synthetic.make_rigid_sequence(600, 3, 2, 7, seed=17)
        coded = codec.encode_sequence(frames, models, store)
        reference, p_frames = None, 0
        for frame, (bs, result) in zip(frames, coded):
            if bs.frame_type == codec.FRAME_P:
                p_frames += 1
                y = codec.feature_extract(frame, store)
                pred, data, _ = mo.predict_latent(y, reference, models["motion"], store, 3.0)
                assert data == bs.get(codec.SUB_MOTION)
                # the decoder's view: C2 from the octree, symbols from the stream
                c2 = CoordSet(oc.octree_decode(oc.parse_stream(bs.get(codec.SUB_COORDS))))
                union = mo.motion_coord_sets(c2, reference.cset)
                symbols = ent.range_decode(data, models["motion"], union.down().down().n)
                again = mo.compensate(symbols, c2, reference, store, 3.0, union)
                assert np.array_equal(again.coords, pred.coords)
                assert again.feats.tobytes() == pred.feats.tobytes()
            reference = result.reference_latent
        assert p_frames == 2

    def test_encoder_takes_motion_sets_from_the_embeddings(self, store, models,
                                                           small_frames, monkeypatch):
        # the flow embedding sits on the union and the fused one on C3, so the
        # encoder derives no motion coordinate set of its own
        _, enc0 = codec.encode_intra(small_frames[0], models, store)
        bs, _ = codec.encode_inter(small_frames[1], enc0.reference_latent, models, store)

        def derive(*args):
            raise AssertionError("the encoder derived the motion sets again")

        monkeypatch.setattr(mo, "motion_coord_sets", derive)
        again, _ = codec.encode_inter(small_frames[1], enc0.reference_latent, models, store)
        assert codec.serialize(again) == codec.serialize(bs)


class TestOneEncoder:
    def test_both_frame_types_share_the_frame_analysis(self, store, models, small_frames):
        _, ref = codec.encode_intra(small_frames[0], models, store)
        i_bs, _ = codec.encode_intra(small_frames[1], models, store)
        p_bs, _ = codec.encode_inter(small_frames[1], ref.reference_latent, models, store)
        assert (i_bs.frame_type, p_bs.frame_type) == (codec.FRAME_I, codec.FRAME_P)
        assert i_bs.get(codec.SUB_COORDS) == p_bs.get(codec.SUB_COORDS)
        assert (i_bs.n0, i_bs.n1) == (p_bs.n0, p_bs.n1)

    def test_substreams_follow_the_frame_type_table(self, store, models):
        frames = synthetic.make_rigid_sequence(300, 3, 1, 6, seed=3)
        coded = list(codec.encode_sequence(frames, models, store, gop=2))
        assert [bs.frame_type for bs, _ in coded] == [codec.FRAME_I, codec.FRAME_P,
                                                      codec.FRAME_I]
        for bs, _ in coded:
            assert [sid for sid, _ in bs.substreams] == codec.FRAME_SUBSTREAMS[bs.frame_type]

    @pytest.mark.parametrize("precision", [1, 2, 24, 30])
    def test_precision_outside_the_octree_range_rejected(self, store, models, precision):
        frame = PointCloudFrame.from_coords([[0, 0, 0], [1, 0, 1]], precision)
        reference = SparseTensor.build([[0, 0, 0]], np.ones((1, 64), np.float32), 2)
        with pytest.raises(ContractViolation, match=f"precision {precision} outside"):
            codec.encode_intra(frame, models, store)
        with pytest.raises(ContractViolation, match=f"precision {precision} outside"):
            codec.encode_inter(frame, reference, models, store)

    @pytest.mark.parametrize("lam", [300, 3.5, 3.0, 0, -3, "3", None])
    def test_lambda_outside_the_tags_rejected(self, store, models, small_frames, lam):
        # the tag is one header byte: it used to code the frame and then fail
        # in serialize with a struct.error
        _, ref = codec.encode_intra(small_frames[0], models, store)
        with pytest.raises(ContractViolation, match="lambda tag"):
            codec.encode_intra(small_frames[1], models, store, lam=lam)
        with pytest.raises(ContractViolation, match="lambda tag"):
            codec.encode_inter(small_frames[1], ref.reference_latent, models, store, lam=lam)
        with pytest.raises(ContractViolation, match="lambda tag"):
            next(codec.encode_sequence(small_frames, models, store, lam=lam))
        bs, _ = codec.encode_intra(small_frames[1], models, store, lam=np.int64(10))
        assert codec.parse(codec.serialize(bs)).lam == 10

    def test_prediction_on_another_set_rejected(self, store, models, small_frames,
                                                monkeypatch):
        # equal rows are not enough: the prediction must sit on y's own set
        _, ref = codec.encode_intra(small_frames[0], models, store)
        predict = mo.predict_latent

        def on_a_copy(y, *args):
            pred, data, symbols = predict(y, *args)
            return SparseTensor(CoordSet(pred.coords), pred.feats, pred.scale), data, symbols

        monkeypatch.setattr(mo, "predict_latent", on_a_copy)
        with pytest.raises(ContractViolation, match="not aligned"):
            codec.encode_inter(small_frames[1], ref.reference_latent, models, store)


class TestDerivedOnce:
    def test_no_set_or_map_is_derived_twice(self, store, models, monkeypatch):
        # within one coded or decoded frame, every stride-down set and every
        # kernel map comes from one derivation that all its users share
        from voxcodec import nn, sparse

        seen, repeats = set(), []

        def record(fn, key):
            """Wrap fn wherever a voxcodec module binds it, imported names too."""
            def wrapper(*args):
                k = (fn.__name__,) + key(*args)
                if k in seen:
                    repeats.append((current, fn.__name__))
                seen.add(k)
                return fn(*args)
            patch_everywhere(monkeypatch, fn, wrapper)

        def rows(c):
            return np.ascontiguousarray(c, dtype=np.int64).tobytes()

        record(sparse.stride_down_coords, lambda c: (rows(c),))
        record(nn.build_kernel_map, lambda i, o, spec: (spec, rows(i), rows(o)))

        def once(op, *args):
            """Run op and force its result's deferred synthesis, so that work
            counts against the frame that owns it."""
            nonlocal current
            current = op.__name__
            seen.clear()
            out = op(*args)
            (out[1] if isinstance(out, tuple) else out).reference_latent
            return out

        current = None
        frames = synthetic.make_rigid_sequence(1000, 2, 2, 9, seed=7)
        i_bs, i_enc = once(codec.encode_intra, frames[0], models, store)
        p_bs, _ = once(codec.encode_inter, frames[1], i_enc.reference_latent, models, store)
        i_dec = once(codec.decode, i_bs, None, models, store)
        once(codec.decode, p_bs, i_dec.reference_latent, models, store)
        assert p_bs.frame_type == codec.FRAME_P
        assert repeats == []

    def test_each_side_derives_the_union_once(self, store, models, small_frames, monkeypatch):
        # the encoder's flow embedding and the decoder's motion_coord_sets both
        # take the P frame's union from sparse.union, once per side, same rows
        from voxcodec import sparse

        union, calls = sparse.union, []

        def spy(a, b):
            out = union(a, b)
            calls.append((side, out.coords))
            return out

        patch_everywhere(monkeypatch, union, spy)
        side = "encode"
        coded = []
        for bs, result in codec.encode_sequence(small_frames, models, store):
            coded.append(bs)
            result.reference_latent
        side = "decode"
        for result in codec.decode_sequence(coded, models, store):
            result.reference_latent
        assert [bs.frame_type for bs in coded] == [codec.FRAME_I, codec.FRAME_P]
        assert [s for s, _ in calls] == ["encode", "decode"]
        assert np.array_equal(calls[0][1], calls[1][1])

    def test_a_coded_frame_keeps_nothing_derived(self, store, models):
        # the encoders code a frame on a set of its own, so a caller holding its
        # frames does not also hold their stride-down sets and kernel-map plans
        frames = synthetic.make_rigid_sequence(300, 2, 1, 6, seed=5)
        bs0, enc0 = codec.encode_intra(frames[0], models, store)
        bs1, enc1 = codec.encode_inter(frames[1], enc0.reference_latent, models, store)
        enc1.reference_latent
        for frame in frames:
            assert frame.points.cset._down is None and frame.points.cset.plans == {}
        # and each decoded frame is a set of its own: int32 rows, read-only,
        # the rows a re-derivation from its coordinates gives
        dec0 = codec.decode(bs0, None, models, store)
        dec1 = codec.decode(bs1, dec0.reference_latent, models, store)
        for enc, dec in ((enc0, dec0), (enc1, dec1)):
            rows = dec.decoded.points.coords
            again = PointCloudFrame.from_coords(rows, bs0.precision_bits).points.coords
            assert rows.dtype == np.int32 and not rows.flags.writeable
            assert np.array_equal(rows, again) and np.array_equal(rows, enc.decoded.points.coords)
            assert dec.decoded.points.cset is not enc.decoded.points.cset
            assert dec.decoded.points.cset is not dec.c2


class TestLazySynthesis:
    """A FrameResult synthesizes its frame when a field that needs it is first
    read, and the sequence generators read a reference only for a P frame."""

    @pytest.fixture
    def syntheses(self, monkeypatch):
        """Count calls of codec._finish_frame and codec.feature_extract."""
        calls = {"_finish_frame": 0, "feature_extract": 0}
        for name in calls:
            fn = getattr(codec, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(codec, name, counted)
        return calls

    def test_coding_forces_nothing_and_a_read_forces_once(self, store, models, small_frames,
                                                          syntheses):
        bs, enc = codec.encode_intra(small_frames[0], models, store)
        codec.serialize(bs)
        assert enc.rate.total_bits > 0
        assert syntheses == {"_finish_frame": 0, "feature_extract": 1}  # the analysis
        assert enc.decoded.n == small_frames[0].n
        assert enc.reference_latent.n > 0 and enc.decoded_latent.n == enc.c2.n
        assert len(enc.scale_probs) == 2
        assert syntheses == {"_finish_frame": 1, "feature_extract": 2}

    @pytest.mark.parametrize("gop, nframes, expect", [(1, 3, 0), (2, 4, 2)])
    def test_encoder_synthesizes_only_ahead_of_a_p_frame(self, store, models, syntheses,
                                                         gop, nframes, expect):
        frames = synthetic.make_rigid_sequence(200, nframes, 1, 6, seed=9)
        coded = list(codec.encode_sequence(frames, models, store, gop=gop))
        assert len(coded) == nframes
        assert syntheses["_finish_frame"] == expect

    @pytest.mark.parametrize("gop, types", [(0, "IPPP"), (1, "IIII"), (2, "IPIP")])
    def test_decoder_re_extracts_only_ahead_of_a_p_frame(self, store, models, syntheses,
                                                         gop, types):
        frames = synthetic.make_rigid_sequence(200, 4, 1, 6, seed=9)
        bitstreams = [bs for bs, _ in codec.encode_sequence(frames, models, store, gop=gop)]
        assert "".join("IP"[bs.frame_type] for bs in bitstreams) == types
        syntheses.update(_finish_frame=0, feature_extract=0)
        for frame, result in zip(frames, codec.decode_sequence(bitstreams, models, store)):
            assert result.decoded.n == frame.n
        assert syntheses == {"_finish_frame": 4, "feature_extract": types.count("P")}


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

    def test_largest_counts_roundtrip(self):
        bs = codec.FrameBitstream(codec.FRAME_I, 9, 10, 2**32 - 1, 2**32 - 1,
                                  [(codec.SUB_COORDS, b"a")] * 255)
        assert codec.parse(codec.serialize(bs)) == bs

    @pytest.mark.parametrize("field", [
        {"lam": 300}, {"n0": 2**32}, {"n1": -1}, {"frame_type": 256},
        {"substreams": [(codec.SUB_COORDS, b"")] * 256}, {"substreams": [(256, b"")]},
    ], ids=["lam-300", "n0-2^32", "n1-minus-1", "frame-type-256", "256-substreams", "sid-256"])
    def test_field_the_header_cannot_hold_rejected(self, field):
        bs = codec.FrameBitstream(codec.FRAME_I, 7, 3, 10, 5, [(codec.SUB_COORDS, b"abc")])
        bs.__dict__.update(field)
        with pytest.raises(ContractViolation, match="DDPC"):
            codec.serialize(bs)

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
        f1 = small_frames[1]
        (bs0, enc0), (bs1, enc1) = codec.encode_sequence(small_frames, models, store)
        dec0, dec1 = codec.decode_sequence(
            (codec.parse(codec.serialize(bs)) for bs in (bs0, bs1)), models, store)
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

    def test_p_frame_residual_checked_before_motion_networks(self, store, models,
                                                            small_frames, monkeypatch):
        f0, f1 = small_frames
        bs0, _ = codec.encode_intra(f0, models, store)
        dec0 = codec.decode(bs0, None, models, store)
        bs1, _ = codec.encode_inter(f1, dec0.reference_latent, models, store)
        residual = bs1.get(codec.SUB_RESIDUAL)
        assert len(residual) > 2
        truncated = codec.FrameBitstream(
            codec.FRAME_P, bs1.precision_bits, bs1.lam, bs1.n0, bs1.n1,
            [(sid, residual[:len(residual) // 2] if sid == codec.SUB_RESIDUAL else data)
             for sid, data in bs1.substreams])

        def decode_motion_latent(*args):
            raise AssertionError("motion networks ran before the residual was decoded")

        monkeypatch.setattr(codec.mo, "decode_motion_latent", decode_motion_latent)
        with pytest.raises(DecodeError):
            codec.decode(codec.parse(codec.serialize(truncated)), dec0.reference_latent,
                         models, store)

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


class TestSequence:
    @pytest.fixture(scope="class")
    def frames(self):
        return synthetic.make_rigid_sequence(200, 5, 1, 6, seed=9)

    @pytest.mark.parametrize("gop, types", [(0, "IPPPP"), (1, "IIIII"), (2, "IPIPI"),
                                            (3, "IPPIP")])
    def test_gop_policy_and_closed_loop(self, store, models, frames, gop, types):
        encoded = list(codec.encode_sequence(frames, models, store, gop=gop))
        assert "".join("IP"[bs.frame_type] for bs, _ in encoded) == types
        decoded = codec.decode_sequence([bs for bs, _ in encoded], models, store)
        for (_, enc), dec in zip(encoded, decoded, strict=True):
            # the encoder's values, forced after coding, are the decoder's
            assert np.array_equal(dec.decoded.points.coords, enc.decoded.points.coords)
            assert np.array_equal(dec.reference_latent.coords, enc.reference_latent.coords)
            assert dec.reference_latent.feats.tobytes() == enc.reference_latent.feats.tobytes()
            assert dec.decoded_latent.feats.tobytes() == enc.decoded_latent.feats.tobytes()
            assert len(enc.scale_probs) == len(dec.scale_probs) == 2
            for (p, cand, scale), (q, cand_q, scale_q) in zip(enc.scale_probs, dec.scale_probs):
                assert (p.tobytes(), scale) == (q.tobytes(), scale_q)
                assert np.array_equal(cand, cand_q)
        # every frame's bytes are those of the per-frame calls, threaded by hand
        reference = None
        for frame, ftype, (bs, _) in zip(frames, types, encoded):
            if ftype == "I":
                expect, result = codec.encode_intra(frame, models, store)
            else:
                expect, result = codec.encode_inter(frame, reference, models, store)
            reference = result.reference_latent
            assert codec.serialize(bs) == codec.serialize(expect)

    def test_negative_gop_rejected(self, store, models, frames):
        with pytest.raises(ContractViolation, match="gop"):
            next(codec.encode_sequence(frames, models, store, gop=-2))

    @pytest.mark.parametrize("gop, alpha, match", [
        (1.5, 3.0, "gop"), (True, 3.0, "gop"), ("2", 3.0, "gop"), (-1, 3.0, "gop"),
        (1, float("nan"), "alpha"), (1, 0, "alpha"), (1, float("inf"), "alpha")])
    def test_run_parameters_checked_before_the_first_frame(self, store, models, frames,
                                                           gop, alpha, match):
        # gop 1 codes no P frame, so alpha is never used: it is refused all the same
        pending = iter(frames)
        with pytest.raises(ContractViolation, match=match):
            next(codec.encode_sequence(pending, models, store, gop=gop, alpha=alpha))
        assert next(pending) is frames[0]  # no frame was read


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

    @pytest.mark.parametrize("disorder", ["shuffled", "repeated"])
    def test_truth_rows_in_any_order(self, disorder):
        # truth is a set: its rows' order and repeats do not change the loss
        rng = np.random.default_rng(4)
        cand = np.unique(rng.integers(0, 6, (80, 3)), axis=0)
        truth = cand[rng.random(len(cand)) < 0.4]
        probs = rng.random(len(cand))
        expect = codec.bce_occupancy(probs, cand, truth)
        rows = truth if disorder == "shuffled" else np.vstack([truth, truth[::2]])
        rows = rng.permutation(rows)
        assert codec.bce_occupancy(probs, cand, rows) == expect


def eager_rate(bs, models, prev_latent):
    """The rate breakdown of one frame from its own substreams: every coded
    symbol decoded again and billed by estimate_bits."""
    c2 = oc.octree_decode(oc.parse_stream(bs.get(codec.SUB_COORDS)))
    breakdown = {"coords": 8.0 * len(bs.get(codec.SUB_COORDS))}
    if bs.frame_type == codec.FRAME_P:
        union = mo.motion_coord_sets(CoordSet(c2), prev_latent.cset)
        mc4 = stride_down_coords(stride_down_coords(union.coords))
        msym = ent.range_decode(bs.get(codec.SUB_MOTION), models["motion"], mc4.shape[0])
        breakdown["motion"] = ent.estimate_bits(msym, models["motion"])
    count = stride_down_coords(c2).shape[0]
    rsym = ent.range_decode(bs.get(codec.SUB_RESIDUAL), models["residual"], count)
    breakdown["residual"] = ent.estimate_bits(rsym, models["residual"])
    return breakdown


class TestRate:
    def test_rate_estimated_only_when_read(self, store, models, small_frames, monkeypatch):
        calls = []
        estimate = ent.estimate_bits
        monkeypatch.setattr(ent, "estimate_bits",
                            lambda *args: calls.append(1) or estimate(*args))
        (bs0, enc0), (bs1, enc1) = codec.encode_sequence(small_frames, models, store)
        dec0, dec1 = codec.decode_sequence([bs0, bs1], models, store)
        assert calls == []
        for result, bs, prev, n_coded in ((enc0, bs0, None, 1), (enc1, bs1, enc0, 2),
                                          (dec0, bs0, None, 1), (dec1, bs1, dec0, 2)):
            calls.clear()
            rate = result.rate
            assert len(calls) == n_coded
            assert result.rate is rate
            assert len(calls) == n_coded
            # the lazy value is exactly the one computed eagerly from the streams
            expect = eager_rate(bs, models, prev.reference_latent if prev else None)
            assert rate.breakdown == expect
            assert rate.total_bits == sum(expect.values())


class TestMemory:
    def test_traced_peak_per_point(self, store, models):
        # a seeded 10k-point 7-bit I encode+decode measured 4.3 kB/pt; a sums
        # table of up to 27x the output with int64 plan indices takes 6.2
        frame = synthetic.make_rigid_sequence(10_000, 1, 2, 7, seed=6)[0]
        tracemalloc.start()
        try:
            bs, _ = codec.encode_intra(frame, models, store)
            dec = codec.decode(codec.parse(codec.serialize(bs)), None, models, store)
            n = dec.decoded.n  # the decoder's synthesis runs on this read
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == frame.n
        assert peak <= 4800 * frame.n
