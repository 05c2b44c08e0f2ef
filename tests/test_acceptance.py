"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_nn_mse, dense_conv_oracle
from voxcodec import codec, entropy as ent, metrics, octree as oc, synthetic
from voxcodec import gradcheck as gc
from voxcodec import motion as mo
from voxcodec.nn import ConvSpec, sparse_conv
from voxcodec.sparse import SparseTensor, stride_down_coords
from voxcodec.weights import entropy_models, make_weights


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_sparse(rng, n, span, channels, scale=1):
    coords = sorted({tuple(rng.integers(0, span, 3)) for _ in range(n)})
    feats = rng.normal(size=(len(coords), channels)).astype(np.float32)
    return SparseTensor.build(np.array(coords), feats, scale)


def test_criterion_1_sparse_conv_oracle():
    t0 = time.time()
    configs = [(1, 1, False), (2, 1, False), (3, 1, False), (2, 2, False), (2, 2, True)]
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        kernel, stride, transposed = configs[i % len(configs)]
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        spec = ConvSpec(cin, cout, kernel, stride, transposed)
        x = random_sparse(rng, int(rng.integers(4, 40)), 16, cin)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        if transposed:
            out_coords = np.array(sorted({tuple(rng.integers(0, 32, 3)) for _ in range(30)}))
        elif stride == 2:
            out_coords = stride_down_coords(x.coords)
        else:
            out_coords = x.coords
        got = sparse_conv(x, spec, w, b, out_coords)
        expect = dense_conv_oracle(x.coords, x.feats, w, b, spec, out_coords)
        worst = max(worst, float(np.abs(got.feats - expect).max()) if got.n else 0.0)
    elapsed = time.time() - t0
    report(1, "sparse-conv oracle equivalence", worst <= 1e-5 and elapsed < 30,
           f"(max abs err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_interpolation_hand_cases():
    ok = True
    details = []

    def make(coords, feats):
        return SparseTensor.build(coords, feats, 2)

    zero_m = lambda: make([[0, 0, 0]], np.zeros((1, 3), np.float32))

    # weight sum exactly alpha -> plain inverse-distance mean
    ref = make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1.0], [2.0], [3.0]])
    v = mo.adaptive_interpolate(zero_m(), ref, 3.0).feats[0, 0]
    ok &= abs(v - 2.0) < 1e-6
    details.append(f"idwa-mean={v:.6f}")

    # weight sum below alpha -> shrinkage by sum/alpha
    ref = make([[1, 1, 0], [1, 0, 1], [0, 1, 1]], [[1.0], [2.0], [3.0]])
    v = mo.adaptive_interpolate(zero_m(), ref, 3.0).feats[0, 0]
    ok &= abs(v - 1.0) < 1e-6
    details.append(f"shrinkage={v:.6f}")

    # coincident point -> that neighbour's feature
    ref = make([[0, 0, 0], [4, 0, 0], [0, 4, 0]], [[10.0], [20.0], [30.0]])
    v = mo.adaptive_interpolate(zero_m(), ref, 3.0).feats[0, 0]
    ok &= abs(v - 10.0) < 1e-4
    details.append(f"coincident={v:.6f}")

    # far neighbours -> vanishing prediction, squared distances >= 1e6
    far = 1000
    ref = make([[far, 0, 0], [0, far, 0], [0, 0, far]], [[50.0], [60.0], [70.0]])
    v = np.linalg.norm(mo.adaptive_interpolate(zero_m(), ref, 3.0).feats)
    ok &= v < 1e-3
    details.append(f"far-norm={v:.2e}")
    report(2, "weighted-interpolation hand cases", ok, "(" + ", ".join(details) + ")")


def test_criterion_3_gradient_verification():
    t0 = time.time()
    reports, failures = gc.run_all(100, 0)
    elapsed = time.time() - t0
    worst = max(r.max_rel_error for r in reports)
    report(3, "gradient verification", not failures and elapsed < 120,
           f"({len(reports)} ops x 100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s)"
           + (f" failing={failures[:3]}" if failures else ""))


def test_criterion_4_entropy_coder():
    t0 = time.time()
    bound_checked = 0
    for i in range(1000):
        rng = np.random.default_rng(2000 + i)
        channels = int(rng.integers(1, 4))
        nsym = int(rng.integers(3, 24))
        pmfs = [rng.uniform(0.05, 2.0, nsym) for _ in range(channels)]
        model = ent.build_table_from_pmf(pmfs, rng.integers(-12, 2, channels),
                                         escape_mass=float(rng.uniform(1e-4, 1e-2)))
        n = int(rng.integers(0, 1500))
        lo = int(model.offsets.min()) - 3
        hi = int(model.offsets.max()) + nsym + 3
        syms = rng.integers(lo, hi + 1, size=(n, channels))
        data = ent.range_encode(syms, model)
        back = ent.range_decode(data, model, n)
        assert np.array_equal(back, syms), f"roundtrip failed at pair {i}"
        if n * channels >= 1000:
            est = ent.estimate_bits(syms, model)
            assert abs(len(data) * 8 - est) <= 0.01 * est + 128, (
                f"size bound failed at pair {i}: {len(data) * 8} vs {est:.1f}")
            bound_checked += 1
    elapsed = time.time() - t0
    report(4, "entropy coder round-trip and size", True,
           f"(1000 pairs, {bound_checked} size-bound checks, {elapsed:.1f}s)")


def test_criterion_5_octree_codec():
    fixture_ok = oc.occupancy_bytes(np.array([[0, 0, 0]]), 9) == bytes([0x80] * 9)
    for i in range(1000):
        rng = np.random.default_rng(3000 + i)
        depth = int(rng.integers(4, 11))
        n = int(rng.integers(1, 260))
        coords = np.unique(rng.integers(0, 1 << depth, size=(n, 3)), axis=0)
        st = oc.octree_encode(coords, depth)
        back = oc.octree_decode(st)
        expect = np.array(sorted(map(tuple, coords)), dtype=np.int32)
        assert np.array_equal(back, expect), f"octree roundtrip failed at set {i}"
    report(5, "octree codec", fixture_ok, "(1000 roundtrips, 9-byte fixture)")


def test_criterion_6_closed_loop_codec():
    t0 = time.time()
    store = make_weights(0)
    models = entropy_models(store)
    frames = synthetic.make_rigid_sequence(10_000, 2, 2, 7, seed=6)
    (bs0, enc0), (bs1, enc1) = codec.encode_sequence(frames, models, store)
    dec0, dec1 = codec.decode_sequence(
        (codec.parse(codec.serialize(bs)) for bs in (bs0, bs1)), models, store)
    counts_ok = (enc0.decoded.n == frames[0].n == dec0.decoded.n
                 and enc1.decoded.n == frames[1].n == dec1.decoded.n)
    latents_ok = (np.array_equal(dec0.decoded_latent.feats, enc0.decoded_latent.feats)
                  and np.array_equal(dec1.decoded_latent.feats, enc1.decoded_latent.feats)
                  and np.array_equal(dec1.reference_latent.feats,
                                     enc1.reference_latent.feats))
    elapsed = time.time() - t0
    report(6, "closed-loop codec", counts_ok and latents_ok and elapsed < 60,
           f"(counts {frames[0].n}/{frames[1].n}, latents bit-exact, {elapsed:.1f}s)")


def test_criterion_7_inter_gain():
    # A full benchmark against an external anchor would need trained weights,
    # a real capture dataset, and the anchor encoder (all out of scope); this
    # checks the directional claim instead: a frame identical to its reference
    # costs strictly fewer bits as P than as I under the surrogate weights.
    store = make_weights(0, profile="surrogate")
    models = entropy_models(store)
    frame = synthetic.make_solid_block(8, 24, 7)
    bs_i, enc_i = codec.encode_intra(frame, models, store)
    bs_i2, _ = codec.encode_intra(frame, models, store)
    bs_p, _ = codec.encode_inter(frame, enc_i.reference_latent, models, store,
                                 alpha=3.0)
    p_bytes, i_bytes = bs_p.payload_bytes(), bs_i2.payload_bytes()
    report(7, "inter gain sanity", p_bytes < i_bytes,
           f"(P {p_bytes}B < I {i_bytes}B on an identical frame)")


def test_criterion_8_metrics():
    fixture = metrics.d1_psnr(np.array([[0, 0, 0]]), np.array([[1, 0, 0]]))
    expect = 10 * np.log10(3 * 1023**2)
    fixture_ok = abs(fixture - expect) <= 0.01

    curve = [(0.5, 60.0), (1.0, 64.0), (2.0, 67.0), (4.0, 69.0)]
    half = [(r / 2, q) for r, q in curve]
    bd = metrics.bd_rate(curve, half)
    bd_ok = abs(bd - (-50.0)) <= 0.1

    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(4000 + i)
        na, nb = (int(10 ** rng.uniform(2, 4)) for _ in range(2))
        span = int(rng.integers(20, 120))
        a = np.unique(rng.integers(0, span, size=(na, 3)), axis=0)
        b = np.unique(rng.integers(0, span, size=(nb, 3)), axis=0)
        mse_oracle = max(brute_force_nn_mse(a, b), brute_force_nn_mse(b, a))
        got = metrics.d1_psnr(a, b)
        want = 10 * np.log10(3 * 1023**2 / mse_oracle)
        worst = max(worst, abs(got - want))
    report(8, "metrics fixtures and oracle equivalence",
           fixture_ok and bd_ok and worst < 1e-9,
           f"(D1 fixture {fixture:.4f} dB, BD {bd:.4f}%, oracle dev {worst:.1e})")


def _run_pipeline(workdir: Path, tag: str) -> dict:
    env = dict(os.environ)
    enc = workdir / f"enc_{tag}"
    dec = workdir / f"dec_{tag}"
    csv = workdir / f"rd_{tag}.csv"
    wfile = workdir / "w.dpcw"
    base = [sys.executable, "-m", "voxcodec.cli"]
    runs = [
        base + ["encode", "--weights", str(wfile), "--synthetic", "rigid:2000,2,2",
                "--precision", "7", "--seed", "5", "--output", str(enc)],
        base + ["decode", "--weights", str(wfile), "--manifest",
                str(enc / "manifest.json"), "--output", str(dec)],
        base + ["eval", "--synthetic", "rigid:2000,2,2", "--precision", "7",
                "--seed", "5", "--decoded", str(dec), "--bitstream-dir", str(enc),
                "--csv", str(csv)],
    ]
    for cmd in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    out = {}
    for f in sorted(enc.glob("*.ddpc")):
        out[f"bits/{f.name}"] = f.read_bytes()
    out["manifest"] = (enc / "manifest.json").read_bytes()
    for f in sorted(dec.glob("*.ply")):
        out[f"ply/{f.name}"] = f.read_bytes()
    out["csv"] = csv.read_bytes()
    return out


def test_criterion_9_determinism(tmp_path):
    subprocess.run([sys.executable, "-m", "voxcodec.cli", "make-weights",
                    "--seed", "0", "--output", str(tmp_path / "w.dpcw")],
                   check=True, capture_output=True)
    first = _run_pipeline(tmp_path, "a")
    second = _run_pipeline(tmp_path, "b")
    same = first.keys() == second.keys() and all(first[k] == second[k] for k in first)
    report(9, "determinism across runs", same,
           f"({len(first)} artifacts byte-identical; cross-platform check "
           f"requires a second host)")


@pytest.mark.skipif("DDPC_REAL_FRAME" not in os.environ,
                    reason="set DDPC_REAL_FRAME to a voxelized full-body PLY")
def test_criterion_10_real_frame_coordinate_rate():
    from voxcodec.ply import load_ply

    frame = load_ply(os.environ["DDPC_REAL_FRAME"], 10)
    c2 = stride_down_coords(stride_down_coords(frame.points.coords))
    stream = oc.serialize_stream(oc.octree_encode(c2, frame.precision_bits - 2))
    rate = metrics.bpp(8 * len(stream), frame.n)
    report(10, "real-frame coordinate rate", rate < 0.05, f"({rate:.4f} bpp)")
