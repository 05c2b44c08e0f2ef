"""Command-line surface: encode/decode sequences, evaluate metrics, emit RD
CSV and BD-rate tables, run self-tests and gradient checks.

Exit codes: 0 ok, 2 missing weights/model, 3 malformed input or a file that
cannot be read or written, 4 missing reference frame state, 5 original/decoded
count mismatch, 6 too few curve points.  All outputs are deterministic given
(inputs, weights, seed).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import codec, gradcheck, metrics, octree, synthetic
from . import entropy as ent
from .errors import MissingReference, VoxCodecError
from .nn import ConvSpec, sparse_conv
from .motion import DEFAULT_ALPHA, adaptive_interpolate, check_alpha
from .ply import load_ply, write_frame
from .sparse import SparseTensor
from .weights import WeightStore, check_seed, entropy_models, make_weights, validate_store

EXIT_OK = 0
EXIT_NO_WEIGHTS = 2
EXIT_BAD_INPUT = 3
EXIT_NO_REFERENCE = 4
EXIT_COUNT_MISMATCH = 5
EXIT_FEW_POINTS = 6

def _read_text(path):
    """A text file's contents; bytes that do not decode are malformed input."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise VoxCodecError(f"{path} is not text: {exc.reason} at byte {exc.start}") from None


def _resolve_weights(args):
    path = args.weights or os.environ.get("DDPC_WEIGHTS")
    if not path or not Path(path).is_file():
        print("error: no weight file (use --weights or DDPC_WEIGHTS)", file=sys.stderr)
        raise SystemExit(EXIT_NO_WEIGHTS)
    try:
        store = WeightStore.load(path)
        validate_store(store)
        models = entropy_models(store)
    except (OSError, VoxCodecError) as exc:
        print(f"error: unusable weight file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_WEIGHTS)
    return store, models


def _input_frames(args):
    """The input frames in order; each PLY is loaded when it is asked for."""
    if args.synthetic:
        n, nframes, translation = synthetic.parse_synthetic_spec(args.synthetic)
        return synthetic.make_rigid_sequence(n, nframes, translation, args.precision, args.seed)
    if not args.inputs:
        raise VoxCodecError("no input frames")
    return _load_frames(args.inputs, args.precision)


def _load_frames(paths, precision):
    """Load each PLY in turn; a failure names the file and its frame number."""
    for i, path in enumerate(paths):
        try:
            yield load_ply(path, precision)
        except (OSError, VoxCodecError) as exc:
            raise type(exc)(f"{path} (frame {i}): {exc}") from None


def cmd_encode(args) -> int:
    store, models = _resolve_weights(args)
    outdir = Path(args.output)
    manifest = {
        "alpha": args.alpha,
        "lambda": args.lam,
        "precision_bits": args.precision,
        "frames": [],
    }
    total_bits = 0.0
    total_points = 0
    coded = codec.encode_sequence(_input_frames(args), models, store, gop=args.gop,
                                  alpha=args.alpha, lam=args.lam)
    try:
        for i, (bs, _) in enumerate(coded):
            if i == 0:  # no output until a frame is coded
                outdir.mkdir(parents=True, exist_ok=True)
            ftype = "P" if bs.frame_type == codec.FRAME_P else "I"
            name = f"frame{i:04d}.ddpc"
            (outdir / name).write_bytes(codec.serialize(bs))
            frame_bits = 8 * bs.payload_bytes()
            frame_bpp = metrics.bpp(frame_bits, bs.n0)
            manifest["frames"].append(
                {"file": name, "type": ftype,
                 "n_points": bs.n0, "payload_bytes": bs.payload_bytes(),
                 "bpp": frame_bpp})
            total_bits += frame_bits
            total_points += bs.n0
            print(f"frame {i:4d} {ftype} points={bs.n0} bpp={frame_bpp:.6f}")
    finally:
        # after a failure too, so the frames coded so far can be decoded
        if manifest["frames"]:
            # gop 0 codes frame 0 alone as an I frame: one period the whole sequence long
            manifest["gop"] = args.gop or len(manifest["frames"])
            manifest["total_bpp"] = total_bits / total_points
            (outdir / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"total bpp={manifest['total_bpp']:.6f} over {total_points} points")
    return EXIT_OK


def _read_manifest(path, entry_key):
    """Load a manifest whose "frames" entries each hold ``entry_key``."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise VoxCodecError(f"bad manifest: {exc}") from None
    frames = manifest.get("frames") if isinstance(manifest, dict) else None
    if not isinstance(frames, list) or not all(
            isinstance(e, dict) and entry_key in e for e in frames):
        raise VoxCodecError(f"bad manifest: needs a \"frames\" list of entries with \"{entry_key}\"")
    return manifest


def _manifest_number(value, name) -> float:
    """A manifest value that must be a JSON number, as a float."""
    # JSON true is a Python int, float() takes strings, and a huge int overflows it
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise VoxCodecError(f"bad manifest: {name} is not a number")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise VoxCodecError(f"bad manifest: {name} is out of range")
    return float(value)


def cmd_decode(args) -> int:
    store, models = _resolve_weights(args)
    manifest = _read_manifest(args.manifest, "file")
    alpha = _manifest_number(manifest.get("alpha", DEFAULT_ALPHA), '"alpha"')
    # older encoders wrote this key; the carry-forward reference they could
    # select is gone, and the DDPC bytes do not say which reference was used
    if manifest.get("latent_carry", False) is not False:
        raise VoxCodecError("bad manifest: \"latent_carry\" must be false or absent")
    check_alpha(alpha)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [str(entry["file"]) for entry in manifest["frames"]]
    bitstreams = (codec.parse((Path(args.manifest).parent / name).read_bytes())
                  for name in names)
    results = codec.decode_sequence(bitstreams, models, store, alpha=alpha)
    for i, name in enumerate(names):
        try:
            decoded = next(results).decoded  # synthesis runs on this read
        except (OSError, VoxCodecError) as exc:
            raise type(exc)(f"frame {i}: {exc}") from None
        out = outdir / (Path(name).stem + ".ply")
        write_frame(out, decoded)
        print(f"frame {i:4d} -> {out.name} points={decoded.n}")
    return EXIT_OK


CSV_HEADER = "sequence,frame,lambda,bpp,d1_db,d2_db"


def _fmt(x: float) -> str:
    return "inf" if np.isinf(x) else repr(float(x))


def cmd_eval(args) -> int:
    out = Path(args.csv)
    # a CSV that cannot be written fails before the metrics, not after them
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out.parent))
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
    # counted, not loaded: each original is loaded when its row is computed
    originals = _input_frames(args)
    count = len(originals) if args.synthetic else len(args.inputs)
    decoded_paths = sorted(Path(args.decoded).glob("*.ply"))
    if len(decoded_paths) != count:
        print(f"error: {count} originals vs {len(decoded_paths)} decoded frames",
              file=sys.stderr)
        return EXIT_COUNT_MISMATCH
    bitstream_dir = Path(args.decoded).parent if args.bitstream_dir is None \
        else Path(args.bitstream_dir)
    frames = _read_manifest(bitstream_dir / "manifest.json", "bpp")["frames"]
    if len(frames) < count:
        raise VoxCodecError(f"manifest lists {len(frames)} frames for {count} originals")
    rows = []
    decoded = _load_frames(decoded_paths, args.precision)
    for i, (orig, dec, entry) in enumerate(zip(originals, decoded, frames)):
        bpp = _manifest_number(entry["bpp"], f"frame {i} bpp")
        if not 0 <= bpp < float("inf"):  # NaN included
            raise VoxCodecError(f"bad manifest: frame {i} bpp {bpp} is not finite and >= 0")
        d1 = metrics.d1_psnr(orig, dec, peak=args.peak)
        d2 = metrics.d2_psnr(orig, dec, peak=args.peak)
        rows.append(f"{args.sequence},{i},{args.lam},{_fmt(bpp)},{_fmt(d1)},{_fmt(d2)}")
        print(rows[-1])
    new = not out.exists()
    with open(out, "a") as fh:
        if new:
            fh.write(CSV_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def _read_curve(path):
    rows = _read_text(path).strip().splitlines()
    if rows and rows[0].strip() == CSV_HEADER:
        rows = rows[1:]
    pts = []
    for row in rows:
        try:
            seq, frame, lam, bpp, d1, d2 = row.split(",")
            pts.append((float(bpp), float(d1), float(d2)))
        except ValueError:
            raise VoxCodecError(f"malformed RD CSV row in {path}: {row!r}") from None
    # average frames per lambda is the caller's concern; points come as rows
    return pts


def cmd_rdcsv(args) -> int:
    a = _read_curve(args.curve_a)
    b = _read_curve(args.curve_b)
    if min(len(a), len(b)) < 4:
        print("error: each curve needs at least 4 rate-distortion points", file=sys.stderr)
        return EXIT_FEW_POINTS
    bd_d1 = metrics.bd_rate([(p[0], p[1]) for p in a], [(p[0], p[1]) for p in b])
    bd_d2 = metrics.bd_rate([(p[0], p[2]) for p in a], [(p[0], p[2]) for p in b])
    print(f"bd_rate_d1_percent={bd_d1:.4f}")
    print(f"bd_rate_d2_percent={bd_d2:.4f}")
    if args.svg:
        _write_svg(args.svg, a, b)
        print(f"wrote {args.svg}")
    return EXIT_OK


def _write_svg(path, curve_a, curve_b):
    w, h, pad = 640, 480, 50
    pts = curve_a + curve_b
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = lambda x: pad + (w - 2 * pad) * (0.5 if x1 == x0 else (x - x0) / (x1 - x0))
    sy = lambda y: h - pad - (h - 2 * pad) * (0.5 if y1 == y0 else (y - y0) / (y1 - y0))

    def poly(curve, color):
        p = sorted(curve)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, *_ in p)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
                + "".join(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
                          for x, y, *_ in p))

    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>'
        f'<text x="{w//2}" y="{h-12}" text-anchor="middle" font-size="12">bpp</text>'
        f'<text x="14" y="{h//2}" font-size="12" transform="rotate(-90 14 {h//2})" '
        f'text-anchor="middle">D1 PSNR (dB)</text>'
        + poly(curve_a, "#1f77b4") + poly(curve_b, "#d62728")
        + "</svg>"
    )
    Path(path).write_text(svg + "\n")


def cmd_gradcheck(args) -> int:
    reports, failures = gradcheck.run_all(args.instances, args.seed)
    print(f"{'op':24s} {'max rel err':>12s} {'tol':>8s} result")
    for rep in reports:
        status = "pass" if rep.max_rel_error <= rep.tolerance else "FAIL"
        print(f"{rep.op:24s} {rep.max_rel_error:12.3e} {rep.tolerance:8.0e} {status}")
    for name, seed, err in failures:
        print(f"failing seed: {name} seed={seed} rel_err={err:.3e}")
    return EXIT_OK if not failures else 1


def cmd_selftest(args) -> int:
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"selftest {name}: ok")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append(name)
            print(f"selftest {name}: FAILED ({exc})")

    def expect(ok, what):
        # an explicit raise, not assert: python -O must not skip the checks
        if not ok:
            raise AssertionError(what)

    rng = np.random.Generator(np.random.PCG64(args.seed))

    def entropy_roundtrip():
        pmfs = [rng.uniform(0.5, 2.0, 9) for _ in range(4)]
        model = ent.build_table_from_pmf(pmfs, [-4] * 4, escape_mass=1e-3)
        syms = rng.integers(-6, 7, size=(500, 4))
        data = ent.range_encode(syms, model)
        expect(np.array_equal(ent.range_decode(data, model, 500), syms),
               "decoded symbols differ from the encoded ones")

    def octree_roundtrip():
        coords = np.unique(rng.integers(0, 64, size=(300, 3)), axis=0)
        stream = octree.octree_encode(coords, 6)
        back = octree.octree_decode(stream)
        expect(np.array_equal(back, np.array(sorted(map(tuple, coords)), dtype=np.int32)),
               "decoded coordinates differ from the encoded ones")

    def conv_oracle():
        spec = ConvSpec(2, 3, 3)
        coords = np.array(sorted({tuple(rng.integers(0, 6, 3)) for _ in range(12)}))
        x = SparseTensor.build(coords, rng.normal(size=(len(coords), 2)).astype(np.float32), 0)
        wgt = rng.normal(size=spec.weight_shape).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        out = sparse_conv(x, spec, wgt, b)
        offs = spec.offsets()
        for j, c in enumerate(out.coords):
            acc = b.astype(np.float64).copy()
            for o, off in enumerate(offs):
                pos = c + off
                hit = np.where((x.coords == pos).all(axis=1))[0]
                if hit.size:
                    acc += x.feats[hit[0]].astype(np.float64) @ wgt[o].astype(np.float64)
            expect(np.allclose(out.feats[j], acc, atol=1e-5),
                   f"output row {j} differs from the dense sum")

    def interpolation_cases():
        # three neighbours at squared distance 2, features 1,2,3, alpha 3:
        # the weight sum 1.5 is below alpha, so the mean shrinks to 1
        ref = SparseTensor.build(
            [[1, 1, 0], [1, 0, 1], [0, 1, 1]], [[1.0], [2.0], [3.0]], scale=2)
        m = SparseTensor.build([[0, 0, 0]], np.zeros((1, 3), np.float32), scale=2)
        out = adaptive_interpolate(m, ref, 3.0)
        expect(abs(out.feats[0, 0] - 1.0) < 1e-6,
               f"alpha-capped mean {out.feats[0, 0]}, expected 1")

    def gradcheck_smoke():
        _, failures = gradcheck.run_all(5, args.seed)
        expect(not failures, f"{len(failures)} failing instances")

    check("entropy-roundtrip", entropy_roundtrip)
    check("octree-roundtrip", octree_roundtrip)
    check("conv-dense-oracle", conv_oracle)
    check("interpolation-hand-cases", interpolation_cases)
    check("gradcheck-smoke", gradcheck_smoke)
    return EXIT_OK if not failures else 1


def cmd_make_weights(args) -> int:
    store = make_weights(args.seed, profile=args.profile)
    store.save(args.output)
    print(f"wrote {args.output} (seed={args.seed}, profile={args.profile})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="voxcodec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def sequence(p):
        """Options naming a rate point and its input frames (encode and eval)."""
        p.add_argument("--lambda", dest="lam", type=int, default=3,
                       choices=codec.LAMBDA_TAGS, help="rate-point tag")
        p.add_argument("--precision", type=int, default=7, help="coordinate bits")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--synthetic", help="rigid:N,frames,translation")

    p = sub.add_parser("encode", help="encode a PLY sequence (or synthetic)")
    p.add_argument("--weights", help="DPCW weight file (or DDPC_WEIGHTS env)")
    sequence(p)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="interpolation isolation penalty")
    p.add_argument("--gop", type=int, default=0,
                   help="frames per intra period (0 = whole sequence)")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("inputs", nargs="*", help="input PLY frames in order")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode a manifest to PLY frames")
    p.add_argument("--weights", help="DPCW weight file (or DDPC_WEIGHTS env)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", help="compute bpp/D1/D2 against originals")
    sequence(p)
    p.add_argument("--decoded", required=True, help="directory of decoded PLYs")
    p.add_argument("--bitstream-dir", default=None,
                   help="directory holding manifest.json (default: decoded/..)")
    p.add_argument("--csv", required=True, help="CSV to append rows to")
    p.add_argument("--sequence", default="seq")
    p.add_argument("--peak", type=int, default=metrics.DEFAULT_PEAK)
    p.add_argument("inputs", nargs="*", help="original PLY frames in order")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rdcsv", help="BD-rate between two RD CSV curves")
    p.add_argument("curve_a", help="reference curve CSV")
    p.add_argument("curve_b", help="candidate curve CSV")
    p.add_argument("--svg", help="write an SVG plot")
    p.set_defaults(fn=cmd_rdcsv)

    p = sub.add_parser("selftest", help="run built-in fixture checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("make-weights", help="emit a seeded-random weight file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="random", choices=("random", "surrogate"))
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_make_weights)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "seed"):
            check_seed(args.seed)
        return args.fn(args)
    except SystemExit as exc:  # argparse errors and hard exits carry the code
        return int(exc.code or 0)
    except (OSError, VoxCodecError) as exc:  # the one place a failure picks its code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_REFERENCE if isinstance(exc, MissingReference) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
