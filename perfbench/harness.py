"""Seeded workloads, the closed-loop client and the correctness checks.

One client in one process sends one operation at a time and waits for it:
an operation is one frame encode, one frame decode, or one D1+D2 pair.  A
cycle is one group of pictures (an I frame, then ``gop - 1`` P frames), each
frame encoded then decoded, or one D1+D2 pair.  The library is driven through
its public API the way ``voxcodec.cli`` drives it; inputs are generated from
the workload seed and reach the library only as PLY files.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voxcodec import codec, metrics, ply, synthetic, weights

ALPHA = 3.0
LAMBDA = 3
TRANSLATION = 2   # per-frame shift (t, t, t) of the rigid sequences
PEAK = metrics.DEFAULT_PEAK
SETUP_REPS = 15
D1_TOLERANCE_DB = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str            # "codec" or "eval"
    points: int
    bits: int
    frames: int          # distinct input frames (codec) or blob/resample pairs (eval)
    gop: int = 0         # codec frames per cycle: one I frame, then gop - 1 P frames


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "intra-dense",
            "dense 7-bit intra frames: the sparse-conv engine does nearly all the work; "
            "motion and kNN do none",
            "codec", points=2500, bits=7, frames=6, gop=1),
        Workload(
            "inter-sparse",
            "sparse 9-bit I+P frames: random motion scatters kNN queries, large motion "
            "latents load the range coder; same conv layers used differently",
            "codec", points=1000, bits=9, frames=12, gop=2),
        Workload(
            "eval-dense",
            "D1+D2 on a dense 7-bit cloud and its coarse-to-fine resample: only kNN and "
            "PCA normals run, no convolution",
            "eval", points=1000, bits=7, frames=4),
    )
}


def resample_coarse_to_fine(coords, seed):
    """Decoder-like resample: take ``c >> 2``, expand to children twice and keep
    the true per-scale counts by seeded scores (a two-level top-k on
    uninformative probabilities).  Returns lex-sorted int64 coordinates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    coords = np.asarray(coords, dtype=np.int64)
    counts = (np.unique(coords >> 1, axis=0).shape[0], coords.shape[0])
    offsets = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    cur = np.unique(coords >> 2, axis=0)
    for keep in counts:
        kids = ((2 * cur)[:, None, :] + offsets[None]).reshape(-1, 3)
        kids = kids[np.lexsort((kids[:, 2], kids[:, 1], kids[:, 0]))]
        scores = rng.random(kids.shape[0])
        cur = kids[np.sort(np.argsort(-scores, kind="stable")[:keep])]
    return cur


def brute_d1_psnr(a, b, peak=PEAK, chunk=256):
    """Symmetric D1 PSNR by chunked brute-force nearest neighbours."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def mean_nn(q, r):
        total = 0.0
        for s in range(0, q.shape[0], chunk):
            d2 = ((q[s:s + chunk, None, :] - r[None, :, :]) ** 2).sum(axis=2)
            total += float(d2.min(axis=1).sum())
        return total / q.shape[0]

    mse = max(mean_nn(a, b), mean_nn(b, a))
    return float("inf") if mse == 0.0 else float(10.0 * np.log10(3.0 * peak * peak / mse))


def reference_kernel():
    """Fixed work of the workloads' kind: a Python loop of dict lookups and
    small numpy calls, then gathers and matmuls on a few thousand rows.  It
    calls no voxcodec code, so no change to the library moves it; its CPU
    time tracks how fast the host lets this process run."""
    pts = (np.arange(3 * 4096, dtype=np.int64).reshape(-1, 3) * 2654435761) % 97
    cells = {}
    for i, p in enumerate(map(tuple, (pts >> 1).tolist())):
        cells.setdefault(p, []).append(i)
    f = pts.astype(np.float64)
    acc = 0.0
    for i in range(1200):
        c0 = np.floor(f[i] / 2.0).astype(np.int64)
        cand = [np.asarray(idx) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                if (idx := cells.get((int(c0[0]) + dx, int(c0[1]) + dy, int(c0[2]))))]
        d2 = ((f[np.concatenate(cand)] - f[i]) ** 2).sum(axis=1)
        acc += float(np.partition(d2, 0)[0])
    keys = np.sort(pts[:, 0] << 42 | pts[:, 1] << 21 | pts[:, 2])
    rows = np.searchsorted(keys, np.repeat(keys, 6)) % pts.shape[0]
    feats = np.sin(np.arange(pts.shape[0] * 32, dtype=np.float32)).reshape(-1, 32)
    weight = np.cos(np.arange(32 * 32, dtype=np.float32)).reshape(32, 32)
    out = np.zeros_like(feats)
    for k in range(6):
        part = rows[k::6]
        out[part] += feats[part] @ weight
    return acc + float(out.sum())


def timed_reference():
    """CPU seconds of one reference_kernel() call."""
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def coords_digest(frame) -> str:
    return sha256(np.ascontiguousarray(frame.points.coords, dtype="<i4").tobytes())


def latent_equal(a, b) -> bool:
    return (a.scale == b.scale and a.coords.tobytes() == b.coords.tobytes()
            and a.feats.dtype == b.feats.dtype and a.feats.tobytes() == b.feats.tobytes())


def blas_info():
    """BLAS library name, version and thread count, as far as they can be read."""
    info = {"name": None, "version": None, "library": None, "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = cfg.get("name"), cfg.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln and ".so" in ln})
    except OSError:
        return info
    import ctypes

    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["library"], info["threads"] = Path(lib).name, int(fn())
                return info
    return info


def provenance(workload, seed):
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Run:
    """One workload run: inputs, set-up, the timed loop and its checks."""

    def __init__(self, workload, seed, workdir, tracer=None):
        self.w = workload
        self.seed = seed
        self.dir = Path(workdir)
        self.tracer = tracer
        self.provenance = provenance(workload, seed)
        self.blob_seed, self.weight_seed, self.resample_seed = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(3))
        self.ops = []          # one dict per executed operation
        self.cycles = []       # one dict per cycle
        self.checks = []       # (description, passed)
        self.reference_cpu = []        # reference_kernel() CPU s before each cycle
        self.setup_reference_cpu = []  # ... and before each set-up
        self.attempted = 0
        self.failed = 0

    # -- inputs ------------------------------------------------------------

    def make_inputs(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        w = self.w
        if w.kind == "codec":
            frames = synthetic.make_rigid_sequence(
                w.points, w.frames, TRANSLATION, w.bits, self.blob_seed)
            self.inputs = []
            for i, f in enumerate(frames):
                path = self.dir / f"in{i:04d}.ply"
                ply.write_frame(path, f)
                self.inputs.append(path)
            self.weights_path = self.dir / "weights.dpcw"
            weights.make_weights(self.weight_seed, "random").save(self.weights_path)
        else:
            # one blob per pair: the cost of a pair depends on how the blob's
            # clusters overlap, so a run averages over several layouts
            self.inputs = []
            for k in range(w.frames):
                base = synthetic.make_blob(w.points, w.bits, self.blob_seed + k)
                ref = self.dir / f"ref{k:04d}.ply"
                dec = self.dir / f"dec{k:04d}.ply"
                ply.write_ply(ref, base)
                ply.write_ply(dec, resample_coarse_to_fine(base, self.resample_seed + k))
                self.inputs.append((ref, dec))

    # -- set-up ------------------------------------------------------------

    def _setup_once(self):
        if self.w.kind == "codec":
            # module attributes, not imported names, so the tracer sees the calls
            store = weights.WeightStore.load(self.weights_path)
            weights.validate_store(store)
            return store, weights.entropy_models(store)
        return [(ply.load_ply(r, self.w.bits), ply.load_ply(d, self.w.bits))
                for r, d in self.inputs]

    def setup(self):
        """Run the set-up SETUP_REPS times; keep the last result.  With a
        tracer every repetition is traced."""
        times = []
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.begin_frame(-1)
        try:
            for _ in range(SETUP_REPS):
                self.setup_reference_cpu.append(timed_reference())
                root = self._root("op.setup")
                t0, c0 = time.perf_counter(), time.process_time()
                state = self._setup_once()
                times.append((time.perf_counter() - t0, time.process_time() - c0))
                self._end(root)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        if self.w.kind == "codec":
            self.store, self.models = state
        else:
            self.pairs = state
        self.setup_times = [t for t, _ in times]
        self.setup_cpu_times = [c for _, c in times]

    # -- tracing helpers -----------------------------------------------------

    def _root(self, name):
        if self.tracer is None or not self.tracer.installed:
            return None
        return self.tracer.open(name)

    def _end(self, rec):
        if rec is not None:
            self.tracer.close(rec)

    # -- operations ----------------------------------------------------------

    def _timed(self, kind, traced, cycle, fn):
        """Run one operation; returns its result and its record, which holds
        the wall time ``s`` and the process CPU time ``cpu_s``."""
        self.attempted += 1
        if self.tracer is not None:
            if traced:
                self.tracer.install()
                self.tracer.begin_frame(cycle)
            else:
                self.tracer.uninstall()
        root = self._root(f"op.{kind}")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = fn()
        finally:
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            self._end(root)
            if self.tracer is not None:
                self.tracer.uninstall()
        rec = {"kind": kind, "traced": traced, "cycle": cycle, "s": dt, "cpu_s": dc}
        self.ops.append(rec)
        return out, rec

    def _encode(self, k, prev, traced, cycle):
        intra = prev is None

        def op():
            f = ply.load_ply(self.inputs[k], self.w.bits)
            if intra:
                bs, res = codec.encode_intra(f, self.models, self.store, lam=LAMBDA)
            else:
                bs, res = codec.encode_inter(f, prev, self.models, self.store,
                                             alpha=ALPHA, lam=LAMBDA)
            return f, bs, res, codec.serialize(bs)

        kind = "encode_i" if intra else "encode_p"
        return self._timed(kind, traced, cycle, op)

    def _decode(self, data, prev, out_path, traced, cycle, intra):
        def op():
            bs = codec.parse(data)
            res = codec.decode(bs, prev, self.models, self.store, alpha=ALPHA)
            ply.write_frame(out_path, res.decoded)
            return res

        kind = "decode_i" if intra else "decode_p"
        return self._timed(kind, traced, cycle, op)

    def _check(self, what, passed, ops=1):
        """Record a check; a failed one fails ``ops`` operations."""
        self.checks.append((what, bool(passed)))
        if not passed:
            self.failed += ops
            print(f"check failed: {what}", file=sys.stderr)
        return passed

    def _codec_frame(self, k, state, traced, cycle):
        """Encode then decode input frame k; returns the next state and a record."""
        prev_enc, prev_dec = state
        (frame, bs, enc, data), t_enc = self._encode(k, prev_enc, traced, cycle)
        dec, t_dec = self._decode(data, prev_dec, self.dir / "decoded.ply",
                                  traced, cycle, intra=prev_enc is None)
        times = {key: t_enc[key] + t_dec[key] for key in ("s", "cpu_s")}
        back = codec.parse(data)
        self._check(f"cycle {cycle} input {k}: parse(serialize(bs)) round-trips",
                    codec.serialize(back) == data and back == bs)
        self._check(f"cycle {cycle} input {k}: decoded coordinates and reference latent "
                    "match the encoder's",
                    np.array_equal(dec.decoded.points.coords, enc.decoded.points.coords)
                    and latent_equal(dec.reference_latent, enc.reference_latent))
        rec = {
            "input": k, "type": "P" if prev_enc is not None else "I",
            "points": frame.n, "bytes": bs.payload_bytes(), **times,
            "ddpc_sha256": sha256(data), "decoded_sha256": coords_digest(dec.decoded),
        }
        return (enc.reference_latent, dec.reference_latent), rec

    def _codec_cycle(self, cycle, traced):
        """One group of pictures: an I frame, then gop - 1 P frames."""
        state = (None, None)
        frames = []
        for j in range(self.w.gop):
            k = (cycle * self.w.gop + j) % self.w.frames
            state, rec = self._codec_frame(k, state, traced, cycle)
            frames.append(rec)
        return {"cycle": cycle, "points": sum(f["points"] for f in frames),
                "bytes": sum(f["bytes"] for f in frames),
                "s": sum(f["s"] for f in frames), "cpu_s": sum(f["cpu_s"] for f in frames),
                "frames": frames}

    def _eval_cycle(self, cycle, traced):
        k = cycle % self.w.frames
        a, b = self.pairs[k]

        def op():
            return metrics.d1_psnr(a, b, peak=PEAK), metrics.d2_psnr(a, b, peak=PEAK)

        (d1, d2), t = self._timed("eval", traced, cycle, op)
        return {"cycle": cycle, "input": k, "points": a.n + b.n, "s": t["s"],
                "cpu_s": t["cpu_s"], "d1_db": d1, "d2_db": d2}

    # -- the timed loop --------------------------------------------------------

    def _cycle(self, cycle):
        """Run one cycle.  With a tracer the cycle runs twice, untraced and
        traced in alternating order, and the two must give identical outputs."""
        run = self._codec_cycle if self.w.kind == "codec" else self._eval_cycle
        if self.tracer is None:
            return run(cycle, False)
        runs = {}
        for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
            runs[traced] = run(cycle, traced)
        plain, traced = runs[False], runs[True]
        self._check(f"cycle {cycle}: trace on and off give identical outputs",
                    fingerprint(plain) == fingerprint(traced),
                    ops=2 * self.w.gop if self.w.kind == "codec" else 1)
        plain["traced_s"], plain["traced_cpu_s"] = traced["s"], traced["cpu_s"]
        return plain

    def loop(self, seconds, min_cycles=1):
        """Run cycles until the next one would end after ``seconds``, taking
        the last cycle's duration as the estimate."""
        t_start = time.perf_counter()
        last = 0.0
        cycle = 0
        while cycle < min_cycles or time.perf_counter() - t_start + last <= seconds:
            reference = timed_reference()
            self.reference_cpu.append(reference)
            t0 = time.perf_counter()
            try:
                rec = self._cycle(cycle)
                rec["reference_cpu_s"] = reference
                self.cycles.append(rec)
            except Exception:
                # the operation under way fails and the cycle is abandoned
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            last = time.perf_counter() - t0
            cycle += 1
        self.loop_s = time.perf_counter() - t_start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def verify_eval(self):
        """D1 against chunked brute force, once per distinct pair (untimed)."""
        done = {}
        for rec in self.cycles:
            k = rec["input"]
            if k not in done:
                a, b = self.pairs[k]
                done[k] = brute_d1_psnr(a.points.coords, b.points.coords)
            ok = abs(rec["d1_db"] - done[k]) <= D1_TOLERANCE_DB
            self._check(f"cycle {rec['cycle']}: D1 matches brute force", ok)


def fingerprint(cycle):
    """What must not change when the tracer is on: the DDPC bytes and decoded
    coordinates of every frame, or the D1/D2 values of a pair."""
    if "frames" in cycle:
        return [(f["ddpc_sha256"], f["decoded_sha256"]) for f in cycle["frames"]]
    return [(cycle["d1_db"], cycle["d2_db"])]


def median(xs):
    return statistics.median(xs) if xs else None


def op_medians(run):
    """Untraced median wall and CPU seconds per operation kind, with the
    sample count."""
    out = {}
    for kind in ("encode_i", "encode_p", "decode_i", "decode_p", "eval"):
        ops = [o for o in run.ops if o["kind"] == kind and not o["traced"]]
        out[kind] = (median([o["s"] for o in ops]), median([o["cpu_s"] for o in ops]), len(ops))
    return out
