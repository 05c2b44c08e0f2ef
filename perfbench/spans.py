"""Outside-in tracer: wraps voxcodec's public functions by patching module
attributes, so nothing under ``src/`` knows it is being measured.

A wrapped call records a span ``[name, start, end, parent, frame]`` in memory;
hooks add counts after the span has closed.  A hook runs inside a
``trace.hook`` span of its own, so its cost lands in no layer's self time.
``install`` patches every module attribute that is bound to a target function,
which covers names bound by ``from ... import`` (``codec.sparse_conv``,
``motion.knn``, ``metrics.knn``, ``octree.encode_bytes_adaptive``, ...).
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, FRAME = range(5)

# (module, attribute) pairs wrapped by the tracer.  The span name is
# "<module>.<attribute>"; the layer of a span is its module.
TARGETS = [
    ("ply", "load_ply"),
    ("ply", "write_frame"),
    ("weights", "validate_store"),
    ("weights", "entropy_models"),
    ("sparse", "stride_down_coords"),
    ("sparse", "concatenate"),
    ("sparse", "add_on_union"),
    ("nn", "build_kernel_map"),
    ("nn", "sparse_conv"),
    ("nn", "irn_block"),
    ("nn", "rn_block"),
    ("nn", "classify_occupancy"),
    ("nn", "adaptive_prune"),
    ("knn", "knn"),
    ("knn", "GridIndex"),
    ("rangecoder", "encode_bytes_adaptive"),
    ("entropy", "estimate_bits"),
    ("entropy", "range_encode"),
    ("entropy", "range_decode"),
    ("octree", "octree_encode"),
    ("octree", "octree_decode"),
    ("motion", "flow_embedding"),
    ("motion", "fuse_flow"),
    ("motion", "compress_motion"),
    ("motion", "decode_motion_latent"),
    ("motion", "recover_motion"),
    ("motion", "adaptive_interpolate"),
    ("motion", "motion_coord_sets"),
    ("motion", "predict_latent"),
    ("metrics", "d1_psnr"),
    ("metrics", "d2_psnr"),
    ("metrics", "estimate_normals"),
    ("codec", "serialize"),
    ("codec", "parse"),
    ("codec", "feature_extract"),
    ("codec", "compress_residual"),
    ("codec", "_residual_decode"),
    ("codec", "reconstruct"),
    ("codec", "_finish_frame"),
    ("codec", "encode_intra"),
    ("codec", "encode_inter"),
    ("codec", "decode"),
]

# Spans whose self time is glue between stages; it counts as unattributed.
ORCHESTRATION = {
    "codec.encode_intra", "codec.encode_inter", "codec.decode",
    "codec._finish_frame", "motion.predict_latent",
}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Span and count registry plus the module patches that feed it."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(float)
        self.frame = -1
        self._stack = []
        self._patches = []
        self._notes = {}
        self._kmap_keys = set()
        self._hooks = {
            "nn.build_kernel_map": self._on_kernel_map,
            "nn.sparse_conv": self._on_conv,
            "nn.adaptive_prune": self._on_prune,
            "knn.knn": self._on_knn,
            "motion.flow_embedding": self._on_union,
            "motion.motion_coord_sets": self._on_union,
            "entropy.range_encode": self._on_range_encode,
            "octree.octree_encode": self._on_octree,
            "codec.encode_intra": self._on_encoded,
            "codec.encode_inter": self._on_encoded,
        }

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.frame]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def begin_frame(self, frame):
        """Start a new operation: spans carry ``frame`` and the kernel-map
        repeat detector forgets earlier builds."""
        self.frame = frame
        self._kmap_keys.clear()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            rec = self.open(name)
            idx = self._stack[-1]
            if name == "motion.adaptive_interpolate":
                # the alpha cap is read by the kNN hook inside this span
                self._notes[idx] = _arg(args, kwargs, 2, "alpha")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if hook is not None:
                h = self.open("trace.hook")
                try:
                    hook(idx, args, kwargs, out)
                finally:
                    self.close(h)
            return out

        return traced

    @property
    def installed(self):
        return bool(self._patches)

    def install(self):
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items()
                   if n == self.package or n.startswith(self.package + ".")]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[f"{self.package}.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapped)
        store = sys.modules[f"{self.package}.weights"].WeightStore
        load = store.__dict__["load"]
        self._patches.append((store, "load", load))
        store.load = classmethod(self._wrap("weights.load", load.__func__))

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- hooks (run after the span closes, inside a trace.hook span) -------

    def _on_kernel_map(self, idx, args, kwargs, kmap):
        spec = _arg(args, kwargs, 2, "spec")
        in_c = np.ascontiguousarray(_arg(args, kwargs, 0, "in_coords"))
        out_c = np.ascontiguousarray(_arg(args, kwargs, 1, "out_coords"))
        pairs = sum(int(i.size) for i, _ in kmap.pairs)
        rec = self.spans[idx]
        self.counts["nn.kmap_builds"] += 1
        self.counts["nn.kmap_pairs"] += pairs
        if spec.kernel_size == 1:
            self.counts["nn.kmap_1x1_s"] += rec[END] - rec[START]
        key = (spec.kernel_size, spec.stride, spec.transposed, in_c.shape, out_c.shape,
               hash(in_c.astype(np.int64).tobytes()), hash(out_c.astype(np.int64).tobytes()))
        if key in self._kmap_keys:
            self.counts["nn.kmap_repeats"] += 1
        self._kmap_keys.add(key)
        self._notes[rec[PARENT]] = pairs

    def _on_conv(self, idx, args, kwargs, out):
        spec = _arg(args, kwargs, 1, "spec")
        kmap = _arg(args, kwargs, 5, "kmap")
        if kmap is not None:
            pairs = sum(int(i.size) for i, _ in kmap.pairs)
        else:
            pairs = self._notes.pop(idx, 0)
        self.counts["nn.conv_calls"] += 1
        self.counts["nn.conv_macs"] += pairs * spec.in_channels * spec.out_channels

    def _on_prune(self, idx, args, kwargs, out):
        self.counts["nn.prune_candidates"] += _arg(args, kwargs, 0, "x").n
        self.counts["nn.prune_kept"] += out.n

    def _on_knn(self, idx, args, kwargs, out):
        _, d2 = out
        self.counts["knn.queries"] += d2.shape[0]
        alpha = self._notes.pop(self.spans[idx][PARENT], None)
        if alpha is not None:
            eps = sys.modules[f"{self.package}.motion"].DIST_EPS
            weight = (1.0 / np.maximum(d2, eps)).sum(axis=1)
            self.counts["motion.interp_queries"] += d2.shape[0]
            self.counts["motion.capped"] += int(np.count_nonzero(weight < alpha))

    def _on_union(self, idx, args, kwargs, out):
        union = out if not isinstance(out, tuple) else out[0]
        self.counts["motion.union_points"] += union.n if hasattr(union, "n") else len(union)

    def _on_range_encode(self, idx, args, kwargs, data):
        symbols = np.asarray(_arg(args, kwargs, 0, "symbols"), dtype=np.int64)
        model = _arg(args, kwargs, 1, "model")
        if symbols.ndim == 1:
            symbols = symbols.reshape(-1, 1)
        self.counts["entropy.symbols"] += symbols.size
        for c in range(model.channels):
            slot = symbols[:, c] - int(model.offsets[c])
            self.counts["entropy.escapes"] += int(
                np.count_nonzero((slot < 0) | (slot >= model.nsym(c))))

    def _on_octree(self, idx, args, kwargs, stream):
        self.counts["octree.points"] += stream.count

    def _on_encoded(self, idx, args, kwargs, out):
        bs, result = out
        self.counts["codec.coded_bits"] += 8 * bs.payload_bytes()
        self.counts["codec.estimated_bits"] += result.rate.total_bits
        for sid, data in bs.substreams:
            self.counts[f"codec.substream{sid}_bytes"] += len(data)

    def write(self, path):
        """Write spans (one JSON object per line) and the counts."""
        with open(path, "w") as fh:
            for name, start, end, parent, frame in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "frame": frame}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def read_spans(path):
    """Spans and counts as written by ``Tracer.write``."""
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append([rec["name"], rec["start"], rec["end"], rec["parent"],
                              rec["frame"]])
    return spans, counts


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def roots(spans):
    """Index of each span's outermost ancestor (parents precede children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out
