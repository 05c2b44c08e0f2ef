"""End-to-end frame codec: feature extraction, residual compression,
reconstruction with adaptive pruning, the "DDPC" container, and the
occupancy BCE.

Closed decoding loop: the encoder's analysis stops at integer symbols, and
both codec sides synthesize each frame from its symbols through one path,
``motion.compensate`` then ``_finish_frame``, so their latents are
bit-identical.  The next frame's reference latent is re-extracted from the
decoded geometry (Fig-level dataflow).

Synthesis runs only when its caller reads it: a ``FrameResult`` holds the
coded symbols and the prediction, and computes ``decoded``,
``decoded_latent``, ``scale_probs`` and ``reference_latent`` on first read.
Coding or decoding a frame, ``serialize`` and ``rate`` force none of them;
range decoding, motion compensation and every ``DecodeError`` check stay in
``decode`` itself.  The sequence generators read a reference only ahead of a
P frame, so a GOP-1 encode synthesizes nothing.

Only C2 is coded; every other coordinate set is derived once, on first use,
and shared with its kernel-map plans by analysis and synthesis alike.

``encode_sequence`` and ``decode_sequence`` own the group-of-pictures policy:
which frames are I frames, and which reference latent each P frame is coded
against.  ``encode_intra``, ``encode_inter`` and ``decode`` code one frame,
for callers that choose frame types and references themselves; the two
encoders share one body, which mirrors ``decode`` (an I frame without a
reference, a P frame with one).
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import entropy as ent
from . import motion as mo
from . import octree as oc
from .errors import ContractViolation, DecodeError, MissingReference, pack
from .nn import _conv, adaptive_prune, classify_occupancy, irn_block, prefixed
from .sparse import (CoordSet, PointCloudFrame, SparseTensor, _distinct, children_coords, lookup,
                     pack_keys)

MAGIC = b"DDPC"
VERSION = 1
FRAME_I = 0
FRAME_P = 1

SUB_COORDS = 1
SUB_MOTION = 2
SUB_RESIDUAL = 3
# the substream ids each frame type carries, exactly once each
FRAME_SUBSTREAMS = {
    FRAME_I: [SUB_COORDS, SUB_RESIDUAL],
    FRAME_P: [SUB_COORDS, SUB_MOTION, SUB_RESIDUAL],
}

LAMBDA_TAGS = (3, 4, 5, 7, 10)


@dataclass
class FrameBitstream:
    frame_type: int
    precision_bits: int
    lam: int
    n0: int
    n1: int
    substreams: list  # ordered (id, bytes)

    def payload_bytes(self) -> int:
        return sum(len(d) for _, d in self.substreams)

    def get(self, sid: int) -> bytes:
        for s, d in self.substreams:
            if s == sid:
                return d
        raise DecodeError(f"container lacks substream {sid}")


def serialize(bs: FrameBitstream) -> bytes:
    out = bytearray()
    out += MAGIC
    out += pack("<IBBBIIB", VERSION, bs.frame_type, bs.precision_bits, bs.lam, bs.n0, bs.n1,
                len(bs.substreams), what="DDPC header")
    for sid, data in bs.substreams:
        out += pack("<BI", sid, len(data), what="DDPC substream table")
    for _, data in bs.substreams:
        out += data
    return bytes(out)


def parse(data: bytes) -> FrameBitstream:
    if len(data) < 4 or data[:4] != MAGIC:
        raise DecodeError("bad container magic")
    try:
        version, ftype, precision, lam, n0, n1 = struct.unpack_from("<IBBBII", data, 4)
        pos = 4 + 15
        (count,) = struct.unpack_from("<B", data, pos)
        pos += 1
        table = []
        for _ in range(count):
            sid, length = struct.unpack_from("<BI", data, pos)
            pos += 5
            table.append((sid, length))
    except struct.error:
        raise DecodeError("container header truncated") from None
    if version != VERSION:
        raise DecodeError(f"unsupported container version {version}")
    if ftype not in (FRAME_I, FRAME_P):
        raise DecodeError(f"unknown frame type {ftype}")
    substreams = []
    for sid, length in table:
        if pos + length > len(data):
            raise DecodeError("substream table exceeds payload")
        substreams.append((sid, data[pos : pos + length]))
        pos += length
    if pos != len(data):
        raise DecodeError("trailing bytes after declared substreams")
    return FrameBitstream(ftype, precision, lam, n0, n1, substreams)


@dataclass(eq=False)
class FrameResult:
    """Everything the encoder/decoder knows after processing one frame.

    Built from what synthesis needs: the bitstream, the coded scale-2 set
    ``c2``, the coded symbols and, for a P frame, the motion-compensated
    prediction on ``c2``.  The rest is computed when first read, since
    coding a frame needs none of it: ``decoded``, ``decoded_latent`` and
    ``scale_probs`` run the frame's synthesis (``_finish_frame``) once, and
    ``reference_latent`` re-extracts the next frame's reference from the
    decoded frame; ``rate`` estimates the bits of the coded symbols."""

    bs: FrameBitstream
    c2: CoordSet
    residual_symbols: np.ndarray
    motion_symbols: np.ndarray | None    # None for an I frame
    predicted: SparseTensor | None       # the prediction on c2; None for an I frame
    models: dict
    w: object = field(repr=False)

    @cached_property
    def rate(self) -> ent.RateReport:
        breakdown = {"coords": 8.0 * len(self.bs.get(SUB_COORDS))}
        if self.motion_symbols is not None:
            breakdown["motion"] = ent.estimate_bits(self.motion_symbols, self.models["motion"])
        breakdown["residual"] = ent.estimate_bits(self.residual_symbols, self.models["residual"])
        return ent.RateReport(sum(breakdown.values()), breakdown)

    @cached_property
    def _synthesis(self):
        return _finish_frame(self.bs, self.c2, self.residual_symbols, self.predicted, self.w)

    @property
    def decoded_latent(self) -> SparseTensor:
        """y' on the scale-2 coordinates."""
        return self._synthesis[0]

    @property
    def decoded(self) -> PointCloudFrame:
        return self._synthesis[1]

    @property
    def scale_probs(self) -> list:
        """(probs, candidates, truth_scale) for each scale reconstructed."""
        return self._synthesis[2]

    @cached_property
    def reference_latent(self) -> SparseTensor:
        """The latent the next P frame is coded against."""
        if self.decoded.n == 0:
            return SparseTensor.empty(self.decoded_latent.channels, scale=2)
        return feature_extract(self.decoded, self.w)


def _block(x, w, prefix, up_to=None) -> SparseTensor:
    """A PCGCv2 scale block: a stride-2 conv, transposed onto ``up_to`` (a
    CoordSet or coordinate rows) when that is given, then three IRN blocks."""
    x = _conv(x, w, f"{prefix}.conv", up_to)
    for i in (1, 2, 3):
        x = irn_block(x, prefixed(w, f"{prefix}.irn{i}"))
    return x


def feature_extract(frame: PointCloudFrame, w) -> SparseTensor:
    """Two downsample blocks: scale 0 to scale 2."""
    if frame.n == 0:
        raise ContractViolation("cannot extract features from an empty frame")
    return _block(_block(frame.points, w, "fe.down1"), w, "fe.down2")


def _residual_decode(symbols: np.ndarray, c2: CoordSet, w) -> SparseTensor:
    """The scale-2 residual on ``c2`` from its latent symbols on ``c2.down()``."""
    lat = SparseTensor(c2.down(), symbols.astype(np.float32), scale=3)
    return _block(lat, w, "res.dec.up", up_to=c2)


def compress_residual(r: SparseTensor, model: ent.EntropyModel, w):
    """Encode the scale-2 residual; returns (bytes, symbols).

    The latent coordinate set is the floor-div of the residual's coordinates
    and is derived, not coded.
    """
    latent = _conv(_block(r, w, "res.enc.down"), w, "res.enc.head")
    symbols = ent.quantize(latent.feats)
    return ent.range_encode(symbols, model), symbols


def reconstruct(y_prime: SparseTensor, n1: int, n0: int, w, precision_bits: int):
    """Two upsample blocks with occupancy classification and adaptive pruning.

    Returns (decoded frame, [(probs, candidate coords, scale)]) for each
    scale reached; an empty prune ends the ladder.
    """
    probs_out = []
    x = y_prime
    for prefix, kept, scale in (("rec.up1", n1, 1), ("rec.up2", n0, 0)):
        x = _block(x, w, prefix, up_to=children_coords(x.coords))
        probs = classify_occupancy(x, prefixed(w, f"{prefix}.cls"))
        probs_out.append((probs, x.coords, scale))
        x = adaptive_prune(x, probs, kept)
        if x.n == 0:
            break
    decoded = SparseTensor(x.cset, np.ones((x.n, 1), dtype=np.float32))
    return PointCloudFrame(decoded, precision_bits), probs_out


def _finish_frame(bs, c2, residual_symbols, predicted, w):
    """Both codec sides' synthesis: the residual decoded from its symbols onto
    the set ``c2``, plus the prediction if any, is y'; from y' come the
    decoded frame and its occupancy probabilities.  Returns (y', decoded
    frame, scale probabilities)."""
    r_hat = _residual_decode(residual_symbols, c2, w)
    y_prime = r_hat if predicted is None else r_hat.with_feats(predicted.feats + r_hat.feats)
    decoded, probs = reconstruct(y_prime, bs.n1, bs.n0, w, bs.precision_bits)
    return y_prime, decoded, probs


def _encode(frame: PointCloudFrame, reference, models, w, alpha, lam):
    """One frame's analysis, as ``decode`` is its synthesis: an I frame when
    ``reference`` is None, else a P frame predicted from it."""
    if not isinstance(lam, numbers.Integral) or lam not in LAMBDA_TAGS:
        raise ContractViolation(f"lambda tag {lam!r} is not one of {LAMBDA_TAGS}")
    depth = frame.precision_bits - 2
    if not 1 <= depth <= oc.MAX_DEPTH:
        raise ContractViolation(f"precision {frame.precision_bits} outside [3, {oc.MAX_DEPTH + 2}]"
                                " (the octree codes C2 at precision - 2 bits)")
    # on a set of its own, so the sets and plans derived from it go with the call
    frame = PointCloudFrame(SparseTensor(frame.points.cset.fresh(), frame.points.feats),
                            frame.precision_bits)
    y = feature_extract(frame, w)
    ftype = FRAME_I if reference is None else FRAME_P
    coded = {SUB_COORDS: oc.serialize_stream(oc.octree_encode(y.coords, depth))}
    r, predicted, motion_symbols = y, None, None
    if reference is not None:
        predicted, coded[SUB_MOTION], motion_symbols = mo.predict_latent(
            y, reference, models["motion"], w, alpha)
        if predicted.cset is not y.cset:
            raise ContractViolation("prediction is not aligned with the current latent")
        r = y.with_feats(y.feats - predicted.feats)
    coded[SUB_RESIDUAL], residual_symbols = compress_residual(r, models["residual"], w)
    bs = FrameBitstream(ftype, frame.precision_bits, lam, frame.n, frame.points.cset.down().n,
                        [(sid, coded[sid]) for sid in FRAME_SUBSTREAMS[ftype]])
    return bs, FrameResult(bs, y.cset, residual_symbols, motion_symbols, predicted, models, w)


def encode_intra(frame: PointCloudFrame, models, w, lam=3):
    """Encode a frame without prediction: octree(C2) plus the latent of the
    frame's own features through the residual path."""
    return _encode(frame, None, models, w, None, lam)


def encode_inter(frame: PointCloudFrame, prev_latent: SparseTensor, models, w,
                 alpha=mo.DEFAULT_ALPHA, lam=3):
    """Encode a frame against ``prev_latent``, the previous frame's
    ``reference_latent``."""
    if prev_latent is None or prev_latent.n == 0:
        raise ContractViolation("inter frame requires a non-empty previous latent")
    return _encode(frame, prev_latent, models, w, alpha, lam)


def decode(bs: FrameBitstream, prev_latent, models, w, alpha=mo.DEFAULT_ALPHA):
    """Decode one frame; returns a FrameResult whose reference_latent feeds the
    next P frame.  A corrupt substream fails here; synthesis waits for a read."""
    ids = sorted(sid for sid, _ in bs.substreams)
    if ids != FRAME_SUBSTREAMS.get(bs.frame_type):
        raise DecodeError(f"frame type {bs.frame_type} carries substreams {ids}")
    if bs.frame_type == FRAME_P and (prev_latent is None or prev_latent.n == 0):
        raise MissingReference("P frame without a previous decoded latent")
    tree = oc.parse_stream(bs.get(SUB_COORDS))
    # the octree codes C2 of a (precision_bits)-bit frame; C2, C1 and C0 nest,
    # and each voxel has one to eight children on the next finer scale
    if tree.depth != bs.precision_bits - 2:
        raise DecodeError(f"octree depth {tree.depth} does not fit "
                          f"{bs.precision_bits}-bit precision")
    if not (tree.count <= bs.n1 <= bs.n0 and bs.n1 <= 8 * tree.count and bs.n0 <= 8 * bs.n1):
        raise DecodeError(f"point counts n0={bs.n0}, n1={bs.n1}, n2={tree.count} "
                          "cannot belong to one frame")
    c2 = CoordSet(oc.octree_decode(tree))
    # every substream is range-decoded before any network runs, so a corrupt
    # one fails before the motion path's work
    rsym = ent.range_decode(bs.get(SUB_RESIDUAL), models["residual"], c2.down().n)
    predicted = motion_symbols = None
    if bs.frame_type == FRAME_P:
        union = mo.motion_coord_sets(c2, prev_latent.cset)  # its C4 holds the motion latent
        motion_symbols = ent.range_decode(bs.get(SUB_MOTION), models["motion"],
                                          union.down().down().n)
        predicted = mo.compensate(motion_symbols, c2, prev_latent, w, alpha, union)
    return FrameResult(bs, c2, rsym, motion_symbols, predicted, models, w)


def encode_sequence(frames, models, w, gop=0, alpha=mo.DEFAULT_ALPHA, lam=3):
    """Encode ``frames`` in order, yielding (FrameBitstream, FrameResult) per
    frame.  Frame 0 and every ``gop``-th frame after it are I frames (``gop``
    0: frame 0 only); every other frame is a P frame against the previous
    frame's reference latent, which is synthesized only for such a frame.
    ``gop`` and ``alpha`` are checked before the first frame is coded."""
    if not isinstance(gop, numbers.Integral) or isinstance(gop, bool) or gop < 0:
        raise ContractViolation(f"gop must be non-negative and an integer, got {gop!r}")
    mo.check_alpha(alpha)
    result = None
    for i, frame in enumerate(frames):
        if i == 0 or (gop and i % gop == 0):
            bs, result = encode_intra(frame, models, w, lam)
        else:
            bs, result = encode_inter(frame, result.reference_latent, models, w, alpha, lam)
        yield bs, result


def decode_sequence(bitstreams, models, w, alpha=mo.DEFAULT_ALPHA):
    """Decode ``bitstreams`` in order, yielding a FrameResult per frame; each
    P frame is decoded against the previous frame's reference latent, which
    is re-extracted only for such a frame."""
    result = None
    for bs in bitstreams:
        reference = None
        if bs.frame_type == FRAME_P and result is not None:
            reference = result.reference_latent
        result = decode(bs, reference, models, w, alpha)
        yield result


def bce_occupancy(probs: np.ndarray, candidates: np.ndarray, truth: np.ndarray) -> float:
    """Natural-log BCE of candidate occupancy probabilities against the set of
    truly occupied voxels; ``truth`` rows may come in any order, repeated."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1 - 1e-12)
    _, occ = lookup(_distinct(pack_keys(truth)), pack_keys(candidates))
    o = occ.astype(np.float64)
    return float(-np.mean(o * np.log(p) + (1 - o) * np.log(1 - p)))

