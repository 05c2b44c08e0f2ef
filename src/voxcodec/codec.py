"""End-to-end frame codec: feature extraction, residual compression,
reconstruction with adaptive pruning, the "DDPC" container, and the
rate-distortion loss.

Closed decoding loop: the encoder reconstructs every frame through the same
integer-symbol path the decoder uses, so encoder- and decoder-side latents
are bit-identical, and the next frame's reference latent is re-extracted from
the decoded geometry (Fig-level dataflow; a carry-forward variant reuses the
decoded latent directly).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import entropy as ent
from . import motion as mo
from . import octree as oc
from .errors import ContractViolation, DecodeError, MissingReference
from .nn import _conv, adaptive_prune, classify_occupancy, irn_block, prefixed
from .sparse import PointCloudFrame, SparseTensor, lookup, pack_keys, stride_down_coords

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
    out += struct.pack("<IBBBII", VERSION, bs.frame_type, bs.precision_bits, bs.lam, bs.n0, bs.n1)
    out += struct.pack("<B", len(bs.substreams))
    for sid, data in bs.substreams:
        out += struct.pack("<BI", sid, len(data))
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


@dataclass
class LossReport:
    rate_bpp: float
    distortion: float
    lam: float

    @property
    def loss(self) -> float:
        return self.rate_bpp + self.lam * self.distortion


@dataclass
class FrameResult:
    """Everything the encoder/decoder knows after processing one frame."""

    decoded: PointCloudFrame
    decoded_latent: SparseTensor          # y' on the scale-2 coordinates
    reference_latent: SparseTensor        # reference for the next frame
    rate: ent.RateReport
    scale_probs: list = field(default_factory=list)   # (probs, candidates, truth_scale)
    motion_symbols: np.ndarray | None = None
    residual_symbols: np.ndarray | None = None


def _block(x, w, prefix, up_to=None) -> SparseTensor:
    """A PCGCv2 scale block: a stride-2 conv, transposed onto ``up_to`` when
    that is given, then three IRN blocks."""
    x = _conv(x, w, f"{prefix}.conv", up_to, transposed=up_to is not None)
    for i in (1, 2, 3):
        x = irn_block(x, prefixed(w, f"{prefix}.irn{i}"))
    return x


def feature_extract(frame: PointCloudFrame, w) -> SparseTensor:
    """Two downsample blocks: scale 0 to scale 2."""
    if frame.n == 0:
        raise ContractViolation("cannot extract features from an empty frame")
    return _block(_block(frame.points, w, "fe.down1"), w, "fe.down2")


def _residual_decode(symbols: np.ndarray, latent_coords, c2_coords, w) -> SparseTensor:
    lat = SparseTensor(latent_coords, symbols.astype(np.float32), scale=3, _trusted=True)
    return _block(lat, w, "res.dec.up", up_to=c2_coords)


def compress_residual(r: SparseTensor, model: ent.EntropyModel, w):
    """Encode the scale-2 residual; returns (bytes, reconstruction, symbols).

    The latent coordinate set is the floor-div of the residual's coordinates
    and is derived, not coded.
    """
    latent = _conv(_block(r, w, "res.enc.down"), w, "res.enc.head")
    symbols = ent.quantize(latent.feats)
    data = ent.range_encode(symbols, model)
    r_hat = _residual_decode(symbols, latent.coords, r.coords, w)
    return data, r_hat, symbols


def _children(coords: np.ndarray) -> np.ndarray:
    """All eight children of each voxel, lexicographically sorted."""
    offs = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=np.int64)
    kids = (2 * coords.astype(np.int64))[:, None, :] + offs[None, :, :]
    kids = kids.reshape(-1, 3)
    keys = pack_keys(kids)
    order = np.argsort(keys)
    return kids[order].astype(np.int32)


def reconstruct(y_prime: SparseTensor, n1: int, n0: int, w, precision_bits: int):
    """Two upsample blocks with occupancy classification and adaptive pruning.

    Returns (decoded frame, [(probs, candidate coords, scale)]) with the
    probability lists covering both reconstruction scales.
    """
    probs_out = []
    x = _block(y_prime, w, "rec.up1", up_to=_children(y_prime.coords))
    p1 = classify_occupancy(x, prefixed(w, "rec.up1.cls"))
    probs_out.append((p1, x.coords, 1))
    x = adaptive_prune(x, p1, n1)
    if x.n == 0:
        return PointCloudFrame.from_coords(np.empty((0, 3), np.int64), precision_bits), probs_out
    x = _block(x, w, "rec.up2", up_to=_children(x.coords))
    p0 = classify_occupancy(x, prefixed(w, "rec.up2.cls"))
    probs_out.append((p0, x.coords, 0))
    x = adaptive_prune(x, p0, n0)
    frame = PointCloudFrame.from_coords(x.coords, precision_bits)
    return frame, probs_out


def _frame_counts(frame: PointCloudFrame):
    c1 = stride_down_coords(frame.points.coords)
    return frame.n, c1.shape[0]


def _coords_substream(c2: np.ndarray, precision_bits: int) -> bytes:
    depth = precision_bits - 2
    return oc.serialize_stream(oc.octree_encode(c2, depth))


def _finish_frame(y_prime, bs, models, w, latent_carry=False,
                  motion_symbols=None, residual_symbols=None, octree_bytes=0):
    decoded, probs = reconstruct(y_prime, bs.n1, bs.n0, w, bs.precision_bits)
    if latent_carry:
        reference = y_prime
    elif decoded.n == 0:
        reference = SparseTensor.empty(y_prime.channels, scale=2)
    else:
        reference = feature_extract(decoded, w)
    est_bits = 8.0 * octree_bytes
    breakdown = {"coords": 8.0 * octree_bytes}
    if motion_symbols is not None:
        b = ent.estimate_bits(motion_symbols, models["motion"])
        est_bits += b
        breakdown["motion"] = b
    if residual_symbols is not None:
        b = ent.estimate_bits(residual_symbols, models["residual"])
        est_bits += b
        breakdown["residual"] = b
    rate = ent.RateReport(est_bits, bs.payload_bytes(), breakdown)
    return FrameResult(decoded, y_prime, reference, rate, probs,
                       motion_symbols, residual_symbols)


def encode_intra(frame: PointCloudFrame, models, w, lam=3, latent_carry=False):
    """Encode a frame without prediction: octree(C2) plus the latent of the
    frame's own features through the residual path."""
    y = feature_extract(frame, w)
    n0, n1 = _frame_counts(frame)
    coords_sub = _coords_substream(y.coords, frame.precision_bits)
    res_bytes, r_hat, symbols = compress_residual(y, models["residual"], w)
    bs = FrameBitstream(FRAME_I, frame.precision_bits, lam, n0, n1,
                        [(SUB_COORDS, coords_sub), (SUB_RESIDUAL, res_bytes)])
    result = _finish_frame(r_hat, bs, models, w, latent_carry,
                           residual_symbols=symbols, octree_bytes=len(coords_sub))
    return bs, result


def encode_inter(frame: PointCloudFrame, prev_latent: SparseTensor, models, w,
                 alpha=3.0, lam=3, latent_carry=False):
    """Encode a frame against the previous decoded latent."""
    if prev_latent is None or prev_latent.n == 0:
        raise ContractViolation("inter frame requires a non-empty previous latent")
    y = feature_extract(frame, w)
    n0, n1 = _frame_counts(frame)
    predicted, motion_bytes, motion_symbols = mo.predict_latent(
        y, prev_latent, models["motion"], w, alpha
    )
    if not np.array_equal(predicted.coords, y.coords):
        raise ContractViolation("prediction is not aligned with the current latent")
    r = y.with_feats(y.feats - predicted.feats)
    res_bytes, r_hat, residual_symbols = compress_residual(r, models["residual"], w)
    y_prime = y.with_feats(predicted.feats + r_hat.feats)
    coords_sub = _coords_substream(y.coords, frame.precision_bits)
    bs = FrameBitstream(FRAME_P, frame.precision_bits, lam, n0, n1,
                        [(SUB_COORDS, coords_sub), (SUB_MOTION, motion_bytes),
                         (SUB_RESIDUAL, res_bytes)])
    result = _finish_frame(y_prime, bs, models, w, latent_carry,
                           motion_symbols=motion_symbols,
                           residual_symbols=residual_symbols,
                           octree_bytes=len(coords_sub))
    return bs, result


def decode(bs: FrameBitstream, prev_latent, models, w, alpha=3.0, latent_carry=False):
    """Decode one frame; returns (FrameResult) whose reference_latent feeds the
    next P frame."""
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
    c2 = oc.octree_decode(tree)
    c3 = stride_down_coords(c2)
    if bs.frame_type == FRAME_P:
        _, mc3, mc4 = mo.motion_coord_sets(c2, prev_latent.coords)
        msym = ent.range_decode(bs.get(SUB_MOTION), models["motion"], mc4.shape[0])
        e_hat = mo.decode_motion_latent(msym, mc4, mc3, 3, w)
        m_t = mo.recover_motion(e_hat, c2, w)
        predicted = mo.adaptive_interpolate(m_t, prev_latent, alpha)
        rsym = ent.range_decode(bs.get(SUB_RESIDUAL), models["residual"], c3.shape[0])
        r_hat = _residual_decode(rsym, c3, c2, w)
        y_prime = r_hat.with_feats(predicted.feats + r_hat.feats)
        motion_symbols = msym
    else:
        rsym = ent.range_decode(bs.get(SUB_RESIDUAL), models["residual"], c3.shape[0])
        y_prime = _residual_decode(rsym, c3, c2, w)
        motion_symbols = None
    octree_bytes = len(bs.get(SUB_COORDS))
    return _finish_frame(y_prime, bs, models, w, latent_carry=latent_carry,
                         motion_symbols=motion_symbols, residual_symbols=rsym,
                         octree_bytes=octree_bytes)


def bce_occupancy(probs: np.ndarray, candidates: np.ndarray, truth: np.ndarray) -> float:
    """Natural-log BCE of candidate occupancy probabilities against the set of
    truly occupied voxels."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, 1 - 1e-12)
    _, occ = lookup(pack_keys(truth), pack_keys(candidates))
    o = occ.astype(np.float64)
    return float(-np.mean(o * np.log(p) + (1 - o) * np.log(1 - p)))


def eval_loss(frame: PointCloudFrame, result: FrameResult, lam: float) -> LossReport:
    """Rate-distortion loss: estimated bits per point plus lambda times the
    two-scale mean candidate BCE."""
    rate_bpp = result.rate.total_bits / frame.n
    truth = {0: frame.points.coords, 1: stride_down_coords(frame.points.coords)}
    terms = []
    for probs, candidates, scale in result.scale_probs:
        terms.append(bce_occupancy(probs, candidates, truth[scale]))
    distortion = float(np.mean(terms)) if terms else 0.0
    return LossReport(rate_bpp, distortion, lam)
