"""Inter prediction: flow embedding, multi-scale motion fusion/reconstruction,
motion-embedding compression, and adaptively weighted interpolation.

All coordinate sets on the motion path derive deterministically from the
union of the current scale-2 coordinate set and the reference latent's
coordinates, so no motion coordinates are ever coded: C3 and C4 are the
union set's stride-down sets, derived once and shared by the encoder's
analysis and both sides' synthesis.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import entropy as ent
from .errors import ContractViolation
from .knn import knn
from .nn import _conv, prefixed, relu, rn_block
from .sparse import CoordSet, SparseTensor, concatenate, union

DIST_EPS = 1e-8  # squared-distance clamp realizing the coincident-point limit
DEFAULT_ALPHA = 3.0  # isolation penalty matching a minimum point spacing of 1


def check_alpha(alpha) -> None:
    # True is an int, and would pass as alpha 1; an int past the float range
    # would pass too, and overflow where alpha is used
    try:
        ok = (isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
              and 0 < float(alpha) < float("inf"))  # NaN included
    except OverflowError:
        ok = False
    if not ok:
        raise ContractViolation(f"alpha must be positive and finite, got {alpha!r}")


def flow_embedding(y_t: SparseTensor, y_prev: SparseTensor, w) -> SparseTensor:
    """Original flow embedding on the union of both sets, of one scale and width."""
    if y_t.channels != y_prev.channels:
        raise ContractViolation("latents must share a channel count")
    e = relu(_conv(concatenate(y_t, y_prev), w, "flow.conv1"))
    return _conv(e, w, "flow.conv2")


def fuse_flow(e_o: SparseTensor, w) -> SparseTensor:
    """Coarse/fine fusion of the flow embedding, one scale down.

    coarse = RN(RN(down(e_o))); residual = e_o - up(coarse) on e_o's coords;
    fine = down(residual); fused = coarse + fine.  Both downs are stride-2
    convs of e_o's set, so coarse and fine share its stride-down set.
    """
    coarse = _conv(e_o, w, "fuse.down.conv")
    coarse = rn_block(rn_block(coarse, prefixed(w, "fuse.rn1")), prefixed(w, "fuse.rn2"))
    up = _conv(coarse, w, "fuse.up.conv", e_o.cset)
    residual = e_o.with_feats(e_o.feats - up.feats)
    fine = _conv(residual, w, "fuse.fine.conv")
    return coarse.with_feats(coarse.feats + fine.feats)


def compress_motion(e_t: SparseTensor, model: ent.EntropyModel, w):
    """Quantize and range-code the downsampled motion embedding.

    Returns (substream bytes, integer latent symbols); :func:`compensate`
    turns the symbols back into a prediction.
    """
    latent = _conv(e_t, w, "mot.enc.conv")
    symbols = ent.quantize(latent.feats)
    return ent.range_encode(symbols, model), symbols


def decode_motion_latent(symbols, latent_coords, target_coords, target_scale, w):
    """The flow embedding on ``target_coords`` from its integer symbols."""
    latent = SparseTensor(latent_coords, symbols.astype(np.float32), target_scale + 1)
    return _conv(latent, w, "mot.dec.conv", target_coords)


def recover_motion(e_hat: SparseTensor, target_coords, w) -> SparseTensor:
    """Decode the motion field on the current frame's scale-2 coordinates.

    Mirrors the fusion stage: a coarse 3-channel field predicted one scale
    up is upsampled and summed with a fine field predicted directly on the
    target coordinates.
    """
    coarse = rn_block(rn_block(e_hat, prefixed(w, "mfield.rn1")), prefixed(w, "mfield.rn2"))
    m_coarse = _conv(coarse, w, "mfield.coarse_head")
    fine = _conv(e_hat, w, "mfield.up.conv", target_coords)
    m_fine = _conv(fine, w, "mfield.fine_head")
    m_up = _conv(m_coarse, w, "mfield.coarse_up.conv", target_coords)
    return m_up.with_feats(m_up.feats + m_fine.feats)


def adaptive_interpolate(
    motion: SparseTensor, reference: SparseTensor, alpha: float
) -> SparseTensor:
    """Predict features by inverse-squared-distance 3-NN interpolation.

    Each coordinate u is translated by its motion vector; the prediction is
    sum(w_v * ref_v) / max(sum(w_v), alpha) over the translated point's three
    nearest reference points, with w_v the inverse squared distance (clamped
    below at DIST_EPS).  The alpha cap shrinks predictions for translated
    points that are isolated in the reference; with all neighbours far away
    the prediction tends to the zero vector.
    """
    if motion.channels != 3:
        raise ContractViolation("motion field must have 3 channels")
    check_alpha(alpha)
    translated = motion.coords.astype(np.float64) + motion.feats.astype(np.float64)
    idx, _ = knn(translated, reference, 3)
    out = interpolate_over(translated, reference.coords, reference.feats, idx, alpha)[0]
    return motion.with_feats(out.astype(reference.feats.dtype))


def interpolate_over(translated, coords, feats, idx, alpha):
    """The adaptively weighted interpolation of adaptive_interpolate over
    fixed neighbours: row q mixes the reference features ``feats[idx[q]]``
    by the distances from ``translated[q]`` to ``coords[idx[q]]``.

    Returns (prediction, mix, s, d2, offset): the float64 prediction, the
    weights w / max(s, alpha) with s = sum(w), the squared distances (the
    squared offsets added x, y, z in that order, as knn adds them, so they
    equal knn's bit for bit), and the neighbour-minus-query offsets.
    """
    offset = np.take(coords, idx, axis=0).astype(np.float64) - translated[:, None, :]
    d2 = (offset**2).sum(axis=2)
    w = 1.0 / np.maximum(d2, DIST_EPS)
    s = w.sum(axis=1)
    mix = w / np.maximum(s, alpha)[:, None]
    pred = np.einsum("qk,qkc->qc", mix, np.take(feats, idx, axis=0).astype(np.float64))
    return pred, mix, s, d2, offset


def interpolate_gradients(motion, reference, alpha, grad_out):
    """Analytic gradients of adaptive_interpolate w.r.t. reference features
    and motion vectors, with the 3-NN membership frozen.

    Returns (grad_reference_feats, grad_motion, idx, d2).
    """
    feats = reference.feats.astype(np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    translated = motion.coords.astype(np.float64) + motion.feats.astype(np.float64)
    idx, _ = knn(translated, reference, 3)
    pred, mix, s, d2, offset = interpolate_over(translated, reference.coords, feats, idx, alpha)

    grad_ref = np.zeros_like(feats)
    np.add.at(grad_ref, idx, mix[:, :, None] * grad_out[:, None, :])

    # dL/dw_v, split by the active branch of the max() denominator
    gy = np.einsum("qc,qkc->qk", grad_out, np.take(feats, idx, axis=0))
    capped = s < alpha
    dw = np.where(
        capped[:, None],
        gy / alpha,
        (gy - np.einsum("qc,qc->q", grad_out, pred)[:, None]) / s[:, None],
    )
    # w = 1/clamp(d2): flat inside the clamp; d(d2)/d(translated) = -2 offset
    dd2 = np.where(d2 > DIST_EPS, -dw / np.maximum(d2, DIST_EPS) ** 2, 0.0)
    grad_motion = -(dd2[:, :, None] * 2.0 * offset).sum(axis=1)
    return grad_ref, grad_motion, idx, d2


def motion_coord_sets(c2_current: CoordSet, prev: CoordSet) -> CoordSet:
    """The scale-2 union both codec sides derive; C3 and C4 are its down() sets."""
    return union(c2_current, prev)


def compensate(symbols, c2, reference: SparseTensor, w, alpha: float, joint: CoordSet):
    """Both codec sides' prediction on ``c2`` from the motion symbols, which
    sit on C4 of ``joint``, the set of motion_coord_sets(c2, reference.cset)."""
    c3 = joint.down()
    e_hat = decode_motion_latent(symbols, c3.down(), c3, reference.scale + 1, w)
    return adaptive_interpolate(recover_motion(e_hat, c2, w), reference, alpha)


def predict_latent(
    y_t: SparseTensor,
    y_prev: SparseTensor,
    model: ent.EntropyModel,
    w,
    alpha: float,
):
    """Full inter-prediction: estimate, compress, compensate.

    Returns (predicted latent on y_t's coordinates, motion substream bytes,
    integer latent symbols).
    """
    if y_prev.n == 0:
        raise ContractViolation("previous latent is empty; encode intra instead")
    e_o = flow_embedding(y_t, y_prev, w)
    e_t = fuse_flow(e_o, w)
    data, symbols = compress_motion(e_t, model, w)
    # the flow embedding sits on the union, whose C3 and C4 the analysis derived
    return compensate(symbols, y_t.cset, y_prev, w, alpha, e_o.cset), data, symbols
