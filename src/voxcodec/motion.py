"""Inter prediction: flow embedding, multi-scale motion fusion/reconstruction,
motion-embedding compression, and adaptively weighted interpolation.

All coordinate sets on the motion path derive deterministically from the
union of the current scale-2 coordinate set and the reference latent's
coordinates, so no motion coordinates are ever coded.
"""

from __future__ import annotations

import numpy as np

from . import entropy as ent
from .errors import ContractViolation
from .knn import knn
from .nn import _conv, prefixed, relu, rn_block
from .sparse import (
    SparseTensor,
    add_on_union,
    concatenate,
    pack_keys,
    stride_down_coords,
    unpack_keys,
)

DIST_EPS = 1e-8  # squared-distance clamp realizing the coincident-point limit


def flow_embedding(y_t: SparseTensor, y_prev: SparseTensor, w) -> SparseTensor:
    """Original flow embedding on the union of both coordinate sets."""
    if y_t.scale != y_prev.scale:
        raise ContractViolation("latents must share a scale")
    if y_t.channels != y_prev.channels:
        raise ContractViolation("latents must share a channel count")
    e = relu(_conv(concatenate(y_t, y_prev), w, "flow.conv1"))
    return _conv(e, w, "flow.conv2")


def fuse_flow(e_o: SparseTensor, w) -> SparseTensor:
    """Coarse/fine fusion of the flow embedding, one scale down.

    coarse = RN(RN(down(e_o))); residual = e_o - up(coarse) on e_o's coords;
    fine = down(residual); fused = coarse + fine (identical coordinates).
    """
    coarse = _conv(e_o, w, "fuse.down.conv")
    coarse = rn_block(rn_block(coarse, prefixed(w, "fuse.rn1")), prefixed(w, "fuse.rn2"))
    up = _conv(coarse, w, "fuse.up.conv", e_o.coords, transposed=True)
    residual = e_o.with_feats(e_o.feats - up.feats)
    fine = _conv(residual, w, "fuse.fine.conv")
    return add_on_union(coarse, fine)


def compress_motion(e_t: SparseTensor, model: ent.EntropyModel, w):
    """Quantize and range-code the downsampled motion embedding.

    Returns (substream bytes, reconstructed embedding on e_t's coordinates,
    integer latent symbols).
    """
    latent = _conv(e_t, w, "mot.enc.conv")
    symbols = ent.quantize(latent.feats)
    data = ent.range_encode(symbols, model)
    e_hat = decode_motion_latent(symbols, latent.coords, e_t.coords, e_t.scale, w)
    return data, e_hat, symbols


def decode_motion_latent(symbols, latent_coords, target_coords, target_scale, w):
    """Shared encoder/decoder reconstruction of the flow embedding."""
    latent = SparseTensor(
        latent_coords, symbols.astype(np.float32), target_scale + 1, _trusted=True
    )
    return _conv(latent, w, "mot.dec.conv", target_coords, transposed=True)


def recover_motion(e_hat: SparseTensor, target_coords: np.ndarray, w) -> SparseTensor:
    """Decode the motion field on the current frame's scale-2 coordinates.

    Mirrors the fusion stage: a coarse 3-channel field predicted one scale
    up is upsampled and summed with a fine field predicted directly on the
    target coordinates.
    """
    coarse = rn_block(rn_block(e_hat, prefixed(w, "mfield.rn1")), prefixed(w, "mfield.rn2"))
    m_coarse = _conv(coarse, w, "mfield.coarse_head")
    fine = _conv(e_hat, w, "mfield.up.conv", target_coords, transposed=True)
    m_fine = _conv(fine, w, "mfield.fine_head")
    m_up = _conv(m_coarse, w, "mfield.coarse_up.conv", target_coords, transposed=True)
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
    if reference.n == 0:
        raise ContractViolation("reference latent is empty")
    if motion.channels != 3:
        raise ContractViolation("motion field must have 3 channels")
    if alpha <= 0:
        raise ContractViolation("alpha must be positive")
    translated = motion.coords.astype(np.float64) + motion.feats.astype(np.float64)
    idx, d2 = knn(translated, reference, 3)
    w = 1.0 / np.maximum(d2, DIST_EPS)
    denom = np.maximum(w.sum(axis=1), alpha)
    mix = w / denom[:, None]
    out = np.einsum("qk,qkc->qc", mix, reference.feats[idx].astype(np.float64))
    return SparseTensor(
        motion.coords, out.astype(reference.feats.dtype), motion.scale, _trusted=True
    )


def interpolate_gradients(motion, reference, alpha, grad_out, idx=None, d2=None):
    """Analytic gradients of adaptive_interpolate w.r.t. reference features
    and motion vectors, with the 3-NN membership frozen.

    Returns (grad_reference_feats, grad_motion, idx, d2).
    """
    feats = reference.feats.astype(np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    translated = motion.coords.astype(np.float64) + motion.feats.astype(np.float64)
    if idx is None:
        idx, d2 = knn(translated, reference, 3)
    d2c = np.maximum(d2, DIST_EPS)
    w = 1.0 / d2c
    s = w.sum(axis=1)
    denom = np.maximum(s, alpha)
    mix = w / denom[:, None]

    grad_ref = np.zeros_like(feats)
    np.add.at(grad_ref, idx, mix[:, :, None] * grad_out[:, None, :])

    # dL/dw_v, split by the active branch of the max() denominator
    gy = np.einsum("qc,qkc->qk", grad_out, feats[idx])
    pred = np.einsum("qk,qkc->qc", mix, feats[idx])
    capped = s < alpha
    dw = np.where(
        capped[:, None],
        gy / alpha,
        (gy - np.einsum("qc,qc->q", grad_out, pred)[:, None]) / s[:, None],
    )
    # w = 1/clamp(d2): flat inside the clamp
    dd2 = np.where(d2 > DIST_EPS, -dw / (d2c**2), 0.0)
    diff = translated[:, None, :] - reference.coords[idx].astype(np.float64)
    grad_motion = (dd2[:, :, None] * 2.0 * diff).sum(axis=1)
    return grad_ref, grad_motion, idx, d2


def motion_coord_sets(c2_current: np.ndarray, prev_coords: np.ndarray):
    """Scale-2/3/4 coordinate sets both codec sides derive identically."""
    union = np.union1d(pack_keys(c2_current), pack_keys(prev_coords))
    c_union = unpack_keys(union)
    c3 = stride_down_coords(c_union)
    c4 = stride_down_coords(c3)
    return c_union, c3, c4


def predict_latent(
    y_t: SparseTensor,
    y_prev: SparseTensor,
    model: ent.EntropyModel,
    w,
    alpha: float,
):
    """Full inter-prediction: estimate, compress, reconstruct, compensate.

    Returns (predicted latent on y_t's coordinates, motion substream bytes,
    integer latent symbols).
    """
    if y_prev.n == 0:
        raise ContractViolation("previous latent is empty; encode intra instead")
    e_o = flow_embedding(y_t, y_prev, w)
    e_t = fuse_flow(e_o, w)
    data, e_hat, symbols = compress_motion(e_t, model, w)
    m_t = recover_motion(e_hat, y_t.coords, w)
    predicted = adaptive_interpolate(m_t, y_prev, alpha)
    return predicted, data, symbols
