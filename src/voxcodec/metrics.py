"""Geometry distortion metrics and rate-distortion curve comparison.

D1/D2 follow the MPEG pc_error convention with a 3*peak^2 numerator; D2
normals come from PCA over each reference point's 16 nearest neighbours
(smallest-eigenvalue eigenvector, sign-normalized to the +x hemisphere,
ties resolved toward +y then +z).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .knn import knn
from .sparse import PointCloudFrame

DEFAULT_PEAK = 1023


def _coords(frame) -> np.ndarray:
    if isinstance(frame, PointCloudFrame):
        return frame.points.coords
    return np.asarray(frame).reshape(-1, 3)


def _nearest(queries: np.ndarray, reference: np.ndarray):
    idx, d2 = knn(queries.astype(np.float64), reference.astype(np.int64), 1)
    return idx[:, 0], d2[:, 0]


def _operands(a, b, peak, metric):
    """Coordinates of two clouds a metric may compare at this peak."""
    if not 0 < peak < float("inf"):
        raise ContractViolation(f"{metric} peak must be positive and finite, got {peak}")
    ca, cb = _coords(a), _coords(b)
    if ca.shape[0] == 0 or cb.shape[0] == 0:
        raise ContractViolation(f"{metric} requires two non-empty clouds")
    return ca, cb


def _psnr(mse: float, peak: int) -> float:
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(3.0 * peak * peak / mse))


def d1_psnr(a, b, peak: int = DEFAULT_PEAK) -> float:
    """Point-to-point geometry PSNR, symmetric via the max of the two mean
    squared nearest-neighbour distances.  Identical clouds report inf."""
    ca, cb = _operands(a, b, peak, "d1")
    _, e_ab = _nearest(ca, cb)
    _, e_ba = _nearest(cb, ca)
    mse = max(float(e_ab.mean()), float(e_ba.mean()))
    return _psnr(mse, peak)


def estimate_normals(coords: np.ndarray, k: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Per-point unit normals by neighbourhood PCA, one batched eigh.

    Returns (normals, valid): in a cloud of fewer than 3 points no row has a
    plane; all get valid=False and fall back to point-to-point errors.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    kk = min(k, n)
    idx, _ = knn(coords, coords.astype(np.int64), kk)
    if kk < 3:
        return np.zeros((n, 3)), np.zeros(n, dtype=bool)
    nb = np.take(coords, idx, axis=0)
    nb -= nb.mean(axis=1, keepdims=True)
    _, evecs = np.linalg.eigh(np.matmul(nb.transpose(0, 2, 1), nb))
    nrm = evecs[:, :, 0]
    nrm = nrm / np.sqrt(np.vecdot(nrm, nrm))[:, None]
    x, y, z = nrm.T
    flip = (x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))
    return np.where(flip[:, None], -nrm, nrm), np.ones(n, dtype=bool)


def _plane_errors(queries, reference, normals, valid):
    idx, d2 = _nearest(queries, reference)
    diff = queries.astype(np.float64) - np.take(reference.astype(np.float64), idx, axis=0)
    proj = np.einsum("ij,ij->i", diff, np.take(normals, idx, axis=0)) ** 2
    return np.where(np.take(valid, idx, axis=0), proj, d2)


def d2_psnr(a, b, peak: int = DEFAULT_PEAK) -> float:
    """Point-to-plane geometry PSNR with PCA normals on each reference."""
    ca, cb = _operands(a, b, peak, "d2")
    nb, vb = estimate_normals(cb)
    na, va = estimate_normals(ca)
    e_ab = _plane_errors(ca, cb, nb, vb)
    e_ba = _plane_errors(cb, ca, na, va)
    mse = max(float(e_ab.mean()), float(e_ba.mean()))
    return _psnr(mse, peak)


def bpp(bits: float, n_points: int) -> float:
    """Bits per point over all substreams."""
    if n_points <= 0:
        raise ContractViolation("point count must be positive")
    return float(bits) / float(n_points)


def bd_rate(curve_a, curve_b) -> float:
    """Bjontegaard delta rate of curve B against reference curve A, percent.

    Classical cubic variant: fit log10(rate) as a cubic in PSNR per curve and
    integrate the difference over the overlapping PSNR interval.  Negative
    means B spends less rate at equal quality.
    """
    ra, qa = _curve_arrays(curve_a)
    rb, qb = _curve_arrays(curve_b)
    lo = max(qa.min(), qb.min())
    hi = min(qa.max(), qb.max())
    if hi <= lo:
        raise ContractViolation("rate-distortion curves share no quality overlap")
    pa = np.polyfit(qa, np.log10(ra), 3)
    pb = np.polyfit(qb, np.log10(rb), 3)
    ia = np.polyval(np.polyint(pa), hi) - np.polyval(np.polyint(pa), lo)
    ib = np.polyval(np.polyint(pb), hi) - np.polyval(np.polyint(pb), lo)
    avg_diff = (ib - ia) / (hi - lo)
    return float((10.0**avg_diff - 1.0) * 100.0)


def _curve_arrays(curve):
    r = np.asarray([p[0] for p in curve], dtype=np.float64)
    q = np.asarray([p[1] for p in curve], dtype=np.float64)
    if r.size < 4:
        raise ContractViolation("each curve needs at least 4 rate-distortion points")
    if not (np.isfinite(r).all() and np.isfinite(q).all()) or np.any(r <= 0):
        raise ContractViolation("curve has non-positive or non-finite rates or quality")
    order = np.argsort(q)
    q, r = q[order], r[order]
    if np.any(np.diff(q) <= 0):
        raise ContractViolation("curve quality values must be distinct and monotone")
    return r, q
