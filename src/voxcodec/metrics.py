"""Geometry distortion metrics and rate-distortion curve comparison.

D1/D2 follow the MPEG pc_error convention with a 3*peak^2 numerator.  D2
reads one normal per query, at its nearest reference point, so normals are
estimated only at reference points that are some query's nearest
neighbour.  Each still comes from PCA over that point's 16 nearest
neighbours in the whole reference (smallest-eigenvalue eigenvector,
sign-normalized to the +x hemisphere, ties resolved toward +y then +z), so
D2 is the value a normal at every reference point would give.  Clouds are
``PointCloudFrame``s or (N, 3) arrays of finite, integer-valued
coordinates; anything else is a ``ContractViolation``, and so is a peak
that is not a real number above 0 whose numerator 3 * peak**2 is finite and
nonzero.

D1 and D2 of one pair of clouds run the same two nearest-neighbour searches
(a to b, b to a).  A call that searches leaves both results for the next
call, and when that call is on the same pair (the same coordinate bytes, in
the same order) it takes them instead of searching, so D1 then D2, or D2
then D1, searches each direction once.  Only the last pair is held, and it
is dropped when taken.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ContractViolation
from .knn import knn
from .sparse import PointCloudFrame, as_coords

DEFAULT_PEAK = 1023


# The last pair whose searches ran and were not yet taken, as ((a bytes,
# b bytes), (a to b, b to a)).  Entries are immutable, so two threads at
# worst search twice.
_held = None


def _nearest(queries: np.ndarray, reference: np.ndarray):
    idx, d2 = knn(queries, reference, 1)
    return idx[:, 0], d2[:, 0]


def _nearest_both(ca: np.ndarray, cb: np.ndarray):
    """Read-only (idx, d2) of each a point's nearest b point and of each b
    point's nearest a point, taken from the previous call when it searched
    the same pair."""
    global _held
    key = (ca.tobytes(), cb.tobytes())
    held, _held = _held, None
    if held is not None and held[0] == key:
        return held[1]
    found = (_nearest(ca, cb), _nearest(cb, ca))
    for arr in (*found[0], *found[1]):
        arr.flags.writeable = False
    _held = (key, found)
    return found


def _operands(a, b, peak, metric):
    """Coordinates of two clouds a metric may compare at this peak."""
    try:
        # the numerator exactly as _psnr computes it
        ok = (isinstance(peak, numbers.Real) and not isinstance(peak, bool) and peak > 0
              and 0 < 3.0 * float(peak) * float(peak) < float("inf"))
    except OverflowError:  # an int or Fraction past the float range, maybe too long to print
        raise ContractViolation(f"{metric} peak is past the float range") from None
    if not ok:
        raise ContractViolation(f"{metric} peak must be a real number above 0 whose "
                                f"3 * peak**2 is finite and nonzero, got {peak!r:.40}")
    ca, cb = (as_coords(c.points.coords if isinstance(c, PointCloudFrame) else c) for c in (a, b))
    if ca.shape[0] == 0 or cb.shape[0] == 0:
        raise ContractViolation(f"{metric} requires two non-empty clouds")
    return ca, cb


def _psnr(mse: float, peak) -> float:
    if mse == 0.0:
        return float("inf")
    peak = float(peak)  # float64 arithmetic for a float32 or Fraction peak too
    return float(10.0 * np.log10(3.0 * peak * peak / mse))


def d1_psnr(a, b, peak: int = DEFAULT_PEAK) -> float:
    """Point-to-point geometry PSNR, symmetric via the max of the two mean
    squared nearest-neighbour distances.  Identical clouds report inf."""
    ca, cb = _operands(a, b, peak, "d1")
    (_, e_ab), (_, e_ba) = _nearest_both(ca, cb)
    mse = max(float(e_ab.mean()), float(e_ba.mean()))
    return _psnr(mse, peak)


def estimate_normals(coords, k: int = 16, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals at the points ``rows`` of a cloud (default: every row) by
    PCA over each one's k nearest points in the whole cloud, one batched eigh.
    ``rows`` is a 1-D integer array of rows in [0, N), possibly empty; ``k``
    follows ``knn``'s rule (an integer >= 1, not bool, clamped to N).

    The search and the PCA are per point, so a row's normal has the same
    bytes whichever other rows are asked for beside it.  Returns (normals,
    valid), one row per requested point: in a cloud of fewer than 3 points
    no row has a plane; all get valid=False and fall back to point-to-point
    errors.
    """
    ref = as_coords(coords.points.coords if isinstance(coords, PointCloudFrame) else coords)
    coords = ref.astype(np.float64)
    n = coords.shape[0]
    try:
        rows = np.arange(n) if rows is None else np.asarray(rows)
    except ValueError:  # rows of different lengths
        raise ContractViolation("normal rows must be a 1-D integer array, "
                                "got ragged rows") from None
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ContractViolation(f"normal rows must be a 1-D integer array, "
                                f"got {rows.dtype} of shape {rows.shape}")
    rows = rows.astype(np.int64, copy=False)
    if rows.size and not 0 <= rows.min() <= rows.max() < n:
        raise ContractViolation(f"normal rows must lie in [0, {n})")
    # knn checks k and clamps it to n
    idx, _ = knn(np.take(coords, rows, axis=0), ref, k)
    if idx.shape[1] < 3:
        return np.zeros((rows.size, 3)), np.zeros(rows.size, dtype=bool)
    nb = np.take(coords, idx, axis=0)
    nb -= nb.mean(axis=1, keepdims=True)
    _, evecs = np.linalg.eigh(np.matmul(nb.transpose(0, 2, 1), nb))
    nrm = evecs[:, :, 0]
    nrm = nrm / np.sqrt(np.vecdot(nrm, nrm))[:, None]
    x, y, z = nrm.T
    flip = (x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))
    return np.where(flip[:, None], -nrm, nrm), np.ones(rows.size, dtype=bool)


def _plane_errors(queries, reference, nearest):
    """Each query's squared distance to the plane at its nearest reference
    point, given as ``nearest`` (idx, d2), with normals estimated only at the
    reference points some query lands on."""
    idx, d2 = nearest
    used, slot = np.unique(idx, return_inverse=True)
    normals, valid = estimate_normals(reference, rows=used)
    diff = queries.astype(np.float64) - np.take(reference.astype(np.float64), idx, axis=0)
    proj = np.einsum("ij,ij->i", diff, np.take(normals, slot, axis=0)) ** 2
    return np.where(np.take(valid, slot, axis=0), proj, d2)


def d2_psnr(a, b, peak: int = DEFAULT_PEAK) -> float:
    """Point-to-plane geometry PSNR.  A query's error reads the PCA normal at
    its nearest reference point, and only those normals are estimated; each
    comes from the point's 16 neighbours over the whole reference, so the
    value is that of normals at every reference point."""
    ca, cb = _operands(a, b, peak, "d2")
    ab, ba = _nearest_both(ca, cb)
    e_ab = _plane_errors(ca, cb, ab)
    e_ba = _plane_errors(cb, ca, ba)
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
