"""Finite-difference verification of the analytic gradients in the
differentiable core: sparse convolution, the weighted interpolation, the
occupancy BCE, and the rate proxy.

All checks run in float64 with central differences (h = 1e-4) and the
relative-error metric |a - f| / max(|a|, |f|, 1e-6).  Discrete selections
(nearest-neighbour membership) are frozen while differencing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from . import motion as mo
from .errors import ContractViolation
from .knn import knn
from .nn import ConvSpec, _sigmoid, build_kernel_map, sparse_conv, sparse_conv_backward
from .sparse import SparseTensor

H = 1e-4
TOLERANCE = 1e-4


@dataclass
class GradReport:
    op: str
    max_rel_error: float
    block_errors: dict
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def rel_error(analytic, fd) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(fd, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
    return float(np.max(np.abs(a - f) / denom)) if a.size else 0.0


def central_diff(fn, x: np.ndarray) -> np.ndarray:
    """Gradient of scalar fn by central differences over every element of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        up = fn(x)
        flat[i] = orig - H
        dn = fn(x)
        flat[i] = orig
        gflat[i] = (up - dn) / (2 * H)
    return grad


def _random_coords(rng, n, span):
    seen = set()
    out = []
    while len(out) < n:
        c = tuple(int(v) for v in rng.integers(0, span, 3))
        if c not in seen:
            seen.add(c)
            out.append(c)
    return np.array(sorted(out), dtype=np.int64)


def grad_sparse_conv(seed: int) -> GradReport:
    """Input and weight gradients of a random small convolution instance."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kernel = int(rng.choice([1, 2, 3]))
    stride = 1
    transposed = False
    mode = int(rng.integers(0, 3))
    if mode == 1:
        kernel, stride = 2, 2
    elif mode == 2:
        kernel, stride, transposed = 2, 2, True
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    spec = ConvSpec(cin, cout, kernel, stride, transposed)
    coords = _random_coords(rng, 8, 8)
    feats = rng.normal(size=(len(coords), cin))
    x = SparseTensor.build(coords, feats, scale=1)
    if transposed:
        out_coords = _random_coords(rng, 10, 16).astype(np.int32)
    elif stride == 2:
        out_coords = None
    else:
        out_coords = x.coords
    weight = rng.normal(size=spec.weight_shape)
    bias = rng.normal(size=cout)
    ref = sparse_conv(x, spec, weight, bias, out_coords)
    g = rng.normal(size=ref.feats.shape)
    kmap = build_kernel_map(x.coords, ref.coords, spec)
    grad_in, grad_w, grad_b = sparse_conv_backward(x, spec, weight, kmap, g)

    def loss_from_feats(f):
        y = sparse_conv(x.with_feats(f), spec, weight, bias, ref.coords)
        return float(np.sum(y.feats * g))

    def loss_from_weight(wt):
        y = sparse_conv(x, spec, wt, bias, ref.coords)
        return float(np.sum(y.feats * g))

    def loss_from_bias(bb):
        y = sparse_conv(x, spec, weight, bb, ref.coords)
        return float(np.sum(y.feats * g))

    errors = {
        "input": rel_error(grad_in, central_diff(loss_from_feats, x.feats.astype(np.float64))),
        "weight": rel_error(grad_w, central_diff(loss_from_weight, weight)),
        "bias": rel_error(grad_b, central_diff(loss_from_bias, bias)),
    }
    return GradReport("sparse_conv", max(errors.values()), errors)


def _interp_instance(seed: int, branch: str):
    """Sample an interpolation instance away from ties and the alpha boundary."""
    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = 3.0
    for _ in range(200):
        ref_coords = _random_coords(rng, 12, 10)
        ref = SparseTensor.build(ref_coords, rng.normal(size=(12, 4)), scale=2)
        if branch == "capped":
            mcoords = _random_coords(rng, 5, 10)
            mfeats = rng.uniform(2.0, 4.0, size=(5, 3))  # push points off-lattice
        else:
            # land each translated point close to a reference point so the
            # inverse-distance weights clear the alpha cap
            pick = rng.choice(12, size=5, replace=False)
            mcoords = np.unique(ref_coords[pick], axis=0)
            mfeats = rng.uniform(0.05, 0.25, size=(len(mcoords), 3))
        m = SparseTensor.build(mcoords, mfeats, scale=2)
        translated = m.coords.astype(np.float64) + m.feats
        # the 4th neighbour is only read by the near-tie test below
        idx, d2 = knn(translated, ref, 4)
        if d2.shape[1] < 4 or np.any(d2[:, :3] < 100 * mo.DIST_EPS):
            continue
        s = mo.interpolate_over(translated, ref.coords, ref.feats, idx[:, :3], alpha)[2]
        capped = s < alpha
        if branch == "capped" and not np.all(capped):
            continue
        if branch == "open" and np.any(capped):
            continue
        if np.any(np.abs(s - alpha) < 0.05):
            continue
        # reject near-ties at the membership boundary
        if np.any(d2[:, 3] - d2[:, 2] < 0.05):
            continue
        return m, ref, alpha
    raise ContractViolation(f"could not sample a {branch}-branch instance for seed {seed}")


def grad_interpolate(seed: int, branch: str = "open") -> GradReport:
    """Gradients of the weighted interpolation w.r.t. reference features and
    motion vectors, in the requested denominator branch."""
    m, ref, alpha = _interp_instance(seed, branch)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    g = rng.normal(size=(m.n, ref.channels))
    grad_ref, grad_motion, idx, _ = mo.interpolate_gradients(m, ref, alpha, g)
    translated = m.coords.astype(np.float64) + m.feats

    def loss_from_ref(f):
        pred = mo.interpolate_over(translated, ref.coords, f, idx, alpha)[0]
        return float(np.sum(pred * g))

    def loss_from_motion(mf):
        pred = mo.interpolate_over(m.coords + mf, ref.coords, ref.feats, idx, alpha)[0]
        return float(np.sum(pred * g))

    errors = {
        "reference": rel_error(grad_ref, central_diff(loss_from_ref, ref.feats.astype(np.float64))),
        "motion": rel_error(grad_motion, central_diff(loss_from_motion, m.feats.astype(np.float64))),
    }
    return GradReport(f"interpolate[{branch}]", max(errors.values()), errors)


def bce_grad(logits: np.ndarray, occupancy: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    p = 1.0 / (1.0 + np.exp(-z))
    return (p - np.asarray(occupancy, dtype=np.float64)) / z.size


def grad_bce(seed: int) -> GradReport:
    """Logit gradient of the codec's occupancy BCE over a row of n candidate
    voxels, of which the truth set holds the occupied ones."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(4, 32))
    logits = rng.normal(0, 2, size=n)
    occ = rng.integers(0, 2, size=n).astype(np.float64)
    candidates = np.zeros((n, 3), dtype=np.int64)
    candidates[:, 0] = np.arange(n)
    truth = candidates[occ == 1]
    analytic = bce_grad(logits, occ)
    fd = central_diff(
        lambda z: codec.bce_occupancy(_sigmoid(z), candidates, truth), logits)
    err = rel_error(analytic, fd)
    return GradReport("bce", err, {"logits": err})


def rate_proxy(values: np.ndarray, pmf: np.ndarray, offset: int) -> float:
    """Continuous-rate surrogate: -log2 of the piecewise-linear interpolation
    of the channel pmf at each (real-valued) symbol position."""
    v = np.asarray(values, dtype=np.float64)
    s = np.floor(v).astype(int)
    t = v - s
    i = s - offset
    if np.any(i < 0) or np.any(i + 1 >= len(pmf)):
        raise ContractViolation("rate proxy sampled outside the pmf support")
    p = (1 - t) * pmf[i] + t * pmf[i + 1]
    return float(np.sum(-np.log2(p)))


def rate_proxy_grad(values: np.ndarray, pmf: np.ndarray, offset: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    s = np.floor(v).astype(int)
    t = v - s
    i = s - offset
    p = (1 - t) * pmf[i] + t * pmf[i + 1]
    return -(pmf[i + 1] - pmf[i]) / (p * np.log(2.0))


def grad_rate(seed: int) -> GradReport:
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(4, 24))
    nsym = 17
    offset = -8
    raw = rng.uniform(0.2, 1.0, size=nsym)
    pmf = raw / raw.sum()
    # sample away from knots so the FD window stays inside one segment
    values = rng.integers(-7, 7, size=n) + rng.uniform(0.05, 0.95, size=n)
    values = np.where(np.abs(values - np.round(values)) < 10 * H,
                      np.round(values) + 0.5, values)
    analytic = rate_proxy_grad(values, pmf, offset)
    fd = central_diff(lambda x: rate_proxy(x, pmf, offset), values)
    err = rel_error(analytic, fd)
    return GradReport("rate_proxy", err, {"symbol": err})


def grad_chain(seed: int) -> GradReport:
    """Composition check: interpolation applied to a convolution output."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = ConvSpec(2, 4, 3)
    coords = _random_coords(rng, 5, 6)
    x = SparseTensor.build(coords, rng.normal(size=(5, 2)), scale=2)
    weight = rng.normal(size=spec.weight_shape)
    bias = rng.normal(size=4)
    m, _, alpha = _interp_instance(seed + 77, "open")
    translated = m.coords.astype(np.float64) + m.feats
    g = rng.normal(size=(m.n, 4))

    # analytic: chain interpolation feature-gradient through the convolution
    base_ref = sparse_conv(x, spec, weight, bias)
    grad_ref, _, idx, _ = mo.interpolate_gradients(m, base_ref, alpha, g)
    kmap = build_kernel_map(x.coords, base_ref.coords, spec)
    grad_in, _, _ = sparse_conv_backward(x, spec, weight, kmap, grad_ref)

    def loss(f):
        ref = sparse_conv(x.with_feats(f), spec, weight, bias)
        pred = mo.interpolate_over(translated, ref.coords, ref.feats, idx, alpha)[0]
        return float(np.sum(pred * g))

    fd = central_diff(loss, x.feats.astype(np.float64))
    err = rel_error(grad_in, fd)
    return GradReport("chain", err, {"input": err})


def run_all(n_instances: int = 100, base_seed: int = 0):
    """Run every gradient check; returns (reports, failing_seeds)."""
    reports = []
    failures = []
    checks = [
        ("sparse_conv", lambda s: grad_sparse_conv(s)),
        ("interpolate[open]", lambda s: grad_interpolate(s, "open")),
        ("interpolate[capped]", lambda s: grad_interpolate(s, "capped")),
        ("bce", grad_bce),
        ("rate_proxy", grad_rate),
        ("chain", grad_chain),
    ]
    for name, fn in checks:
        worst = 0.0
        blocks = {}
        for k in range(n_instances):
            seed = base_seed + k
            rep = fn(seed)
            if not rep.passed:
                failures.append((name, seed, rep.max_rel_error))
            if rep.max_rel_error > worst:
                worst = rep.max_rel_error
                blocks = rep.block_errors
        reports.append(GradReport(name, worst, blocks))
    return reports, failures
