"""Deterministic synthetic voxel-cloud sequences for hermetic tests.

The rigid generator draws a blob of gaussian clusters, voxelizes it, and
translates it by an integer offset per frame so every frame stays inside the
coordinate cube.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ContractViolation
from .sparse import COORD_BITS, PointCloudFrame


def make_blob(n_points: int, precision_bits: int, seed: int, margin: int = 0) -> np.ndarray:
    """Exactly n unique voxels clustered inside [margin, 2^P - margin)^3.

    Voxels are drawn one at a time until n distinct ones are found; a blob
    the clusters cannot fill within ``64 n + 4096`` draws (sizes used in
    practice take about 1.05 draws per point) is refused, as is a cube past [0, 2^20).
    """
    if not isinstance(n_points, numbers.Integral) or isinstance(n_points, bool) or n_points < 1:
        raise ContractViolation(f"n_points must be an integer >= 1, got {n_points!r}")
    if precision_bits < 0 or (1 << precision_bits) - margin > 1 << (COORD_BITS - 1):
        raise ContractViolation(f"a {precision_bits}-bit cube does not fit the key range")
    span = (1 << precision_bits) - 2 * margin
    if span <= 0 or n_points > span**3:
        raise ContractViolation("blob does not fit the requested cube")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_clusters = max(1, n_points // 600)
    centers = rng.uniform(0.25 * span, 0.75 * span, size=(n_clusters, 3))
    sigma = 0.08 * span
    seen = set()
    out = []
    max_draws = 64 * n_points + 4096
    draws = 0
    while len(out) < n_points:
        if draws == max_draws:
            raise ContractViolation(
                f"{n_points} distinct voxels not found in {max_draws} draws: "
                f"the clusters are too narrow for a {span}-voxel cube")
        draws += 1
        c = centers[rng.integers(0, n_clusters)]
        p = rng.normal(c, sigma)
        v = tuple(int(x) for x in np.clip(np.floor(p), 0, span - 1))
        if v not in seen:
            seen.add(v)
            out.append(v)
    return np.array(sorted(out), dtype=np.int64) + margin


def make_rigid_sequence(
    n_points: int,
    n_frames: int,
    translation: int,
    precision_bits: int,
    seed: int,
) -> list[PointCloudFrame]:
    """Rigid-motion sequence: a blob shifted by (t, t, t) each frame."""
    if n_frames < 1:
        raise ContractViolation("need at least one frame")
    total_shift = abs(int(translation)) * (n_frames - 1)
    margin = total_shift + 1
    base = make_blob(n_points, precision_bits, seed, margin=margin)
    frames = []
    for k in range(n_frames):
        coords = base + int(translation) * k
        frames.append(PointCloudFrame.from_coords(coords, precision_bits))
    return frames


def make_solid_block(origin: int, side: int, precision_bits: int) -> PointCloudFrame:
    """Axis-aligned solid cube of voxels; origin and side should be multiples
    of 4 so every coarse voxel is fully occupied at both pruning scales."""
    hi = origin + side
    if hi > (1 << precision_bits):
        raise ContractViolation("block exceeds the coordinate cube")
    r = np.arange(origin, hi, dtype=np.int64)
    grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    return PointCloudFrame.from_coords(grid, precision_bits)


def parse_synthetic_spec(spec: str):
    """Parse 'rigid:N,frames,translation' CLI syntax."""
    try:
        kind, args = spec.split(":", 1)
        if kind != "rigid":
            raise ValueError(f"unknown synthetic kind '{kind}'")
        n, frames, translation = (int(v) for v in args.split(","))
    except ValueError as exc:
        raise ContractViolation(f"bad synthetic spec '{spec}': {exc}") from None
    return n, frames, translation
