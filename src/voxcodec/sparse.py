"""Sorted sparse voxel tensors and coordinate-set algebra.

Coordinates live on signed integer lattices indexed by a scale ``k`` (the
lattice spacing is ``2**k`` input units, i.e. the grid is x1/2**k of the
input resolution).  Every tensor keeps its coordinate rows in strictly
increasing lexicographic (x, y, z) order, so all set operations are
deterministic merges and result bits are identical across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

COORD_BITS = 21
_BIAS = np.int64(1 << (COORD_BITS - 1))
_LO = -(1 << (COORD_BITS - 1))
_HI = 1 << (COORD_BITS - 1)


def lex_order(coords: np.ndarray) -> np.ndarray:
    """Permutation sorting coordinate rows lexicographically by (x, y, z)."""
    return np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))


def pack_keys(coords: np.ndarray) -> np.ndarray:
    """Pack (N, 3) integer coordinates into sortable uint64 keys.

    The packing is monotone with respect to lexicographic order, so a
    lex-sorted coordinate list yields strictly increasing keys.
    """
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if c.size and (c.min() < _LO or c.max() >= _HI):
        raise ContractViolation("coordinate component outside the 21-bit range")
    b = (c + _BIAS).astype(np.uint64)
    return (b[:, 0] << np.uint64(42)) | (b[:, 1] << np.uint64(21)) | b[:, 2]


def lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Find ``keys`` in a strictly increasing key array.

    Returns ``(pos, hit)``: ``hit[q]`` says whether ``keys[q]`` is present and,
    where it is, ``sorted_keys[pos[q]] == keys[q]``.
    """
    pos = np.searchsorted(sorted_keys, keys)
    if sorted_keys.size == 0:
        return pos, np.zeros(pos.shape, dtype=bool)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_keys`; returns int32 (N, 3) coordinates."""
    k = np.asarray(keys, dtype=np.uint64)
    mask = np.uint64((1 << COORD_BITS) - 1)
    x = (k >> np.uint64(42)).astype(np.int64) - _BIAS
    y = ((k >> np.uint64(21)) & mask).astype(np.int64) - _BIAS
    z = (k & mask).astype(np.int64) - _BIAS
    return np.stack([x, y, z], axis=1).astype(np.int32)


class SparseTensor:
    """Sorted voxel coordinate list plus a per-voxel feature matrix.

    Immutable after construction; all operations return new tensors.
    ``kernel_maps`` is a memo of kernel maps built on these coordinates
    (filled by :mod:`voxcodec.nn`); tensors made from another tensor's
    coordinates (``_coords_of``) share its packed keys and this memo.
    """

    __slots__ = ("coords", "feats", "scale", "_keys", "kernel_maps")

    def __init__(self, coords, feats, scale=0, _trusted=False, _coords_of=None):
        if _coords_of is not None:
            coords = _coords_of.coords
        else:
            coords = np.ascontiguousarray(coords, dtype=np.int32).reshape(-1, 3)
        feats = np.ascontiguousarray(feats)
        if feats.ndim == 1:
            feats = feats.reshape(-1, 1)
        if feats.dtype not in (np.float32, np.float64):
            feats = feats.astype(np.float32)
        if feats.shape[0] != coords.shape[0]:
            raise ContractViolation(
                f"feature rows ({feats.shape[0]}) != coordinates ({coords.shape[0]})"
            )
        if feats.shape[1] < 1:
            raise ContractViolation("feature width must be >= 1")
        if scale < 0:
            raise ContractViolation("scale must be >= 0")
        if _coords_of is not None:
            keys, memo = _coords_of._keys, _coords_of.kernel_maps
        else:
            keys, memo = pack_keys(coords), {}
            if not _trusted and keys.size > 1 and not np.all(keys[1:] > keys[:-1]):
                raise ContractViolation("coordinates must be strictly increasing lexicographically")
        self.coords = coords
        self.feats = feats
        self.scale = int(scale)
        self._keys = keys
        self.kernel_maps = memo
        for a in (self.coords, self.feats, self._keys):
            a.flags.writeable = False

    @classmethod
    def build(cls, coords, feats, scale=0):
        """Construct from unsorted rows.  Duplicate coordinates are an error."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        feats = np.asarray(feats)
        if feats.ndim == 1:
            feats = feats.reshape(-1, 1)
        order = lex_order(coords)
        coords = coords[order]
        keys = pack_keys(coords)
        if keys.size > 1 and not np.all(keys[1:] > keys[:-1]):
            raise ContractViolation("duplicate coordinates")
        return cls(coords, feats[order], scale, _trusted=True)

    @classmethod
    def empty(cls, channels: int, scale: int = 0, dtype=np.float32):
        return cls(
            np.empty((0, 3), dtype=np.int32),
            np.empty((0, channels), dtype=dtype),
            scale,
            _trusted=True,
        )

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def channels(self) -> int:
        return self.feats.shape[1]

    def keys(self) -> np.ndarray:
        return self._keys

    def with_feats(self, feats) -> "SparseTensor":
        """Same coordinates and scale, new feature matrix."""
        return SparseTensor(self.coords, feats, self.scale, _coords_of=self)

    def __repr__(self):
        return f"SparseTensor(n={self.n}, channels={self.channels}, scale={self.scale})"


def concatenate(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """Feature-width concatenation on the union of coordinate sets.

    On shared coordinates the rows are joined a-then-b; on coordinates present
    in only one input the missing side is zero.
    """
    if a.scale != b.scale:
        raise ContractViolation(f"scale mismatch: {a.scale} != {b.scale}")
    union = np.union1d(a.keys(), b.keys())
    dtype = np.promote_types(a.feats.dtype, b.feats.dtype)
    out = np.zeros((union.size, a.channels + b.channels), dtype=dtype)
    out[np.searchsorted(union, a.keys()), : a.channels] = a.feats
    out[np.searchsorted(union, b.keys()), a.channels :] = b.feats
    return SparseTensor(unpack_keys(union), out, a.scale, _trusted=True)


def add_on_union(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """Elementwise feature sum on the union of coordinate sets."""
    if a.scale != b.scale:
        raise ContractViolation(f"scale mismatch: {a.scale} != {b.scale}")
    if a.channels != b.channels:
        raise ContractViolation(f"channel mismatch: {a.channels} != {b.channels}")
    union = np.union1d(a.keys(), b.keys())
    dtype = np.promote_types(a.feats.dtype, b.feats.dtype)
    out = np.zeros((union.size, a.channels), dtype=dtype)
    out[np.searchsorted(union, a.keys())] = a.feats
    out[np.searchsorted(union, b.keys())] += b.feats
    return SparseTensor(unpack_keys(union), out, a.scale, _trusted=True)


def stride_down_coords(coords: np.ndarray) -> np.ndarray:
    """Unique floor-division of coordinates by two, lexicographically sorted."""
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if c.size == 0:
        return np.empty((0, 3), dtype=np.int32)
    keys = np.unique(pack_keys(c >> 1))
    return unpack_keys(keys)


class PointCloudFrame:
    """A voxelized frame: scale-0 occupancy with all-one features."""

    __slots__ = ("points", "precision_bits")

    def __init__(self, points: SparseTensor, precision_bits: int):
        if points.scale != 0:
            raise ContractViolation("frame points must be at scale 0")
        if points.channels != 1 or (points.n and not np.all(points.feats == 1.0)):
            raise ContractViolation("frame features must be all-one occupancy")
        if points.n:
            lo, hi = int(points.coords.min()), int(points.coords.max())
            if lo < 0 or hi >= (1 << precision_bits):
                raise ContractViolation(
                    f"coordinates [{lo}, {hi}] outside [0, 2^{precision_bits})"
                )
        self.points = points
        self.precision_bits = int(precision_bits)

    @classmethod
    def from_coords(cls, coords, precision_bits: int) -> "PointCloudFrame":
        """Build a frame from integer voxel coordinates, merging duplicates."""
        c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        keys = np.unique(pack_keys(c))
        pts = SparseTensor(
            unpack_keys(keys),
            np.ones((keys.size, 1), dtype=np.float32),
            scale=0,
            _trusted=True,
        )
        return cls(pts, precision_bits)

    @property
    def n(self) -> int:
        return self.points.n

    def __repr__(self):
        return f"PointCloudFrame(n={self.n}, precision_bits={self.precision_bits})"
