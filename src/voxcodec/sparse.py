"""Sorted sparse voxel tensors and coordinate-set algebra.

Coordinates live on signed integer lattices indexed by a scale ``k`` (the
lattice spacing is ``2**k`` input units, i.e. the grid is x1/2**k of the
input resolution).  Every tensor keeps its coordinate rows in strictly
increasing lexicographic (x, y, z) order, so all set operations are
deterministic merges and result bits are identical across runs and platforms.
Tensors on one coordinate set share its :class:`CoordSet`, so each set is
derived once and shared with the kernel-map plans built on it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

COORD_BITS = 21
_BIAS = np.int64(1 << (COORD_BITS - 1))
_LO = -(1 << (COORD_BITS - 1))
_HI = 1 << (COORD_BITS - 1)

# the {0,1}^3 corners in lexicographic order, corner b = (x, y, z) with
# b = 4x + 2y + z; the children of a voxel c are 2c + CORNERS
CORNERS = np.array([(b >> 2, (b >> 1) & 1, b & 1) for b in range(8)], dtype=np.int64)
CORNERS.flags.writeable = False


def lex_order(coords: np.ndarray) -> np.ndarray:
    """Permutation sorting coordinate rows lexicographically by (x, y, z)."""
    return np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))


def _rows(a) -> np.ndarray:
    try:
        c = np.asarray(a)
    except ValueError:  # rows of different lengths
        raise ContractViolation("coordinates must be an (N, 3) numeric array, "
                                "got ragged rows") from None
    if c.ndim != 2 or c.shape[1] != 3 or c.dtype.kind not in "iuf":
        raise ContractViolation(f"coordinates must be an (N, 3) numeric array, "
                                f"got {c.dtype} of shape {c.shape}")
    return c


def as_positions(a) -> np.ndarray:
    """float64 (N, 3) rows of finite real positions."""
    p = _rows(a).astype(np.float64, copy=False)
    if not np.isfinite(p).all():
        raise ContractViolation("positions must be finite")
    return p


def integral(c: np.ndarray) -> bool:
    """Whether ``c`` holds only finite integers that int64 can hold: an
    integer dtype (not bool), or floats of integral value.  Only a dtype
    int64 cannot hold is scanned."""
    # NaN fails both tests; inf and anything past int64 fail the first
    return c.dtype.kind in "iuf" and (
        np.can_cast(c.dtype, np.int64) or bool(((abs(c) < 2.0**63) & (c == np.floor(c))).all()))


def as_coords(a) -> np.ndarray:
    """int64 (N, 3) rows of finite integer values (see :func:`integral`)."""
    c = _rows(a)
    if not integral(c):
        raise ContractViolation("coordinates must be finite integers")
    return c.astype(np.int64, copy=False)


def pack_keys(coords) -> np.ndarray:
    """Pack (N, 3) integer coordinates into sortable uint64 keys.

    The packing is monotone with respect to lexicographic order, so a
    lex-sorted coordinate list yields strictly increasing keys.
    """
    c = as_coords(coords)
    if c.size and (c.min() < _LO or c.max() >= _HI):
        raise ContractViolation(f"coordinate component outside the {COORD_BITS}-bit range "
                                f"[-2^{COORD_BITS - 1}, 2^{COORD_BITS - 1})")
    b = (c + _BIAS).astype(np.uint64)
    return (b[:, 0] << np.uint64(42)) | (b[:, 1] << np.uint64(21)) | b[:, 2]


def key_steps(offsets: np.ndarray) -> np.ndarray:
    """The uint64 step each integer offset (dx, dy, dz) adds to a packed key:
    where c and c + o are in range, pack_keys(c + o) = pack_keys(c) + step
    modulo 2^64."""
    o = as_coords(offsets)
    return ((o[:, 0] << 42) + (o[:, 1] << 21) + o[:, 2]).astype(np.uint64)


def lookup(table: np.ndarray, keys: np.ndarray):
    """Find ``keys`` in a strictly increasing key array ``table``.

    Returns ``(pos, hit)``: ``hit[q]`` says whether ``keys[q]`` is present and,
    where it is, ``table[pos[q]] == keys[q]``.
    """
    pos = table.searchsorted(keys)
    if table.size == 0:
        return pos, np.zeros(pos.shape, dtype=bool)
    pos = np.minimum(pos, table.size - 1)
    return pos, table[pos] == keys


def _increasing(keys: np.ndarray) -> np.ndarray:
    if (keys[1:] <= keys[:-1]).any():
        raise ContractViolation("coordinates must be strictly increasing lexicographically")
    return keys


def sorted_keys(coords) -> np.ndarray:
    """The keys of distinct, lex-sorted rows; other rows raise ContractViolation."""
    return _increasing(pack_keys(coords))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order, as ``np.unique`` returns them,
    by one sort.  From NumPy 2.3 ``np.unique`` hashes, and NumPy 2.4 ran it
    10x (1k keys) to 55x (1M keys) slower on uint64 keys."""
    s = np.sort(keys)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_keys`; returns int32 (N, 3) coordinates."""
    k = np.asarray(keys, dtype=np.uint64)
    mask = np.uint64((1 << COORD_BITS) - 1)
    x = (k >> np.uint64(42)).astype(np.int64) - _BIAS
    y = ((k >> np.uint64(21)) & mask).astype(np.int64) - _BIAS
    z = (k & mask).astype(np.int64) - _BIAS
    return np.stack([x, y, z], axis=1).astype(np.int32)


class CoordSet:
    """``n`` strictly increasing int32 rows, their packed keys, the plans
    :mod:`voxcodec.nn` builds from them and their stride-down set, made once."""

    __slots__ = ("coords", "keys", "n", "plans", "_down")

    def __init__(self, coords):
        # packed before the int32 cast, so no coordinate wraps unchecked
        keys, rows = sorted_keys(coords), np.ascontiguousarray(coords, dtype=np.int32)
        if np.may_share_memory(rows, coords):  # the caller's array: freeze a copy
            rows = rows.copy()
        self._hold(keys, rows)

    def _hold(self, keys, coords) -> "CoordSet":
        keys.flags.writeable = coords.flags.writeable = False
        self.keys, self.coords = keys, coords
        self.n, self.plans, self._down = coords.shape[0], {}, None
        return self

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "CoordSet":
        """The set of strictly increasing packed keys (see :func:`pack_keys`),
        unpacked once; ``keys`` becomes the set's own array, read-only."""
        if not isinstance(keys, np.ndarray) or keys.dtype != np.uint64 or keys.ndim != 1:
            raise ContractViolation("keys must be a 1-D uint64 array")
        return cls.__new__(cls)._hold(_increasing(keys), unpack_keys(keys))

    def fresh(self) -> "CoordSet":
        """The same read-only rows and keys, with no plans or down set yet:
        a set whose derived state is its own."""
        return CoordSet.__new__(CoordSet)._hold(self.keys, self.coords)

    def down(self) -> "CoordSet":
        """The floor-division-by-two set, derived once and kept with this one."""
        if self._down is None:
            self._down = CoordSet(stride_down_coords(self.coords))
        return self._down


class SparseTensor:
    """A coordinate set plus a per-voxel feature matrix.

    Immutable after construction; all operations return new tensors.
    ``coords`` is a :class:`CoordSet` to share, or rows that must fit the
    21-bit lattice and be strictly increasing.
    """

    __slots__ = ("cset", "coords", "feats", "scale")

    def __init__(self, coords, feats, scale=0):
        cset = coords if isinstance(coords, CoordSet) else CoordSet(coords)
        feats = np.ascontiguousarray(feats)
        if feats.ndim == 1:
            feats = feats.reshape(-1, 1)
        if feats.dtype not in (np.float32, np.float64):
            feats = feats.astype(np.float32)
        if feats.shape[0] != cset.n:
            raise ContractViolation(f"feature rows ({feats.shape[0]}) != coordinates ({cset.n})")
        if feats.shape[1] < 1:
            raise ContractViolation("feature width must be >= 1")
        if scale < 0:
            raise ContractViolation("scale must be >= 0")
        self.cset = cset
        self.coords = cset.coords
        # a read-only view: an array the caller passed in stays writable
        self.feats = feats.view()
        self.scale = int(scale)
        self.feats.flags.writeable = False

    @classmethod
    def build(cls, coords, feats, scale=0):
        """Construct from unsorted rows.  Duplicate coordinates are an error."""
        coords = as_coords(coords)
        order = lex_order(coords)
        return cls(coords[order], np.asarray(feats)[order], scale)

    @classmethod
    def empty(cls, channels: int, scale: int = 0, dtype=np.float32):
        return cls(np.empty((0, 3), dtype=np.int32), np.empty((0, channels), dtype=dtype), scale)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def channels(self) -> int:
        return self.feats.shape[1]

    def with_feats(self, feats) -> "SparseTensor":
        """Same coordinates and scale, new feature matrix."""
        return SparseTensor(self.cset, feats, self.scale)

    def __repr__(self):
        return f"SparseTensor(n={self.n}, channels={self.channels}, scale={self.scale})"


def union(a: CoordSet, b: CoordSet) -> CoordSet:
    """The set of rows in ``a`` or ``b``."""
    return CoordSet.from_keys(_distinct(np.concatenate([a.keys, b.keys])))


def concatenate(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """Feature-width concatenation on the union of coordinate sets.

    On shared coordinates the rows are joined a-then-b; on coordinates present
    in only one input the missing side is zero.
    """
    if a.scale != b.scale:
        raise ContractViolation(f"scale mismatch: {a.scale} != {b.scale}")
    u = union(a.cset, b.cset)
    dtype = np.promote_types(a.feats.dtype, b.feats.dtype)
    out = np.zeros((u.n, a.channels + b.channels), dtype=dtype)
    out[np.searchsorted(u.keys, a.cset.keys), : a.channels] = a.feats
    out[np.searchsorted(u.keys, b.cset.keys), a.channels :] = b.feats
    return SparseTensor(u, out, a.scale)


def add_on_union(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """Elementwise feature sum on the union of coordinate sets."""
    if a.scale != b.scale:
        raise ContractViolation(f"scale mismatch: {a.scale} != {b.scale}")
    if a.channels != b.channels:
        raise ContractViolation(f"channel mismatch: {a.channels} != {b.channels}")
    u = union(a.cset, b.cset)
    dtype = np.promote_types(a.feats.dtype, b.feats.dtype)
    out = np.zeros((u.n, a.channels), dtype=dtype)
    out[np.searchsorted(u.keys, a.cset.keys)] = a.feats
    out[np.searchsorted(u.keys, b.cset.keys)] += b.feats
    return SparseTensor(u, out, a.scale)


def stride_down_coords(coords: np.ndarray) -> np.ndarray:
    """Unique floor-division of coordinates by two, lexicographically sorted."""
    return unpack_keys(_distinct(pack_keys(as_coords(coords) >> 1)))


def children_keys(coords: np.ndarray) -> np.ndarray:
    """The sorted keys of the eight children 2c + CORNERS of each voxel c."""
    children = 2 * as_coords(coords)[:, None] + CORNERS
    return np.sort(pack_keys(children.reshape(-1, 3)))


def children_coords(coords: np.ndarray) -> np.ndarray:
    """The eight children 2c + CORNERS of each voxel c, lex-sorted: stride_down_coords' inverse."""
    return unpack_keys(children_keys(coords))


class PointCloudFrame:
    """A voxelized frame: scale-0 occupancy with all-one features."""

    __slots__ = ("points", "precision_bits")

    def __init__(self, points: SparseTensor, precision_bits: int):
        if precision_bits < 0:
            raise ContractViolation(f"precision must be non-negative, got {precision_bits}")
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
        cset = CoordSet.from_keys(_distinct(pack_keys(coords)))
        return cls(SparseTensor(cset, np.ones((cset.n, 1), dtype=np.float32)), precision_bits)

    @property
    def n(self) -> int:
        return self.points.n

    def __repr__(self):
        return f"PointCloudFrame(n={self.n}, precision_bits={self.precision_bits})"
