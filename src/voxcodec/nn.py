"""Generalized sparse convolution engine.

Convolutions are evaluated only at prescribed output coordinates via
offset-indexed gather/scatter (kernel maps).  Stride-1 kernels use centered
offsets; stride-2 kernels use the {0,1}^3 corner convention so downsampled
coordinate sets are exactly the floor-division sets and transposed
convolutions target prescribed coordinate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractViolation
from .sparse import SparseTensor, lookup, pack_keys, stride_down_coords


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    transposed: bool = False

    def __post_init__(self):
        if self.kernel_size not in (1, 2, 3):
            raise ContractViolation(f"kernel_size {self.kernel_size} unsupported")
        if self.stride not in (1, 2):
            raise ContractViolation(f"stride {self.stride} unsupported")
        if self.stride == 2 and self.kernel_size != 2:
            raise ContractViolation("stride-2 convolutions use kernel_size 2")
        if self.transposed and (self.stride != 2 or self.kernel_size != 2):
            raise ContractViolation("transposed convolutions are stride-2 kernel-2")

    def offsets(self) -> np.ndarray:
        """Kernel offsets in lexicographic order; defines the weight layout."""
        if self.kernel_size == 1:
            rng = (0,)
        elif self.kernel_size == 2:
            rng = (0, 1)
        else:
            rng = (-1, 0, 1)
        return np.array(list(product(rng, rng, rng)), dtype=np.int64)

    @property
    def weight_shape(self):
        return (len(self.offsets()), self.in_channels, self.out_channels)


class KernelMap:
    """Per-kernel-offset (input_row, output_row) index pair lists."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs


def build_kernel_map(in_coords, out_coords, spec: ConvSpec) -> KernelMap:
    """Pair input and output rows for every kernel offset.

    forward stride-1:  (i, j) iff in[i] == out[j] + offset
    forward stride-2:  (i, j) iff in[i] == 2*out[j] + offset, offset in {0,1}^3
    transposed:        (i, j) iff out[j] == 2*in[i] + offset, offset in {0,1}^3

    Coordinate rows are lexicographically sorted, as in a SparseTensor (the
    stride-1 output rows may come in any order).  Within one offset the pairs
    are in increasing output-row order, which is also increasing input-row
    order.  This is the uncached primitive; :func:`sparse_conv` memoizes its
    result on the input tensor.
    """
    in_coords = np.asarray(in_coords, dtype=np.int64).reshape(-1, 3)
    out_coords = np.asarray(out_coords, dtype=np.int64).reshape(-1, 3)
    if spec.transposed:
        # each output row has one parent (out >> 1) and one corner (out & 1);
        # the keys of 2*in and 2*(out >> 1) == out & -2 compare parents
        pos, hit = lookup(pack_keys(2 * in_coords), pack_keys(out_coords & -2))
        rows = np.flatnonzero(hit)
        pairs = _by_corner(out_coords[rows], pos[rows], rows)
    elif spec.stride == 2:
        parents, j = np.unique(pack_keys(in_coords & -2), return_inverse=True)
        if not np.array_equal(parents, pack_keys(2 * out_coords)):
            raise ContractViolation("stride-2 output coordinates must be the floor-div set")
        pairs = _by_corner(in_coords, np.arange(in_coords.shape[0]), j.reshape(-1))
    else:
        pairs = _neighbour_pairs(in_coords, out_coords, spec.offsets())
    return KernelMap(pairs)


def _by_corner(children, i_rows, j_rows):
    """Split (i, j) pairs by the {0,1}^3 corner of each child coordinate,
    in offset order; a stable sort keeps each corner's rows increasing."""
    corner = (children & 1) @ np.array([4, 2, 1])
    order = np.argsort(corner, kind="stable")
    bounds = np.cumsum(np.bincount(corner, minlength=8))[:-1]
    return list(zip(np.split(i_rows[order], bounds), np.split(j_rows[order], bounds)))


def _neighbour_pairs(in_coords, out_coords, offsets):
    """Stride-1 pairs: the output keys are packed once and shifted per offset."""
    in_keys = pack_keys(in_coords)
    # offsets[0] and offsets[-1] are the extreme corners of the kernel, so
    # packing both raises exactly when some out + offset leaves the 21-bit range
    first = pack_keys(out_coords + offsets[0])
    pack_keys(out_coords + offsets[-1])
    d = (offsets - offsets[0]).astype(np.uint64)
    steps = (d[:, 0] << np.uint64(42)) | (d[:, 1] << np.uint64(21)) | d[:, 2]
    dst_rows = np.arange(out_coords.shape[0])
    # on one coordinate set, offset -o pairs the same rows as o with the
    # roles swapped, and both stay increasing: look up only half the kernel
    n = len(offsets)
    mirror = np.array_equal(offsets[::-1], -offsets) and np.array_equal(in_coords, out_coords)
    pairs = []
    for t, step in enumerate(steps):
        if mirror and t > n // 2:
            i, j = pairs[n - 1 - t]
            pairs.append((j, i))
        else:
            i, hit = lookup(in_keys, first + step)
            pairs.append((i[hit], dst_rows[hit]))
    return pairs


def _cached_kernel_map(x: SparseTensor, out_coords, spec: ConvSpec) -> KernelMap:
    """The kernel map from x onto out_coords, built once per coordinate set.

    The memo lives on x (and every tensor sharing x's coordinates); entries
    are keyed by kernel geometry and compared on the output coordinates.
    """
    entries = x.kernel_maps.setdefault((spec.kernel_size, spec.stride, spec.transposed), [])
    for coords, kmap in entries:
        if coords is out_coords or np.array_equal(coords, out_coords):
            return kmap
    kmap = build_kernel_map(x.coords, out_coords, spec)
    entries.append((out_coords if out_coords is x.coords else out_coords.copy(), kmap))
    return kmap


def _out_scale(spec: ConvSpec, in_scale: int) -> int:
    if spec.transposed:
        return in_scale - 1
    if spec.stride == 2:
        return in_scale + 1
    return in_scale


def sparse_conv(
    x: SparseTensor,
    spec: ConvSpec,
    weight: np.ndarray,
    bias=None,
    out_coords=None,
) -> SparseTensor:
    """Generalized sparse convolution.

    out[j] = bias + sum over offsets o and pairs (i, j) of x[i] @ weight[o].
    Output rows with no contributing pairs equal the bias.
    """
    weight = np.asarray(weight)
    if weight.shape != spec.weight_shape:
        raise ContractViolation(f"weight shape {weight.shape} != {spec.weight_shape}")
    if x.channels != spec.in_channels:
        raise ContractViolation(f"input channels {x.channels} != {spec.in_channels}")
    if out_coords is None:
        if spec.transposed:
            raise ContractViolation("transposed convolution requires target coordinates")
        out_coords = x.coords if spec.stride == 1 else stride_down_coords(x.coords)
    else:
        out_coords = np.asarray(out_coords, dtype=np.int32).reshape(-1, 3)
    same = spec.stride == 1 and (out_coords is x.coords or np.array_equal(out_coords, x.coords))
    dtype = x.feats.dtype
    w = weight.astype(dtype, copy=False)
    out = np.zeros((out_coords.shape[0], spec.out_channels), dtype=dtype)
    if bias is not None:
        out += np.asarray(bias, dtype=dtype)
    if same and spec.kernel_size == 1:
        # a 1x1 kernel on its own coordinates pairs every row with itself
        out += x.feats @ w[0]
    else:
        kmap = _cached_kernel_map(x, out_coords, spec)
        for o, (i_idx, j_idx) in enumerate(kmap.pairs):
            if i_idx.size:
                # within one offset each output row appears at most once
                out[j_idx] += x.feats[i_idx] @ w[o]
    if same:
        return SparseTensor(x.coords, out, x.scale, _coords_of=x)
    return SparseTensor(out_coords, out, _out_scale(spec, x.scale), _trusted=True)


def sparse_conv_backward(x: SparseTensor, spec: ConvSpec, weight, kmap: KernelMap, grad_out):
    """Analytic gradients of sparse_conv w.r.t. input features, weight, bias."""
    weight = np.asarray(weight, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    feats = x.feats.astype(np.float64, copy=False)
    grad_in = np.zeros_like(feats)
    grad_w = np.zeros_like(weight)
    for o, (i_idx, j_idx) in enumerate(kmap.pairs):
        if i_idx.size:
            grad_in[i_idx] += grad_out[j_idx] @ weight[o].T
            grad_w[o] = feats[i_idx].T @ grad_out[j_idx]
    grad_b = grad_out.sum(axis=0)
    return grad_in, grad_w, grad_b


class _PrefixView:
    """Dotted-prefix view over any name->tensor mapping."""

    __slots__ = ("_w", "_prefix")

    def __init__(self, w, prefix):
        self._w = w
        self._prefix = prefix

    def __getitem__(self, name):
        return self._w[f"{self._prefix}.{name}"]


def prefixed(w, prefix: str) -> _PrefixView:
    return _PrefixView(w, prefix)


def relu(x: SparseTensor) -> SparseTensor:
    return x.with_feats(np.maximum(x.feats, 0))


# kernel offsets per weight -> (kernel_size, stride).  No layer is a stride-1
# kernel-2 conv, so the {0,1}^3 corner kernel is always stride 2, forward or
# transposed.
_GEOMETRY = {1: (1, 1), 27: (3, 1), 8: (2, 2)}


def _weight_spec(weight, transposed=False) -> ConvSpec:
    """The ConvSpec a (offsets, cin, cout) weight tensor implies."""
    shape = np.shape(weight)
    if len(shape) != 3 or shape[0] not in _GEOMETRY:
        raise ContractViolation(f"weight shape {shape} names no supported kernel")
    kernel_size, stride = _GEOMETRY[shape[0]]
    return ConvSpec(shape[1], shape[2], kernel_size, stride, transposed)


def _conv(x, w, name, out_coords=None, transposed=False):
    """Layer ``name`` of the weights ``w``, its geometry read from the weight."""
    weight = w[name + ".weight"]
    return sparse_conv(x, _weight_spec(weight, transposed), weight, w[name + ".bias"], out_coords)


def irn_block(x: SparseTensor, w) -> SparseTensor:
    """Channel-preserving inception-residual block: x + concat of three branches.

    Branches (1x1 -> 3x3), (3x3 -> 3x3) and (1x1); PCGCv2 gives them O/4,
    O/4 and O/2 of the O input channels.  Coordinates unchanged.
    """
    b0 = _conv(_conv(x, w, "b0c1"), w, "b0c2")
    b1 = _conv(_conv(x, w, "b1c1"), w, "b1c2")
    b2 = _conv(x, w, "b2c1")
    widths = (b0.channels, b1.channels, b2.channels)
    if sum(widths) != x.channels:
        raise ContractViolation(f"IRN branch widths {widths} do not add up to {x.channels}")
    inception = np.concatenate([b0.feats, b1.feats, b2.feats], axis=1)
    return x.with_feats(x.feats + inception)


def rn_block(x: SparseTensor, w) -> SparseTensor:
    """Residual block: x + conv3(relu(conv3(x))).  Coordinates unchanged."""
    y = _conv(relu(_conv(x, w, "c1")), w, "c2")
    return x.with_feats(x.feats + y.feats)


def _sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def classify_occupancy(x: SparseTensor, w) -> np.ndarray:
    """Per-voxel occupation probability: logistic of a 1x1 conv to one channel."""
    weight = w["weight"]
    logits = sparse_conv(x, _weight_spec(weight), weight, w["bias"]).feats[:, 0]
    return _sigmoid(logits.astype(np.float64))


def adaptive_prune(x: SparseTensor, probs: np.ndarray, keep: int) -> SparseTensor:
    """Retain the min(keep, N) most probable voxels.

    Ties break toward lexicographically smaller coordinates (stable order of
    the sorted input).  Output stays lex-sorted.
    """
    if keep < 0:
        raise ContractViolation("keep must be >= 0")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (x.n,):
        raise ContractViolation("probability vector length mismatch")
    m = min(int(keep), x.n)
    order = np.argsort(-probs, kind="stable")[:m]
    order = np.sort(order)
    return SparseTensor(x.coords[order], x.feats[order], x.scale, _trusted=True)
