"""Generalized sparse convolution engine.

Convolutions are evaluated only at prescribed output coordinates via
offset-indexed kernel maps.  Stride-1 kernels use centered offsets; stride-2
kernels use the {0,1}^3 corner convention so downsampled coordinate sets are
exactly the floor-division sets and transposed convolutions target
prescribed coordinate sets.

Every kernel map is one shifted-key search, as in Choy et al.'s Minkowski
Engine: stride 1 looks up ``out + o`` and stride 2 ``2*out + o`` in the input
keys, a transposed conv ``2*in + o`` in the output keys.  The keys are
searched once per kernel column and stepped along the column's ``dz`` run
from there.  Each map is turned once into a running-sum plan: per offset,
the input rows to gather and a contiguous block of a sums table that
receives those rows' running sums, so a conv writes blocks and reads each
output row's final sum with one gather.  The plan is cut into segments,
and between segments every output row's running sum is gathered back to the
head of the table, so one table of at most ``_TABLE_ROWS`` times the output
rows serves the whole conv.  Plan indices are int32.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ContractViolation
from .sparse import (CORNERS, CoordSet, SparseTensor, as_coords, key_steps, lookup, pack_keys,
                     sorted_keys)


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    transposed: bool = False

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ContractViolation(
                f"channel widths {self.in_channels}, {self.out_channels} must be at least 1")
        if self.kernel_size not in (1, 2, 3):
            raise ContractViolation(f"kernel_size {self.kernel_size} unsupported")
        if self.stride not in (1, 2):
            raise ContractViolation(f"stride {self.stride} unsupported")
        if self.stride == 2 and self.kernel_size != 2:
            raise ContractViolation("stride-2 convolutions use kernel_size 2")
        if self.transposed and (self.stride != 2 or self.kernel_size != 2):
            raise ContractViolation("transposed convolutions are stride-2 kernel-2")

    def offsets(self) -> np.ndarray:
        """Kernel offsets in lexicographic order; defines the weight layout.
        The array is shared and read-only."""
        return _OFFSETS[self.kernel_size]

    @property
    def weight_shape(self):
        return (self.kernel_size**3, self.in_channels, self.out_channels)


def _offset_table(rng):
    offsets = np.array(list(product(rng, rng, rng)), dtype=np.int64)
    offsets.flags.writeable = False
    return offsets


_OFFSETS = {1: _offset_table((0,)), 2: CORNERS, 3: _offset_table((-1, 0, 1))}


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

    All three are one shifted-key search (:func:`_shifted_pairs`): a forward
    map shifts the output rows and searches the input keys, a transposed map
    shifts the input rows and searches the output keys.  For every geometry
    both row arrays must be distinct and lex-sorted, as in a CoordSet, and a
    forward stride-2 output must be exactly the floor-division set of the
    input.  Within one offset the pairs are in increasing output-row order,
    which is also increasing input-row order.  This is the uncached
    primitive; :func:`sparse_conv` memoizes the running-sum plan made from
    its result on the input's coordinate set.
    """
    in_coords, out_coords = as_coords(in_coords), as_coords(out_coords)
    searched, shifted = (out_coords, in_coords) if spec.transposed else (in_coords, out_coords)
    base = shifted if spec.stride == 1 else 2 * shifted
    # doubling keeps the lex order, so sorted_keys checks both row arrays
    # while it packs the searched rows and the shifted base
    pairs = _shifted_pairs(sorted_keys(searched), base, sorted_keys(base), spec.offsets())
    if spec.transposed:
        return KernelMap([(i, j) for j, i in pairs])
    if spec.stride == 2:
        # an input row has one parent and one corner, so it pairs at most once:
        # out is the floor-div set exactly when every input and output row pairs
        paired = np.concatenate([j for _, j in pairs])
        if paired.size != len(in_coords) or not np.bincount(paired, minlength=len(base)).all():
            raise ContractViolation("stride-2 output coordinates must be the floor-div set")
    return KernelMap(pairs)


def _shifted_pairs(keys, base, packed, offsets):
    """Per offset o, the pairs (pos, q) with ``keys[pos] == pack(base[q] + o)``,
    increasing in q.  ``keys`` are strictly increasing and ``packed`` are the
    base rows' keys, shifted per offset; the keys are searched once per
    kernel column.
    """
    # every kernel is a cube: offsets[0] and offsets[-1] shift each axis by its
    # lowest and highest step, so every base + offset stays in the 21-bit
    # range exactly when the extremes of base shifted by them do
    if base.size:
        pack_keys(np.array([[base.min()], [base.max()]]) + offsets[[0, -1]])
    steps = key_steps(offsets)
    rows = np.arange(base.shape[0])
    n = len(offsets)
    # on one coordinate set, offset -o pairs the same rows as o with the roles
    # swapped, and both stay increasing: search half the kernel
    mirror = np.array_equal(offsets[::-1], -offsets) and np.array_equal(keys, packed)
    pairs = []
    for t, step in enumerate(steps):
        if mirror and t > n // 2:
            pos, q = pairs[n - 1 - t]
            pairs.append((q, pos))
            continue
        shifted = packed + step
        if offsets[t, 2] != offsets[0, 2] and keys.size:
            # the offsets of a column (dx, dy) are a run over dz in lex order,
            # so shifted is the previous offset's keys plus one.  The keys are
            # distinct and sorted: key + 1 can only sit at pos + hit
            pos = np.minimum(pos + hit, keys.size - 1)
            hit = keys[pos] == shifted
        else:
            pos, hit = lookup(keys, shifted)
        pairs.append((pos[hit], rows[hit]))
    return pairs


# Rows of a conv's sums table per output row: the output rows' carried sums
# plus one segment's blocks, so a segment holds at most _TABLE_ROWS - 1 block
# rows per output row.  At least 2, since one offset pairs each output row.
# At 4 the extra checkpoints cost cycle time, and the traced peak of a 10k- or
# 40k-point I encode+decode stayed the same: it is set outside the tables.
_TABLE_ROWS = 8


class _Plan:
    """A kernel map laid out for running sums, cut into segments.

    ``pairs`` are a kernel map's, increasing in both rows within an offset.
    One sums table per conv.  ``segments`` is a list of ``(steps, last)``;
    pair ``t`` of step ``(o, rows, lo, hi, prev)`` gets slot ``lo + t``.
    ``rows`` are the offset's input rows; ``prev[t]`` is the slot holding
    the running sum of that pair's output row before offset ``o``, and
    ``last[j]`` the slot holding output row ``j``'s sum at the end of the
    segment.  The first segment's blocks start at slot 1 and slot 0 holds
    the initial row (the bias), which is every row's sum before its first
    pair.  Every later segment starts from slots ``0..n_out-1``, which then
    hold each output row's sum carried from the segment before, and puts
    its blocks after them.  Offsets with no pairs have no step.

    A segment ends before the offset that would take its blocks past
    ``cap`` rows, ``(_TABLE_ROWS - 1) * n_out`` by default (each segment
    takes at least one offset).  Within one offset each output row appears
    at most once, so the table, ``size`` rows, is at most ``n_out + cap``
    rows once ``cap >= n_out``.  All indices are int32: a plan whose table or
    input would pass ``2**31`` rows raises ContractViolation.
    """

    __slots__ = ("segments", "size")

    def __init__(self, pairs, n_out, cap=None):
        if cap is None:
            cap = (_TABLE_ROWS - 1) * n_out
        last = np.zeros(n_out, dtype=np.int32)
        segments, steps = [], []
        start = lo = size = 1
        for o, (i, j) in enumerate(pairs):
            if not i.size:
                continue
            if steps and lo - start + i.size > cap:
                segments.append((steps, last))
                size = max(size, lo)
                steps, last = [], np.arange(n_out, dtype=np.int32)
                start = lo = n_out
            hi = lo + i.size
            if hi > 2**31 or i[-1] >= 2**31:
                raise ContractViolation("a conv plan's table or input passes 2**31 rows")
            steps.append((o, i.astype(np.int32), lo, hi, last[j]))
            # within one offset each output row appears at most once
            last[j] = np.arange(lo, hi, dtype=np.int32)
            lo = hi
        segments.append((steps, last))
        self.segments = segments
        self.size = max(size, lo)


def _accumulate(plan: _Plan, feats, weight, init):
    """Row ``j`` of the result is ``init`` plus, offset by offset in order,
    ``feats[i] @ weight[o]`` for each pair ``(i, j)`` of the plan's map.
    ``feats``, ``weight`` and ``init`` share one dtype.

    Each offset takes its rows' running sums into its own block of the
    sums table and adds its product in place: per row, the same in-place
    adds on the same operands as ``out[j] += feats[i] @ weight[o]`` on an
    ``out`` filled with ``init``, so the same bytes, NaN payloads included.
    One output-sized carry buffer receives each product, then at the end
    of every segment each row's sum (an exact gather), which goes back to
    the head of the table; the last one is the result.  So a conv holds
    the table, the carry and one offset's gathered input rows.
    """
    n_out, width = plan.segments[-1][1].size, init.shape[-1]
    table = np.empty((plan.size, width), dtype=init.dtype)
    table[:1] = init
    carry = np.empty((n_out, width), dtype=init.dtype)
    for s, (steps, last) in enumerate(plan.segments):
        if s:
            table[:n_out] = carry
        for o, rows, lo, hi, prev in steps:
            acc = table[lo:hi]
            # prev < lo: reading only table[:lo] keeps the source apart from
            # acc, and "clip" (the slots are in range by construction) spares
            # numpy a buffered copy of out
            table[:lo].take(prev, 0, out=acc, mode="clip")
            # pairs are increasing in i, so an offset using every input row
            # takes them in order: the operand is feats itself
            x = feats if rows.size == feats.shape[0] else feats.take(rows, 0)
            acc += np.matmul(x, weight[o], out=carry[:hi - lo])
        table.take(last, 0, out=carry, mode="clip")
    return carry


def _cached_plan(source: CoordSet, target: CoordSet, spec: ConvSpec) -> _Plan:
    """The running-sum plan of the kernel map from ``source`` onto ``target``,
    built once per pair of coordinate sets.

    The memo lives on ``source``; entries are keyed by kernel geometry and
    compared on the target's rows.  An entry keeps those rows, not the target
    set, so the plans built on a target set go when that set does.
    """
    entries = source.plans.setdefault((spec.kernel_size, spec.stride, spec.transposed), [])
    for coords, plan in entries:
        if coords is target.coords or np.array_equal(coords, target.coords):
            return plan
    plan = _Plan(build_kernel_map(source.coords, target.coords, spec).pairs, target.n)
    entries.append((target.coords, plan))
    return plan


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
    Output rows with no contributing pairs equal the bias.  ``out_coords``
    is a CoordSet for the output to share, or rows; by default a stride-1
    conv keeps x's set and a stride-2 conv takes its stride-down set.
    """
    weight = np.asarray(weight)
    if weight.shape != spec.weight_shape:
        raise ContractViolation(f"weight shape {weight.shape} != {spec.weight_shape}")
    if x.channels != spec.in_channels:
        raise ContractViolation(f"input channels {x.channels} != {spec.in_channels}")
    if out_coords is None:
        if spec.transposed:
            raise ContractViolation("transposed convolution requires target coordinates")
        target = x.cset if spec.stride == 1 else x.cset.down()
    elif isinstance(out_coords, CoordSet):
        target = out_coords
    elif spec.stride == 1 and np.array_equal(out_coords, x.coords):
        target = x.cset
    else:
        target = CoordSet(out_coords)
    dtype = x.feats.dtype
    w = weight.astype(dtype, copy=False)
    if target is x.cset and spec.kernel_size == 1:
        # a 1x1 kernel on its own coordinates pairs every row with itself
        out = _initial((x.n, spec.out_channels), bias, dtype)
        out += x.feats @ w[0]
    else:
        init = _initial((1, spec.out_channels), bias, dtype)
        out = _accumulate(_cached_plan(x.cset, target, spec), x.feats, w, init)
    return SparseTensor(target, out, _out_scale(spec, x.scale))


def _initial(shape, bias, dtype):
    """Rows a conv's sums start from: zero plus the bias."""
    out = np.zeros(shape, dtype=dtype)
    if bias is not None:
        out += np.asarray(bias, dtype=dtype)
    return out


def sparse_conv_backward(x: SparseTensor, spec: ConvSpec, weight, kmap: KernelMap, grad_out):
    """Analytic gradients of sparse_conv w.r.t. input features, weight, bias."""
    weight = np.asarray(weight, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    feats = x.feats.astype(np.float64, copy=False)
    # grad_in[i] += grad_out[j] @ weight[o].T: the forward sum on the swapped
    # map, whose pairs are increasing in both rows as well
    swapped = _Plan([(j, i) for i, j in kmap.pairs], x.n)
    grad_in = _accumulate(swapped, grad_out, weight.transpose(0, 2, 1),
                          np.zeros((1, feats.shape[1])))
    grad_w = np.zeros_like(weight)
    for o, (i_idx, j_idx) in enumerate(kmap.pairs):
        if i_idx.size:
            grad_w[o] = feats.take(i_idx, 0).T @ grad_out.take(j_idx, 0)
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


def _weight_spec(weight, targeted=False) -> ConvSpec:
    """The ConvSpec a (offsets, cin, cout) weight tensor implies: a stride-2
    kernel is transposed when it is given target coordinates."""
    shape = np.shape(weight)
    if len(shape) != 3 or shape[0] not in _GEOMETRY:
        raise ContractViolation(f"weight shape {shape} names no supported kernel")
    kernel_size, stride = _GEOMETRY[shape[0]]
    return ConvSpec(shape[1], shape[2], kernel_size, stride, targeted and stride == 2)


def _conv(x, w, name, out_coords=None):
    """Layer ``name`` of the weights ``w``, its geometry read from the weight."""
    weight = w[name + ".weight"]
    spec = _weight_spec(weight, out_coords is not None)
    return sparse_conv(x, spec, weight, w[name + ".bias"], out_coords)


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
    # the sum overwrites the concatenated branches instead of taking a new
    # array; x.feats stays the first operand, so the bytes, NaN payloads
    # included, are those of x.feats + inception
    return x.with_feats(np.add(x.feats, inception, out=inception))


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
    order = (-probs).argsort(kind="stable")[:m]
    order = np.sort(order)
    # order is increasing, so the kept keys are too
    kept = CoordSet.from_keys(x.cset.keys.take(order))
    return SparseTensor(kept, x.feats.take(order, 0), x.scale)
