"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's own fast paths: dense zero-padded
convolution on a full grid, one sorted search per kernel offset, the sparse
convolution's earlier fancy-index offset loops (forward and backward), O(N*Q)
nearest-neighbour scans, D2 with a normal at every reference point,
per-element probability sums, NumPy's own ``np.unique`` for distinct
coordinate sets, a dense-grid set union, the range coder's earlier numpy
symbol step, and a breadth-first octree walk over Python sets.
"""

import numpy as np

from voxcodec.errors import ContractViolation
from voxcodec.sparse import pack_keys, stride_down_coords


def dense_conv_oracle(coords, feats, weight, bias, spec, out_coords):
    """Evaluate the convolution by materializing a dense zero-padded grid."""
    coords = np.asarray(coords, dtype=np.int64)
    out_coords = np.asarray(out_coords, dtype=np.int64)
    feats = np.asarray(feats, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.zeros(spec.out_channels) if bias is None else np.asarray(bias, np.float64)
    all_c = coords if not len(out_coords) else np.vstack([coords, out_coords])
    lo = all_c.min(axis=0) - 2
    hi = all_c.max(axis=0) * 2 + 4
    dims = tuple((hi - lo).astype(int))
    grid = np.zeros(dims + (feats.shape[1],))
    for c, f in zip(coords - lo, feats):
        grid[tuple(c)] = f
    offsets = spec.offsets()
    out = np.zeros((len(out_coords), spec.out_channels))
    for j, oc in enumerate(out_coords):
        acc = bias.copy()
        for o, off in enumerate(offsets):
            if spec.transposed:
                # out[p] collects y[c] @ W[o] for p = 2c + o
                src = oc - off
                if np.any(src % 2):
                    continue
                pos = src // 2 - lo
            elif spec.stride == 2:
                pos = 2 * oc + off - lo
            else:
                pos = oc + off - lo
            if np.all(pos >= 0) and np.all(pos < dims):
                acc += grid[tuple(pos)] @ weight[o]
        out[j] = acc
    return out


def kernel_map_oracle(in_coords, out_coords, spec):
    """Per-offset (input_row, output_row) pairs, one searchsorted pass per
    kernel offset over the fully shifted and repacked coordinates."""
    in_coords = np.asarray(in_coords, dtype=np.int64).reshape(-1, 3)
    out_coords = np.asarray(out_coords, dtype=np.int64).reshape(-1, 3)
    if not spec.transposed and spec.stride == 2:
        expect = stride_down_coords(in_coords)
        if expect.shape != out_coords.shape or not np.array_equal(expect, out_coords):
            raise ContractViolation("stride-2 output coordinates must be the floor-div set")
    pairs = []
    if spec.transposed:
        out_keys = pack_keys(out_coords)
        src_rows = np.arange(in_coords.shape[0])
        for off in spec.offsets():
            keys = pack_keys(2 * in_coords + off)
            j = np.minimum(np.searchsorted(out_keys, keys), max(out_keys.size - 1, 0))
            hit = out_keys[j] == keys if out_keys.size else np.zeros(len(keys), bool)
            pairs.append((src_rows[hit], j[hit]))
    else:
        in_keys = pack_keys(in_coords)
        dst_rows = np.arange(out_coords.shape[0])
        base = out_coords if spec.stride == 1 else 2 * out_coords
        for off in spec.offsets():
            keys = pack_keys(base + off)
            i = np.minimum(np.searchsorted(in_keys, keys), max(in_keys.size - 1, 0))
            hit = in_keys[i] == keys if in_keys.size else np.zeros(len(keys), bool)
            pairs.append((i[hit], dst_rows[hit]))
    return pairs


def sparse_conv_oracle(x, spec, weight, bias, out_coords):
    """``sparse_conv``'s output features by its earlier offset loop, which
    gathers and scatter-adds with fancy indexing, over the oracle's pairs.
    Every row gets the same additions in the same order, so the library's
    running-sum loop must match it byte for byte."""
    dtype = x.feats.dtype
    w = np.asarray(weight).astype(dtype, copy=False)
    out = np.zeros((len(out_coords), spec.out_channels), dtype=dtype)
    if bias is not None:
        out += np.asarray(bias, dtype=dtype)
    for o, (i_idx, j_idx) in enumerate(kernel_map_oracle(x.coords, out_coords, spec)):
        if i_idx.size:
            out[j_idx] += x.feats[i_idx] @ w[o]
    return out


def sparse_conv_backward_oracle(x, spec, weight, out_coords, grad_out):
    """``sparse_conv_backward``'s gradients by its earlier loop, which
    scatter-adds ``grad_out[j] @ weight[o].T`` into the input gradient with
    fancy indexing over the oracle's pairs.  The library accumulates the
    same products in the same order and must match it byte for byte."""
    weight = np.asarray(weight, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    feats = x.feats.astype(np.float64)
    grad_in = np.zeros_like(feats)
    grad_w = np.zeros_like(weight)
    for o, (i_idx, j_idx) in enumerate(kernel_map_oracle(x.coords, out_coords, spec)):
        if i_idx.size:
            g = grad_out[j_idx]
            grad_in[i_idx] += g @ weight[o].T
            grad_w[o] = feats[i_idx].T @ g
    return grad_in, grad_w, grad_out.sum(axis=0)


def brute_force_knn(queries, ref_coords, k):
    """O(N*Q) exact scan; ties by index (= lexicographic for sorted refs)."""
    q = np.asarray(queries, dtype=np.float64)
    r = np.asarray(ref_coords, dtype=np.float64)
    m = min(k, r.shape[0])
    idx = np.empty((q.shape[0], m), dtype=np.int64)
    d2 = np.empty((q.shape[0], m))
    for i in range(q.shape[0]):
        dist = ((r - q[i]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(dist)), dist))[:m]
        idx[i], d2[i] = order, dist[order]
    return idx, d2


def normals_oracle(coords, idx):
    """Per-point PCA normals over the neighbourhoods ``idx`` (one eigh per
    point), sign-normalized to the +x hemisphere, ties toward +y then +z."""
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    normals = np.zeros((n, 3))
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        nb = coords[idx[i]]
        if nb.shape[0] < 3:
            continue
        centered = nb - nb.mean(axis=0)
        cov = centered.T @ centered
        evals, evecs = np.linalg.eigh(cov)
        nrm = evecs[:, 0]
        norm_len = np.linalg.norm(nrm)
        if norm_len == 0:
            continue
        nrm = nrm / norm_len
        if nrm[0] < 0 or (nrm[0] == 0 and (nrm[1] < 0 or (nrm[1] == 0 and nrm[2] < 0))):
            nrm = -nrm
        normals[i] = nrm
        valid[i] = True
    return normals, valid


def d2_oracle(a, b, peak=1023):
    """Point-to-plane PSNR with a normal at every reference point: per-point
    PCA (``normals_oracle``) over brute-force 16-NN of the whole reference,
    then each query's squared projection on the normal at its brute-force
    nearest neighbour (an einsum product sum, as the library reduces it),
    point-to-point where that normal is invalid."""

    def errors(q, r):
        normals, valid = normals_oracle(r, brute_force_knn(r, r, 16)[0])
        idx, d2 = brute_force_knn(q, r, 1)
        idx, d2 = idx[:, 0], d2[:, 0]
        diff = np.asarray(q, dtype=np.float64) - np.asarray(r, dtype=np.float64)[idx]
        # summed as metrics sums it: a plain (diff * n).sum(axis=1) can round
        # the last bit differently
        proj = np.einsum("ij,ij->i", diff, normals[idx]) ** 2
        return np.where(valid[idx], proj, d2)

    mse = max(float(errors(a, b).mean()), float(errors(b, a).mean()))
    return float("inf") if mse == 0.0 else float(10.0 * np.log10(3.0 * peak * peak / mse))


def brute_force_nn_mse(a, b):
    """Mean squared nearest-neighbour distance from a to b, chunked."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    best = np.full(a.shape[0], np.inf)
    for start in range(0, a.shape[0], 512):
        chunk = a[start : start + 512]
        d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        best[start : start + 512] = d2.min(axis=1)
    return float(best.mean())


def log_sum_bits(symbols, cdfs, offsets):
    """Scalar-summation rate oracle over per-channel CDF tables."""
    import math

    total = 0.0
    symbols = np.asarray(symbols)
    for c in range(symbols.shape[1]):
        cdf = cdfs[c]
        nsym = len(cdf) - 2
        for v in symbols[:, c]:
            slot = int(v) - int(offsets[c])
            if 0 <= slot < nsym:
                total += -math.log2((cdf[slot + 1] - cdf[slot]) / 65536.0)
            else:
                total += -math.log2((cdf[nsym + 1] - cdf[nsym]) / 65536.0) + 32.0
    return total


def dense_grid_add(a_coords, a_feats, b_coords, b_feats):
    """Set-union add via an explicit dict grid."""
    acc = {}
    for c, f in zip(map(tuple, np.asarray(a_coords)), np.asarray(a_feats, dtype=np.float64)):
        acc[c] = acc.get(c, 0) + f
    for c, f in zip(map(tuple, np.asarray(b_coords)), np.asarray(b_feats, dtype=np.float64)):
        acc[c] = acc.get(c, 0) + f
    keys = sorted(acc)
    return np.array(keys), np.array([acc[k] for k in keys])


def distinct_set_oracle(coords):
    """The distinct rows of ``coords`` as NumPy's own ``np.unique`` takes them:
    (uint64 keys, lex-sorted int32 rows), from the keys and from whole rows."""
    c = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    return np.unique(pack_keys(c)), np.unique(c, axis=0).astype(np.int32)


def reference_quantizer(xyz, source_bits, target_bits):
    """Independent floor-quantizer for the precision-reduction fixture."""
    scaled = np.asarray(xyz, dtype=np.float64)
    if source_bits > target_bits:
        scaled = scaled / (2 ** (source_bits - target_bits))
    voxels = sorted({tuple(int(np.floor(v)) for v in p) for p in scaled})
    return np.array(voxels, dtype=np.int64)


# -- numpy range coder: np.searchsorted to find a symbol, cdf.item reads, and
# an adaptive byte model updated in place on a numpy cumulative table.  The
# library's coder steps on plain Python ints and must match it byte for byte.

_ORACLE_TOP = 1 << 24
_ORACLE_BOTTOM = 1 << 16
_ORACLE_MASK = (1 << 32) - 1
_RAW_BYTE_CDF = np.arange(0, (1 << 16) + 1, 1 << 8, dtype=np.int64)


class NumpyRangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = _ORACLE_MASK
        self._out = bytearray()

    def encode_symbol(self, cdf, s):
        cdf = np.asarray(cdf, dtype=np.int64)
        lo, hi, total = cdf.item(s), cdf.item(s + 1), cdf.item(-1)
        r = self._range // total
        self._low += lo * r
        self._range = (hi - lo) * r
        low, rng = self._low, self._range
        while True:
            if (low ^ (low + rng)) < _ORACLE_TOP:
                self._out.append(low >> 24)
            elif rng < _ORACLE_BOTTOM:
                rng = (-low) & (_ORACLE_BOTTOM - 1)
                self._out.append(low >> 24)
            else:
                break
            low = (low << 8) & _ORACLE_MASK
            rng = rng << 8
        self._low, self._range = low, rng

    def encode_raw_u32(self, value):
        for shift in (24, 16, 8, 0):
            self.encode_symbol(_RAW_BYTE_CDF, (value >> shift) & 0xFF)

    def finish(self):
        v = -(-self._low // _ORACLE_BOTTOM) * _ORACLE_BOTTOM
        if v > _ORACLE_MASK:
            v = (_ORACLE_MASK + 1) - _ORACLE_BOTTOM
        self._out.append((v >> 24) & 0xFF)
        self._out.append((v >> 16) & 0xFF)
        return bytes(self._out)


class NumpyRangeDecoder:
    def __init__(self, data):
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = _ORACLE_MASK
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self):
        b = self._data[self._pos] if self._pos < len(self._data) else 0
        self._pos += 1
        return b

    def decode_symbol(self, cdf):
        cdf = np.asarray(cdf, dtype=np.int64)
        total = cdf.item(-1)
        r = self._range // total
        t = self._code - self._low
        s = int(np.searchsorted(cdf, min(t // r, total - 1), side="right")) - 1
        lo = cdf.item(s)
        self._low += lo * r
        self._range = (cdf.item(s + 1) - lo) * r
        low, rng = self._low, self._range
        while True:
            if (low ^ (low + rng)) < _ORACLE_TOP:
                pass
            elif rng < _ORACLE_BOTTOM:
                rng = (-low) & (_ORACLE_BOTTOM - 1)
            else:
                break
            self._code = ((self._code << 8) | self._next_byte()) & _ORACLE_MASK
            low = (low << 8) & _ORACLE_MASK
            rng = rng << 8
        self._low, self._range = low, rng
        return s

    def decode_raw_u32(self):
        value = 0
        for _ in range(4):
            value = (value << 8) | self.decode_symbol(_RAW_BYTE_CDF)
        return value


class NumpyAdaptiveByteModel:
    """Increment 32, halving at 2^16, on a numpy cumulative table."""

    def __init__(self):
        self.cdf = np.arange(257, dtype=np.int64)

    def update(self, symbol):
        cdf = self.cdf
        cdf[symbol + 1:] += 32
        if cdf.item(-1) >= 1 << 16:
            freq = np.diff(cdf)
            freq -= freq >> 1
            np.cumsum(freq, out=cdf[1:])


def numpy_encode_bytes_adaptive(data):
    model = NumpyAdaptiveByteModel()
    enc = NumpyRangeEncoder()
    for b in data:
        enc.encode_symbol(model.cdf, b)
        model.update(b)
    return enc.finish()


def numpy_decode_bytes_adaptive(data, n):
    model = NumpyAdaptiveByteModel()
    dec = NumpyRangeDecoder(data)
    out = bytearray()
    for _ in range(n):
        b = dec.decode_symbol(model.cdf)
        model.update(b)
        out.append(b)
    return bytes(out)


def occupancy_oracle(coords, depth):
    """(distinct point count, occupancy bytes) of an octree, from the byte
    spec alone: each point is the path of child indices b = 4x + 2y + z read
    from its top bit down; level l has one byte per distinct l-step path
    prefix, prefixes in ascending (breadth-first) order, with bit 0x80 >> b
    set for each child b below it."""
    paths = {tuple(4 * (int(x) >> s & 1) + 2 * (int(y) >> s & 1) + (int(z) >> s & 1)
                   for s in range(depth - 1, -1, -1)) for x, y, z in coords}
    out = bytearray()
    for level in range(depth):
        children = {}
        for p in paths:
            children.setdefault(p[:level], set()).add(p[level])
        out += bytes(sum(0x80 >> b for b in children[node]) for node in sorted(children))
    return len(paths), bytes(out)
