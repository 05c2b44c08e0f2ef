"""Quantization, the factorized entropy model, rate accounting, range coding.

The factorized prior is frozen into per-channel quantized CDF tables (u16
resolution, total 65536).  Channel i models integer symbols
``offset[i] .. offset[i] + nsym[i] - 1`` plus one trailing escape slot;
out-of-range symbols are escape-coded followed by 32 raw bits (zig-zag).
This module owns that escape format both ways: the 32 bits are four
big-endian bytes, each a symbol of the uniform table ``RAW_CDF``, where byte
b is the slot [256 b, 256 (b + 1)) of 2^16.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ContractViolation, DecodeError
from .rangecoder import RangeDecoder, RangeEncoder
from .sparse import integral

TOTAL = 1 << 16
RAW_CDF = tuple(range(0, TOTAL + 1, 1 << 8))
_LOG2_TOTAL = 16.0


@dataclass
class RateReport:
    total_bits: float
    breakdown: dict


class EntropyModel:
    """Per-channel quantized CDF tables implementing a factorized prior.

    ``cdfs`` holds the tables as int64 arrays for rate estimation and
    serialization; ``tables`` holds the same tables as tuples of Python ints,
    which the range decoder searches.  They are checked here, once: the coder
    checks no slot.
    """

    def __init__(self, offsets, cdfs):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.cdfs = [np.asarray(c, dtype=np.int64) for c in cdfs]
        if self.offsets.shape[0] != len(self.cdfs):
            raise ContractViolation("offset/table channel count mismatch")
        if any(c.ndim != 1 for c in self.cdfs):
            raise ContractViolation("malformed CDF table")
        self.tables = [tuple(c.tolist()) for c in self.cdfs]
        for t in self.tables:
            if len(t) < 3 or t[0] != 0 or t[-1] != TOTAL:
                raise ContractViolation("malformed CDF table")
            # in-range slots are at least 1 wide; the escape slot, last, may be empty
            if not all(map(operator.lt, t[:-2], t[1:-1])) or t[-2] > t[-1]:
                if any(map(operator.gt, t[:-1], t[1:])):
                    raise ContractViolation("CDF must be monotone")
                raise ContractViolation("in-range symbols need probability >= 1/65536")

    @property
    def channels(self) -> int:
        return len(self.cdfs)

    def nsym(self, ch: int) -> int:
        """Number of in-range symbols for a channel (excludes the escape slot)."""
        return self.cdfs[ch].size - 2


def quantize(feats: np.ndarray) -> np.ndarray:
    """Round half away from zero, elementwise, to int64 symbols."""
    f = np.asarray(feats)
    return (np.sign(f) * np.floor(np.abs(f) + 0.5)).astype(np.int64)


def _column_bits(symbols: np.ndarray, cdf: np.ndarray, offset: int) -> float:
    nsym = cdf.size - 2
    slot = symbols - offset
    in_range = (slot >= 0) & (slot < nsym)
    bits = 0.0
    if np.any(in_range):
        s = slot[in_range]
        p = (cdf[s + 1] - cdf[s]).astype(np.float64)
        bits += float(np.sum(_LOG2_TOTAL - np.log2(p)))
    n_out = int(np.count_nonzero(~in_range))
    if n_out:
        p_esc = float(cdf[nsym + 1] - cdf[nsym])
        if p_esc <= 0:
            return float("inf")
        bits += n_out * (_LOG2_TOTAL - np.log2(p_esc) + 32.0)
    return bits


def _symbol_matrix(symbols, model: EntropyModel) -> np.ndarray:
    """Symbols as an int64 (rows, channels) matrix: a 1-D array is one
    column; anything else must be 2-D with the model's channel count.  The
    values must pass ``sparse.integral``, as coordinates do."""
    try:
        s = np.asarray(symbols)
    except ValueError:  # rows of different lengths
        raise ContractViolation("symbols must be a (rows, channels) array, "
                                "got ragged rows") from None
    if not integral(s):
        raise ContractViolation(f"symbols of dtype {s.dtype} are not all finite integers")
    s = s.astype(np.int64, copy=False)
    if s.ndim == 1:
        s = s.reshape(-1, 1)
    if s.ndim != 2 or s.shape[1] != model.channels:
        raise ContractViolation(f"symbols of shape {s.shape} for a {model.channels}-channel model")
    return s


def estimate_bits(symbols: np.ndarray, model: EntropyModel) -> float:
    """Theoretical bits: sum of -log2 p over all symbols (escapes bill +32)."""
    s = _symbol_matrix(symbols, model)
    return sum(
        _column_bits(s[:, c], model.cdfs[c], int(model.offsets[c]))
        for c in range(model.channels)
    )


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def _unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def _column_steps(column: np.ndarray, cdf: np.ndarray, offset: int):
    """The coder steps (lo, hi) of one column, as lists: each row's slot, and
    after an escape slot the four raw bytes of the zig-zagged value."""
    nsym = cdf.size - 2
    slot = column - offset
    esc = (slot < 0) | (slot >= nsym)
    k = int(np.count_nonzero(esc))
    if not k:
        return cdf[slot].tolist(), cdf[slot + 1].tolist()
    if cdf[nsym + 1] == cdf[nsym]:
        raise ContractViolation("symbol out of range and model has no escape slot")
    z = [_zigzag(v) for v in column[esc].tolist()]
    if max(z) >= 1 << 32:
        raise ContractViolation("escape symbol exceeds 32-bit raw range")
    slot[esc] = nsym
    first = np.arange(slot.size) + 4 * (np.cumsum(esc) - esc)  # each row's first step
    lo = np.empty(slot.size + 4 * k, dtype=np.int64)
    hi = np.empty_like(lo)
    lo[first], hi[first] = cdf[slot], cdf[slot + 1]
    raw = first[esc][:, None] + np.arange(1, 5)
    raw_bytes = (np.array(z, dtype=np.int64)[:, None] >> np.array([24, 16, 8, 0])) & 0xFF
    raw_cdf = np.array(RAW_CDF)
    lo[raw], hi[raw] = raw_cdf[raw_bytes], raw_cdf[raw_bytes + 1]
    return lo.tolist(), hi.tolist()


def range_encode(symbols: np.ndarray, model: EntropyModel) -> bytes:
    """Range-code integer symbols column by column under the model, one
    coder run per column.

    Layout: channel 0 rows in order, then channel 1, etc.  Decoding requires
    the same model and the row count.
    """
    s = _symbol_matrix(symbols, model)
    enc = RangeEncoder()
    for c, cdf in enumerate(model.cdfs):
        los, his = _column_steps(s[:, c], cdf, int(model.offsets[c]))
        enc.encode_steps(los, his, repeat(TOTAL))
    return enc.finish()


def range_decode(data: bytes, model: EntropyModel, count: int) -> np.ndarray:
    """Inverse of range_encode; returns an int64 (count, channels) array."""
    dec = RangeDecoder(data)
    out = np.empty((count, model.channels), dtype=np.int64)
    for c, table in enumerate(model.tables):
        offset, nsym = int(model.offsets[c]), len(table) - 2
        column = []
        while len(column) < count:
            column += dec.run(table, count - len(column), nsym)
            if column[-1] == nsym:
                # the escaped value, less the offset added to the whole column
                column[-1] = _unzigzag(int.from_bytes(bytes(dec.run(RAW_CDF, 4)), "big")) - offset
        out[:, c] = column
        out[:, c] += offset
    dec.finish()
    return out


def build_table_from_pmf(pmfs, offsets, escape_mass=0.0) -> EntropyModel:
    """Freeze per-channel pmfs into quantized CDF tables.

    Proportional u16 quantization with a 1/65536 floor per in-range symbol,
    renormalized to sum 65536 (largest entries absorb the correction).  The
    escape slot receives ``escape_mass`` of the probability (0 disables
    escape coding for that channel).
    """
    cdfs = []
    for pmf in pmfs:
        p = np.asarray(pmf, dtype=np.float64)
        if p.size == 0:
            raise ContractViolation("empty pmf")
        if np.any(p < 0) or p.sum() <= 0:
            raise ContractViolation("pmf must be nonnegative with positive mass")
        w = np.append(p, max(float(escape_mass), 0.0))
        w = w / w.sum()
        freq = np.floor(w * TOTAL).astype(np.int64)
        freq[:-1] = np.maximum(freq[:-1], 1)
        if escape_mass > 0:
            freq[-1] = max(freq[-1], 1)
        excess = int(freq.sum()) - TOTAL
        # distribute the correction deterministically over the largest entries
        order = np.lexsort((np.arange(freq.size), -freq))
        k = 0
        while excess != 0:
            j = order[k % freq.size]
            if excess > 0 and freq[j] > 1:
                freq[j] -= 1
                excess -= 1
            elif excess < 0:
                freq[j] += 1
                excess += 1
            k += 1
        cdf = np.zeros(freq.size + 1, dtype=np.int64)
        np.cumsum(freq, out=cdf[1:])
        cdfs.append(cdf)
    return EntropyModel(np.asarray(offsets, dtype=np.int64), cdfs)


def model_to_tensors(model: EntropyModel) -> dict:
    """Serialize a model into f32 tensors for the weight file (bit exact)."""
    width = max(c.size for c in model.cdfs)
    cdf = np.full((model.channels, width), float(TOTAL), dtype=np.float32)
    sizes = np.zeros(model.channels, dtype=np.float32)
    for i, c in enumerate(model.cdfs):
        cdf[i, : c.size] = c.astype(np.float32)
        sizes[i] = c.size
    return {
        "cdf": cdf,
        "offset": model.offsets.astype(np.float32),
        "size": sizes,
    }


def model_from_tensors(tensors: dict) -> EntropyModel:
    """Inverse of model_to_tensors.  Every entry must be an integer of at
    most 2^31 in magnitude, or the tensors describe no model."""
    t = {}
    for key in ("size", "cdf", "offset"):
        a = np.asarray(tensors[key])
        if not np.all(np.isfinite(a)) or np.any(np.abs(a) > 2**31) or np.any(a != np.floor(a)):
            raise DecodeError(f"entropy table '{key}' holds a non-integral or out-of-range value")
        t[key] = a.astype(np.int64)
    if t["cdf"].ndim != 2 or not t["size"].shape == t["offset"].shape == t["cdf"].shape[:1]:
        raise DecodeError("entropy tables disagree on the channel count")
    cdfs = [t["cdf"][i, : t["size"][i]] for i in range(len(t["size"]))]
    return EntropyModel(t["offset"], cdfs)
