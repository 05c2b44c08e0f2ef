"""Quantization, the factorized entropy model, rate accounting, range coding.

The factorized prior is frozen into per-channel quantized CDF tables (u16
resolution, total 65536).  Channel i models integer symbols
``offset[i] .. offset[i] + nsym[i] - 1`` plus one trailing escape slot;
out-of-range symbols are escape-coded followed by 32 raw bits (zig-zag).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DecodeError
from .rangecoder import RangeDecoder, RangeEncoder

TOTAL = 1 << 16
_LOG2_TOTAL = 16.0


@dataclass
class RateReport:
    total_bits: float
    coded_bytes: int
    breakdown: dict


class EntropyModel:
    """Per-channel quantized CDF tables implementing a factorized prior."""

    def __init__(self, offsets, cdfs):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.cdfs = [np.asarray(c, dtype=np.int64) for c in cdfs]
        if self.offsets.shape[0] != len(self.cdfs):
            raise ContractViolation("offset/table channel count mismatch")
        for c in self.cdfs:
            if c.ndim != 1 or c.size < 3 or c[0] != 0 or c[-1] != TOTAL:
                raise ContractViolation("malformed CDF table")
            if np.any(np.diff(c) < 0):
                raise ContractViolation("CDF must be monotone")
            if np.any(np.diff(c)[:-1] < 1):
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


def add_noise(feats: np.ndarray, seed: int) -> np.ndarray:
    """Add U(-0.5, 0.5) noise from a seeded generator (loss-path surrogate)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.uniform(-0.5, 0.5, size=np.shape(feats))
    return np.asarray(feats) + noise.astype(np.asarray(feats).dtype)


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


def estimate_bits(symbols: np.ndarray, model: EntropyModel) -> float:
    """Theoretical bits: sum of -log2 p over all symbols (escapes bill +32)."""
    s = np.asarray(symbols, dtype=np.int64)
    if s.ndim == 1:
        s = s.reshape(-1, 1)
    if s.shape[1] != model.channels:
        raise ContractViolation(f"{s.shape[1]} columns for {model.channels}-channel model")
    return sum(
        _column_bits(s[:, c], model.cdfs[c], int(model.offsets[c]))
        for c in range(model.channels)
    )


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def _unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def range_encode(symbols: np.ndarray, model: EntropyModel) -> bytes:
    """Range-code integer symbols column by column under the model.

    Layout: channel 0 rows in order, then channel 1, etc.  Decoding requires
    the same model and the row count.
    """
    s = np.asarray(symbols, dtype=np.int64)
    if s.ndim == 1:
        s = s.reshape(-1, 1)
    if s.shape[1] != model.channels:
        raise ContractViolation(f"{s.shape[1]} columns for {model.channels}-channel model")
    enc = RangeEncoder()
    for c in range(model.channels):
        cdf = model.cdfs[c]
        offset = int(model.offsets[c])
        nsym = cdf.size - 2
        for v in s[:, c]:
            slot = int(v) - offset
            if 0 <= slot < nsym:
                enc.encode(int(cdf[slot]), int(cdf[slot + 1] - cdf[slot]), TOTAL)
            else:
                esc = int(cdf[nsym + 1] - cdf[nsym])
                if esc <= 0:
                    raise ContractViolation("symbol out of range and model has no escape slot")
                z = _zigzag(int(v))
                if z >= 1 << 32:
                    raise ContractViolation("escape symbol exceeds 32-bit raw range")
                enc.encode(int(cdf[nsym]), esc, TOTAL)
                enc.encode_raw_u32(z)
    return enc.finish()


def range_decode(data: bytes, model: EntropyModel, count: int) -> np.ndarray:
    """Inverse of range_encode; returns an int64 (count, channels) array."""
    dec = RangeDecoder(data)
    out = np.empty((count, model.channels), dtype=np.int64)
    for c in range(model.channels):
        cdf = model.cdfs[c]
        offset = int(model.offsets[c])
        nsym = cdf.size - 2
        for i in range(count):
            slot = dec.decode_symbol(cdf, TOTAL)
            if slot < nsym:
                out[i, c] = slot + offset
            else:
                out[i, c] = _unzigzag(dec.decode_raw_u32())
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
