"""Bit-exact 32-bit renormalizing range coder.

Carry-less variant: a byte is emitted only once the top byte of the interval
is settled, and near-underflow the range is clamped to the next 2^16 boundary,
so emitted bytes are final.  All arithmetic is fixed-width integer, hence
decoding is deterministic and platform independent.

One symbol step each way: the encoder takes a cumulative table cdf (a 1-D
numpy integer array, cdf[0] = 0, total cdf[-1] at most 2^16) and a symbol
index into it, and the decoder takes the same table and returns the index.
The flush writes exactly two bytes: the shortest prefix of a value inside
the final interval (the post-normalization range is always >= 2^16, so a
multiple of 2^16 exists in it).  The decoder mirrors the encoder's
renormalization byte for byte, so on a valid stream it runs exactly two
bytes past the physical stream end (the flush it never sees in full): any
further read means the stream was truncated, and ending short of them means
trailing bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, DecodeError

_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK = (1 << 32) - 1
MAX_TOTAL = 1 << 16
_VIRTUAL_ALLOWANCE = 2
# raw bytes are coded as uniform symbols of width 256 out of 2^16
_RAW_BYTE_CDF = np.arange(0, (1 << 16) + 1, 1 << 8, dtype=np.int64)


class RangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = _MASK
        self._out = bytearray()

    def encode_symbol(self, cdf, s: int) -> None:
        """Narrow the interval to symbol s of a cumulative table: the slot
        [cdf[s], cdf[s + 1]) out of the total cdf[-1]."""
        if not 0 <= s < len(cdf) - 1:
            raise ContractViolation(f"symbol {s} outside a {len(cdf) - 1}-slot table")
        lo, hi, total = cdf.item(s), cdf.item(s + 1), cdf.item(-1)
        if not 0 <= lo < hi <= total <= MAX_TOTAL:
            raise ContractViolation(f"bad coder step [{lo}, {hi}) of total {total}")
        r = self._range // total
        self._low += lo * r
        self._range = (hi - lo) * r
        self._normalize()

    def encode_raw_u32(self, value: int) -> None:
        """Encode 32 raw bits as four uniform bytes (used for escapes)."""
        if not 0 <= value < (1 << 32):
            raise ContractViolation("raw value out of u32 range")
        for shift in (24, 16, 8, 0):
            self.encode_symbol(_RAW_BYTE_CDF, (value >> shift) & 0xFF)

    def _normalize(self):
        low, rng = self._low, self._range
        while True:
            if (low ^ (low + rng)) < _TOP:
                self._out.append(low >> 24)
            elif rng < _BOTTOM:
                # underflow: clamp range to the next 2^16 boundary; the top
                # byte is settled by construction (see module docstring)
                rng = (-low) & (_BOTTOM - 1)
                self._out.append(low >> 24)
            else:
                break
            low = (low << 8) & _MASK
            rng = (rng << 8)
        self._low, self._range = low, rng

    def finish(self) -> bytes:
        """Flush: emit the two top bytes of a value inside [low, low+range)."""
        v = -(-self._low // _BOTTOM) * _BOTTOM  # round low up to a 2^16 multiple
        if v > _MASK:
            v = (_MASK + 1) - _BOTTOM
        self._out.append((v >> 24) & 0xFF)
        self._out.append((v >> 16) & 0xFF)
        return bytes(self._out)


class RangeDecoder:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._virtual = 0
        self._low = 0
        self._range = _MASK
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self._pos < len(self._data):
            b = self._data[self._pos]
            self._pos += 1
            return b
        self._virtual += 1
        if self._virtual > _VIRTUAL_ALLOWANCE:
            raise DecodeError("range-coded stream is truncated")
        return 0

    def decode_symbol(self, cdf) -> int:
        """Decode and commit one symbol, the inverse of encode_symbol:
        returns the index s with cdf[s] <= target < cdf[s + 1] for a table
        with cdf[0] = 0 and total cdf[-1]."""
        total = cdf.item(-1)
        r = self._range // total
        t = self._code - self._low
        if t < 0:
            raise DecodeError("range-coded stream is corrupt")
        s = int(np.searchsorted(cdf, min(t // r, total - 1), side="right")) - 1
        lo = cdf.item(s)
        self._low += lo * r
        self._range = (cdf.item(s + 1) - lo) * r
        self._normalize()
        return s

    def decode_raw_u32(self) -> int:
        value = 0
        for _ in range(4):
            value = (value << 8) | self.decode_symbol(_RAW_BYTE_CDF)
        return value

    def finish(self) -> None:
        """Check that the stream ended exactly: a valid stream leaves the
        decoder two virtual bytes past its end, never short of them."""
        if self._virtual != _VIRTUAL_ALLOWANCE:
            raise DecodeError("trailing bytes after range-coded stream")

    def _normalize(self):
        low, rng = self._low, self._range
        while True:
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOTTOM:
                rng = (-low) & (_BOTTOM - 1)
            else:
                break
            self._code = ((self._code << 8) | self._next_byte()) & _MASK
            low = (low << 8) & _MASK
            rng = (rng << 8)
        self._low, self._range = low, rng


class AdaptiveByteModel:
    """256-symbol adaptive frequency model: increment 32, halving at 2^16.
    ``cdf`` is the cumulative table the coder reads, updated in place."""

    INCREMENT = 32
    LIMIT = 1 << 16

    def __init__(self):
        self.cdf = np.arange(257, dtype=np.int64)

    def update(self, symbol: int) -> None:
        cdf = self.cdf
        cdf[symbol + 1:] += self.INCREMENT
        if cdf.item(-1) >= self.LIMIT:
            freq = np.diff(cdf)
            freq -= freq >> 1  # halve, rounding up: stays >= 1
            np.cumsum(freq, out=cdf[1:])


def encode_bytes_adaptive(data: bytes) -> bytes:
    """Range-code a byte string under an adaptive order-0 model."""
    model = AdaptiveByteModel()
    enc = RangeEncoder()
    for b in data:
        enc.encode_symbol(model.cdf, b)
        model.update(b)
    return enc.finish()


class AdaptiveByteDecoder:
    """Incremental inverse of encode_bytes_adaptive: each read(n) returns the
    next n bytes, so a caller can learn how many to ask for as it decodes."""

    def __init__(self, data: bytes):
        self._model = AdaptiveByteModel()
        self._dec = RangeDecoder(data)

    def read(self, n: int) -> bytes:
        model, dec = self._model, self._dec
        out = bytearray(n)
        for i in range(n):
            b = dec.decode_symbol(model.cdf)
            model.update(b)
            out[i] = b
        return bytes(out)

    def finish(self) -> None:
        self._dec.finish()
