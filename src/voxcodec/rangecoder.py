"""Bit-exact 32-bit renormalizing range coder.

Carry-less variant: a byte is emitted only once the top byte of the interval
is settled, and near-underflow the range is clamped to the next 2^16 boundary,
so emitted bytes are final.  All arithmetic is on plain Python ints, hence
decoding is deterministic and platform independent.

One symbol step each way: the encoder takes a cumulative table cdf (a
sequence of Python ints such as a list or tuple, cdf[0] = 0, total cdf[-1] at
most 2^16) and a symbol index into it, and the decoder takes the same table
and returns the index.  Underneath, each direction narrows the interval in
one place (``RangeEncoder._narrow``, ``RangeDecoder._narrow``), which also
serves raw bytes and the adaptive byte model, whose Fenwick tree holds no
flat table.  The flush writes exactly two bytes: the shortest prefix of a
value inside the final interval (the post-normalization range is always
>= 2^16, so a multiple of 2^16 exists in it).  The decoder mirrors the
encoder's renormalization byte for byte, so on a valid stream it runs
exactly two bytes past the physical stream end (the flush it never sees in
full): any further read means the stream was truncated, and ending short of
them means trailing bytes.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import ContractViolation, DecodeError

_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK = (1 << 32) - 1
MAX_TOTAL = 1 << 16
_VIRTUAL_ALLOWANCE = 2


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
        self._narrow(cdf[s], cdf[s + 1], cdf[-1])

    def encode_raw_u32(self, value: int) -> None:
        """Encode 32 raw bits as four uniform bytes (used for escapes): each
        byte b is the slot [256 b, 256 (b + 1)) of 2^16."""
        if not 0 <= value < (1 << 32):
            raise ContractViolation("raw value out of u32 range")
        for shift in (24, 16, 8, 0):
            b = (value >> shift) & 0xFF
            self._narrow(b << 8, (b + 1) << 8, MAX_TOTAL)

    def _narrow(self, lo: int, hi: int, total: int) -> None:
        """The one encoder step: narrow to [lo, hi) of total, then emit every
        settled byte.  Bytes settle only once the range is below 2^24."""
        if not 0 <= lo < hi <= total <= MAX_TOTAL:
            raise ContractViolation(f"bad coder step [{lo}, {hi}) of total {total}")
        r = self._range // total
        low = self._low + lo * r
        rng = (hi - lo) * r
        if rng < _TOP:
            out = self._out
            while True:
                if (low ^ (low + rng)) < _TOP:
                    out.append(low >> 24)
                elif rng < _BOTTOM:
                    # underflow: clamp range to the next 2^16 boundary; the
                    # top byte is settled by construction (see module docstring)
                    rng = (-low) & (_BOTTOM - 1)
                    out.append(low >> 24)
                else:
                    break
                low = (low << 8) & _MASK
                rng <<= 8
        self._low = low
        self._range = rng

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
        head = data[:4]
        self._data = data
        self._pos = len(head)
        self._virtual = 0
        self._low = 0
        self._range = _MASK
        self._r = 1
        self._code = int.from_bytes(head, "big") << 8 * (4 - len(head))
        for _ in range(4 - len(head)):
            self._past_end()

    def _past_end(self) -> None:
        """Count one zero byte read past the stream end: the flush allows two."""
        self._virtual += 1
        if self._virtual > _VIRTUAL_ALLOWANCE:
            raise DecodeError("range-coded stream is truncated")

    def decode_symbol(self, cdf) -> int:
        """Decode and commit one symbol, the inverse of encode_symbol:
        returns the index s with cdf[s] <= target < cdf[s + 1] for a table
        with cdf[0] = 0 and total cdf[-1]."""
        s = bisect_right(cdf, self._target(cdf[-1])) - 1
        self._narrow(cdf[s], cdf[s + 1])
        return s

    def decode_raw_u32(self) -> int:
        value = 0
        for _ in range(4):
            b = self._target(MAX_TOTAL) >> 8
            self._narrow(b << 8, (b + 1) << 8)
            value = (value << 8) | b
        return value

    def finish(self) -> None:
        """Check that the stream ended exactly: a valid stream leaves the
        decoder two virtual bytes past its end, never short of them."""
        if self._virtual != _VIRTUAL_ALLOWANCE:
            raise DecodeError("trailing bytes after range-coded stream")

    def _target(self, total: int) -> int:
        """The value in [0, total) the code points at; the _narrow call that
        commits the symbol holding it must follow, for the same total."""
        self._r = r = self._range // total
        t = self._code - self._low
        if t < 0:
            raise DecodeError("range-coded stream is corrupt")
        t //= r
        return t if t < total else total - 1

    def _narrow(self, lo: int, hi: int) -> None:
        """The one decoder step, mirroring RangeEncoder._narrow: narrow to
        [lo, hi) of the total given to _target, then read one byte for each
        byte the encoder emitted."""
        r = self._r
        low = self._low + lo * r
        rng = (hi - lo) * r
        if rng < _TOP:
            code, data, pos = self._code, self._data, self._pos
            while True:
                if (low ^ (low + rng)) < _TOP:
                    pass
                elif rng < _BOTTOM:
                    rng = (-low) & (_BOTTOM - 1)
                else:
                    break
                if pos < len(data):
                    code = ((code << 8) | data[pos]) & _MASK
                    pos += 1
                else:
                    code = (code << 8) & _MASK
                    self._past_end()
                low = (low << 8) & _MASK
                rng <<= 8
            self._code, self._pos = code, pos
        self._low = low
        self._range = rng


class AdaptiveByteModel:
    """256-symbol adaptive frequency model: increment 32, halving at 2^16.

    ``freq`` holds the per-symbol counts and ``total`` their sum; the
    cumulative counts live in a Fenwick tree (Fenwick, 1994) over ``freq``,
    so a slot lookup and an update each cost eight steps, not 256.
    """

    INCREMENT = 32
    LIMIT = 1 << 16
    SIZE = 256

    def __init__(self):
        self._rebuild([1] * self.SIZE)

    def _rebuild(self, freq) -> None:
        tree = [0] + freq
        n = self.SIZE
        for i in range(1, n + 1):
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self.freq, self._tree, self.total = freq, tree, tree[n]

    def slot(self, s: int):
        """The cumulative slot [lo, hi) of symbol s."""
        tree, i, lo = self._tree, s, 0
        while i:
            lo += tree[i]
            i &= i - 1
        return lo, lo + self.freq[s]

    def locate(self, t: int):
        """The symbol s whose slot [lo, hi) holds t in [0, total), as (s, lo, hi)."""
        tree, s, lo = self._tree, 0, 0
        step = self.SIZE >> 1
        while step:
            nxt = tree[s + step]
            if lo + nxt <= t:
                s += step
                lo += nxt
            step >>= 1
        return s, lo, lo + self.freq[s]

    def update(self, s: int) -> None:
        inc, tree, n = self.INCREMENT, self._tree, self.SIZE
        self.freq[s] += inc
        self.total += inc
        i = s + 1
        while i <= n:
            tree[i] += inc
            i += i & -i
        if self.total >= self.LIMIT:
            self._rebuild([f - (f >> 1) for f in self.freq])  # halve, rounding up: stays >= 1


def encode_bytes_adaptive(data: bytes) -> bytes:
    """Range-code a byte string under an adaptive order-0 model."""
    model = AdaptiveByteModel()
    enc = RangeEncoder()
    for b in data:
        lo, hi = model.slot(b)
        enc._narrow(lo, hi, model.total)
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
            b, lo, hi = model.locate(dec._target(model.total))
            dec._narrow(lo, hi)
            model.update(b)
            out[i] = b
        return bytes(out)

    def finish(self) -> None:
        self._dec.finish()
