"""Bit-exact 32-bit renormalizing range coder.

Carry-less variant: a byte is emitted only once the top byte of the interval
is settled, and near-underflow the range is clamped to the next 2^16 boundary,
so emitted bytes are final.  All arithmetic is on plain Python ints, hence
decoding is deterministic and platform independent.

The coder works in runs, each one loop that keeps the interval, the code and
the read position in locals and writes them back once.  The encoder codes a
run of steps, slot [lo, hi) of a total; a latent column and an octree
payload are one run each.  The decoder has one loop too: it finds each slot
by bisection on a cumulative table (cdf[0] = 0, total cdf[-1] at most 2^16)
or from the adaptive byte model, whose two-level count table holds no flat
table, and returns symbol indices.  Neither loop checks its slots; see
``RangeDecoder.run`` for who does.  The coder knows no escape format: raw
bytes are symbols of a uniform table the entropy module owns.  The flush
writes exactly two bytes: the shortest prefix of a value inside the final
interval (the post-normalization range is always >= 2^16, so a multiple of
2^16 exists in it).  The decoder mirrors the encoder's renormalization byte
for byte, so on a valid stream it runs exactly two bytes past the physical
stream end (the flush it never sees in full): any further read means the
stream was truncated, and ending short of them means trailing bytes.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import DecodeError

_TOP = 1 << 24
_BOTTOM = 1 << 16
_MASK = (1 << 32) - 1
_VIRTUAL_ALLOWANCE = 2


class RangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = _MASK
        self._out = bytearray()

    def encode_steps(self, los, his, totals) -> None:
        """Narrow to [lo, hi) of total for each step in turn, emitting every
        settled byte (bytes settle only once the range is below 2^24).  The
        steps are not checked: they must satisfy 0 <= lo < hi <= total <=
        2^16, as the slots RangeDecoder.run reads do."""
        low, rng, out = self._low, self._range, self._out
        for lo, hi, total in zip(los, his, totals):
            r = rng // total
            low += lo * r
            rng = (hi - lo) * r
            while rng < _TOP:
                if (low ^ (low + rng)) < _TOP:
                    out.append(low >> 24)
                elif rng < _BOTTOM:
                    # underflow: clamp range to the next 2^16 boundary; the
                    # top byte is settled by construction (see module docstring)
                    rng = -low & (_BOTTOM - 1)
                    out.append(low >> 24)
                else:
                    break
                low = (low << 8) & _MASK
                rng <<= 8
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
    """Reads a range-coded stream.  ``_pos`` runs past the stream end by one
    for each zero byte read there; the flush allows two."""

    def __init__(self, data: bytes):
        if len(data) < 4 - _VIRTUAL_ALLOWANCE:
            raise DecodeError("range-coded stream is truncated")
        self._data = data
        self._pos = 4
        self._low = 0
        self._range = _MASK
        self._code = int.from_bytes(data[:4], "big") << 8 * max(4 - len(data), 0)

    def finish(self) -> None:
        """Check that the stream ended exactly: a valid stream leaves the
        decoder two virtual bytes past its end, never short of them."""
        if self._pos - len(self._data) != _VIRTUAL_ALLOWANCE:
            raise DecodeError("trailing bytes after range-coded stream")

    def run(self, slots, n: int, stop: int = -1) -> list:
        """The decoder's one loop, mirroring RangeEncoder.encode_steps: find
        the slot holding the target, narrow to it, then read one byte for
        each byte the encoder emitted.  ``slots`` is a cumulative table, a
        tuple of ints searched by bisection, or an AdaptiveByteModel, which
        locates the slot and then learns the symbol.  Returns up to n symbol
        indices, ending early after a symbol equal to stop.

        The slots are not checked, as encode_steps' are not: a table must
        start at 0, never decrease and total 1 .. 2^16.  EntropyModel checks
        each of its tables once when it is built, RAW_CDF is a constant, and
        the adaptive model's slots hold by construction."""
        model = slots if isinstance(slots, AdaptiveByteModel) else None
        if model is None:
            total = slots[-1]
        else:
            locate, update, total = model.locate, model.update, model.total
        low, rng, code, pos = self._low, self._range, self._code, self._pos
        data, end = self._data, len(self._data)
        out = []
        for _ in range(n):
            r = rng // total
            t = code - low
            if t < 0:
                raise DecodeError("range-coded stream is corrupt")
            t //= r
            if t >= total:
                t = total - 1
            if model is None:
                s = bisect_right(slots, t) - 1
                lo, hi = slots[s], slots[s + 1]
            else:
                s, lo, hi = locate(t)
                update(s)
                total = model.total
            low += lo * r
            rng = (hi - lo) * r
            while rng < _TOP:
                if (low ^ (low + rng)) >= _TOP:
                    if rng >= _BOTTOM:
                        break
                    rng = -low & (_BOTTOM - 1)
                if pos < end:
                    code = ((code << 8) | data[pos]) & _MASK
                elif pos - end >= _VIRTUAL_ALLOWANCE:
                    raise DecodeError("range-coded stream is truncated")
                else:
                    code = (code << 8) & _MASK
                pos += 1
                low = (low << 8) & _MASK
                rng <<= 8
            out.append(s)
            if s == stop:
                break
        self._low, self._range, self._code, self._pos = low, rng, code, pos
        return out


class AdaptiveByteModel:
    """256-symbol adaptive frequency model: increment 32, halving at 2^16.

    ``freq`` holds the per-symbol counts, ``groups`` the sums of its sixteen
    runs of sixteen and ``total`` their sum.  A cumulative count is a sum of
    whole groups plus part of one group, so a slot lookup costs two C-level
    sums and a search at most sixteen steps over groups and sixteen within one.
    """

    INCREMENT = 32
    LIMIT = 1 << 16
    SIZE = 256

    def __init__(self):
        self.freq = [1] * self.SIZE
        self.groups = [16] * 16
        self.total = self.SIZE

    def slot(self, s: int):
        """The cumulative slot [lo, hi) of symbol s."""
        g = s >> 4
        lo = sum(self.groups[:g]) + sum(self.freq[g << 4:s])
        return lo, lo + self.freq[s]

    def locate(self, t: int):
        """The symbol s whose slot [lo, hi) holds t in [0, total), as (s, lo, hi):
        a scan over the group sums, then over one group's counts."""
        lo = s = 0
        for n in self.groups:
            if lo + n > t:
                break
            lo += n
            s += 16
        freq = self.freq
        while lo + freq[s] <= t:
            lo += freq[s]
            s += 1
        return s, lo, lo + freq[s]

    def update(self, s: int) -> None:
        inc = self.INCREMENT
        self.freq[s] += inc
        self.groups[s >> 4] += inc
        self.total += inc
        if self.total >= self.LIMIT:
            freq = self.freq = [f - (f >> 1) for f in self.freq]  # halve, rounding up: stays >= 1
            self.groups = [sum(freq[i:i + 16]) for i in range(0, self.SIZE, 16)]
            self.total = sum(self.groups)


def encode_bytes_adaptive(data: bytes) -> bytes:
    """Range-code a byte string under an adaptive order-0 model."""
    model = AdaptiveByteModel()
    slot, update = model.slot, model.update
    los, his, totals = [], [], []
    for b in data:
        lo, hi = slot(b)
        los.append(lo)
        his.append(hi)
        totals.append(model.total)
        update(b)
    enc = RangeEncoder()
    enc.encode_steps(los, his, totals)
    return enc.finish()


class AdaptiveByteDecoder(RangeDecoder):
    """Incremental inverse of encode_bytes_adaptive: each read(n) returns the
    next n bytes, so a caller can learn how many to ask for as it decodes."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self._model = AdaptiveByteModel()

    def read(self, n: int) -> bytes:
        return bytes(self.run(self._model, n))
