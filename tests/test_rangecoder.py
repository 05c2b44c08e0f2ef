from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NumpyAdaptiveByteModel,
    NumpyRangeDecoder,
    NumpyRangeEncoder,
    numpy_decode_bytes_adaptive,
    numpy_encode_bytes_adaptive,
)
from voxcodec.entropy import RAW_CDF, TOTAL
from voxcodec.errors import DecodeError
from voxcodec.rangecoder import (
    AdaptiveByteDecoder,
    AdaptiveByteModel,
    RangeDecoder,
    RangeEncoder,
    encode_bytes_adaptive,
)


def cumulative(freqs) -> tuple:
    """The cumulative table of freqs, as the decoder's run reads it."""
    return tuple(np.concatenate([[0], np.cumsum(freqs)]).tolist())


def encode_table(enc, cdf, symbols):
    """Code symbols of a cumulative table as one run of steps."""
    enc.encode_steps([cdf[s] for s in symbols], [cdf[s + 1] for s in symbols],
                     repeat(cdf[-1]))


def encoded(cdf, symbols) -> bytes:
    enc = RangeEncoder()
    encode_table(enc, cdf, symbols)
    return enc.finish()


def roundtrip(freqs, symbols):
    cdf = cumulative(freqs)
    data = encoded(cdf, symbols)
    dec = RangeDecoder(data)
    out = dec.run(cdf, len(symbols))
    dec.finish()
    return data, out


def decode_adaptive(data, count):
    dec = AdaptiveByteDecoder(data)
    out = dec.read(count)
    dec.finish()
    return out


def test_empty_stream_is_two_zero_bytes():
    enc = RangeEncoder()
    assert enc.finish() == b"\x00\x00"
    RangeDecoder(b"\x00\x00")  # init reads succeed within the allowance


def test_simple_roundtrip():
    data, out = roundtrip([1, 1, 2], [0, 1, 2, 2, 0] * 20)
    assert out == [0, 1, 2, 2, 0] * 20


def test_skewed_roundtrip():
    data, out = roundtrip([1, 65535], [1] * 5000)
    assert out == [1] * 5000


def test_alternating_extremes():
    data, out = roundtrip([1, 65535], [0, 1] * 500)
    assert out == [0, 1] * 500


def encode_raw(enc, raw: bytes):
    """Code raw bytes as the entropy module does: symbols of RAW_CDF."""
    encode_table(enc, RAW_CDF, raw)


def decode_raw_u32(dec) -> int:
    return int.from_bytes(bytes(dec.run(RAW_CDF, 4)), "big")


def test_raw_u32():
    values = [0, 1, 0xDEADBEEF, 0xFFFFFFFF, 12345]
    enc = RangeEncoder()
    for v in values:
        encode_raw(enc, v.to_bytes(4, "big"))
    dec = RangeDecoder(enc.finish())
    assert [decode_raw_u32(dec) for _ in values] == values
    dec.finish()


def test_truncation_detected():
    freqs = [3, 5, 9, 1]
    symbols = list(np.random.default_rng(0).integers(0, 4, 400))
    data, out = roundtrip(freqs, symbols)
    assert out == symbols
    with pytest.raises(DecodeError):
        RangeDecoder(data[: len(data) // 2]).run(cumulative(freqs), len(symbols))


@given(st.lists(st.integers(0, 5), max_size=300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(symbols, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(1, 5000, size=6)
    data, out = roundtrip(freqs, symbols)
    assert out == symbols


def test_adaptive_bytes_roundtrip():
    rng = np.random.default_rng(3)
    payload = bytes(rng.integers(0, 256, size=4000, dtype=np.uint8))
    coded = encode_bytes_adaptive(payload)
    assert decode_adaptive(coded, len(payload)) == payload


def test_adaptive_bytes_compress_biased_input():
    payload = bytes([7] * 3000 + [9] * 100)
    coded = encode_bytes_adaptive(payload)
    assert len(coded) < len(payload) // 4
    assert decode_adaptive(coded, len(payload)) == payload


@pytest.mark.parametrize("chunk", [1, 7, 256, 1000])
def test_adaptive_bytes_chunked_reads_match_one_read(chunk):
    rng = np.random.default_rng(4)
    payload = bytes(rng.integers(0, 40, size=3000, dtype=np.uint8))
    coded = encode_bytes_adaptive(payload)
    dec = AdaptiveByteDecoder(coded)
    parts = [dec.read(min(chunk, len(payload) - i)) for i in range(0, len(payload), chunk)]
    dec.finish()
    assert b"".join(parts) == payload


@given(st.binary(max_size=200))
@settings(max_examples=60, deadline=None)
def test_adaptive_bytes_exact_end(payload):
    # a valid stream ends exactly at its last byte, so a zero byte appended
    # (which decodes the same symbols) is left unread and rejected
    coded = encode_bytes_adaptive(payload)
    assert decode_adaptive(coded, len(payload)) == payload
    with pytest.raises(DecodeError):
        decode_adaptive(coded + b"\x00", len(payload))


def test_code_below_interval_raises_decode_error():
    # zeroing the third byte of this stream puts the code below the
    # interval's low end, where the target would be negative
    cdf = (0, 1000, TOTAL)
    assert encoded(cdf, (1, 0, 1, 0, 1, 0, 0)) == bytes.fromhex("03f73688")
    with pytest.raises(DecodeError, match="corrupt"):
        RangeDecoder(bytes.fromhex("03f70088")).run(cdf, 7)


def test_adaptive_model_halving_keeps_positive_freqs():
    m = AdaptiveByteModel()
    for _ in range(5000):
        m.update(42)
    assert min(m.freq) >= 1
    assert m.total == sum(m.freq) < m.LIMIT


@st.composite
def table_and_ops(draw):
    """A cumulative table (total 1 .. 2^16, zero-width slots allowed) and a
    mix of its coded symbols and raw u32 escapes."""
    freqs = draw(st.lists(st.integers(0, 1600), min_size=1, max_size=40)
                 .filter(lambda f: sum(f) > 0))
    if draw(st.booleans()):
        freqs[-1] += TOTAL - sum(freqs)
    cdf = [0]
    for f in freqs:
        cdf.append(cdf[-1] + f)
    codable = [i for i, f in enumerate(freqs) if f]
    ops = draw(st.lists(st.one_of(
        st.sampled_from(codable).map(lambda s: ("symbol", s)),
        st.integers(0, 2**32 - 1).map(lambda v: ("raw", v))), max_size=400))
    return cdf, ops


@given(table_and_ops())
@settings(max_examples=80, deadline=None)
def test_table_coder_matches_numpy_oracle(case):
    cdf, ops = case
    enc, oracle = RangeEncoder(), NumpyRangeEncoder()
    for kind, v in ops:
        if kind == "symbol":
            encode_table(enc, cdf, (v,))
            oracle.encode_symbol(cdf, v)
        else:
            encode_raw(enc, v.to_bytes(4, "big"))
            oracle.encode_raw_u32(v)
    data = enc.finish()
    assert data == oracle.finish()
    dec = RangeDecoder(data)
    back = [(kind, dec.run(cdf, 1)[0] if kind == "symbol" else decode_raw_u32(dec))
            for kind, _ in ops]
    dec.finish()
    assert back == ops


@given(st.integers(2100, 4000), st.integers(1, 256), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_adaptive_coder_matches_numpy_oracle(n, alphabet, seed):
    # from 2,041 bytes on the model has halved at least once
    rng = np.random.default_rng(seed)
    payload = bytes(rng.integers(0, alphabet, size=n, dtype=np.uint8))
    coded = encode_bytes_adaptive(payload)
    assert coded == numpy_encode_bytes_adaptive(payload)
    assert decode_adaptive(coded, n) == payload
    assert numpy_decode_bytes_adaptive(coded, n) == payload


def test_adaptive_model_slots_match_numpy_table():
    rng = np.random.default_rng(9)
    model, oracle = AdaptiveByteModel(), NumpyAdaptiveByteModel()
    for step, b in enumerate(rng.geometric(0.05, size=6000).clip(0, 255).tolist()):
        model.update(b)
        oracle.update(b)
        if step % 500 == 0:
            cdf = oracle.cdf.tolist()
            assert model.total == cdf[-1]
            assert [model.slot(s) for s in range(256)] == list(zip(cdf[:-1], cdf[1:]))
            for t in rng.integers(0, model.total, size=64).tolist():
                s = int(np.searchsorted(oracle.cdf, t, side="right")) - 1
                assert model.locate(t) == (s, cdf[s], cdf[s + 1])


def test_decode_run_stops_after_stop_symbol():
    cdf = (0, 100, 200, TOTAL)
    dec = RangeDecoder(encoded(cdf, (2, 2, 1, 0, 1, 2)))
    assert dec.run(cdf, 6, 1) == [2, 2, 1]
    assert dec.run(cdf, 3, 1) == [0, 1]
    assert dec.run(cdf, 1, 1) == [2]
    dec.finish()


@st.composite
def adaptive_payloads(draw):
    """Payloads up to 6,000 bytes over a small or full alphabet: from 2,041
    bytes on, the model has halved at least once."""
    n = draw(st.one_of(st.integers(0, 300), st.integers(2000, 6000)))
    alphabet = draw(st.integers(1, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return bytes(rng.integers(0, alphabet, size=n, dtype=np.uint8))


@given(adaptive_payloads(), st.integers(1, 700))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_adaptive_runs_match_numpy_coder(payload, chunk):
    coded = encode_bytes_adaptive(payload)
    assert coded == numpy_encode_bytes_adaptive(payload)
    assert numpy_decode_bytes_adaptive(coded, len(payload)) == payload
    dec = AdaptiveByteDecoder(coded)
    parts = [dec.read(min(chunk, len(payload) - i)) for i in range(0, len(payload), chunk)]
    dec.finish()
    assert b"".join(parts) == payload


def test_adaptive_every_truncation_raises_decode_error():
    payload = bytes(np.random.default_rng(5).integers(0, 12, size=300, dtype=np.uint8))
    coded = encode_bytes_adaptive(payload)
    for k in range(len(coded)):
        with pytest.raises(DecodeError, match="truncated|corrupt"):
            decode_adaptive(coded[:k], len(payload))


def test_adaptive_corrupt_and_trailing_streams_raise_decode_error():
    payload = bytes([3, 1, 4, 1, 5, 9, 2, 6] * 4)
    coded = encode_bytes_adaptive(payload)
    assert coded == bytes.fromhex("030113ec5e3fb659a42fb3d659ea7359a8a9b9b3")
    # zeroing the second byte puts the code below the interval's low end
    with pytest.raises(DecodeError, match="corrupt"):
        decode_adaptive(coded[:1] + b"\x00" + coded[2:], len(payload))
    with pytest.raises(DecodeError, match="trailing"):
        decode_adaptive(coded + b"\x00", len(payload))


# Slot reuse.  Within a run the decoder keeps the previous symbol's slot and
# bisects only when the target leaves it.  A run of one symbol starts with no
# slot, so symbol-by-symbol runs bisect every target, as the decoder did
# before it reused slots.  The two must agree on every symbol, every
# DecodeError message and every stream position, valid stream or not.


def whole_runs(dec, cdf, n, stop):
    return dec.run(cdf, n, stop)


def symbol_by_symbol(dec, cdf, n, stop):
    out = []
    while len(out) < n and stop not in out[-1:]:
        out += dec.run(cdf, 1, stop)
    return out


def outcome(data, cdf, calls, step):
    """The symbols of each (n, stop) run of ``calls`` as ``step`` reads them,
    the decoder's state after them and the message of finish()'s DecodeError
    (None if it accepts the stream); or the message of the first DecodeError
    a run raised."""
    try:
        dec = RangeDecoder(data)
        out = [step(dec, cdf, n, stop) for n, stop in calls]
    except DecodeError as e:
        return str(e)
    state = dec._low, dec._range, dec._code, dec._pos
    try:
        dec.finish()
    except DecodeError as e:
        return out, state, str(e)
    return out, state, None


def agree(data, cdf, calls):
    """The outcome of whole runs, checked against symbol-by-symbol runs."""
    got = outcome(data, cdf, calls, whole_runs)
    assert got == outcome(data, cdf, calls, symbol_by_symbol)
    return got


# slots 1, 3, 4 and 6 are zero-width, each beside a slot a run may hold
RUN_CDF = cumulative([3000, 0, 20000, 0, 0, 40000, 0, 2536])
RUN_STREAMS = {
    "one long run": [5] * 3000,
    "runs beside zero-width slots": [2] * 400 + [0] * 3 + [2] * 250 + [5] * 300 + [7] * 40
    + [0] + [5] * 500 + [7],
    "single symbols between runs": [0, 2, 5, 7] * 20 + [5] * 200 + [7, 5, 2, 0] * 20,
}


def oracle_symbols(data, cdf, n):
    oracle = NumpyRangeDecoder(data)
    return [oracle.decode_symbol(cdf) for _ in range(n)]


@pytest.mark.parametrize("symbols", RUN_STREAMS.values(), ids=RUN_STREAMS.keys())
def test_runs_decode_as_the_oracle_does(symbols):
    data = encoded(RUN_CDF, symbols)
    out, _, end = agree(data, RUN_CDF, [(len(symbols), -1)])
    assert out == [symbols] and end is None
    assert oracle_symbols(data, RUN_CDF, len(symbols)) == symbols


def test_stop_symbol_right_after_a_run():
    symbols = [2] * 300 + [7] + [5] * 200 + [7] + [2] * 5
    calls = [(len(symbols), 7), (len(symbols), 7), (5, 7)]
    out, _, end = agree(encoded(RUN_CDF, symbols), RUN_CDF, calls)
    assert out == [[2] * 300 + [7], [5] * 200 + [7], [2] * 5] and end is None


@pytest.mark.parametrize("symbols", RUN_STREAMS.values(), ids=RUN_STREAMS.keys())
def test_truncated_or_corrupt_runs_fail_as_bisection_does(symbols):
    data = encoded(RUN_CDF, symbols)
    calls = [(len(symbols), -1)]
    # a cut stream may still decode to other symbols; most run out of bytes
    cut = [agree(data[:k], RUN_CDF, calls) for k in range(len(data))]
    assert cut.count("range-coded stream is truncated") > len(data) // 2
    for k in range(len(data)):
        agree(data[:k] + bytes([data[k] ^ 0x5A]) + data[k + 1:], RUN_CDF, calls)


def test_target_clamped_into_the_last_slot():
    # with code 2^32 - 1 against a fresh interval the first target is past
    # the total; it is clamped into the last slot, which later targets reuse
    # while the bytes last
    cdf = (0, 60000, TOTAL)
    assert (2**32 - 1) // ((2**32 - 1) // TOTAL) >= TOTAL
    data = b"\xff" * 16
    out, (_, _, _, pos), end = agree(data, cdf, [(8, -1)])
    oracle = NumpyRangeDecoder(data)
    assert out == [[oracle.decode_symbol(cdf) for _ in range(8)]] and pos == oracle._pos
    assert out[0][0] == 1 and end == "trailing bytes after range-coded stream"
    assert agree(data, cdf, [(40, -1)]) == "range-coded stream is truncated"


@st.composite
def run_streams(draw):
    """A cumulative table with zero-width slots allowed, and a stream of its
    symbols in runs of 1 to 300."""
    freqs = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=12)
                 .filter(lambda f: sum(f) > 0))
    codable = [i for i, f in enumerate(freqs) if f]
    runs = draw(st.lists(st.tuples(st.sampled_from(codable), st.integers(1, 300)),
                         min_size=1, max_size=10))
    return cumulative(freqs), [s for s, n in runs for _ in range(n)]


@given(run_streams(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_run_streams_match_bisection_and_oracle(case, seed):
    cdf, symbols = case
    data = encoded(cdf, symbols)
    calls = [(len(symbols), -1)]
    out, _, end = agree(data, cdf, calls)
    assert out == [symbols] and end is None
    assert oracle_symbols(data, cdf, len(symbols)) == symbols
    rng = np.random.default_rng(seed)
    agree(data[:rng.integers(len(data))], cdf, calls)
    k = rng.integers(len(data))
    agree(data[:k] + bytes([data[k] ^ int(rng.integers(1, 256))]) + data[k + 1:], cdf, calls)
