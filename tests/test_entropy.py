import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NumpyRangeDecoder, NumpyRangeEncoder, log_sum_bits
from voxcodec import entropy as ent
from voxcodec.errors import ContractViolation, DecodeError


def random_model(rng, channels=3, nsym=15, escape=1e-3):
    pmfs = [rng.uniform(0.1, 2.0, nsym) for _ in range(channels)]
    offsets = rng.integers(-10, 2, size=channels)
    return ent.build_table_from_pmf(pmfs, offsets, escape_mass=escape)


class TestQuantize:
    def test_round_half_away_from_zero(self):
        vals = np.array([2.4, -2.5, 2.5, 0.0, -0.49, 0.5])
        assert ent.quantize(vals).tolist() == [2, -3, 3, 0, 0, 1]

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_property(self, x):
        q = int(ent.quantize(np.array([x]))[0])
        assert abs(q - x) <= 0.5 + 1e-9


class TestEstimateBits:
    def test_half_probability_is_one_bit(self):
        model = ent.build_table_from_pmf([[0.5, 0.5]], [0])
        assert ent.estimate_bits(np.array([[0]]), model) == pytest.approx(1.0)

    def test_floor_probability_is_sixteen_bits(self):
        model = ent.build_table_from_pmf([[1.0, 0.0]], [0])
        # the delta pmf leaves the other in-range symbol at the 1/65536 floor
        assert ent.estimate_bits(np.array([[1]]), model) == pytest.approx(16.0)

    def test_matches_log_sum_oracle(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        syms = rng.integers(-14, 10, size=(300, 3))
        got = ent.estimate_bits(syms, model)
        expect = log_sum_bits(syms, model.cdfs, model.offsets)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        a = rng.integers(-5, 5, size=(40, 3))
        b = rng.integers(-5, 5, size=(25, 3))
        both = ent.estimate_bits(np.vstack([a, b]), model)
        assert both == pytest.approx(ent.estimate_bits(a, model) + ent.estimate_bits(b, model))

    def test_out_of_range_without_escape_is_infinite(self):
        model = ent.build_table_from_pmf([[1.0, 1.0]], [0], escape_mass=0.0)
        assert np.isinf(ent.estimate_bits(np.array([[99]]), model))


class TestTables:
    def test_uniform_four_symbols(self):
        model = ent.build_table_from_pmf([[0.25] * 4], [0])
        assert np.diff(model.cdfs[0][:5]).tolist() == [16384] * 4

    def test_delta_pmf_floors_others(self):
        model = ent.build_table_from_pmf([[0, 0, 1, 0]], [0])
        freqs = np.diff(model.cdfs[0])
        assert freqs[:4].tolist() == [1, 1, 65533, 1]
        assert freqs[4] == 0  # escape disabled by default

    def test_table_serialization_roundtrip(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, channels=5)
        back = ent.model_from_tensors(ent.model_to_tensors(model))
        assert np.array_equal(back.offsets, model.offsets)
        for a, b in zip(back.cdfs, model.cdfs):
            assert np.array_equal(a, b)

    def test_empty_pmf_rejected(self):
        with pytest.raises(ContractViolation):
            ent.build_table_from_pmf([[]], [0])

    @pytest.mark.parametrize("cdf, match", [
        ([1, 30000, 65536, 65536], "malformed"),          # does not start at 0
        ([0, 30000, 65535, 65535], "malformed"),          # wrong total
        ([0, 40000, 30000, 65536, 65536], "monotone"),    # decreases in range
        ([0, 30000, 65537, 65536], "monotone"),           # decreases at the escape
        ([0, 30000, 30000, 65536, 65536], "probability"),  # zero-width in-range slot
        ([0, 65536], "malformed"),                        # no room for a symbol
    ])
    def test_each_table_rule_rejected(self, cdf, match):
        good = [0, 30000, 65536, 65536]  # a zero-width escape slot is allowed
        ent.EntropyModel([0], [good])
        with pytest.raises(ContractViolation, match=match):
            ent.EntropyModel([0, 0], [good, cdf])


class TestRangeCoding:
    def test_empty_symbol_list(self):
        model = random_model(np.random.default_rng(7))
        data = ent.range_encode(np.empty((0, 3), np.int64), model)
        assert data == b"\x00\x00"
        out = ent.range_decode(data, model, 0)
        assert out.shape == (0, 3)

    def test_zero_symbols_under_peaked_model(self):
        model = ent.build_table_from_pmf(
            [np.exp(-np.abs(np.arange(-1, 2)) / 0.05)], [-1], escape_mass=1e-4)
        z = np.zeros((4096, 1), np.int64)
        data = ent.range_encode(z, model)
        assert np.array_equal(ent.range_decode(data, model, 4096), z)
        assert len(data) <= ent.estimate_bits(z, model) / 8 + 2

    def test_escape_roundtrip(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, channels=2, nsym=7)
        syms = rng.integers(-1000, 1000, size=(64, 2))
        data = ent.range_encode(syms, model)
        assert np.array_equal(ent.range_decode(data, model, 64), syms)

    @pytest.mark.parametrize("shape", [(4, 1, 1), (4, 3, 1), (2, 2, 3), (), (4, 2)])
    def test_symbols_not_a_channel_matrix_rejected(self, shape):
        # one column, or a (rows, channels) matrix of the model's width: a 3-D
        # array is neither, and is neither billed nor coded
        model = random_model(np.random.default_rng(7))
        symbols = np.zeros(shape, np.int64)
        for f in (ent.estimate_bits, ent.range_encode):
            with pytest.raises(ContractViolation, match="3-channel"):
                f(symbols, model)

    @pytest.mark.parametrize("symbols", [
        np.full((2, 3), 0.7), np.full((2, 3), np.nan), np.full((2, 3), np.inf),
        np.full((2, 3), -np.inf), np.full((2, 3), 2.0**63), np.ones((2, 3), bool),
        [[0, 0, 0], [0, 0]], np.full((2, 3), "0"), np.full((2, 3), 2**64 - 1, np.uint64),
    ], ids=["fraction", "nan", "inf", "-inf", "past-int64", "bool", "ragged", "str",
            "uint64-wraps"])
    def test_symbols_not_integers_rejected(self, symbols):
        # the coordinates' integer rule (sparse.integral): no symbol is
        # truncated, cast or read as an escape
        model = random_model(np.random.default_rng(7))
        for f in (ent.estimate_bits, ent.range_encode):
            with pytest.raises(ContractViolation, match="symbols"):
                f(symbols, model)

    def test_integral_symbols_of_any_dtype(self):
        model = random_model(np.random.default_rng(7))
        syms = np.random.default_rng(3).integers(-12, 5, (20, 3))
        for same in (syms.astype(np.float64), syms.astype(np.int16), syms.tolist()):
            assert ent.range_encode(same, model) == ent.range_encode(syms, model)
            assert ent.estimate_bits(same, model) == ent.estimate_bits(syms, model)

    def test_escape_without_slot_rejected(self):
        model = ent.build_table_from_pmf([[1.0, 1.0]], [0], escape_mass=0.0)
        with pytest.raises(ContractViolation):
            ent.range_encode(np.array([[7]]), model)

    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1])
    def test_escape_beyond_32_bits_rejected(self, value):
        # zig-zag maps these to 2^32 and 2^32 + 1, past the raw escape's u32
        model = ent.build_table_from_pmf([[1.0, 1.0]], [0], escape_mass=1e-3)
        with pytest.raises(ContractViolation, match="32-bit"):
            ent.range_encode(np.array([[value]]), model)

    def test_large_stream_size_bound(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, channels=4, nsym=21)
        syms = rng.integers(-12, 10, size=(25000, 4))
        data = ent.range_encode(syms, model)
        assert np.array_equal(ent.range_decode(data, model, 25000), syms)
        est = ent.estimate_bits(syms, model)
        assert abs(len(data) * 8 - est) <= 0.01 * est + 16 * 8

    @given(st.integers(0, 2**31), st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, channels=2, nsym=int(rng.integers(3, 12)))
        syms = rng.integers(-30, 30, size=(n, 2))
        data = ent.range_encode(syms, model)
        assert np.array_equal(ent.range_decode(data, model, n), syms)

    def test_trailing_bytes_rejected(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, channels=2, nsym=7)
        syms = rng.integers(-3, 3, size=(50, 2))
        data = ent.range_encode(syms, model)
        with pytest.raises(DecodeError, match="trailing"):
            ent.range_decode(data + b"\x00", model, 50)


# -- column runs against the numpy coder ------------------------------------

NEAR_LIMITS = [2**31 - 1, 2**31 - 2, -(2**31), -(2**31) + 1]


def oracle_range_encode(symbols, model):
    """range_encode's layout, one numpy-coder symbol step at a time."""
    enc = NumpyRangeEncoder()
    for c, cdf in enumerate(model.cdfs):
        nsym = cdf.size - 2
        for v in symbols[:, c].tolist():
            slot = v - int(model.offsets[c])
            if 0 <= slot < nsym:
                enc.encode_symbol(cdf, slot)
            else:
                enc.encode_symbol(cdf, nsym)
                enc.encode_raw_u32(2 * v if v >= 0 else -2 * v - 1)
    return enc.finish()


def oracle_range_decode(data, model, count):
    dec = NumpyRangeDecoder(data)
    out = np.empty((count, model.channels), dtype=np.int64)
    for c, cdf in enumerate(model.cdfs):
        nsym = cdf.size - 2
        for i in range(count):
            s = dec.decode_symbol(cdf)
            if s < nsym:
                out[i, c] = s + int(model.offsets[c])
            else:
                z = dec.decode_raw_u32()
                out[i, c] = z // 2 if z % 2 == 0 else -(z + 1) // 2
    return out


def assert_matches_oracle(symbols, model):
    symbols = np.asarray(symbols, dtype=np.int64).reshape(-1, model.channels)
    data = ent.range_encode(symbols, model)
    assert data == oracle_range_encode(symbols, model)
    assert np.array_equal(ent.range_decode(data, model, len(symbols)), symbols)
    assert np.array_equal(oracle_range_decode(data, model, len(symbols)), symbols)
    return data


def mixed_model(sizes=(1, 7, 33), offsets=(0, -3, -16), escape=1e-2, seed=0):
    rng = np.random.default_rng(seed)
    return ent.build_table_from_pmf([rng.uniform(0.05, 2.0, n) for n in sizes], offsets,
                                    escape_mass=escape)


@st.composite
def column_cases(draw):
    """A model whose channels have different table sizes, and symbols that hit
    its slots and escape, with zig-zag values near +-2^31 among the escapes."""
    channels = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 40), min_size=channels, max_size=channels))
    offsets = draw(st.lists(st.integers(-50, 50), min_size=channels, max_size=channels))
    model = mixed_model(sizes, offsets, draw(st.sampled_from([1e-4, 1e-2, 0.3])),
                        draw(st.integers(0, 2**32 - 1)))
    cell = st.one_of(st.integers(-60, 100), st.sampled_from(NEAR_LIMITS),
                     st.integers(-(2**31), 2**31 - 1))
    row = st.lists(cell, min_size=channels, max_size=channels)
    rows = draw(st.lists(row, max_size=30))
    return model, np.array(rows, dtype=np.int64).reshape(len(rows), channels)


class TestColumnRuns:
    @given(column_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_numpy_coder(self, case):
        model, symbols = case
        assert_matches_oracle(symbols, model)

    @pytest.mark.parametrize("rows", [0, 1])
    @pytest.mark.parametrize("escape", [False, True])
    def test_short_columns(self, rows, escape):
        model = mixed_model()
        value = NEAR_LIMITS if escape else [0, 2, 5]
        assert_matches_oracle([value[:3]] * rows, model)

    @pytest.mark.parametrize("where", ["first", "last", "every"])
    def test_escape_positions(self, where):
        model = mixed_model()
        symbols = np.tile([0, 1, -10], (9, 1))
        rows = {"first": [0], "last": [8], "every": list(range(9))}[where]
        for i in rows:
            symbols[i] = NEAR_LIMITS[i % 4], 40 + i, -(2**31) + i
        assert_matches_oracle(symbols, model)

    def test_every_truncation_raises_decode_error(self):
        model = mixed_model()
        symbols = np.tile([0, 1, -10], (20, 1))
        symbols[::7, 1] = 2**31 - 1
        data = assert_matches_oracle(symbols, model)
        for k in range(len(data)):
            with pytest.raises(DecodeError, match="truncated|corrupt"):
                ent.range_decode(data[:k], model, 20)

    def test_corrupt_and_trailing_streams_raise_decode_error(self):
        model = mixed_model(sizes=(3,), offsets=(0,), escape=1e-3)
        symbols = np.array([[2], [0], [2], [1]] * 8)
        data = assert_matches_oracle(symbols, model)
        assert data == bytes.fromhex("f9edcb3d3664ed09f6598c86")
        # zeroing the third byte puts the code below the interval's low end,
        # where the target would be negative
        corrupt = data[:2] + b"\x00" + data[3:]
        with pytest.raises(DecodeError, match="corrupt"):
            ent.range_decode(corrupt, model, 32)
        with pytest.raises(DecodeError, match="trailing"):
            ent.range_decode(data + b"\x00", model, 32)
