import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import log_sum_bits
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


class TestAddNoise:
    def test_reproducible(self):
        f = np.zeros((100, 4), np.float32)
        a = ent.add_noise(f, 7)
        b = ent.add_noise(f, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, ent.add_noise(f, 8))

    def test_bounds(self):
        noisy = ent.add_noise(np.zeros(100000), 1)
        assert noisy.min() >= -0.5 and noisy.max() < 0.5

    def test_mean_near_zero(self):
        n = 1_000_000
        noisy = ent.add_noise(np.zeros(n), 2)
        sigma = (1 / 12) ** 0.5 / n**0.5
        assert abs(noisy.mean()) < 3 * sigma


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
