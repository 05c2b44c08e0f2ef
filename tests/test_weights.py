import struct
import tracemalloc

import numpy as np
import pytest

from voxcodec import codec, nn, synthetic
from voxcodec.errors import ContractViolation, DecodeError
from voxcodec.nn import ConvSpec
from voxcodec.weights import (
    WeightStore,
    check_seed,
    conv_layout,
    entropy_models,
    make_weights,
    validate_store,
)


def test_file_roundtrip_bit_exact(tmp_path, store):
    path = tmp_path / "w.dpcw"
    store.save(path)
    back = WeightStore.load(path)
    assert back.seed == store.seed
    assert back.names() == store.names()
    for name in store.names():
        a, b = store[name], back[name]
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_rank0_tensor_keeps_its_rank(tmp_path):
    path = tmp_path / "w.dpcw"
    WeightStore({"scalar": np.float32(2.5)}).save(path)
    # saved as rank 0: no dims, one element
    assert path.read_bytes()[16:] == _dpcw([("scalar", (), struct.pack("<f", 2.5))])[16:]
    back = WeightStore.load(path)
    assert back["scalar"].shape == () and back["scalar"] == 2.5


def test_header_magic(tmp_path, store):
    path = tmp_path / "w.dpcw"
    store.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"DPCW"
    with pytest.raises(DecodeError):
        WeightStore.load(__file__)


def test_truncated_file_rejected(tmp_path, store):
    path = tmp_path / "w.dpcw"
    store.save(path)
    short = tmp_path / "short.dpcw"
    short.write_bytes(path.read_bytes()[:200])
    with pytest.raises(DecodeError):
        WeightStore.load(short)


def _dpcw(tensors):
    """DPCW bytes for (name, dims, payload) entries, written as given."""
    out = [b"DPCW", struct.pack("<III", 1, 0, len(tensors))]
    for name, dims, payload in tensors:
        nb = name.encode("utf-8")
        out += [struct.pack("<H", len(nb)), nb, struct.pack("<B", len(dims)),
                struct.pack(f"<{len(dims)}I", *dims), payload]
    return b"".join(out)


def _traced_peak(fn):
    """fn()'s result and the tracemalloc peak while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trailing_bytes_rejected(tmp_path, store):
    path = tmp_path / "w.dpcw"
    store.save(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DecodeError, match="trailing"):
        WeightStore.load(path)


def test_duplicate_name_rejected(tmp_path):
    path = tmp_path / "w.dpcw"
    one = struct.pack("<f", 1.0)
    path.write_bytes(_dpcw([("a", (1,), one), ("a", (1,), one)]))
    with pytest.raises(DecodeError, match="twice"):
        WeightStore.load(path)


@pytest.mark.parametrize("name", ["x" * 70_000, "a\ud800"], ids=["70000-chars", "lone-surrogate"])
def test_name_the_header_cannot_hold_rejected_before_writing(tmp_path, name):
    # a name past the u16 length field, or one with no UTF-8 form, raises
    # before the file is opened: no truncated file is left behind
    path = tmp_path / "w.dpcw"
    with pytest.raises(ContractViolation):
        WeightStore({"a": np.ones(2), name: np.ones(3)}).save(path)
    assert not path.exists()


def test_load_peaks_at_one_copy_of_its_payload(tmp_path):
    store = make_weights(5)
    path = tmp_path / "w.dpcw"
    store.save(path)
    payload = sum(store[n].nbytes for n in store.names())
    back, peak = _traced_peak(lambda: WeightStore.load(path))
    assert peak <= payload + 256 * 1024
    assert back.names() == store.names()


@pytest.mark.parametrize("dims", [(2**20, 2**13), (2**16,) * 4, (2**32 - 1,) * 8])
def test_huge_declared_tensor_rejected_without_allocating(tmp_path, dims):
    # (2**16,)*4 is 2**64 elements: an int64 product of the dims wraps to 0
    path = tmp_path / "bomb.dpcw"
    path.write_bytes(_dpcw([("big", dims, bytes(256))]))
    assert path.stat().st_size < 512
    _, peak = _traced_peak(lambda: pytest.raises(DecodeError, WeightStore.load, path))
    assert peak < 1 << 20


def test_loaded_tensors_are_aligned_read_only_views(tmp_path):
    store = make_weights(5)
    path = tmp_path / "w.dpcw"
    store.save(path)
    back = WeightStore.load(path)
    for name in store.names():
        a = back[name]
        assert a.dtype == np.float32 and a.flags.c_contiguous and a.flags.aligned
        assert not a.flags.writeable
        assert a.shape == store[name].shape and a.tobytes() == store[name].tobytes()
        with pytest.raises(ValueError):
            a.flags.writeable = True


def test_generator_reproducible():
    a = make_weights(123)
    b = make_weights(123)
    c = make_weights(124)
    for name in a.names():
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a.names())


@pytest.mark.parametrize("seed", [-1, 1 << 32])
def test_unfit_seed_rejected_before_any_file(seed):
    with pytest.raises(ContractViolation):
        make_weights(seed)
    with pytest.raises(ContractViolation):
        WeightStore({"a": np.zeros(2, np.float32)}, seed)


def test_seed_range_is_the_header_field(tmp_path):
    assert check_seed(0) == 0 and check_seed((1 << 32) - 1) == (1 << 32) - 1
    path = tmp_path / "w.dpcw"
    WeightStore({"a": np.zeros(2, np.float32)}, (1 << 32) - 1).save(path)
    assert WeightStore.load(path).seed == (1 << 32) - 1


def test_layout_covers_pipeline(store):
    validate_store(store)
    models = entropy_models(store)
    assert models["motion"].channels == 64
    assert models["residual"].channels == 8


def test_validate_catches_bad_shape(store):
    tensors = {n: store[n] for n in store.names()}
    tensors["fe.down1.conv.weight"] = np.zeros((2, 2, 2), np.float32)
    with pytest.raises(ContractViolation):
        validate_store(WeightStore(tensors))


def test_missing_tensor_rejected(store):
    tensors = {n: store[n] for n in store.names()}
    del tensors["rec.up2.cls.bias"]
    with pytest.raises(ContractViolation):
        validate_store(WeightStore(tensors))


def test_surrogate_profile_zeroes_motion_path():
    s = make_weights(0, profile="surrogate")
    assert np.all(s["flow.conv1.weight"] == 0)
    assert np.all(s["mfield.fine_head.weight"] == 0)
    assert np.any(s["fe.down1.conv.weight"] != 0)
    assert np.any(s["res.enc.head.weight"] != 0)


def test_unknown_profile_rejected():
    with pytest.raises(ContractViolation):
        make_weights(0, profile="exotic")


def test_expected_conv_specs_consistent():
    assert isinstance(conv_layout(), tuple) and conv_layout() is conv_layout()
    for name, spec in conv_layout():
        assert isinstance(spec, ConvSpec)
        if spec.transposed:
            assert spec.stride == 2 and spec.kernel_size == 2


@pytest.mark.parametrize("key", ["offset", "size", "cdf"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.5, 1e30])
def test_entropy_tables_must_hold_integers(store, key, value):
    tensors = {n: store[n] for n in store.names()}
    arr = tensors[f"entropy.motion.{key}"].copy()
    arr.flat[0] = value
    tensors[f"entropy.motion.{key}"] = arr
    with pytest.raises(DecodeError):
        entropy_models(WeightStore(tensors))


def test_every_layer_runs_with_its_layout_spec(store, models, monkeypatch):
    """The pipeline reads each conv's geometry from its weight; across an
    I+P encode and decode every layer runs, with exactly its layout spec."""
    layer_of = {id(store[name + ".weight"]): name for name, _ in conv_layout()}
    used = {}
    original = nn.sparse_conv

    def recording(x, spec, weight, bias=None, out_coords=None):
        used.setdefault(layer_of[id(weight)], set()).add(spec)
        return original(x, spec, weight, bias, out_coords)

    monkeypatch.setattr(nn, "sparse_conv", recording)
    frames = synthetic.make_rigid_sequence(300, 2, 1, 6, seed=3)
    bitstreams = [bs for bs, _ in codec.encode_sequence(frames, models, store)]
    list(codec.decode_sequence(bitstreams, models, store))
    assert used == {name: {spec} for name, spec in conv_layout()}
