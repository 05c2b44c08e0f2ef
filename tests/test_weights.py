import numpy as np
import pytest

from voxcodec import codec, nn, synthetic
from voxcodec.errors import ContractViolation, DecodeError
from voxcodec.nn import ConvSpec
from voxcodec.weights import (
    WeightStore,
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


def test_generator_reproducible():
    a = make_weights(123)
    b = make_weights(123)
    c = make_weights(124)
    for name in a.names():
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a.names())


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
    f0, f1 = synthetic.make_rigid_sequence(300, 2, 1, 6, seed=3)
    bs0, enc0 = codec.encode_intra(f0, models, store)
    bs1, _ = codec.encode_inter(f1, enc0.reference_latent, models, store)
    dec0 = codec.decode(bs0, None, models, store)
    codec.decode(bs1, dec0.reference_latent, models, store)
    assert used == {name: {spec} for name, spec in conv_layout()}
