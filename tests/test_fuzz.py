"""Seeded single-byte mutations of every decoder input: each mutant either
decodes or raises a VoxCodecError, never another exception."""

import numpy as np
import pytest

from voxcodec import codec, octree, ply, synthetic
from voxcodec import entropy as ent
from voxcodec.errors import VoxCodecError
from voxcodec.weights import WeightStore, entropy_models, validate_store


def mutants(data, seed, count, span=None):
    """``count`` copies of ``data``, each with one byte (among the first
    ``span``) set to 0x00, 0xFF or a random value."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pos = int(rng.integers(0, span or len(data)))
        value = (0x00, 0xFF, int(rng.integers(0, 256)))[int(rng.integers(0, 3))]
        out = bytearray(data)
        out[pos] = value
        yield pos, value, bytes(out)


def decodes_or_rejects(decode, data, seed, count, span=None):
    outcomes = {"decoded": 0, "rejected": 0}
    for pos, value, mutant in mutants(data, seed, count, span):
        try:
            decode(mutant)
            outcomes["decoded"] += 1
        except VoxCodecError:
            outcomes["rejected"] += 1
        except Exception as exc:  # noqa: BLE001 - the failure this test looks for
            pytest.fail(f"byte {pos} set to {value:#04x}: {exc!r}")
    return outcomes


def test_octree_substream():
    coords = np.unique(np.random.default_rng(0).integers(0, 64, size=(400, 3)), axis=0)
    data = octree.serialize_stream(octree.octree_encode(coords, 6))
    out = decodes_or_rejects(lambda d: octree.octree_decode(octree.parse_stream(d)),
                             data, seed=1, count=150)
    assert out["rejected"] > 0


def test_entropy_substream(models):
    model = models["residual"]
    symbols = np.random.default_rng(2).integers(-20, 20, size=(60, model.channels))
    data = ent.range_encode(symbols, model)
    out = decodes_or_rejects(lambda d: ent.range_decode(d, model, 60),
                             data, seed=3, count=200)
    assert out["rejected"] > 0


def test_dpcw_file(tmp_path, store):
    path = tmp_path / "w.dpcw"
    store.save(path)
    data = path.read_bytes()

    def load(mutant):
        path.write_bytes(mutant)
        loaded = WeightStore.load(path)
        validate_store(loaded)
        entropy_models(loaded)

    # the header and the entropy tables (first by name) hold the structure;
    # the rest of the file is mostly conv weights
    decodes_or_rejects(load, data, seed=4, count=30, span=20000)
    decodes_or_rejects(load, data, seed=5, count=20)


def test_ddpc_i_and_p_frames(store, models):
    frames = synthetic.make_rigid_sequence(100, 2, 1, 5, seed=1)
    (bs0, _), (bs1, _) = codec.encode_sequence(frames, models, store)
    ref = next(codec.decode_sequence([bs0], models, store)).reference_latent
    out_i = decodes_or_rejects(
        lambda d: codec.decode(codec.parse(d), None, models, store),
        codec.serialize(bs0), seed=6, count=60)
    out_p = decodes_or_rejects(
        lambda d: codec.decode(codec.parse(d), ref, models, store),
        codec.serialize(bs1), seed=7, count=60)
    assert out_i["rejected"] > 0 and out_p["rejected"] > 0


@pytest.mark.parametrize("fmt", ["binary", "ascii"])
def test_ply_file(tmp_path, fmt):
    coords = np.unique(np.random.default_rng(8).integers(0, 128, size=(60, 3)), axis=0)
    path = tmp_path / "cloud.ply"
    ply.write_ply(path, coords)
    if fmt == "ascii":
        header = b"ply\nformat ascii 1.0\nelement vertex %d\n" % len(coords)
        header += b"property float x\nproperty float y\nproperty int z\nend_header\n"
        path.write_bytes(header + b"".join(b"%d %d %d\n" % tuple(c) for c in coords))
    data = path.read_bytes()

    def load(mutant):
        path.write_bytes(mutant)
        ply.load_ply(path, 7)

    header_end = data.index(b"end_header\n")
    out = decodes_or_rejects(load, data, seed=9, count=200, span=header_end)
    decodes_or_rejects(load, data, seed=10, count=200)
    assert out["rejected"] > 0
