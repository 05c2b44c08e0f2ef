"""Golden digests of the bytes contract: the serialized DDPC frames, the
decoded coordinates and the decoder's reference latent of one seeded 7-bit
I+P sequence under ``make_weights(0)``, plus two coder streams that sequence
never reaches, each also decoded back to its input: escape-coded entropy
symbols and an adaptive byte stream long enough for its model to halve.  The
D1 and D2 PSNR of one seeded 7-bit cloud against a coarse-to-fine resample of
it are pinned to the bit.

A change that moves any digest changes what the codec emits; such a change
must be deliberate and named in CHANGES.md, with the literals below updated
in the same change.
"""

import hashlib

import numpy as np
import pytest

from voxcodec import codec, entropy, metrics, rangecoder, synthetic

GOLDEN = {
    "ddpc": "cfa60e0a013073854bd53c581527b28af309e3ba8d74720d38e7a893b1746f8c",
    "decoded": "5041809c572ca13730cd6f18133314f9502ef02941d0240509b6aa3aec758627",
    "reference_latent": "bebee1f0485281491bcde2f07e19c6015ea6898c1d249b990fbc522b0975ea9f",
}

CODER_GOLDEN = {
    "escapes": "70a5c4995d5b9d0bf9413b2b222c29479c41e4ecbcf7c81ec1cd67b9ceccb200",
    "adaptive": "c8dc3081e5f286de271037b79eaa2829f06bc96d30f16120346e8cdbfb4e6119",
}

# float.hex() of each metric at the default peak
METRIC_GOLDEN = {
    "d1_psnr": "0x1.c1430989ee322p+5",
    "d2_psnr": "0x1.e0792ec73584cp+5",
}


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


@pytest.fixture(scope="module")
def digests(store, models):
    frames = synthetic.make_rigid_sequence(1500, 2, 2, 7, seed=5)
    data = [codec.serialize(bs) for bs, _ in codec.encode_sequence(frames, models, store)]
    dec = list(codec.decode_sequence(map(codec.parse, data), models, store))
    decoded = [np.ascontiguousarray(d.decoded.points.coords, dtype=np.int64).tobytes()
               for d in dec]
    ref = dec[-1].reference_latent
    return {
        "ddpc": _sha(*data),
        "decoded": _sha(*decoded),
        "reference_latent": _sha(
            np.ascontiguousarray(ref.coords, dtype=np.int64).tobytes(),
            np.ascontiguousarray(ref.feats, dtype=np.float32).tobytes(),
        ),
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_bytes_contract(digests, key):
    assert digests[key] == GOLDEN[key], (
        f"the {key} SHA-256 of the golden 7-bit I+P sequence changed: the bytes "
        "contract changed, which must be deliberate and named in CHANGES.md")


def _escape_stream():
    # escape mass 0.3 and symbols far outside the 9-symbol range: most
    # symbols escape, including the u32 extremes 2^32 - 2 and 2^32 - 1
    rng = np.random.default_rng(11)
    model = entropy.build_table_from_pmf(
        [rng.uniform(0.1, 2.0, 9) for _ in range(3)], [-4, 0, 3], escape_mass=0.3)
    symbols = rng.integers(-12, 16, size=(700, 3))
    symbols[::37, 1] = 2**31 - 1
    symbols[::41, 2] = -(2**31)
    data = entropy.range_encode(symbols, model)
    return data, symbols, entropy.range_decode(data, model, len(symbols))


def _adaptive_stream():
    # 6,000 bytes: the model halves after about 2,040 of them
    rng = np.random.default_rng(12)
    payload = rng.geometric(0.08, size=6000).clip(0, 255).astype(np.uint8)
    data = rangecoder.encode_bytes_adaptive(bytes(payload))
    dec = rangecoder.AdaptiveByteDecoder(data)
    back = np.frombuffer(dec.read(payload.size), dtype=np.uint8)
    dec.finish()
    return data, payload, back


@pytest.mark.parametrize("key, stream", [("escapes", _escape_stream),
                                         ("adaptive", _adaptive_stream)])
def test_coder_stream_contract(key, stream):
    data, source, decoded = stream()
    assert _sha(data) == CODER_GOLDEN[key], (
        f"the {key} coder stream changed: the range coder's bytes changed, which "
        "must be deliberate and named in CHANGES.md")
    assert np.array_equal(decoded, source), f"the {key} coder stream does not decode back"


def _coarse_to_fine(coords, seed):
    # a decoder-like resample: from c >> 2, expand to the 8 children twice and
    # keep as many as the true cloud has at that scale, chosen by seeded scores
    rng = np.random.default_rng(seed)
    children = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    cur = np.unique(coords >> 2, axis=0)
    for keep in (np.unique(coords >> 1, axis=0).shape[0], coords.shape[0]):
        kids = np.unique((2 * cur[:, None, :] + children).reshape(-1, 3), axis=0)
        cur = kids[np.sort(np.argsort(-rng.random(len(kids)), kind="stable")[:keep])]
    return cur


@pytest.fixture(scope="module")
def metric_values():
    a = synthetic.make_blob(1000, 7, 3)
    b = _coarse_to_fine(a, 4)
    return {"d1_psnr": metrics.d1_psnr(a, b), "d2_psnr": metrics.d2_psnr(a, b)}


@pytest.mark.parametrize("key", sorted(METRIC_GOLDEN))
def test_metric_contract(metric_values, key):
    assert metric_values[key].hex() == METRIC_GOLDEN[key], (
        f"{key} of the golden 7-bit pair changed: the metric bytes changed, which "
        "must be deliberate and named in CHANGES.md")
