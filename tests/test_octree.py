import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxcodec import octree as oc
from voxcodec.errors import ContractViolation, DecodeError


def sorted_coords(coords):
    return np.array(sorted(map(tuple, coords)), dtype=np.int32)


def test_single_point_depth9_fixture():
    stream = oc.octree_encode(np.array([[0, 0, 0]]), 9, range_coded=False)
    assert stream.payload == bytes([0x80] * 9)
    assert np.array_equal(oc.octree_decode(stream), [[0, 0, 0]])


def test_full_unit_cube():
    coords = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    stream = oc.octree_encode(np.array(coords), 1, range_coded=False)
    assert stream.payload == b"\xff"
    assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


def test_child_bit_order():
    # child index 4x+2y+z maps to bit 0x80 >> index
    stream = oc.octree_encode(np.array([[1, 0, 1]]), 1, range_coded=False)
    assert stream.payload == bytes([0x80 >> 5])


def test_roundtrip_4096_depth9():
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 512, size=(4096, 3)), axis=0)
    for coded in (False, True):
        stream = oc.octree_encode(coords, 9, range_coded=coded)
        assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


def test_size_bound():
    rng = np.random.default_rng(1)
    coords = np.unique(rng.integers(0, 128, size=(500, 3)), axis=0)
    stream = oc.octree_encode(coords, 7, range_coded=False)
    assert len(stream.payload) <= coords.shape[0] * 7


def test_substream_roundtrip():
    coords = np.array([[1, 2, 3], [4, 5, 6]])
    stream = oc.octree_encode(coords, 4)
    back = oc.parse_stream(oc.serialize_stream(stream))
    assert (back.depth, back.count, back.range_coded) == (stream.depth, stream.count, True)
    assert back.payload == stream.payload
    assert np.array_equal(oc.octree_decode(back), sorted_coords(coords))


def test_empty_set_rejected():
    with pytest.raises(ContractViolation):
        oc.octree_encode(np.empty((0, 3), np.int64), 4)


def test_out_of_cube_rejected():
    with pytest.raises(ContractViolation):
        oc.octree_encode(np.array([[16, 0, 0]]), 4)


def test_truncated_stream_errors():
    coords = np.unique(np.random.default_rng(2).integers(0, 16, size=(40, 3)), axis=0)
    stream = oc.octree_encode(coords, 4, range_coded=False)
    bad = oc.OctreeStream(stream.depth, stream.count, stream.payload[:3], False)
    with pytest.raises(DecodeError):
        oc.octree_decode(bad)


def test_wrong_count_errors():
    stream = oc.octree_encode(np.array([[0, 0, 0]]), 3, range_coded=False)
    bad = oc.OctreeStream(stream.depth, 5, stream.payload, False)
    with pytest.raises(DecodeError):
        oc.octree_decode(bad)


def test_short_substream_header_errors():
    with pytest.raises(DecodeError):
        oc.parse_stream(b"\x04\x00")


@given(st.integers(4, 10), st.integers(0, 2**31), st.booleans())
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(depth, seed, coded):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    coords = np.unique(rng.integers(0, 1 << depth, size=(n, 3)), axis=0)
    stream = oc.octree_encode(coords, depth, range_coded=coded)
    assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


def test_range_coded_trailing_bytes_rejected():
    coords = np.unique(np.random.default_rng(3).integers(0, 64, size=(100, 3)), axis=0)
    stream = oc.octree_encode(coords, 6)
    padded = oc.OctreeStream(6, stream.count, stream.payload + b"\x00" * 3, True)
    with pytest.raises(DecodeError, match="trailing"):
        oc.octree_decode(padded)


@pytest.mark.parametrize("depth", [0, 22, 255])
def test_depth_outside_encoder_range_rejected(depth):
    # depth 0, count 1 would otherwise decode to the single point (0, 0, 0)
    with pytest.raises(DecodeError, match="depth"):
        oc.parse_stream(bytes([depth, 0]) + (1).to_bytes(4, "little"))


def test_level_over_count_rejected_before_last_level():
    # a full first level holds 8 nodes, more than the 2 points declared;
    # the payload stops there, so only the per-level bound can reject it
    bad = oc.OctreeStream(9, 2, b"\xff", False)
    with pytest.raises(DecodeError, match="level holds 8 nodes"):
        oc.octree_decode(bad)


def test_code_below_interval_is_decode_error():
    # byte 8 of this stream set to zero drives the range decoder's code
    # below its interval
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 64, size=(400, 3)), axis=0)
    data = bytearray(oc.serialize_stream(oc.octree_encode(coords, 6)))
    data[8] = 0
    with pytest.raises(DecodeError):
        oc.octree_decode(oc.parse_stream(bytes(data)))
