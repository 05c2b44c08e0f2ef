import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import occupancy_oracle
from voxcodec import octree as oc
from voxcodec.errors import ContractViolation, DecodeError
from voxcodec.rangecoder import encode_bytes_adaptive


def sorted_coords(coords):
    return np.array(sorted(map(tuple, coords)), dtype=np.int32)


def coded(occupancy, depth, count):
    """A stream whose payload is ``occupancy`` range-coded, as the encoder codes it."""
    return oc.OctreeStream(depth, count, encode_bytes_adaptive(occupancy))


def test_single_point_depth9_fixture():
    assert oc.occupancy_bytes(np.array([[0, 0, 0]]), 9) == bytes([0x80] * 9)
    stream = oc.octree_encode(np.array([[0, 0, 0]]), 9)
    assert np.array_equal(oc.octree_decode(stream), [[0, 0, 0]])


def test_full_unit_cube():
    coords = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert oc.occupancy_bytes(np.array(coords), 1) == b"\xff"
    stream = oc.octree_encode(np.array(coords), 1)
    assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


def test_child_bit_order():
    # child index 4x+2y+z maps to bit 0x80 >> index
    assert oc.occupancy_bytes(np.array([[1, 0, 1]]), 1) == bytes([0x80 >> 5])


def test_roundtrip_4096_depth9():
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 512, size=(4096, 3)), axis=0)
    stream = oc.octree_encode(coords, 9)
    assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


def test_depth21_extremes_roundtrip():
    # 2^21 - 1 lies past pack_keys' signed 21-bit range, so the decoder
    # orders the leaves by their rows, not by packed keys
    coords = np.array([[2**21 - 1, 0, 5], [0, 0, 0]])
    stream = oc.octree_encode(coords, 21)
    assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


def test_size_bound():
    rng = np.random.default_rng(1)
    coords = np.unique(rng.integers(0, 128, size=(500, 3)), axis=0)
    assert len(oc.occupancy_bytes(coords, 7)) <= coords.shape[0] * 7


@pytest.mark.parametrize("depth, count", [(3, 2**32), (3, -1), (256, 1)])
def test_header_field_out_of_range_rejected(depth, count):
    with pytest.raises(ContractViolation, match="octree header"):
        oc.serialize_stream(oc.OctreeStream(depth, count, b""))
    back = oc.parse_stream(oc.serialize_stream(oc.OctreeStream(3, 2**32 - 1, b"xy")))
    assert (back.depth, back.count, back.payload) == (3, 2**32 - 1, b"xy")


def test_substream_roundtrip():
    coords = np.array([[1, 2, 3], [4, 5, 6]])
    stream = oc.octree_encode(coords, 4)
    data = oc.serialize_stream(stream)
    assert data[1] == 0x01  # the flags byte: range-coded
    back = oc.parse_stream(data)
    assert (back.depth, back.count) == (stream.depth, stream.count)
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
    payload = encode_bytes_adaptive(oc.occupancy_bytes(coords, 4))
    bad = oc.OctreeStream(4, coords.shape[0], payload[:3])
    with pytest.raises(DecodeError, match="truncated"):
        oc.octree_decode(bad)


def test_wrong_count_errors():
    bad = coded(oc.occupancy_bytes(np.array([[0, 0, 0]]), 3), 3, 5)
    with pytest.raises(DecodeError, match="decoded 1 points, header says 5"):
        oc.octree_decode(bad)


def test_short_substream_header_errors():
    with pytest.raises(DecodeError):
        oc.parse_stream(b"\x04\x00")


@given(st.integers(4, 10), st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(depth, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    coords = np.unique(rng.integers(0, 1 << depth, size=(n, 3)), axis=0)
    stream = oc.octree_encode(coords, depth)
    assert np.array_equal(oc.octree_decode(stream), sorted_coords(coords))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_occupancy_matches_oracle(data):
    depth = data.draw(st.integers(1, oc.MAX_DEPTH), label="depth")
    top = (1 << depth) - 1
    component = st.sampled_from([0, top]) | st.integers(0, top)
    rows = data.draw(st.lists(st.tuples(component, component, component),
                              min_size=1, max_size=300), label="rows")
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=20), label="duplicates")
    count, occupancy = occupancy_oracle(rows, depth)
    assert oc.occupancy_bytes(np.array(rows), depth) == occupancy
    assert oc.octree_encode(np.array(rows), depth).count == count


def test_trailing_bytes_rejected():
    coords = np.unique(np.random.default_rng(3).integers(0, 64, size=(100, 3)), axis=0)
    padded = coded(oc.occupancy_bytes(coords, 6) + b"\x00" * 3, 6, coords.shape[0])
    with pytest.raises(DecodeError, match="trailing"):
        oc.octree_decode(padded)


@pytest.mark.parametrize("depth", [0, 22, 255])
def test_depth_outside_encoder_range_rejected(depth):
    # depth 0, count 1 would otherwise decode to the single point (0, 0, 0)
    with pytest.raises(DecodeError, match="depth"):
        oc.parse_stream(bytes([depth, 0x01]) + (1).to_bytes(4, "little"))


@pytest.mark.parametrize("flags", [0x00, 0x02, 0x03, 0xFF])
def test_flags_other_than_0x01_rejected(flags):
    data = bytearray(oc.serialize_stream(oc.octree_encode(np.array([[1, 2, 3]]), 4)))
    data[1] = flags
    with pytest.raises(DecodeError, match="flags"):
        oc.parse_stream(bytes(data))


def test_level_over_count_rejected_before_last_level():
    # a full first level holds 8 nodes, more than the 2 points declared;
    # the payload stops there, so only the per-level bound can reject it
    bad = coded(b"\xff", 9, 2)
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
