"""Lossless octree coding of voxel coordinate sets.

Breadth-first occupancy bytes: one byte per internal node, bit ``0x80 >> b``
set iff child ``b`` is non-empty, with child index b = 4*(x bit) + 2*(y bit)
+ (z bit).  The payload is that byte stream range-coded under an adaptive
byte model.  Both sides number child b of breadth-first node p as 8p + b: the
encoder ranks those numbers level by level, and the decoder reads them back
with ``unpackbits``, child b of voxel c being 2c + ``sparse.CORNERS[b]``, and
sorts only the leaves, lexicographically.

Substream layout: u8 depth, u8 flags, u32 point count, payload.  The flags
byte is always 0x01 (range-coded); a decoder rejects any other value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DecodeError, pack
from .rangecoder import AdaptiveByteDecoder, encode_bytes_adaptive
from .sparse import CORNERS, as_coords, lex_order

FLAG_RANGE_CODED = 0x01
MAX_DEPTH = 21


@dataclass
class OctreeStream:
    depth: int
    count: int
    payload: bytes


def _levels(coords: np.ndarray, depth: int) -> tuple[int, bytes]:
    """(distinct point count, breadth-first occupancy bytes) of a coordinate
    set; all coords must lie in [0, 2^depth)^3."""
    coords = as_coords(coords)
    if coords.shape[0] == 0:
        raise ContractViolation("cannot octree-encode an empty set")
    if not 1 <= depth <= MAX_DEPTH:
        raise ContractViolation(f"depth {depth} outside [1, {MAX_DEPTH}]")
    if coords.min() < 0 or coords.max() >= (1 << depth):
        raise ContractViolation(f"coordinates outside the depth-{depth} cube")
    # the decoder's walk run in reverse: each point carries the breadth-first
    # index of its node, and child b of node p is numbered 8p + b
    node = np.zeros(coords.shape[0], dtype=np.int64)
    n_nodes, occupancy = 1, bytearray()
    for shift in range(depth - 1, -1, -1):
        x, y, z = ((coords >> shift) & 1).T
        child, node = np.unique(8 * node + 4 * x + 2 * y + z, return_inverse=True)
        bits = np.zeros(8 * n_nodes, dtype=np.uint8)
        bits[child] = 1
        occupancy.extend(np.packbits(bits).tobytes())
        n_nodes = child.size
    return n_nodes, bytes(occupancy)


def occupancy_bytes(coords: np.ndarray, depth: int) -> bytes:
    """The breadth-first occupancy bytes that octree_encode range-codes."""
    return _levels(coords, depth)[1]


def octree_encode(coords: np.ndarray, depth: int) -> OctreeStream:
    """Encode a coordinate set losslessly; all coords must lie in [0, 2^depth)^3."""
    count, occupancy = _levels(coords, depth)
    return OctreeStream(depth, count, encode_bytes_adaptive(occupancy))


def octree_decode(stream: OctreeStream) -> np.ndarray:
    """Decode back to the exact original lexicographically sorted set."""
    depth, count = stream.depth, stream.count
    if count < 1:
        raise DecodeError("octree stream declares zero points")
    # the byte count of each level is known only once the previous level
    # is decoded, so the reader hands out bytes level by level.  Children
    # come out in (parent, b) order, which is breadth-first order again.
    reader = AdaptiveByteDecoder(stream.payload)
    nodes = np.zeros((1, 3), dtype=np.int64)
    for _ in range(depth):
        bits = np.frombuffer(reader.read(len(nodes)), dtype=np.uint8)
        if np.any(bits == 0):
            raise DecodeError("empty occupancy byte in octree stream")
        child = np.flatnonzero(np.unpackbits(bits))  # 8 * parent + b
        if child.size > count:
            raise DecodeError(f"octree level holds {child.size} nodes, header says {count} points")
        nodes = 2 * nodes[child >> 3] + CORNERS[child & 7]
    reader.finish()
    if len(nodes) != count:
        raise DecodeError(f"decoded {len(nodes)} points, header says {count}")
    return nodes[lex_order(nodes)].astype(np.int32)


def serialize_stream(stream: OctreeStream) -> bytes:
    header = pack("<BBI", stream.depth, FLAG_RANGE_CODED, stream.count, what="octree header")
    return header + stream.payload


def parse_stream(data: bytes) -> OctreeStream:
    if len(data) < 6:
        raise DecodeError("octree substream shorter than its header")
    depth, flags, count = struct.unpack_from("<BBI", data, 0)
    if not 1 <= depth <= MAX_DEPTH:
        raise DecodeError(f"octree depth {depth} outside [1, {MAX_DEPTH}]")
    if flags != FLAG_RANGE_CODED:
        raise DecodeError(f"octree flags {flags:#04x}: only {FLAG_RANGE_CODED:#04x} "
                          "(range-coded) is defined")
    return OctreeStream(depth, count, data[6:])
