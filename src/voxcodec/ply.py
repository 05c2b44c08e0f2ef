"""PLY ingestion and emission for voxelized point cloud frames.

Reads ASCII and binary_little_endian PLY files with x/y/z vertex properties
(float32/float64/int); all other vertex properties are skipped.  The writer
emits binary_little_endian with int32 coordinates.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ContractViolation, PlyParseError, VoxCodecError
from .sparse import PointCloudFrame, as_coords, as_positions

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_header(fh):
    """Returns (fmt, vertex_count, properties, header_end_offset, line_no)."""
    line = fh.readline()
    line_no = 1
    if line.strip() != b"ply":
        raise PlyParseError("missing 'ply' magic", line=1)
    fmt = None
    vertex_count = None
    properties = []
    in_vertex = False
    seen_element = False
    while True:
        line = fh.readline()
        line_no += 1
        if not line:
            raise PlyParseError("unexpected end of header", line=line_no)
        tokens = line.decode("ascii", errors="replace").split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise PlyParseError(f"unsupported format {tokens[1:]}", line=line_no)
            fmt = tokens[1]
        elif tokens[0] in ("element", "property") and len(tokens) < 3:
            raise PlyParseError(f"malformed {tokens[0]} line", line=line_no)
        elif tokens[0] == "element":
            if tokens[1] == "vertex":
                if seen_element:
                    raise PlyParseError("vertex element must come first", line=line_no)
                try:
                    vertex_count = int(tokens[2])
                except ValueError:
                    raise PlyParseError("bad vertex count", line=line_no) from None
                if vertex_count < 0:
                    raise PlyParseError("negative vertex count", line=line_no)
                in_vertex = True
            else:
                in_vertex = False
            seen_element = True
        elif tokens[0] == "property" and in_vertex:
            if tokens[1] == "list":
                raise PlyParseError("list properties in vertex element unsupported", line=line_no)
            if tokens[1] not in _PLY_TYPES:
                raise PlyParseError(f"unknown property type '{tokens[1]}'", line=line_no)
            if tokens[2] in [p[0] for p in properties]:
                raise PlyParseError(f"duplicate property '{tokens[2]}'", line=line_no)
            properties.append((tokens[2], _PLY_TYPES[tokens[1]]))
        elif tokens[0] == "end_header":
            break
    if fmt is None:
        raise PlyParseError("missing format line", line=line_no)
    if vertex_count is None:
        raise PlyParseError("missing vertex element", line=line_no)
    for axis in ("x", "y", "z"):
        if axis not in [p[0] for p in properties]:
            raise PlyParseError(f"vertex element lacks property '{axis}'", line=line_no)
    return fmt, vertex_count, properties, fh.tell(), line_no


def read_ply(path) -> np.ndarray:
    """Read vertex x/y/z from a PLY file as a float64 (N, 3) array."""
    with open(path, "rb") as fh:
        fmt, count, props, offset, line_no = _parse_header(fh)
        names = [p[0] for p in props]
        size = os.fstat(fh.fileno()).st_size - offset
        if fmt == "ascii":
            # a row takes at least one character and one separator per field
            if count * 2 * len(props) > size + 1:
                raise PlyParseError(f"vertex count {count} exceeds the file size", line=line_no)
            cols = [names.index(a) for a in ("x", "y", "z")]
            out = np.empty((count, 3), dtype=np.float64)
            for i in range(count):
                line = fh.readline()
                line_no += 1
                tokens = line.split()
                if len(tokens) < len(props):
                    raise PlyParseError(
                        f"vertex row has {len(tokens)} fields, expected {len(props)}",
                        line=line_no,
                    )
                try:
                    out[i] = [float(tokens[c]) for c in cols]
                except ValueError:
                    raise PlyParseError("non-numeric vertex field", line=line_no) from None
            return out
        dtype = np.dtype([(n, "<" + t) for n, t in props])
        if size < count * dtype.itemsize:
            raise PlyParseError(
                f"vertex payload truncated ({size} of {count * dtype.itemsize} bytes)",
                offset=offset + size,
            )
        raw = fh.read(count * dtype.itemsize)
        rec = np.frombuffer(raw, dtype=dtype, count=count)
        return np.stack(
            [rec["x"].astype(np.float64), rec["y"].astype(np.float64), rec["z"].astype(np.float64)],
            axis=1,
        )


def quantize_positions(xyz: np.ndarray, precision_bits: int) -> np.ndarray:
    """Quantize raw positions onto the [0, 2**precision_bits) integer lattice.

    Positions are floored after scaling: if the source spans more than the
    target precision (nominal source bits B = ceil(log2(max+1)) > P), each
    coordinate is divided by 2**(B - P) first; otherwise coordinates are
    floored in place.  Non-finite and negative coordinates are rejected.
    """
    xyz = as_positions(xyz)
    if xyz.size == 0:
        raise VoxCodecError("empty vertex list")
    if xyz.min() < 0:
        raise VoxCodecError("negative coordinates are unsupported")
    top = xyz.max()
    source_bits = int(np.ceil(np.log2(top + 1))) if top >= 1 else 0
    if source_bits > precision_bits:
        xyz = xyz / float(1 << (source_bits - precision_bits))
    return np.floor(xyz).astype(np.int64)


def load_ply(path, precision_bits: int) -> PointCloudFrame:
    """Load a PLY file as a voxelized occupancy frame.

    Duplicate voxels after quantization merge silently (binary occupancy).
    """
    coords = quantize_positions(read_ply(path), precision_bits)
    return PointCloudFrame.from_coords(coords, precision_bits)


def write_ply(path, coords: np.ndarray) -> None:
    """Write integer coordinates as binary_little_endian PLY with int32 x/y/z;
    a coordinate int32 cannot hold raises ContractViolation, and no file is made."""
    coords = as_coords(coords)
    if coords.size and (coords.min() < -2**31 or coords.max() >= 2**31):
        raise ContractViolation("coordinates outside the int32 range of a PLY")
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {coords.shape[0]}\n"
        "property int32 x\n"
        "property int32 y\n"
        "property int32 z\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(coords.astype("<i4").tobytes())


def write_frame(path, frame: PointCloudFrame) -> None:
    write_ply(path, frame.points.coords)
