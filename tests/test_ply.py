import numpy as np
import pytest

from oracles import reference_quantizer
from voxcodec.errors import ContractViolation, PlyParseError, VoxCodecError
from voxcodec.ply import load_ply, quantize_positions, read_ply, write_ply


def write_ascii(path, rows, props=("float x", "float y", "float z")):
    lines = ["ply", "format ascii 1.0", f"element vertex {len(rows)}"]
    lines += [f"property {p}" for p in props]
    lines.append("end_header")
    lines += [" ".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_duplicate_merge(tmp_path):
    p = tmp_path / "dup.ply"
    write_ascii(p, [(0.4, 0, 0), (0.6, 0, 0)])
    frame = load_ply(p, 4)
    assert frame.n == 1
    assert frame.points.coords.tolist() == [[0, 0, 0]]


def test_occupancy_features(tmp_path):
    p = tmp_path / "tri.ply"
    write_ascii(p, [(0, 0, 0), (1, 2, 3), (4, 5, 6)])
    frame = load_ply(p, 4)
    assert frame.n == 3
    assert np.all(frame.points.feats == 1.0)


def test_11bit_to_9bit_quantization(tmp_path):
    rng = np.random.default_rng(11)
    xyz = rng.integers(0, 2048, size=(500, 3)).astype(np.float64)
    xyz[0] = [2047, 2047, 2047]  # pin the nominal 11-bit extent
    p = tmp_path / "deep.ply"
    write_ascii(p, [tuple(r) for r in xyz])
    frame = load_ply(p, 9)
    expect = reference_quantizer(xyz, 11, 9)
    assert frame.n == len(expect)
    assert np.array_equal(frame.points.coords, expect.astype(np.int32))
    # the rule is divide-by-4 then floor
    assert np.array_equal(np.unique(frame.points.coords), np.unique(xyz.astype(np.int64) // 4))


def test_integer_cloud_within_precision_is_untouched(tmp_path):
    p = tmp_path / "int.ply"
    write_ascii(p, [(3, 7, 1), (100, 50, 25)])
    frame = load_ply(p, 7)
    assert frame.points.coords.tolist() == [[3, 7, 1], [100, 50, 25]]


def test_binary_roundtrip(tmp_path):
    coords = np.array([[0, 0, 0], [5, 9, 2], [31, 31, 31]], dtype=np.int64)
    p = tmp_path / "bin.ply"
    write_ply(p, coords)
    frame = load_ply(p, 5)
    assert np.array_equal(frame.points.coords, coords.astype(np.int32))


def test_int32_extremes_roundtrip(tmp_path):
    p = tmp_path / "edge.ply"
    coords = np.array([[-2**31, 0, 2**31 - 1], [2**31 - 1, -2**31, 0]])
    write_ply(p, coords)
    assert np.array_equal(read_ply(p), coords)


@pytest.mark.parametrize("value", [2**31, -2**31 - 1])
def test_coordinates_past_int32_rejected(tmp_path, value):
    # a PLY field is int32: the value used to wrap to another coordinate
    p = tmp_path / "wide.ply"
    with pytest.raises(ContractViolation, match="int32"):
        write_ply(p, [[value, 0, 0]])
    assert not p.exists()


def test_binary_skips_extra_properties(tmp_path):
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    ).encode()
    body = b""
    for xyz, rgb in [((1.0, 2.0, 3.0), (255, 0, 0)), ((4.0, 5.0, 6.0), (0, 255, 0))]:
        body += np.array(xyz, dtype="<f4").tobytes() + bytes(rgb)
    p = tmp_path / "rgb.ply"
    p.write_bytes(header + body)
    assert read_ply(p).tolist() == [[1, 2, 3], [4, 5, 6]]


def test_malformed_header_reports_line(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex nope\nend_header\n")
    with pytest.raises(PlyParseError) as err:
        read_ply(p)
    assert err.value.line == 3


def test_truncated_binary_reports_offset(tmp_path):
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    ).encode()
    p = tmp_path / "trunc.ply"
    p.write_bytes(header + b"\x00" * 10)
    with pytest.raises(PlyParseError) as err:
        read_ply(p)
    assert err.value.offset is not None


def test_bad_ascii_row(tmp_path):
    p = tmp_path / "row.ply"
    write_ascii(p, [(1, 2, 3)])
    p.write_text(p.read_text().replace("1 2 3", "1 2"))
    with pytest.raises(PlyParseError):
        read_ply(p)


def test_empty_vertex_list(tmp_path):
    p = tmp_path / "empty.ply"
    write_ascii(p, [])
    with pytest.raises(VoxCodecError):
        load_ply(p, 4)


def test_negative_coordinates_rejected():
    with pytest.raises(VoxCodecError):
        quantize_positions(np.array([[-1.0, 0, 0]]), 4)


XYZ = "property int x\nproperty int y\nproperty int z\n"


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
@pytest.mark.parametrize("header", [
    "element\n" + XYZ,
    "element vertex 1\nproperty\n" + XYZ,
    "element vertex 1\nproperty int32\n" + XYZ,
    "element vertex -1\n" + XYZ,
    "element vertex 99999999999\n" + XYZ,
    "element vertex 1\nproperty int x\n" + XYZ,
], ids=["bare-element", "bare-property", "unnamed-property", "negative-count",
        "count-beyond-file", "duplicate-property"])
def test_malformed_header_rejected(tmp_path, fmt, header):
    p = tmp_path / "bad.ply"
    p.write_bytes(f"ply\nformat {fmt} 1.0\n{header}end_header\n".encode() + b"1 2 3\n")
    with pytest.raises(PlyParseError):
        read_ply(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coordinates_rejected(tmp_path, value):
    p = tmp_path / "nan.ply"
    write_ascii(p, [(1, 2, 3), (value, 0, 0)])
    with pytest.raises(VoxCodecError):
        load_ply(p, 7)
