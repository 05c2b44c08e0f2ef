"""Weight container, the "DPCW" file format, and seeded weight generation.

File layout (little-endian): magic "DPCW", u32 version, u32 generator seed,
u32 tensor count, then per tensor: u16 name length, UTF-8 name, u8 rank,
u32 dims, f32 values.  Round-trips bit exactly.

The channel plan is recorded here as a registry of layer names and conv
specs; the weight file is therefore self-describing for tests.
"""

from __future__ import annotations

import functools
import math
import os
import struct

import numpy as np

from . import entropy
from .errors import ContractViolation, DecodeError, pack
from .nn import ConvSpec

MAGIC = b"DPCW"
VERSION = 1


def check_seed(seed: int) -> int:
    """``seed`` as an int, if it fits the header's u32 field."""
    if not 0 <= seed < 1 << 32:
        raise ContractViolation(f"seed must be in [0, 2^32), got {seed}")
    return int(seed)


# channels per stage: feature extraction 1->32->64, flow embedding 128->64->64,
# motion/fusion internals 64, residual latent 8, reconstruction 64->32->16
FE_C1 = 32
FE_C2 = 64
FLOW_C = 64
MOTION_LATENT_C = 64
RESIDUAL_LATENT_C = 8
REC_C1 = 32
REC_C0 = 16


def _irn_layers(prefix: str, channels: int):
    q, h = channels // 4, channels // 2
    return [
        (f"{prefix}.b0c1", ConvSpec(channels, q, 1)),
        (f"{prefix}.b0c2", ConvSpec(q, q, 3)),
        (f"{prefix}.b1c1", ConvSpec(channels, q, 3)),
        (f"{prefix}.b1c2", ConvSpec(q, q, 3)),
        (f"{prefix}.b2c1", ConvSpec(channels, h, 1)),
    ]


def _rn_layers(prefix: str, channels: int):
    return [
        (f"{prefix}.c1", ConvSpec(channels, channels, 3)),
        (f"{prefix}.c2", ConvSpec(channels, channels, 3)),
    ]


@functools.cache
def conv_layout() -> tuple[tuple[str, ConvSpec], ...]:
    """Every convolution layer in the pipeline, as (name, spec).  Built once;
    every call returns the same tuple."""
    layers: list[tuple[str, ConvSpec]] = []

    def block(prefix, cin, cout, transposed=False):
        # PCGCv2 scale block: a stride-2 conv, then three IRN blocks
        layers.append((f"{prefix}.conv", ConvSpec(cin, cout, 2, stride=2, transposed=transposed)))
        for i in (1, 2, 3):
            layers.extend(_irn_layers(f"{prefix}.irn{i}", cout))

    block("fe.down1", 1, FE_C1)
    block("fe.down2", FE_C1, FE_C2)

    layers.append(("flow.conv1", ConvSpec(2 * FE_C2, FLOW_C, 3)))
    layers.append(("flow.conv2", ConvSpec(FLOW_C, FLOW_C, 3)))

    layers.append(("fuse.down.conv", ConvSpec(FLOW_C, FLOW_C, 2, stride=2)))
    for i in (1, 2):
        layers.extend(_rn_layers(f"fuse.rn{i}", FLOW_C))
    layers.append(("fuse.up.conv", ConvSpec(FLOW_C, FLOW_C, 2, stride=2, transposed=True)))
    layers.append(("fuse.fine.conv", ConvSpec(FLOW_C, FLOW_C, 2, stride=2)))

    layers.append(("mot.enc.conv", ConvSpec(FLOW_C, MOTION_LATENT_C, 2, stride=2)))
    layers.append(("mot.dec.conv", ConvSpec(MOTION_LATENT_C, FLOW_C, 2, stride=2, transposed=True)))

    for i in (1, 2):
        layers.extend(_rn_layers(f"mfield.rn{i}", FLOW_C))
    layers.append(("mfield.coarse_head", ConvSpec(FLOW_C, 3, 1)))
    layers.append(("mfield.up.conv", ConvSpec(FLOW_C, FLOW_C, 2, stride=2, transposed=True)))
    layers.append(("mfield.fine_head", ConvSpec(FLOW_C, 3, 1)))
    layers.append(("mfield.coarse_up.conv", ConvSpec(3, 3, 2, stride=2, transposed=True)))

    block("res.enc.down", FE_C2, FE_C2)
    layers.append(("res.enc.head", ConvSpec(FE_C2, RESIDUAL_LATENT_C, 3)))
    block("res.dec.up", RESIDUAL_LATENT_C, FE_C2, transposed=True)

    block("rec.up1", FE_C2, REC_C1, transposed=True)
    layers.append(("rec.up1.cls", ConvSpec(REC_C1, 1, 1)))
    block("rec.up2", REC_C1, REC_C0, transposed=True)
    layers.append(("rec.up2.cls", ConvSpec(REC_C0, 1, 1)))
    return tuple(layers)


class WeightStore:
    """Read-only named-tensor container backing the whole pipeline."""

    def __init__(self, tensors: dict, seed: int = 0):
        self._tensors = {}
        for name, arr in tensors.items():
            # asarray, not ascontiguousarray, which gives a rank-0 tensor shape (1,)
            a = np.asarray(arr, dtype=np.float32, order="C")
            a.flags.writeable = False
            self._tensors[name] = a
        self.seed = check_seed(seed)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._tensors[name]
        except KeyError:
            raise ContractViolation(f"weight store has no tensor '{name}'") from None

    def __contains__(self, name):
        return name in self._tensors

    def names(self):
        return sorted(self._tensors)

    def expect(self, name: str, shape) -> np.ndarray:
        arr = self[name]
        if arr.shape != tuple(shape):
            raise ContractViolation(f"tensor '{name}' has shape {arr.shape}, expected {tuple(shape)}")
        return arr

    def save(self, path) -> None:
        """Write a DPCW file.  Every header is built before the file is
        opened, so a name or shape the format cannot hold raises
        ContractViolation and leaves no file behind."""
        head = MAGIC + pack("<III", VERSION, self.seed, len(self._tensors), what="DPCW header")
        headers = []
        for name in sorted(self._tensors):
            arr = self._tensors[name]
            try:
                nb = name.encode("utf-8")
            except UnicodeEncodeError:
                raise ContractViolation(f"tensor name {name!r} is not encodable as UTF-8") from None
            headers.append((pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape,
                                 what=f"DPCW header of tensor {name[:40]!r}"), arr))
        with open(path, "wb") as fh:
            fh.write(head)
            for header, arr in headers:
                fh.write(header)
                fh.write(arr.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "WeightStore":
        """Read a DPCW file into one read-only float32 block.

        A first pass reads every header and checks each payload against the
        bytes left in the file, so nothing is allocated from a header field
        alone; the second pass reads each payload into its slice of the block.
        Trailing bytes and duplicate names are rejected."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(16)
            if head[:4] != MAGIC:
                raise DecodeError("not a DPCW weight file")
            if len(head) < 16:
                raise DecodeError("DPCW file shorter than its 16-byte header")
            version, seed, count = struct.unpack_from("<III", head, 4)
            if version != VERSION:
                raise DecodeError(f"unsupported DPCW version {version}")
            entries = {}  # name -> (dims, payload position, element count)
            for _ in range(count):
                (nlen,) = struct.unpack("<H", _read(fh, 2))
                try:
                    name = _read(fh, nlen).decode("utf-8")
                except UnicodeDecodeError:
                    raise DecodeError("DPCW tensor name is not UTF-8") from None
                (rank,) = _read(fh, 1)
                dims = struct.unpack(f"<{rank}I", _read(fh, 4 * rank))
                n = math.prod(dims)
                pos = fh.tell()
                if 4 * n > size - pos:
                    raise DecodeError(f"truncated DPCW file: tensor '{name}' needs {4 * n} bytes")
                if name in entries:
                    raise DecodeError(f"DPCW file holds tensor '{name}' twice")
                entries[name] = (dims, pos, n)
                fh.seek(4 * n, os.SEEK_CUR)
            if fh.tell() != size:
                raise DecodeError(f"{size - fh.tell()} trailing bytes after the last DPCW tensor")
            block = np.empty(sum(n for _, _, n in entries.values()), dtype="<f4")
            tensors = {}
            start = 0
            for name, (dims, pos, n) in entries.items():
                view = block[start : start + n]
                fh.seek(pos)
                if fh.readinto(view) != 4 * n:
                    raise DecodeError(f"truncated DPCW file: tensor '{name}' ends early")
                tensors[name] = view.reshape(dims)
                start += n
        block.flags.writeable = False
        return cls(tensors, seed)


def _read(fh, n: int) -> bytes:
    """Exactly n bytes from fh, or DecodeError."""
    data = fh.read(n)
    if len(data) != n:
        raise DecodeError("truncated DPCW file")
    return data


def _peaked_pmf(nsym: int, width: float) -> np.ndarray:
    """Two-sided geometric pmf over nsym symbols centered on zero."""
    half = nsym // 2
    s = np.arange(-half, nsym - half, dtype=np.float64)
    return np.exp(-np.abs(s) / width)


def _entropy_tables(nsym, widths, escape_mass) -> entropy.EntropyModel:
    """One channel per width, each a peaked PMF over nsym centred symbols."""
    pmfs = [_peaked_pmf(nsym, w) for w in widths]
    offsets = np.full(len(widths), -(nsym // 2), dtype=np.int64)
    return entropy.build_table_from_pmf(pmfs, offsets, escape_mass=escape_mass)


def make_weights(seed: int, profile: str = "random") -> WeightStore:
    """Generate a reproducible weight store.

    Profiles:
      random    - seeded He-style random weights, broad entropy tables.
      surrogate - same, but the whole motion path is zeroed (zero motion
                  flow, zero motion latent) and the entropy tables are
                  sharply peaked at zero.
    """
    if profile not in ("random", "surrogate"):
        raise ContractViolation(f"unknown weight profile '{profile}'")
    rng = np.random.Generator(np.random.PCG64(check_seed(seed)))
    tensors = {}
    motion_prefixes = ("flow.", "fuse.", "mot.", "mfield.")
    for name, spec in conv_layout():
        k = len(spec.offsets())
        std = 1.0 / np.sqrt(k * spec.in_channels)
        w = rng.normal(0.0, std, size=spec.weight_shape)
        b = rng.normal(0.0, 0.01, size=spec.out_channels)
        if profile == "surrogate" and name.startswith(motion_prefixes):
            w = np.zeros_like(w)
            b = np.zeros_like(b)
        tensors[name + ".weight"] = w.astype(np.float32)
        tensors[name + ".bias"] = b.astype(np.float32)

    if profile == "surrogate":
        motion_model = _entropy_tables(7, np.full(MOTION_LATENT_C, 0.05), 1e-4)
        residual_model = _entropy_tables(63, np.full(RESIDUAL_LATENT_C, 1.0), 1e-4)
    else:
        motion_model = _entropy_tables(31, rng.uniform(1.0, 4.0, MOTION_LATENT_C), 1e-3)
        residual_model = _entropy_tables(31, rng.uniform(1.0, 4.0, RESIDUAL_LATENT_C), 1e-3)
    for stream, model in (("motion", motion_model), ("residual", residual_model)):
        for key, arr in entropy.model_to_tensors(model).items():
            tensors[f"entropy.{stream}.{key}"] = arr
    return WeightStore(tensors, seed)


def validate_store(store: WeightStore) -> None:
    """Check that every layer the pipeline references resolves to a tensor of
    the exact expected dimensions."""
    for name, spec in conv_layout():
        store.expect(name + ".weight", spec.weight_shape)
        store.expect(name + ".bias", (spec.out_channels,))
    for stream, channels in (("motion", MOTION_LATENT_C), ("residual", RESIDUAL_LATENT_C)):
        for key in ("cdf", "offset", "size"):
            arr = store[f"entropy.{stream}.{key}"]
            if arr.shape[0] != channels:
                raise ContractViolation(
                    f"entropy.{stream}.{key} covers {arr.shape[0]} channels, expected {channels}")


def entropy_models(store: WeightStore) -> dict:
    """Load the frozen entropy models for each coded stream."""
    out = {}
    for stream in ("motion", "residual"):
        out[stream] = entropy.model_from_tensors(
            {
                "cdf": store[f"entropy.{stream}.cdf"],
                "offset": store[f"entropy.{stream}.offset"],
                "size": store[f"entropy.{stream}.size"],
            }
        )
    return out
