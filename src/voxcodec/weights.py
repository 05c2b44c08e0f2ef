"""Weight container, the "DPCW" file format, and seeded weight generation.

File layout (little-endian): magic "DPCW", u32 version, u32 generator seed,
u32 tensor count, then per tensor: u16 name length, UTF-8 name, u8 rank,
u32 dims, f32 values.  Round-trips bit exactly.

The channel plan is recorded here as a registry of layer names and conv
specs; the weight file is therefore self-describing for tests.
"""

from __future__ import annotations

import struct

import numpy as np

from . import entropy
from .errors import ContractViolation, DecodeError
from .nn import ConvSpec

MAGIC = b"DPCW"
VERSION = 1

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


def conv_layout() -> list[tuple[str, ConvSpec]]:
    """Every convolution layer in the pipeline, as (name, spec)."""
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
    return layers


class WeightStore:
    """Read-only named-tensor container backing the whole pipeline."""

    def __init__(self, tensors: dict, seed: int = 0):
        self._tensors = {}
        for name, arr in tensors.items():
            a = np.ascontiguousarray(arr, dtype=np.float32)
            a.flags.writeable = False
            self._tensors[name] = a
        self.seed = int(seed)

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
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<III", VERSION, self.seed, len(self._tensors)))
            for name in sorted(self._tensors):
                arr = self._tensors[name]
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "WeightStore":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != MAGIC:
            raise DecodeError("not a DPCW weight file")
        if len(data) < 16:
            raise DecodeError("DPCW file shorter than its 16-byte header")
        version, seed, count = struct.unpack_from("<III", data, 4)
        if version != VERSION:
            raise DecodeError(f"unsupported DPCW version {version}")
        pos = 16
        tensors = {}
        try:
            for _ in range(count):
                (nlen,) = struct.unpack_from("<H", data, pos)
                pos += 2
                name = data[pos : pos + nlen].decode("utf-8")
                pos += nlen
                (rank,) = struct.unpack_from("<B", data, pos)
                pos += 1
                dims = struct.unpack_from(f"<{rank}I", data, pos)
                pos += 4 * rank
                n = int(np.prod(dims)) if rank else 1
                arr = np.frombuffer(data, dtype="<f4", count=n, offset=pos).reshape(dims)
                pos += 4 * n
                tensors[name] = arr.copy()
        except (struct.error, ValueError) as exc:
            raise DecodeError(f"truncated DPCW file: {exc}") from None
        return cls(tensors, seed)


def _peaked_pmf(nsym: int, width: float) -> np.ndarray:
    """Two-sided geometric pmf over nsym symbols centered on zero."""
    half = nsym // 2
    s = np.arange(-half, nsym - half, dtype=np.float64)
    return np.exp(-np.abs(s) / width)


def _entropy_tables(rng, channels, nsym, widths, escape_mass) -> entropy.EntropyModel:
    pmfs = [_peaked_pmf(nsym, w) for w in widths]
    offsets = np.full(channels, -(nsym // 2), dtype=np.int64)
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
    rng = np.random.Generator(np.random.PCG64(seed))
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
        motion_model = _entropy_tables(rng, MOTION_LATENT_C, 7, np.full(MOTION_LATENT_C, 0.05), 1e-4)
        residual_model = _entropy_tables(rng, RESIDUAL_LATENT_C, 63, np.full(RESIDUAL_LATENT_C, 1.0), 1e-4)
    else:
        motion_model = _entropy_tables(
            rng, MOTION_LATENT_C, 31, rng.uniform(1.0, 4.0, MOTION_LATENT_C), 1e-3
        )
        residual_model = _entropy_tables(
            rng, RESIDUAL_LATENT_C, 31, rng.uniform(1.0, 4.0, RESIDUAL_LATENT_C), 1e-3
        )
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
