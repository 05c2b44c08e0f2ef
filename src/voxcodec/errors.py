"""Exception types shared across the codec."""

import struct


class VoxCodecError(Exception):
    """Base class for all voxcodec errors."""


class ContractViolation(VoxCodecError):
    """An operation was invoked with arguments that violate its contract."""


class DecodeError(VoxCodecError):
    """A bitstream or substream could not be decoded."""


class MissingReference(DecodeError):
    """A P frame arrived without the previous decoded latent it predicts from."""


class PlyParseError(VoxCodecError):
    """A PLY file is malformed.  Carries the offending line or byte offset."""

    def __init__(self, message, *, line=None, offset=None):
        if line is not None:
            message = f"{message} (line {line})"
        elif offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.line = line
        self.offset = offset


def pack(fmt: str, *fields, what: str) -> bytes:
    """struct.pack for a file header: a field its format cannot hold raises
    ContractViolation naming the header, before any byte is written."""
    try:
        return struct.pack(fmt, *fields)
    except struct.error as e:
        raise ContractViolation(f"{what} cannot hold its fields: {e}") from None
