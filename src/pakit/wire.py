"""Portable self-delimiting binary encoding.

All multi-byte integers cross the wire big-endian at a fixed width, and
variable-length payloads are preceded by an 8-byte length, so a decoder
always knows exactly where each value ends.  Streams are ordinary binary
file objects (files, BytesIO).
"""

from .errors import DecodeFault, DomainFault, RangeFault

_WIDTHS = (1, 2, 4, 8)

# 8-byte length prefix of every variable-length block
BLOCK_LENGTH_WIDTH = 8

# largest single read; longer payloads are read and joined chunk by chunk
READ_CHUNK_BYTES = 1 << 20


def write_uint(stream, value: int, width: int) -> None:
    """Write `value` as exactly `width` big-endian bytes (width in 1/2/4/8)."""
    if width not in _WIDTHS:
        raise DomainFault("width must be one of %r, got %r" % (_WIDTHS, width))
    if value < 0 or value >> (8 * width):
        raise RangeFault("value %d does not fit in %d bytes" % (value, width))
    stream.write(value.to_bytes(width, "big"))


def read_uint(stream, width: int) -> int:
    """Read exactly `width` big-endian bytes; inverse of write_uint."""
    if width not in _WIDTHS:
        raise DomainFault("width must be one of %r, got %r" % (_WIDTHS, width))
    data = stream.read(width)
    if len(data) != width:
        raise DecodeFault("truncated stream: wanted %d bytes, got %d" % (width, len(data)))
    return int.from_bytes(data, "big")


def write_block(stream, payload: bytes) -> None:
    """Write an 8-byte big-endian length followed by the payload bytes."""
    write_uint(stream, len(payload), BLOCK_LENGTH_WIDTH)
    stream.write(payload)


def read_block(stream) -> bytes:
    """Read one length-prefixed block; inverse of write_block."""
    return read_exact(stream, read_uint(stream, BLOCK_LENGTH_WIDTH))


def read_exact(stream, count: int) -> bytes:
    """Read exactly `count` raw bytes or raise DecodeFault.

    Reads at most READ_CHUNK_BYTES per call, so a hostile length field
    costs no more memory than the stream really holds; a payload no
    longer than one chunk takes a single read.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(min(remaining, READ_CHUNK_BYTES))
        if not chunk:
            raise DecodeFault(
                "truncated stream: wanted %d bytes, got %d" % (count, count - remaining)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)
