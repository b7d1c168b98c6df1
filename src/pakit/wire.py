"""Portable self-delimiting binary encoding.

All multi-byte integers cross the wire big-endian at a fixed width, and
variable-length payloads are preceded by an 8-byte length, so a decoder
always knows exactly where each value ends: a run of equal-size records
carries its record count, and a byte block is a run of one-byte records.
Streams are ordinary binary file objects (files, BytesIO).  Every
decoder in the package reads its stream through `read_exact` or
`read_records`, so a truncated stream becomes a DecodeFault here alone.

A run of records is one call in each direction with no helper frame:
writing it takes two `write` calls, and reading it takes one read for
the count and one for a payload of at most READ_CHUNK_BYTES.  A longer
payload is read chunk by chunk, so a hostile count costs no more memory
than the stream really holds.
"""

import sys

from .accounting import checked_size
from .errors import DecodeFault, DomainFault, RangeFault

_WIDTHS = (1, 2, 4, 8)

# 8-byte length prefix of every variable-length block
BLOCK_LENGTH_WIDTH = 8

# largest single read; longer payloads are read and joined chunk by chunk
READ_CHUNK_BYTES = 1 << 20


def write_uint(stream, value: int, width: int) -> None:
    """Write `value` as exactly `width` big-endian bytes (width in 1/2/4/8)."""
    if checked_size("width", width) not in _WIDTHS:
        raise DomainFault("width must be one of %r, got %r" % (_WIDTHS, width))
    if value < 0 or value >> (8 * width):
        raise RangeFault("value %d does not fit in %d bytes" % (value, width))
    stream.write(value.to_bytes(width, "big"))


def read_uint(stream, width: int) -> int:
    """Read exactly `width` big-endian bytes; inverse of write_uint."""
    if checked_size("width", width) not in _WIDTHS:
        raise DomainFault("width must be one of %r, got %r" % (_WIDTHS, width))
    return int.from_bytes(read_exact(stream, width), "big")


def write_records(stream, count: int, payload) -> None:
    """Write an 8-byte big-endian record count, then the bytes-like payload without a copy."""
    if count < 0 or count >> (8 * BLOCK_LENGTH_WIDTH):
        raise RangeFault("value %d does not fit in %d bytes" % (count, BLOCK_LENGTH_WIDTH))
    stream.write(count.to_bytes(BLOCK_LENGTH_WIDTH, "big"))
    stream.write(payload)


def read_records(stream, record_size: int) -> tuple[int, bytes]:
    """Read one run of `record_size`-byte records; inverse of write_records."""
    if type(record_size) is not int or not 1 <= record_size <= sys.maxsize:  # inline: runs per string of a Trie
        checked_size("record_size", record_size)  # raises
    header = stream.read(BLOCK_LENGTH_WIDTH)
    if len(header) != BLOCK_LENGTH_WIDTH:
        raise DecodeFault("truncated stream: wanted %d bytes, got %d" % (BLOCK_LENGTH_WIDTH, len(header)))
    count = int.from_bytes(header, "big")
    size = count * record_size
    payload = stream.read(min(size, READ_CHUNK_BYTES))
    if len(payload) != size:
        payload = _read_rest(stream, size, payload)
    return count, payload


def write_block(stream, payload: bytes) -> None:
    """Write an 8-byte big-endian length followed by the payload bytes."""
    write_records(stream, len(payload), payload)


def read_block(stream) -> bytes:
    """Read one length-prefixed block; inverse of write_block."""
    return read_records(stream, 1)[1]


def read_exact(stream, count: int) -> bytes:
    """Read exactly `count` raw bytes or raise DecodeFault.

    Reads at most READ_CHUNK_BYTES per call, so a hostile length field
    costs no more memory than the stream really holds; a payload no
    longer than one chunk takes a single read.
    """
    data = stream.read(min(count, READ_CHUNK_BYTES))
    return data if len(data) == count else _read_rest(stream, count, data)


def _read_rest(stream, count: int, head: bytes) -> bytes:
    """`head`, the first read towards `count` bytes, joined with the chunks that complete it."""
    chunks = [head]
    remaining = count - len(head)
    while remaining > 0:
        chunk = stream.read(min(remaining, READ_CHUNK_BYTES))
        if not chunk:
            raise DecodeFault(
                "truncated stream: wanted %d bytes, got %d" % (count, count - remaining)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
