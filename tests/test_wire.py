import tempfile
from io import BytesIO

import pytest
from hypothesis import given, strategies as st

from pakit import CompactTable, UnigramTable, Vector, wire
from pakit.errors import DecodeFault, DomainFault, RangeFault


def encode_uint(value, width):
    out = BytesIO()
    wire.write_uint(out, value, width)
    return out.getvalue()


def test_uint_examples():
    assert encode_uint(1, 4) == bytes.fromhex("00000001")
    assert encode_uint(0, 1) == bytes.fromhex("00")
    assert encode_uint(2**16 - 1, 2) == bytes.fromhex("ffff")


def test_uint_read_example():
    assert wire.read_uint(BytesIO(bytes.fromhex("00000001")), 4) == 1


def test_uint_out_of_range_faults():
    with pytest.raises(RangeFault):
        encode_uint(256, 1)
    with pytest.raises(RangeFault):
        encode_uint(2**16, 2)
    with pytest.raises(RangeFault):
        encode_uint(-1, 4)


def test_uint_bad_width_faults():
    with pytest.raises(DomainFault):
        encode_uint(1, 3)
    with pytest.raises(DomainFault):
        wire.read_uint(BytesIO(b"\x00" * 8), 5)


def test_uint_truncated_stream_faults():
    with pytest.raises(DecodeFault):
        wire.read_uint(BytesIO(b"\x00\x00\x00"), 4)
    with pytest.raises(DecodeFault):
        wire.read_uint(BytesIO(b""), 1)


@given(st.integers(min_value=0), st.sampled_from([1, 2, 4, 8]))
def test_uint_roundtrip(value, width):
    value %= 1 << (8 * width)
    stream = BytesIO(encode_uint(value, width))
    assert wire.read_uint(stream, width) == value
    assert stream.read() == b""  # consumed exactly its own bytes


def test_uint_roundtrip_many_random():
    import random

    rng = random.Random(7)
    for _ in range(10_000):
        width = rng.choice([1, 2, 4, 8])
        value = rng.randrange(0, 1 << (8 * width))
        assert wire.read_uint(BytesIO(encode_uint(value, width)), width) == value


def test_block_examples():
    out = BytesIO()
    wire.write_block(out, b"")
    assert out.getvalue() == b"\x00" * 8
    out = BytesIO()
    wire.write_block(out, b"abc")
    assert out.getvalue() == bytes.fromhex("0000000000000003") + b"\x61\x62\x63"


@given(st.binary(max_size=4096))
def test_block_roundtrip(payload):
    stream = BytesIO()
    wire.write_block(stream, payload)
    stream.seek(0)
    assert wire.read_block(stream) == payload
    assert stream.read() == b""


def test_block_roundtrip_64k():
    payload = bytes(range(256)) * 256
    stream = BytesIO()
    wire.write_block(stream, payload)
    stream.seek(0)
    assert wire.read_block(stream) == payload


def test_block_truncated_payload_faults():
    stream = BytesIO()
    wire.write_block(stream, b"abcdef")
    data = stream.getvalue()[:-2]
    with pytest.raises(DecodeFault):
        wire.read_block(BytesIO(data))


def test_encoding_is_deterministic():
    assert encode_uint(123456, 8) == encode_uint(123456, 8)
    first, second = BytesIO(), BytesIO()
    wire.write_block(first, b"xyzzy")
    wire.write_block(second, b"xyzzy")
    assert first.getvalue() == second.getvalue()


def test_self_delimiting_sequence():
    # several values written back to back decode without any separators
    stream = BytesIO()
    wire.write_uint(stream, 7, 1)
    wire.write_block(stream, b"mid")
    wire.write_uint(stream, 9, 8)
    stream.seek(0)
    assert wire.read_uint(stream, 1) == 7
    assert wire.read_block(stream) == b"mid"
    assert wire.read_uint(stream, 8) == 9
    assert stream.read() == b""


def test_records_are_a_count_then_the_record_bytes():
    out = BytesIO()
    wire.write_records(out, 2, bytearray(b"abcdef"))
    assert out.getvalue() == bytes.fromhex("0000000000000002") + b"abcdef"
    out.seek(0)
    assert wire.read_records(out, 3) == (2, b"abcdef")
    assert out.read() == b""


@pytest.mark.parametrize("count", [-1, 1 << 64])
def test_records_count_outside_eight_bytes_faults_before_writing(count):
    out = BytesIO()
    with pytest.raises(RangeFault):
        wire.write_records(out, count, b"")
    assert out.getvalue() == b""


_HOSTILE_LENGTH = (1 << 60).to_bytes(8, "big")


def test_read_records_rejects_a_zero_record_size_before_reading():
    stream = BytesIO(_HOSTILE_LENGTH)
    with pytest.raises(DomainFault):
        wire.read_records(stream, 0)
    assert stream.tell() == 0


@pytest.mark.parametrize(
    "read, header",
    [
        (wire.read_block, _HOSTILE_LENGTH),
        (lambda s: wire.read_records(s, 4), _HOSTILE_LENGTH),
        (lambda s: CompactTable.read(s, key_size=4, datum_size=4), _HOSTILE_LENGTH),
        (lambda s: Vector.read(s, element_size=8), _HOSTILE_LENGTH),
        (UnigramTable.read, _HOSTILE_LENGTH + b"\x01"),  # alphabet size, counter width
    ],
    ids=["block", "records", "compact_table", "vector", "unigram"],
)
def test_hostile_length_faults_without_allocating(read, header):
    with tempfile.TemporaryFile() as tmp:
        tmp.write(header + b"only a few payload bytes")
        tmp.seek(0)
        with pytest.raises(DecodeFault):
            read(tmp)


class _CountingReads(BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_read_exact_takes_one_read_up_to_a_chunk():
    stream = _CountingReads(bytes(wire.READ_CHUNK_BYTES))
    assert len(wire.read_exact(stream, wire.READ_CHUNK_BYTES)) == wire.READ_CHUNK_BYTES
    assert stream.reads == 1


def test_read_exact_joins_chunks_of_a_long_payload():
    payload = bytes(range(256)) * (wire.READ_CHUNK_BYTES // 128 + 3)
    stream = _CountingReads(payload + b"tail")
    assert wire.read_exact(stream, len(payload)) == payload
    assert stream.reads == 3
    assert stream.read() == b"tail"


@pytest.mark.parametrize("count", [0, 1, wire.READ_CHUNK_BYTES // 4], ids=["empty", "one", "one_chunk"])
def test_read_records_takes_a_header_read_and_a_payload_read_up_to_a_chunk(count):
    payload = bytes(range(4)) * count
    stream = _CountingReads(count.to_bytes(8, "big") + payload + b"tail")
    assert wire.read_records(stream, 4) == (count, payload)
    assert stream.reads == 2
    assert stream.read() == b"tail"


_FRAME = (3).to_bytes(8, "big") + b"abcdef"


@pytest.mark.parametrize("cut", [0, 1, 7, 8, 9, 13], ids=lambda cut: "at_%d" % cut)
def test_read_records_of_a_cut_frame_faults(cut):
    with pytest.raises(DecodeFault, match="truncated stream"):
        wire.read_records(_CountingReads(_FRAME[:cut]), 2)


@pytest.mark.parametrize(
    "largest, width",
    [(None, 1), (0, 1), (255, 1), (256, 2), (0xFFFF, 2), (0x10000, 4), (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)],
)
def test_uint_array_takes_the_narrowest_width(largest, width):
    values = [] if largest is None else [0, largest, 1]
    column = wire.uint_array(values)
    assert (column.itemsize, column.tolist()) == (width, values)


def test_uint_array_refuses_what_no_width_holds():
    for values in ([2**64], [-1], [3, -1]):
        with pytest.raises(OverflowError):
            wire.uint_array(values)
    with pytest.raises(OverflowError):
        wire.uint_array([256], 1)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_uints_are_a_width_byte_then_big_endian_values(width):
    values = [0, 1, (1 << 8 * width) - 1, 0x0102030405060708 >> 8 * (8 - width)]
    stream = BytesIO()
    wire.write_uints(stream, wire.uint_array(values, width))
    assert stream.getvalue() == bytes([width]) + b"".join(value.to_bytes(width, "big") for value in values)
    stream = BytesIO(stream.getvalue() + b"tail")
    column = wire.read_uints(stream, len(values))
    assert (column.itemsize, column.tolist()) == (width, values)
    assert stream.read() == b"tail"  # consumed exactly its own bytes


def test_write_uints_leaves_the_column_as_it_was():
    column = wire.uint_array([1, 2, 300])
    wire.write_uints(BytesIO(), column)
    assert (column.itemsize, column.tolist()) == (2, [1, 2, 300])


@pytest.mark.parametrize("width", [0, 3, 5, 16, 255])
def test_read_uints_rejects_a_width_outside_1_2_4_8(width):
    with pytest.raises(DecodeFault, match="invalid column width %d" % width):
        wire.read_uints(BytesIO(bytes([width]) + bytes(64)), 2)


@pytest.mark.parametrize("cut", [0, 1, 4, 8], ids=lambda cut: "at_%d" % cut)
def test_read_uints_of_a_cut_column_faults(cut):
    whole = b"\x04" + bytes(8)  # two 4-byte values
    with pytest.raises(DecodeFault, match="truncated stream"):
        wire.read_uints(BytesIO(whole[:cut]), 2)


def test_read_uints_of_a_hostile_count_faults_without_allocating():
    with tempfile.TemporaryFile() as tmp:
        tmp.write(b"\x08" + b"only a few payload bytes")
        tmp.seek(0)
        with pytest.raises(DecodeFault):
            wire.read_uints(tmp, 2**60)


def test_a_column_of_no_values_is_no_bytes():
    for width in (1, 2, 4, 8):
        stream = BytesIO()
        wire.write_uints(stream, wire.uint_array([], width))
        assert stream.getvalue() == b""
    stream = BytesIO(b"\x03tail")  # not read as a width byte
    assert wire.read_uints(stream, 0).tolist() == []
    assert stream.read() == b"\x03tail"
