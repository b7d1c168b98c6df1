import random
import tracemalloc
from io import BytesIO

import pytest
from hypothesis import given, strategies as st

from pakit import accounting
from pakit.compact_table import CompactTable
from pakit.errors import ContractFault, DecodeFault, RangeFault
from pakit.vector import Vector


def u8(*values):
    return [bytes([v]) for v in values]


def make(values):
    return Vector(1, u8(*values))


def contents(v):
    return [e[0] for e in v]


def test_insert_at_front():
    v = make([1, 2])
    v.insert(0, b"\x09")
    assert contents(v) == [9, 1, 2]
    v.destroy()


def test_insert_append_case():
    v = make([1, 2])
    v.insert(2, b"\x09")
    assert contents(v) == [1, 2, 9]
    v.destroy()


def test_insert_past_end_faults():
    v = make([1, 2])
    with pytest.raises(RangeFault):
        v.insert(3, b"\x09")
    v.destroy()


def test_concat():
    a, b = make([1, 2]), make([3])
    joined = a.concat(b)
    assert contents(joined) == [1, 2, 3]
    assert contents(a) == [1, 2] and contents(b) == [3]
    for v in (a, b, joined):
        v.destroy()


def test_concat_empties():
    a, b = make([]), make([])
    joined = a.concat(b)
    assert len(joined) == 0
    for v in (a, b, joined):
        v.destroy()


def test_concat_empty_is_identity():
    a, b = make([5, 6, 7]), make([])
    joined = a.concat(b)
    assert contents(joined) == contents(a)
    for v in (a, b, joined):
        v.destroy()


def test_concat_element_size_mismatch_faults():
    a, b = Vector(1), Vector(2)
    with pytest.raises(ContractFault):
        a.concat(b)
    a.destroy()
    b.destroy()


@pytest.mark.parametrize(
    "other",
    [lambda: [b"cd"], lambda: b"cd", lambda: None, lambda: CompactTable(2, 0)],
    ids=["list", "bytes", "None", "CompactTable"],
)
def test_concat_of_what_is_not_a_vector_faults(other):
    v, other = Vector(2, [b"ab"]), other()
    before = accounting.totals()
    with pytest.raises(ContractFault, match="^cannot concat a Vector with %s$" % type(other).__name__):
        v.concat(other)
    assert accounting.totals() == before  # no new block
    if isinstance(other, CompactTable):
        other.destroy()
    v.destroy()


def test_sort_numeric():
    v = make([3, 1, 2])
    v.sort()
    assert contents(v) == [1, 2, 3]
    v.destroy()


def test_sort_already_sorted():
    v = make([1, 2, 3])
    v.sort()
    assert contents(v) == [1, 2, 3]
    v.destroy()


def test_sort_matches_reference_sort():
    rng = random.Random(41)
    values = [rng.randrange(256) for _ in range(10_000)]
    v = make(values)
    v.sort()
    assert contents(v) == sorted(values)
    v.destroy()


@pytest.mark.parametrize("element_size", [1, 3, 12])
@given(data=st.data())
def test_default_sort_matches_sorted(element_size, data):
    # NUL and high-bit bytes, often at the end, where a numpy `S` view
    # could order differently from bytes
    edge = st.one_of(st.sampled_from([0x00, 0x80, 0xFF]), st.integers(0, 255))
    elements = data.draw(
        st.lists(
            st.one_of(
                st.lists(edge, min_size=element_size, max_size=element_size).map(bytes),
                st.integers(0, element_size).map(lambda n: b"\x01" * (element_size - n) + b"\x00" * n),
            ),
            max_size=60,
        )
    )
    v = Vector(element_size, elements)
    v.sort()
    assert list(v) == sorted(elements)
    v.destroy()


def test_sort_of_encoded_elements():
    # another order is an element encoding: signed big-endian ints with the
    # top bit flipped (offset binary) sort numerically
    def offset_binary(n):
        two = n.to_bytes(2, "big", signed=True)
        return bytes([two[0] ^ 0x80]) + two[1:]

    values = [3, -1, 0, -32768, 32767, -256, 255, 1]
    v = Vector(2, [offset_binary(n) for n in values])
    v.sort()
    assert list(v) == [offset_binary(n) for n in sorted(values)]
    with pytest.raises(TypeError):
        v.sort(lambda a, b: 0)  # no compare function
    v.destroy()


def test_sort_is_permutation():
    rng = random.Random(42)
    values = [rng.randrange(16) for _ in range(500)]
    v = make(values)
    v.sort()
    assert sorted(contents(v)) == sorted(values)
    out = contents(v)
    assert all(out[i] <= out[i + 1] for i in range(len(out) - 1))
    v.destroy()


def test_write_empty_is_eight_zero_bytes():
    v = Vector(4)
    stream = BytesIO()
    v.write(stream)
    assert stream.getvalue() == b"\x00" * 8
    v.destroy()


def test_write_read_roundtrip_random():
    rng = random.Random(43)
    for element_size in (1, 3, 8):
        elements = [bytes(rng.randrange(256) for _ in range(element_size)) for _ in range(200)]
        v = Vector(element_size, elements)
        stream = BytesIO()
        v.write(stream)
        stream.seek(0)
        loaded = Vector.read(stream, element_size)
        assert loaded == v
        assert stream.read() == b""
        v.destroy()
        loaded.destroy()


def test_write_is_bit_identical_across_calls():
    v = make([4, 5, 6])
    first, second = BytesIO(), BytesIO()
    v.write(first)
    v.write(second)
    assert first.getvalue() == second.getvalue()
    v.destroy()


def test_read_truncated_payload_faults():
    v = make([1, 2, 3])
    stream = BytesIO()
    v.write(stream)
    v.destroy()
    with pytest.raises(DecodeFault):
        Vector.read(BytesIO(stream.getvalue()[:-1]), 1)


@given(st.lists(st.sampled_from([(0, b"a"), (1, b"b"), (2, b"pop")])))
def test_matches_list_mirror(script):
    v = Vector(1)
    mirror = []
    for action, payload in script:
        if action == 0:
            v.append(payload)
            mirror.append(payload)
        elif action == 1:
            position = len(mirror) // 2
            v.insert(position, payload)
            mirror.insert(position, payload)
        elif mirror:
            position = len(mirror) - 1
            assert v[position] == mirror[position]
    assert list(v) == mirror
    assert len(v) == len(mirror)
    v.destroy()


def test_element_size_checked():
    v = Vector(2)
    with pytest.raises(ContractFault):
        v.append(b"abc")
    v.destroy()


def test_footprint_tracks_contents():
    before = accounting.totals()
    v = Vector(8)
    for i in range(10):
        v.append(i.to_bytes(8, "big"))
    blocks, size = accounting.totals()
    assert blocks == before[0] + 1
    assert size - before[1] >= 80
    assert size - before[1] <= 80 + 64
    v.destroy()
    assert accounting.totals() == before


def test_use_after_destroy_faults():
    v = make([1])
    v.destroy()
    with pytest.raises(ContractFault):
        v.append(b"\x01")


def test_extend_matches_an_append_loop():
    rng = random.Random(44)
    elements = [bytes(rng.randrange(256) for _ in range(3)) for _ in range(100)]
    before = accounting.totals()
    appended = Vector(3)
    for element in elements:
        appended.append(element)
    grown = accounting.totals()[1] - before[1]
    extended = Vector(3)
    extended.extend(elements[:40])
    extended.extend(iter([bytearray(e) for e in elements[40:70]]))
    extended.extend(memoryview(e) for e in elements[70:])
    assert extended == appended
    assert accounting.totals()[1] - before[1] == 2 * grown
    built = Vector(3, elements)
    assert built == appended
    assert accounting.totals()[1] - before[1] == 3 * grown
    for v in (appended, extended, built):
        v.destroy()


@pytest.mark.parametrize("bad", [b"\x01\x02", 7, "abc"], ids=["short", "int", "str"])
def test_extend_is_all_or_nothing(bad):
    v = make([1, 2])
    before = accounting.totals()
    with pytest.raises(ContractFault):
        v.extend([b"\x03", bad, b"\x04"])
    assert contents(v) == [1, 2]
    assert accounting.totals() == before
    v.destroy()


def test_failed_build_leaks_nothing():
    before = accounting.totals()
    with pytest.raises(ContractFault, match="must be bytes-like"):
        Vector(1, [b"a", 98])
    assert accounting.totals() == before


def test_extend_with_itself_doubles_it():
    v = make([1, 2])
    v.extend(v)
    assert contents(v) == [1, 2, 1, 2]
    v.destroy()


def test_extend_peaks_at_most_twice_the_payload():
    elements = [i.to_bytes(12, "big") for i in range(100_000)]
    v = Vector(12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        v.extend(elements)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(v) == 100_000 and v[-1] == elements[-1]
    assert peak <= 2.0 * 12 * 100_000
    v.destroy()


def test_extend_with_a_bad_last_element_appends_nothing():
    # past the first batch that extend joins
    v = make([1, 2])
    before = accounting.totals()
    with pytest.raises(ContractFault):
        v.extend([b"\x05"] * 10_000 + [b"\x06\x07"])
    assert contents(v) == [1, 2]
    assert accounting.totals() == before
    v.extend([b"\x05"] * 10_000)
    assert len(v) == 10_002
    v.destroy()


def test_no_order_to_check_below_two_records_at_any_width():
    # numpy builds no `S` dtype from 2**31 bytes on, and one record has no order
    before = accounting.totals()
    table = CompactTable.read(BytesIO(bytes(8)), 2**40, 2)
    assert len(table) == 0
    table.destroy()
    v = Vector(2**40)
    v.sort()
    assert len(v) == 0
    v.destroy()
    assert accounting.totals() == before
