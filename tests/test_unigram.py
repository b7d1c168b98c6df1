import random
from array import array
from io import BytesIO

import pytest

from pakit import accounting
from pakit.errors import ContractFault, DecodeFault, DomainFault, OverflowFault, RangeFault
from pakit.unigram import UnigramTable
from pakit.wire import _TYPECODES


def test_fresh_table_is_all_zero():
    u = UnigramTable(8)
    assert all(u.count(s) == 0 for s in range(8))
    assert u.total() == 0
    assert u.counter_width == 1
    u.destroy()


def test_simple_increments():
    u = UnigramTable(16)
    for _ in range(3):
        u.increment(7)
    assert u.count(7) == 3
    assert u.total() == 3
    u.destroy()


def test_increment_by_amount():
    u = UnigramTable(4)
    u.increment(2, by=41)
    assert u.count(2) == 41
    assert u.total() == 41
    u.destroy()


def test_symbol_out_of_range_faults():
    u = UnigramTable(4)
    with pytest.raises(RangeFault):
        u.increment(4)
    with pytest.raises(RangeFault):
        u.count(4)
    with pytest.raises(RangeFault):
        u.increment(-1)
    u.destroy()


def test_increment_step_must_be_positive():
    u = UnigramTable(4)
    with pytest.raises(DomainFault):
        u.increment(0, by=0)
    u.destroy()


def test_widening_at_byte_boundary():
    u = UnigramTable(8)
    for _ in range(255):
        u.increment(3)
    assert u.counter_width == 1
    u.increment(3)
    assert u.counter_width == 2
    assert u.count(3) == 256
    assert u.count(0) == 0  # widening is representation-only
    u.destroy()


def test_widening_at_two_byte_boundary():
    u = UnigramTable(4)
    u.increment(1, by=2**16 - 1)
    assert u.counter_width == 2
    u.increment(1)
    assert u.counter_width == 4
    assert u.count(1) == 2**16
    u.destroy()


def test_widening_can_skip_widths():
    u = UnigramTable(4)
    u.increment(0, by=2**40)
    assert u.counter_width == 8
    assert u.count(0) == 2**40
    u.destroy()


def test_saturation_fault_past_64_bits():
    u = UnigramTable(2)
    u.increment(0, by=2**64 - 1)
    with pytest.raises(OverflowError):
        u.increment(0)
    assert u.count(0) == 2**64 - 1
    u.destroy()


def test_matches_count_array_oracle():
    rng = random.Random(55)
    n = 64
    u = UnigramTable(n)
    oracle = [0] * n
    for _ in range(100_000):
        symbol = rng.randrange(n)
        by = rng.choice((1, 1, 1, 7, 250))
        u.increment(symbol, by=by)
        oracle[symbol] += by
    assert [u.count(s) for s in range(n)] == oracle
    assert u.total() == sum(oracle)
    u.destroy()


def test_width_only_increases():
    rng = random.Random(56)
    u = UnigramTable(8)
    last_width = u.counter_width
    for _ in range(2_000):
        u.increment(rng.randrange(8), by=rng.randrange(1, 300))
        assert u.counter_width >= last_width
        last_width = u.counter_width
    u.destroy()


def test_footprint_is_width_times_alphabet():
    before = accounting.totals()
    n = 1000
    u = UnigramTable(n)
    _, at_width_1 = accounting.totals()
    assert at_width_1 - before[1] <= n + 64
    u.increment(0, by=300)
    _, at_width_2 = accounting.totals()
    assert at_width_2 - at_width_1 == n
    u.destroy()
    assert accounting.totals() == before


def test_narrow_stream_stays_eight_times_smaller():
    # Zipf-flavored stream whose largest count stays under 256.
    rng = random.Random(57)
    n = 4096
    u = UnigramTable(n)
    for _ in range(20_000):
        symbol = min(int(rng.paretovariate(1.0)) - 1, n - 1)
        if u.count(symbol) < 255:
            u.increment(symbol)
    assert u.counter_width == 1
    sixty_four_bit_oracle_cost = 8 * n
    assert n * u.counter_width * 8 == sixty_four_bit_oracle_cost
    u.destroy()


def test_serialization_format_size():
    u = UnigramTable(4)
    stream = BytesIO()
    u.write(stream)
    assert len(stream.getvalue()) == 8 + 1 + 4
    stream.seek(0)
    loaded = UnigramTable.read(stream)
    assert loaded == u
    u.destroy()
    loaded.destroy()


def test_serialization_roundtrip_after_widening():
    u = UnigramTable(6)
    u.increment(2, by=70_000)
    u.increment(5, by=3)
    stream = BytesIO()
    u.write(stream)
    stream.seek(0)
    loaded = UnigramTable.read(stream)
    assert loaded == u
    assert loaded.counter_width == 4
    assert loaded.count(2) == 70_000
    assert loaded.total() == 70_003
    # bit-identical reserialization
    again = BytesIO()
    loaded.write(again)
    assert again.getvalue() == stream.getvalue()
    u.destroy()
    loaded.destroy()


def test_serialization_truncation_faults():
    u = UnigramTable(4)
    u.increment(0)
    stream = BytesIO()
    u.write(stream)
    u.destroy()
    with pytest.raises(DecodeFault):
        UnigramTable.read(BytesIO(stream.getvalue()[:-1]))


def test_use_after_destroy_faults():
    u = UnigramTable(4)
    u.destroy()
    with pytest.raises(ContractFault):
        u.increment(0)


def test_read_of_zero_alphabet_is_a_decode_fault():
    stream = BytesIO((0).to_bytes(8, "big") + b"\x01")
    with pytest.raises(DecodeFault):
        UnigramTable.read(stream)


# Hand-written streams: alphabet size (8 bytes), width (1), then each
# counter big-endian, so a write and read that both skipped the byte swap
# would fail here even though they round-trip.
GOLDEN_STREAMS = {
    1: ([1, 0, 255], bytes.fromhex("0000000000000003" "01" "0100ff")),
    2: ([0x0102, 0, 3], bytes.fromhex("0000000000000003" "02" "0102" "0000" "0003")),
    4: ([0x01020304, 5, 0], bytes.fromhex("0000000000000003" "04" "01020304" "00000005" "00000000")),
    8: ([0x0102030405060708, 0, 9], bytes.fromhex("0000000000000003" "08" "0102030405060708" "0000000000000000" "0000000000000009")),
}


@pytest.mark.parametrize("width", sorted(GOLDEN_STREAMS))
def test_wire_bytes_are_big_endian_counters(width):
    counts, golden = GOLDEN_STREAMS[width]
    u = UnigramTable(3)
    for symbol, count in enumerate(counts):
        if count:
            u.increment(symbol, count)
    stream = BytesIO()
    u.write(stream)
    loaded = UnigramTable.read(BytesIO(golden))
    try:
        assert stream.getvalue() == golden
        assert [loaded.count(s) for s in range(3)] == counts
        assert (loaded.counter_width, loaded.total()) == (width, sum(counts))
        assert loaded == u
    finally:
        u.destroy()
        loaded.destroy()


def test_equal_counts_at_different_widths_compare_unequal():
    # a width-2 stream whose counts fit one byte reads back at width 2
    wide = UnigramTable.read(BytesIO(bytes.fromhex("0000000000000003" "02" "0001" "0000" "00ff")))
    narrow = UnigramTable(3)
    narrow.increment(0)
    narrow.increment(2, 255)
    try:
        assert [(wide.count(s), narrow.count(s)) for s in range(3)] == [(1, 1), (0, 0), (255, 255)]
        assert (wide.counter_width, narrow.counter_width) == (2, 1)
        assert wide != narrow and narrow != wide
    finally:
        wide.destroy()
        narrow.destroy()


@pytest.mark.representation
def test_each_width_has_a_typecode_of_that_size():
    u = UnigramTable(2)
    try:
        for width in (1, 2, 4, 8):
            assert array(_TYPECODES[width]).itemsize == width
            u.increment(0, (1 << (8 * width - 1)) - u.count(0))
            assert u.counter_width == width
            assert u._counters.itemsize == width
    finally:
        u.destroy()


@pytest.mark.parametrize("start", [0, 5, 300, 2**40])
def test_an_increment_past_64_bits_changes_nothing(start):
    u = UnigramTable(2)
    if start:
        u.increment(0, start)
    width = u.counter_width
    try:
        for by in (1 << 64, (1 << 64) - start, 1 << 80):
            with pytest.raises(OverflowFault, match="exceeds 64 bits"):
                u.increment(0, by)
            assert (u.count(0), u.total(), u.counter_width) == (start, start, width)
    finally:
        u.destroy()
