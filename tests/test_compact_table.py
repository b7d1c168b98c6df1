import random
import sys
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pakit import accounting
from pakit.compact_table import FENCE_STRIDE, CompactTable
from pakit.errors import ContractFault, DecodeFault, RangeFault
from pakit.unigram import UnigramTable


def key4(n):
    return n.to_bytes(4, "big")


def make(mapping):
    table = CompactTable(key_size=4, datum_size=1)
    for k, d in mapping.items():
        table.insert(key4(k), d)
    return table


def test_lookup_present():
    t = make({1: b"a", 3: b"b", 5: b"c"})
    assert t.lookup(key4(3)) == b"b"
    t.destroy()


def test_lookup_absent():
    t = make({1: b"a", 3: b"b", 5: b"c"})
    assert t.lookup(key4(4)) is None
    t.destroy()


def test_lookup_empty_table():
    t = CompactTable(4, 1)
    assert t.lookup(key4(99)) is None
    t.destroy()


def test_insert_new_key_keeps_order():
    t = make({1: b"a", 3: b"b", 5: b"c"})
    assert t.insert(key4(4), b"d") is False
    assert [k for k, _ in t.items()] == [key4(1), key4(3), key4(4), key4(5)]
    t.destroy()


def test_insert_existing_key_replaces():
    t = make({1: b"a", 3: b"b", 5: b"c"})
    assert t.insert(key4(3), b"z") is True
    assert t.lookup(key4(3)) == b"z"
    assert len(t) == 3
    t.destroy()


def test_delete_present():
    t = make({1: b"a", 3: b"b", 5: b"c"})
    assert t.delete(key4(3)) is True
    assert [k for k, _ in t.items()] == [key4(1), key4(5)]
    t.destroy()


def test_delete_absent():
    t = make({1: b"a", 3: b"b", 5: b"c"})
    assert t.delete(key4(4)) is False
    assert len(t) == 3
    t.destroy()


def test_delete_from_empty():
    t = CompactTable(4, 1)
    assert t.delete(key4(0)) is False
    t.destroy()


def test_nth():
    t = make({1: b"a", 3: b"b"})
    assert t.nth(0) == (key4(1), b"a")
    assert t.nth(1) == (key4(3), b"b")
    with pytest.raises(RangeFault):
        t.nth(2)
    t.destroy()


def sorted_keys(t):
    return [k for k, _ in t.items()]


def test_matches_ordered_map_oracle():
    # Small key universe forces re-inserts and double-deletes.
    rng = random.Random(10_4)
    t = CompactTable(4, 2)
    oracle = {}
    universe = [key4(i) for i in range(48)]
    for step in range(10_000):
        key = rng.choice(universe)
        action = rng.random()
        if action < 0.5:
            datum = bytes([rng.randrange(256), rng.randrange(256)])
            assert t.insert(key, datum) == (key in oracle)
            oracle[key] = datum
        elif action < 0.8:
            assert t.delete(key) == (key in oracle)
            oracle.pop(key, None)
        else:
            assert t.lookup(key) == oracle.get(key)
        keys = sorted_keys(t)
        assert keys == sorted(oracle)  # strictly sorted, no duplicates
        assert len(t) == len(oracle)
    for rank, key in enumerate(sorted(oracle)):
        assert t.nth(rank) == (key, oracle[key])
    t.destroy()


def test_encoded_keys_define_the_order():
    # another order is a key encoding: complemented bytes run in reverse
    def reverse(n):
        return bytes(255 - b for b in key4(n))

    t = CompactTable(4, 1)
    for i in (1, 5, 3, 0):
        t.insert(reverse(i), b".")
    assert sorted_keys(t) == [reverse(5), reverse(3), reverse(1), reverse(0)]
    assert t.lookup(reverse(3)) == b"."
    assert t.lookup(key4(3)) is None
    with pytest.raises(TypeError):
        CompactTable(4, 1, lambda a, b: 0)  # no compare function
    t.destroy()


def test_serialization_roundtrip():
    t = make({9: b"i", 2: b"b", 7: b"g"})
    stream = BytesIO()
    t.write(stream)
    stream.seek(0)
    loaded = CompactTable.read(stream, key_size=4, datum_size=1)
    assert list(loaded.items()) == list(t.items())
    assert stream.read() == b""
    again = BytesIO()
    loaded.write(again)
    first = BytesIO()
    t.write(first)
    assert again.getvalue() == first.getvalue()
    t.destroy()
    loaded.destroy()


def test_serialization_truncation_faults():
    t = make({1: b"a"})
    stream = BytesIO()
    t.write(stream)
    t.destroy()
    with pytest.raises(DecodeFault):
        CompactTable.read(BytesIO(stream.getvalue()[:-1]), 4, 1)


def test_read_rejects_unsorted_stream():
    t = make({1: b"a", 2: b"b"})
    stream = BytesIO()
    t.write(stream)
    t.destroy()
    data = bytearray(stream.getvalue())
    header, pair = 8, 5
    data[header : header + pair], data[header + pair : header + 2 * pair] = (
        data[header + pair : header + 2 * pair],
        data[header : header + pair],
    )
    with pytest.raises(DecodeFault):
        CompactTable.read(BytesIO(bytes(data)), 4, 1)


def test_footprint_is_one_pair_array():
    before = accounting.totals()
    t = CompactTable(4, 4)
    for i in range(100):
        t.insert(key4(i), key4(i))
    _, size = accounting.totals()
    assert size - before[1] <= 100 * 8 + 64
    t.destroy()
    assert accounting.totals() == before


def test_wrong_key_size_faults():
    t = CompactTable(4, 1)
    with pytest.raises(ContractFault):
        t.insert(b"\x01", b"a")
    with pytest.raises(ContractFault):
        t.insert(key4(1), b"ab")
    t.destroy()


def test_use_after_destroy_faults():
    t = CompactTable(4, 1)
    t.destroy()
    with pytest.raises(ContractFault):
        t.lookup(key4(0))


def pair_stream(keys, datum_size=1):
    return BytesIO(len(keys).to_bytes(8, "big") + b"".join(k + b"\x07" * datum_size for k in keys))


@pytest.mark.parametrize(
    "keys, rank",
    [
        ([key4(1), key4(2), key4(5), key4(4), key4(6)], 3),  # unsorted
        ([key4(1), key4(2), key4(3), key4(3)], 3),  # duplicate
        ([b"\x00\x00", b"\x01\x00", b"\x01\x00"], 2),  # duplicate ending in NUL
        ([b"\x01\x00", b"\x01\x01", b"\x01\x00"], 2),  # trailing NUL sorts first
        ([b"\x00\x80", b"\x00\xff", b"\x00\x7f"], 2),  # bytes compare unsigned
        ([b"\x00\x00", b"\x00\x00"], 1),  # two all-zero keys
    ],
)
# "default" in the ids names the one key order, unsigned bytes
@pytest.mark.parametrize("datum_size", [pytest.param(size, id="%d-default" % size) for size in (0, 2)])
def test_read_order_fault_names_the_first_bad_rank(keys, rank, datum_size):
    stream = pair_stream(keys, datum_size)
    with pytest.raises(DecodeFault, match=r"not strictly sorted at rank %d$" % rank):
        CompactTable.read(stream, len(keys[0]), datum_size)


NUL_ENDED = [b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x01\x01", b"\x80\x00", b"\xff\x00"]


@pytest.mark.parametrize("keys", [pytest.param(NUL_ENDED, id="default")])
def test_read_accepts_keys_ending_in_nul(keys):
    table = CompactTable.read(pair_stream(keys), 2, 1)
    assert [k for k, _ in table.items()] == keys
    for key in keys:
        assert table.lookup(key) == b"\x07"
    assert table.lookup(b"\x00\x02") is None
    assert table.insert(b"\x00\x02", b"\x08") is False  # a read table takes mutations
    assert table.delete(b"\x00\x00") is True
    assert [table.lookup(key) for key in keys[:3]] == [None, b"\x07", b"\x07"]
    assert table.lookup(b"\x00\x02") == b"\x08"
    table.destroy()


# Key bytes drawn mostly from the values where a numpy `S` view could
# order differently from bytes: NUL (stripped at the end of an `S`
# value) and the bytes whose sign bit is set.
edge_bytes = st.one_of(st.sampled_from([0x00, 0x80, 0xFF]), st.integers(0, 255))


@pytest.mark.parametrize("key_size", [1, 3, 8])
@pytest.mark.parametrize("datum_size", [0, 4])
@given(data=st.data())
@settings(max_examples=60)
def test_matches_dict_reference_model(key_size, datum_size, data):
    keys = st.lists(edge_bytes, min_size=key_size, max_size=key_size).map(bytes)
    datums = st.binary(min_size=datum_size, max_size=datum_size)
    steps = data.draw(st.lists(st.tuples(keys, datums, datums, st.booleans()), max_size=40))
    table = CompactTable(key_size, datum_size)
    reference = {}
    try:
        for key, first, second, remove in steps:
            assert table.lookup(key) == reference.get(key)
            assert table.insert(key, first) == (key in reference)
            reference[key] = first
            assert table.insert(key, second) is True  # replace in place
            reference[key] = second
            if remove:
                assert table.delete(key) is True
                del reference[key]
            assert table.lookup(key) == reference.get(key)
            assert len(table) == len(reference)
        ordered = sorted(reference.items())
        assert list(table.items()) == ordered
        for rank, (key, datum) in enumerate(table.items()):
            assert {type(key), type(datum), type(table.lookup(key)), *map(type, table.nth(rank))} == {bytes}
        for rank, pair in enumerate(ordered):
            assert table.nth(rank) == pair
        for key, datum in ordered:
            assert table.delete(key) is True
            assert table.lookup(key) is None
        assert len(table) == 0
    finally:
        table.destroy()


# --- fence-key lookups ------------------------------------------------------
#
# A lookup bisects the fence keys (every FENCE_STRIDE-th key) and then
# searches one block with bytearray.find.  Each datum below repeats the
# next key's bytes and the probes include every window of the pair bytes,
# so keys occur inside data and across pair boundaries, and the search
# must pass over those matches.

FENCE_ALPHABET = bytes([0x01, 0x02, 0x03, 0x04, 0x05, 0x7F])  # 216 keys of 3 bytes


def fence_table(key_size, datum_size, seed=7):
    """A default-order table of 3 full fence blocks plus a partial one, and its reference dict."""
    rng = random.Random(seed * 100 + key_size * 10 + datum_size)
    count = 3 * FENCE_STRIDE + 5
    if key_size == 1:
        keys = {bytes([k]) for k in rng.sample(range(1, 255), count)}  # 0x00 stays below, 0xff above
    else:
        keys = set()
        while len(keys) < count:
            keys.add(bytes(rng.choice(FENCE_ALPHABET) for _ in range(key_size)))
    keys = sorted(keys)
    reference = {key: (after * datum_size)[:datum_size] for key, after in zip(keys, keys[1:] + keys[:1])}
    table = CompactTable(key_size, datum_size)
    for key in rng.sample(keys, count):
        table.insert(key, reference[key])
    return table, reference


def fence_probes(table, reference):
    """Every key, every fence, keys below and above all, absent keys between blocks, every window."""
    key_size, keys = table.key_size, sorted(reference)
    probes = keys + keys[::FENCE_STRIDE] + [b"\x00" * key_size, b"\xff" * key_size]
    for rank in range(FENCE_STRIDE, len(keys), FENCE_STRIDE):
        value = int.from_bytes(keys[rank - 1], "big") + 1
        if value < int.from_bytes(keys[rank], "big"):  # an absent key between two blocks
            probes.append(value.to_bytes(key_size, "big"))
    pairs = b"".join(key + datum for key, datum in table.items())
    probes += [pairs[at : at + key_size] for at in range(len(pairs) - key_size + 1)]
    return probes


def straddling_matches(table, probes):
    """Probes whose first match in the pair bytes is not at a pair boundary."""
    pairs = b"".join(key + datum for key, datum in table.items())
    pair_size = table.key_size + table.datum_size
    return [p for p in probes if pairs.find(p) % pair_size and pairs.find(p) >= 0]


def check_probes(table, reference, probes):
    for _ in range(2):
        for probe in probes:
            assert table.lookup(probe) == reference.get(probe), probe


@pytest.mark.representation
@pytest.mark.parametrize("key_size", [1, 3, 8])
@pytest.mark.parametrize("datum_size", [0, 4])
def test_fence_lookups_match_a_dict(key_size, datum_size):
    table, reference = fence_table(key_size, datum_size)
    try:
        probes = fence_probes(table, reference)
        straddling = straddling_matches(table, probes)
        if key_size > 1:  # an absent key found across two pairs
            assert any(p not in reference for p in straddling)
        if key_size <= datum_size:  # a key found first inside the datum before it
            assert any(p in reference for p in straddling)
        check_probes(table, reference, probes)
        assert isinstance(table._fences, list)  # the probes ran on the fence path
        assert len(table._fences) == 4
        assert table._fences == sorted(reference)[::FENCE_STRIDE]
    finally:
        table.destroy()


@pytest.mark.representation
@pytest.mark.parametrize("key_size", [1, 3, 8])
@pytest.mark.parametrize("datum_size", [0, 4])
def test_fence_lookups_after_replace_insert_and_delete(key_size, datum_size):
    table, reference = fence_table(key_size, datum_size, seed=11)
    keys = sorted(reference)
    try:
        probes = fence_probes(table, reference)
        check_probes(table, reference, probes)
        fences = table._fences
        for key in keys[::7]:  # a replace keeps the size, so the fences stay
            datum = bytes(reversed(reference[key])) or reference[key]
            assert table.insert(key, datum) is True
            reference[key] = datum
        assert table._fences is fences
        check_probes(table, reference, probes)
        absent = [p for p in probes if p not in reference]
        for key in absent[:3]:  # new keys move every later pair
            assert table.insert(key, bytes(datum_size)) is False
            reference[key] = bytes(datum_size)
            assert table._fences is None
            assert table.lookup(key) == bytes(datum_size)  # one lookup rebuilds the fences
            assert table._fences == sorted(reference)[::FENCE_STRIDE]
            check_probes(table, reference, probes)
        for key in keys[FENCE_STRIDE - 2 :: FENCE_STRIDE] + keys[:2]:  # deletes shift fences
            assert table.delete(key) is True
            del reference[key]
            assert table._fences is None
            check_probes(table, reference, probes)
        assert list(table.items()) == sorted(reference.items())
    finally:
        table.destroy()


@pytest.mark.representation
def test_a_warmed_lookup_and_a_count_make_no_numpy_call():
    table = CompactTable(8, 4)
    unigrams = UnigramTable(16)
    for n in range(0, 400, 2):
        table.insert(n.to_bytes(8, "big"), n.to_bytes(4, "big"))
    unigrams.increment(3, 300)
    hit, miss = (202).to_bytes(8, "big"), (203).to_bytes(8, "big")
    for _ in range(2):
        table.lookup(hit), table.lookup(miss)
    frames, c_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)
        elif event == "c_call":
            c_calls.append(arg)

    sys.setprofile(profile)
    try:
        found, absent, count = table.lookup(hit), table.lookup(miss), unigrams.count(3)
    finally:
        sys.setprofile(None)
        table.destroy()
        unigrams.destroy()
    into_numpy = [
        f for f in c_calls
        if isinstance(getattr(f, "__self__", None), (np.ndarray, np.generic))
        or (getattr(f, "__module__", None) or "").startswith("numpy")
    ]
    assert into_numpy == []
    assert frames == ["lookup", "lookup", "count"]  # the fence path runs inside lookup
    assert (found, absent, count) == ((202).to_bytes(4, "big"), None, 300)
