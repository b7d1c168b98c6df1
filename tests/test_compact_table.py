import os
import random
import subprocess
import sys
import tracemalloc
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pakit import accounting, wire
from pakit.compact_table import CompactTable
from pakit.errors import ContractFault, DecodeFault, RangeFault
from pakit.hashing import MAX_LOAD
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


# --- rank-index lookups -----------------------------------------------------
#
# A lookup probes a hash index of pair ranks, built by the first lookup
# after a size change.  Each datum below repeats the next key's bytes and
# the probes include every window of the pair bytes, so most absent probes
# are byte strings that the pairs hold inside a datum or across two pairs.
# The slot layout follows the per-process `bytes` hash salt, so no test here
# pins one; the two `fence` test names are those of the sparse index the
# rank index replaced, kept so that their ids stay the same.

INDEX_ALPHABET = bytes([0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF])  # 216 keys of 3 bytes


def index_reference(key_size, datum_size, count, seed):
    """`count` distinct keys, each mapped to a datum made of the next key's bytes."""
    rng = random.Random(seed * 100 + key_size * 10 + datum_size)
    if key_size == 1:
        keys = {bytes([k]) for k in rng.sample(range(256), count)}
    else:
        keys = set()
        while len(keys) < count:
            keys.add(bytes(rng.choice(INDEX_ALPHABET) for _ in range(key_size)))
    keys = sorted(keys)
    return {key: (after * datum_size)[:datum_size] for key, after in zip(keys, keys[1:] + keys[:1])}


def index_probes(key_size, reference):
    """Every key, the lowest and highest keys, and every window of the pair bytes."""
    pairs = b"".join(key + datum for key, datum in sorted(reference.items()))
    windows = [pairs[at : at + key_size] for at in range(len(pairs) - key_size + 1)]
    return sorted(reference) + [bytes(key_size), b"\xff" * key_size] + windows


def check_probes(table, reference, probes):
    for _ in range(2):  # the first pass may build the index, the second reads it built
        for probe in probes:
            assert table.lookup(probe) == reference.get(probe), probe


def check_index_stats(table):
    """A built index: a power-of-two capacity, the smallest with entries <= MAX_LOAD * capacity."""
    entries, capacity, longest, index_bytes = table.stats()
    assert index_bytes == len(table._index) * table._index.itemsize == 4 * capacity
    assert entries == len(table)
    assert capacity & (capacity - 1) == 0
    assert entries <= MAX_LOAD * capacity
    assert capacity == 1 or entries > MAX_LOAD * capacity / 2
    assert 1 <= longest <= entries if entries else longest == 0
    return capacity


@pytest.mark.representation
@pytest.mark.parametrize("key_size", [1, 3, 8])
@pytest.mark.parametrize("datum_size", [0, 4])
def test_fence_lookups_match_a_dict(key_size, datum_size):
    # 0 to 100 keys, one insert at a time, straddle every capacity doubling from 1 to 256 slots
    everything = index_reference(key_size, datum_size, 100, seed=7)
    probes = index_probes(key_size, everything)
    order = random.Random(key_size).sample(sorted(everything), len(everything))
    table, reference, capacities = CompactTable(key_size, datum_size), {}, set()
    try:
        for key in [None] + order:
            if key is not None:
                assert table.insert(key, everything[key]) is False
                reference[key] = everything[key]
            assert table.stats() == (len(reference), 0, 0, 0)  # no index until a lookup
            accounted = accounting.totals()
            check_probes(table, reference, probes)
            assert accounting.totals() == accounted  # the index is not accounted
            capacities.add(check_index_stats(table))
        assert capacities == {1 << bits for bits in range(9)}
    finally:
        table.destroy()


@pytest.mark.representation
@pytest.mark.parametrize("key_size", [1, 3, 8])
@pytest.mark.parametrize("datum_size", [0, 4])
def test_fence_lookups_after_replace_insert_and_delete(key_size, datum_size):
    everything = index_reference(key_size, datum_size, 92, seed=11)
    probes = index_probes(key_size, everything)
    keys = sorted(everything)
    new_keys = keys[1::31]  # 3 keys left out at first
    reference = {key: datum for key, datum in everything.items() if key not in new_keys}
    table = CompactTable(key_size, datum_size)
    try:
        for key, datum in reference.items():
            table.insert(key, datum)
        check_probes(table, reference, probes)
        assert check_index_stats(table) == 128  # 89 keys
        index = table._index
        for key in sorted(reference)[::7]:  # a replace keeps the size, so the index stays
            datum = bytes(reversed(reference[key])) or reference[key]
            assert table.insert(key, datum) is True
            reference[key] = datum
        assert table._index is index
        check_probes(table, reference, probes)
        assert table._index is index
        for key in new_keys:  # each new key moves ranks: the next lookup rebuilds the index
            assert table.insert(key, bytes(datum_size)) is False
            reference[key] = bytes(datum_size)
            assert table.stats()[1:] == (0, 0, 0)
            assert table.lookup(key) == bytes(datum_size)
            check_index_stats(table)
            check_probes(table, reference, probes)
        assert check_index_stats(table) == 256  # 92 keys
        for key in keys[::30]:  # so does each delete, 4 of them
            assert table.delete(key) is True
            del reference[key]
            assert table.stats()[1:] == (0, 0, 0)
            check_probes(table, reference, probes)
            check_index_stats(table)
        assert check_index_stats(table) == 128  # 88 keys
        assert list(table.items()) == sorted(reference.items())
    finally:
        table.destroy()


@pytest.mark.representation
def test_stats_longest_probe_walks_the_index():
    table = CompactTable(8, 4)
    try:
        for n in range(0, 3000, 3):
            table.insert(n.to_bytes(8, "big"), n.to_bytes(4, "big"))
        table.lookup(bytes(8))
        index = table._index
        mask, probes = len(index) - 1, []
        for rank, (key, _) in enumerate(table.items()):
            slot, length = hash(key) & mask, 1
            while index[slot] != rank:
                slot, length = (slot + 1) & mask, length + 1
            probes.append(length)
        assert table.stats() == (1000, 2048, max(probes), 2048 * 4)
    finally:
        table.destroy()


_SALT_SCRIPT = """
import json, random
from pakit import CompactTable
for key_size, datum_size in ((1, 0), (3, 2), (8, 4)):
    rng = random.Random(key_size)
    keys = sorted({rng.randbytes(key_size) for _ in range(150)})
    absent = [rng.randbytes(key_size) for _ in range(300)]
    table = CompactTable(key_size, datum_size)
    for key in keys:
        table.insert(key, (key * datum_size)[:datum_size])
    found = [table.lookup(key) for key in keys + absent]
    table.delete(keys[len(keys) // 2])
    table.insert(absent[0], bytes(datum_size))
    found += [table.lookup(key) for key in keys + absent]
    print(json.dumps([None if d is None else d.hex() for d in found] + list(table.stats()[:2])))
    table.destroy()
"""


def test_lookups_ignore_the_hash_salt():
    # the slot layout follows the per-process bytes hash; the answers may not
    outputs = []
    for seed in ("0", "1", "random"):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", _SALT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 3
    assert "null" in outputs[0] and '"' in outputs[0]  # both hits and misses were answered


def profiled(fn, *args):
    """fn(*args), the Python frames it entered and the numpy functions it called."""
    frames, c_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)
        elif event == "c_call":
            c_calls.append(arg)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    into_numpy = [
        f for f in c_calls
        if isinstance(getattr(f, "__self__", None), (np.ndarray, np.generic))
        or (getattr(f, "__module__", None) or "").startswith("numpy")
    ]
    return result, frames, into_numpy


@pytest.mark.representation
def test_a_warmed_lookup_and_a_count_make_no_numpy_call():
    table = CompactTable(8, 4)
    unigrams = UnigramTable(16)
    for n in range(0, 400, 2):
        table.insert(n.to_bytes(8, "big"), n.to_bytes(4, "big"))
    unigrams.increment(3, 300)
    hit, miss, found = (202).to_bytes(8, "big"), (203).to_bytes(8, "big"), (202).to_bytes(4, "big")
    try:
        cold = profiled(table.lookup, hit)  # the first lookup builds the index
        warmed = [profiled(table.lookup, key) for key in (hit, miss)] + [profiled(unigrams.count, 3)]
    finally:
        table.destroy()
        unigrams.destroy()
    assert cold == (found, ["lookup", "_rank_index", "__len__"], [])
    # the probe loop runs inside lookup
    assert warmed == [(found, ["lookup"], []), (None, ["lookup"], []), (300, ["count"], [])]


@pytest.mark.representation
def test_the_index_build_peaks_at_the_size_of_the_index():
    # the keys stream from the pair buffer, so only the index is held
    count = 20_000
    stream = BytesIO()
    wire.write_records(stream, count, b"".join(
        n.to_bytes(8, "big") + n.to_bytes(4, "big") for n in range(0, 3 * count, 3)))
    stream.seek(0)
    table = CompactTable.read(stream, 8, 4)
    try:
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            assert table.lookup((3 * 777).to_bytes(8, "big")) == (3 * 777).to_bytes(4, "big")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index = table._index
        assert peak - live <= len(index) * index.itemsize + 64 * 1024
        assert table.stats().index_bytes == len(index) * index.itemsize == 32768 * 4
    finally:
        table.destroy()
