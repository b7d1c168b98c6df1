import hashlib
import random
from io import BytesIO

import pytest

from pakit import accounting
from pakit.errors import ContractFault, DecodeFault, DomainFault, RangeFault
from pakit.trie import Trie


def test_indices_follow_insertion_order():
    t = Trie(1)
    assert t.index_of([2, 5]) == 0
    assert t.index_of([2, 7]) == 1
    assert t.index_of([2, 5]) == 0
    t.destroy()


def test_empty_string_is_a_string():
    t = Trie(1)
    assert t.index_of([]) == 0
    assert t.string_of(0) == ()
    t.destroy()


def test_find_does_not_intern():
    t = Trie(1)
    t.index_of([2, 5])
    assert t.find([2, 5]) == 0
    assert t.find([9, 9]) is None
    assert len(t) == 1
    t.destroy()


def test_prefix_is_not_assigned():
    t = Trie(1)
    t.index_of([2, 5])
    assert t.find([2]) is None
    t.destroy()


def test_find_on_empty_trie():
    t = Trie(1)
    assert t.find([1]) is None
    t.destroy()


def test_string_of_first_insert():
    t = Trie(1)
    t.index_of([2, 5])
    assert t.string_of(0) == (2, 5)
    t.destroy()


def test_string_of_out_of_range():
    t = Trie(1)
    t.index_of([1])
    with pytest.raises(RangeFault):
        t.string_of(1)
    t.destroy()


def test_size():
    t = Trie(1)
    assert len(t) == 0
    t.index_of([1])
    t.index_of([2])
    t.index_of([3])
    assert len(t) == 3
    t.index_of([2])
    assert len(t) == 3
    t.destroy()


def test_symbol_out_of_range_faults():
    t = Trie(1)
    with pytest.raises(RangeFault):
        t.index_of([256])
    with pytest.raises(RangeFault):
        t.index_of([-1])
    t.destroy()


def test_bad_symbol_width_faults():
    with pytest.raises(DomainFault):
        Trie(3)


def test_wide_symbols():
    t = Trie(8)
    big = (1 << 64) - 1
    assert t.index_of([big, 0, big]) == 0
    assert t.string_of(0) == (big, 0, big)
    t.destroy()


def test_matches_first_seen_oracle():
    # Oracle: dict mapping tuple -> first-seen counter.
    rng = random.Random(77)
    t = Trie(2)
    oracle = {}
    for _ in range(10_000):
        length = rng.randrange(0, 6)
        string = tuple(rng.randrange(40) for _ in range(length))
        expected = oracle.setdefault(string, len(oracle))
        assert t.index_of(string) == expected
    assert len(t) == len(oracle)
    # bijection both ways, indices dense by construction of the oracle
    for string, index in oracle.items():
        assert t.find(string) == index
        assert t.string_of(index) == string
        assert t.index_of(t.string_of(index)) == index
    t.destroy()


def test_serialization_roundtrip():
    t = Trie(2)
    strings = [(3,), (3, 300), (), (1, 2, 3, 4), (300,)]
    for s in strings:
        t.index_of(s)
    stream = BytesIO()
    t.write(stream)
    stream.seek(0)
    loaded = Trie.read(stream, symbol_width=2)
    assert stream.read() == b""
    assert len(loaded) == len(t)
    for index in range(len(t)):
        assert loaded.string_of(index) == t.string_of(index)
    # reserialization is bit-identical
    first, second = BytesIO(), BytesIO()
    t.write(first)
    loaded.write(second)
    assert first.getvalue() == second.getvalue()
    t.destroy()
    loaded.destroy()


def test_destroy_releases_every_node_table():
    before = accounting.totals()
    t = Trie(1)
    for i in range(50):
        t.index_of([i, (i * 7) % 256, (i * 13) % 256])
    assert accounting.totals() != before
    t.destroy()
    assert accounting.totals() == before


def test_use_after_destroy_faults():
    t = Trie(1)
    t.destroy()
    with pytest.raises(ContractFault):
        t.index_of([1])


def test_whole_trie_is_one_accounting_block():
    blocks_before, _ = accounting.totals()
    t = Trie(2)
    for i in range(500):
        t.index_of([i % 7, i, 3 * i])
    assert len(t) == 500
    assert accounting.totals()[0] == blocks_before + 1
    t.destroy()


def test_write_format_is_unchanged():
    # Digest taken from the per-node trie that the edge store replaced, so it
    # pins the wire format byte for byte.
    t = Trie(2)
    strings = [
        (3,), (3, 300), (), (1, 2, 3, 4), (300,), (65535, 0, 65535), (7, 7, 7, 7, 7), (3, 300, 1),
    ]
    for s in strings:
        t.index_of(s)
    stream = BytesIO()
    t.write(stream)
    assert len(stream.getvalue()) == 110
    assert hashlib.sha256(stream.getvalue()).hexdigest() == (
        "b206c3d19ff19319566f73b7be3d6588eaf83a30ce22a80de85afe5e6b379c8f"
    )
    t.destroy()


def test_footprint_counts_nodes_made_before_a_range_fault():
    blocks_before, bytes_before = accounting.totals()
    t = Trie(1)
    with pytest.raises(RangeFault):
        t.index_of([1, 2, 300])
    # root plus the nodes for 1 and 2, two edges, no string yet
    nodes, edges, strings = 3, 2, 0
    footprint = 48 + nodes * (16 + 1) + 16 * edges + 8 * strings
    assert accounting.totals() == (blocks_before + 1, bytes_before + footprint)
    assert len(t) == 0
    assert t.index_of([1, 2]) == 0  # the prefix is already there: only an index is added
    assert accounting.totals() == (blocks_before + 1, bytes_before + footprint + 8)
    t.destroy()
    assert accounting.totals() == (blocks_before, bytes_before)


def test_find_symbol_out_of_range_faults():
    t = Trie(1)
    with pytest.raises(RangeFault):
        t.find([256])
    with pytest.raises(RangeFault):
        t.find([-1])
    t.destroy()


def test_read_rejects_duplicate_string():
    # two strings, both (5,) at width 1
    stream = BytesIO(
        bytes.fromhex("0000000000000002" "0000000000000001" "05" "0000000000000001" "05")
    )
    with pytest.raises(DecodeFault):
        Trie.read(stream, symbol_width=1)


def test_read_truncated_string_faults():
    t = Trie(4)
    t.index_of([1, 2, 3])
    stream = BytesIO()
    t.write(stream)
    t.destroy()
    with pytest.raises(DecodeFault):
        Trie.read(BytesIO(stream.getvalue()[:-1]), symbol_width=4)
