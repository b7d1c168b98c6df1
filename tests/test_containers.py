"""The contract all five containers share: one registry block, destroy once, pinned bytes.

The footprints and SHA-256 digests below are the values of the code
before the containers shared a base class; `model_bytes` and
`wire_bytes` in the benchmark are built from exactly these numbers.
"""

import hashlib
import random
from io import BytesIO

import pytest

from pakit import accounting
from pakit.compact_table import CompactTable
from pakit.errors import ContractFault, DomainFault
from pakit.hashing import HashTable, string_spec, symbol_spec
from pakit.trie import Trie
from pakit.unigram import UnigramTable
from pakit.vector import Vector

# name: (make a live container, one checked operation on it)
CONTAINERS = {
    "Vector": (lambda: Vector(2, [b"ab"]), lambda c: c.append(b"cd")),
    "CompactTable": (lambda: CompactTable(4, 1), lambda c: c.lookup(b"abcd")),
    "Trie": (lambda: Trie(1), lambda c: c.index_of(b"ab")),
    "UnigramTable": (lambda: UnigramTable(4), lambda c: c.increment(0)),
    "HashTable": (lambda: HashTable(symbol_spec()), lambda c: c.find(1)),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_lifecycle(name):
    make, use = CONTAINERS[name]
    before = accounting.totals()
    container = make()
    use(container)
    assert accounting.totals()[0] == before[0] + 1
    container.destroy()
    assert accounting.totals() == before
    with pytest.raises(ContractFault, match="destroyed %s$" % name):
        use(container)
    with pytest.raises(ContractFault, match="destroyed %s$" % name):
        container.destroy()
    assert accounting.totals() == before


def _grown(before) -> int:
    return accounting.totals()[1] - before[1]


def _reread(container, read):
    stream = BytesIO()
    container.write(stream)
    stream.seek(0)
    return read(stream)


def test_vector_footprint():
    before = accounting.totals()
    v = Vector(8)
    assert _grown(before) == 32
    for i in range(10):
        v.append(i.to_bytes(8, "big"))
    assert _grown(before) == 112
    v.insert(3, b"x" * 8)
    assert _grown(before) == 120
    joined = v.concat(v)
    assert _grown(before) == 328
    joined.destroy()
    loaded = _reread(v, lambda s: Vector.read(s, 8))
    assert _grown(before) == 240
    loaded.destroy()
    v.destroy()


def test_compact_table_footprint():
    before = accounting.totals()
    t = CompactTable(4, 4)
    assert _grown(before) == 48
    for i in range(100):
        t.insert(i.to_bytes(4, "big"), i.to_bytes(4, "big"))
    assert _grown(before) == 848
    t.delete((5).to_bytes(4, "big"))
    assert _grown(before) == 840
    loaded = _reread(t, lambda s: CompactTable.read(s, 4, 4))
    assert _grown(before) == 1680
    loaded.destroy()
    t.destroy()
    keys_only = CompactTable(3, 0)
    keys_only.insert(b"abc", b"")
    assert _grown(before) == 51
    keys_only.destroy()


def test_unigram_footprint():
    before = accounting.totals()
    u = UnigramTable(1000)
    assert _grown(before) == 1048
    for symbol, by, grown in ((0, 300, 2048), (1, 70_000, 4048), (2, 1 << 40, 8048)):
        u.increment(symbol, by)
        assert _grown(before) == grown
    loaded = _reread(u, UnigramTable.read)
    assert _grown(before) == 16096
    loaded.destroy()
    u.destroy()


@pytest.mark.parametrize(
    "spec, key, empty, full",
    [
        (symbol_spec(8), int, 176, 4144),
        (symbol_spec(4), int, 144, 3120),
        (string_spec(), lambda i: str(i).encode(), 240, 6192),  # key_size None
    ],
    ids=["key_size_8", "key_size_4", "key_size_none"],
)
def test_hash_table_footprint(spec, key, empty, full):
    before = accounting.totals()
    t = HashTable(spec, initial_capacity=8)
    assert _grown(before) == empty
    for i in range(100):
        t.insert(key(i), i)
    assert t.capacity == 256
    assert _grown(before) == full
    t.destroy()


def test_trie_footprint():
    before = accounting.totals()
    t = Trie(1)
    assert _grown(before) == 65
    t.index_of(b"ab")
    assert _grown(before) == 139
    t.index_of(b"a")
    assert _grown(before) == 147
    t.destroy()
    wide = Trie(4)
    wide.index_of((1, 2, 3))
    assert _grown(before) == 184
    wide.destroy()


def _sha256_of_write(container) -> str:
    stream = BytesIO()
    container.write(stream)
    return hashlib.sha256(stream.getvalue()).hexdigest()


def test_vector_write_bytes():
    rng = random.Random(8)
    v = Vector(3, [rng.randrange(1 << 24).to_bytes(3, "big") for _ in range(500)])
    assert _sha256_of_write(v) == "b840b82242a3ae01a17099df64319cb1bf329d1695c64483b63cc43f8aab8d55"
    v.sort()
    assert _sha256_of_write(v) == "ed18f5cc1e1d0a902c60458e3d79355d806ad66611f9eae44f8bec2cdc7c0d66"
    v.destroy()


def test_compact_table_write_bytes():
    rng = random.Random(9)
    t = CompactTable(4, 2)
    for _ in range(300):
        t.insert(rng.randrange(1 << 32).to_bytes(4, "big"), rng.randrange(1 << 16).to_bytes(2, "big"))
    assert _sha256_of_write(t) == "a4f4c13d15cdee6c79d1d9f5d9366f4bf7b802bc66df9a83fe46b599f3330dc7"
    t.destroy()


@pytest.mark.parametrize(
    "read",
    [
        lambda s: Vector.read(s, 0),
        lambda s: CompactTable.read(s, 0, 4),
        lambda s: CompactTable.read(s, 4, -1),
    ],
    ids=["vector_element_size", "compact_table_key_size", "compact_table_datum_size"],
)
def test_read_checks_arguments_before_reading(read):
    stream = BytesIO((3).to_bytes(8, "big") + bytes(12))
    with pytest.raises(DomainFault):
        read(stream)
    assert stream.tell() == 0
