"""The contract all five containers share: one registry block, destroy once, pinned bytes.

The footprints and SHA-256 digests below are the values of the code
before the containers shared a base class, except the `Trie` footprint,
which follows the whole-string layout that replaced its nodes;
`model_bytes` and `wire_bytes` in the benchmark are built from exactly
these numbers.
"""

import hashlib
import random
import sys
import threading
import tracemalloc
from io import BytesIO

import pytest

from pakit import accounting, wire
from pakit.compact_table import CompactTable
from pakit.errors import ContractFault, DecodeFault, DomainFault
from pakit.hashing import HashTable
from pakit.trie import Trie
from pakit.unigram import UnigramTable
from pakit.vector import Vector


def _hash(container):
    """hash() of a live container; Vector and UnigramTable compare by value, so they have none."""
    try:
        return hash(container)
    except TypeError:
        return None


COMPARISONS = (lambda c: c == c, lambda c: c != c, _hash)

# name: (make a live container, one checked operation on it, reads that must fault once destroyed)
CONTAINERS = {
    "Vector": (
        lambda: Vector(2, [b"ab"]), lambda c: c.append(b"cd"), (len, iter, lambda c: c.element_size) + COMPARISONS
    ),
    "CompactTable": (
        lambda: CompactTable(4, 1),
        lambda c: c.lookup(b"abcd"),
        (len, lambda c: c.items(), lambda c: c.key_size) + COMPARISONS,
    ),
    "Trie": (lambda: Trie(1), lambda c: c.index_of(b"ab"), (len, lambda c: c.symbol_width) + COMPARISONS),
    "UnigramTable": (
        lambda: UnigramTable(4),
        lambda c: c.increment(0),
        (lambda c: c.counter_width, lambda c: c.alphabet_size) + COMPARISONS,
    ),
    "HashTable": (
        lambda: HashTable(8),
        lambda c: c.find(1),
        (len, lambda c: c.capacity, lambda c: c.items(), lambda c: c.key_size) + COMPARISONS,
    ),
}
CLASSES = {cls.__name__: cls for cls in (Vector, CompactTable, Trie, UnigramTable, HashTable)}


@pytest.mark.parametrize("name", CONTAINERS)
def test_lifecycle(name):
    make, use, reads = CONTAINERS[name]
    before = accounting.totals()
    container = make()
    use(container)
    for read in reads:
        read(container)
    assert accounting.totals()[0] == before[0] + 1
    container.destroy()
    assert accounting.totals() == before
    with pytest.raises(ContractFault, match="destroyed %s$" % name):
        use(container)
    for read in reads:
        with pytest.raises(ContractFault, match="destroyed %s$" % name):
            read(container)
    with pytest.raises(ContractFault, match="destroyed %s$" % name):
        container.destroy()
    assert accounting.totals() == before


@pytest.mark.parametrize("name", CONTAINERS)
def test_destroyed_container_keeps_its_class(name):
    container = CONTAINERS[name][0]()
    container.destroy()
    cls = CLASSES[name]
    assert [other for other in CLASSES.values() if isinstance(container, other)] == [cls]
    assert repr(container).startswith("<%s.%s object at " % (cls.__module__, name))


def _filled(container, pairs):
    for key, datum in pairs:
        container.insert(key, datum)
    return container


# name: (make a live container of two entries, start iterating over it)
ITERATED = {
    "Vector": (lambda: Vector(1, [b"a", b"b"]), iter),
    "CompactTable": (lambda: _filled(CompactTable(1, 0), [(b"a", b""), (b"b", b"")]), lambda c: c.items()),
    "HashTable": (lambda: _filled(HashTable(8), [(1, 1), (2, 2)]), lambda c: c.items()),
}


@pytest.mark.parametrize("name", ITERATED)
def test_destroy_mid_iteration_faults_at_the_next_step(name):
    make, iterate = ITERATED[name]
    container = make()
    entries = iterate(container)
    next(entries)
    container.destroy()
    with pytest.raises(ContractFault, match="destroyed %s$" % name):
        next(entries)


def test_table_that_grows_mid_iteration_faults_at_the_next_step():
    table = _filled(CompactTable(1, 0), [(b"b", b""), (b"c", b""), (b"d", b"")])
    entries = table.items()
    assert next(entries) == (b"b", b"")
    table.insert(b"a", b"")  # shifts every pair: the rest would give b again and never d
    with pytest.raises(ContractFault, match="CompactTable changed size during iteration"):
        next(entries)
    table.destroy()


def test_table_with_a_delete_then_an_insert_mid_iteration_faults():
    table = _filled(CompactTable(1, 0), [(b"b", b""), (b"c", b""), (b"d", b"")])
    entries = table.items()
    assert next(entries) == (b"b", b"")
    table.delete(b"d")
    table.insert(b"a", b"")  # the size is back to 3, but the rest would give b again and c
    with pytest.raises(ContractFault, match="CompactTable changed size during iteration"):
        next(entries)
    table.destroy()


def test_vector_that_grows_mid_iteration_faults_at_the_next_step():
    vector = Vector(1, [b"x", b"y"])
    elements = iter(vector)
    assert next(elements) == b"x"
    vector.insert(0, b"w")  # shifts every element: the rest would give x again and never y
    with pytest.raises(ContractFault, match="Vector changed size during iteration"):
        next(elements)
    vector.destroy()


@pytest.mark.parametrize(
    "more, ends",
    [(lambda: [], False), (lambda: iter(()), False), (lambda: [b"z"], True)],
    ids=["empty_list", "empty_iterator", "one_element"],
)
def test_vector_extend_mid_iteration_ends_it_only_when_it_adds(more, ends):
    vector = Vector(1, [b"x", b"y"])
    elements = iter(vector)
    assert next(elements) == b"x"
    vector.extend(more())
    if ends:
        with pytest.raises(ContractFault, match="Vector changed size during iteration"):
            next(elements)
    else:
        assert list(elements) == [b"y"]
    vector.destroy()


# name: (make a container of one entry, start iterating, change its size, write in place)
RESIZED = {
    "Vector": (lambda: Vector(1, [b"a"]), iter, lambda c: c.append(b"b"), lambda c: c.__setitem__(0, b"z")),
    "CompactTable": (
        lambda: _filled(CompactTable(1, 1), [(b"a", b"1")]),
        lambda c: c.items(),
        lambda c: c.delete(b"a"),
        lambda c: c.insert(b"a", b"2"),
    ),
}


@pytest.mark.parametrize("name", RESIZED)
def test_size_change_after_the_last_entry_faults(name):
    make, iterate, resize, _ = RESIZED[name]
    container = make()
    entries = iterate(container)
    next(entries)
    resize(container)
    with pytest.raises(ContractFault, match="changed size during iteration"):
        next(entries)
    container.destroy()


@pytest.mark.parametrize("name", RESIZED)
def test_write_in_place_mid_iteration_does_not_fault(name):
    make, iterate, _, write = RESIZED[name]
    container = make()
    entries = iterate(container)
    next(entries)
    write(container)
    assert list(entries) == []
    container.destroy()


def _vector():
    return Vector(3, [b"abc"])


def _table():
    return _filled(CompactTable(2, 1), [(b"ky", b"d")])


# each call that takes a fixed-size block: (make a container, pass it the block, block size)
BLOCK_CALLS = {
    "Vector.append": (_vector, lambda c, block: c.append(block), 3),
    "Vector.insert": (_vector, lambda c, block: c.insert(0, block), 3),
    "Vector.__setitem__": (_vector, lambda c, block: c.__setitem__(0, block), 3),
    "CompactTable.insert key": (_table, lambda c, block: c.insert(block, b"e"), 2),
    "CompactTable.insert datum": (_table, lambda c, block: c.insert(b"ky", block), 1),
    "CompactTable.lookup": (_table, lambda c, block: c.lookup(block), 2),
    "CompactTable.delete": (_table, lambda c, block: c.delete(block), 2),
}


def _contents(container):
    return list(container) if isinstance(container, Vector) else list(container.items())


@pytest.mark.parametrize("value", [int, lambda size: [0] * size, lambda size: "k" * size], ids=["int", "list", "str"])
@pytest.mark.parametrize("call", BLOCK_CALLS)
def test_a_block_that_is_not_bytes_like_faults(call, value):
    make, use, size = BLOCK_CALLS[call]
    container = make()
    before = _contents(container)
    with pytest.raises(ContractFault, match="must be bytes-like"):
        use(container, value(size))  # bytes(2) would be two zero bytes
    assert _contents(container) == before
    container.destroy()


@pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("call", BLOCK_CALLS)
def test_every_bytes_like_block_is_taken_as_its_bytes(call, form):
    make, use, size = BLOCK_CALLS[call]
    container, reference = make(), make()
    block = b"ky"[:size] if call.startswith("CompactTable") else b"xyz"
    assert use(container, form(block)) == use(reference, block)
    assert _contents(container) == _contents(reference)
    container.destroy()
    reference.destroy()


@pytest.mark.parametrize("name", CONTAINERS)
def test_racing_destroys_of_one_container_succeed_once(name):
    threads = 8
    before = accounting.totals()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            container = CONTAINERS[name][0]()
            barrier = threading.Barrier(threads)
            outcomes = []

            def destroy():
                barrier.wait(timeout=10)
                try:
                    container.destroy()
                    outcomes.append("destroyed")
                except ContractFault as fault:
                    outcomes.append(str(fault))

            workers = [threading.Thread(target=destroy) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
            assert sorted(outcomes) == ["destroyed"] + ["operation on a destroyed %s" % name] * (threads - 1)
            assert accounting.totals() == before
    finally:
        sys.setswitchinterval(interval)


def _grown(before) -> int:
    return accounting.totals()[1] - before[1]


def _reread(container, read):
    stream = BytesIO()
    container.write(stream)
    stream.seek(0)
    return read(stream)


def _unigram_counts():
    table = UnigramTable(4)
    table.increment(1, 300)
    return table


def _trie_of(*strings):
    trie = Trie(1)
    for string in strings:
        trie.index_of(string)
    return trie


# name: (a container holding entries, its shape fields, its read given those fields)
SHAPED = {
    "Vector": (lambda: Vector(2, [b"ab", b"cd"]), ("element_size",), lambda s: Vector.read(s, 2)),
    "CompactTable": (_table, ("key_size", "datum_size"), lambda s: CompactTable.read(s, 2, 1)),
    "Trie": (lambda: _trie_of(b"ab", b"c"), ("symbol_width",), lambda s: Trie.read(s, 1)),
    "UnigramTable": (_unigram_counts, ("alphabet_size",), UnigramTable.read),
}


@pytest.mark.parametrize("name", SHAPED)
def test_shape_fields_are_read_only(name):
    # each field sizes the container's storage, so assigning one would corrupt it
    make, fields, read = SHAPED[name]
    container = make()
    shape = [getattr(container, field) for field in fields]
    written = _sha256_of_write(container)
    for field, value in zip(fields, shape):
        with pytest.raises(AttributeError):
            setattr(container, field, value + 1)
    assert [getattr(container, field) for field in fields] == shape
    copy = _reread(container, read)
    assert [getattr(copy, field) for field in fields] == shape
    assert _sha256_of_write(copy) == _sha256_of_write(container) == written
    copy.destroy()
    container.destroy()


@pytest.mark.representation
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


@pytest.mark.representation
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


@pytest.mark.representation
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


@pytest.mark.representation
@pytest.mark.parametrize(
    "key_size, key, empty, full",
    [
        (8, int, 176, 4144),
        (4, int, 144, 3120),
        (None, lambda i: str(i).encode(), 240, 6192),
    ],
    ids=["key_size_8", "key_size_4", "key_size_none"],
)
def test_hash_table_footprint(key_size, key, empty, full):
    before = accounting.totals()
    t = HashTable(key_size)
    assert _grown(before) == empty
    for i in range(100):
        t.insert(key(i), i)
    assert t.capacity == 256
    assert _grown(before) == full
    t.destroy()


@pytest.mark.representation
def test_trie_footprint():
    before = accounting.totals()
    # header 48, then 24 per string and symbol_width per symbol
    t = Trie(1)
    assert _grown(before) == 48
    t.index_of(b"ab")
    assert _grown(before) == 74
    t.index_of(b"a")
    assert _grown(before) == 99
    t.destroy()
    wide = Trie(4)
    wide.index_of((1, 2, 3))
    assert _grown(before) == 84
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_sorted_vector_stream_reads_as_a_compact_table(seed):
    rng = random.Random(seed)
    pairs = {rng.randrange(1 << 16).to_bytes(2, "big"): rng.randbytes(3) for _ in range(rng.randrange(300))}
    records = Vector(2 + 3, [key + datum for key, datum in pairs.items()])
    records.sort()
    table = _reread(records, lambda s: CompactTable.read(s, 2, 3))
    assert list(table.items()) == sorted(pairs.items())
    assert _sha256_of_write(table) == _sha256_of_write(records)
    table.destroy()
    records.destroy()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_unsorted_vector_stream_is_refused_at_its_first_bad_rank(seed):
    rng = random.Random(seed)
    keys = [rng.randrange(1 << 8).to_bytes(2, "big") for _ in range(40)]  # some repeat
    rank = next(rank for rank in range(1, len(keys)) if keys[rank] <= keys[rank - 1])
    records = Vector(2 + 1, [key + b"d" for key in keys])
    stream = BytesIO()
    records.write(stream)
    records.destroy()
    stream.seek(0)
    before = accounting.totals()
    with pytest.raises(DecodeFault, match=r"^stream keys not strictly sorted at rank %d$" % rank):
        CompactTable.read(stream, 2, 1)
    assert accounting.totals() == before


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


@pytest.mark.parametrize(
    "read", [lambda s: Vector.read(s, 12), lambda s: CompactTable.read(s, 8, 4)], ids=["Vector", "CompactTable"]
)
def test_a_read_copies_its_payload_once(read):
    """A read peaks at the payload read from the stream plus the store it fills, about 2x the payload."""
    count = wire.READ_CHUNK_BYTES // 12 + 50_000  # one run longer than a chunk, so the wire joins chunks
    payload = b"".join(rank.to_bytes(8, "big") + b"\xd4\xd4\xd4\xd4" for rank in range(count))
    stream = BytesIO(count.to_bytes(8, "big") + payload)
    tracemalloc.start()
    try:
        container = read(stream)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(container) == count
    container.destroy()
    assert live < 1.1 * len(payload)
    assert peak <= 2.1 * len(payload)
