"""Hash-table toolkit: open addressing with double hashing and tombstones.

A HashSpec bundles the key operations (two independent hash functions
and an equality test).  HashTable keeps its entries in two parallel
columns of power-of-two capacity, keys and data, as in KenLM's flat
probing tables (Heafield 2011): the key column also holds the empty
(None) and tombstone markers, and a bytearray occupancy map is 1
exactly at the live slots, so a count writes one datum cell and builds
no (key, datum) tuple.  The probe sequence for a key is

    slot(i) = (hash1(key) + i * step) mod capacity,   step = hash2(key) | 1

and forcing the step odd guarantees it visits every slot.  The step is
computed lazily (Knuth's Algorithm D, TAOCP vol. 3, 6.4): only when the
first slot holds a tombstone or another key, so below MAX_LOAD most
operations hash once.  Deleted slots become tombstones so probe chains
stay intact; the table rehashes in place once tombstones outnumber live
entries, and doubles once the combined load passes MAX_LOAD.

One probe helper serves find, insert, remove and rehash.  find leaves
its probe result behind as a hint, and an insert of the same key with
no mutation in between reuses it, so counting with
`insert(key, find(key, 0) + 1)` hashes the key once.

Two ready-made specs cover the common cases: symbol_spec() hashes
fixed-width unsigned integers, string_spec() hashes length-delimited
byte strings (embedded zero bytes are fine).

symbol_spec hashes a key x as CPython's tuple hash of (x, 0) and of
(0, x), which runs xxHash's mixing rounds in C (Collet, xxHash) and,
unlike the str and bytes hashes, is not salted per process, so slot
layout repeats from run to run.  Each hash then folds its high 32 bits
into the low ones (h ^ (h >> 32)): the table masks the low bits, and
without the fold structured keys cluster there (up to 358 probes for
one find of 45,000 consecutive integers, against 27 with it).  The
tuple hash reduces an int modulo 2**61 - 1 first, so keys congruent
modulo that prime share both hashes; below 2**64 that is at most 9 keys
(8 for most residues), which key_equal still tells apart.

string_spec keeps FNV-1a and djb2 in Python: hash(bytes) is salted per
process, so it would change slot layout and iteration order between
runs.
"""

import operator
from itertools import compress
from typing import Callable, NamedTuple, Optional

from .accounting import Container
from .errors import ContractFault, DomainFault

MAX_LOAD = 0.7
_MASK64 = (1 << 64) - 1

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a over a byte string."""
    h = FNV64_OFFSET_BASIS
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


def djb2_64(data: bytes) -> int:
    """64-bit multiplicative string hash, independent of FNV-1a."""
    h = 5381
    for b in data:
        h = (h * 33 + b) & _MASK64
    return h


class HashSpec(NamedTuple):
    """Key operations parameterizing a HashTable.

    key_size is the fixed key width in bytes, or None for
    variable-length keys; it only feeds the logical footprint estimate.
    Keys that key_equal calls equal must hash alike under both hashes.
    """

    key_size: Optional[int]
    hash1: Callable[[object], int]
    hash2: Callable[[object], int]
    key_equal: Callable[[object, object], bool]


class HashStats(NamedTuple):
    """A HashTable's occupancy and probe lengths, as HashTable.stats() computes them.

    load is live entries over capacity; probe_lengths maps n to the number of live keys a
    find reaches on the n-th slot of its probe sequence, in increasing n.
    """

    entries: int
    capacity: int
    tombstones: int
    load: float
    probe_lengths: dict


def _symbol_hash1(x: int) -> int:
    """symbol_spec's first hash: CPython's tuple hash of (x, 0), high half folded into the low."""
    h = hash((x, 0))
    return h ^ (h >> 32)


def _symbol_hash2(x: int) -> int:
    """symbol_spec's second hash: the same over (0, x), so the key feeds the other lane."""
    h = hash((0, x))
    return h ^ (h >> 32)


def symbol_spec(key_size: int = 8) -> HashSpec:
    """Spec for fixed-width unsigned integer keys."""
    return HashSpec(key_size=key_size, hash1=_symbol_hash1, hash2=_symbol_hash2, key_equal=operator.eq)


def string_spec() -> HashSpec:
    """Spec for length-delimited byte-string keys."""
    return HashSpec(key_size=None, hash1=fnv1a_64, hash2=djb2_64, key_equal=operator.eq)


class _Tombstone:
    """Marks a removed key in the key column, so probe chains stay intact."""

    __slots__ = ()

    def __repr__(self):
        return "<tombstone>"


_TOMBSTONE = _Tombstone()
_ABSENT = object()
_NO_HINT = (_ABSENT, -1, -1, -1)  # key, _mods, found, free of the last find


class HashTable(Container):
    """Open-addressing <key, datum> table driven by a HashSpec."""

    __slots__ = (
        "_spec", "_hash1", "_hash2", "_key_equal", "_keys", "_data", "_live_map", "_mask", "_limit",
        "_live", "_tombstones", "_mods", "_hint",
    )

    def __init__(self, spec: HashSpec, initial_capacity: int = 8):
        if initial_capacity < 1 or initial_capacity & (initial_capacity - 1):
            raise DomainFault("capacity must be a power of two, got %d" % initial_capacity)
        self._spec = spec
        self._hash1, self._hash2, self._key_equal = spec.hash1, spec.hash2, spec.key_equal
        self._build(initial_capacity)
        self._live = 0
        self._tombstones = 0
        self._mods = 0
        self._hint = _NO_HINT
        super().__init__(self._slot_bytes * initial_capacity)

    def _build(self, capacity: int) -> None:
        """Empty columns of `capacity` slots, with the mask and growth limit they imply."""
        self._keys = [None] * capacity
        self._data = [None] * capacity
        self._live_map = bytearray(capacity)
        self._mask = capacity - 1
        self._limit = MAX_LOAD * capacity

    @property
    def spec(self) -> HashSpec:
        """The spec the table was built with; read-only, as its callables are bound."""
        return self._spec

    @property
    def _slot_bytes(self) -> int:
        return (self._spec.key_size if self._spec.key_size is not None else 16) + 8

    @property
    def _slots(self) -> list:
        """The columns as one slot list: None, the tombstone, or a live (key, datum) pair."""
        return [(key, datum) if live else key
                for key, datum, live in zip(self._keys, self._data, self._live_map)]

    def __len__(self) -> int:
        return self._live

    @property
    def capacity(self) -> int:
        return self._mask + 1

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    def _probe(self, key):
        """Return (slot holding key or -1, slot an insert of key would fill).

        When key is absent, the free slot is the probe path's first tombstone, else the
        empty slot that ends the path.
        """
        keys = self._keys
        mask = self._mask
        index = self._hash1(key) & mask
        other = keys[index]
        if other is None:
            return -1, index
        if other is not _TOMBSTONE and self._key_equal(other, key):
            return index, index
        free = index if other is _TOMBSTONE else -1
        step = self._hash2(key) | 1
        while True:
            index = (index + step) & mask
            other = keys[index]
            if other is None:
                return -1, index if free < 0 else free
            if other is _TOMBSTONE:
                if free < 0:
                    free = index
            elif self._key_equal(other, key):
                return index, free

    def _rehash(self, new_capacity: int) -> None:
        entries = compress(zip(self._keys, self._data), self._live_map)  # over the old columns
        self._build(new_capacity)
        self._tombstones = 0
        self._mods += 1
        keys, data, live_map = self._keys, self._data, self._live_map
        for key, datum in entries:  # old-slot order, into a table with no tombstones
            free = self._probe(key)[1]
            keys[free] = key
            data[free] = datum
            live_map[free] = 1
        self._resize(self._slot_bytes * new_capacity)

    def insert(self, key, datum) -> bool:
        """Map key to datum; returns True if an existing datum was replaced.

        A replace keeps the stored key, as `dict` does.
        """
        if key is None:  # None marks an empty slot in the key column; refused before any growth
            raise DomainFault("a HashTable key cannot be None")
        if self._live + self._tombstones + 1 > self._limit:
            self._rehash((self._mask + 1) * (1 if self._tombstones > self._live else 2))
        hint_key, mods, found, free = self._hint
        if mods != self._mods or (hint_key is not key and not self._key_equal(hint_key, key)):
            found, free = self._probe(key)
        if found >= 0:
            self._mods += 1
            self._data[found] = datum
            return True
        self._mods += 1
        keys = self._keys
        if keys[free] is _TOMBSTONE:
            self._tombstones -= 1
        keys[free] = key
        self._data[free] = datum
        self._live_map[free] = 1
        self._live += 1
        return False

    def find(self, key, default=None):
        """Return the datum mapped to key, or `default` when absent."""
        if key is None:  # no key is None, so the spec's hashes never see it
            return default
        found, free = self._probe(key)
        self._hint = (key, self._mods, found, free)
        return default if found < 0 else self._data[found]

    def __contains__(self, key) -> bool:
        return self.find(key, _ABSENT) is not _ABSENT

    def remove(self, key) -> bool:
        """Remove key if present (leaving a tombstone); True iff it was there."""
        if key is None:
            return False
        found = self._probe(key)[0]
        if found < 0:
            return False
        self._keys[found] = _TOMBSTONE
        self._data[found] = None
        self._live_map[found] = 0
        self._live -= 1
        self._tombstones += 1
        self._mods += 1
        if self._tombstones > self._live:
            self._rehash(self._mask + 1)
        return True

    def stats(self) -> HashStats:
        """Occupancy and probe-length histogram, computed now by walking each live key's probe path.

        No operation counts anything for this; it costs one hash1 per live key, plus a hash2
        for each key off its first slot.
        """
        keys, mask, capacity = self._keys, self._mask, self._mask + 1
        lengths = {}
        for slot in compress(range(capacity), self._live_map):
            key = keys[slot]
            index = self._hash1(key) & mask
            length = 1
            if index != slot:
                step = self._hash2(key) | 1
                while index != slot:
                    index = (index + step) & mask
                    length += 1
            lengths[length] = lengths.get(length, 0) + 1
        return HashStats(self._live, capacity, self._tombstones, self._live / capacity, dict(sorted(lengths.items())))

    def items(self):
        """Iterator over each live (key, datum) once, in unspecified order."""
        return self._live_entries(self._mods)

    def _live_entries(self, mods: int):
        for entry in compress(zip(self._keys, self._data), self._live_map):
            if mods != self._mods:
                raise ContractFault("HashTable mutated during iteration")
            yield entry
        if mods != self._mods:  # a mutation after the last live slot
            raise ContractFault("HashTable mutated during iteration")
