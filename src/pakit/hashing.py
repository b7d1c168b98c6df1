"""Hash-table toolkit: open addressing with double hashing and tombstones.

A HashSpec bundles the key operations (two independent hash functions
and an equality test); HashTable stores all entries in one slot array of
power-of-two capacity.  The probe sequence for a key is

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
"""

import operator
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


def mix64(x: int) -> int:
    """Finalizing mixer for integer keys (splitmix64 finale)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


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


def salted_mix64(x: int) -> int:
    """mix64 of the key xor a fixed salt: symbol_spec's second hash."""
    return mix64((x & _MASK64) ^ 0x9E3779B97F4A7C15)


def symbol_spec(key_size: int = 8) -> HashSpec:
    """Spec for fixed-width unsigned integer keys."""
    return HashSpec(key_size=key_size, hash1=mix64, hash2=salted_mix64, key_equal=operator.eq)


def string_spec() -> HashSpec:
    """Spec for length-delimited byte-string keys."""
    return HashSpec(key_size=None, hash1=fnv1a_64, hash2=djb2_64, key_equal=operator.eq)


class _Tombstone:
    __slots__ = ()

    def __repr__(self):
        return "<tombstone>"


_TOMBSTONE = _Tombstone()
_ABSENT = object()
_NO_HINT = (_ABSENT, -1, -1, -1)  # key, _mods, found, free of the last find


class HashTable(Container):
    """Open-addressing <key, datum> table driven by a HashSpec."""

    __slots__ = (
        "_spec", "_hash1", "_hash2", "_key_equal", "_slots", "_live", "_tombstones", "_mods",
        "_hint",
    )

    def __init__(self, spec: HashSpec, initial_capacity: int = 8):
        if initial_capacity < 1 or initial_capacity & (initial_capacity - 1):
            raise DomainFault("capacity must be a power of two, got %d" % initial_capacity)
        self._spec = spec
        self._hash1, self._hash2, self._key_equal = spec.hash1, spec.hash2, spec.key_equal
        self._slots = [None] * initial_capacity
        self._live = 0
        self._tombstones = 0
        self._mods = 0
        self._hint = _NO_HINT
        super().__init__(self._slot_bytes * initial_capacity)

    @property
    def spec(self) -> HashSpec:
        """The spec the table was built with; read-only, as its callables are bound."""
        return self._spec

    @property
    def _slot_bytes(self) -> int:
        return (self._spec.key_size if self._spec.key_size is not None else 16) + 8

    def __len__(self) -> int:
        return self._live

    @property
    def capacity(self) -> int:
        return len(self._slots)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    def _probe(self, key):
        """Return (slot holding key or -1, slot an insert of key would fill).

        When key is absent, the free slot is the probe path's first tombstone, else the
        empty slot that ends the path.
        """
        slots = self._slots
        mask = len(slots) - 1
        index = self._hash1(key) & mask
        entry = slots[index]
        if entry is None:
            return -1, index
        if entry is not _TOMBSTONE and self._key_equal(entry[0], key):
            return index, index
        free = index if entry is _TOMBSTONE else -1
        step = self._hash2(key) | 1
        while True:
            index = (index + step) & mask
            entry = slots[index]
            if entry is None:
                return -1, index if free < 0 else free
            if entry is _TOMBSTONE:
                if free < 0:
                    free = index
            elif self._key_equal(entry[0], key):
                return index, free

    def _rehash(self, new_capacity: int) -> None:
        entries = [entry for entry in self._slots if entry is not None and entry is not _TOMBSTONE]
        self._slots = slots = [None] * new_capacity
        self._tombstones = 0
        self._mods += 1
        for entry in entries:  # old-slot order, into a table with no tombstones
            slots[self._probe(entry[0])[1]] = entry
        self._resize(self._slot_bytes * new_capacity)

    def insert(self, key, datum) -> bool:
        """Map key to datum; returns True if an existing datum was replaced."""
        self._check_live()
        if (self._live + self._tombstones + 1) > MAX_LOAD * len(self._slots):
            self._rehash(len(self._slots) * (1 if self._tombstones > self._live else 2))
        hint_key, mods, found, free = self._hint
        if mods != self._mods or (hint_key is not key and not self._key_equal(hint_key, key)):
            found, free = self._probe(key)
        self._mods += 1
        if found >= 0:
            self._slots[found] = (key, datum)
            return True
        if self._slots[free] is _TOMBSTONE:
            self._tombstones -= 1
        self._slots[free] = (key, datum)
        self._live += 1
        return False

    def find(self, key, default=None):
        """Return the datum mapped to key, or `default` when absent."""
        self._check_live()
        found, free = self._probe(key)
        self._hint = (key, self._mods, found, free)
        return default if found < 0 else self._slots[found][1]

    def __contains__(self, key) -> bool:
        return self.find(key, _ABSENT) is not _ABSENT

    def remove(self, key) -> bool:
        """Remove key if present (leaving a tombstone); True iff it was there."""
        self._check_live()
        found = self._probe(key)[0]
        if found < 0:
            return False
        self._slots[found] = _TOMBSTONE
        self._live -= 1
        self._tombstones += 1
        self._mods += 1
        if self._tombstones > self._live:
            self._rehash(len(self._slots))
        return True

    def items(self):
        """Yield each live (key, datum) once, in unspecified order."""
        self._check_live()
        mods = self._mods
        for entry in self._slots:
            if mods != self._mods:
                raise ContractFault("HashTable mutated during iteration")
            if entry is not None and entry is not _TOMBSTONE:
                yield entry

    def _drop(self) -> None:
        self._slots = []
        self._live = 0
        self._tombstones = 0
        self._hint = _NO_HINT
