import json
import operator
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from pakit import accounting
from pakit.accounting import Container
from pakit.errors import ContractFault, DomainFault
from pakit.hashing import (
    _ABSENT,
    _TOMBSTONE,
    FNV64_OFFSET_BASIS,
    HashSpec,
    HashStats,
    HashTable,
    MAX_LOAD,
    fnv1a_64,
    string_spec,
    symbol_spec,
)


def test_fnv1a_of_empty_string_is_the_offset_basis():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"") == FNV64_OFFSET_BASIS


def test_fnv1a_known_progression():
    # one step of FNV-1a from the basis
    expected = ((0xCBF29CE484222325 ^ 0x61) * 0x100000001B3) & ((1 << 64) - 1)
    assert fnv1a_64(b"a") == expected


def test_symbol_spec_is_deterministic():
    spec = symbol_spec()
    assert spec.hash1(12345) == spec.hash1(12345)
    assert spec.hash2(12345) == spec.hash2(12345)
    assert spec.hash1(12345) != spec.hash2(12345)


def test_insert_and_find():
    t = HashTable(symbol_spec(), initial_capacity=8)
    assert t.insert(41, "a") is False
    assert len(t) == 1
    assert t.find(41) == "a"
    t.destroy()


def test_insert_same_key_twice_replaces():
    t = HashTable(symbol_spec())
    assert t.insert(7, "x") is False
    assert t.insert(7, "y") is True
    assert len(t) == 1
    assert t.find(7) == "y"
    t.destroy()


def test_find_missing_returns_default():
    t = HashTable(symbol_spec())
    assert t.find(1) is None
    assert t.find(1, default="nope") == "nope"
    t.destroy()


def test_find_after_remove_is_absent():
    t = HashTable(symbol_spec())
    t.insert(5, "v")
    assert t.remove(5) is True
    assert t.find(5) is None
    assert t.remove(5) is False
    t.destroy()


def colliding_symbol_keys(capacity, count):
    """Brute-force symbol keys sharing hash1 modulo `capacity`."""
    spec = symbol_spec()
    bucket = spec.hash1(0) & (capacity - 1)
    keys = []
    candidate = 0
    while len(keys) < count:
        if spec.hash1(candidate) & (capacity - 1) == bucket:
            keys.append(candidate)
        candidate += 1
    return keys


def test_colliding_keys_both_retrievable():
    k1, k2 = colliding_symbol_keys(capacity=8, count=2)
    t = HashTable(symbol_spec(), initial_capacity=8)
    t.insert(k1, "first")
    t.insert(k2, "second")
    assert t.find(k1) == "first"
    assert t.find(k2) == "second"
    t.destroy()


def test_remove_on_chain_leaves_rest_reachable():
    k1, k2, k3 = colliding_symbol_keys(capacity=8, count=3)
    t = HashTable(symbol_spec(), initial_capacity=8)
    for k in (k1, k2, k3):
        t.insert(k, str(k))
    assert t.remove(k1) is True
    assert t.find(k2) == str(k2)
    assert t.find(k3) == str(k3)
    t.destroy()


def test_string_spec_distinguishes_neighbors():
    t = HashTable(string_spec())
    t.insert(b"abc", 1)
    t.insert(b"abd", 2)
    assert t.find(b"abc") == 1
    assert t.find(b"abd") == 2
    t.destroy()


def test_string_keys_may_embed_zero_bytes():
    t = HashTable(string_spec())
    t.insert(b"a\x00b", 1)
    t.insert(b"a\x00", 2)
    t.insert(b"", 3)
    assert t.find(b"a\x00b") == 1
    assert t.find(b"a\x00") == 2
    assert t.find(b"") == 3
    t.destroy()


def check_invariants(t):
    capacity = t.capacity
    assert capacity & (capacity - 1) == 0
    assert len(t) + t.tombstone_count <= MAX_LOAD * capacity


def run_oracle_comparison(spec, keys, op_count, seed):
    rng = random.Random(seed)
    t = HashTable(spec)
    oracle = {}
    for step in range(op_count):
        key = rng.choice(keys)
        action = rng.random()
        if action < 0.5:
            datum = rng.randrange(1 << 30)
            assert t.insert(key, datum) == (key in oracle)
            oracle[key] = datum
        elif action < 0.8:
            assert t.remove(key) == (key in oracle)
            oracle.pop(key, None)
        else:
            assert t.find(key, default=-1) == oracle.get(key, -1)
        check_invariants(t)
    assert len(t) == len(oracle)
    assert dict(t.items()) == oracle
    for key, datum in oracle.items():  # every live key reachable by probing
        assert t.find(key) == datum
    t.destroy()


def test_symbol_table_matches_map_oracle():
    keys = list(range(400))
    run_oracle_comparison(symbol_spec(), keys, op_count=100_000, seed=90)


def test_string_table_matches_map_oracle():
    rng = random.Random(91)
    keys = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12))) for _ in range(400)]
    keys = list(dict.fromkeys(keys))
    run_oracle_comparison(string_spec(), keys, op_count=100_000, seed=92)


def test_rehash_preserves_contents():
    t = HashTable(symbol_spec(), initial_capacity=8)
    expected = {}
    for i in range(200):  # forces several doublings
        t.insert(i, i * i)
        expected[i] = i * i
    assert t.capacity > 8
    assert dict(t.items()) == expected
    t.destroy()


def test_tombstone_heavy_table_rehashes_in_place():
    t = HashTable(symbol_spec(), initial_capacity=64)
    for i in range(40):
        t.insert(i, i)
    for i in range(39):
        t.remove(i)
    # tombstones were dropped the moment they outnumbered live entries
    assert t.tombstone_count <= max(1, len(t))
    assert t.find(39) == 39
    t.destroy()


def test_odd_probe_step_cycles_all_slots():
    for capacity in (2, 4, 8, 16, 32, 64):
        for step in range(1, 2 * capacity, 2):
            seen = set()
            index = 0
            for _ in range(capacity):
                seen.add(index)
                index = (index + step) % capacity
            assert len(seen) == capacity


def test_iterate_empty():
    t = HashTable(symbol_spec())
    assert list(t.items()) == []
    t.destroy()


def test_iterate_yields_each_entry_once():
    t = HashTable(symbol_spec())
    for i in range(3):
        t.insert(i, chr(65 + i))
    assert sorted(t.items()) == [(0, "A"), (1, "B"), (2, "C")]
    t.destroy()


def test_mutation_during_iteration_faults():
    t = HashTable(symbol_spec())
    for i in range(6):
        t.insert(i, i)
    with pytest.raises(ContractFault):
        for key, _ in t.items():
            t.remove(key)
    t.destroy()


def test_mutation_after_the_last_live_slot_faults():
    t = HashTable(symbol_spec())
    hash1 = t.spec.hash1
    last = next(key for key in range(100) if hash1(key) & (t.capacity - 1) == t.capacity - 1)
    t.insert(last, "last")
    entries = t.items()
    assert next(entries) == (last, "last")
    t.insert(last + 1, "new")  # no live slot follows the one just yielded
    with pytest.raises(ContractFault, match="mutated during iteration"):
        next(entries)
    t.destroy()


def test_capacity_must_be_power_of_two():
    with pytest.raises(DomainFault):
        HashTable(symbol_spec(), initial_capacity=12)


def test_footprint_follows_capacity():
    before = accounting.totals()
    t = HashTable(symbol_spec(key_size=8), initial_capacity=8)
    _, small = accounting.totals()
    for i in range(100):
        t.insert(i, i)
    _, grown = accounting.totals()
    assert grown - before[1] > small - before[1]
    assert grown - before[1] >= t.capacity * 16
    t.destroy()
    assert accounting.totals() == before


class _WeakKey:
    def __init__(self, n):
        self.n = n


def test_destroy_drops_the_key_of_the_last_find():
    spec = HashSpec(key_size=8, hash1=lambda k: k.n, hash2=lambda k: k.n, key_equal=lambda a, b: a.n == b.n)
    t = HashTable(spec)
    key = _WeakKey(1)
    t.find(key)
    alive = weakref.ref(key)
    t.destroy()
    del key
    assert alive() is None


def test_spec_is_caller_extensible():
    # case-insensitive ascii keys via a custom spec
    spec = HashSpec(
        key_size=None,
        hash1=lambda s: fnv1a_64(s.lower().encode()),
        hash2=lambda s: fnv1a_64(s.upper().encode()) | 1,
        key_equal=lambda a, b: a.lower() == b.lower(),
    )
    t = HashTable(spec)
    t.insert("Key", 1)
    assert t.insert("KEY", 2) is True
    assert t.find("key") == 2
    t.destroy()


def test_replace_keeps_the_stored_key():
    # as dict does: the datum changes, the key object first inserted stays
    spec = HashSpec(key_size=None, hash1=lambda s: fnv1a_64(s.lower().encode()),
                    hash2=lambda s: 1, key_equal=lambda a, b: a.lower() == b.lower())
    t = HashTable(spec)
    t.insert("Key", 1)
    t.insert("KEY", 2)
    assert list(t.items()) == [("Key", 2)]
    t.destroy()


def test_none_key_is_refused_and_changes_nothing():
    # None marks an empty slot in the key column
    spec = HashSpec(key_size=8, hash1=lambda k: 0, hash2=lambda k: 1, key_equal=operator.eq)
    t = HashTable(spec)
    t.insert(1, 10)
    with pytest.raises(DomainFault):
        t.insert(None, 5)
    assert (len(t), list(t.items()), t.find(None, -1)) == (1, [(1, 10)], -1)
    t.destroy()


@pytest.mark.parametrize("spec, key_of", [
    (symbol_spec(), lambda i: i << 32 | 7),
    (string_spec(), lambda i: b"w%d" % i),
], ids=["symbol", "string"])
def test_refused_insert_changes_nothing_at_the_growth_threshold(spec, key_of):
    # four live keys and a tombstone at capacity 8: any accepted insert would double the table
    t = HashTable(spec, initial_capacity=8)
    for i in range(5):
        t.insert(key_of(i), i)
    t.remove(key_of(4))
    before = (t.capacity, t.tombstone_count, len(t), t._slots)
    entries = t.items()
    first = next(entries)
    with pytest.raises(DomainFault, match="cannot be None"):
        t.insert(None, 1)
    assert (t.capacity, t.tombstone_count, len(t), t._slots) == before
    assert sorted([first, *entries]) == sorted((key_of(i), i) for i in range(4))  # no ContractFault
    t.destroy()


def test_symbol_find_of_none_returns_the_default():
    t = HashTable(symbol_spec())
    for i in range(5):
        t.insert(i, i)
    assert t.find(None, "d") == "d"
    assert None not in t
    t.destroy()


def test_stats_of_an_empty_table():
    t = HashTable(symbol_spec(), initial_capacity=16)
    assert t.stats() == HashStats(entries=0, capacity=16, tombstones=0, load=0.0, probe_lengths={})
    t.destroy()


def test_stats_walks_each_probe_path():
    # colliding_spec: hash1 = k % 3, step = (k // 3) | 1; capacity 8 throughout
    t = HashTable(colliding_spec, initial_capacity=8)
    for k in (0, 3, 6, 1):  # slots 0, 0+1, 0+3, and 1 (taken) + 1
        t.insert(k, k)
    t.remove(6)
    stats = t.stats()
    assert (stats.entries, stats.capacity, stats.tombstones, stats.load) == (3, 8, 1, 3 / 8)
    assert [t._keys.index(k) for k in (0, 3, 1)] == [0, 1, 2]
    assert stats.probe_lengths == {1: 1, 2: 2}
    t.destroy()


def test_stats_agrees_with_the_oracle_probe_count():
    rng = random.Random(94)
    t = HashTable(colliding_spec)
    keys = rng.sample(range(1000, 5000), 300)
    for k in keys:
        t.insert(k, k)
    for k in keys[::3]:
        t.remove(k)
    counted = {}
    for k in keys:
        if k in t:  # count the slots a find examines, independently of stats()
            index, step, n = k % 3 & (t.capacity - 1), (k // 3) | 1, 1
            while t._keys[index] is _TOMBSTONE or t._keys[index] != k:
                index, n = (index + step) & (t.capacity - 1), n + 1
            counted[n] = counted.get(n, 0) + 1
    stats = t.stats()
    assert stats.probe_lengths == dict(sorted(counted.items()))
    assert list(stats.probe_lengths) == sorted(stats.probe_lengths)
    assert (stats.entries, stats.tombstones) == (len(t), t.tombstone_count)
    t.destroy()


def probe_quality_families(n):
    """Structured integer key families, n keys each (fewer for random bigrams, after dedup)."""
    rng = random.Random(95)
    families = {"range": range(n), "i<<32|7": [i << 32 | 7 for i in range(n)],
                "7<<32|i": [7 << 32 | i for i in range(n)]}
    for k in range(8, 57, 6):
        families["i<<%d" % k] = [i << k for i in range(n)]
    families["bigrams"] = list(dict.fromkeys(rng.randrange(20000) << 32 | rng.randrange(20000) for _ in range(n)))
    families["hmm s<<32|w"] = [s << 32 | w for s in range(16) for w in range(n // 16)]
    return families


def probe_quality(spec, keys):
    """(mean, max) probe length of a find over the table that inserting `keys` builds."""
    t = HashTable(spec)
    for k in keys:
        t.insert(k, 0)
    lengths = t.stats().probe_lengths
    t.destroy()
    return sum(n * c for n, c in lengths.items()) / sum(lengths.values()), max(lengths)


# 20,000 keys fill a 32,768-slot table to load 0.61, where uniform double hashing probes
# -ln(1 - 0.61) / 0.61 = 1.54 slots on average and about 20 at most
PROBE_MEAN_BOUND, PROBE_MAX_BOUND = 1.65, 40


def _unfinalized_hash1(x):
    return hash((x, 0))


def _unfinalized_hash2(x):
    return hash((0, x))


def test_symbol_spec_probes_like_a_random_hash_on_structured_keys():
    families = probe_quality_families(20000)
    for name, keys in families.items():
        mean, longest = probe_quality(symbol_spec(), keys)
        assert mean < PROBE_MEAN_BOUND and longest < PROBE_MAX_BOUND, (name, mean, longest)
    # the bounds have teeth: without the xorshift the tuple hash's low bits cluster
    unfinalized = HashSpec(key_size=8, hash1=_unfinalized_hash1, hash2=_unfinalized_hash2, key_equal=operator.eq)
    for name in ("range", "7<<32|i", "i<<38"):
        mean, longest = probe_quality(unfinalized, families[name])
        assert mean >= PROBE_MEAN_BOUND or longest >= PROBE_MAX_BOUND, (name, mean, longest)


def test_spec_is_read_only():
    spec = symbol_spec()
    t = HashTable(spec)
    assert t.spec is spec
    with pytest.raises(AttributeError):
        t.spec = string_spec()
    t.destroy()


def test_symbol_spec_hashes_keep_their_bits():
    # CPython's tuple hash over (x, 0) and (0, x), each high half xor-folded into the low
    spec = symbol_spec()
    for x in (0, 1, 12345, (1 << 64) - 1, 1 << 70):
        h1, h2 = hash((x, 0)), hash((0, x))
        assert spec.hash1(x) == h1 ^ (h1 >> 32)
        assert spec.hash2(x) == h2 ^ (h2 >> 32)
        assert spec.hash1(x) != spec.hash2(x) or x == 0  # (0, 0) is both tuples
    assert spec.key_equal(3, 3) and not spec.key_equal(3, 4)


def test_symbol_keys_congruent_mod_the_mersenne_prime_share_both_hashes():
    # CPython hashes an int modulo 2**61 - 1, so such keys collide fully: 8 below 2**64 per
    # residue, 9 for residues 0 to 7; key_equal still tells them apart, at the cost of probes
    spec, prime = symbol_spec(), (1 << 61) - 1
    keys = [5 + n * prime for n in range(9)]
    assert keys[-1] < 1 << 64 <= keys[-1] + prime
    assert len({(spec.hash1(k), spec.hash2(k)) for k in keys}) == 1
    t = HashTable(spec)
    for k in keys:
        t.insert(k, k)
    assert [t.find(k) for k in keys] == keys
    assert t.stats().probe_lengths == {n: 1 for n in range(1, 10)}
    t.destroy()


_DETERMINISM_SCRIPT = """
import json
from pakit.hashing import HashTable, symbol_spec
spec = symbol_spec()
keys = [*range(300), *(i << 32 | 7 for i in range(1, 300)), *(i << 44 for i in range(1, 300)), (1 << 64) - 1, 1 << 70]
t = HashTable(spec)
for k in keys:
    t.insert(k, k & 0xFF)
print(json.dumps([[spec.hash1(k) for k in keys], [spec.hash2(k) for k in keys], list(t.items())]))
t.destroy()
"""


def test_symbol_spec_layout_ignores_the_hash_seed():
    # int and tuple hashes are unsalted (only str and bytes hashes are), so slot layout repeats
    outputs = []
    for seed in ("0", "1"):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][2]) == 900


_HEADER_BYTES = Container.HEADER_BYTES  # the header estimate HashTable inherits


class OracleHashTable:
    """HashTable as it was before the shared probe helper, kept verbatim as the reference."""

    __slots__ = ("spec", "_slots", "_live", "_tombstones", "_mods", "_token")

    def __init__(self, spec: HashSpec, initial_capacity: int = 8):
        if initial_capacity < 1 or initial_capacity & (initial_capacity - 1):
            raise DomainFault("capacity must be a power of two, got %d" % initial_capacity)
        self.spec = spec
        self._slots = [None] * initial_capacity
        self._live = 0
        self._tombstones = 0
        self._mods = 0
        self._token = accounting.register(self._footprint(initial_capacity))

    def _footprint(self, capacity: int) -> int:
        slot_bytes = (self.spec.key_size if self.spec.key_size is not None else 16) + 8
        return _HEADER_BYTES + capacity * slot_bytes

    def _check_live(self):
        if self._token.released:
            raise ContractFault("operation on a destroyed HashTable")

    def __len__(self) -> int:
        return self._live

    @property
    def capacity(self) -> int:
        return len(self._slots)

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    def _rehash(self, new_capacity: int) -> None:
        old_slots = self._slots
        self._slots = [None] * new_capacity
        self._live = 0
        self._tombstones = 0
        self._mods += 1
        for entry in old_slots:
            if entry is None or entry is _TOMBSTONE:
                continue
            self._place(entry[0], entry[1])
        accounting.resize(self._token, self._footprint(new_capacity))

    def _place(self, key, datum) -> None:
        """Insert into a table known to contain neither key nor tombstones."""
        mask = len(self._slots) - 1
        index = self.spec.hash1(key) & mask
        step = self.spec.hash2(key) | 1
        while self._slots[index] is not None:
            index = (index + step) & mask
        self._slots[index] = (key, datum)
        self._live += 1

    def insert(self, key, datum) -> bool:
        """Map key to datum; returns True if an existing datum was replaced."""
        self._check_live()
        if (self._live + self._tombstones + 1) > MAX_LOAD * len(self._slots):
            if self._tombstones > self._live:
                self._rehash(len(self._slots))
            else:
                self._rehash(len(self._slots) * 2)
        mask = len(self._slots) - 1
        index = self.spec.hash1(key) & mask
        step = self.spec.hash2(key) | 1
        first_tombstone = -1
        while True:
            entry = self._slots[index]
            if entry is None:
                break
            if entry is _TOMBSTONE:
                if first_tombstone < 0:
                    first_tombstone = index
            elif self.spec.key_equal(entry[0], key):
                self._slots[index] = (key, datum)
                self._mods += 1
                return True
            index = (index + step) & mask
        if first_tombstone >= 0:
            index = first_tombstone
            self._tombstones -= 1
        self._slots[index] = (key, datum)
        self._live += 1
        self._mods += 1
        return False

    def find(self, key, default=None):
        """Return the datum mapped to key, or `default` when absent."""
        self._check_live()
        mask = len(self._slots) - 1
        index = self.spec.hash1(key) & mask
        step = self.spec.hash2(key) | 1
        while True:
            entry = self._slots[index]
            if entry is None:
                return default
            if entry is not _TOMBSTONE and self.spec.key_equal(entry[0], key):
                return entry[1]
            index = (index + step) & mask

    def __contains__(self, key) -> bool:
        return self.find(key, _ABSENT) is not _ABSENT

    def remove(self, key) -> bool:
        """Remove key if present (leaving a tombstone); True iff it was there."""
        self._check_live()
        mask = len(self._slots) - 1
        index = self.spec.hash1(key) & mask
        step = self.spec.hash2(key) | 1
        while True:
            entry = self._slots[index]
            if entry is None:
                return False
            if entry is not _TOMBSTONE and self.spec.key_equal(entry[0], key):
                break
            index = (index + step) & mask
        self._slots[index] = _TOMBSTONE
        self._live -= 1
        self._tombstones += 1
        self._mods += 1
        if self._tombstones > self._live:
            self._rehash(len(self._slots))
        return True

    def destroy(self) -> None:
        """Release the table's storage from the accounting registry."""
        accounting.release(self._token)
        self._slots = []
        self._live = 0
        self._tombstones = 0


# a few hash1 buckets and steps, so probe chains are long and cross tombstones
colliding_spec = HashSpec(
    key_size=8, hash1=lambda k: k % 3, hash2=lambda k: k // 3, key_equal=operator.eq
)

# key id 0 is a falsy key (0, b""), so liveness never rests on a key's truth value
ORACLE_SPECS = {
    "symbol": (symbol_spec(), lambda i: i << 32 | 7 if i else 0, lambda k: int(str(k))),
    "string": (string_spec(), lambda i: b"w%d" % i if i else b"", lambda k: bytes(bytearray(k))),
    "colliding": (colliding_spec, lambda i: i + 1000, lambda k: int(str(k))),
}

key_ids = st.integers(0, 15)
# None in a mutation between a find and its insert stands for the found key
between_ids = st.none() | key_ids
atomic_ops = st.one_of(
    st.tuples(st.just("insert"), between_ids, st.integers(0, 9)),
    st.tuples(st.just("remove"), between_ids),
)
oracle_ops = st.one_of(
    atomic_ops.filter(lambda op: op[1] is not None),
    st.tuples(st.just("find"), key_ids),
    st.tuples(st.just("in"), key_ids),
    # find, then mutate in between (maybe nothing), then insert: the same key as
    # the same object or an equal copy, or another key
    st.tuples(st.just("find_then_insert"), key_ids, st.lists(atomic_ops, max_size=3),
              key_ids | st.none(), st.booleans()),
)


def apply(table, op, key_of, copy):
    kind = op[0]
    if kind == "insert":
        return table.insert(key_of(op[1]), op[2])
    if kind == "remove":
        return table.remove(key_of(op[1]))
    if kind == "find":
        return table.find(key_of(op[1]), -1)
    if kind == "in":
        return key_of(op[1]) in table
    _, key_id, between, other_id, same_object = op
    key = key_of(key_id)
    results = [table.find(key, 0)]
    for step in between:
        step = step if step[1] is not None else (step[0], key_id) + step[2:]
        results.append(apply(table, step, key_of, copy))
    if other_id is not None:
        results.append(table.insert(key_of(other_id), results[0] + 1))
    else:
        results.append(table.insert(key if same_object else copy(key), results[0] + 1))
    return results


@pytest.mark.parametrize("spec_name", sorted(ORACLE_SPECS))
@settings(max_examples=300)
@given(ops=st.lists(oracle_ops, max_size=60))
def test_probe_rewrite_matches_previous_table(spec_name, ops):
    spec, key_of, copy = ORACLE_SPECS[spec_name]
    table, oracle = HashTable(spec), OracleHashTable(spec)
    try:
        for op in ops:
            assert apply(table, op, key_of, copy) == apply(oracle, op, key_of, copy)
            assert table._slots == oracle._slots
            assert (table.capacity, table.tombstone_count, len(table)) == (
                oracle.capacity, oracle.tombstone_count, len(oracle))
    finally:
        table.destroy()
        oracle.destroy()


def counting_symbol_spec():
    shipped = symbol_spec()
    calls = {"hash1": 0, "hash2": 0}

    def hash1(key):
        calls["hash1"] += 1
        return shipped.hash1(key)

    def hash2(key):
        calls["hash2"] += 1
        return shipped.hash2(key)

    return HashSpec(key_size=8, hash1=hash1, hash2=hash2, key_equal=operator.eq), calls


def test_first_slot_hits_never_compute_the_step():
    spec, calls = counting_symbol_spec()
    capacity = 64
    keys, buckets, candidate = [], set(), 0
    while len(keys) + 1 <= MAX_LOAD * capacity:  # stay below the growth threshold
        bucket = symbol_spec().hash1(candidate) & (capacity - 1)
        if bucket not in buckets:
            buckets.add(bucket)
            keys.append(candidate)
        candidate += 1
    t = HashTable(spec, initial_capacity=capacity)
    for key in keys:
        assert t.insert(key, key) is False
    for key in keys:
        assert t.find(key) == key
    assert t.capacity == capacity
    assert calls["hash2"] == 0
    t.destroy()


def test_find_then_insert_count_hashes_each_key_once():
    spec, calls = counting_symbol_spec()
    keys = [i << 32 | i for i in range(500)]
    t = HashTable(spec)
    for key in keys:
        t.insert(key, 0)
    capacity = t.capacity
    calls["hash1"] = 0
    rng = random.Random(93)
    for _ in range(1000):
        key = rng.choice(keys)
        assert t.insert(key, t.find(key, 0) + 1) is True
    assert calls["hash1"] == 1000
    assert t.capacity == capacity
    assert sum(datum for _, datum in t.items()) == 1000
    t.destroy()
