import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import pakit
from pakit import accounting
from pakit.errors import ContractFault, DomainFault
from pakit.hashing import HashStats, HashTable, MAX_LOAD


@pytest.mark.parametrize("key_size", [8, 4, 1, None])
def test_key_size_is_the_value_passed(key_size):
    t = HashTable(key_size)
    assert t.key_size is key_size
    t.destroy()


def test_insert_and_find():
    t = HashTable(8)
    assert t.insert(41, "a") is False
    assert len(t) == 1
    assert t.find(41) == "a"
    t.destroy()


def test_insert_same_key_twice_replaces():
    t = HashTable(8)
    assert t.insert(7, "x") is False
    assert t.insert(7, "y") is True
    assert len(t) == 1
    assert t.find(7) == "y"
    t.destroy()


def test_find_missing_returns_default():
    t = HashTable(8)
    assert t.find(1) is None
    assert t.find(1, default="nope") == "nope"
    t.destroy()


def test_find_after_remove_is_absent():
    t = HashTable(8)
    t.insert(5, "v")
    assert t.remove(5) is True
    assert t.find(5) is None
    assert t.remove(5) is False
    t.destroy()


class _Colliding:
    """A key whose every instance hashes alike, so only equality tells two apart."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return 0

    def __eq__(self, other):
        return isinstance(other, _Colliding) and self.n == other.n


def test_colliding_keys_both_retrievable():
    k1, k2 = _Colliding(1), _Colliding(2)
    t = HashTable(8)
    t.insert(k1, "first")
    t.insert(k2, "second")
    assert t.find(_Colliding(1)) == "first"
    assert t.find(_Colliding(2)) == "second"
    t.destroy()


def test_remove_on_chain_leaves_rest_reachable():
    k1, k2, k3 = (_Colliding(n) for n in range(3))
    t = HashTable(8)
    for k in (k1, k2, k3):
        t.insert(k, k.n)
    assert t.remove(k1) is True
    assert t.find(k2) == 1
    assert t.find(k3) == 2
    assert k1 not in t
    t.destroy()


def test_string_keys_distinguish_neighbors():
    t = HashTable(None)
    t.insert(b"abc", 1)
    t.insert(b"abd", 2)
    assert t.find(b"abc") == 1
    assert t.find(b"abd") == 2
    t.destroy()


def test_string_keys_may_embed_zero_bytes():
    t = HashTable(None)
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
    assert len(t) <= MAX_LOAD * capacity


def run_oracle_comparison(key_size, keys, op_count, seed):
    rng = random.Random(seed)
    t = HashTable(key_size)
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
    for key, datum in oracle.items():
        assert t.find(key) == datum
    t.destroy()


def test_symbol_table_matches_map_oracle():
    keys = list(range(400))
    run_oracle_comparison(8, keys, op_count=100_000, seed=90)


def test_string_table_matches_map_oracle():
    rng = random.Random(91)
    keys = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12))) for _ in range(400)]
    keys = list(dict.fromkeys(keys))
    run_oracle_comparison(None, keys, op_count=100_000, seed=92)


def test_rehash_preserves_contents():
    t = HashTable(8)
    expected = {}
    for i in range(200):  # forces several doublings
        t.insert(i, i * i)
        expected[i] = i * i
    assert t.capacity > 8
    assert dict(t.items()) == expected
    t.destroy()


def test_remove_heavy_table_keeps_its_capacity_and_no_tombstones():
    t = HashTable(8)
    for i in range(40):  # 8 -> 16 -> 32 -> 64
        t.insert(i, i)
    _, grown = accounting.totals()
    for i in range(39):
        t.remove(i)
    # removes neither shrink the accounted table nor leave markers behind
    assert (t.capacity, len(t)) == (64, 1)
    assert accounting.totals()[1] == grown
    assert t.find(39) == 39
    t.destroy()


def test_iterate_empty():
    t = HashTable(8)
    assert list(t.items()) == []
    t.destroy()


def test_iterate_yields_each_entry_once():
    t = HashTable(8)
    for i in range(3):
        t.insert(i, chr(65 + i))
    assert sorted(t.items()) == [(0, "A"), (1, "B"), (2, "C")]
    t.destroy()


def test_mutation_during_iteration_faults():
    t = HashTable(8)
    for i in range(6):
        t.insert(i, i)
    with pytest.raises(ContractFault):
        for key, _ in t.items():
            t.remove(key)
    t.destroy()


def test_mutation_after_the_last_live_slot_faults():
    t = HashTable(8)
    t.insert(1, "last")
    for mutate in (lambda: t.insert(2, "new"), lambda: t.insert(1, "replaced")):  # new size, same size
        entries = t.items()
        next(entries)
        mutate()  # no entry follows the one just yielded
        with pytest.raises(ContractFault, match="mutated during iteration"):
            next(entries)
    t.destroy()


@pytest.mark.representation
def test_footprint_follows_capacity():
    before = accounting.totals()
    t = HashTable(8)
    _, small = accounting.totals()
    for i in range(100):
        t.insert(i, i)
    _, grown = accounting.totals()
    assert grown - before[1] > small - before[1]
    assert grown - before[1] >= t.capacity * 16
    t.destroy()
    assert accounting.totals() == before


class _WeakKey:
    __slots__ = ("n", "__weakref__")

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, _WeakKey) and self.n == other.n


def test_destroy_drops_the_key_of_the_last_find():
    t = HashTable(8)
    key = _WeakKey(1)
    t.find(key)
    alive = weakref.ref(key)
    t.destroy()
    del key
    assert alive() is None


class _Caseless(str):
    """A str key that hashes and compares case-insensitively."""

    __slots__ = ()

    def __hash__(self):
        return hash(self.lower())

    def __eq__(self, other):
        return self.lower() == other.lower()


def test_spec_is_caller_extensible():
    # case-insensitive keys via the key's own type
    t = HashTable(None)
    t.insert(_Caseless("Key"), 1)
    assert t.insert(_Caseless("KEY"), 2) is True
    assert t.find(_Caseless("key")) == 2
    assert len(t) == 1
    t.destroy()


def test_replace_keeps_the_stored_key():
    # as dict does: the datum changes, the key object first inserted stays
    t = HashTable(None)
    first = _Caseless("Key")
    t.insert(first, 1)
    t.insert(_Caseless("KEY"), 2)
    [(key, datum)] = t.items()
    assert key is first and datum == 2
    t.destroy()


@pytest.mark.parametrize("key_size, key", [(8, 3), (None, b"w3")], ids=["symbol", "string"])
def test_none_probe_is_absent_until_inserted(key_size, key):
    t = HashTable(key_size)
    t.insert(key, 10)
    before = (len(t), t.capacity, list(t.items()), accounting.totals())
    assert (t.find(None, "d"), None in t, t.remove(None)) == ("d", False, False)
    assert (len(t), t.capacity, list(t.items()), accounting.totals()) == before
    t.destroy()


@pytest.mark.parametrize("key_size, key", [(8, 3), (None, b"w3")], ids=["symbol", "string"])
def test_none_is_an_ordinary_key(key_size, key):
    t = HashTable(key_size)
    t.insert(key, 10)
    assert t.insert(None, 5) is False
    assert (len(t), t.find(None), None in t, list(t.items())) == (2, 5, True, [(key, 10), (None, 5)])
    assert t.insert(None, 6) is True
    assert t.remove(None) is True
    assert (len(t), list(t.items())) == (1, [(key, 10)])
    t.destroy()


@pytest.mark.parametrize("key_size, key_of", [
    (8, lambda i: i << 32 | 7),
    (None, lambda i: b"w%d" % i),
], ids=["symbol", "string"])
def test_refused_insert_changes_nothing_at_the_growth_threshold(key_size, key_of):
    # five keys at capacity 8: any accepted insert would double the table
    t = HashTable(key_size)
    for i in range(5):
        t.insert(key_of(i), i)
    for refused in ([1], bytearray(b"w1")):  # unhashable, so neither is a key
        before = (t.capacity, len(t), sorted(t.items()), accounting.totals())
        entries = t.items()
        first = next(entries)
        with pytest.raises(TypeError):
            t.insert(refused, 1)
        assert (t.capacity, len(t), sorted(t.items()), accounting.totals()) == before
        assert sorted([first, *entries]) == before[2]  # no ContractFault
    t.destroy()


def test_a_mutable_key_is_refused():
    # a stored bytearray could change under the table: find would miss it
    # under its old and its new value while items() still listed it
    t = HashTable(None)
    key = bytearray(b"abc")
    with pytest.raises(TypeError):
        t.insert(key, 1)
    for probe in (lambda: t.find(key), lambda: key in t, lambda: t.remove(key)):
        with pytest.raises(TypeError):
            probe()
    assert (len(t), list(t.items())) == (0, [])
    t.destroy()


def test_stats_of_an_empty_table():
    t = HashTable(8)
    assert t.stats() == HashStats(entries=0, capacity=8, load=0.0)
    for i in range(5):
        t.insert(i, i)
    assert t.stats() == (5, 8, 5 / 8)
    t.insert(5, 5)  # a sixth entry would pass MAX_LOAD of 8
    assert t.stats() == (6, 16, 6 / 16)
    t.destroy()


def test_key_size_is_read_only():
    t = HashTable(8)
    with pytest.raises(AttributeError):
        t.key_size = None
    assert t.key_size == 8
    t.destroy()


_DETERMINISM_SCRIPT = """
import json
from pakit.hashing import HashTable
ints = [*range(300), *(i << 32 | 7 for i in range(1, 300)), *(i << 44 for i in range(1, 300)), (1 << 64) - 1, 1 << 70]
for key_size, keys, shown in ((8, ints, lambda k: k), (None, [b"w%d" % k for k in ints], bytes.hex)):
    t = HashTable(key_size)
    for k in keys:
        t.insert(k, len(k) if isinstance(k, bytes) else k & 0xFF)
    t.remove(keys[5])
    t.insert(keys[5], 0)
    print(json.dumps([[shown(k), d] for k, d in t.items()]))
    t.destroy()
"""


def test_items_order_ignores_the_hash_seed():
    # str and bytes hashes are salted per process; items() follows insertion order, not hashes
    outputs = []
    for seed in ("0", "1"):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append([json.loads(line) for line in run.stdout.splitlines()])
    assert outputs[0] == outputs[1]
    for entries in outputs[0]:
        assert len(entries) == 900
        assert entries[-1][1] == 0  # the key removed and inserted again comes last


@pytest.mark.parametrize("key_size", [2.5, -100, 0, "8"])
def test_a_bad_key_size_is_refused_before_anything_registers(key_size):
    before = accounting.totals()
    with pytest.raises(DomainFault, match="key_size"):
        HashTable(key_size)
    assert accounting.totals() == before


def test_every_key_size_from_one_and_none_are_taken():
    for key_size in (1, 8, None):
        HashTable(key_size).destroy()


# read by perfbench/pipeline.py alone; once it stops, they go from hashing.py, __init__.py and this test
BENCHMARK_NAMES = ("symbol_spec", "tombstone_count")


def test_the_names_only_the_benchmark_reads():
    shapes = []
    for make in (lambda: HashTable(pakit.symbol_spec(8)), lambda: HashTable(8)):
        _, before = accounting.totals()
        t = make()
        shapes.append((t.key_size, t.capacity, accounting.totals()[1] - before, t.tombstone_count))
        t.destroy()
    assert shapes == [(8, 8, 176, 0)] * 2

    root = Path(__file__).resolve().parent.parent
    allowed = {root / "src/pakit/hashing.py", root / "src/pakit/__init__.py", Path(__file__).resolve()}
    ours = [path for top in ("src", "tests", "demos") for path in sorted((root / top).rglob("*.py"))]
    for name in BENCHMARK_NAMES:
        readers = [path.name for path in sorted((root / "perfbench").rglob("*.py")) if name in path.read_text()]
        assert readers, "no benchmark file reads %s: delete it from hashing.py, __init__.py and this test" % name
        named = [path for path in [*ours, root / "README.md"] if path not in allowed and name in path.read_text()]
        assert named == [], "%s is named outside hashing.py, __init__.py and this test" % name
