#!/usr/bin/env python3
"""Tour of the container types: vector, compact table, trie, hash, unigram."""

from pakit import CompactTable, HashTable, Trie, UnigramTable, Vector, accounting, string_spec

print("== Vector: fixed-size elements in one contiguous buffer ==")
v = Vector(element_size=2)
for word in (b"wo", b"he", b"lo"):
    v.append(word)
v.insert(1, b"ll")
print("elements:", list(v))
v.sort()
print("sorted:  ", list(v))
other = Vector(2, [b"!!"])
joined = v.concat(other)
print("concat:  ", list(joined), "(originals untouched:", len(v), "+", len(other), "elements)")

print()
print("== CompactTable: sorted pair array; a lookup probes a hash index of ranks ==")
table = CompactTable(key_size=4, datum_size=8)
for name, value in ((b"mass", 42), (b"reps", 3), (b"nose", 7)):
    table.insert(name, value.to_bytes(8, "big"))
print("keys in order:", [k for k, _ in table.items()])
print("lookup b'reps':", int.from_bytes(table.lookup(b"reps"), "big"))
print("rank 0 entry:  ", table.nth(0)[0])
table.delete(b"nose")
print("after delete:  ", [k for k, _ in table.items()])

print()
print("== Trie: strings in, dense integer ids out, and back again ==")
trie = Trie(symbol_width=1)
for word in (b"tea", b"ten", b"tent", b"tea"):
    print("  index_of(%r) -> %d" % (word, trie.index_of(word)))
print("size:", len(trie), "(duplicate cost nothing)")
print("string_of(1):", bytes(trie.string_of(1)))
print("find(b'te') ->", trie.find(b"te"), "(prefixes are not interned)")

print()
print("== HashTable: any hashable key, over one dict ==")
h = HashTable(string_spec())
for i, word in enumerate(b"the quick brown fox jumps over the lazy dog".split()):
    h.insert(word, i)
print("entries:", len(h), "capacity:", h.capacity)
print("find(b'fox'):", h.find(b"fox"))
h.remove(b"fox")
print("after remove, find(b'fox'):", h.find(b"fox", default="gone"))

print()
print("== UnigramTable: counters that widen only when they must ==")
u = UnigramTable(alphabet_size=256)
text = b"abracadabra" * 30
for byte in text:
    u.increment(byte)
print("count(ord('a')):", u.count(ord("a")), "of", u.total(), "total")
print("counter width:", u.counter_width, "byte(s) per symbol")
u.increment(ord("a"), by=100_000)
print("after a 100k burst the array widened to", u.counter_width, "bytes per symbol")

for obj in (v, other, joined, table, trie, h, u):
    obj.destroy()
print()
print("registry after destroying everything:", accounting.totals())
