#!/usr/bin/env python3
"""Watching the allocation registry while containers live and die.

Every container declares its logical footprint (element size times
capacity plus a small header) to a process-wide registry.  Destroy all
of them and both totals drop back to exactly zero; a test suite that
ends any other way has leaked.
"""

from pakit import Trie, UnigramTable, Vector, accounting

print("fresh process:", accounting.totals(), "(blocks, bytes)")

v = Vector(8)
print("empty vector:              ", accounting.totals())
for i in range(1000):
    v.append(i.to_bytes(8, "big"))
print("after 1000 appends:        ", accounting.totals())

u = UnigramTable(10_000)
print("10k one-byte counters:     ", accounting.totals())
u.increment(3, by=100_000)
print("after widening to 4 bytes: ", accounting.totals())

trie = Trie(1)
for word in (b"tar", b"tag", b"tab", b"tin"):
    trie.index_of(word)
print("small trie (one block):    ", accounting.totals())

v.destroy()
u.destroy()
trie.destroy()
print("after destroying all three:", accounting.totals())

assert accounting.totals() == (0, 0)
print("clean exit: no leaks")
