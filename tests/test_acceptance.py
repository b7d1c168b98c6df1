"""Acceptance suite: one test per release criterion, hard tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The benchmark criterion launches the pa-bench CLI at ten
million operations and must finish inside its two-minute budget.
"""

import math
import os
import random
import subprocess
import sys
import time
from io import BytesIO

import mpmath

from pakit import (
    CompactTable,
    HashTable,
    Trie,
    UnigramTable,
    Vector,
    accounting,
    balanced,
    fixedlog,
    logpr,
    pr,
)

SCALE = fixedlog.SCALE


def announce(criterion, detail=""):
    print("ACCEPTANCE %-26s PASS  %s" % (criterion, detail))


def test_leak_accounting():
    """Everything each module allocates is released by destroy()."""
    start = time.monotonic()
    before = accounting.totals()

    v = Vector(4, [i.to_bytes(4, "big") for i in range(100)])
    t = CompactTable(4, 4)
    for i in range(100):
        t.insert(i.to_bytes(4, "big"), i.to_bytes(4, "big"))
    trie = Trie(2)
    for i in range(100):
        trie.index_of([i, i + 1, i + 2])
    h = HashTable(8)
    for i in range(100):
        h.insert(i, i)
    u = UnigramTable(256)
    for i in range(256):
        u.increment(i, by=i + 1)

    stream = BytesIO()
    v.write(stream)
    t.write(stream)
    trie.write(stream)
    u.write(stream)
    stream.seek(0)
    copies = [
        Vector.read(stream, 4),
        CompactTable.read(stream, 4, 4),
        Trie.read(stream, 2),
        UnigramTable.read(stream),
    ]

    assert accounting.totals() != before
    for obj in (v, t, trie, h, u, *copies):
        obj.destroy()
    assert accounting.totals() == before
    assert before == (0, 0)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    announce("leak-accounting", "totals=(0,0) in %.2fs" % elapsed)


def test_container_oracle_equivalence():
    """Every container replays a random script with zero oracle mismatches."""
    start = time.monotonic()

    # compact table vs ordered map, 10^4 ops on a small key universe
    rng = random.Random(1001)
    table = CompactTable(4, 4)
    oracle = {}
    universe = [i.to_bytes(4, "big") for i in range(64)]
    for _ in range(10_000):
        key = rng.choice(universe)
        action = rng.random()
        if action < 0.5:
            datum = rng.getrandbits(32).to_bytes(4, "big")
            assert table.insert(key, datum) == (key in oracle)
            oracle[key] = datum
        elif action < 0.8:
            assert table.delete(key) == (key in oracle)
            oracle.pop(key, None)
        else:
            assert table.lookup(key) == oracle.get(key)
    assert [k for k, _ in table.items()] == sorted(oracle)
    for rank, key in enumerate(sorted(oracle)):
        assert table.nth(rank) == (key, oracle[key])
    table.destroy()

    # hash tables vs dict, 10^5 ops each, for int and byte-string keys
    for key_size, keys, seed in (
        (8, list(range(500)), 1002),
        (
            None,
            [("k%d" % i).encode() + b"\x00" * (i % 3) for i in range(500)],
            1003,
        ),
    ):
        rng = random.Random(seed)
        h = HashTable(key_size)
        model = {}
        for _ in range(100_000):
            key = rng.choice(keys)
            action = rng.random()
            if action < 0.5:
                datum = rng.getrandbits(30)
                assert h.insert(key, datum) == (key in model)
                model[key] = datum
            elif action < 0.8:
                assert h.remove(key) == (key in model)
                model.pop(key, None)
            else:
                assert h.find(key, default=-1) == model.get(key, -1)
        assert dict(h.items()) == model
        for key, datum in model.items():
            assert h.find(key) == datum
        h.destroy()

    # unigram vs 64-bit count array, 10^5 increments with forced widenings
    rng = random.Random(1004)
    n = 128
    u = UnigramTable(n)
    counts = [0] * n
    u.increment(0, by=255)
    counts[0] = 255
    assert u.counter_width == 1
    u.increment(0)  # forced crossing of the 2^8 boundary
    counts[0] += 1
    assert u.counter_width == 2
    u.increment(1, by=2**16 - 1 - counts[1])
    counts[1] = 2**16 - 1
    assert u.counter_width == 2
    u.increment(1)  # forced crossing of the 2^16 boundary
    counts[1] += 1
    assert u.counter_width == 4
    for _ in range(100_000):
        symbol = rng.randrange(n)
        by = rng.choice((1, 1, 1, 3, 17))
        u.increment(symbol, by=by)
        counts[symbol] += by
    assert [u.count(s) for s in range(n)] == counts
    assert u.total() == sum(counts)
    u.destroy()

    # trie bijection and dense indices over 10^4 random strings
    rng = random.Random(1005)
    trie = Trie(2)
    first_seen = {}
    for _ in range(10_000):
        string = tuple(rng.randrange(50) for _ in range(rng.randrange(0, 7)))
        expected = first_seen.setdefault(string, len(first_seen))
        assert trie.index_of(string) == expected
    assert len(trie) == len(first_seen)
    for string, index in first_seen.items():
        assert trie.string_of(index) == string
        assert trie.index_of(string) == index
    trie.destroy()

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce("container-oracles", "zero mismatches in %.2fs" % elapsed)


def test_serialization_roundtrips():
    """Write/read is the identity and byte streams repeat bit for bit."""
    rng = random.Random(1006)

    v = Vector(3, [bytes(rng.randrange(256) for _ in range(3)) for _ in range(50)])
    t = CompactTable(2, 5)
    for i in range(40):
        t.insert(i.to_bytes(2, "big"), bytes(5))
    trie = Trie(4)
    for _ in range(60):
        trie.index_of([rng.randrange(1 << 16) for _ in range(rng.randrange(5))])
    u = UnigramTable(32)
    for _ in range(500):
        u.increment(rng.randrange(32), by=rng.randrange(1, 900))

    def dump(writer):
        stream = BytesIO()
        writer(stream)
        return stream.getvalue()

    # containers
    for obj, write, read in (
        (v, v.write, lambda s: Vector.read(s, 3)),
        (t, t.write, lambda s: CompactTable.read(s, 2, 5)),
        (trie, trie.write, lambda s: Trie.read(s, 4)),
        (u, u.write, lambda s: UnigramTable.read(s)),
    ):
        data = dump(write)
        assert dump(write) == data  # deterministic
        loaded = read(BytesIO(data))
        assert dump(loaded.write) == data  # identity after one trip
        loaded.destroy()
        obj.destroy()

    # numeric value encodings
    for _ in range(500):
        b = balanced.from_real(math.ldexp(rng.uniform(-1, 1), rng.randrange(-800, 800)))
        data = dump(lambda s, b=b: balanced.write(s, b))
        assert balanced.read(BytesIO(data)) == b
        code = fixedlog.from_real(rng.random())
        data = dump(lambda s, code=code: fixedlog.write(s, code))
        assert fixedlog.read(BytesIO(data)) == code
        x = logpr.from_real(rng.random())
        data = dump(lambda s, x=x: logpr.write(s, x))
        assert logpr.read(BytesIO(data)) == x

    announce("serialization", "bit-identical roundtrips")


def test_numeric_accuracy():
    """The quantitative accuracy claims, at their exact tolerances."""
    rng = random.Random(1007)

    # fixedlog roundtrip within half a quantum (ln domain)
    for _ in range(10_000):
        p = math.exp(rng.uniform(math.log(1e-9), 0.0))
        code = fixedlog.from_real(p)
        assert abs(-code / SCALE - math.log(p)) <= 0.5 / SCALE + 1e-12

    # fixedlog add within two quanta of the log-sum-exp oracle
    for _ in range(10_000):
        pa = math.exp(rng.uniform(math.log(1e-6), 0.0))
        pb = math.exp(rng.uniform(math.log(1e-6), 0.0))
        code = fixedlog.add(fixedlog.from_real(pa), fixedlog.from_real(pb))
        oracle = math.log(min(pa + pb, 1.0))
        assert abs(-code / SCALE - oracle) <= 2.0 / SCALE

    # balanced single ops within 2^-22 of double, operands as represented
    for _ in range(10_000):
        a = balanced.from_real(math.ldexp(rng.uniform(-1, 1), rng.randrange(-200, 200)))
        b = balanced.from_real(math.ldexp(rng.uniform(-1, 1), rng.randrange(-200, 200)))
        if a == balanced.ZERO or b == balanced.ZERO:
            continue
        da, db = balanced.to_real(a), balanced.to_real(b)
        for result, expected in (
            (balanced.mul(a, b), da * db),
            (balanced.add(a, b), da + db),
            (balanced.div(a, b), da / db),
        ):
            if expected == 0.0:
                assert result == balanced.ZERO
            else:
                assert abs(balanced.to_real(result) - expected) <= 2.0**-22 * abs(expected)

    # balanced thousand-term product against the logpr oracle
    probabilities = [math.exp(rng.uniform(math.log(0.02), math.log(0.04))) for _ in range(1000)]
    bal_product = balanced.ONE
    log_product = logpr.ONE
    for p in probabilities:
        bal_product = balanced.mul(bal_product, balanced.from_real(p))
        log_product = logpr.mul(log_product, logpr.from_real(p))
    assert abs(balanced.ln_abs(bal_product) - -log_product) <= 1000 * 2.0**-22

    # extreme range: a product near 1e-1500 is out of reach for double only
    tiny = [math.exp(rng.uniform(math.log(0.02), math.log(0.05))) for _ in range(1000)]
    with mpmath.workdps(60):
        true_ln = float(mpmath.fsum(mpmath.log(mpmath.mpf(p)) for p in tiny))
    assert true_ln < -1500 * math.log(10) * 0.8  # sanity: genuinely ~1e-1500

    double_product = 1.0
    for p in tiny:
        double_product *= p
    assert double_product == 0.0  # double underflows to exactly zero

    bal = balanced.ONE
    for p in tiny:
        bal = balanced.mul(bal, balanced.from_real(p))
    assert bal != balanced.ZERO
    assert abs(balanced.ln_abs(bal) - true_ln) <= 1000 * 2.0**-22

    code = 0
    for p in tiny:
        code = fixedlog.mul(code, fixedlog.from_real(p))
    assert code != fixedlog.SENTINEL
    assert abs(-code / SCALE - true_ln) <= 1000 * 0.5 / SCALE

    neg_log = logpr.ONE
    for p in tiny:
        neg_log = logpr.mul(neg_log, logpr.from_real(p))
    assert neg_log != logpr.ZERO
    assert abs(-neg_log - true_ln) <= 1e-9

    announce("numeric-accuracy", "all tolerances held")


def test_generic_interface_laws():
    """Law suite and argmax invariance through the backend interface only."""
    rng = random.Random(1008)
    all_backends = pr.backends()
    assert [b.name for b in all_backends] == ["double", "logpr", "balanced", "fixedlog"]

    for backend in all_backends:
        report = pr.conformance(backend, sample_count=10_000, seed=42)
        assert report.passed, report.as_text()
        for _ in range(500):
            x = backend.from_real(rng.uniform(1e-6, 1.0))
            y = backend.from_real(rng.uniform(1e-6, 1.0))
            assert backend.mul(x, backend.one) == x
            assert backend.mul(x, backend.zero) == backend.zero
            assert backend.add(x, backend.zero) == x
            assert backend.mul(x, y) == backend.mul(y, x)
            assert backend.add(x, y) == backend.add(y, x)

    threshold = 10 * max(b.ln_tolerance for b in all_backends)
    checked = 0
    for _ in range(100):
        entries = [math.exp(rng.uniform(math.log(1e-6), 0.0)) for _ in range(16)]
        pairs = [(entries[2 * k], entries[2 * k + 1]) for k in range(8)]
        exact = sorted(math.log(x) + math.log(y) for x, y in pairs)
        if exact[-1] - exact[-2] <= threshold:
            continue
        winners = set()
        for backend in all_backends:
            products = [
                backend.mul(backend.from_real(x), backend.from_real(y)) for x, y in pairs
            ]
            best = 0
            for i in range(1, len(products)):
                if backend.cmp(products[i], products[best]) > 0:
                    best = i
            winners.add(best)
        assert len(winners) == 1
        checked += 1
    assert checked >= 90

    announce("generic-interface", "laws + argmax invariance on %d vectors" % checked)


def test_benchmark():
    """pa-bench at 10^7 ops: deterministic, complete, inside two minutes."""
    env = dict(os.environ)

    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "pakit.bench", "--ops", "10000000", "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    elapsed = time.monotonic() - start
    assert completed.returncode == 0, completed.stderr
    assert elapsed < 120.0, "benchmark took %.1fs" % elapsed

    lines = completed.stdout.strip().splitlines()
    assert lines[0] == "backend,seconds,ratio,checksum"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"double", "logpr", "balanced", "fixedlog"}
    assert lines[1].startswith("double,")
    assert float(rows["double"][2]) == 1.0
    for row in rows.values():
        assert float(row[1]) > 0.0
        assert math.isfinite(float(row[3]))

    # stable checksums: identical streams on repeat runs
    small = [
        subprocess.run(
            [sys.executable, "-m", "pakit.bench", "--ops", "20000", "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        for _ in range(2)
    ]
    for run in small:
        assert run.returncode == 0, run.stderr
    checksums = [
        [line.split(",")[3] for line in run.stdout.strip().splitlines()[1:]] for run in small
    ]
    assert [len(sums) for sums in checksums] == [4, 4]
    assert checksums[0] == checksums[1]

    # the informational ordering line is always reported in text mode
    text_run = subprocess.run(
        [sys.executable, "-m", "pakit.bench", "--ops", "20000"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert text_run.returncode == 0, text_run.stderr
    assert "ratio(fixedlog) < ratio(logpr)" in text_run.stdout
    ordering_holds = float(rows["fixedlog"][2]) < float(rows["logpr"][2])
    announce(
        "benchmark",
        "%.1fs at 1e7 ops, fixedlog<logpr: %s (informational)"
        % (elapsed, "yes" if ordering_holds else "no"),
    )
