"""The model pipeline the workloads share: ingest, freeze, score.

Ingest interns each token with `Trie.index_of`, counts it with
`UnigramTable.increment`, and counts the packed pair `context << 32 | id`
with `HashTable.find`/`insert`.  The context is the previous token for
an n-gram model and the hidden state for an HMM's emission counts.

Freeze moves the pair counts into a `Vector` of 12-byte records
(8-byte key, 4-byte count, both big-endian), sorts it, writes trie,
unigram table and vector to one stream and reads them back with
`Trie.read`, `UnigramTable.read` and `CompactTable.read`: the vector's
framing is exactly a `CompactTable` stream.  The loaded model is
checked against the one that was written.

Scoring runs under one `pr` backend at a time.  Every check's outcome
goes to the run's `Session`, which also keeps exact container counts
observed from outside through public calls.  Times are in the gauge's
scaled seconds (see `gauge.py`).
"""

import io
import math
import sys

import numpy as np

from gauge import Gauge
from pakit import CompactTable, HashTable, Trie, UnigramTable, Vector, accounting, pr, symbol_spec

BOS = b"<s>"
LAMBDA = 0.7  # interpolation weight of the bigram estimate
EMISSION_PRIOR = 1.0  # weight of the unigram prior in the HMM emission estimate
KEY_BYTES = 8
COUNT_BYTES = 4
BACKENDS = ("double", "logpr", "balanced", "fixedlog")
CHUNK_SENTENCES = 100  # ingest is timed in chunks of this many sentences


class Session:
    """What one run's calls share: tracer, speed gauge, check outcomes, exact counts."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.gauge = Gauge()
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}
        self.peak_bytes = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def poll(self) -> tuple[int, int]:
        """Registry totals at a stage boundary; keeps the peak byte count."""
        blocks, live_bytes = accounting.totals()
        self.peak_bytes = max(self.peak_bytes, live_bytes)
        return blocks, live_bytes


class Model:
    """Vocabulary, unigram counts and pair counts (HashTable or CompactTable)."""

    def __init__(self, trie, unigrams, pairs):
        self.trie = trie
        self.unigrams = unigrams
        self.pairs = pairs

    def destroy(self) -> None:
        self.trie.destroy()
        self.unigrams.destroy()
        self.pairs.destroy()


def ingest(sentences, alphabet_size, session, tags=None):
    """Intern and count `sentences`; returns (model, tokens/s of each chunk, model bytes).

    `tags`, when given, holds one context per token (the HMM state);
    otherwise the context is the previous token, starting from BOS.
    """
    tracer, gauge = session.tracer, session.gauge
    _, bytes_before = session.poll()
    rates, tokens = [], 0
    mark = gauge.start()
    model = Model(Trie(symbol_width=1), UnigramTable(alphabet_size), HashTable(symbol_spec(KEY_BYTES)))
    pairs, unigrams = model.pairs, model.unigrams
    index_of = tracer.wrap("trie.index_of", model.trie.index_of)
    increment = tracer.wrap("unigram.increment", unigrams.increment)
    find = tracer.wrap("hashing.find", pairs.find)
    insert = tracer.wrap("hashing.insert", pairs.insert)
    capacity, width = pairs.capacity, unigrams.counter_width
    rehashes = widenings = 0
    with tracer.span("bench.ingest"):
        bos = index_of(BOS)
        for n, sentence in enumerate(sentences):
            tracer.group = n
            labels = None if tags is None else tags[n]
            with tracer.span("bench.sentence"):
                increment(bos)
                prev = bos
                for t, word in enumerate(sentence):
                    cur = index_of(word)
                    increment(cur)
                    key = (prev if labels is None else labels[t]) << 32 | cur
                    insert(key, find(key, 0) + 1)
                    prev = cur
            # capacities only double and widths only step 1->2->4->8,
            # so bit lengths count every rehash and widening exactly
            if pairs.capacity != capacity:
                rehashes += pairs.capacity.bit_length() - capacity.bit_length()
                capacity = pairs.capacity
            if unigrams.counter_width != width:
                widenings += unigrams.counter_width.bit_length() - width.bit_length()
                width = unigrams.counter_width
            tokens += len(sentence)
            if (n + 1) % CHUNK_SENTENCES == 0 or n + 1 == len(sentences):
                seconds, mark = gauge.split(mark)
                rates.append(tokens / seconds)
                tokens = 0
    blocks, bytes_after = session.poll()
    session.counts.update({
        "trie.types": len(model.trie),
        "hashing.rehashes": rehashes,
        "hashing.capacity": pairs.capacity,
        "hashing.load": len(pairs) / pairs.capacity,
        "hashing.tombstones": pairs.tombstone_count,
        "unigram.widenings": widenings,
        "accounting.blocks": blocks,
        "accounting.bytes": bytes_after,
    })
    return model, rates, bytes_after - bytes_before


def freeze(model, session):
    """Serialize and reload `model`; returns (loaded model, seconds, wire bytes)."""
    tracer, gauge = session.tracer, session.gauge
    stages = []  # each stage is timed on its own, so gauge readings fall in between
    mark = gauge.start()
    with tracer.span("bench.freeze"):
        records = Vector(KEY_BYTES + COUNT_BYTES)
        append = tracer.wrap("vector.append", records.append)
        for key, count in model.pairs.items():
            append(key.to_bytes(KEY_BYTES, "big") + count.to_bytes(COUNT_BYTES, "big"))
        tracer.wrap("vector.sort", records.sort)()
        stream = io.BytesIO()
        with tracer.span("wire.write"):
            tracer.wrap("trie.write", model.trie.write)(stream)
            tracer.wrap("unigram.write", model.unigrams.write)(stream)
            tracer.wrap("vector.write", records.write)(stream)
        records.destroy()
        wire_bytes = stream.tell()
        stream.seek(0)
        seconds, mark = gauge.split(mark)
        stages.append(seconds)
        with tracer.span("wire.read"):
            trie = tracer.wrap("trie.read", Trie.read)(stream, 1)
            unigrams = tracer.wrap("unigram.read", UnigramTable.read)(stream)
            pairs = tracer.wrap("compact_table.read", CompactTable.read)(stream, KEY_BYTES, COUNT_BYTES)
        loaded = Model(trie, unigrams, pairs)
        seconds, mark = gauge.split(mark)
        stages.append(seconds)
        with tracer.span("bench.verify"):
            session.check(stream.read() == b"", "freeze: stream has trailing bytes")
            session.check(
                len(trie) == len(model.trie)
                and all(trie.string_of(i) == model.trie.string_of(i) for i in range(len(trie))),
                "freeze: reloaded trie spells a different string",
            )
            session.check(unigrams == model.unigrams, "freeze: reloaded unigram table differs")
            reloaded = [(int.from_bytes(k, "big"), int.from_bytes(d, "big")) for k, d in pairs.items()]
            session.check(reloaded == sorted(model.pairs.items()), "freeze: reloaded pair counts differ")
    stages.append(gauge.stop(mark))
    session.poll()
    session.counts.update({"wire.bytes": wire_bytes, "compact_table.entries": len(pairs)})
    return loaded, sum(stages), wire_bytes


def _check_neg_ln(backend, value, reference: float, ops: int, session, what: str) -> None:
    """Compare a backend's -ln p with the reference within ops * ln_tolerance.

    A double is compared only where it stayed a normal number; the rest
    are counted as underflows.
    """
    if backend.name == "double":
        session.add("pr.double.results")
        if value < sys.float_info.min:
            session.add("pr.double.underflows")
            return
    error = abs(backend.neg_ln(value) - reference)
    session.check(error <= backend.ln_tolerance * ops, "%s: %s off by %.3g nats" % (what, backend.name, error))


def score_ngram(model, sentences, backends, session) -> dict[str, list]:
    """Score every sentence under every backend; returns each one's tokens/s per backend.

    Backends take turns sentence by sentence, so a slow moment of the
    machine is shared out among them.  Each turn runs the lookups for
    every token, then the arithmetic for the whole sentence.
    """
    tracer, gauge = session.tracer, session.gauge
    find = tracer.wrap("trie.find", model.trie.find)
    lookup = tracer.wrap("compact_table.lookup", model.pairs.lookup)
    count = tracer.wrap("unigram.count", model.unigrams.count)
    denominator = model.unigrams.total() + len(model.trie) + 1  # add-one, one OOV type
    bos = find(BOS)
    bos_count = count(bos)
    rates = {b.name: [] for b in backends}
    weights = {b.name: (b.from_real(LAMBDA), b.from_real(1.0 - LAMBDA)) for b in backends}
    for n, sentence in enumerate(sentences):
        tracer.group = n
        ops = 6 * len(sentence)  # 2 from_real, 3 mul, 1 add per token
        results = {}
        for backend in backends:
            from_real, mul, add = backend.from_real, backend.mul, backend.add
            weight, rest = weights[backend.name]
            combine = "pr.%s.combine" % backend.name
            mark = gauge.start()
            with tracer.span("bench.sentence"):
                estimates = []
                prev, prev_count = bos, bos_count
                for word in sentence:
                    cur = find(word)
                    unigram = bigram = 0
                    if cur is not None:
                        unigram = count(cur)
                        if prev is not None:
                            datum = lookup((prev << 32 | cur).to_bytes(KEY_BYTES, "big"))
                            if datum is not None:
                                bigram = int.from_bytes(datum, "big")
                    estimates.append((bigram / prev_count if bigram else 0.0, (unigram + 1) / denominator))
                    prev, prev_count = cur, unigram
                with tracer.span(combine):
                    product = backend.one
                    for p_bigram, p_unigram in estimates:
                        p = add(mul(weight, from_real(p_bigram)), mul(rest, from_real(p_unigram)))
                        product = mul(product, p)
            rates[backend.name].append(len(sentence) / gauge.stop(mark))
            results[backend.name] = product
        # every backend saw the same estimates; the reference sums their logs exactly
        reference = math.fsum(-math.log(LAMBDA * b + (1.0 - LAMBDA) * u) for b, u in estimates)
        for backend in backends:
            _check_neg_ln(backend, results[backend.name], reference, ops, session, "sentence %d" % n)
    return rates


class HmmTables:
    """One backend's HMM parameters: start, transition columns, emission columns."""

    def __init__(self, backend, start, transitions, emissions):
        from_real = backend.from_real
        self.backend = backend
        self.start = [from_real(p) for p in start.tolist()]
        columns = [[from_real(p) for p in column] for column in transitions.T.tolist()]
        self.columns = [(column[0], column[1:]) for column in columns]
        self.emissions = [[from_real(p) for p in column] for column in emissions.T.tolist()]


def forward(tables: HmmTables, observations, tracer):
    """Unscaled forward pass; returns p(observations) as a backend value."""
    backend = tables.backend
    mul, add = backend.mul, backend.add
    columns, emissions = tables.columns, tables.emissions
    combine = "pr.%s.combine" % backend.name
    alpha = [mul(p, e) for p, e in zip(tables.start, emissions[observations[0]])]
    for step, symbol in enumerate(observations[1:]):
        tracer.group = step
        with tracer.span(combine):
            head, tail = alpha[0], alpha[1:]
            fresh = []
            for (first, rest), e in zip(columns, emissions[symbol]):
                total = mul(head, first)
                for a, t in zip(tail, rest):
                    total = add(total, mul(a, t))
                fresh.append(mul(total, e))
            alpha = fresh
    total = alpha[0]
    for a in alpha[1:]:
        total = add(total, a)
    return total


def forward_reference(start, transitions, emissions, observations) -> float:
    """-ln p(observations) from a scaled double-precision forward pass."""
    alpha = start * emissions[:, observations[0]]
    neg_ln = 0.0
    for symbol in observations[1:]:
        scale = alpha.sum()
        neg_ln -= math.log(scale)
        alpha = (alpha / scale) @ transitions * emissions[:, symbol]
    return neg_ln - math.log(alpha.sum())


def forward_ops(states: int, length: int) -> int:
    """Backend operations in one unscaled forward pass."""
    per_step = states * states + states * (states - 1) + states
    return states + (length - 1) * per_step + (states - 1)


def score_hmm(tables, reference_model, sequences, session) -> dict[str, list]:
    """Forward pass over every sequence under every backend; returns observations/s."""
    tracer, gauge = session.tracer, session.gauge
    start_p, transitions, emissions = reference_model
    rates = {t.backend.name: [] for t in tables}
    for n, observations in enumerate(sequences):
        reference = forward_reference(start_p, transitions, emissions, observations)
        ops = forward_ops(len(start_p), len(observations))
        for table in tables:
            mark = gauge.start()
            with tracer.span("bench.sequence"):
                result = forward(table, observations, tracer)
            rates[table.backend.name].append(len(observations) / gauge.stop(mark))
            _check_neg_ln(table.backend, result, reference, ops, session, "sequence %d" % n)
    return rates


def backends() -> list:
    return [pr.backend_by_name(name) for name in BACKENDS]


def emission_estimates(model, states: int, tracer) -> tuple[np.ndarray, int]:
    """p(word | state) from the loaded counts, smoothed toward the unigram estimate.

    Returns a states x (types + 1) matrix whose last column is the OOV
    word, and that OOV column's index.
    """
    types = len(model.trie)
    oov = types
    counts = np.zeros((states, types + 1))
    lookup = tracer.wrap("compact_table.lookup", model.pairs.lookup)
    count = tracer.wrap("unigram.count", model.unigrams.count)
    for state in range(states):
        for word in range(types):
            datum = lookup((state << 32 | word).to_bytes(KEY_BYTES, "big"))
            if datum is not None:
                counts[state, word] = int.from_bytes(datum, "big")
    unigram = np.array([count(i) for i in range(types)] + [0], dtype=np.float64)
    prior = (unigram + 1.0) / (model.unigrams.total() + types + 1)
    totals = counts.sum(axis=1, keepdims=True)
    return (counts + EMISSION_PRIOR * prior) / (totals + EMISSION_PRIOR), oov
