"""The three workloads: ngram-build, ngram-score and hmm-forward.

Each workload has a set-up, which the benchmark repeats to time it, and
a repetition, which it runs back to back for the measured seconds.  A
repetition waits for each call to return before making the next one
(a closed loop with one caller on one thread).  Both return lists of
samples of end-to-end metrics, one per ingest chunk, frozen model,
sentence or sequence; the benchmark reports the median of each.

ngram-build   the write path: a repetition ingests the training stream,
              freezes the model through `wire` and scores a short
              held-out text.  The containers do nearly all the work.
ngram-score   the read path: set-up builds a smaller model the same way;
              a repetition scores long held-out sentences whose
              probability products underflow a double.  Lookups and
              backend arithmetic share the time.
hmm-forward   arithmetic only: set-up estimates a 16-state HMM's
              emissions by counting a labelled stream through the same
              containers; a repetition runs unscaled forward passes, so
              nearly all the time is spent in `pr` backend calls.

Sizes are multiplied by `scale`, which the smoke test sets small.
"""

import numpy as np

import corpus
import pipeline

ZIPF_EXPONENT = 1.1
OOV_RATE = 0.01
TRAIN_SENTENCE = 20  # tokens per training sentence


def _scaled(sizes: dict, scale: float) -> dict:
    return {name: max(2, round(value * scale)) for name, value in sizes.items()}


def _build_samples(ingest_rates, freeze_s, model_bytes, wire_bytes) -> dict:
    return {
        "ingest_tokens_per_s": ingest_rates,
        "freeze_s": [freeze_s],
        "model_bytes": [model_bytes],
        "wire_bytes": [wire_bytes],
    }


def _score_samples(rates: dict) -> dict:
    return {"score_tokens_per_s." + name: values for name, values in rates.items()}


class _NgramWorkload:
    """Shared by the n-gram workloads: a vocabulary, a training and a held-out stream."""

    SIZES: dict

    def __init__(self, seed: int, scale: float, session):
        self.seed = seed
        self.size = _scaled(self.SIZES, scale)
        self.session = session
        self.backends = pipeline.backends()
        self.model = None

    def _generate(self):
        size = self.size
        rng = np.random.default_rng(self.seed)
        words = corpus.vocabulary(self.seed, size["vocabulary"])
        oov = corpus.oov_words(self.seed + 1, size["oov_types"])
        self.train = corpus.zipf_sentences(
            rng, words, ZIPF_EXPONENT, size["train_tokens"] // TRAIN_SENTENCE, TRAIN_SENTENCE)
        self.held_out = corpus.zipf_sentences(
            rng, words, ZIPF_EXPONENT, size["held_out_sentences"], size["held_out_length"], oov, OOV_RATE)
        self.alphabet = size["vocabulary"] + 1  # room for BOS

    def _build(self) -> dict:
        """Ingest and freeze the training stream; keeps the loaded model."""
        counted, ingest_rates, model_bytes = pipeline.ingest(self.train, self.alphabet, self.session)
        try:
            self.model, freeze_s, wire_bytes = pipeline.freeze(counted, self.session)
        finally:
            counted.destroy()
        return _build_samples(ingest_rates, freeze_s, model_bytes, wire_bytes)

    def _score(self) -> dict:
        return _score_samples(pipeline.score_ngram(self.model, self.held_out, self.backends, self.session))

    def close(self):
        if self.model is not None:
            self.model.destroy()
            self.model = None


class NgramBuild(_NgramWorkload):
    SIZES = {
        "vocabulary": 20_000,
        "oov_types": 50,
        "train_tokens": 60_000,
        "held_out_sentences": 200,
        "held_out_length": 20,
    }

    def setup(self) -> dict:
        self._generate()
        return {}

    def rep(self) -> dict:
        self.close()
        samples = self._build()
        samples.update(self._score())
        self.close()
        return samples


class NgramScore(_NgramWorkload):
    SIZES = {
        "vocabulary": 20_000,
        "oov_types": 50,
        "train_tokens": 30_000,
        "held_out_sentences": 3,
        "held_out_length": 2_000,
    }

    def setup(self) -> dict:
        self.close()
        self._generate()
        return self._build()

    def rep(self) -> dict:
        return self._score()


class HmmForward:
    SIZES = {
        "states": 16,
        "alphabet": 1_000,
        "train_tokens": 20_000,
        "sequences": 4,
        "sequence_length": 1_000,
    }

    def __init__(self, seed: int, scale: float, session):
        self.seed = seed
        self.size = _scaled(self.SIZES, scale)
        self.size["states"] = self.SIZES["states"]
        self.session = session

    def setup(self) -> dict:
        """Sample the HMM, count its labelled output, convert its parameters."""
        size = self.size
        hmm = corpus.HiddenMarkovModel(
            self.seed, size["states"], corpus.vocabulary(self.seed, size["alphabet"]), ZIPF_EXPONENT)
        states, words = hmm.sample(self.seed + 1, size["train_tokens"])
        sentences = [words[i:i + TRAIN_SENTENCE] for i in range(0, len(words), TRAIN_SENTENCE)]
        tags = [states[i:i + TRAIN_SENTENCE] for i in range(0, len(states), TRAIN_SENTENCE)]
        counted, ingest_rates, model_bytes = pipeline.ingest(sentences, size["alphabet"] + 1, self.session, tags)
        try:
            model, freeze_s, wire_bytes = pipeline.freeze(counted, self.session)
        finally:
            counted.destroy()
        try:
            emissions, oov = pipeline.emission_estimates(model, size["states"], self.session.tracer)
            find = self.session.tracer.wrap("trie.find", model.trie.find)
            self.sequences = []
            for n in range(size["sequences"]):
                _, held_out = hmm.sample(self.seed + 2 + n, size["sequence_length"])
                ids = [find(word) for word in held_out]
                self.sequences.append([oov if i is None else i for i in ids])
        finally:
            model.destroy()
        self.reference = (hmm.start, hmm.transitions, emissions)
        self.tables = [pipeline.HmmTables(b, hmm.start, hmm.transitions, emissions) for b in pipeline.backends()]
        return _build_samples(ingest_rates, freeze_s, model_bytes, wire_bytes)

    def rep(self) -> dict:
        return _score_samples(pipeline.score_hmm(self.tables, self.reference, self.sequences, self.session))

    def close(self):
        pass  # set-up destroys its containers once the tables are converted


WORKLOADS = {"ngram-build": NgramBuild, "ngram-score": NgramScore, "hmm-forward": HmmForward}

