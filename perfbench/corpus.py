"""Seeded synthetic inputs: Zipfian word streams and a hidden Markov model.

Everything here is derived from the seed the benchmark is given, so one
seed always yields the same inputs; the library only ever sees the
generated words.  Words are lowercase byte strings of 2 to 9 letters;
out-of-vocabulary words are uppercase, so they can never collide with
a vocabulary word.
"""

import bisect
import random

import numpy as np

LETTERS = b"abcdefghijklmnopqrstuvwxyz"
OOV_LETTERS = LETTERS.upper()


def _words(rng: random.Random, count: int, letters: bytes) -> list[bytes]:
    seen = set()
    words = []
    while len(words) < count:
        word = bytes(rng.choices(letters, k=rng.randint(2, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def vocabulary(seed: int, size: int) -> list[bytes]:
    """`size` distinct words; list position is the word's frequency rank."""
    return _words(random.Random(seed), size, LETTERS)


def oov_words(seed: int, size: int) -> list[bytes]:
    """Words that are in no vocabulary."""
    return _words(random.Random(seed), size, OOV_LETTERS)


def zipf_cdf(size: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, size + 1, dtype=np.float64) ** -exponent
    return np.cumsum(weights / weights.sum())


def zipf_sentences(rng: np.random.Generator, words, exponent, sentence_count, length, oov=(), oov_rate=0.0):
    """Sentences of `length` words drawn by Zipf rank, with some OOV words mixed in."""
    ranks = np.searchsorted(zipf_cdf(len(words), exponent), rng.random((sentence_count, length)), side="right")
    ranks = np.minimum(ranks, len(words) - 1).tolist()
    sentences = [[words[r] for r in row] for row in ranks]
    if oov:
        hits = np.argwhere(rng.random((sentence_count, length)) < oov_rate).tolist()
        picks = rng.integers(0, len(oov), size=len(hits)).tolist()
        for (row, col), pick in zip(hits, picks):
            sentences[row][col] = oov[pick]
    return sentences


class HiddenMarkovModel:
    """A random K-state HMM over a word alphabet with Zipfian emissions per state."""

    def __init__(self, seed: int, states: int, alphabet: list[bytes], exponent: float):
        rng = np.random.default_rng(seed)
        self.alphabet = alphabet
        self.start = rng.dirichlet(np.ones(states))
        self.transitions = rng.dirichlet(np.full(states, 0.5), size=states)
        zipf = zipf_cdf(len(alphabet), exponent)
        weights = np.diff(zipf, prepend=0.0)
        self.emissions = np.array([weights[rng.permutation(len(alphabet))] for _ in range(states)])
        self._start_cdf = np.cumsum(self.start).tolist()
        self._transition_cdfs = np.cumsum(self.transitions, axis=1).tolist()
        self._emission_cdfs = np.cumsum(self.emissions, axis=1).tolist()

    def sample(self, seed: int, length: int) -> tuple[list[int], list[bytes]]:
        """A state path and the words it emits."""
        rng = random.Random(seed)
        last = len(self.alphabet) - 1
        state = min(bisect.bisect(self._start_cdf, rng.random()), len(self.start) - 1)
        states, words = [], []
        for _ in range(length):
            states.append(state)
            symbol = min(bisect.bisect(self._emission_cdfs[state], rng.random()), last)
            words.append(self.alphabet[symbol])
            cdf = self._transition_cdfs[state]
            state = min(bisect.bisect(cdf, rng.random()), len(cdf) - 1)
        return states, words
