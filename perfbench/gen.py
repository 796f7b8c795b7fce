"""Seeded input generators for the benchmark.

Everything here is a pure function of a numpy Generator, so one workload
seed always yields the same text.  The library under test only ever sees
the rendered text (or documents it built itself from that text); the
planted structure returned alongside is kept by the benchmark for its
output checks.

Two generators share one block-topic design: each topic puts almost all of
its mass on one contiguous block of the vocabulary, with a small uniform
background, and each document mixes one or two topics with a Dirichlet(5)
weight vector.  That keeps true document-topic mixtures concentrated but
not one-hot, the regime the entropy penalty acts on.
"""

from dataclasses import dataclass

import numpy as np

BACKGROUND_MASS = 0.01
MIX_CONCENTRATION = 5.0


def term(j):
    """Vocabulary word j as text; zero-padded so lexicographic order is id order."""
    return "w%04d" % j


@dataclass
class PlantedTopics:
    """A K x V topic-word matrix over the terms ``term(0) .. term(V-1)``."""

    eta: np.ndarray

    @property
    def K(self):
        return self.eta.shape[0]

    @property
    def V(self):
        return self.eta.shape[1]


@dataclass
class GeneratedDocs:
    texts: list  # (doc_id, raw text) pairs
    mixes: np.ndarray  # (D, K) planted topic mixture of each document


def block_topics(rng, k, vocab_size, jitter=True):
    """Planted block topics: topic i owns terms [i*B, (i+1)*B), B = V // K.

    With jitter the in-block weights are Gamma(2)-distributed instead of
    flat, so every topic has a strict ranking of its top words.
    """
    block = vocab_size // k
    eta = np.full((k, vocab_size), BACKGROUND_MASS / vocab_size)
    for i in range(k):
        weights = rng.gamma(2.0, 1.0, size=block) if jitter else np.ones(block)
        eta[i, i * block : (i + 1) * block] += (1.0 - BACKGROUND_MASS) * weights / weights.sum()
    eta /= eta.sum(axis=1, keepdims=True)
    return PlantedTopics(eta)


def documents(rng, topics, n_docs, len_lo, len_hi, prefix="d"):
    """Draw documents from the planted topics and render them as text."""
    k, v = topics.K, topics.V
    texts, mixes = [], np.zeros((n_docs, k))
    for d in range(n_docs):
        n = int(rng.integers(len_lo, len_hi + 1))
        active = rng.choice(k, size=int(rng.integers(1, 3)), replace=False)
        mixes[d, active] = rng.dirichlet(np.full(active.shape[0], MIX_CONCENTRATION))
        word_p = mixes[d] @ topics.eta
        tokens = rng.choice(v, size=n, p=word_p / word_p.sum())
        texts.append(("%s%05d" % (prefix, d), " ".join(term(int(w)) for w in tokens)))
    return GeneratedDocs(texts, mixes)
