"""Shared fixtures and oracle helpers for the test suite.

Two pieces live here because both the unit tests and the acceptance gate
use them: the synthetic block-topic corpus generator, and the finite-
difference derivative checker for the per-document gamma objective.  The
acceptance tests additionally register one result line per criterion,
printed in a terminal section at the end of the run.
"""

import math
import os

import numpy as np
import pytest

import cdtm
from cdtm.corpus import Corpus, Document, Vocabulary
from cdtm.inference import elbo_gamma_part, gamma_grad_hess

# ---------------------------------------------------------------------------
# Synthetic block-topic corpora
#
# K_true topics, each a near-delta distribution over one contiguous block of
# the vocabulary with a small uniform background.  Every document draws one
# or two topics and mixes them with a moderately concentrated Dirichlet, so
# the true document-topic distributions are concentrated but not one-hot —
# the regime where the entropy penalty has a visible direction to push.


def block_topics(vocab_size, k_true):
    """The planted topics of make_synth: topic k owns block k of the vocabulary."""
    block = vocab_size // k_true
    topics = np.full((k_true, vocab_size), 0.01 / vocab_size)
    for k in range(k_true):
        topics[k, k * block : (k + 1) * block] += 1.0 / block
    return topics / topics.sum(axis=1, keepdims=True)


def make_synth(seed, n_docs=50, vocab_size=100, k_true=5, len_lo=50, len_hi=200):
    rng = np.random.default_rng(seed)
    topics = block_topics(vocab_size, k_true)

    vocab = Vocabulary(["w%03d" % j for j in range(vocab_size)])
    documents = []
    for d in range(n_docs):
        n = int(rng.integers(len_lo, len_hi + 1))
        n_active = int(rng.integers(1, 3))
        active = rng.choice(k_true, size=n_active, replace=False)
        mix = rng.dirichlet(np.full(n_active, 5.0))
        word_p = mix @ topics[active]
        tokens = rng.choice(vocab_size, size=n, p=word_p)
        documents.append(Document("d%03d" % d, tokens))
    return Corpus(vocab, documents)


# ---------------------------------------------------------------------------
# Finite-difference oracle for the gamma objective derivatives


def random_gamma_states(n_states, seed):
    """Random (gamma, zeta, colsums, lam) tuples spanning the fit's regimes."""
    rng = np.random.default_rng(seed)
    states = []
    for t in range(n_states):
        k = int(rng.integers(2, 9))
        gamma = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=k))
        zeta = rng.uniform(0.1, 2.0, size=k)
        n_words = rng.integers(5, 300)
        colsums = rng.dirichlet(np.ones(k)) * n_words
        lam = (0.0, 5.0, 35.0, float(rng.uniform(0.0, 60.0)))[t % 4]
        states.append((gamma, zeta, colsums, lam))
    return states


def _central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def derivative_fd_errors(n_states, seed):
    """Worst relative mismatch of grad/hess against central differences.

    Relative error uses max(|analytic|, |fd|, 1) as the denominator so that
    the check stays meaningful where a derivative passes through zero.
    Returns (max_rel_grad_err, max_rel_hess_err).
    """
    worst_g, worst_h = 0.0, 0.0
    for gamma, zeta, colsums, lam in random_gamma_states(n_states, seed):
        k = gamma.shape[0]
        i = int(np.argmax(gamma)) if k == 2 else int(gamma.shape[0] // 2)
        gi = gamma[i]
        h = 1e-5 * max(1.0, gi)

        def value_at(x):
            g = gamma.copy()
            g[i] = x
            return elbo_gamma_part(g, zeta, colsums, lam)

        def grad_at(x):
            g = gamma.copy()
            g[i] = x
            return gamma_grad_hess(g, zeta, colsums, lam)[0][i]

        fd_g = _central_diff(value_at, gi, h)
        an_g = gamma_grad_hess(gamma, zeta, colsums, lam)[0][i]
        worst_g = max(worst_g, abs(an_g - fd_g) / max(abs(an_g), abs(fd_g), 1.0))

        fd_h = _central_diff(grad_at, gi, h)
        an_h = gamma_grad_hess(gamma, zeta, colsums, lam)[1][i, i]
        worst_h = max(worst_h, abs(an_h - fd_h) / max(abs(an_h), abs(fd_h), 1.0))
    return worst_g, worst_h


# ---------------------------------------------------------------------------
# Child interpreters


def cdtm_subprocess_env():
    """Environment for a child process that imports the cdtm under test.

    pytest's own pythonpath setting reaches only its process, so the child
    gets the directory holding the imported package first on PYTHONPATH.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cdtm.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion

ACCEPTANCE_RESULTS = {}


def record_criterion(number, ok, detail):
    ACCEPTANCE_RESULTS[number] = (bool(ok), detail)
    return bool(ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(
            "criterion %d: %s  (%s)" % (number, "PASS" if ok else "FAIL", detail)
        )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def entropy_of(vec):
    """Plain-float Shannon entropy of a normalized vector (test-side helper)."""
    total = math.fsum(float(v) for v in vec)
    ps = [float(v) / total for v in vec]
    return -math.fsum(p * math.log(p) for p in ps if p > 0)
