"""Topic-quality and concentration evaluation.

Coherence: each topic's top-N words are scored with C_V, built from NPMI
statistics over boolean sliding windows, counted within each topic's own
top words.  Every word gets an N-vector of NPMIs against the topic's word
set, the topic vector is the sum of those vectors, and C_V is the mean
cosine similarity between word vectors and topic vector.

Concentration: per-document topic entropies H(theta_d) with summary
statistics (sample variance, skewness, excess kurtosis).

Model selection: two-stage cross-validation, first the topic count by
held-out perplexity with no entropy penalty, then the penalty weight by
held-out coherence at the chosen topic count.
"""

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import _window_joint, kfold_split
from .inference import fit, perplexity

logger = logging.getLogger(__name__)

NPMI_EPS = 1e-12
DEFAULT_TOP_N = 20
DEFAULT_WINDOW_SIZE = 110


@dataclass
class TopicTopWords:
    topic_id: int
    words: list  # word ids, descending topic weight

    def __post_init__(self):
        if len(self.words) < 2:
            raise ValueError("a topic needs at least 2 top words")
        if len(set(self.words)) != len(self.words):
            raise ValueError("top words must be distinct")


@dataclass
class CoherenceReport:
    per_topic: dict  # topic_id -> C_V in [-1, 1]
    mean_cv: float
    window_size: int
    top_n: int
    topics: list = field(default_factory=list)  # the TopicTopWords scored


@dataclass
class EntropyStats:
    entropies: np.ndarray  # H(gamma_d / sum gamma_d) per document
    mean: float
    variance: float  # n-1 denominator
    skewness: float
    excess_kurtosis: float
    K: int


GridRow = namedtuple("GridRow", "K lam fold metric_name value")


def entropy(dist):
    """Shannon entropy -sum p log p (natural log, 0 log 0 = 0) of a simplex point."""
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("entropy expects a 1-D distribution")
    with np.errstate(over="ignore"):  # a sum that overflows fails the test below
        total = float(d.sum())
    # Written so that NaN fails both tests.
    if not (np.all(d >= 0) and abs(total - 1.0) <= 1e-9):
        raise ValueError("distribution is not on the simplex")
    pos = d[d > 0].tolist()
    return -math.fsum(p * math.log(p) for p in pos)


def entropy_stats(per_doc_gamma):
    """Per-document entropies of the normalized gammas, with summary statistics.

    Variance uses the n-1 denominator; skewness and excess kurtosis are the
    central-moment ratios m3/m2^1.5 and m4/m2^2 - 3 (returned as 0 when the
    entropies are all equal).  Every gamma vector must have one length
    and finite entries >= 0 with a positive sum; ValueError otherwise,
    naming the first row (from 0) that fails.
    """
    if len(per_doc_gamma) == 0:
        raise ValueError("entropy_stats requires at least one document")
    first = np.asarray(per_doc_gamma[0], dtype=np.float64)
    K = first.shape[0]
    ents = []
    for i, g in enumerate(per_doc_gamma):
        arr = np.asarray(g, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != K:
            raise ValueError("all gamma vectors must share one length")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        # A finite sum of entries >= 0 means finite entries; NaN fails both tests.
        if not (np.all(arr >= 0) and 0.0 < total < math.inf):
            raise ValueError("gamma row %d needs finite entries >= 0 with a positive sum" % i)
        ents.append(entropy(arr / total))
    e = np.asarray(ents)
    n = e.shape[0]
    mean = float(e.mean())
    d = e - mean
    variance = float(np.dot(d, d) / (n - 1)) if n > 1 else 0.0
    m2 = float(np.mean(d * d))
    if m2 > 0.0:
        skew = float(np.mean(d**3)) / m2**1.5
        kurt = float(np.mean(d**4)) / (m2 * m2) - 3.0
    else:
        skew, kurt = 0.0, 0.0
    return EntropyStats(e, mean, variance, skew, kurt, K)


def _npmi(joint, total_windows):
    """NPMI blocks from a (K, n, n) stack of integer window counts, as a (K, n, n) float stack.

    ``joint[k, i, j]`` counts the windows holding both words i and j of
    block k (the diagonal: the windows holding word i), out of
    ``total_windows``.  Every operation is elementwise, so a block does not
    depend on the stack it is computed in.
    """
    if total_windows <= 0:
        raise ValueError("counts hold no windows")
    total = float(total_windows)
    joint = joint.astype(np.float64)
    p_marg = np.diagonal(joint, axis1=1, axis2=2) / total
    log_joint = np.log(joint / total + NPMI_EPS)
    num = log_joint - np.log(p_marg[:, :, None] * p_marg[:, None, :] + NPMI_EPS)
    mat = np.clip(num / -log_joint, -1.0, 1.0)
    mat[joint == total] = 1.0
    diag = np.arange(joint.shape[1])
    mat[:, diag, diag] = np.where(p_marg > 0, 1.0, mat[:, diag, diag])
    return mat


def _cv_stack(mat):
    """C_V of every (n, n) NPMI block of the (K, n, n) stack ``mat``, as a list.

    Every sum runs along the last axis, and no product goes through BLAS,
    whose kernel could change with K, so a block's C_V does not depend on
    the stack it is scored in.  The blocks are symmetric, so each one's
    topic vector (the sum of its word vectors) is its row sums.
    """
    topic_vec = mat.sum(axis=-1)
    norms = np.sqrt((mat * mat).sum(axis=-1)) * np.sqrt((topic_vec * topic_vec).sum(axis=-1))[:, None]
    dots = (mat * topic_vec[:, None, :]).sum(axis=-1)
    sims = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
    n = mat.shape[-1]
    return [math.fsum(row) / n for row in np.clip(sims, -1.0, 1.0).tolist()]


def npmi_matrix(words, counts):
    """NPMI of every pair of ``words``, as an n x n array, from sliding-window counts.

    The words' block is read from the counts' joint matrix in one gather; a
    word that is not one of ``counts.targets`` is a ValueError.
    Probabilities are window-occurrence fractions; 1e-12 is added inside
    each log argument and the result is clamped to [-1, 1].  A word paired
    with itself scores 1 when it occurs at all, and a pair present in every
    window scores 1 (the always-together limit).  This is the code that
    :func:`coherence_report` runs on all topics at once, on a stack of one.
    """
    slot = counts.slots(words)
    return _npmi(counts.joint[np.ix_(slot, slot)][None], counts.total_windows)[0]


def cv_score(topic, counts):
    """C_V for one topic: mean cosine between per-word NPMI vectors and their sum.

    The counts must have been built with every top word tracked (an
    untracked word is a ValueError).  A word whose NPMI vector is all zeros
    (it occurs in no window) scores cosine 0.  This is the code that
    :func:`coherence_report` runs on all topics at once, on a stack of one,
    so a topic scores the same bits either way.
    """
    return _cv_stack(npmi_matrix(topic.words, counts)[None])[0]


def coherence_report(model, reference_corpus, top_n=DEFAULT_TOP_N, window_size=DEFAULT_WINDOW_SIZE):
    """Score every topic's top words against a reference corpus.

    The top words come from one row-wise stable argsort of eta.  The
    windows are counted for each topic's own top words only, as one
    (K, top_n, top_n) stack of count blocks with no pair of words from two
    topics; the stack is scored in one pass, with the same values as
    :func:`cv_score` on :func:`count_windows` counts, and the scores
    averaged.
    """
    if top_n < 2:
        raise ValueError("top_n must be >= 2")
    if top_n > model.V:
        raise ValueError("top_n %d exceeds vocabulary size %d" % (top_n, model.V))
    order = np.argsort(-model.eta, axis=1, kind="stable")[:, :top_n]
    topics = [TopicTopWords(k, words) for k, words in enumerate(order.tolist())]
    total, joint = _window_joint(reference_corpus, window_size, order)
    per_topic = dict(enumerate(_cv_stack(_npmi(joint, total))))
    mean_cv = math.fsum(per_topic.values()) / len(per_topic)
    return CoherenceReport(per_topic, mean_cv, window_size, top_n, topics)


def grid_select(
    corpus,
    candidate_Ks,
    candidate_lambdas,
    folds,
    config,
    top_n=DEFAULT_TOP_N,
    window_size=DEFAULT_WINDOW_SIZE,
):
    """Two-stage cross-validated selection of the topic count and penalty weight.

    Stage 1 picks K by mean held-out perplexity with the penalty off; stage
    2 picks lambda by mean coherence at that K.  Ties go to the smaller
    value.  Coherence probabilities come from the validation fold.  Returns
    (best K, best lambda, list of GridRow).
    """
    if folds < 2:
        raise ValueError("cross-validation needs folds >= 2")
    if not candidate_Ks or not candidate_lambdas:
        raise ValueError("candidate grids must be non-empty")
    for k in candidate_Ks:  # every fit's settings, before the first fit; each fold keeps the vocabulary
        if int(k) > corpus.n_words:
            raise ValueError("vocabulary size %d is smaller than K=%d" % (corpus.n_words, int(k)))
        for lam in (0.0, *candidate_lambdas):
            replace(config, K=int(k), lam=float(lam)).validate()
    if not 2 <= top_n <= corpus.n_words:
        raise ValueError("top_n must lie in [2, %d], the vocabulary size" % corpus.n_words)
    if window_size < 2:
        raise ValueError("window_size must be >= 2")
    splits = list(kfold_split(corpus, folds, config.seed))
    fits = {}  # (K, lambda, fold) -> (model, config): a fit's per-document results are not kept

    def fitted(k, lam, fold_idx):
        key = (k, lam, fold_idx)
        if key not in fits:
            cfg = replace(config, K=k, lam=lam)
            fits[key] = (fit(splits[fold_idx][0], cfg).model, cfg)
        return fits[key]

    table = []
    k_means = {}
    for k in candidate_Ks:
        vals = []
        for f in range(folds):
            model, cfg = fitted(int(k), 0.0, f)
            pp = perplexity(splits[f][1], model, cfg)
            table.append(GridRow(int(k), 0.0, f, "perplexity", pp))
            vals.append(pp)
        k_means[int(k)] = math.fsum(vals) / folds
        logger.info("grid: K=%d mean perplexity %.4f", int(k), k_means[int(k)])
    best_k = min((int(k) for k in candidate_Ks), key=lambda k: (k_means[k], k))

    lam_means = {}
    for lam in candidate_lambdas:
        vals = []
        for f in range(folds):
            model, _ = fitted(best_k, float(lam), f)
            rep = coherence_report(model, splits[f][1], top_n, window_size)
            table.append(GridRow(best_k, float(lam), f, "mean_cv", rep.mean_cv))
            vals.append(rep.mean_cv)
        lam_means[float(lam)] = math.fsum(vals) / folds
        logger.info("grid: lambda=%g mean C_V %.4f", lam, lam_means[float(lam)])
    best_lam = min((float(l) for l in candidate_lambdas), key=lambda l: (-lam_means[l], l))
    return best_k, best_lam, table
