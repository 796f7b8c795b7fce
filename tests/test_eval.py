"""Evaluation-metric tests.

Oracles, most independent first:
  * exhaustive window enumeration straight from token lists (sets of
    distinct words per sliding window, whole-document window for short
    docs) feeding a from-scratch NPMI / C_V assembly;
  * hand-counted probabilities on documents small enough to enumerate by
    hand;
  * spreadsheet-style moment computations (explicit fsum loops) for the
    entropy summary statistics.
"""

import json
import math

import numpy as np
import pytest

from conftest import entropy_of
from cdtm.cli import ENTROPY_BIN_WIDTH, main, write_table
from cdtm.corpus import (
    Corpus,
    Document,
    Vocabulary,
    WindowCounts,
    count_windows,
    write_encoded_corpus,
    write_vocabulary_tsv,
)
from cdtm.evaluate import (
    CoherenceReport,
    GridRow,
    TopicTopWords,
    coherence_report,
    cv_score,
    entropy,
    entropy_stats,
    grid_select,
    _npmi_stack,
    npmi_matrix,
)
from cdtm.model import ModelParams, TrainConfig, save_model

NPMI_EPS = 1e-12

# ---------------------------------------------------------------------------
# Oracles


def brute_windows(docs, window_size):
    """Exhaustive sliding-window statistics from raw token lists.

    Returns (total, unigram dict, pair dict keyed by frozenset) counting
    windows of `window_size` stepped by one, with a document shorter than
    the window contributing its whole token list as a single window.
    """
    total = 0
    uni = {}
    pairs = {}
    for tokens in docs:
        if len(tokens) <= window_size:
            windows = [tokens]
        else:
            windows = [
                tokens[s : s + window_size]
                for s in range(len(tokens) - window_size + 1)
            ]
        for win in windows:
            total += 1
            present = sorted(set(win))
            for a in present:
                uni[a] = uni.get(a, 0) + 1
            for x in range(len(present)):
                for y in range(x + 1, len(present)):
                    key = frozenset((present[x], present[y]))
                    pairs[key] = pairs.get(key, 0) + 1
    return total, uni, pairs


def oracle_npmi(a, b, total, uni, pairs):
    """NPMI with the documented conventions, from brute-force counts."""
    c_a = uni.get(a, 0)
    if a == b and c_a > 0:
        return 1.0
    c_ab = uni.get(a, 0) if a == b else pairs.get(frozenset((a, b)), 0)
    if c_ab == total:
        return 1.0
    p_ab = c_ab / total
    p_a = uni.get(a, 0) / total
    p_b = uni.get(b, 0) / total
    num = math.log(p_ab + NPMI_EPS) - math.log(p_a * p_b + NPMI_EPS)
    den = -math.log(p_ab + NPMI_EPS)
    return max(-1.0, min(1.0, num / den))


def oracle_cv(words, docs, window_size):
    """From-scratch C_V: NPMI matrix, column sums, mean cosine similarity."""
    total, uni, pairs = brute_windows(docs, window_size)
    n = len(words)
    mat = [[oracle_npmi(words[a], words[b], total, uni, pairs) for b in range(n)] for a in range(n)]
    sums = [math.fsum(mat[a][b] for a in range(n)) for b in range(n)]
    cos = []
    for a in range(n):
        dot = math.fsum(mat[a][b] * sums[b] for b in range(n))
        nu = math.sqrt(math.fsum(x * x for x in mat[a]))
        nv = math.sqrt(math.fsum(x * x for x in sums))
        cos.append(0.0 if nu == 0.0 or nv == 0.0 else dot / (nu * nv))
    return math.fsum(cos) / n


def oracle_moments(values):
    """Spreadsheet-style mean/variance(n-1)/skewness/excess kurtosis."""
    n = len(values)
    mean = math.fsum(values) / n
    dev = [v - mean for v in values]
    var = math.fsum(d * d for d in dev) / (n - 1)
    m2 = math.fsum(d * d for d in dev) / n
    m3 = math.fsum(d**3 for d in dev) / n
    m4 = math.fsum(d**4 for d in dev) / n
    skew = m3 / m2**1.5
    kurt = m4 / (m2 * m2) - 3.0
    return mean, var, skew, kurt


def tiny_corpus(token_lists, vocab_size):
    vocab = Vocabulary(["t%02d" % j for j in range(vocab_size)])
    docs = [Document("d%d" % i, toks) for i, toks in enumerate(token_lists)]
    return Corpus(vocab, docs)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_one_hot_is_zero():
    assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_uniform_is_log_k():
    assert entropy(np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-12)


def test_entropy_permutation_invariant():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    assert entropy(p) == pytest.approx(entropy(p[::-1].copy()), abs=1e-15)


def test_entropy_uniform_is_maximal():
    rng = np.random.default_rng(7)
    top = entropy(np.full(6, 1.0 / 6.0))
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        assert entropy(p) <= top + 1e-12


def test_entropy_contrast_between_mixed_and_peaked():
    # A document split over two topics carries visibly more entropy than
    # one dominated by a single topic.
    mixed = np.array([0.39, 0.42, 0.07, 0.06, 0.06])
    peaked = np.array([0.93, 0.02, 0.02, 0.02, 0.01])
    assert entropy(mixed) > entropy(peaked)


def test_entropy_rejects_non_simplex():
    with pytest.raises(ValueError):
        entropy(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        entropy(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        entropy(np.array([[0.5, 0.5]]))
    # NaN fails every comparison, so each check must be written to fail on it.
    # [1e308, 1e308]: finite entries whose sum overflows, with no overflow warning.
    for bad in ([math.nan, 1.0], [math.nan, math.nan], [math.inf, 1.0], [0.5, math.nan, 0.5], [1e308, 1e308]):
        with pytest.raises(ValueError, match="simplex"):
            entropy(np.array(bad))


# ---------------------------------------------------------------------------
# entropy_stats


def test_entropy_stats_identical_one_hots():
    gammas = [np.array([5.0, 1e-12]) for _ in range(4)]
    st = entropy_stats(gammas)
    assert st.mean == pytest.approx(0.0, abs=1e-9)
    assert st.variance == pytest.approx(0.0, abs=1e-18)
    assert st.skewness == 0.0
    assert st.excess_kurtosis == 0.0


def test_entropy_stats_uniform_gammas():
    gammas = [np.full(8, c) for c in (0.5, 2.0, 17.0)]
    st = entropy_stats(gammas)
    assert st.mean == pytest.approx(math.log(8), abs=1e-12)
    assert st.variance == pytest.approx(0.0, abs=1e-24)
    assert st.K == 8


def test_entropy_stats_matches_moment_oracle():
    gammas = [
        np.array([4.0, 1.0, 1.0]),
        np.array([1.0, 1.0, 1.0]),
        np.array([10.0, 0.5, 0.5]),
        np.array([2.0, 3.0, 5.0]),
        np.array([0.2, 0.2, 8.0]),
    ]
    st = entropy_stats(gammas)
    ents = [entropy_of(g) for g in gammas]
    mean, var, skew, kurt = oracle_moments(ents)
    assert np.allclose(st.entropies, ents, atol=1e-12)
    assert st.mean == pytest.approx(mean, abs=1e-12)
    assert st.variance == pytest.approx(var, abs=1e-12)
    assert st.skewness == pytest.approx(skew, abs=1e-10)
    assert st.excess_kurtosis == pytest.approx(kurt, abs=1e-10)


def test_entropy_stats_single_document():
    st = entropy_stats([np.array([3.0, 1.0])])
    assert st.variance == 0.0
    assert st.skewness == 0.0


def test_entropy_stats_validation():
    with pytest.raises(ValueError):
        entropy_stats([])
    with pytest.raises(ValueError):
        entropy_stats([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])
    # Rejected before the division, so no 0/0 or NaN warning fires.
    for bad in ([math.nan, 1.0], [0.0, 0.0], [-1.0, 2.0], [math.inf, 1.0], [1e308, 1e308]):
        with pytest.raises(ValueError, match="gamma row 1 "):
            entropy_stats([np.array([1.0, 2.0]), np.array(bad)])


# ---------------------------------------------------------------------------
# npmi


def test_npmi_self_pair_is_one():
    corpus = tiny_corpus([[0, 1, 0, 2]], vocab_size=3)
    counts = count_windows(corpus, 2, [0, 1, 2])
    assert npmi_matrix([0], counts)[0, 0] == 1.0


def test_npmi_always_together_is_one():
    # Words 0 and 1 share every window.
    corpus = tiny_corpus([[0, 1], [1, 0], [0, 1]], vocab_size=2)
    counts = count_windows(corpus, 5, [0, 1])
    assert npmi_matrix([0, 1], counts)[0, 1] == 1.0


def test_npmi_never_together_is_near_minus_one():
    corpus = tiny_corpus([[0] * 6, [1] * 6], vocab_size=2)
    counts = count_windows(corpus, 3, [0, 1])
    assert npmi_matrix([0, 1], counts)[0, 1] <= -0.9


def test_npmi_symmetric():
    corpus = tiny_corpus([[0, 0, 1, 2], [2, 1, 1, 0]], vocab_size=3)
    counts = count_windows(corpus, 2, [0, 1, 2])
    mat = npmi_matrix([0, 1, 2], counts)
    assert (mat == mat.T).all()
    for a in range(3):
        for b in range(a):
            assert npmi_matrix([a, b], counts)[0, 1] == npmi_matrix([b, a], counts)[0, 1]


def test_npmi_no_windows_error():
    empty = count_windows(tiny_corpus([], vocab_size=2), 2, [0, 1])
    assert empty.total_windows == 0
    with pytest.raises(ValueError):
        npmi_matrix([0, 1], empty)


@pytest.mark.parametrize("word", [1, 4, -1, 9])
def test_untracked_word_is_an_error(word):
    # Ids 1 and 4 are in the vocabulary but not targets (4 sorts past the
    # last target); -1 and 9 are outside the vocabulary altogether.
    counts = count_windows(tiny_corpus([[0, 1, 2, 3, 4]], vocab_size=5), 2, [0, 2, 3])
    calls = (
        lambda: npmi_matrix([0, word, 2], counts),
        lambda: npmi_matrix([0, word], counts),
        lambda: npmi_matrix([word], counts),
        lambda: cv_score(TopicTopWords(0, [2, word]), counts),
    )
    for call in calls:
        with pytest.raises(ValueError, match="word id %d is not a target" % word):
            call()


def test_npmi_hand_counted_example():
    # Document [a, a, b, c], windows of 2: {a}, {a,b}, {b,c}.
    # a and b share 1 of 3 windows; a appears in 2, b in 2.
    corpus = tiny_corpus([[0, 0, 1, 2]], vocab_size=3)
    counts = count_windows(corpus, 2, [0, 1, 2])
    assert counts.total_windows == 3
    mat = npmi_matrix([0, 1, 2], counts)
    expected = (math.log(1 / 3 + NPMI_EPS) - math.log((2 / 3) * (2 / 3) + NPMI_EPS)) / (
        -math.log(1 / 3 + NPMI_EPS)
    )
    assert mat[0, 1] == pytest.approx(expected, abs=1e-10)
    # a and c never share a window: 0 of 3.
    expected_ac = (math.log(NPMI_EPS) - math.log((2 / 3) * (1 / 3) + NPMI_EPS)) / (
        -math.log(NPMI_EPS)
    )
    assert mat[0, 2] == pytest.approx(expected_ac, abs=1e-10)


def test_npmi_matches_brute_force_on_random_docs():
    rng = np.random.default_rng(11)
    token_lists = [rng.integers(0, 5, size=int(n)).tolist() for n in rng.integers(3, 15, size=6)]
    corpus = tiny_corpus(token_lists, vocab_size=5)
    counts = count_windows(corpus, 3, list(range(5)))
    total, uni, pairs = brute_windows(token_lists, 3)
    assert counts.total_windows == total
    mat = npmi_matrix(range(5), counts)
    for a in range(5):
        for b in range(5):
            assert mat[a, b] == pytest.approx(
                oracle_npmi(a, b, total, uni, pairs), abs=1e-12
            )


# ---------------------------------------------------------------------------
# cv_score


def test_cv_all_cooccurring_words_score_one():
    corpus = tiny_corpus([[0, 1, 2], [2, 1, 0], [1, 0, 2]], vocab_size=3)
    counts = count_windows(corpus, 10, [0, 1, 2])
    topic = TopicTopWords(0, [0, 1, 2])
    assert cv_score(topic, counts) == pytest.approx(1.0, abs=1e-9)


def test_cv_matches_brute_force_oracle():
    # 30 tokens over a 6-word vocabulary, small enough to enumerate.
    rng = np.random.default_rng(13)
    token_lists = [rng.integers(0, 6, size=10).tolist() for _ in range(3)]
    corpus = tiny_corpus(token_lists, vocab_size=6)
    words = [0, 2, 3, 5]
    counts = count_windows(corpus, 4, words)
    got = cv_score(TopicTopWords(0, words), counts)
    want = oracle_cv(words, token_lists, 4)
    assert got == pytest.approx(want, abs=1e-10)
    assert -1.0 <= got <= 1.0


def test_cv_coherent_topic_beats_split_topic():
    # Words {0,1} always together, {2,3} always together, never across.
    docs = [[0, 1, 0, 1], [2, 3, 2, 3]] * 3
    corpus = tiny_corpus(docs, vocab_size=4)
    counts = count_windows(corpus, 6, [0, 1, 2, 3])
    coherent = cv_score(TopicTopWords(0, [0, 1]), counts)
    split = cv_score(TopicTopWords(1, [0, 1, 2, 3]), counts)
    assert coherent > split


def test_cv_word_order_invariant():
    rng = np.random.default_rng(17)
    token_lists = [rng.integers(0, 5, size=12).tolist() for _ in range(2)]
    corpus = tiny_corpus(token_lists, vocab_size=5)
    counts = count_windows(corpus, 3, list(range(5)))
    a = cv_score(TopicTopWords(0, [0, 1, 3]), counts)
    b = cv_score(TopicTopWords(0, [3, 0, 1]), counts)
    assert a == pytest.approx(b, abs=1e-12)


def edge_case_docs(seed, window):
    """Token lists over ids 0..10 (id 11 occurs nowhere) in which every
    window holds both 0 and 1: short documents contain both, long ones
    repeat them every window - 1 positions."""
    rng = np.random.default_rng(seed)
    docs = []
    for n in rng.integers(2, 4 * window, size=6):
        toks = rng.integers(2, 11, size=int(n))
        step = window - 1 if n > window else int(n)
        toks[::step] = 0
        toks[1::step] = 1
        docs.append(toks.tolist())
    return docs


@pytest.mark.parametrize("seed", range(6))
def test_cv_matches_brute_force_oracle_edge_cases(seed):
    window = 4 + seed % 4
    token_lists = edge_case_docs(seed, window)
    corpus = tiny_corpus(token_lists, vocab_size=12)
    words = np.random.default_rng(seed + 50).permutation(12).tolist()
    counts = count_windows(corpus, window, words)
    assert counts.unigram.get(11, 0) == 0  # the zero-norm path: cosine 0
    s0, s1 = counts.slots([0, 1])
    assert counts.joint[s0, s1] == counts.total_windows  # always together
    mat = npmi_matrix(words, counts)
    assert not mat[words.index(11)].any()
    assert mat[words.index(0), words.index(1)] == 1.0
    got = cv_score(TopicTopWords(0, words), counts)
    assert got == pytest.approx(oracle_cv(words, token_lists, window), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_cv_matches_brute_force_oracle_random_topics(seed):
    rng = np.random.default_rng(seed + 70)
    window = int(rng.integers(2, 9))
    token_lists = [
        rng.integers(0, 15, size=int(n)).tolist() for n in rng.integers(1, 25, size=8)
    ]
    corpus = tiny_corpus(token_lists, vocab_size=16)
    words = rng.permutation(16)[: int(rng.integers(10, 17))].tolist()
    counts = count_windows(corpus, window, words)
    got = cv_score(TopicTopWords(0, words), counts)
    assert got == pytest.approx(oracle_cv(words, token_lists, window), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_npmi_matrix_in_shuffled_word_orders_matches_brute_force(seed):
    rng = np.random.default_rng(seed + 90)
    window = int(rng.integers(2, 7))
    token_lists = [rng.integers(0, 10, size=int(n)).tolist() for n in rng.integers(1, 20, size=6)]
    counts = count_windows(tiny_corpus(token_lists, vocab_size=10), window, range(10))
    total, uni, pairs = brute_windows(token_lists, window)
    for _ in range(3):
        words = rng.permutation(10)[: int(rng.integers(2, 11))].tolist()
        want = [[oracle_npmi(a, b, total, uni, pairs) for b in words] for a in words]
        np.testing.assert_allclose(npmi_matrix(words, counts), want, rtol=0, atol=1e-12)


def test_npmi_is_the_matching_entry_of_the_cv_matrix():
    token_lists = edge_case_docs(3, 5)
    counts = count_windows(tiny_corpus(token_lists, vocab_size=12), 5, range(12))
    words = [4, 0, 11, 7, 1, 2, 9, 3, 10, 5, 8, 6]
    mat = npmi_matrix(words, counts)
    # Each entry is its pair's own block (one word on the diagonal).
    for a, wa in enumerate(words):
        for b, wb in enumerate(words):
            pair = [wa] if a == b else [wa, wb]
            assert npmi_matrix(pair, counts)[0, -1] == mat[a, b]


# ---------------------------------------------------------------------------
# coherence_report


def topic_model(eta):
    from cdtm.model import ModelParams

    eta = np.asarray(eta, dtype=np.float64)
    return ModelParams(eta, np.full(eta.shape[0], 0.5))


def test_coherence_report_composition():
    rng = np.random.default_rng(19)
    eta = rng.uniform(0.01, 1.0, size=(2, 6))
    eta /= eta.sum(axis=1, keepdims=True)
    model = topic_model(eta)
    token_lists = [rng.integers(0, 6, size=15).tolist() for _ in range(3)]
    corpus = tiny_corpus(token_lists, vocab_size=6)
    rep = coherence_report(model, corpus, top_n=3, window_size=4)

    for k in range(2):
        words = [int(w) for w in np.argsort(-eta[k], kind="stable")[:3]]
        assert rep.topics[k].words == words
        want = oracle_cv(words, token_lists, 4)
        assert rep.per_topic[k] == pytest.approx(want, abs=1e-10)
    assert rep.mean_cv == pytest.approx(
        (rep.per_topic[0] + rep.per_topic[1]) / 2.0, abs=1e-12
    )
    assert rep.window_size == 4 and rep.top_n == 3


def test_coherence_report_builds_no_dict_views(monkeypatch):
    # Scoring reads each topic's block straight from the joint matrix: no
    # unigram/pair dicts on the way.
    def refuse(*args):
        pytest.fail("coherence_report went through a WindowCounts dict view")

    monkeypatch.setattr(WindowCounts, "pair", property(refuse))
    monkeypatch.setattr(WindowCounts, "unigram", property(refuse))
    rng = np.random.default_rng(29)
    eta = rng.uniform(0.01, 1.0, size=(3, 9))
    eta /= eta.sum(axis=1, keepdims=True)
    token_lists = [rng.integers(0, 9, size=int(n)).tolist() for n in rng.integers(3, 20, size=5)]
    rep = coherence_report(topic_model(eta), tiny_corpus(token_lists, vocab_size=9), 4, 5)
    for t in rep.topics:
        assert rep.per_topic[t.topic_id] == pytest.approx(oracle_cv(t.words, token_lists, 5), abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_coherence_report_scores_each_topic_as_cv_score_does(seed):
    # One C_V formula: coherence_report scores all topics in one stacked
    # pass, and each topic must get the bits that cv_score gives it alone,
    # from the NPMI block that npmi_matrix gives it alone.  Topic 0 holds
    # the always-together pair 0, 1; topic 1 holds word 11, which occurs in
    # no window (the zero-norm path).  K varies, so the stacks do too.
    rng = np.random.default_rng(seed + 110)
    window = 4 + seed % 4
    corpus = tiny_corpus(edge_case_docs(seed, window), vocab_size=12)
    K, top_n = int(rng.integers(2, 8)), int(rng.integers(3, 10))
    eta = rng.uniform(0.01, 1.0, size=(K, 12))
    eta[0, [0, 1]] = 2.0
    eta[1, 11] = 2.0
    eta /= eta.sum(axis=1, keepdims=True)
    rep = coherence_report(topic_model(eta), corpus, top_n, window)
    counts = count_windows(corpus, window, [w for t in rep.topics for w in t.words])
    s0, s1 = counts.slots([0, 1])
    assert counts.joint[s0, s1] == counts.total_windows and counts.unigram.get(11, 0) == 0
    stack = _npmi_stack(counts.slots([t.words for t in rep.topics]), counts)
    for t in rep.topics:
        assert rep.per_topic[t.topic_id].hex() == cv_score(t, counts).hex()
        assert stack[t.topic_id].tobytes() == npmi_matrix(t.words, counts).tobytes()


def test_coherence_report_all_cooccurring():
    eta = np.array([[0.5, 0.4, 0.1], [0.1, 0.4, 0.5]])
    model = topic_model(eta)
    corpus = tiny_corpus([[0, 1, 2]] * 4, vocab_size=3)
    rep = coherence_report(model, corpus, top_n=2, window_size=10)
    for k in (0, 1):
        assert rep.per_topic[k] == pytest.approx(1.0, abs=1e-9)


def test_coherence_report_top_n_validation():
    model = topic_model(np.full((2, 4), 0.25))
    corpus = tiny_corpus([[0, 1, 2, 3]], vocab_size=4)
    with pytest.raises(ValueError):
        coherence_report(model, corpus, top_n=5)
    with pytest.raises(ValueError):
        coherence_report(model, corpus, top_n=1)


# ---------------------------------------------------------------------------
# grid_select


def grid_corpus(seed=23, n_docs=12):
    rng = np.random.default_rng(seed)
    token_lists = [rng.integers(0, 8, size=int(rng.integers(15, 30))).tolist() for _ in range(n_docs)]
    return tiny_corpus(token_lists, vocab_size=8)


def fast_config():
    return TrainConfig(K=2, em_max_iters=2, seed=1)


def test_grid_select_single_candidates():
    corpus = grid_corpus()
    best_k, best_lam, rows = grid_select(
        corpus, [2], [5.0], folds=2, config=fast_config(), top_n=3, window_size=5
    )
    assert best_k == 2
    assert best_lam == 5.0
    assert len(rows) == 2 + 2  # one perplexity and one coherence row per fold


def test_grid_select_row_bookkeeping():
    corpus = grid_corpus()
    best_k, best_lam, rows = grid_select(
        corpus, [2, 3], [0.0, 5.0], folds=2, config=fast_config(), top_n=3, window_size=5
    )
    assert len(rows) == 2 * 2 + 2 * 2
    stage1 = [r for r in rows if r.metric_name == "perplexity"]
    stage2 = [r for r in rows if r.metric_name == "mean_cv"]
    assert len(stage1) == 4 and len(stage2) == 4
    assert all(r.lam == 0.0 for r in stage1)
    assert all(r.K == best_k for r in stage2)
    assert best_k in (2, 3)
    assert best_lam in (0.0, 5.0)


def test_grid_select_ties_go_to_smaller_values(monkeypatch):
    import cdtm.evaluate as ev

    corpus = grid_corpus()
    monkeypatch.setattr(ev, "perplexity", lambda *a, **k: 100.0)
    monkeypatch.setattr(
        ev,
        "coherence_report",
        lambda *a, **k: CoherenceReport({0: 0.5}, 0.5, 5, 3),
    )
    best_k, best_lam, _ = grid_select(
        corpus, [4, 2, 3], [7.0, 5.0, 9.0], folds=2, config=fast_config(), top_n=3, window_size=5
    )
    assert best_k == 2  # all perplexities equal: smallest K wins
    assert best_lam == 5.0  # all coherences equal: smallest lambda wins


def test_grid_select_prefers_better_metrics(monkeypatch):
    import cdtm.evaluate as ev

    corpus = grid_corpus()
    monkeypatch.setattr(ev, "perplexity", lambda c, model, cfg: 50.0 if model.K == 3 else 100.0)

    def fake_coherence(model, ref, top_n, window_size):
        lam_score = 0.9
        return CoherenceReport({0: lam_score}, lam_score, window_size, top_n)

    monkeypatch.setattr(ev, "coherence_report", fake_coherence)
    best_k, best_lam, _ = grid_select(
        corpus, [2, 3], [5.0, 0.0], folds=2, config=fast_config(), top_n=3, window_size=5
    )
    assert best_k == 3  # lower perplexity wins even though K=2 is smaller
    assert best_lam == 0.0  # equal coherence: tie falls to the smaller lambda


def test_grid_select_validation(monkeypatch):
    # Every check runs before the first fit.
    import cdtm.evaluate as ev

    def no_fit(*args, **kwargs):
        raise AssertionError("grid_select fitted before validating its settings")

    monkeypatch.setattr(ev, "fit", no_fit)
    corpus = grid_corpus()
    with pytest.raises(ValueError):
        grid_select(corpus, [2], [0.0], folds=1, config=fast_config())
    with pytest.raises(ValueError):
        grid_select(corpus, [], [0.0], folds=2, config=fast_config())
    with pytest.raises(ValueError, match="top_n"):
        grid_select(corpus, [2], [0.0], folds=2, config=fast_config(), top_n=1)
    with pytest.raises(ValueError, match="top_n"):
        grid_select(corpus, [2], [0.0], folds=2, config=fast_config(), top_n=corpus.n_words + 1)
    with pytest.raises(ValueError, match="window_size"):
        grid_select(corpus, [2], [0.0], folds=2, config=fast_config(), top_n=3, window_size=1)
    with pytest.raises(ValueError, match="lambda"):
        grid_select(corpus, [2], [0.0, -5.0], folds=2, config=fast_config(), top_n=3)
    with pytest.raises(ValueError, match="K must be"):
        grid_select(corpus, [2, 1], [0.0], folds=2, config=fast_config(), top_n=3)
    with pytest.raises(ValueError, match="smaller than K=9"):
        grid_select(corpus, [2, 9], [0.0], folds=2, config=fast_config(), top_n=3)
    with pytest.raises(ValueError, match="zeta"):
        grid_select(corpus, [2, 3], [0.0], folds=2, config=TrainConfig(K=2, zeta=[0.5, 0.5]), top_n=3)


# ---------------------------------------------------------------------------
# Report files, written by the CLI


def test_write_coherence_csv(tmp_path):
    # The coherence command's table: one row per topic with its top words
    # joined by "|", then the mean row, C_V values as %.17g.
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    reference = Corpus(vocab, [Document("d%d" % d, [0, 2, 1, 0, 2][d:] + [1]) for d in range(4)])
    # Top two words: topic 0 alpha, gamma; topic 1 beta, alpha.
    model = ModelParams([[0.5, 0.1, 0.4], [0.3, 0.6, 0.1]], [0.5, 0.5])
    run = tmp_path / "enc"
    run.mkdir()
    write_vocabulary_tsv(reference, run / "vocab.tsv")
    write_encoded_corpus(reference, run / "corpus.tsv")
    save_model(model, 0.0, run / "model.json")
    argv = ["coherence", "--input", str(run), "--out", str(tmp_path / "out"), "--model", str(run / "model.json")]
    assert main(argv + ["--top-n", "2", "--window-size", "3"]) == 0
    report = coherence_report(model, reference, top_n=2, window_size=3)
    lines = (tmp_path / "out" / "coherence.csv").read_text().split("\n")
    assert lines == [
        "topic_id,top_words,cv_score",
        "0,alpha|gamma,%.17g" % report.per_topic[0],
        "1,beta|alpha,%.17g" % report.per_topic[1],
        "mean,,%.17g" % report.mean_cv,
        "",
    ]


def test_write_entropy_csv(tmp_path):
    path = tmp_path / "entropy.csv"
    write_table(path, [("a", 0.125), ("b", 1.5)], ("doc_id", "entropy"))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "doc_id,entropy"
    assert lines[1] == "a,0.125"
    assert lines[2] == "b,1.5"


def test_write_entropy_stats_json(tmp_path):
    gammas = [np.array([5.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]), np.array([9.0, 0.5, 0.5])]
    stats = entropy_stats(gammas)
    gamma_path = tmp_path / "gamma.tsv"
    write_table(gamma_path, [("d%d" % d, *g) for d, g in enumerate(gammas)], sep="\t")
    out = tmp_path / "stats"
    assert main(["entropy-stats", "--input", str(gamma_path), "--out", str(out)]) == 0
    payload = json.loads((out / "entropy_stats.json").read_text())
    assert payload["K"] == 3
    assert payload["mean"] == pytest.approx(stats.mean)
    hist = payload["histogram"]
    assert hist["bin_width"] == ENTROPY_BIN_WIDTH
    # Fixed-width bins covering [0, log K]: edges are multiples of 0.05.
    assert hist["bins"][0] == 0.0
    assert len(hist["bins"]) == math.ceil(math.log(3) / ENTROPY_BIN_WIDTH) + 1
    assert hist["bins"][-1] >= math.log(3)
    for lo, hi in zip(hist["bins"], hist["bins"][1:]):
        assert hi - lo == pytest.approx(ENTROPY_BIN_WIDTH, abs=1e-12)
    assert sum(hist["counts"]) == len(gammas)


def test_write_grid_csv(tmp_path):
    rows = [
        GridRow(2, 0.0, 0, "perplexity", 45.0),
        GridRow(2, 5.0, 1, "mean_cv", 0.625),
    ]
    path = tmp_path / "grid.csv"
    write_table(path, rows, ("K", "lambda", "fold", "metric_name", "value"))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "K,lambda,fold,metric_name,value"
    assert lines[1] == "2,0,0,perplexity,45"
    assert lines[2] == "2,5,1,mean_cv,0.625"
