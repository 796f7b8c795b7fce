"""Corpus-module tests.

The load-bearing oracle here is a brute-force sliding-window enumerator:
it materializes every window as an explicit token-set list and counts
membership by scanning, with none of the interval machinery of the real
implementation.  count_windows must match it exactly on small corpora.
"""

import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdtm.corpus as corpus_module
from cdtm.corpus import (
    Corpus,
    CorpusConfig,
    Document,
    Vocabulary,
    build_corpus,
    count_windows,
    kfold_split,
    read_encoded_corpus,
    read_raw_docs,
    read_vocabulary_tsv,
    split_corpus,
    tokenize,
    write_encoded_corpus,
    write_vocabulary_tsv,
)

# ---------------------------------------------------------------------------
# Oracle


def oracle_count_windows(corpus, window_size, target_words):
    """Enumerate every window as a set and count membership by scanning."""
    targets = sorted(set(target_words))
    windows = []
    for doc in corpus.documents:
        toks = doc.tokens.tolist()
        if not toks:
            continue
        if len(toks) <= window_size:
            windows.append(set(toks))
        else:
            for start in range(len(toks) - window_size + 1):
                windows.append(set(toks[start : start + window_size]))
    unigram = {}
    pair = {}
    for w in targets:
        c = sum(1 for win in windows if w in win)
        if c:
            unigram[w] = c
    for a_idx, wa in enumerate(targets):
        for wb in targets[a_idx + 1 :]:
            c = sum(1 for win in windows if wa in win and wb in win)
            if c:
                pair[(wa, wb)] = c
    return len(windows), unigram, pair


def random_small_corpus(seed, n_docs=6, vocab_size=12, max_len=30):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(["t%02d" % j for j in range(vocab_size)])
    docs = [
        Document("r%d" % d, rng.integers(0, vocab_size, size=int(rng.integers(1, max_len + 1))))
        for d in range(n_docs)
    ]
    return Corpus(vocab, docs)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_default_pipeline():
    assert tokenize("Neural Networks, neural nets.") == [
        "neural",
        "networks",
        "neural",
        "nets",
    ]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_all_stopwords():
    assert tokenize("A the of") == []


def test_tokenize_respects_config():
    cfg = CorpusConfig(lowercase=False, min_token_len=1, stopwords=frozenset())
    assert tokenize("A the Of", cfg) == ["A", "the", "Of"]


# ---------------------------------------------------------------------------
# build_corpus


def loose_config(**kw):
    base = dict(min_doc_freq=1, max_doc_fraction=1.0, stopwords=frozenset())
    base.update(kw)
    return CorpusConfig(**base)


def test_build_corpus_basic_counts():
    texts = [
        ("a", "alpha beta gamma delta epsilon"),
        ("b", "alpha beta gamma delta epsilon"),
        ("c", "alpha beta gamma delta epsilon"),
    ]
    corpus = build_corpus(texts, loose_config())
    assert corpus.n_words == 5
    assert corpus.n_docs == 3
    assert sorted(corpus.vocabulary.terms) == corpus.vocabulary.terms


def test_build_corpus_drops_emptied_documents():
    texts = [
        ("keep1", "shared words appear here shared words appear here"),
        ("keep2", "shared words appear here too"),
        ("gone", "zz"),  # only a short token: filtered, document dropped
    ]
    corpus = build_corpus(texts, loose_config(min_token_len=3))
    assert corpus.n_docs == 2
    assert corpus.dropped_ids == ["gone"]


def test_build_corpus_min_doc_freq_filter():
    texts = [
        ("a", "common rare1"),
        ("b", "common rare2"),
    ]
    corpus = build_corpus(texts, loose_config(min_doc_freq=2))
    assert corpus.vocabulary.terms == ["common"]


def test_build_corpus_max_doc_fraction_filter():
    texts = [
        ("a", "ubiquitous alpha"),
        ("b", "ubiquitous beta"),
        ("c", "ubiquitous alpha"),
        ("d", "ubiquitous beta"),
    ]
    corpus = build_corpus(texts, loose_config(min_doc_freq=2, max_doc_fraction=0.5))
    # "ubiquitous" appears in 4/4 documents > 0.5 fraction; alpha/beta in 2.
    assert corpus.vocabulary.terms == ["alpha", "beta"]


def test_build_corpus_all_empty_is_error():
    with pytest.raises(ValueError):
        build_corpus([("a", "x"), ("b", "y")], loose_config(min_token_len=5))


# ---------------------------------------------------------------------------
# Vocabulary round-trip


def test_vocabulary_encode_decode_round_trip():
    vocab = Vocabulary(["ant", "bee", "cat"])
    tokens = ["cat", "ant", "ant", "bee"]
    assert [vocab.terms[w] for w in vocab.encode(tokens)] == tokens
    assert [vocab.index[t] for t in vocab.terms] == list(range(3))


def test_vocabulary_encode_drop_unknown():
    vocab = Vocabulary(["ant", "bee"])
    assert vocab.encode(["ant", "dog", "bee"], drop_unknown=True) == [0, 1]
    with pytest.raises(KeyError):
        vocab.encode(["dog"])


# ---------------------------------------------------------------------------
# split_corpus / kfold_split


def block_corpus(n_docs, tokens_per_doc=4, vocab_size=9):
    vocab = Vocabulary(["s%d" % j for j in range(vocab_size)])
    rng = np.random.default_rng(123)
    docs = [
        Document("doc%02d" % d, rng.integers(0, vocab_size, size=tokens_per_doc))
        for d in range(n_docs)
    ]
    return Corpus(vocab, docs)


def test_split_counts():
    train, test = split_corpus(block_corpus(10), 0.8, seed=7)
    assert (train.n_docs, test.n_docs) == (8, 2)
    train5, test5 = split_corpus(block_corpus(5), 0.8, seed=7)
    assert (train5.n_docs, test5.n_docs) == (4, 1)


def test_split_deterministic_and_partition():
    corpus = block_corpus(12)
    a_train, a_test = split_corpus(corpus, 0.75, seed=42)
    b_train, b_test = split_corpus(corpus, 0.75, seed=42)
    assert [d.id for d in a_train.documents] == [d.id for d in b_train.documents]
    assert [d.id for d in a_test.documents] == [d.id for d in b_test.documents]
    combined = sorted(d.id for d in a_train.documents + a_test.documents)
    assert combined == sorted(d.id for d in corpus.documents)


def test_split_vocabulary_rebuilt_from_training_half():
    vocab = Vocabulary(["only-test", "shared"])
    docs = [
        Document("a", [1]),
        Document("b", [1, 1]),
        Document("c", [0, 1]),
    ]
    corpus = Corpus(vocab, docs)
    # Find a seed that puts document "c" (the only user of word 0) in test.
    for seed in range(50):
        train, test = split_corpus(corpus, 0.67, seed)
        if "c" in [d.id for d in test.documents]:
            assert train.vocabulary.terms == ["shared"]
            c_doc = next(d for d in test.documents if d.id == "c")
            assert c_doc.tokens.tolist() == [0]  # "shared" remapped, "only-test" dropped
            return
    pytest.fail("no seed placed document c in the test half")


def test_split_errors():
    with pytest.raises(ValueError):
        split_corpus(block_corpus(1), 0.8, seed=0)
    with pytest.raises(ValueError):
        split_corpus(block_corpus(4), 1.5, seed=0)


def test_kfold_partition():
    corpus = block_corpus(11)
    folds = list(kfold_split(corpus, 3, seed=5))
    assert len(folds) == 3
    all_valid = []
    for train, valid in folds:
        assert train.n_docs + valid.n_docs == 11
        all_valid.extend(d.id for d in valid.documents)
    assert sorted(all_valid) == sorted(d.id for d in corpus.documents)
    with pytest.raises(ValueError):
        list(kfold_split(corpus, 1, seed=5))


# ---------------------------------------------------------------------------
# count_windows


def joint_count(counts, i, j):
    """The windows holding both word ids i and j, read from joint through slots."""
    a, b = counts.slots([i, j])
    return int(counts.joint[a, b])


def test_count_windows_hand_enumerated_example():
    # tokens [a,b,a], window 2: windows {a,b} and {b,a} — both contain both.
    corpus = Corpus(Vocabulary(["a", "b"]), [Document("x", [0, 1, 0])])
    counts = count_windows(corpus, 2, {0, 1})
    assert counts.total_windows == 2
    assert counts.unigram == {0: 2, 1: 2}
    assert joint_count(counts, 0, 1) == 2


def test_count_windows_short_document_rule():
    corpus = Corpus(Vocabulary(["a", "b"]), [Document("x", [0, 1, 0])])
    counts = count_windows(corpus, 110, {0, 1})
    assert counts.total_windows == 1
    assert counts.unigram == {0: 1, 1: 1}


def test_count_windows_absent_word():
    corpus = Corpus(Vocabulary(["a", "b", "c"]), [Document("x", [0, 0, 0])])
    counts = count_windows(corpus, 2, {0, 2})
    assert counts.unigram.get(2, 0) == 0
    assert joint_count(counts, 0, 2) == 0


def test_count_windows_errors():
    corpus = Corpus(Vocabulary(["a"]), [Document("x", [0])])
    with pytest.raises(ValueError):
        count_windows(corpus, 1, {0})
    with pytest.raises(ValueError):
        count_windows(corpus, 2, set())


@pytest.mark.parametrize("bad", [-1, 3])
def test_count_windows_rejects_token_ids_outside_the_vocabulary(bad):
    vocab = Vocabulary(["a", "b", "c"])
    corpus = Corpus(vocab, [Document("x", [0, 1]), Document("y", [2, bad, 0])])
    with pytest.raises(ValueError, match=r"token id out of range \[0, 3\)"):
        count_windows(corpus, 2, {0, 1, 2})


def test_window_counts_matrix_layout():
    # targets sorted and unique; joint symmetric int64, the diagonal the
    # unigram counts; the dict views read-only, cached, nonzero entries only.
    corpus = random_small_corpus(7)
    targets = [9, 2, 5, 11, 0, 2, 15]
    counts = count_windows(corpus, 4, targets)
    total, unigram, pair = oracle_count_windows(corpus, 4, targets)
    assert counts.targets.dtype == np.int64 and counts.joint.dtype == np.int64
    assert counts.targets.tolist() == sorted(set(targets))
    assert (counts.joint == counts.joint.T).all()
    for a, wa in enumerate(counts.targets.tolist()):
        for b, wb in enumerate(counts.targets.tolist()):
            want = unigram.get(wa, 0) if a == b else pair.get((min(wa, wb), max(wa, wb)), 0)
            assert counts.joint[a, b] == want == joint_count(counts, wa, wb)
    assert counts.unigram == unigram and counts.pair == pair
    assert counts.unigram is counts.unigram and counts.pair is counts.pair
    with pytest.raises(TypeError):
        counts.pair[(0, 2)] = 1
    with pytest.raises(ValueError, match="word id 3 is not a target"):
        counts.slots([0, 3])


def edge_window_case():
    """Empty documents (first, between others and last), documents holding
    no target and documents shorter than the window; the target list repeats
    ids and holds ids outside the vocabulary."""
    token_lists = [[], [4, 5, 4], [], [0, 3, 0, 7, 3, 9, 3, 0, 11, 3], [6], [], [3, 0], [8] * 7, []]
    vocab = Vocabulary(["t%02d" % j for j in range(12)])
    corpus = Corpus(vocab, [Document("e%d" % d, toks) for d, toks in enumerate(token_lists)])
    return corpus, 4, [3, 0, 3, 11, 12, 15, 0, -1]


@pytest.mark.parametrize("seed", [*range(8), "edges"])
def test_count_windows_matches_brute_force(seed):
    if seed == "edges":
        corpus, window, targets = edge_window_case()
    else:
        corpus = random_small_corpus(seed)
        rng = np.random.default_rng(seed + 1000)
        window = int(rng.integers(2, 9))
        targets = set(rng.choice(12, size=int(rng.integers(1, 7)), replace=False).tolist())
    counts = count_windows(corpus, window, targets)
    total, unigram, pair = oracle_count_windows(corpus, window, targets)
    assert counts.total_windows == total
    assert counts.unigram == unigram
    assert counts.pair == pair


def test_window_count_invariants():
    corpus = random_small_corpus(99, n_docs=10, max_len=40)
    counts = count_windows(corpus, 5, set(range(12)))
    for (i, j), c in counts.pair.items():
        assert c <= min(counts.unigram.get(i, 0), counts.unigram.get(j, 0))
        assert joint_count(counts, i, j) == joint_count(counts, j, i)
    for c in counts.unigram.values():
        assert c <= counts.total_windows


@st.composite
def window_cases(draw):
    """A corpus, a window size and a target set for count_windows.

    Document lengths cover empty, single-token, shorter than, equal to and
    longer than the window; target ids run past the vocabulary, so some
    targets occur in no document at all.
    """
    V = draw(st.integers(1, 12))
    window = draw(st.integers(2, 8))
    length = st.sampled_from([0, 1, window - 1, window, window + 1]) | st.integers(0, 4 * window)
    lengths = draw(st.lists(length, min_size=1, max_size=6))
    docs = [
        Document("d%d" % i, draw(st.lists(st.integers(0, V - 1), min_size=n, max_size=n)))
        for i, n in enumerate(lengths)
    ]
    targets = draw(st.sets(st.integers(0, V + 3), min_size=1, max_size=8))
    return Corpus(Vocabulary(["t%02d" % j for j in range(V)]), docs), window, targets


@settings(max_examples=150, deadline=None)
@given(window_cases())
def test_count_windows_matches_brute_force_property(case):
    corpus, window, targets = case
    counts = count_windows(corpus, window, targets)
    assert (counts.total_windows, counts.unigram, counts.pair) == oracle_count_windows(
        corpus, window, targets
    )


@settings(max_examples=60, deadline=None)
@given(window_cases(), st.data())
def test_count_windows_split_additive(case, data):
    # Counts must not depend on how the documents are batched: any two-way
    # split of the corpus sums back to the whole.
    corpus, window, targets = case
    side = data.draw(st.lists(st.booleans(), min_size=corpus.n_docs, max_size=corpus.n_docs))
    halves = [
        count_windows(
            Corpus(corpus.vocabulary, [d for d, s in zip(corpus.documents, side) if s == keep]),
            window,
            targets,
        )
        for keep in (True, False)
    ]
    whole = count_windows(corpus, window, targets)
    assert whole.total_windows == sum(h.total_windows for h in halves)
    assert Counter(whole.unigram) == Counter(halves[0].unigram) + Counter(halves[1].unigram)
    assert Counter(whole.pair) == Counter(halves[0].pair) + Counter(halves[1].pair)


def test_count_windows_mid_size_matches_brute_force():
    # The coherence setting: window 110, documents longer than the window,
    # a hundred-odd targets of which each document holds only some.
    rng = np.random.default_rng(5)
    V = 300
    docs = [
        Document("m%d" % d, rng.integers(0, V, size=int(rng.integers(120, 301))))
        for d in range(8)
    ]
    corpus = Corpus(Vocabulary(["m%03d" % j for j in range(V)]), docs)
    targets = set(rng.choice(V, size=110, replace=False).tolist())
    start = time.perf_counter()
    counts = count_windows(corpus, 110, targets)
    assert time.perf_counter() - start < 2.0
    total, unigram, pair = oracle_count_windows(corpus, 110, targets)
    assert counts.total_windows == total
    assert counts.unigram == unigram
    assert counts.pair == pair


def assert_matches_oracle(corpus, window, targets, counts):
    total, unigram, pair = oracle_count_windows(corpus, window, targets)
    assert counts.total_windows == total
    assert counts.unigram == unigram
    assert counts.pair == pair


# Each target occurrence lies in one range of window starts; a target's
# ranges are merged where they touch or overlap.  Word 0 sits at the merge
# boundaries, word 1 fills the rest, word 2 occurs once.
@pytest.mark.parametrize(
    "token_lists, window",
    [
        # ranges [0, 3) and [3, 7) touch: the occurrences are window_size apart
        ([[1, 1, 0, 1, 1, 1, 0, 1, 2, 1, 0, 1, 1]], 4),
        # ranges [0, 3) and [4, 8) leave one start between them: window_size + 1 apart
        ([[1, 1, 0, 1, 1, 1, 1, 0, 1, 2, 1, 1, 1, 0]], 4),
        # back-to-back repeats: each range overlaps the next
        ([[0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 1]], 3),
        # window_size 2: each range is at most two starts long
        ([[0, 1, 0, 0, 2, 1, 0], [1, 0], [0], [2, 0, 1, 0]], 2),
        # documents exactly window_size long, beside longer and shorter ones
        ([[0, 1, 2, 0, 1], [1, 0, 1, 1, 0], [0, 1, 1, 2, 1, 0, 0], [2, 0]], 5),
    ],
    ids=["touching", "one-start-gap", "repeats", "window-2", "doc-equals-window"],
)
def test_count_windows_merge_boundaries_match_brute_force(token_lists, window):
    corpus = Corpus(Vocabulary(["a", "b", "c"]), [Document("b%d" % d, t) for d, t in enumerate(token_lists)])
    assert_matches_oracle(corpus, window, [0, 1, 2], count_windows(corpus, window, [0, 1, 2]))


@pytest.mark.parametrize("case", ["random", "edges"])
def test_count_windows_does_not_depend_on_the_pair_block(monkeypatch, case):
    # Blocks of one pair, of 7 pairs (blocks end inside documents: the
    # random corpus's documents hold 18 to 154 pairs each) and one block for
    # the whole corpus.
    if case == "edges":
        corpus, window, targets = edge_window_case()
    else:
        corpus, window, targets = random_small_corpus(11, n_docs=5, max_len=60), 6, range(12)
    runs = []
    for block in (1, 7, 10**9):
        monkeypatch.setattr(corpus_module, "_PAIR_BLOCK", block)
        runs.append(count_windows(corpus, window, targets))
    for counts in runs:
        assert counts.total_windows == runs[0].total_windows
        assert counts.joint.tobytes() == runs[0].joint.tobytes()
    assert_matches_oracle(corpus, window, targets, runs[0])


def test_count_windows_targets_accept_any_iterable_of_ids():
    # sets, lists, generators, numpy arrays, repeats, ids outside the
    # vocabulary and negative ids: sorted unique int64 targets every time.
    corpus = random_small_corpus(3)
    want = count_windows(corpus, 4, {-3, 0, 5, 11, 40})
    assert want.targets.dtype == np.int64 and want.targets.tolist() == [-3, 0, 5, 11, 40]
    for ids in ([40, 5, 5, -3, 11, 0, 40], (w for w in [11, 0, -3, 40, 5]), np.array([5, 0, 40, -3, 11, 0])):
        counts = count_windows(corpus, 4, ids)
        assert counts.targets.dtype == np.int64
        assert counts.targets.tobytes() == want.targets.tobytes()
        assert counts.joint.tobytes() == want.joint.tobytes()


# ---------------------------------------------------------------------------
# word_counts


@pytest.mark.parametrize("seed", range(4))
def test_word_counts_matches_counter(seed):
    corpus = random_small_corpus(seed)
    corpus.documents.append(Document("empty", []))
    want = Counter(w for d in corpus.documents for w in d.tokens.tolist())
    got = corpus.word_counts()
    assert got.dtype == np.int64
    assert got.tolist() == [want.get(j, 0) for j in range(corpus.n_words)]


def test_word_counts_rejects_out_of_range_ids():
    vocab = Vocabulary(["a", "b"])
    with pytest.raises(ValueError):
        Corpus(vocab, [Document("x", [0, 2])]).word_counts()
    with pytest.raises(ValueError):
        Corpus(vocab, [Document("x", [0, -1])]).word_counts()


# ---------------------------------------------------------------------------
# On-disk formats


def test_vocabulary_tsv_round_trip(tmp_path):
    corpus = random_small_corpus(3)
    path = tmp_path / "vocab.tsv"
    write_vocabulary_tsv(corpus, path)
    vocab = read_vocabulary_tsv(path)
    assert vocab.terms == corpus.vocabulary.terms


def test_encoded_corpus_round_trip(tmp_path):
    corpus = random_small_corpus(4)
    path = tmp_path / "corpus.tsv"
    write_encoded_corpus(corpus, path)
    loaded = read_encoded_corpus(path, corpus.vocabulary)
    assert [d.id for d in loaded.documents] == [d.id for d in corpus.documents]
    for a, b in zip(loaded.documents, corpus.documents):
        assert a.tokens.tolist() == b.tokens.tolist()


# Document ids: any text without tabs, line breaks or other control characters.
doc_ids = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=12
)


@st.composite
def encoded_corpora(draw):
    V = draw(st.integers(1, 30))
    ids = draw(st.lists(doc_ids, min_size=1, max_size=8))
    documents = [
        Document(doc_id, draw(st.lists(st.integers(0, V - 1), max_size=25))) for doc_id in ids
    ]
    return Corpus(Vocabulary(["w%d" % j for j in range(V)]), documents)


@settings(max_examples=60, deadline=None)
@given(encoded_corpora())
def test_encoded_corpus_round_trip_property(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("enc") / "corpus.tsv"
    write_encoded_corpus(corpus, path)
    loaded = read_encoded_corpus(path, corpus.vocabulary)
    assert [d.id for d in loaded.documents] == [d.id for d in corpus.documents]
    for a, b in zip(loaded.documents, corpus.documents):
        assert a.tokens.tolist() == b.tokens.tolist()


def test_encoded_corpus_validation(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("docA\t3\t0 1\n")  # claims 3 tokens, has 2
    with pytest.raises(ValueError):
        read_encoded_corpus(path, Vocabulary(["a", "b"]))
    path.write_text("docA\t2\t0 7\n")  # word id out of range
    with pytest.raises(ValueError):
        read_encoded_corpus(path, Vocabulary(["a", "b"]))
    path.write_text("d0\t3\t0 1 -1\n")  # negative word id
    with pytest.raises(ValueError, match="'d0'"):
        read_encoded_corpus(path, Vocabulary(["a", "b"]))


@pytest.mark.parametrize("line", ["docA", "docA\tthree\t0 1 0", "docA\t2\t0 x", "docA\t2\t0 1\t1"])
def test_encoded_corpus_malformed_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "corpus.tsv"
    path.write_text("d0\t1\t0\n\n%s\n" % line)
    with pytest.raises(ValueError, match="corpus.tsv line 3: expected doc_id"):
        read_encoded_corpus(path, Vocabulary(["a", "b"]))


@pytest.mark.parametrize("line", ["1\tb", "1", "one\tb\t1", "1\tb\t1\t1"])
def test_vocabulary_tsv_malformed_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "vocab.tsv"
    path.write_text("0\ta\t2\n%s\n" % line)
    with pytest.raises(ValueError, match="vocab.tsv line 2: expected word_id"):
        read_vocabulary_tsv(path)


def test_vocabulary_tsv_repeated_term_names_file_and_both_lines(tmp_path):
    # Vocabulary.index would map "apple" to id 2 alone, so no encoding
    # would ever read the model's column 0.
    path = tmp_path / "vocab.tsv"
    path.write_text("0\tapple\t3\n1\tbanana\t2\n\n2\tapple\t1\n")
    with pytest.raises(ValueError, match="vocab.tsv line 4: term 'apple' repeats line 1"):
        read_vocabulary_tsv(path)


def test_read_raw_docs_directory_and_line_file(tmp_path):
    doc_dir = tmp_path / "docs"
    doc_dir.mkdir()
    (doc_dir / "b.txt").write_text("second text")
    (doc_dir / "a.txt").write_text("first text")
    pairs = read_raw_docs(str(doc_dir))
    assert pairs == [("a", "first text"), ("b", "second text")]

    line_file = tmp_path / "lines.txt"
    line_file.write_text("one doc\nanother doc\n")
    pairs = read_raw_docs(str(line_file))
    assert [p[0] for p in pairs] == ["line000001", "line000002"]
    assert pairs[1][1] == "another doc"
