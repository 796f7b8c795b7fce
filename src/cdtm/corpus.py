"""Text ingestion: tokenization, vocabulary building, splitting, window counts.

A corpus is a shared :class:`Vocabulary` plus encoded :class:`Document`
objects (token order preserved, since the coherence windows need positions).
Raw input comes either from a directory of UTF-8 text files (one document
per file) or a single file with one document per line; an already-encoded
corpus can be round-tripped through the sparse text export.
"""

import logging
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

logger = logging.getLogger(__name__)

# Common English function words.  Deliberately compact; callers needing a
# different list pass their own via CorpusConfig.
DEFAULT_STOPWORDS = frozenset("""
a about above after again against all am an and any are as at back be because
been before being below between both but by came can cannot come could did do
does doing down during each even few first for from further get got had has
have having he her here hers herself him himself his how i if in into is it
its itself just like made make many may me might more most much must my myself
never new no nor not now of off on once one only or other our ours ourselves
out over own per said same see she should so some still such than that the
their theirs them themselves then there these they this those through to too
under until up upon us very was way we well were what when where which while
who whom why will with would you your yours yourself yourselves
""".split())

_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")

# _window_joint forms its overlapping interval pairs in blocks of about this
# many, so a block's arrays (32 KiB each) stay small on any corpus.  On a
# 2-core x86_64 host, blocks of 2^14 pairs and more made coherence-long's
# coherence_report slower: each call's heap growth went back to the OS and
# was page-faulted in again.  The counts do not depend on the block size.
_PAIR_BLOCK = 1 << 12


@dataclass(frozen=True)
class CorpusConfig:
    """Preprocessing settings for tokenize/build_corpus.

    Defaults mirror common topic-modeling practice: lowercase, strip
    non-alphanumerics, drop tokens shorter than 2 characters, drop English
    stopwords, require document frequency >= 5, and drop tokens appearing
    in more than half of all documents.
    """

    lowercase: bool = True
    min_token_len: int = 2
    stopwords: frozenset = DEFAULT_STOPWORDS
    min_doc_freq: int = 5
    max_doc_fraction: float = 0.5

    def validate(self):
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        if self.min_doc_freq < 1:
            raise ValueError("min_doc_freq must be >= 1")
        if not 0.0 < self.max_doc_fraction <= 1.0:
            raise ValueError("max_doc_fraction must lie in (0, 1]")


@dataclass
class Vocabulary:
    terms: list
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {t: j for j, t in enumerate(self.terms)}

    def __len__(self):
        return len(self.terms)

    def encode(self, tokens, drop_unknown=False):
        if drop_unknown:
            return [self.index[t] for t in tokens if t in self.index]
        return [self.index[t] for t in tokens]


@dataclass
class Document:
    id: str
    tokens: np.ndarray  # word ids, position order preserved

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)

    def __len__(self):
        return int(self.tokens.shape[0])


@dataclass
class Corpus:
    vocabulary: Vocabulary
    documents: list
    dropped_ids: list = field(default_factory=list)

    @property
    def n_docs(self):
        return len(self.documents)

    @property
    def n_words(self):
        return len(self.vocabulary)

    def word_counts(self):
        """Corpus-wide occurrence count per word id, as a length-V array.

        A word id outside [0, V) is a ValueError.
        """
        tokens = np.concatenate([np.zeros(0, np.int64)] + [d.tokens for d in self.documents])
        counts = np.bincount(tokens, minlength=len(self.vocabulary))
        if counts.shape[0] > len(self.vocabulary):
            raise ValueError("word id out of range for the vocabulary")
        return counts


@dataclass
class WindowCounts:
    """Sliding-window co-occurrence counts over a sorted set of target words.

    ``joint`` is the symmetric (T, T) int64 matrix over ``targets`` (the
    sorted unique target ids, int64): ``joint[a, b]`` counts the windows
    holding both ``targets[a]`` and ``targets[b]``, and the diagonal holds
    each target's own window count.  ``unigram`` (word id -> count) and
    ``pair`` ((i, j) with i < j -> count) are read-only dict views of its
    nonzero entries, built on first access and cached.
    """

    window_size: int
    total_windows: int
    targets: np.ndarray
    joint: np.ndarray

    def slots(self, words):
        """Index of each word id in ``targets``; an untracked word is a ValueError."""
        words = np.asarray(words, dtype=np.int64)
        slot = np.searchsorted(self.targets, words)
        tracked = self.targets[np.minimum(slot, self.targets.size - 1)] == words
        if not tracked.all():
            raise ValueError(
                "word id %d is not a target of these window counts" % words[~tracked][0]
            )
        return slot

    @cached_property
    def unigram(self):
        held = np.flatnonzero(np.diagonal(self.joint))
        return MappingProxyType(
            dict(zip(self.targets[held].tolist(), self.joint[held, held].tolist()))
        )

    @cached_property
    def pair(self):
        rows, cols = np.nonzero(np.triu(self.joint, k=1))
        keys = zip(self.targets[rows].tolist(), self.targets[cols].tolist())
        return MappingProxyType(dict(zip(keys, self.joint[rows, cols].tolist())))


def tokenize(raw_text, config=CorpusConfig()):
    """Split raw text into filtered token strings.

    Lowercases (if configured), replaces non-alphanumeric characters with
    spaces, splits on whitespace, then applies the length and stopword
    filters.  May return an empty list.
    """
    text = raw_text.lower() if config.lowercase else raw_text
    tokens = _NON_ALNUM.split(text)
    out = []
    stop = config.stopwords or frozenset()
    for t in tokens:
        if len(t) < config.min_token_len:
            continue
        if t in stop:
            continue
        out.append(t)
    return out


def build_corpus(raw_docs, config=CorpusConfig()):
    """Tokenize raw documents and encode them against a filtered vocabulary.

    ``raw_docs`` is an iterable of (doc_id, raw_text) pairs.  The vocabulary
    keeps exactly the tokens whose document frequency df satisfies
    min_doc_freq <= df <= max_doc_fraction * D, sorted lexicographically.
    Documents emptied by the filters are dropped (with a warning) and listed
    in ``Corpus.dropped_ids``.
    """
    config.validate()
    pairs = [(str(doc_id), tokenize(text, config)) for doc_id, text in raw_docs]
    if not pairs:
        raise ValueError("build_corpus requires at least one document")

    df = Counter()
    for _, toks in pairs:
        df.update(set(toks))
    n_docs = len(pairs)
    max_df = config.max_doc_fraction * n_docs
    kept = sorted(t for t, c in df.items() if c >= config.min_doc_freq and c <= max_df)
    vocab = Vocabulary(kept)

    documents, dropped = [], []
    for doc_id, toks in pairs:
        ids = vocab.encode(toks, drop_unknown=True)
        if ids:
            documents.append(Document(doc_id, ids))
        else:
            dropped.append(doc_id)
    if dropped:
        logger.warning(
            "build_corpus dropped %d empty documents after filtering: %s",
            len(dropped),
            ", ".join(dropped[:10]) + ("..." if len(dropped) > 10 else ""),
        )
    if not documents:
        raise ValueError("all documents empty after filtering")
    return Corpus(vocab, documents, dropped)


def _restrict_to_train(train_docs, other_docs, vocabulary):
    """Rebuild the vocabulary from the training documents and re-encode both halves.

    Tokens absent from every training document are dropped from the other
    half (its documents may end up empty; they are kept so that the split
    stays an exhaustive partition).
    """
    seen = set()
    for doc in train_docs:
        seen.update(doc.tokens.tolist())
    old_terms = vocabulary.terms
    kept = sorted(seen)
    new_vocab = Vocabulary([old_terms[w] for w in kept])
    remap = {w: j for j, w in enumerate(kept)}

    def re_encode(docs):
        out = []
        for doc in docs:
            ids = [remap[w] for w in doc.tokens.tolist() if w in remap]
            out.append(Document(doc.id, ids))
        return out

    return new_vocab, re_encode(train_docs), re_encode(other_docs)


def split_corpus(corpus, train_fraction, seed):
    """Randomly partition documents into train/test corpora.

    The split uses floor(D * train_fraction) training documents with a
    minimum of one document on each side.  The vocabulary is rebuilt from
    the training half; test tokens outside it are dropped.
    """
    n_docs = corpus.n_docs
    if n_docs < 2:
        raise ValueError("split_corpus requires at least 2 documents")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly in (0, 1)")
    n_train = int(np.floor(n_docs * train_fraction))
    n_train = min(max(n_train, 1), n_docs - 1)

    perm = np.random.default_rng(seed).permutation(n_docs)
    train_idx = sorted(perm[:n_train].tolist())
    test_idx = sorted(perm[n_train:].tolist())
    train_docs = [corpus.documents[i] for i in train_idx]
    test_docs = [corpus.documents[i] for i in test_idx]

    vocab, train_docs, test_docs = _restrict_to_train(train_docs, test_docs, corpus.vocabulary)
    return Corpus(vocab, train_docs), Corpus(vocab, test_docs)


def kfold_split(corpus, folds, seed):
    """Yield (train, validation) corpus pairs for deterministic k-fold CV.

    Fold f's validation set is every folds-th document of a seeded
    permutation; as in split_corpus, each fold pair shares the vocabulary
    rebuilt from its training side.
    """
    n_docs = corpus.n_docs
    if folds < 2 or folds > n_docs:
        raise ValueError("folds must satisfy 2 <= folds <= D")
    perm = np.random.default_rng(seed).permutation(n_docs)
    for f in range(folds):
        valid_idx = sorted(perm[f::folds].tolist())
        valid_set = set(valid_idx)
        train_idx = [i for i in range(n_docs) if i not in valid_set]
        train_docs = [corpus.documents[i] for i in train_idx]
        valid_docs = [corpus.documents[i] for i in valid_idx]
        vocab, train_docs, valid_docs = _restrict_to_train(
            train_docs, valid_docs, corpus.vocabulary
        )
        yield Corpus(vocab, train_docs), Corpus(vocab, valid_docs)


def count_windows(corpus, window_size, target_words):
    """Boolean sliding-window co-occurrence counts over the target words.

    Every contiguous span of ``window_size`` tokens (step 1) is one window;
    documents shorter than the window contribute a single whole-document
    window.  Returns a :class:`WindowCounts` whose ``joint`` matrix counts,
    for every pair of targets, the windows holding both (the diagonal: the
    windows holding the word at all).  A token id outside [0, V) is a
    ValueError; a target that no document holds counts 0.  The counts are
    those of :func:`_window_joint` on one group, the sorted unique targets.
    """
    # sorted and unique; np.unique would import numpy.ma (~1.3 MiB resident) on its first call
    targets = np.sort(np.fromiter(target_words, dtype=np.int64))
    targets = targets[np.diff(targets, prepend=targets[:1] - 1) != 0]
    if not targets.size:
        raise ValueError("count_windows requires a non-empty target set")
    total, joint = _window_joint(corpus, window_size, targets[None])
    return WindowCounts(window_size, total, targets, joint[0])


def _window_joint(corpus, window_size, groups):
    """The corpus's window count, and the window co-occurrence counts within each group of words.

    ``groups`` is a (G, n) array of word ids, distinct within each row;
    the result's (G, n, n) int64 ``joint[g, i, j]`` counts the windows
    holding both ``groups[g, i]`` and ``groups[g, j]``, and its diagonal
    the windows holding ``groups[g, i]`` at all.  A word id outside [0, V)
    counts 0.  Windows are those of :func:`count_windows`.

    The windows holding one (group, word) cell are a few disjoint intervals
    of window starts (see :func:`_cell_intervals`), so a diagonal entry is
    the summed length of its cell's intervals and an off-diagonal entry the
    summed overlap of two cells' intervals.  The intervals carry keys
    g * (P + 1) + start and g * (P + 1) + end, for a corpus of P tokens:
    every window start and end lies in [0, P], so sorted by key the
    intervals run group by group, and an interval overlaps exactly the
    later intervals that start before it ends, all of its own group.  One
    ``np.searchsorted`` finds them for all intervals, and each such pair
    adds its overlap to ``joint`` in both orientations.  The work grows
    with the number of overlapping pairs within groups, not with documents,
    windows or group sizes squared.  The pairs are formed in blocks of
    about ``_PAIR_BLOCK``, and every count is an int64 sum of exact
    integers, so the result depends neither on the block size nor on the
    other groups.
    """
    if window_size < 2:
        raise ValueError("window_size must be >= 2")
    n_groups, n = groups.shape
    total, lo, hi, cell = _cell_intervals(corpus, window_size, groups)
    row, col = cell * n, cell % n  # the flat index of the cell's row of joint, and its column

    joint = np.zeros(n_groups * n * n, dtype=np.int64)
    after = np.arange(1, lo.size + 1)
    later = np.searchsorted(lo, hi) - after  # how many of the following intervals each one overlaps
    first = np.cumsum(later) - later  # index of each interval's first pair
    shift = after - first  # a pair's right interval is its index plus its left interval's shift
    bounds = [*np.flatnonzero(np.diff(first // _PAIR_BLOCK, prepend=-1)).tolist(), lo.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        left = np.repeat(np.arange(a, b), later[a:b])
        right = np.arange(first[a], first[a] + left.size) + shift[left]
        overlap = np.minimum(hi[left], hi[right]) - lo[right]
        np.add.at(joint, row[left] + col[right], overlap)
        np.add.at(joint, row[right] + col[left], overlap)
    np.add.at(joint, row + col, hi - lo)  # the diagonal
    return total, joint.reshape(n_groups, n, n)


def _cell_intervals(corpus, window_size, groups):
    """The corpus's window count, and the window starts holding each (group, word) cell.

    A window is named by the corpus position of its first token, so a
    document's windows are one range of starts, and an occurrence at
    position i lies in the windows starting in
    [max(i - width + 1, doc_start), min(i, doc_end - width) + 1), where
    width = min(len, window_size).  One word's ranges, in position order,
    start and end in non-decreasing order; merging each run that touches or
    overlaps leaves disjoint intervals.  No two documents share a window
    start, so the merge needs no document boundaries.  Each word is merged
    once, and every cell that holds it takes a copy of its intervals.  They
    come back as keys (g * (P + 1) + start, g * (P + 1) + end) with the
    cell's flat index g * n + i, sorted by start key; the order of
    intervals with equal keys is unspecified.  (A function of its own, so
    that its corpus-sized temporaries are freed before _window_joint
    allocates the counts.)
    """
    n_words = corpus.n_words
    lengths = np.array([len(d) for d in corpus.documents], dtype=np.int64)
    tokens = np.concatenate([np.zeros(0, np.int64)] + [d.tokens for d in corpus.documents])
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < n_words:
        raise ValueError("token id out of range [0, %d) for the vocabulary" % n_words)
    widths = np.minimum(lengths, window_size)
    total = int((lengths - widths + 1)[lengths > 0].sum())

    cells = groups.reshape(-1)
    held = np.flatnonzero((cells >= 0) & (cells < n_words))
    lookup = np.full(n_words, -1, dtype=np.int64)
    lookup[cells[held]] = held  # one cell of each held word, which merges the word's intervals
    token_cells = lookup[tokens]
    at = np.flatnonzero(token_cells >= 0)  # corpus position of every occurrence of a held word
    # each word's occurrences in position order: the keys are distinct, so any sort keeps that order
    key = np.sort(token_cells[at] * tokens.size + at)
    merged_in = key // tokens.size  # no division at all when the corpus is empty
    at = key - merged_in * tokens.size
    doc = np.repeat(np.arange(lengths.size), lengths)[at]
    ends = np.cumsum(lengths)
    lo = np.maximum(at - widths[doc] + 1, (ends - lengths)[doc])
    hi = np.minimum(at, (ends - widths)[doc]) + 1
    # a run starts at each new word and at each range that begins past the previous one's end
    starts = np.ones(at.size, dtype=bool)
    starts[1:] = (merged_in[1:] != merged_in[:-1]) | (lo[1:] > hi[:-1])
    run = np.flatnonzero(starts)
    lo, hi = lo[run], np.maximum.reduceat(hi, run)  # each word's merged intervals, in word order

    # every held cell takes its word's run of intervals
    merged = np.bincount(merged_in[run], minlength=cells.size)  # intervals per merging cell
    source = lookup[cells[held]]
    taken = merged[source]
    pick = np.arange(taken.sum()) + np.repeat(np.cumsum(merged)[source] - np.cumsum(taken), taken)
    offset = np.repeat(held // groups.shape[1] * (tokens.size + 1), taken)
    lo_key = lo[pick] + offset
    by_start = np.argsort(lo_key)
    return total, lo_key[by_start], (hi[pick] + offset)[by_start], np.repeat(held, taken)[by_start]


# ---------------------------------------------------------------------------
# On-disk formats


def read_raw_docs(path):
    """Load (doc_id, raw_text) pairs from a directory of files or a line file."""
    if os.path.isdir(path):
        names = sorted(
            n for n in os.listdir(path) if os.path.isfile(os.path.join(path, n))
        )
        if not names:
            raise ValueError("no files found in %s" % path)
        out = []
        for name in names:
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                out.append((os.path.splitext(name)[0], fh.read()))
        return out
    with open(path, encoding="utf-8") as fh:
        return [
            ("line%06d" % (i + 1), line.rstrip("\n")) for i, line in enumerate(fh)
        ]


def write_vocabulary_tsv(corpus, path):
    """Write `word_id<TAB>term<TAB>document_frequency` rows."""
    df = Counter()
    for doc in corpus.documents:
        df.update(set(doc.tokens.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        for j, term in enumerate(corpus.vocabulary.terms):
            fh.write("%d\t%s\t%d\n" % (j, term, df.get(j, 0)))


def read_vocabulary_tsv(path):
    """The Vocabulary of a vocab.tsv; a malformed line or a repeated term is a
    ValueError naming the file and line."""
    terms, first_line = [], {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                wid, term, _df = line.rstrip("\n").split("\t")
                wid = int(wid)
            except ValueError:
                raise ValueError(
                    "%s line %d: expected word_id<TAB>term<TAB>doc_freq with an integer word_id" % (path, line_no)
                ) from None
            if wid != len(terms):
                raise ValueError("vocabulary TSV word ids must be consecutive from 0")
            if term in first_line:
                raise ValueError("%s line %d: term %r repeats line %d" % (path, line_no, term, first_line[term]))
            first_line[term] = line_no
            terms.append(term)
    return Vocabulary(terms)


def write_encoded_corpus(corpus, path):
    """Write one `doc_id<TAB>N_d<TAB>w_1 w_2 ...` line per document."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            ids = " ".join(str(w) for w in doc.tokens.tolist())
            fh.write("%s\t%d\t%s\n" % (doc.id, len(doc), ids))


def read_encoded_corpus(path, vocabulary):
    documents = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                doc_id, n_str, ids = fields if len(fields) != 2 else fields + [""]  # an empty document may drop its last tab
                n_tokens = int(n_str)
                tokens = [int(w) for w in ids.split()]
            except ValueError:
                raise ValueError(
                    "%s line %d: expected doc_id<TAB>N_d<TAB>word ids, with integer N_d and ids" % (path, line_no)
                ) from None
            if len(tokens) != n_tokens:
                raise ValueError("token count mismatch for document %r" % doc_id)
            if tokens and not 0 <= min(tokens) <= max(tokens) < len(vocabulary):
                raise ValueError(
                    "word id out of range [0, %d) for document %r" % (len(vocabulary), doc_id)
                )
            documents.append(Document(doc_id, tokens))
    if not documents:
        raise ValueError("encoded corpus %s holds no documents" % path)
    return Corpus(vocabulary, documents)
