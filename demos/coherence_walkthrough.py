"""Step through the coherence score on a corpus small enough to check by hand.

Six tiny documents, two obvious word clusters.  The script shows the raw
sliding-window counts, the pairwise NPMI values they imply, and how the
per-word NPMI vectors aggregate into a C_V score for a coherent topic
versus a deliberately scrambled one.

Run:  python3 demos/coherence_walkthrough.py
"""

from cdtm.corpus import Corpus, Document, Vocabulary, count_windows
from cdtm.evaluate import TopicTopWords, cv_score, npmi_matrix

WORDS = ["ocean", "wave", "tide", "ember", "flame", "spark"]


def main():
    vocab = Vocabulary(WORDS)
    texts = [
        ["ocean", "wave", "tide", "wave"],
        ["tide", "ocean", "wave"],
        ["ember", "flame", "spark", "flame"],
        ["spark", "ember", "flame"],
        ["ocean", "tide", "wave", "ocean"],
        ["flame", "spark", "ember"],
    ]
    docs = [
        Document("d%d" % i, vocab.encode(toks, drop_unknown=False))
        for i, toks in enumerate(texts)
    ]
    corpus = Corpus(vocab, docs)

    window = 3
    counts = count_windows(corpus, window, list(range(len(WORDS))))
    print("window size %d over %d documents -> %d windows" % (window, len(docs), counts.total_windows))
    print("\nwindow occurrence counts:")
    for name, c in zip(WORDS, counts.joint.diagonal()):  # the targets are every word, in order
        print("  %-6s %d" % (name, c))

    print("\npairwise NPMI (1 = always together, ~-1 = never together):")
    header = "        " + "".join("%8s" % n[:6] for n in WORDS)
    print(header)
    for name, row in zip(WORDS, npmi_matrix(range(len(WORDS)), counts)):
        print("  %-6s%s" % (name, "".join("%8.2f" % v for v in row)))

    water = TopicTopWords(0, [WORDS.index(w) for w in ("ocean", "wave", "tide")])
    fire = TopicTopWords(1, [WORDS.index(w) for w in ("ember", "flame", "spark")])
    mixed = TopicTopWords(2, [WORDS.index(w) for w in ("ocean", "flame", "tide")])

    print("\nC_V per topic (mean cosine between each word's NPMI vector and their sum):")
    for label, topic in (("water", water), ("fire", fire), ("mixed", mixed)):
        print("  %-6s %s -> %.4f" % (label, [WORDS[w] for w in topic.words], cv_score(topic, counts)))
    print("\nwords that share windows score near 1; a topic mixing the two")
    print("clusters is pulled down by the negative cross-cluster NPMIs.")


if __name__ == "__main__":
    main()
