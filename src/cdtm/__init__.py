"""Concentrated document topic modeling.

Latent Dirichlet allocation extended with a per-document entropy penalty
that pushes each document's topic distribution toward a few dominant
topics, fitted by penalized variational EM.  Set the penalty weight to
zero to recover plain LDA.  Includes C_V coherence and perplexity
evaluation plus cross-validated selection of the topic count and penalty
weight.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusConfig,
    Document,
    Vocabulary,
    WindowCounts,
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
from .evaluate import (
    CoherenceReport,
    EntropyStats,
    TopicTopWords,
    coherence_report,
    cv_score,
    entropy,
    entropy_stats,
    grid_select,
    npmi_matrix,
)
from .inference import (
    ElboBreakdown,
    FitResult,
    NumericalError,
    estep_batch,
    estep_document,
    fit,
    infer_document,
    mstep,
    penalized_elbo,
    perplexity,
    update_phi,
)
from .model import (
    ConfigError,
    DocVariational,
    ModelParams,
    TrainConfig,
    init_model,
    load_model,
    save_model,
)
from .specialfn import (
    digamma,
    expected_log_theta,
    expected_neg_entropy,
    log_gamma,
    tetragamma,
    trigamma,
)
