"""Command-line entry point for reproducible runs with on-disk artifacts.

Subcommands: train, infer, coherence, entropy-stats, grid, split.  Every
command goes through one run record, _Run: it reads --config once, builds
the settings the command reads, times each phase, creates --out, and ends
by writing a manifest.json recording those settings, input/output paths,
seed, and per-phase timings, so a run can be repeated exactly.

The artifact formats live in this module alone.  write_table writes every
table a command produces (gamma.tsv, theta.tsv, elbo_trace.csv,
entropy.csv, coherence.csv, grid.csv), with floats as %.17g, which reads
back bit for bit; read_gamma_tsv reads gamma.tsv back.  The input formats,
vocab.tsv, corpus.tsv and the model files, live beside their readers in
corpus and model.

The settings are the fields of CorpusConfig, TrainConfig and GridConfig.
SETTINGS derives each one's config-file key, flag, value parser and
manifest entry from its field; _SPECIAL spells out the exceptions, and
which commands read each setting.  A command registers flags for only the
settings it reads; the others keep their defaults (infer takes K and zeta
from the model, and lambda too unless it is set).  Setting precedence: CLI
flags > config file (key=value lines, '#' comments) > built-in defaults.
One config file can serve every command: a command ignores the keys it
does not read, and an unknown key is an error.  The CDTM_LOG environment
variable sets log verbosity (DEBUG/INFO/WARNING/ERROR).

Exit codes: 0 success, 2 configuration or missing-file errors, 1 runtime
or numerical failures.
"""

import argparse
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import __version__
from .corpus import (
    DEFAULT_STOPWORDS,
    CorpusConfig,
    Corpus,
    Document,
    build_corpus,
    read_encoded_corpus,
    read_raw_docs,
    read_vocabulary_tsv,
    split_corpus,
    tokenize,
    write_encoded_corpus,
    write_vocabulary_tsv,
)
from .evaluate import (
    DEFAULT_TOP_N,
    DEFAULT_WINDOW_SIZE,
    coherence_report,
    entropy,
    entropy_stats,
    grid_select,
)
from .inference import NumericalError, estep_batch, fit
from .model import ConfigError, TrainConfig, load_model, save_model

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

ENTROPY_BIN_WIDTH = 0.05  # entropy_stats.json histogram bins, in nats


# ---------------------------------------------------------------------------
# Settings


@dataclass
class GridConfig:
    """Settings of the two-stage K/lambda search (evaluate.grid_select)."""

    k_grid: list = None
    lambda_grid: list = None
    folds: int = 5

    def validate(self):
        if not self.k_grid or not self.lambda_grid:
            raise ConfigError("grid requires --k-grid and --lambda-grid")


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % raw)


def _parse_float_list(raw):
    return [float(v) for v in raw.replace(",", " ").split()]


def _parse_int_list(raw):
    return [int(v) for v in raw.replace(",", " ").split()]


def _parse_stopwords(raw):
    if raw == "default":
        return DEFAULT_STOPWORDS
    if raw == "none":
        return frozenset()
    with open(raw, encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


# Commands grouped by what they do with a setting.
_TOKENIZE = ("train", "infer", "coherence", "grid", "split")  # read text input
_BUILD_VOCAB = ("train", "grid", "split")  # build a vocabulary from it
_ESTEP = ("train", "infer", "grid")  # fit per-document variational states
_FIT = ("train", "grid")  # run EM from a seeded random start

# Departures from the rule that a setting is named by its field, parsed by
# its field's type, and read by every command that builds its config.
# "label" is the manifest key; lower-cased it is the config-file key, and
# with dashes the flag.
_SPECIAL = {
    # grid sweeps K and lambda itself; infer takes K and zeta from the model.
    "K": dict(help="number of topics", commands=("train",)),
    "lam": dict(label="lambda", parse=float, help="entropy-penalty weight", commands=("train", "infer")),
    "zeta": dict(parse=_parse_float_list, help="comma-separated Dirichlet prior", commands=_FIT),
    # infer runs no EM loop and no M-step.
    "em_max_iters": dict(commands=_FIT),
    "em_rel_tol": dict(commands=_FIT),
    "seed": dict(help="random seed", commands=_FIT + ("split",)),
    "stopwords": dict(parse=_parse_stopwords, help="'default', 'none', or a word-list file"),
    # infer and coherence encode text against the model's vocabulary.
    "min_doc_freq": dict(commands=_BUILD_VOCAB),
    "max_doc_fraction": dict(commands=_BUILD_VOCAB),
    "k_grid": dict(parse=_parse_int_list, help="comma-separated topic counts"),
    "lambda_grid": dict(parse=_parse_float_list, help="comma-separated penalty weights"),
}


@dataclass(frozen=True)
class Setting:
    name: str  # the config dataclass field
    label: str  # manifest key
    parse: object  # str -> value, for flags and config-file values
    commands: tuple  # the commands that read it
    help: str = None

    @property
    def key(self):
        return self.label.lower()

    @property
    def flag(self):
        return "--" + self.key.replace("_", "-")


def _settings(cls, commands):
    out = []
    for f in fields(cls):
        spec = dict(label=f.name, parse=_parse_bool if f.type is bool else f.type, commands=commands)
        spec.update(_SPECIAL.get(f.name, {}))
        out.append(Setting(f.name, **spec))
    return tuple(out)


SETTINGS = {
    CorpusConfig: _settings(CorpusConfig, _TOKENIZE),
    TrainConfig: _settings(TrainConfig, _ESTEP),
    GridConfig: _settings(GridConfig, ("grid",)),
}
CONFIG_KEYS = frozenset(s.key for group in SETTINGS.values() for s in group)


def _read_config_file(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key=value" % (path, lineno))
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
            out[key] = val.strip()
    return out


def _add_setting_flags(p, command):
    for group in SETTINGS.values():
        for s in group:
            if command not in s.commands:
                continue
            if s.parse is _parse_bool:
                p.add_argument(s.flag, dest=s.name, action=argparse.BooleanOptionalAction, help=s.help)
            else:
                p.add_argument(s.flag, dest=s.name, type=s.parse, help=s.help)


# ---------------------------------------------------------------------------
# Runs, manifests and artifact formats


class _Run:
    """One command run: its settings, phase timings, output directory and manifest.

    An args Namespace without a command reads the settings train reads.
    """

    def __init__(self, args):
        self.args = args
        self.command = getattr(args, "command", "train")
        config_path = getattr(args, "config", None)
        self.file_cfg = _read_config_file(config_path) if config_path else {}
        self.timings = {}

    def config(self, base):
        """base, validated, with each setting the command reads taken from its
        flag, else from the config file."""
        values = {}
        for s in SETTINGS[type(base)]:
            if self.command not in s.commands:
                continue
            value = getattr(self.args, s.name, None)
            if value is None and s.key in self.file_cfg:
                raw = self.file_cfg[s.key]
                try:
                    value = s.parse(raw)
                except ValueError:
                    raise ConfigError("config key %s: cannot parse %r" % (s.key, raw))
            if value is not None:
                values[s.name] = value
        cfg = replace(base, **values)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc))
        return cfg

    def settings(self, cfg):
        """Each setting of cfg that the command reads, as a JSON value under its label."""
        out = {}
        for s in SETTINGS[type(cfg)]:
            if self.command not in s.commands:
                continue
            value = getattr(cfg, s.name)
            if isinstance(value, frozenset):
                value = sorted(value)
            elif value is not None:
                value = np.asarray(value).tolist()  # numpy scalars and arrays to Python
            out[s.label] = value
        return out

    @contextmanager
    def phase(self, name):
        """Time the block as the manifest's <name>_seconds."""
        t0 = time.perf_counter()
        yield
        self.timings[name + "_seconds"] = time.perf_counter() - t0

    def path(self, name):
        """The path of an output under --out, creating --out first."""
        os.makedirs(self.args.out, exist_ok=True)
        return os.path.join(self.args.out, name)

    def finish(self, seed, config, inputs, outputs, diagnostics=None):
        """Write the run's manifest.json."""
        manifest = dict(
            version=__version__, command=self.command, seed=int(seed), config=config,
            inputs=inputs, outputs=outputs, timings=self.timings, diagnostics=diagnostics or {},
        )
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def write_table(path, rows, header=None, sep=","):
    """One line per row, cells joined by sep: floats as %.17g, which reads back
    bit for bit, every other cell with str."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fh.write(sep.join("%.17g" % c if isinstance(c, float) else str(c) for c in row) + "\n")


def read_gamma_tsv(path):
    """(document ids, (D, K) gamma array) from a gamma.tsv written by train.

    Every row holds an id and the same K >= 1 values as the first row; any
    other row is a ValueError naming the file and line.
    """
    ids, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            width = len(rows[0]) + 1 if rows else max(len(parts), 2)
            if len(parts) != width:
                raise ValueError(
                    "%s line %d: expected %d tab-separated columns, got %d"
                    % (path, line_no, width, len(parts))
                )
            ids.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ValueError("%s line %d: %s" % (path, line_no, exc)) from None
    if not rows:
        raise ValueError("gamma file %s holds no rows" % path)
    return ids, np.asarray(rows)


# ---------------------------------------------------------------------------
# Input loading


def _is_encoded(input_path):
    """Whether input_path is read as an encoded corpus directory: one holding vocab.tsv (and corpus.tsv)."""
    return os.path.isfile(os.path.join(input_path, "vocab.tsv"))


def _load_corpus(input_path, corpus_cfg):
    if _is_encoded(input_path):
        vocab = read_vocabulary_tsv(os.path.join(input_path, "vocab.tsv"))
        return read_encoded_corpus(os.path.join(input_path, "corpus.tsv"), vocab)
    return build_corpus(read_raw_docs(input_path), corpus_cfg)


def _load_docs_for_model(input_path, vocabulary, corpus_cfg):
    """Documents encoded against a trained model's vocabulary (unknowns dropped)."""
    if _is_encoded(input_path):
        vocab = read_vocabulary_tsv(os.path.join(input_path, "vocab.tsv"))
        if vocab.terms != vocabulary.terms:
            raise ValueError("encoded input vocabulary differs from the model vocabulary")
        return read_encoded_corpus(os.path.join(input_path, "corpus.tsv"), vocab).documents
    docs = []
    for doc_id, text in read_raw_docs(input_path):
        ids = vocabulary.encode(tokenize(text, corpus_cfg), drop_unknown=True)
        docs.append(Document(str(doc_id), ids))
    return docs


def _model_vocabulary(args, model):
    vocab_path = args.vocab or os.path.join(os.path.dirname(args.model) or ".", "vocab.tsv")
    vocab = read_vocabulary_tsv(vocab_path)
    if len(vocab) != model.V:
        raise ValueError(
            "vocabulary size %d does not match model V=%d" % (len(vocab), model.V)
        )
    return vocab_path, vocab


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args):
    run = _Run(args)
    corpus_cfg = run.config(CorpusConfig())
    train_cfg = run.config(TrainConfig())

    with run.phase("load"):
        corpus = _load_corpus(args.input, corpus_cfg)
    logger.info("corpus: %d documents, %d vocabulary terms", corpus.n_docs, corpus.n_words)
    if train_cfg.K > corpus.n_words:
        raise ConfigError("--k %d exceeds the vocabulary size %d" % (train_cfg.K, corpus.n_words))

    with run.phase("fit"):
        result = fit(corpus, train_cfg)

    with run.phase("write"):
        model_path = run.path("model.bin" if args.model_format == "binary" else "model.json")
        save_model(result.model, train_cfg.homogeneous_lam(), model_path)
        vocab_path = run.path("vocab.tsv")
        write_vocabulary_tsv(corpus, vocab_path)
        gamma_path = run.path("gamma.tsv")
        write_table(gamma_path, [(doc.id, *vp.gamma) for doc, vp in zip(corpus.documents, result.per_doc)], sep="\t")
        trace_path = run.path("elbo_trace.csv")
        write_table(
            trace_path,
            [(it, *astuple(bd)) for it, bd in enumerate(result.elbo_trace, start=1)],
            ("iteration", "ll_terms", "q_entropy", "penalty", "total"),
        )

    run.finish(
        train_cfg.seed,
        {"train": run.settings(train_cfg), "corpus": run.settings(corpus_cfg)},
        {"corpus": args.input},
        {
            "model": model_path,
            "vocabulary": vocab_path,
            "gamma": gamma_path,
            "elbo_trace": trace_path,
        },
        # E-steps of the last EM iteration that hit estep_max_iters.
        {"unconverged_esteps": result.unconverged_esteps[-1]},
    )
    print(
        "trained K=%d lambda=%g on %d documents: %d EM iterations, final elbo %.6f%s"
        % (
            train_cfg.K,
            train_cfg.homogeneous_lam(),
            corpus.n_docs,
            result.iterations_run,
            result.elbo_trace[-1].total,
            "" if result.converged else " (iteration cap reached)",
        )
    )
    return EXIT_OK


def cmd_infer(args):
    run = _Run(args)
    corpus_cfg = run.config(CorpusConfig())
    model, stored_lam = load_model(args.model)
    vocab_path, vocab = _model_vocabulary(args, model)
    train_cfg = run.config(TrainConfig(K=model.K, lam=stored_lam, zeta=model.zeta))

    with run.phase("load"):
        docs = _load_docs_for_model(args.input, vocab, corpus_cfg)

    with run.phase("infer"):
        kept = []
        for doc in docs:
            if len(doc) == 0:
                logger.warning("document %s has no in-vocabulary tokens; skipped", doc.id)
                continue
            kept.append(doc)
        skipped = len(docs) - len(kept)
        if not kept:
            raise ValueError("all %d documents were skipped as out-of-vocabulary" % skipped)
        per_doc, _ = estep_batch(kept, model, [train_cfg.lam] * len(kept), train_cfg)
        thetas = [vp.gamma / float(np.sum(vp.gamma)) for vp in per_doc]
        entropies = [entropy(theta) for theta in thetas]

    with run.phase("write"):
        theta_path = run.path("theta.tsv")
        write_table(theta_path, [(doc.id, *theta) for doc, theta in zip(kept, thetas)], sep="\t")
        entropy_path = run.path("entropy.csv")
        write_table(entropy_path, [(doc.id, h) for doc, h in zip(kept, entropies)], ("doc_id", "entropy"))

    run.finish(
        0,
        {"train": run.settings(train_cfg), "corpus": run.settings(corpus_cfg)},
        {"model": args.model, "vocabulary": vocab_path, "documents": args.input},
        {"theta": theta_path, "entropy": entropy_path},
    )
    print("inferred %d documents (%d skipped) with lambda=%g" % (len(kept), skipped, train_cfg.lam))
    return EXIT_OK


def cmd_coherence(args):
    run = _Run(args)
    corpus_cfg = run.config(CorpusConfig())
    if args.top_n < 2:
        raise ConfigError("--top-n must be >= 2, got %d" % args.top_n)
    if args.window_size < 2:
        raise ConfigError("--window-size must be >= 2, got %d" % args.window_size)
    model, _ = load_model(args.model)
    if args.top_n > model.V:
        raise ConfigError("--top-n %d exceeds the model vocabulary size %d" % (args.top_n, model.V))
    vocab_path, vocab = _model_vocabulary(args, model)

    with run.phase("load"):
        docs = _load_docs_for_model(args.input, vocab, corpus_cfg)
        reference = Corpus(vocab, docs)

    with run.phase("score"):
        report = coherence_report(model, reference, args.top_n, args.window_size)

    csv_path = run.path("coherence.csv")
    rows = [
        (t.topic_id, "|".join(vocab.terms[w] for w in t.words), report.per_topic[t.topic_id])
        for t in report.topics
    ]
    write_table(csv_path, rows + [("mean", "", report.mean_cv)], ("topic_id", "top_words", "cv_score"))
    run.finish(
        0,
        {
            "corpus": run.settings(corpus_cfg),
            "coherence": {"top_n": args.top_n, "window_size": args.window_size},
        },
        {"model": args.model, "vocabulary": vocab_path, "reference": args.input},
        {"coherence": csv_path},
    )
    print("mean_cv %.17g" % report.mean_cv)
    return EXIT_OK


def cmd_entropy_stats(args):
    run = _Run(args)
    with run.phase("compute"):
        doc_ids, gammas = read_gamma_tsv(args.input)
        stats = entropy_stats(list(gammas))

    entropy_path = run.path("entropy.csv")
    write_table(entropy_path, zip(doc_ids, stats.entropies), ("doc_id", "entropy"))
    n_bins = max(1, math.ceil(math.log(stats.K) / ENTROPY_BIN_WIDTH))
    edges = [i * ENTROPY_BIN_WIDTH for i in range(n_bins + 1)]
    counts, _ = np.histogram(stats.entropies, bins=edges)
    payload = {
        "mean": stats.mean,
        "variance": stats.variance,
        "skewness": stats.skewness,
        "excess_kurtosis": stats.excess_kurtosis,
        "K": stats.K,
        "histogram": {
            "bin_width": ENTROPY_BIN_WIDTH,
            "bins": edges,
            "counts": [int(c) for c in counts],
        },
    }
    stats_path = run.path("entropy_stats.json")
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    run.finish(0, {}, {"gamma": args.input}, {"entropy": entropy_path, "entropy_stats": stats_path})
    print(
        "entropy over %d documents: mean %.17g variance %.17g"
        % (len(doc_ids), stats.mean, stats.variance)
    )
    return EXIT_OK


def cmd_grid(args):
    run = _Run(args)
    corpus_cfg = run.config(CorpusConfig())
    train_cfg = run.config(TrainConfig())
    grid_cfg = run.config(GridConfig())

    with run.phase("load"):
        corpus = _load_corpus(args.input, corpus_cfg)

    with run.phase("select"):
        try:
            best_k, best_lam, rows = grid_select(
                corpus,
                grid_cfg.k_grid,
                grid_cfg.lambda_grid,
                grid_cfg.folds,
                train_cfg,
                top_n=args.top_n,
                window_size=args.window_size,
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

    grid_path = run.path("grid.csv")
    write_table(grid_path, rows, ("K", "lambda", "fold", "metric_name", "value"))
    run.finish(
        train_cfg.seed,
        {
            "train": run.settings(train_cfg),
            "corpus": run.settings(corpus_cfg),
            "grid": {
                **run.settings(grid_cfg),
                "top_n": args.top_n,
                "window_size": args.window_size,
            },
        },
        {"corpus": args.input},
        {"grid": grid_path},
    )
    print("selected K=%d lambda=%.17g" % (best_k, best_lam))
    return EXIT_OK


def cmd_split(args):
    run = _Run(args)
    corpus_cfg = run.config(CorpusConfig())
    seed = run.config(TrainConfig()).seed
    if not 0.0 < args.train_fraction < 1.0:
        raise ConfigError("--train-fraction must lie strictly in (0, 1), got %g" % args.train_fraction)

    with run.phase("split"):
        corpus = _load_corpus(args.input, corpus_cfg)
        train_c, test_c = split_corpus(corpus, args.train_fraction, seed)

    outputs = {}
    for name, half in (("train", train_c), ("test", test_c)):
        half_dir = run.path(name)
        os.makedirs(half_dir, exist_ok=True)
        write_vocabulary_tsv(half, os.path.join(half_dir, "vocab.tsv"))
        write_encoded_corpus(half, os.path.join(half_dir, "corpus.tsv"))
        outputs[name] = half_dir
    run.finish(
        seed,
        {
            "corpus": run.settings(corpus_cfg),
            "split": {"train_fraction": args.train_fraction},
        },
        {"corpus": args.input},
        outputs,
    )
    print(
        "split %d documents into %d train / %d test (V=%d)"
        % (corpus.n_docs, train_c.n_docs, test_c.n_docs, train_c.n_words)
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdtm",
        description="Entropy-penalized topic modeling: train, infer, and evaluate.",
    )
    parser.add_argument("--version", action="version", version="cdtm %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # No abbreviations: grid's --k would otherwise be read as --k-grid.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--input", required=True, help="input path (see the subcommand help)")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        if name in _TOKENIZE:
            p.add_argument("--config", default=None, help="key=value config file")
        _add_setting_flags(p, name)
        p.set_defaults(func=func)
        return p

    def model_flags(p):
        p.add_argument("--model", required=True, help="model file from train")
        p.add_argument("--vocab", default=None, help="vocab.tsv (default: next to the model)")

    def coherence_flags(p):
        p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
        p.add_argument("--window-size", type=int, default=DEFAULT_WINDOW_SIZE)

    p = command("train", cmd_train, "fit a model and write its artifacts")
    p.add_argument("--model-format", choices=("json", "binary"), default="json")

    p = command("infer", cmd_infer, "per-document topic distributions under a trained model")
    model_flags(p)

    p = command("coherence", cmd_coherence, "C_V coherence of a model against a reference corpus")
    coherence_flags(p)
    model_flags(p)

    command("entropy-stats", cmd_entropy_stats, "entropy summary of a gamma.tsv file")

    p = command("grid", cmd_grid, "two-stage cross-validated selection of K and lambda")
    coherence_flags(p)

    p = command("split", cmd_split, "deterministic train/test split of a corpus")
    p.add_argument("--train-fraction", type=float, default=0.8)

    return parser


def _setup_logging():
    level_name = os.environ.get("CDTM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        # Inside the try: parsing --stopwords reads its word-list file.
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
