"""Command-line entry point for reproducible runs with on-disk artifacts.

Subcommands: train, infer, coherence, entropy-stats, grid, split.  Every
command writes a manifest.json recording the settings it reads,
input/output paths, seed, and per-phase timings, so a run can be repeated
exactly.

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
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

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
    write_coherence_csv,
    write_entropy_csv,
    write_entropy_stats_json,
    write_grid_csv,
)
from .inference import (
    NumericalError,
    estep_batch,
    fit,
    read_gamma_tsv,
    write_elbo_trace_csv,
    write_gamma_tsv,
)
from .model import ConfigError, TrainConfig, load_model, save_model

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


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


def _config(base, args, file_cfg):
    """base, validated, with each setting the command reads taken from its
    flag, else from the config file.  A Namespace without a command reads
    what train reads."""
    command = getattr(args, "command", "train")
    values = {}
    for s in SETTINGS[type(base)]:
        if command not in s.commands:
            continue
        value = getattr(args, s.name, None)
        if value is None and s.key in file_cfg:
            raw = file_cfg[s.key]
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


def _corpus_config(args, file_cfg):
    return _config(CorpusConfig(), args, file_cfg)


def _train_config(args, file_cfg, base=None):
    return _config(base or TrainConfig(), args, file_cfg)


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
# Run manifests


@dataclass
class RunManifest:
    version: str
    command: str
    seed: int
    config: dict
    inputs: dict
    outputs: dict
    timings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def save_manifest(manifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return RunManifest(**json.load(fh))


def _manifest_config(cfg, command):
    """Each setting of cfg that command reads, as a JSON value under its label."""
    out = {}
    for s in SETTINGS[type(cfg)]:
        if command not in s.commands:
            continue
        value = getattr(cfg, s.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        elif value is not None:
            value = np.asarray(value).tolist()  # numpy scalars and arrays to Python
        out[s.label] = value
    return out


# ---------------------------------------------------------------------------
# Input loading


def _is_encoded(input_path, input_format):
    """Whether input_path is read as an encoded corpus directory (vocab.tsv, corpus.tsv)."""
    if input_format == "auto":
        return os.path.isfile(os.path.join(input_path, "vocab.tsv"))
    return input_format == "encoded"


def _load_corpus(input_path, corpus_cfg, input_format):
    if _is_encoded(input_path, input_format):
        vocab = read_vocabulary_tsv(os.path.join(input_path, "vocab.tsv"))
        return read_encoded_corpus(os.path.join(input_path, "corpus.tsv"), vocab)
    return build_corpus(read_raw_docs(input_path), corpus_cfg)


def _load_docs_for_model(input_path, vocabulary, corpus_cfg, input_format):
    """Documents encoded against a trained model's vocabulary (unknowns dropped)."""
    if _is_encoded(input_path, input_format):
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
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    train_cfg = _train_config(args, file_cfg)

    t0 = time.perf_counter()
    corpus = _load_corpus(args.input, corpus_cfg, args.input_format)
    t_load = time.perf_counter() - t0
    logger.info("corpus: %d documents, %d vocabulary terms", corpus.n_docs, corpus.n_words)

    t0 = time.perf_counter()
    result = fit(corpus, train_cfg)
    t_fit = time.perf_counter() - t0

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    model_name = "model.bin" if args.model_format == "binary" else "model.json"
    model_path = os.path.join(args.out, model_name)
    save_model(result.model, train_cfg.homogeneous_lam(), model_path)
    vocab_path = os.path.join(args.out, "vocab.tsv")
    write_vocabulary_tsv(corpus, vocab_path)
    gamma_path = os.path.join(args.out, "gamma.tsv")
    write_gamma_tsv(corpus, result.per_doc, gamma_path)
    trace_path = os.path.join(args.out, "elbo_trace.csv")
    write_elbo_trace_csv(result.elbo_trace, trace_path)
    t_write = time.perf_counter() - t0

    manifest = RunManifest(
        version=__version__,
        command="train",
        seed=int(train_cfg.seed),
        config={"train": _manifest_config(train_cfg, "train"), "corpus": _manifest_config(corpus_cfg, "train")},
        inputs={"corpus": args.input},
        outputs={
            "model": model_path,
            "vocabulary": vocab_path,
            "gamma": gamma_path,
            "elbo_trace": trace_path,
        },
        timings={"load_seconds": t_load, "fit_seconds": t_fit, "write_seconds": t_write},
        # E-steps of the last EM iteration that hit estep_max_iters.
        diagnostics={"unconverged_esteps": result.unconverged_esteps[-1]},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
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
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    model, stored_lam = load_model(args.model)
    vocab_path, vocab = _model_vocabulary(args, model)
    train_cfg = _train_config(
        args, file_cfg, TrainConfig(K=model.K, lam=stored_lam, zeta=model.zeta)
    )
    lam = train_cfg.lam

    t0 = time.perf_counter()
    docs = _load_docs_for_model(args.input, vocab, corpus_cfg, args.input_format)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    kept = []
    for doc in docs:
        if len(doc) == 0:
            logger.warning("document %s has no in-vocabulary tokens; skipped", doc.id)
            continue
        kept.append(doc)
    skipped = len(docs) - len(kept)
    if not kept:
        raise ValueError("all %d documents were skipped as out-of-vocabulary" % skipped)
    per_doc, _ = estep_batch(kept, model, [lam] * len(kept), train_cfg)
    rows = []
    for doc, vp in zip(kept, per_doc):
        theta = vp.gamma / float(np.sum(vp.gamma))
        rows.append((doc.id, theta, entropy(theta)))
    t_infer = time.perf_counter() - t0

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    theta_path = os.path.join(args.out, "theta.tsv")
    with open(theta_path, "w", encoding="utf-8") as fh:
        for doc_id, theta, _ent in rows:
            fh.write("%s\t%s\n" % (doc_id, "\t".join("%.17g" % v for v in theta)))
    entropy_path = os.path.join(args.out, "entropy.csv")
    write_entropy_csv([r[0] for r in rows], [r[2] for r in rows], entropy_path)
    t_write = time.perf_counter() - t0

    manifest = RunManifest(
        version=__version__,
        command="infer",
        seed=0,
        config={"train": _manifest_config(train_cfg, "infer"), "corpus": _manifest_config(corpus_cfg, "infer")},
        inputs={"model": args.model, "vocabulary": vocab_path, "documents": args.input},
        outputs={"theta": theta_path, "entropy": entropy_path},
        timings={"load_seconds": t_load, "infer_seconds": t_infer, "write_seconds": t_write},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print("inferred %d documents (%d skipped) with lambda=%g" % (len(rows), skipped, lam))
    return EXIT_OK


def cmd_coherence(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    if args.top_n < 2:
        raise ConfigError("--top-n must be >= 2, got %d" % args.top_n)
    if args.window_size < 2:
        raise ConfigError("--window-size must be >= 2, got %d" % args.window_size)
    model, _ = load_model(args.model)
    if args.top_n > model.V:
        raise ConfigError("--top-n %d exceeds the model vocabulary size %d" % (args.top_n, model.V))
    vocab_path, vocab = _model_vocabulary(args, model)

    t0 = time.perf_counter()
    docs = _load_docs_for_model(args.input, vocab, corpus_cfg, args.input_format)
    reference = Corpus(vocab, docs)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = coherence_report(model, reference, args.top_n, args.window_size)
    t_score = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "coherence.csv")
    write_coherence_csv(report, vocab, csv_path)
    manifest = RunManifest(
        version=__version__,
        command="coherence",
        seed=0,
        config={
            "corpus": _manifest_config(corpus_cfg, "coherence"),
            "coherence": {"top_n": args.top_n, "window_size": args.window_size},
        },
        inputs={"model": args.model, "vocabulary": vocab_path, "reference": args.input},
        outputs={"coherence": csv_path},
        timings={"load_seconds": t_load, "score_seconds": t_score},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print("mean_cv %.17g" % report.mean_cv)
    return EXIT_OK


def cmd_entropy_stats(args):
    t0 = time.perf_counter()
    doc_ids, gammas = read_gamma_tsv(args.input)
    stats = entropy_stats(list(gammas))
    t_compute = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    entropy_path = os.path.join(args.out, "entropy.csv")
    write_entropy_csv(doc_ids, stats.entropies, entropy_path)
    stats_path = os.path.join(args.out, "entropy_stats.json")
    write_entropy_stats_json(stats, stats_path)
    manifest = RunManifest(
        version=__version__,
        command="entropy-stats",
        seed=0,
        config={},
        inputs={"gamma": args.input},
        outputs={"entropy": entropy_path, "entropy_stats": stats_path},
        timings={"compute_seconds": t_compute},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print(
        "entropy over %d documents: mean %.17g variance %.17g"
        % (len(doc_ids), stats.mean, stats.variance)
    )
    return EXIT_OK


def cmd_grid(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    train_cfg = _train_config(args, file_cfg)
    grid_cfg = _config(GridConfig(), args, file_cfg)

    t0 = time.perf_counter()
    corpus = _load_corpus(args.input, corpus_cfg, args.input_format)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        best_k, best_lam, rows = grid_select(
            corpus,
            grid_cfg.k_grid,
            grid_cfg.lambda_grid,
            grid_cfg.folds,
            train_cfg,
            coherence_on=args.coherence_on,
            top_n=args.top_n,
            window_size=args.window_size,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    t_select = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    grid_path = os.path.join(args.out, "grid.csv")
    write_grid_csv(rows, grid_path)
    manifest = RunManifest(
        version=__version__,
        command="grid",
        seed=int(train_cfg.seed),
        config={
            "train": _manifest_config(train_cfg, "grid"),
            "corpus": _manifest_config(corpus_cfg, "grid"),
            "grid": {
                **_manifest_config(grid_cfg, "grid"),
                "coherence_on": args.coherence_on,
                "top_n": args.top_n,
                "window_size": args.window_size,
            },
        },
        inputs={"corpus": args.input},
        outputs={"grid": grid_path},
        timings={"load_seconds": t_load, "select_seconds": t_select},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print("selected K=%d lambda=%.17g" % (best_k, best_lam))
    return EXIT_OK


def cmd_split(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    seed = int(_train_config(args, file_cfg).seed)

    t0 = time.perf_counter()
    corpus = _load_corpus(args.input, corpus_cfg, args.input_format)
    train_c, test_c = split_corpus(corpus, args.train_fraction, seed)
    t_split = time.perf_counter() - t0

    outputs = {}
    for name, half in (("train", train_c), ("test", test_c)):
        half_dir = os.path.join(args.out, name)
        os.makedirs(half_dir, exist_ok=True)
        write_vocabulary_tsv(half, os.path.join(half_dir, "vocab.tsv"))
        write_encoded_corpus(half, os.path.join(half_dir, "corpus.tsv"))
        outputs[name] = half_dir
    manifest = RunManifest(
        version=__version__,
        command="split",
        seed=seed,
        config={
            "corpus": _manifest_config(corpus_cfg, "split"),
            "split": {"train_fraction": args.train_fraction},
        },
        inputs={"corpus": args.input},
        outputs=outputs,
        timings={"split_seconds": t_split},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
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
            p.add_argument("--input-format", choices=("auto", "text", "encoded"), default="auto")
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
    p.add_argument("--coherence-on", choices=("validation", "train"), default="validation")

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
